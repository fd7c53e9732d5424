#include "store/session_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/budget.hpp"
#include "store/region_file.hpp"
#include "store/trace_file.hpp"

namespace nmo::store {
namespace {

/// Session names become path components; anything that could escape the
/// store root (separators, "..") or upset a shell glob is mapped to '_'.
std::string sanitize_name(std::string_view name) {
  std::string safe(name.empty() ? std::string_view("job") : name);
  for (char& c : safe) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) c = '_';
  }
  if (safe.find_first_not_of('.') == std::string::npos) safe = "job";
  return safe;
}

/// Values land in a key=value-per-line file; newlines in error strings
/// would break the framing.
std::string meta_escape(std::string_view value) {
  std::string out(value);
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

/// Profiles one job into its session directory: canonical trace, region
/// sidecar.  Fills everything in `result` except the scheduler placement
/// fields.  Never throws; failures land in result.error.
void run_one_session(SessionStore& store, const SessionJob& job, const RunOptions& options,
                     SessionResult& result) {
  // The token outlives the ProfileSession below (the engine keeps a raw
  // pointer to it until it is destroyed at scope exit).
  core::BudgetToken budget;
  try {
    result.tenant = job.tenant.empty() ? "default" : job.tenant;
    result.session = store.create_session(job.name, job.home_node);
    if (!job.make_workload) {
      result.error = "job has no workload factory";
      return;
    }
    auto workload = job.make_workload();

    const TraceWriter::Options trace_options =
        options.trace_options ? *options.trace_options : job.trace_options;

    // Streaming tee (optional): connect before the profile so heartbeats
    // cover the run.  Capture never depends on the connect outcome - the
    // local trace below is always written; a dead collector only flips
    // the fallback telemetry.
    std::unique_ptr<net::StreamingTraceSink> sink;
    sim::EngineConfig engine_config = job.engine;
    if (job.stream) {
      sink = std::make_unique<net::StreamingTraceSink>(*job.stream, result.session.name,
                                                       trace_options, result.session.id);
      if (sink->connect()) {
        engine_config.decode_progress = [tee = sink.get()](std::uint64_t records_ok) {
          tee->note_progress(records_ok);
        };
      }
    }

    // Per-job time budget: armed here (covering the baseline run too - the
    // budget is the job's wall-clock allowance, not the instrumented run's)
    // and polled at the monitor's drain-round checkpoint plus the replay
    // loop.  On overrun the engine stops replaying and the writer below
    // closes a valid truncated trace.
    if (job.limits.budget_ns > 0) {
      budget.arm(job.limits.budget_ns);
      engine_config.budget = &budget;
    }

    core::ProfileSession session(job.nmo, engine_config);
    result.report = session.profile(*workload, job.with_baseline);
    if (job.limits.budget_ns > 0) {
      result.budget_state = result.report.budget_truncated ? "truncated" : "ok";
    }

    TraceWriter writer(result.session.trace_path, trace_options);
    if (sink) {
      sink->attach(writer);
      sink->send_regions(session.profiler().regions().regions());
    }
    writer.write_all(session.profiler().trace());
    if (!writer.close()) {
      if (sink) sink->abort();
      result.error = writer.error();
      return;
    }
    result.samples = writer.samples_written();
    result.fingerprint = writer.fingerprint();
    if (sink) {
      sink->finish(result.samples, result.fingerprint);
      const auto stream_stats = sink->stats();
      result.stream.streamed = true;
      result.stream.stream_blocks_sent = stream_stats.blocks_sent;
      result.stream.stream_blocks_dropped = stream_stats.blocks_dropped;
      result.stream.stream_fallback = sink->fallback();
      result.stream.stream_error = stream_stats.error;
      result.stream.stream_state = result.stream.stream_fallback     ? "fallback"
                                   : stream_stats.blocks_dropped > 0 ? "partial"
                                                                     : "clean";
      result.report.stream_blocks_sent = stream_stats.blocks_sent;
      result.report.stream_blocks_dropped = stream_stats.blocks_dropped;
      result.report.stream_fallback = result.stream.stream_fallback;
    }

    // The region table gives the trace's region indices their names;
    // without it nmo-trace can only print bare indices.
    std::string region_error;
    if (!write_region_file(region_path_for(result.session.trace_path),
                           session.profiler().regions().regions(), &region_error)) {
      result.error = region_error;
      return;
    }

    // kFail turns an overrun into a job failure *after* the artifacts are
    // written: the truncated trace stays on disk, verify-clean, for
    // inspection.
    if (result.budget_state == "truncated" &&
        job.limits.on_overrun == OverrunPolicy::kFail) {
      result.error = "time budget exceeded (" + std::to_string(job.limits.budget_ns) +
                     " ns); trace truncated at " + std::to_string(result.samples) +
                     " samples";
    }
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    // A non-std exception escaping here would either wedge a pool worker
    // or (on the threaded path) std::terminate the whole process.
    result.error = "unknown exception";
  }
}

/// Persists one session's outcome next to its trace (best-effort: metadata
/// must never turn a successful profile into a failure).
void write_session_meta(const SessionResult& result) {
  if (result.session.dir.empty()) return;
  std::ofstream out(result.session.dir + "/" + std::string(kSessionMetaFile), std::ios::trunc);
  if (!out) return;
  out << "id=" << result.session.id << '\n';
  out << "name=" << result.session.name << '\n';
  out << "state=" << core::to_string(result.state) << '\n';
  out << "tenant=" << meta_escape(result.tenant) << '\n';
  out << "worker=" << result.worker << '\n';
  out << "node=" << result.node << '\n';
  if (result.session.home_node) {
    out << "home_node=" << *result.session.home_node << '\n';
  }
  out << "queue_wait_ns=" << result.queue_wait_ns << '\n';
  out << "samples=" << result.samples << '\n';
  out << "fingerprint=" << result.fingerprint << '\n';
  out << "accuracy=" << result.report.accuracy() << '\n';
  out << "error=" << meta_escape(result.error) << '\n';
  if (!result.budget_state.empty()) {
    out << "budget_state=" << result.budget_state << '\n';
    out << "budget_checkpoints=" << result.report.budget_checkpoints << '\n';
  }
  if (result.stream.streamed) {
    // Keys mirror SessionResult::Stream field names one-for-one.
    out << "streamed=1\n";
    out << "stream_state=" << result.stream.stream_state << '\n';
    out << "stream_blocks_sent=" << result.stream.stream_blocks_sent << '\n';
    out << "stream_blocks_dropped=" << result.stream.stream_blocks_dropped << '\n';
    out << "stream_fallback=" << (result.stream.stream_fallback ? 1 : 0) << '\n';
    out << "stream_error=" << meta_escape(result.stream.stream_error) << '\n';
  }
}

/// Persists the pool's aggregate stats at the store root, one tenant.<i>.*
/// row group per tenant - the rows `nmo-trace sessions` renders as the
/// per-tenant fairness table.
void write_scheduler_meta(const std::string& root, const SchedulerConfig& config,
                          const SchedulerStats& stats) {
  std::ofstream out(root + "/" + std::string(kSchedulerMetaFile), std::ios::trunc);
  if (!out) return;
  out << "workers=" << stats.workers << '\n';
  out << "queue_depth=" << config.queue_depth << '\n';
  out << "policy=" << to_string(config.policy) << '\n';
  out << "submitted=" << stats.submitted << '\n';
  out << "admitted=" << stats.admitted << '\n';
  out << "rejected=" << stats.rejected << '\n';
  out << "shed=" << stats.shed << '\n';
  out << "expired=" << stats.expired << '\n';
  out << "requeued=" << stats.requeued << '\n';
  out << "completed=" << stats.completed << '\n';
  out << "failed=" << stats.failed << '\n';
  out << "queue_wait_ns_total=" << stats.queue_wait_ns_total << '\n';
  out << "queue_wait_ns_max=" << stats.queue_wait_ns_max << '\n';
  out << "queue_wait_p50_ns=" << stats.queue_wait_p50_ns << '\n';
  out << "queue_wait_p99_ns=" << stats.queue_wait_p99_ns << '\n';
  out << "peak_queue_depth=" << stats.peak_queue_depth << '\n';
  out << "peak_occupancy=" << stats.peak_occupancy << '\n';
  // Topology placement rows: node count, the soft hint's hit/miss split
  // and per-node admissions - what `nmo-trace sessions` renders as the
  // placement line.  A topology-free pool writes the single-node shape.
  const std::size_t nodes = std::max<std::size_t>(1, stats.node_admitted.size());
  out << "topology.nodes=" << nodes << '\n';
  out << "placement_local=" << stats.placement_local << '\n';
  out << "placement_misses=" << stats.placement_misses << '\n';
  for (std::size_t k = 0; k < stats.node_admitted.size(); ++k) {
    out << "node." << k << ".admitted=" << stats.node_admitted[k] << '\n';
  }
  out << "tenants=" << stats.tenants.size() << '\n';
  for (std::size_t i = 0; i < stats.tenants.size(); ++i) {
    const auto& t = stats.tenants[i];
    const std::string p = "tenant." + std::to_string(i) + ".";
    out << p << "name=" << meta_escape(t.name) << '\n';
    out << p << "weight=" << t.weight << '\n';
    out << p << "submitted=" << t.submitted << '\n';
    out << p << "admitted=" << t.admitted << '\n';
    out << p << "rejected=" << t.rejected << '\n';
    out << p << "shed=" << t.shed << '\n';
    out << p << "expired=" << t.expired << '\n';
    out << p << "requeued=" << t.requeued << '\n';
    out << p << "completed=" << t.completed << '\n';
    out << p << "failed=" << t.failed << '\n';
    out << p << "queue_wait_ns_total=" << t.queue_wait_ns_total << '\n';
    out << p << "queue_wait_ns_max=" << t.queue_wait_ns_max << '\n';
    out << p << "queue_wait_p50_ns=" << t.queue_wait_p50_ns << '\n';
    out << p << "queue_wait_p99_ns=" << t.queue_wait_p99_ns << '\n';
    out << p << "peak_queue_depth=" << t.peak_queue_depth << '\n';
    if (t.node_admitted.size() > 1) {
      for (std::size_t k = 0; k < t.node_admitted.size(); ++k) {
        out << p << "node." << k << ".admitted=" << t.node_admitted[k] << '\n';
      }
    }
  }
}

/// Thread-per-session executor (RunOptions{.threaded = true}): the
/// pre-scheduler baseline.  No admission control, no scheduler.meta.
MultiSessionRun run_sessions_thread_per_job(SessionStore& store,
                                            const std::vector<SessionJob>& jobs,
                                            const RunOptions& options) {
  MultiSessionRun run;
  run.results.resize(jobs.size());
  std::vector<std::thread> threads;
  threads.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    threads.push_back(sys::named_thread(
        "nmo-sess" + std::to_string(i),
        [&store, &options, &job = jobs[i], &result = run.results[i]] {
          run_one_session(store, job, options, result);
          result.state =
              result.error.empty() ? core::SessionState::kDone : core::SessionState::kFailed;
          result.report.sched_state = result.state;
          write_session_meta(result);
        }));
  }
  for (auto& t : threads) t.join();
  return run;
}

/// Shared context of one pooled run; lives on run_sessions' stack for the
/// whole run (wait_idle joins every task, including requeued attempts,
/// before it is torn down).
struct PoolRun {
  SessionStore* store = nullptr;
  const std::vector<SessionJob>* jobs = nullptr;
  const RunOptions* options = nullptr;
  MultiSessionRun* run = nullptr;
  Scheduler* scheduler = nullptr;
};

SubmitOptions submit_options_for(const SessionJob& job) {
  SubmitOptions submit;
  submit.priority = job.priority;
  submit.tenant = job.tenant;
  submit.deadline_ns = job.limits.deadline_ns;
  submit.home_node = job.home_node;
  return submit;
}

/// The pooled task body for job `i`, attempt `attempt`.  Defined as a free
/// function (not a lambda) because the kRequeue overrun policy resubmits
/// the job from inside the running task.
Scheduler::Task make_pool_task(PoolRun& pool, std::size_t i, int attempt) {
  return [&pool, i, attempt](const TaskStatus& task) {
    const SessionJob& job = (*pool.jobs)[i];
    SessionResult& result = pool.run->results[i];
    // A requeued attempt starts from a clean slate (fresh session
    // directory, fresh budget); the first attempt's artifacts stay on disk
    // under their own session id.
    if (attempt > 0) result = SessionResult{};
    run_one_session(*pool.store, job, *pool.options, result);
    // Placement fields go in AFTER the profile: run_one_session replaces
    // result.report wholesale, which would zero them.
    result.queue_wait_ns = task.queue_wait_ns;
    result.worker = task.worker;
    result.node = task.node;
    result.report.sched_queue_wait_ns = task.queue_wait_ns;
    result.report.sched_worker = task.worker;
    result.report.sched_node = task.node;
    result.state =
        result.error.empty() ? core::SessionState::kDone : core::SessionState::kFailed;
    result.report.sched_state = result.state;
    write_session_meta(result);
    // One retry for a budget overrun under kRequeue: back through the
    // queue admission-exempt (a capacity-checked submit from inside a
    // worker could deadlock a kBlock pool against itself).  A second
    // overrun keeps the truncated result.
    if (result.budget_state == "truncated" &&
        job.limits.on_overrun == OverrunPolicy::kRequeue && attempt == 0) {
      pool.scheduler->requeue(make_pool_task(pool, i, attempt + 1),
                              submit_options_for(job));
    }
    // Surface the failure to the scheduler's accounting (the worker
    // contains it; the pool keeps serving).
    if (!result.error.empty()) throw std::runtime_error(result.error);
  };
}

}  // namespace

std::string_view to_string(OverrunPolicy policy) noexcept {
  switch (policy) {
    case OverrunPolicy::kTruncate:
      return "truncate";
    case OverrunPolicy::kFail:
      return "fail";
    case OverrunPolicy::kRequeue:
      return "requeue";
  }
  return "?";
}

std::optional<std::map<std::string, std::string>> read_metadata_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::map<std::string, std::string> meta;
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    meta[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return meta;
}

SessionStore::SessionStore(std::string root) : root_(std::move(root)) {
  std::filesystem::create_directories(root_);
  // Resume id assignment past any sessions already in the root, so a
  // process reusing an earlier store (or following another process) does
  // not re-issue ids and truncate existing trace files.
  std::error_code ec;
  const auto note_session_dir = [this](const std::filesystem::path& path) {
    unsigned id = 0;
    if (std::sscanf(path.filename().string().c_str(), "session-%u-", &id) == 1 &&
        id >= next_id_) {
      next_id_ = id + 1;
    }
  };
  for (const auto& entry : std::filesystem::directory_iterator(root_, ec)) {
    note_session_dir(entry.path());
    // Per-node roots (node-<k>/) hold sessions too; the id counter is one
    // sequence across the whole store, so scan a level deeper.
    unsigned node = 0;
    if (std::sscanf(entry.path().filename().string().c_str(), "node-%u", &node) == 1) {
      std::error_code node_ec;
      for (const auto& sub : std::filesystem::directory_iterator(entry.path(), node_ec)) {
        note_session_dir(sub.path());
      }
    }
  }
}

SessionInfo SessionStore::create_session(std::string_view name,
                                         std::optional<std::uint32_t> home_node) {
  SessionInfo info;
  const core::MutexLock lock(mutex_);
  info.name = sanitize_name(name);
  info.home_node = home_node;
  std::string parent = root_;
  if (home_node) {
    // Socket-local root: the node's sessions cluster under one directory
    // a socket-local worker (and a socket-local reader) touches.
    parent += "/node-" + std::to_string(*home_node);
    std::error_code parent_ec;
    std::filesystem::create_directories(parent, parent_ec);
  }
  for (;;) {
    info.id = next_id_++;
    char id_buf[16];
    std::snprintf(id_buf, sizeof(id_buf), "%04u", info.id);
    info.dir = parent + "/session-" + id_buf + "-" + info.name;
    // Atomic claim: create_directory fails (without error) if the
    // directory exists, so two processes sharing the root can never both
    // claim this session directory - the loser moves to the next id.
    std::error_code ec;
    if (std::filesystem::create_directory(info.dir, ec)) break;
    if (ec) {
      // Not an already-exists collision (e.g. the root vanished); fall
      // back to best-effort creation rather than spinning.
      std::filesystem::create_directories(info.dir, ec);
      break;
    }
  }
  info.trace_path = info.dir + "/trace" + std::string(kTraceExtension);
  sessions_.push_back(info);
  return info;
}

std::vector<SessionInfo> SessionStore::sessions() const {
  const core::MutexLock lock(mutex_);
  return sessions_;
}

MultiSessionRun run_sessions(SessionStore& store, const std::vector<SessionJob>& jobs,
                             const RunOptions& options) {
  if (options.threaded) return run_sessions_thread_per_job(store, jobs, options);

  MultiSessionRun run;
  run.results.resize(jobs.size());
  std::vector<std::optional<TaskId>> tickets(jobs.size());
  {
    // The terminal-state sweep below reads every ticket after wait_idle();
    // a retention bound below the in-flight count would reap early tickets
    // before they are read, so floor it at twice the job count (requeued
    // attempts add at most one terminal entry per job; 0 stays 0: the run
    // drains its own ids via forget() either way).
    SchedulerConfig run_config = options.scheduler;
    if (run_config.status_retention != 0) {
      run_config.status_retention = std::max(run_config.status_retention, 2 * jobs.size());
    }
    Scheduler scheduler(run_config);
    PoolRun pool;
    pool.store = &store;
    pool.jobs = &jobs;
    pool.options = &options;
    pool.run = &run;
    pool.scheduler = &scheduler;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      tickets[i] = scheduler.submit(make_pool_task(pool, i, 0), submit_options_for(jobs[i]));
      if (!tickets[i]) {
        run.results[i].state = core::SessionState::kRejected;
        run.results[i].report.sched_state = core::SessionState::kRejected;
        run.results[i].error = "rejected by scheduler admission control (queue full)";
      }
    }
    scheduler.wait_idle();
    run.stats = scheduler.stats();
    // Jobs shed from the queue (or expired in it) never ran their task
    // body; their terminal state only exists in the scheduler's ledger.
    // Reading a ticket also releases it (forget), so the ledger stays
    // bounded.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!tickets[i]) continue;
      if (const auto status = scheduler.status(*tickets[i])) {
        if (status->state == core::SessionState::kShed) {
          run.results[i].state = core::SessionState::kShed;
          run.results[i].report.sched_state = core::SessionState::kShed;
          run.results[i].error = "shed by scheduler admission control (queue full)";
        } else if (status->state == core::SessionState::kExpired) {
          run.results[i].state = core::SessionState::kExpired;
          run.results[i].report.sched_state = core::SessionState::kExpired;
          run.results[i].error = "deadline expired in admission queue";
        }
      }
      scheduler.forget(*tickets[i]);
    }
  }
  write_scheduler_meta(store.root(), options.scheduler, run.stats);
  // Fleet view: ship the freshly written scheduler.meta to the collector
  // over a one-shot control stream; it merges snapshots across senders at
  // its own root.  Best-effort like every streaming path - the local file
  // just written is the source of truth.
  for (const auto& job : jobs) {
    if (!job.stream) continue;
    std::ifstream in(store.root() + "/" + std::string(kSchedulerMetaFile));
    if (in) {
      std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
      net::stream_scheduler_meta(*job.stream, text);
    }
    break;
  }
  return run;
}

}  // namespace nmo::store
