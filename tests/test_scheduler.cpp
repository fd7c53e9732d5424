// The bounded session scheduler: admission-control policies, lifecycle
// accounting, worker-pool hygiene, and byte-identical parity with the
// thread-per-session baseline.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/profiler.hpp"
#include "store/region_file.hpp"
#include "store/scheduler.hpp"
#include "store/session_store.hpp"
#include "store/trace_file.hpp"
#include "store/trace_merger.hpp"
#include "workloads/stream.hpp"

namespace nmo::store {
namespace {

namespace fs = std::filesystem;
using core::SessionState;

/// A manually released gate: lets a test hold a worker busy so submissions
/// pile up in the admission queue deterministically.
class Gate {
 public:
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Polls until `predicate` holds (bounded); avoids raw sleeps for state
/// that is guaranteed to converge.
template <typename Predicate>
bool eventually(Predicate predicate, std::chrono::milliseconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("nmo_scheduler_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// ---------------------------------------------------------- configuration --

TEST_F(SchedulerTest, ZeroWorkerConfigIsAnError) {
  SchedulerConfig config;
  config.max_workers = 0;
  EXPECT_THROW(Scheduler{config}, std::invalid_argument);
}

TEST_F(SchedulerTest, DefaultWorkerCountIsHardwareConcurrencyAtLeastOne) {
  EXPECT_GE(default_max_workers(), 1u);
  SchedulerConfig config;
  EXPECT_EQ(config.max_workers, default_max_workers());
}

TEST_F(SchedulerTest, AdmissionPolicyNamesRoundTrip) {
  for (const auto policy : {AdmissionPolicy::kBlock, AdmissionPolicy::kReject,
                            AdmissionPolicy::kShedOldest}) {
    EXPECT_EQ(parse_admission_policy(to_string(policy)), policy);
  }
  EXPECT_FALSE(parse_admission_policy("drop-newest").has_value());
}

// --------------------------------------------------------- status ledger --

TEST_F(SchedulerTest, StatusLedgerStaysBoundedByRetention) {
  // The leak this issue fixes: a long-lived pool used to keep one
  // TaskStatus per submission forever unless every caller forgot() its
  // ids.  With a retention bound the ledger reaps terminal statuses
  // oldest-first and stays bounded over arbitrarily many submissions.
  constexpr std::size_t kRetention = 16;
  constexpr int kTasks = 400;
  SchedulerConfig config;
  config.max_workers = 2;
  config.status_retention = kRetention;
  Scheduler scheduler(config);
  std::vector<TaskId> ids;
  for (int i = 0; i < kTasks; ++i) {
    const auto id = scheduler.submit([](const TaskStatus&) {});
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  scheduler.wait_idle();
  EXPECT_LE(scheduler.status_count(), kRetention);
  EXPECT_EQ(scheduler.stats().completed, static_cast<std::uint64_t>(kTasks));
  // The oldest ids were reaped; the most recent terminal one survives.
  EXPECT_FALSE(scheduler.status(ids.front()).has_value());
  EXPECT_TRUE(scheduler.status(ids.back()).has_value());
}

TEST_F(SchedulerTest, ZeroRetentionKeepsEveryStatusUntilForgotten) {
  SchedulerConfig config;
  config.max_workers = 2;
  config.status_retention = 0;  // opt out: the caller promises to forget()
  Scheduler scheduler(config);
  constexpr int kTasks = 64;
  std::vector<TaskId> ids;
  for (int i = 0; i < kTasks; ++i) {
    const auto id = scheduler.submit([](const TaskStatus&) {});
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  scheduler.wait_idle();
  EXPECT_EQ(scheduler.status_count(), static_cast<std::size_t>(kTasks));
  for (const auto id : ids) EXPECT_TRUE(scheduler.forget(id));
  EXPECT_EQ(scheduler.status_count(), 0u);
}

TEST_F(SchedulerTest, RetentionNeverReapsLiveTasks) {
  // Retention 1 with workers parked on a gate: the queued/running tasks
  // must all stay queryable - only *terminal* statuses are reaped.
  Gate gate;
  SchedulerConfig config;
  config.max_workers = 2;
  config.status_retention = 1;
  Scheduler scheduler(config);
  std::vector<TaskId> ids;
  for (int i = 0; i < 8; ++i) {
    const auto id = scheduler.submit([&](const TaskStatus&) { gate.wait(); });
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  for (const auto id : ids) {
    const auto status = scheduler.status(id);
    ASSERT_TRUE(status.has_value());
    EXPECT_NE(status->state, SessionState::kDone);
  }
  gate.open();
  scheduler.wait_idle();
  EXPECT_LE(scheduler.status_count(), 1u);
}

// ------------------------------------------------------- basic scheduling --

TEST_F(SchedulerTest, RunsEveryTaskAndAccountsStats) {
  constexpr int kTasks = 50;
  std::atomic<int> ran{0};
  SchedulerConfig config;
  config.max_workers = 4;
  {
    Scheduler scheduler(config);
    for (int i = 0; i < kTasks; ++i) {
      ASSERT_TRUE(scheduler.submit([&ran](const TaskStatus&) { ++ran; }).has_value());
    }
    scheduler.wait_idle();
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.workers, 4u);
    EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(stats.admitted, static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_LE(stats.peak_occupancy, 4u);
    EXPECT_GE(stats.peak_occupancy, 1u);
    EXPECT_GE(stats.queue_wait_ns_total, stats.queue_wait_ns_max);
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST_F(SchedulerTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    SchedulerConfig config;
    config.max_workers = 1;
    Scheduler scheduler(config);
    for (int i = 0; i < 20; ++i) {
      scheduler.submit([&ran](const TaskStatus&) { ++ran; });
    }
    // No wait_idle: the destructor itself must drain.
  }
  EXPECT_EQ(ran.load(), 20);
}

TEST_F(SchedulerTest, TaskStatusReportsLifecycleAndWorker) {
  SchedulerConfig config;
  config.max_workers = 2;
  Scheduler scheduler(config);
  const auto id = scheduler.submit([](const TaskStatus& status) {
    EXPECT_EQ(status.state, SessionState::kRunning);
    EXPECT_LT(status.worker, 2u);
  });
  ASSERT_TRUE(id.has_value());
  scheduler.wait_idle();
  const auto status = scheduler.status(*id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, SessionState::kDone);
  EXPECT_FALSE(scheduler.status(99999).has_value());
}

// ------------------------------------------------------- admission control --

TEST_F(SchedulerTest, QueueFullRejectsWhenPolicyReject) {
  Gate gate;
  SchedulerConfig config;
  config.max_workers = 1;
  config.queue_depth = 1;
  config.policy = AdmissionPolicy::kReject;
  Scheduler scheduler(config);

  std::atomic<bool> running{false};
  scheduler.submit([&](const TaskStatus&) {
    running = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually([&] { return running.load(); }));

  std::atomic<int> ran{0};
  const auto queued = scheduler.submit([&ran](const TaskStatus&) { ++ran; });
  EXPECT_TRUE(queued.has_value());  // fills the single queue slot
  const auto rejected = scheduler.submit([&ran](const TaskStatus&) { ++ran; });
  EXPECT_FALSE(rejected.has_value());  // queue full -> turned away

  gate.open();
  scheduler.wait_idle();
  EXPECT_EQ(ran.load(), 1);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST_F(SchedulerTest, QueueFullBlocksWhenPolicyBlock) {
  Gate gate;
  SchedulerConfig config;
  config.max_workers = 1;
  config.queue_depth = 1;
  config.policy = AdmissionPolicy::kBlock;
  Scheduler scheduler(config);

  std::atomic<bool> running{false};
  scheduler.submit([&](const TaskStatus&) {
    running = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually([&] { return running.load(); }));
  ASSERT_TRUE(scheduler.submit([](const TaskStatus&) {}).has_value());  // queue now full

  std::atomic<bool> third_submitted{false};
  std::atomic<bool> third_ran{false};
  std::thread submitter([&] {
    const auto id = scheduler.submit([&third_ran](const TaskStatus&) { third_ran = true; });
    EXPECT_TRUE(id.has_value());
    third_submitted = true;
  });

  // The submitter must be backpressured while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_submitted.load());

  gate.open();
  submitter.join();
  EXPECT_TRUE(third_submitted.load());
  scheduler.wait_idle();
  EXPECT_TRUE(third_ran.load());
  EXPECT_EQ(scheduler.stats().rejected, 0u);
}

TEST_F(SchedulerTest, ShedOldestDropsOldestLowestPriorityTask) {
  Gate gate;
  SchedulerConfig config;
  config.max_workers = 1;
  config.queue_depth = 2;
  config.policy = AdmissionPolicy::kShedOldest;
  Scheduler scheduler(config);

  std::atomic<bool> running{false};
  scheduler.submit([&](const TaskStatus&) {
    running = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually([&] { return running.load(); }));

  std::atomic<bool> victim_ran{false};
  std::atomic<int> survivors_ran{0};
  const auto victim =
      scheduler.submit([&victim_ran](const TaskStatus&) { victim_ran = true; }, 0);
  const auto high =
      scheduler.submit([&survivors_ran](const TaskStatus&) { ++survivors_ran; }, 1);
  ASSERT_TRUE(victim.has_value());
  ASSERT_TRUE(high.has_value());
  // Queue is at depth 2: the next submission sheds the oldest entry of the
  // lowest priority class - the victim, not the high-priority task.
  const auto third =
      scheduler.submit([&survivors_ran](const TaskStatus&) { ++survivors_ran; }, 0);
  ASSERT_TRUE(third.has_value());

  gate.open();
  scheduler.wait_idle();
  EXPECT_FALSE(victim_ran.load());
  EXPECT_EQ(survivors_ran.load(), 2);
  const auto victim_status = scheduler.status(*victim);
  ASSERT_TRUE(victim_status.has_value());
  EXPECT_EQ(victim_status->state, SessionState::kShed);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.admitted, 3u);
}

TEST_F(SchedulerTest, ShedOldestRejectsSubmissionRankedBelowEverythingQueued) {
  Gate gate;
  SchedulerConfig config;
  config.max_workers = 1;
  config.queue_depth = 1;
  config.policy = AdmissionPolicy::kShedOldest;
  Scheduler scheduler(config);

  std::atomic<bool> running{false};
  scheduler.submit([&](const TaskStatus&) {
    running = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually([&] { return running.load(); }));

  std::atomic<bool> high_ran{false};
  ASSERT_TRUE(scheduler.submit([&high_ran](const TaskStatus&) { high_ran = true; }, 2));
  // Queue full with a priority-2 task: a priority-0 submission must NOT
  // displace it - the newcomer is the one turned away.
  std::atomic<bool> low_ran{false};
  const auto low = scheduler.submit([&low_ran](const TaskStatus&) { low_ran = true; }, 0);
  EXPECT_FALSE(low.has_value());

  gate.open();
  scheduler.wait_idle();
  EXPECT_TRUE(high_ran.load());
  EXPECT_FALSE(low_ran.load());
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.rejected, 1u);
}

// ------------------------------------------------------------- ordering --

TEST_F(SchedulerTest, FifoOrderWithinOnePriorityClass) {
  Gate gate;
  SchedulerConfig config;
  config.max_workers = 1;
  Scheduler scheduler(config);

  std::atomic<bool> running{false};
  scheduler.submit([&](const TaskStatus&) {
    running = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually([&] { return running.load(); }));

  std::mutex order_mutex;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    scheduler.submit([&, i](const TaskStatus&) {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(i);
    });
  }
  gate.open();
  scheduler.wait_idle();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST_F(SchedulerTest, HigherPriorityClassRunsFirst) {
  Gate gate;
  SchedulerConfig config;
  config.max_workers = 1;
  Scheduler scheduler(config);

  std::atomic<bool> running{false};
  scheduler.submit([&](const TaskStatus&) {
    running = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually([&] { return running.load(); }));

  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto record = [&](const char* label) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.emplace_back(label);
  };
  scheduler.submit([&](const TaskStatus&) { record("low-0"); }, 0);
  scheduler.submit([&](const TaskStatus&) { record("high-0"); }, 2);
  scheduler.submit([&](const TaskStatus&) { record("mid-0"); }, 1);
  scheduler.submit([&](const TaskStatus&) { record("high-1"); }, 2);

  gate.open();
  scheduler.wait_idle();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "high-0");
  EXPECT_EQ(order[1], "high-1");  // FIFO within the high class
  EXPECT_EQ(order[2], "mid-0");
  EXPECT_EQ(order[3], "low-0");
}

// ------------------------------------------------------------- resilience --

TEST_F(SchedulerTest, FailedTaskDoesNotWedgeThePool) {
  SchedulerConfig config;
  config.max_workers = 2;
  Scheduler scheduler(config);

  std::atomic<int> ran{0};
  std::optional<TaskId> failing;
  for (int i = 0; i < 10; ++i) {
    if (i == 3) {
      failing = scheduler.submit(
          [](const TaskStatus&) { throw std::runtime_error("session exploded"); });
    } else {
      scheduler.submit([&ran](const TaskStatus&) { ++ran; });
    }
  }
  scheduler.wait_idle();

  // The pool survived the throw and kept serving - including new work.
  scheduler.submit([&ran](const TaskStatus&) { ++ran; });
  scheduler.wait_idle();
  EXPECT_EQ(ran.load(), 10);
  ASSERT_TRUE(failing.has_value());
  const auto status = scheduler.status(*failing);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, SessionState::kFailed);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 10u);
}

TEST_F(SchedulerTest, WorkerReuseNeverLeaksProfilerBindingBetweenTasks) {
  SchedulerConfig config;
  config.max_workers = 1;  // both tasks run on the same reused worker
  Scheduler scheduler(config);

  core::Profiler profiler{core::NmoConfig{}};
  scheduler.submit([&profiler](const TaskStatus&) {
    // A misbehaving task that installs a binding and never restores it.
    core::set_active_profiler(&profiler);
  });
  scheduler.wait_idle();

  std::atomic<bool> clean{false};
  scheduler.submit(
      [&clean](const TaskStatus&) { clean = core::active_profiler() == nullptr; });
  scheduler.wait_idle();
  EXPECT_TRUE(clean.load());
}

// --------------------------------------------- run_sessions integration --

std::vector<SessionJob> tiny_jobs(std::size_t n) {
  std::vector<SessionJob> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].name = "job-" + std::to_string(i);
    jobs[i].nmo.enable = true;
    jobs[i].nmo.mode = core::Mode::kSample;
    jobs[i].nmo.period = 512;
    jobs[i].engine.threads = 2;
    jobs[i].engine.machine.hierarchy.cores = 2;
    jobs[i].engine.seed = 100 + i;
    jobs[i].make_workload = [] {
      wl::StreamConfig cfg;
      cfg.array_elems = 1 << 12;
      cfg.iterations = 1;
      return std::make_unique<wl::Stream>(cfg);
    };
  }
  return jobs;
}

TEST_F(SchedulerTest, ThirtyTwoSessionsOnFourWorkersMatchThreadPerSessionBaseline) {
  // The PR's acceptance oracle: a 32-job run capped at 4 workers must
  // produce a merged trace byte-identical (count + MD5) to the
  // thread-per-session baseline.
  const auto jobs = tiny_jobs(32);

  SessionStore baseline_store(path("baseline"));
  RunOptions threaded_options;
  threaded_options.threaded = true;
  const auto baseline = run_sessions(baseline_store, jobs, threaded_options).results;
  ASSERT_EQ(baseline.size(), 32u);

  RunOptions options;
  options.scheduler.max_workers = 4;
  options.scheduler.queue_depth = 8;
  options.scheduler.policy = AdmissionPolicy::kBlock;
  SessionStore pool_store(path("pool"));
  const auto run = run_sessions(pool_store, jobs, options);
  ASSERT_EQ(run.results.size(), 32u);

  TraceMerger baseline_merger;
  TraceMerger pool_merger;
  for (std::size_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(baseline[i].error.empty()) << baseline[i].error;
    ASSERT_TRUE(run.results[i].error.empty()) << run.results[i].error;
    // Per-session traces are already byte-identical...
    EXPECT_EQ(run.results[i].fingerprint, baseline[i].fingerprint) << "job " << i;
    baseline_merger.add_input(baseline[i].session.trace_path);
    pool_merger.add_input(run.results[i].session.trace_path);
  }
  // ...and so is the merged trace.
  const auto baseline_stats = baseline_merger.merge_to(path("baseline.nmot"));
  const auto pool_stats = pool_merger.merge_to(path("pool.nmot"));
  ASSERT_TRUE(baseline_stats.has_value()) << baseline_merger.error();
  ASSERT_TRUE(pool_stats.has_value()) << pool_merger.error();
  EXPECT_GT(pool_stats->samples, 0u);
  EXPECT_EQ(pool_stats->samples, baseline_stats->samples);
  EXPECT_EQ(pool_stats->fingerprint, baseline_stats->fingerprint);

  const auto& stats = run.stats;
  EXPECT_EQ(stats.workers, 4u);
  EXPECT_EQ(stats.admitted, 32u);
  EXPECT_EQ(stats.completed, 32u);
  EXPECT_LE(stats.peak_occupancy, 4u);
  EXPECT_LE(stats.peak_queue_depth, 8u);
}

TEST_F(SchedulerTest, RunSessionsWritesSessionAndSchedulerMetadata) {
  const auto jobs = tiny_jobs(3);
  SessionStore store(path("store"));
  RunOptions options;
  options.scheduler.max_workers = 2;
  const auto run = run_sessions(store, jobs, options);

  const auto sched_meta =
      read_metadata_file(store.root() + "/" + std::string(kSchedulerMetaFile));
  ASSERT_TRUE(sched_meta.has_value());
  EXPECT_EQ(sched_meta->at("workers"), "2");
  EXPECT_EQ(sched_meta->at("admitted"), "3");
  EXPECT_EQ(sched_meta->at("completed"), "3");
  EXPECT_EQ(sched_meta->at("policy"), "block");
  // The tenant table surfaces even for a tenant-less run: one implicit
  // "default" row whose counters mirror the aggregate.
  EXPECT_EQ(sched_meta->at("tenants"), "1");
  EXPECT_EQ(sched_meta->at("tenant.0.name"), "default");
  EXPECT_EQ(sched_meta->at("tenant.0.weight"), "1");
  EXPECT_EQ(sched_meta->at("tenant.0.admitted"), "3");
  EXPECT_EQ(sched_meta->at("tenant.0.completed"), "3");

  for (const auto& r : run.results) {
    ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(r.state, SessionState::kDone);
    EXPECT_EQ(r.tenant, "default");
    EXPECT_EQ(r.report.sched_state, SessionState::kDone);
    EXPECT_LT(r.worker, 2u);
    // Placement must survive into the report (profile() replaces the
    // report wholesale, so these are filled afterwards).
    EXPECT_EQ(r.report.sched_worker, r.worker);
    EXPECT_EQ(r.report.sched_queue_wait_ns, r.queue_wait_ns);
    const auto meta =
        read_metadata_file(r.session.dir + "/" + std::string(kSessionMetaFile));
    ASSERT_TRUE(meta.has_value());
    EXPECT_EQ(meta->at("state"), "done");
    EXPECT_EQ(meta->at("tenant"), "default");
    EXPECT_EQ(meta->at("fingerprint"), r.fingerprint);
    EXPECT_EQ(meta->at("samples"), std::to_string(r.samples));
    // No budget configured -> no budget keys.
    EXPECT_EQ(meta->count("budget_state"), 0u);
    // The region sidecar rides along with every session trace.
    const auto regions = read_region_file(region_path_for(r.session.trace_path));
    ASSERT_TRUE(regions.has_value());
    EXPECT_EQ(regions->size(), 3u);  // STREAM tags a, b, c
    EXPECT_EQ((*regions)[0].name, "a");
  }
}

TEST_F(SchedulerTest, FailedJobIsReportedAndDoesNotBlockOthers) {
  auto jobs = tiny_jobs(4);
  jobs[1].make_workload = nullptr;  // no workload factory -> job fails
  SessionStore store(path("store"));
  RunOptions options;
  options.scheduler.max_workers = 2;
  const auto run = run_sessions(store, jobs, options);

  ASSERT_EQ(run.results.size(), 4u);
  EXPECT_EQ(run.results[1].state, SessionState::kFailed);
  EXPECT_FALSE(run.results[1].error.empty());
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_EQ(run.results[i].state, SessionState::kDone) << run.results[i].error;
    EXPECT_GT(run.results[i].samples, 0u);
  }
  EXPECT_EQ(run.stats.failed, 1u);
  EXPECT_EQ(run.stats.completed, 3u);
}

TEST_F(SchedulerTest, DefaultedRunOptionsMatchThreadedBaselineByteForByte) {
  // The API-migration oracle: run_sessions with a defaulted RunOptions
  // (the new one-call entry point) must reproduce the legacy behavior -
  // same per-session fingerprints, byte-identical merged trace.
  const auto jobs = tiny_jobs(6);

  SessionStore threaded_store(path("threaded"));
  RunOptions threaded_options;
  threaded_options.threaded = true;
  const auto baseline = run_sessions(threaded_store, jobs, threaded_options).results;

  SessionStore pool_store(path("pool"));
  const auto run = run_sessions(pool_store, jobs);  // everything defaulted

  ASSERT_EQ(run.results.size(), baseline.size());
  TraceMerger baseline_merger;
  TraceMerger pool_merger;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(baseline[i].error.empty()) << baseline[i].error;
    ASSERT_TRUE(run.results[i].error.empty()) << run.results[i].error;
    EXPECT_EQ(run.results[i].fingerprint, baseline[i].fingerprint) << "job " << i;
    baseline_merger.add_input(baseline[i].session.trace_path);
    pool_merger.add_input(run.results[i].session.trace_path);
  }
  const auto baseline_stats = baseline_merger.merge_to(path("baseline.nmot"));
  const auto pool_stats = pool_merger.merge_to(path("pool.nmot"));
  ASSERT_TRUE(baseline_stats.has_value()) << baseline_merger.error();
  ASSERT_TRUE(pool_stats.has_value()) << pool_merger.error();
  EXPECT_EQ(pool_stats->samples, baseline_stats->samples);
  EXPECT_EQ(pool_stats->fingerprint, baseline_stats->fingerprint);
}

// ------------------------------------------------------ deadlines / EDF --

TEST_F(SchedulerTest, EdfOrdersByDeadlineWithinOnePriorityClass) {
  Gate gate;
  SchedulerConfig config;
  config.max_workers = 1;
  Scheduler scheduler(config);

  std::atomic<bool> running{false};
  scheduler.submit([&](const TaskStatus&) {
    running = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually([&] { return running.load(); }));

  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto record = [&](const char* label) {
    return [&, label](const TaskStatus&) {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.emplace_back(label);
    };
  };
  // Deadlines far enough out that nothing expires; submission order is
  // deliberately NOT deadline order.
  const auto submit_with_deadline = [&](const char* label, std::uint64_t deadline_ns) {
    SubmitOptions options;
    options.deadline_ns = deadline_ns;
    ASSERT_TRUE(scheduler.submit(record(label), options).has_value());
  };
  submit_with_deadline("d-30s", 30'000'000'000ull);
  submit_with_deadline("d-10s", 10'000'000'000ull);
  ASSERT_TRUE(scheduler.submit(record("no-deadline")).has_value());
  submit_with_deadline("d-20s", 20'000'000'000ull);

  gate.open();
  scheduler.wait_idle();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "d-10s");
  EXPECT_EQ(order[1], "d-20s");
  EXPECT_EQ(order[2], "d-30s");
  EXPECT_EQ(order[3], "no-deadline");  // no deadline sorts last in the class
}

TEST_F(SchedulerTest, DeadlineExpiredWhileQueuedBecomesTerminalExpired) {
  Gate gate;
  SchedulerConfig config;
  config.max_workers = 1;
  Scheduler scheduler(config);

  std::atomic<bool> running{false};
  scheduler.submit([&](const TaskStatus&) {
    running = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually([&] { return running.load(); }));

  // A 1 ns relative deadline is necessarily past by the time any worker
  // can pop the entry: the task must become terminal kExpired without
  // ever occupying the worker.
  std::atomic<bool> doomed_ran{false};
  SubmitOptions doomed_options;
  doomed_options.deadline_ns = 1;
  const auto doomed =
      scheduler.submit([&doomed_ran](const TaskStatus&) { doomed_ran = true; },
                       doomed_options);
  ASSERT_TRUE(doomed.has_value());
  std::atomic<bool> survivor_ran{false};
  ASSERT_TRUE(
      scheduler.submit([&survivor_ran](const TaskStatus&) { survivor_ran = true; }));

  gate.open();
  scheduler.wait_idle();
  EXPECT_FALSE(doomed_ran.load());
  EXPECT_TRUE(survivor_ran.load());
  const auto status = scheduler.status(*doomed);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, SessionState::kExpired);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.admitted, 2u);  // the gate task and the survivor
  // Expired is terminal: forget() releases the ledger entry.
  EXPECT_TRUE(scheduler.forget(*doomed));
}

// ------------------------------------------------- multi-tenant fairness --

TEST_F(SchedulerTest, WeightedFairSharesUnderThreeTenantOverload) {
  // Three tenants with weights 4/2/1 keep a single gated worker saturated:
  // stride scheduling must divide the first 70 admissions 40/20/10 (the
  // acceptance gate allows +-10%, but with every entry queued before the
  // gate opens the pick order is fully deterministic).
  Gate gate;
  SchedulerConfig config;
  config.max_workers = 1;
  config.tenants = {{"gold", 4, 0}, {"silver", 2, 0}, {"bronze", 1, 0}};
  Scheduler scheduler(config);

  std::atomic<bool> running{false};
  scheduler.submit([&](const TaskStatus&) {
    running = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually([&] { return running.load(); }));

  constexpr int kPerTenant = 70;
  std::mutex order_mutex;
  std::vector<std::string> order;
  for (int i = 0; i < kPerTenant; ++i) {
    for (const char* tenant : {"gold", "silver", "bronze"}) {
      SubmitOptions options;
      options.tenant = tenant;
      ASSERT_TRUE(scheduler
                      .submit(
                          [&, tenant](const TaskStatus&) {
                            std::lock_guard<std::mutex> lock(order_mutex);
                            order.emplace_back(tenant);
                          },
                          options)
                      .has_value());
    }
  }
  gate.open();
  scheduler.wait_idle();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(3 * kPerTenant));

  // Shares over the first 70 admissions: 40/20/10 expected, +-10% gate.
  std::map<std::string, int> first70;
  for (std::size_t i = 0; i < 70; ++i) ++first70[order[i]];
  EXPECT_GE(first70["gold"], 36) << "gold share " << first70["gold"];
  EXPECT_LE(first70["gold"], 44);
  EXPECT_GE(first70["silver"], 18) << "silver share " << first70["silver"];
  EXPECT_LE(first70["silver"], 22);
  EXPECT_GE(first70["bronze"], 9) << "bronze share " << first70["bronze"];
  EXPECT_LE(first70["bronze"], 11);

  // No starvation: every tenant completed everything it submitted.
  const auto stats = scheduler.stats();
  ASSERT_GE(stats.tenants.size(), 3u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(stats.tenants[t].completed, static_cast<std::uint64_t>(kPerTenant))
        << stats.tenants[t].name;
    EXPECT_EQ(stats.tenants[t].shed, 0u);
    EXPECT_EQ(stats.tenants[t].expired, 0u);
  }
}

TEST_F(SchedulerTest, ShedOldestShedsProportionallyToTenantWeight) {
  // Round-robin overload of a depth-70 queue: the weighted-overage victim
  // rule must leave surviving queue slots proportional to weight
  // (equilibrium 40/20/10 for weights 4/2/1, +-10% gate).
  Gate gate;
  SchedulerConfig config;
  config.max_workers = 1;
  config.queue_depth = 70;
  config.policy = AdmissionPolicy::kShedOldest;
  config.tenants = {{"gold", 4, 0}, {"silver", 2, 0}, {"bronze", 1, 0}};
  Scheduler scheduler(config);

  std::atomic<bool> running{false};
  scheduler.submit([&](const TaskStatus&) {
    running = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually([&] { return running.load(); }));

  constexpr int kPerTenant = 200;
  std::atomic<int> gold_ran{0};
  std::atomic<int> silver_ran{0};
  std::atomic<int> bronze_ran{0};
  for (int i = 0; i < kPerTenant; ++i) {
    for (const auto& [tenant, counter] :
         {std::pair<const char*, std::atomic<int>*>{"gold", &gold_ran},
          {"silver", &silver_ran},
          {"bronze", &bronze_ran}}) {
      SubmitOptions options;
      options.tenant = tenant;
      auto* const ran = counter;
      scheduler.submit([ran](const TaskStatus&) { ++*ran; }, options);
    }
  }
  gate.open();
  scheduler.wait_idle();

  const int survivors = gold_ran.load() + silver_ran.load() + bronze_ran.load();
  EXPECT_EQ(survivors, 70);  // the queue never exceeded its depth
  EXPECT_GE(gold_ran.load(), 36) << "gold survivors " << gold_ran.load();
  EXPECT_LE(gold_ran.load(), 44);
  EXPECT_GE(silver_ran.load(), 18) << "silver survivors " << silver_ran.load();
  EXPECT_LE(silver_ran.load(), 22);
  EXPECT_GE(bronze_ran.load(), 9) << "bronze survivors " << bronze_ran.load();
  EXPECT_LE(bronze_ran.load(), 12);

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(3 * kPerTenant - 70));
  // Zero cross-tenant starvation: every tenant kept some share.
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_GT(stats.tenants[t].completed, 0u) << stats.tenants[t].name;
  }
}

TEST_F(SchedulerTest, PerTenantQueueCapShedsFromTheSameTenantOnly) {
  Gate gate;
  SchedulerConfig config;
  config.max_workers = 1;
  config.policy = AdmissionPolicy::kShedOldest;
  config.tenants = {{"capped", 1, 2}, {"free", 1, 0}};
  Scheduler scheduler(config);

  std::atomic<bool> running{false};
  scheduler.submit([&](const TaskStatus&) {
    running = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually([&] { return running.load(); }));

  SubmitOptions capped;
  capped.tenant = "capped";
  SubmitOptions free_tenant;
  free_tenant.tenant = "free";

  std::atomic<bool> free_ran{false};
  ASSERT_TRUE(
      scheduler.submit([&free_ran](const TaskStatus&) { free_ran = true; }, free_tenant));
  std::atomic<bool> victim_ran{false};
  const auto victim =
      scheduler.submit([&victim_ran](const TaskStatus&) { victim_ran = true; }, capped);
  ASSERT_TRUE(victim.has_value());
  std::atomic<int> capped_ran{0};
  ASSERT_TRUE(scheduler.submit([&capped_ran](const TaskStatus&) { ++capped_ran; }, capped));
  // "capped" is at its cap of 2: the third submission must displace the
  // tenant's OWN oldest entry - never the other tenant's.
  ASSERT_TRUE(scheduler.submit([&capped_ran](const TaskStatus&) { ++capped_ran; }, capped));

  gate.open();
  scheduler.wait_idle();
  EXPECT_TRUE(free_ran.load());
  EXPECT_FALSE(victim_ran.load());
  EXPECT_EQ(capped_ran.load(), 2);
  const auto status = scheduler.status(*victim);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, SessionState::kShed);
  const auto stats = scheduler.stats();
  ASSERT_GE(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].shed, 1u);  // "capped"
  EXPECT_EQ(stats.tenants[1].shed, 0u);  // "free"
}

TEST_F(SchedulerTest, RequeueBypassesAdmissionControlAndNeverBlocks) {
  Gate gate;
  SchedulerConfig config;
  config.max_workers = 1;
  config.queue_depth = 1;
  config.policy = AdmissionPolicy::kBlock;
  Scheduler scheduler(config);

  std::atomic<bool> running{false};
  scheduler.submit([&](const TaskStatus&) {
    running = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually([&] { return running.load(); }));
  std::atomic<int> ran{0};
  ASSERT_TRUE(scheduler.submit([&ran](const TaskStatus&) { ++ran; }));  // queue now full

  // submit() would block here; requeue() must enqueue immediately (it is
  // how a budget-overrun session resubmits itself from INSIDE a worker,
  // where blocking on queue space would deadlock the pool).
  const auto requeued = scheduler.requeue([&ran](const TaskStatus&) { ++ran; }, {});
  ASSERT_TRUE(requeued.has_value());

  gate.open();
  scheduler.wait_idle();
  EXPECT_EQ(ran.load(), 2);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.requeued, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, 0u);
}

// ------------------------------------------- budgets / overrun policies --

/// One deliberately long job (relative to the tiny_jobs mix): enough
/// accesses that a 1 ns budget trips at the first cooperative checkpoint
/// with most of the replay still ahead.
SessionJob long_job() {
  SessionJob job;
  job.name = "long";
  job.nmo.enable = true;
  job.nmo.mode = core::Mode::kSample;
  job.nmo.period = 256;
  job.engine.threads = 2;
  job.engine.machine.hierarchy.cores = 2;
  job.engine.seed = 42;
  job.make_workload = [] {
    wl::StreamConfig cfg;
    cfg.array_elems = 1 << 16;
    cfg.iterations = 4;
    return std::make_unique<wl::Stream>(cfg);
  };
  return job;
}

TEST_F(SchedulerTest, BudgetOverrunTruncatesTraceButKeepsItVerifiable) {
  // Unbudgeted baseline first: how many samples the full replay yields.
  SessionStore baseline_store(path("baseline"));
  const auto baseline = run_sessions(baseline_store, {long_job()});
  ASSERT_EQ(baseline.results.size(), 1u);
  ASSERT_TRUE(baseline.results[0].error.empty()) << baseline.results[0].error;
  ASSERT_GT(baseline.results[0].samples, 0u);
  EXPECT_EQ(baseline.results[0].budget_state, "");  // no budget -> no state

  // A 1 ns budget has already overrun by the first checkpoint poll: the
  // session must finalize a valid truncated trace and stay kDone under
  // the default kTruncate policy.
  auto job = long_job();
  job.limits.budget_ns = 1;
  SessionStore store(path("store"));
  const auto run = run_sessions(store, {job});
  ASSERT_EQ(run.results.size(), 1u);
  const auto& r = run.results[0];
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.state, SessionState::kDone);
  EXPECT_EQ(r.budget_state, "truncated");
  EXPECT_TRUE(r.report.budget_truncated);
  EXPECT_GT(r.report.budget_checkpoints, 0u);
  EXPECT_LT(r.samples, baseline.results[0].samples);

  // The truncated trace verifies clean and round-trips its fingerprint.
  TraceReader reader(r.session.trace_path);
  const auto trace = reader.read_all();
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(trace.size(), r.samples);
  EXPECT_EQ(trace.fingerprint(), r.fingerprint);

  // session.meta records the budget outcome.
  const auto meta = read_metadata_file(r.session.dir + "/" + std::string(kSessionMetaFile));
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->at("budget_state"), "truncated");
  EXPECT_GT(std::stoull(meta->at("budget_checkpoints")), 0u);
}

TEST_F(SchedulerTest, BudgetOverrunFailPolicyFailsAfterWritingArtifacts) {
  auto job = long_job();
  job.limits.budget_ns = 1;
  job.limits.on_overrun = OverrunPolicy::kFail;
  SessionStore store(path("store"));
  const auto run = run_sessions(store, {job});
  ASSERT_EQ(run.results.size(), 1u);
  const auto& r = run.results[0];
  EXPECT_EQ(r.state, SessionState::kFailed);
  EXPECT_NE(r.error.find("time budget exceeded"), std::string::npos) << r.error;
  EXPECT_EQ(r.budget_state, "truncated");
  EXPECT_EQ(run.stats.failed, 1u);

  // kFail reports a failure but never discards data: the truncated trace
  // is on disk and verify-clean.
  TraceReader reader(r.session.trace_path);
  const auto trace = reader.read_all();
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(trace.fingerprint(), r.fingerprint);
}

TEST_F(SchedulerTest, BudgetOverrunRequeuePolicyRetriesOnceThenTruncates) {
  auto job = long_job();
  job.limits.budget_ns = 1;  // both attempts overrun
  job.limits.on_overrun = OverrunPolicy::kRequeue;
  SessionStore store(path("store"));
  const auto run = run_sessions(store, {job});
  ASSERT_EQ(run.results.size(), 1u);
  const auto& r = run.results[0];
  // The second overrun keeps the truncated result instead of looping.
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.state, SessionState::kDone);
  EXPECT_EQ(r.budget_state, "truncated");
  EXPECT_EQ(run.stats.requeued, 1u);
  // Two attempts -> two session directories; the result points at the
  // retry's (fresh) session, and its trace verifies clean.
  EXPECT_EQ(store.sessions().size(), 2u);
  EXPECT_EQ(r.session.id, store.sessions()[1].id);
  TraceReader reader(r.session.trace_path);
  const auto trace = reader.read_all();
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(trace.fingerprint(), r.fingerprint);
}

TEST_F(SchedulerTest, RunSessionsDeadlineExpiredJobNeverRuns) {
  // Two jobs on one worker: the 1 ns deadline is necessarily past by pop
  // time, so that job must come back kExpired - no session directory, no
  // samples - while its peer completes normally.
  std::vector<SessionJob> jobs = {long_job(), long_job()};
  jobs[1].name = "doomed";
  jobs[1].limits.deadline_ns = 1;
  SessionStore store(path("store"));
  RunOptions options;
  options.scheduler.max_workers = 1;
  const auto run = run_sessions(store, jobs, options);
  ASSERT_EQ(run.results.size(), 2u);

  ASSERT_TRUE(run.results[0].error.empty()) << run.results[0].error;
  EXPECT_EQ(run.results[0].state, SessionState::kDone);
  EXPECT_GT(run.results[0].samples, 0u);

  EXPECT_EQ(run.results[1].state, SessionState::kExpired);
  EXPECT_EQ(run.results[1].error, "deadline expired in admission queue");
  EXPECT_EQ(run.results[1].samples, 0u);
  EXPECT_TRUE(run.results[1].session.dir.empty());
  EXPECT_EQ(run.stats.expired, 1u);
  EXPECT_EQ(run.stats.completed, 1u);
  EXPECT_EQ(store.sessions().size(), 1u);  // only the surviving job ran
}

TEST_F(SchedulerTest, RunSessionsBillsJobsToTheirTenants) {
  auto jobs = tiny_jobs(4);
  jobs[0].tenant = "alpha";
  jobs[1].tenant = "alpha";
  jobs[2].tenant = "beta";
  // jobs[3] stays on the default tenant.
  SessionStore store(path("store"));
  RunOptions options;
  options.scheduler.max_workers = 2;
  options.scheduler.tenants = {{"alpha", 2, 0}, {"beta", 1, 0}};
  const auto run = run_sessions(store, jobs, options);

  EXPECT_EQ(run.results[0].tenant, "alpha");
  EXPECT_EQ(run.results[2].tenant, "beta");
  EXPECT_EQ(run.results[3].tenant, "default");
  ASSERT_EQ(run.stats.tenants.size(), 3u);  // alpha, beta + auto-registered default
  EXPECT_EQ(run.stats.tenants[0].name, "alpha");
  EXPECT_EQ(run.stats.tenants[0].weight, 2u);
  EXPECT_EQ(run.stats.tenants[0].completed, 2u);
  EXPECT_EQ(run.stats.tenants[1].completed, 1u);
  EXPECT_EQ(run.stats.tenants[2].name, "default");
  EXPECT_EQ(run.stats.tenants[2].completed, 1u);

  // scheduler.meta carries one row group per tenant.
  const auto sched_meta =
      read_metadata_file(store.root() + "/" + std::string(kSchedulerMetaFile));
  ASSERT_TRUE(sched_meta.has_value());
  EXPECT_EQ(sched_meta->at("tenants"), "3");
  EXPECT_EQ(sched_meta->at("tenant.0.name"), "alpha");
  EXPECT_EQ(sched_meta->at("tenant.0.weight"), "2");
  EXPECT_EQ(sched_meta->at("tenant.0.completed"), "2");
  EXPECT_EQ(sched_meta->at("tenant.1.name"), "beta");
  EXPECT_EQ(sched_meta->at("tenant.2.name"), "default");
  // And each session.meta names the tenant it billed against.
  const auto meta = read_metadata_file(run.results[2].session.dir + "/" +
                                       std::string(kSessionMetaFile));
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->at("tenant"), "beta");
}

// ------------------------------------------------------ topology placement --

TEST_F(SchedulerTest, HomeNodeTasksAdmitOnTheirNodeWhenAWorkerMatches) {
  // 2 workers over a 2-node topology: worker 0 is node 0, worker 1 node 1.
  // With a generous placement window every home-node task must land on its
  // own node - zero misses, and the status carries the node.
  SchedulerConfig config;
  config.max_workers = 2;
  config.topology = sys::CpuTopology::synthetic(2, 4);
  config.placement_wait_ns = 10'000'000'000ull;  // 10 s: never falls back
  Scheduler scheduler(config);

  std::atomic<int> ran{0};
  std::vector<TaskId> ids;
  for (int i = 0; i < 8; ++i) {
    SubmitOptions options;
    options.home_node = static_cast<std::uint32_t>(i % 2);
    const auto id = scheduler.submit(
        [&ran, expect_node = *options.home_node](const TaskStatus& task) {
          EXPECT_EQ(task.node, expect_node);
          ++ran;
        },
        options);
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  scheduler.wait_idle();
  EXPECT_EQ(ran.load(), 8);

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.placement_local, 8u);
  EXPECT_EQ(stats.placement_misses, 0u);
  ASSERT_EQ(stats.node_admitted.size(), 2u);
  EXPECT_EQ(stats.node_admitted[0], 4u);
  EXPECT_EQ(stats.node_admitted[1], 4u);
  for (const auto id : ids) {
    const auto status = scheduler.status(id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, SessionState::kDone);
  }
}

TEST_F(SchedulerTest, HomeNodeFallsBackAfterBoundedWaitAndNeverStarves) {
  // One worker (node 0) and tasks homed to node 1: nothing can ever match,
  // so after the short placement window every task must still run - each
  // billed as a placement miss.  This is the no-starvation guarantee.
  SchedulerConfig config;
  config.max_workers = 1;
  config.topology = sys::CpuTopology::synthetic(2, 2);
  config.placement_wait_ns = 1'000'000;  // 1 ms
  Scheduler scheduler(config);

  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    SubmitOptions options;
    options.home_node = 1;
    ASSERT_TRUE(scheduler
                    .submit(
                        [&ran](const TaskStatus& task) {
                          EXPECT_EQ(task.node, 0u);
                          ++ran;
                        },
                        options)
                    .has_value());
  }
  scheduler.wait_idle();
  EXPECT_EQ(ran.load(), 4);

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.placement_local, 0u);
  EXPECT_EQ(stats.placement_misses, 4u);
  ASSERT_EQ(stats.node_admitted.size(), 2u);
  EXPECT_EQ(stats.node_admitted[0], 4u);
  EXPECT_EQ(stats.node_admitted[1], 0u);
}

TEST_F(SchedulerTest, HomeNodeIsIgnoredWithoutATopology) {
  // A topology-free pool treats home_node as absent: no placement
  // accounting, single-node admission rows - the pre-topology behavior.
  SchedulerConfig config;
  config.max_workers = 2;
  Scheduler scheduler(config);

  std::atomic<int> ran{0};
  SubmitOptions options;
  options.home_node = 1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(scheduler.submit([&ran](const TaskStatus&) { ++ran; }, options)
                    .has_value());
  }
  scheduler.wait_idle();
  EXPECT_EQ(ran.load(), 4);

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.placement_local, 0u);
  EXPECT_EQ(stats.placement_misses, 0u);
  ASSERT_EQ(stats.node_admitted.size(), 1u);
  EXPECT_EQ(stats.node_admitted[0], 4u);
}

TEST_F(SchedulerTest, RunSessionsWritesNodeRootsAndPlacementMeta) {
  auto jobs = tiny_jobs(4);
  jobs[0].home_node = 0;
  jobs[1].home_node = 1;
  jobs[2].home_node = 1;
  // jobs[3] has no home: flat layout, node-agnostic scheduling.
  SessionStore store(path("store"));
  RunOptions options;
  options.scheduler.max_workers = 2;
  options.scheduler.topology = sys::CpuTopology::synthetic(2, 4);
  options.scheduler.placement_wait_ns = 10'000'000'000ull;
  const auto run = run_sessions(store, jobs, options);

  for (const auto& result : run.results) {
    EXPECT_EQ(result.state, SessionState::kDone) << result.error;
  }
  // Homed sessions live under their node roots; the flat job stays flat.
  EXPECT_NE(run.results[0].session.dir.find("/node-0/"), std::string::npos);
  EXPECT_NE(run.results[1].session.dir.find("/node-1/"), std::string::npos);
  EXPECT_NE(run.results[2].session.dir.find("/node-1/"), std::string::npos);
  EXPECT_EQ(run.results[3].session.dir.find("/node-"), std::string::npos);
  // Homed jobs admitted on their own node, billed local.
  EXPECT_EQ(run.stats.placement_local, 3u);
  EXPECT_EQ(run.stats.placement_misses, 0u);
  EXPECT_EQ(run.results[0].node, 0u);
  EXPECT_EQ(run.results[1].node, 1u);
  EXPECT_EQ(run.results[2].node, 1u);

  // scheduler.meta carries the placement rows nmo-trace prints back.
  const auto sched_meta =
      read_metadata_file(store.root() + "/" + std::string(kSchedulerMetaFile));
  ASSERT_TRUE(sched_meta.has_value());
  EXPECT_EQ(sched_meta->at("topology.nodes"), "2");
  EXPECT_EQ(sched_meta->at("placement_local"), "3");
  EXPECT_EQ(sched_meta->at("placement_misses"), "0");
  ASSERT_TRUE(sched_meta->count("node.0.admitted"));
  ASSERT_TRUE(sched_meta->count("node.1.admitted"));
  EXPECT_EQ(std::stoi(sched_meta->at("node.0.admitted")) +
                std::stoi(sched_meta->at("node.1.admitted")),
            4);

  // session.meta of a homed job names its node and home.
  const auto meta = read_metadata_file(run.results[1].session.dir + "/" +
                                       std::string(kSessionMetaFile));
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->at("home_node"), "1");
  EXPECT_EQ(meta->at("node"), "1");
}

}  // namespace
}  // namespace nmo::store
