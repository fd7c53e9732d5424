// Multi-session trace storage: the step toward serving many concurrent
// profiled jobs (ROADMAP: "multi-process/multi-session output").
//
// A SessionStore owns one root directory and hands out per-session
// subdirectories with monotonically increasing ids; id assignment is
// mutex-protected so sessions can be created from any thread.  Each
// session's trace lands in its own file (store/trace_file.hpp) with its
// region table beside it (store/region_file.hpp), so N concurrent
// ProfileSessions never contend on output - the per-process analogue of
// upstream NMO's one-trace-per-run layout, with nmo-trace
// (tools/nmo_trace.cpp) as the merge/query companion.
//
// run_sessions(store, jobs, RunOptions) is the single concurrent runner.
// By default it schedules jobs onto the bounded multi-tenant worker pool
// of store/scheduler.hpp: `max_workers` workers pull from a
// priority/deadline/tenant-aware admission queue instead of the old
// thread-per-session spawn (which collapses under fleet-scale job
// counts).  RunOptions carries the whole scheduling surface in one place -
// pool size, admission policy, the tenant table with weights and caps, a
// run-wide trace-format override - while per-job knobs (tenant name,
// priority, deadline, time budget and overrun policy) live on SessionJob /
// JobLimits.  RunOptions{.threaded = true} selects the legacy
// thread-per-session executor, the baseline the scheduler bench and the
// parity tests compare against: both paths must produce byte-identical
// session traces (and therefore byte-identical merges).
//
// Alongside each trace the runner persists a `session.meta` key=value
// file (lifecycle state, worker slot, queue wait, samples, fingerprint,
// tenant, budget outcome, streaming outcome) and, at the store root, a
// `scheduler.meta` with the pool's aggregate SchedulerStats plus one
// `tenant.<i>.*` row group per tenant - what `nmo-trace sessions` prints
// back.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_safety.hpp"
#include "core/config.hpp"
#include "core/session.hpp"
#include "net/block_sender.hpp"
#include "sim/engine.hpp"
#include "store/scheduler.hpp"
#include "store/trace_file.hpp"
#include "workloads/workload.hpp"

namespace nmo::store {

/// One registered session: its id and where its artifacts live.
struct SessionInfo {
  std::uint32_t id = 0;
  std::string name;        ///< Sanitized to a safe path component.
  std::string dir;         ///< "<root>/session-<id>-<name>", or under node-<k>/.
  std::string trace_path;  ///< "<dir>/trace.nmot"
  /// Topology node this session was homed to: its directory lives under
  /// the per-node root "<root>/node-<k>/" and the scheduler preferred a
  /// worker on that node.  Unset = the flat pre-topology layout.
  std::optional<std::uint32_t> home_node;
};

/// Per-session metadata file name (inside the session directory).
inline constexpr std::string_view kSessionMetaFile = "session.meta";
/// Store-level scheduler stats file name (at the store root).
inline constexpr std::string_view kSchedulerMetaFile = "scheduler.meta";

/// Reads a "key=value"-per-line metadata file (session.meta /
/// scheduler.meta).  nullopt when the file cannot be opened.
std::optional<std::map<std::string, std::string>> read_metadata_file(const std::string& path);

class SessionStore {
 public:
  /// Creates `root` (and parents) if needed.
  explicit SessionStore(std::string root);

  /// Registers a new session and creates its directory.  Thread-safe; ids
  /// are unique and dense in creation order.  With `home_node` the session
  /// directory is created under the per-node root "<root>/node-<k>/" so a
  /// socket-local worker writes socket-local trace blocks; ids stay unique
  /// across all node roots (one counter).
  SessionInfo create_session(std::string_view name,
                             std::optional<std::uint32_t> home_node = std::nullopt);

  [[nodiscard]] const std::string& root() const { return root_; }
  /// Snapshot of every session created so far (thread-safe copy).
  [[nodiscard]] std::vector<SessionInfo> sessions() const;

 private:
  std::string root_;
  mutable core::Mutex mutex_{"SessionStore"};
  std::uint32_t next_id_ NMO_GUARDED_BY(mutex_) = 0;
  std::vector<SessionInfo> sessions_ NMO_GUARDED_BY(mutex_);
};

/// What to do with a session whose time budget tripped mid-run.  In every
/// case the trace written so far is finalized *valid* (truncated, verify-
/// clean) - the policy only decides how the outcome is reported and
/// whether the job gets another attempt.
enum class OverrunPolicy : std::uint8_t {
  /// Keep the truncated trace and report the session kDone with
  /// budget_state "truncated" (the default: partial data beats none).
  kTruncate = 0,
  /// Report the session kFailed with a budget error; artifacts stay on
  /// disk for inspection.
  kFail,
  /// Resubmit the job once (admission-exempt, back through the queue with
  /// a fresh budget and session directory); the result reflects the final
  /// attempt.  A second overrun falls back to kTruncate.
  kRequeue,
};

[[nodiscard]] std::string_view to_string(OverrunPolicy policy) noexcept;

/// Per-job scheduling limits - the JobLimits half of the RunOptions /
/// JobLimits API surface.
struct JobLimits {
  /// Wall-clock time budget for the profile (baseline + instrumented
  /// runs); enforced cooperatively at the monitor's drain-round checkpoint
  /// and the engine replay loop.  0 = unlimited.
  std::uint64_t budget_ns = 0;
  /// Relative admission deadline: the job must reach a worker within this
  /// many nanoseconds of submission or it becomes terminal kExpired
  /// without running (EDF ordering within its priority class).  0 = none.
  std::uint64_t deadline_ns = 0;
  OverrunPolicy on_overrun = OverrunPolicy::kTruncate;
};

/// One profiled job of the concurrent runner.
struct SessionJob {
  std::string name = "job";
  core::NmoConfig nmo;
  sim::EngineConfig engine;
  /// Built on the session's worker (workloads are not shared).
  std::function<std::unique_ptr<wl::Workload>()> make_workload;
  bool with_baseline = false;
  /// Admission priority: higher runs first, EDF/FIFO within a class.
  std::uint8_t priority = 0;
  /// Tenant this job bills against (weighted-fair admission; see
  /// SchedulerConfig::tenants).  Empty = the "default" tenant.
  std::string tenant;
  /// Home topology node (soft placement hint): the session's directory
  /// moves under "<root>/node-<k>/" and the scheduler prefers a worker on
  /// node k (SubmitOptions::home_node semantics - bounded wait, never
  /// starves, cross-node fallback billed as a placement miss).  Requires a
  /// multi-node RunOptions::scheduler.topology to affect scheduling; the
  /// node-local directory layout applies regardless.
  std::optional<std::uint32_t> home_node;
  /// Time budget / deadline / overrun policy for this job.
  JobLimits limits;
  /// Trace file format for this session's output (default: v2 with the
  /// block codec; Options{.version = kTraceVersion1} pins the legacy
  /// format for stores older tooling must read).  RunOptions::trace_options
  /// overrides this run-wide when set.
  TraceWriter::Options trace_options;
  /// When set, the session tees every closed trace block to an nmo-traced
  /// collector (net/block_sender.hpp) while the local trace is written as
  /// usual.  Streaming is strictly additive: an unreachable collector or a
  /// mid-run stream failure degrades to exactly the local capture, with
  /// the fallback surfaced in SessionResult / session.meta / the report.
  std::optional<net::StreamConfig> stream;
};

/// Outcome of one job: where the trace landed and what it contained.
struct SessionResult {
  SessionInfo session;
  core::SessionReport report;
  std::uint64_t samples = 0;
  std::string fingerprint;  ///< MD5 of the written trace file.
  std::string error;        ///< Non-empty if the job failed / was turned away.
  /// Final lifecycle state (kDone, kFailed, kRejected, kShed, kExpired).
  core::SessionState state = core::SessionState::kDone;
  std::uint64_t queue_wait_ns = 0;  ///< Admission-queue wait (scheduler path).
  std::uint32_t worker = 0;         ///< Worker-pool slot that ran the job.
  std::uint32_t node = 0;  ///< Topology node of that worker (0 without one).
  std::string tenant;               ///< Tenant the job billed against.
  /// Time-budget outcome: "" (no budget configured), "ok" (finished within
  /// budget) or "truncated" (budget tripped; the trace is valid but
  /// partial).  Mirrored to session.meta as budget_state.
  std::string budget_state;

  /// Streaming tee outcome (SessionJob::stream was set; all defaults
  /// otherwise).  The local artifacts above are complete regardless.
  /// Field names match the session.meta keys one-for-one.
  struct Stream {
    bool streamed = false;
    std::string stream_state;  ///< "clean", "partial" (drops) or "fallback".
    std::uint64_t stream_blocks_sent = 0;
    std::uint64_t stream_blocks_dropped = 0;
    bool stream_fallback = false;
    std::string stream_error;
  };
  Stream stream;
};

/// run_sessions outcome: per-job results (in job order) plus the pool's
/// aggregate stats (zeroed on the threaded path, which has no pool).
struct MultiSessionRun {
  std::vector<SessionResult> results;
  SchedulerStats stats;
};

/// Everything that configures one run_sessions call - the run-wide half of
/// the redesigned API (per-job knobs live on SessionJob / JobLimits).
struct RunOptions {
  /// Pool size, admission queue/policy and the tenant table.  A defaulted
  /// config (hardware-concurrency workers, unbounded queue, no tenants,
  /// no deadlines, no budgets) reproduces the pre-tenant scheduler
  /// behavior exactly.
  SchedulerConfig scheduler;
  /// Run-wide trace format override; unset = each job's own
  /// SessionJob::trace_options.
  std::optional<TraceWriter::Options> trace_options;
  /// Use the legacy thread-per-session executor (one std::thread per job,
  /// no admission control, no scheduler.meta) - the baseline the scheduler
  /// is benchmarked and parity-tested against.
  bool threaded = false;
};

/// Runs every job per `options`, each admitted job writing its canonical
/// trace + region sidecar + session.meta into its own session directory,
/// and (pool path) the aggregate SchedulerStats with per-tenant rows into
/// `<root>/scheduler.meta`.  Results are in job order; jobs turned away by
/// admission control carry kRejected/kShed/kExpired and a non-empty error.
MultiSessionRun run_sessions(SessionStore& store, const std::vector<SessionJob>& jobs,
                             const RunOptions& options = {});

}  // namespace nmo::store
