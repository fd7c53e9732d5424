// ProfileSession: the highest-level entry point, tying a workload, the
// machine simulator and the NMO profiler together.
//
// This is what examples and figure benches use:
//
//   core::NmoConfig nmo = core::NmoConfig::from_env(env);
//   core::ProfileSession session(nmo, engine_config);
//   auto report = session.profile(workload);
//   report.accuracy(), session.profiler().trace(), ...
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "core/budget.hpp"
#include "core/config.hpp"
#include "core/profiler.hpp"
#include "sim/engine.hpp"
#include "workloads/workload.hpp"

namespace nmo::core {

/// Lifecycle of a session under the bounded scheduler
/// (store/scheduler.hpp): queued -> admitted -> running -> done/failed.
/// kRejected, kShed and kExpired are terminal admission-control outcomes -
/// the session never ran (kExpired: its deadline passed while it was still
/// waiting in the queue).  A ProfileSession driven directly (no scheduler)
/// reports kDone.
enum class SessionState : std::uint8_t {
  kQueued = 0,
  kAdmitted,
  kRunning,
  kDone,
  kFailed,
  kRejected,
  kShed,
  kExpired,
};

/// Stable lowercase names ("queued", "done", ...) used in session
/// metadata files and CLI output.
[[nodiscard]] std::string_view to_string(SessionState state) noexcept;

/// Summary of one profiled run (Eq. 1 inputs + diagnostics).
struct SessionReport {
  std::uint64_t mem_ops = 0;
  std::uint64_t mem_counted = 0;
  std::uint64_t processed_samples = 0;
  std::uint64_t skipped_records = 0;
  std::uint64_t period = 0;
  std::uint64_t baseline_ns = 0;
  std::uint64_t instrumented_ns = 0;
  std::uint64_t selections = 0;
  std::uint64_t collisions = 0;
  std::uint64_t collision_flags = 0;
  std::uint64_t dropped_full = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t decode_stalls = 0;  ///< Decode-pool backpressure (queue-full spins).

  // Scheduler placement (filled by store::run_sessions when the session ran
  // under the bounded worker pool; a direct ProfileSession::profile call
  // leaves the defaults: kDone, no queue wait, worker 0).
  SessionState sched_state = SessionState::kDone;
  std::uint64_t sched_queue_wait_ns = 0;  ///< Time spent in the admission queue.
  std::uint32_t sched_worker = 0;         ///< Worker-pool slot that ran the session.
  std::uint32_t sched_node = 0;  ///< Topology node of that worker (0 without one).

  // Streaming-capture telemetry (filled by store::run_sessions when the
  // job teed its trace into a net::StreamingTraceSink; zero otherwise).
  std::uint64_t stream_blocks_sent = 0;
  std::uint64_t stream_blocks_dropped = 0;  ///< Drop-oldest ring evictions.
  /// Capture degraded to local-only (collector unreachable, or the stream
  /// failed mid-run).  The local on-disk trace is complete either way.
  bool stream_fallback = false;

  // Time-budget telemetry (zero unless sim::EngineConfig::budget pointed at
  // an armed core::BudgetToken).
  std::uint64_t budget_checkpoints = 0;  ///< Cooperative poll() visits.
  /// The budget tripped mid-replay: remaining work was skipped and the
  /// trace was finalized early (valid but truncated).
  bool budget_truncated = false;

  /// Eq. 1 of the paper.
  [[nodiscard]] double accuracy() const;
  /// Relative execution-time overhead (0 when no baseline was run).
  [[nodiscard]] double time_overhead() const;
};

class ProfileSession {
 public:
  ProfileSession(const NmoConfig& nmo_config, const sim::EngineConfig& engine_config);

  /// Runs the workload under the profiler; with `with_baseline` the
  /// workload is first executed uninstrumented on an identical machine to
  /// measure the baseline time (the paper's overhead methodology).
  SessionReport profile(wl::Workload& workload, bool with_baseline = true);

  [[nodiscard]] const Profiler& profiler() const { return *profiler_; }
  [[nodiscard]] Profiler& profiler() { return *profiler_; }
  /// The instrumented engine of the last profile() call (valid until the
  /// next call); exposes the machine for hierarchy statistics.
  [[nodiscard]] sim::TraceEngine* engine() { return engine_.get(); }

 private:
  NmoConfig nmo_config_;
  sim::EngineConfig engine_config_;
  std::unique_ptr<Profiler> profiler_;
  std::unique_ptr<sim::TraceEngine> engine_;
};

}  // namespace nmo::core
