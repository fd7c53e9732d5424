#include "core/session.hpp"

#include "analysis/accuracy.hpp"

namespace nmo::core {

std::string_view to_string(SessionState state) noexcept {
  switch (state) {
    case SessionState::kQueued:
      return "queued";
    case SessionState::kAdmitted:
      return "admitted";
    case SessionState::kRunning:
      return "running";
    case SessionState::kDone:
      return "done";
    case SessionState::kFailed:
      return "failed";
    case SessionState::kRejected:
      return "rejected";
    case SessionState::kShed:
      return "shed";
    case SessionState::kExpired:
      return "expired";
  }
  return "?";
}

double SessionReport::accuracy() const {
  return analysis::accuracy(mem_counted, processed_samples, period);
}

double SessionReport::time_overhead() const {
  return baseline_ns > 0 ? analysis::time_overhead(baseline_ns, instrumented_ns) : 0.0;
}

ProfileSession::ProfileSession(const NmoConfig& nmo_config,
                               const sim::EngineConfig& engine_config)
    : nmo_config_(nmo_config), engine_config_(engine_config) {}

SessionReport ProfileSession::profile(wl::Workload& workload, bool with_baseline) {
  SessionReport report;
  report.period = nmo_config_.period;

  if (with_baseline) {
    // Uninstrumented timing run on an identical, independent machine.  The
    // RAII scope restores the previous binding even if the workload
    // throws, so a pooled worker thread stays clean for its next session.
    ActiveProfilerScope scope(nullptr);
    sim::TraceEngine baseline(engine_config_, nullptr);
    workload.run(baseline);
    baseline.finalize();
    report.baseline_ns = baseline.stats().instrumented_ns;
  }

  profiler_ = std::make_unique<Profiler>(nmo_config_);
  engine_ = std::make_unique<sim::TraceEngine>(engine_config_, profiler_.get());
  {
    ActiveProfilerScope scope(profiler_.get());
    workload.run(*engine_);
    engine_->finalize();
  }

  const auto stats = engine_->stats();
  report.mem_ops = stats.mem_ops;
  report.mem_counted = stats.mem_counted;
  report.instrumented_ns = stats.instrumented_ns;
  report.selections = stats.selections;
  report.collisions = stats.collisions;
  report.dropped_full = stats.dropped_full;
  report.wakeups = stats.wakeups;
  report.decode_stalls = stats.decode_stalls;
  report.budget_checkpoints = stats.budget_checkpoints;
  report.budget_truncated = stats.budget_truncated;
  report.processed_samples = profiler_->trace().size();
  if (const auto* consumer = engine_->consumer()) {
    report.skipped_records = consumer->counts().records_skipped;
    report.collision_flags = consumer->counts().collision_flags;
  }
  return report;
}

}  // namespace nmo::core
