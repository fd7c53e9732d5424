// The NMO profiler object: owns all collection state for one profiled run.
//
// The runtime component described in section III: it consumes decoded SPE
// samples (region profiling), bus event counters (bandwidth), allocation
// reports (capacity), and the annotation API calls (tags/phases).  The
// machine substrate - real hardware upstream, sim::TraceEngine here -
// pushes data in; post-processing reads the accumulated trace and series.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/bandwidth.hpp"
#include "core/capacity.hpp"
#include "core/config.hpp"
#include "core/regions.hpp"
#include "core/trace.hpp"
#include "kernel/timeconv.hpp"
#include "spe/decode_pool.hpp"

namespace nmo::core {

class Profiler {
 public:
  explicit Profiler(NmoConfig config) : config_(std::move(config)) {}

  // -- wiring (done by the engine/session) -----------------------------------
  /// Supplies the virtual-time source used to stamp annotations.
  void set_time_source(std::function<std::uint64_t()> now_ns) { now_ns_ = std::move(now_ns); }
  /// Supplies the SPE-timer -> perf-clock conversion (from the ring buffer
  /// metadata page, section IV-A).
  void set_time_conv(const kern::TimeConv& conv) { time_conv_ = conv; }

  /// Converts one decoded sample (timestamp, region attribution) and
  /// appends it to the trace directly.
  void on_sample(const spe::Record& rec, CoreId core);

  // -- sharded collection (spe::DecodePool) -----------------------------------
  /// Creates `n` per-shard traces for a spe::DecodePool with `n` shards.
  void bind_trace_shards(std::uint32_t n);
  /// Sink for spe::DecodePool: each shard appends only to its own trace,
  /// so no locking is needed.  Requires bind_trace_shards(n) first.
  [[nodiscard]] spe::DecodePool::BatchSink make_shard_sink();

  /// Finalizes the trace: merges the shard traces into the main one (a
  /// lone shard is moved, not copied) and sorts into the canonical order
  /// (core/trace.hpp), so every shard count emits byte-identical CSV and
  /// MD5 fingerprints.
  void finalize_trace();

  /// Periodic tick with cumulative machine counters.
  void tick(std::uint64_t now_ns, std::uint64_t bus_bytes_cum, std::uint64_t fp_ops_cum);

  // -- annotation API (routed from core/nmo.h) --------------------------------
  void tag_addr(std::string_view name, Addr start, Addr end) {
    regions_.tag_addr(name, start, end);
  }
  void phase_start(std::string_view name) { regions_.phase_start(name, now()); }
  void phase_stop() { regions_.phase_stop(now()); }
  void note_alloc(std::uint64_t bytes) {
    if (has_mode(config_.mode, Mode::kCapacity)) capacity_.on_alloc(bytes, now());
  }
  void note_free(std::uint64_t bytes) {
    if (has_mode(config_.mode, Mode::kCapacity)) capacity_.on_free(bytes, now());
  }

  // -- results ----------------------------------------------------------------
  [[nodiscard]] const NmoConfig& config() const { return config_; }
  [[nodiscard]] const SampleTrace& trace() const { return trace_; }
  [[nodiscard]] const RegionTable& regions() const { return regions_; }
  [[nodiscard]] RegionTable& regions() { return regions_; }
  [[nodiscard]] const CapacityTracker& capacity() const { return capacity_; }
  [[nodiscard]] const BandwidthEstimator& bandwidth() const { return bandwidth_; }
  [[nodiscard]] std::uint64_t now() const { return now_ns_ ? now_ns_() : 0; }

 private:
  [[nodiscard]] TraceSample convert(const spe::Record& rec, CoreId core) const;

  NmoConfig config_;
  std::function<std::uint64_t()> now_ns_;
  kern::TimeConv time_conv_ = kern::TimeConv::from_frequency(1e9);
  RegionTable regions_;
  SampleTrace trace_;
  std::vector<SampleTrace> trace_shards_;  ///< One per decode-pool shard.
  CapacityTracker capacity_;
  BandwidthEstimator bandwidth_;
};

/// Installs/clears the profiler the C API (core/nmo.h) routes to on the
/// calling thread.  The binding is strictly thread-local: concurrent
/// sessions cannot interfere, and installing nullptr (the baseline run)
/// reliably means "no profiler" on this thread.  Annotations must
/// therefore come from the session's own thread - which is where the
/// engine replays every workload.  Returns the previous binding so
/// callers can restore it.
Profiler* set_active_profiler(Profiler* profiler);
[[nodiscard]] Profiler* active_profiler();

/// RAII form of set_active_profiler: installs `profiler` (which may be
/// nullptr for baseline runs) and restores the previous binding on scope
/// exit - including exceptional exit.  This is what keeps a pooled worker
/// thread (store/scheduler.hpp) safe to reuse across sessions: even if a
/// profiled workload throws, the worker's thread-local binding can never
/// leak one session's profiler into the next session scheduled onto the
/// same worker.
class ActiveProfilerScope {
 public:
  explicit ActiveProfilerScope(Profiler* profiler) : prev_(set_active_profiler(profiler)) {}
  ~ActiveProfilerScope() { set_active_profiler(prev_); }

  ActiveProfilerScope(const ActiveProfilerScope&) = delete;
  ActiveProfilerScope& operator=(const ActiveProfilerScope&) = delete;

 private:
  Profiler* prev_;
};

}  // namespace nmo::core
