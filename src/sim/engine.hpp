// The exact trace driver: executes real workloads access-by-access against
// the cache hierarchy and the SPE device model.
//
// TraceEngine implements wl::Executor.  Each parallel_for kernel runs in
// two phases: first every virtual thread executes its slice of the real
// algorithm, recording each memory touch; then the engine replays the
// per-thread access streams in global virtual-time order (min-heap over
// thread clocks) against the shared hierarchy, feeding each decoded
// operation to the per-core SPE sampler, charging profiling overhead, and
// firing monitor drain rounds and per-tick profiler callbacks exactly as
// the statistical driver does.  Region figures (4-6), the CloudSuite
// capacity/bandwidth figures (2-3) and the integration tests run on this
// engine.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/budget.hpp"
#include "core/profiler.hpp"
#include "sim/machine.hpp"
#include "sim/monitor.hpp"
#include "spe/aux_consumer.hpp"
#include "spe/decode_pool.hpp"
#include "spe/sampler.hpp"
#include "workloads/workload.hpp"

namespace nmo::sim {

struct EngineConfig {
  MachineConfig machine{};
  std::uint32_t threads = 8;
  std::uint64_t seed = 1;
  /// Profiler tick interval in virtual nanoseconds (capacity/bandwidth
  /// sampling; the paper samples per second at testbed scale).
  std::uint64_t tick_interval_ns = 10'000'000;
  /// Same PMU population mismatch as the statistical driver.
  double pmu_overcount = 0.015;
  /// Decode shards of the run's spe::DecodePool; <= 1 decodes inline on
  /// the timeline thread.  Any value produces byte-identical traces: shard
  /// traces are merged canonically at finalize (core/trace.hpp
  /// sort_canonical).
  std::uint32_t decode_shards = 1;
  /// Write-combining batch for Sampler aux writes (Sampler::set_write_batch).
  /// A conservative default keeps wakeup timing close to per-record writes
  /// while removing most of the per-record call boundary; 1 restores the
  /// exact per-record path.
  std::uint32_t write_batch = 8;
  /// Decode-progress observer installed on the run's AuxConsumer: called
  /// on the timeline thread with the cumulative decoded-sample tally as it
  /// advances.  The streaming-capture layer (net/block_sender.hpp) feeds
  /// its live heartbeats from this; empty costs nothing.
  std::function<void(std::uint64_t records_ok)> decode_progress;
  /// Cooperative preemption token (core/budget.hpp), or nullptr for an
  /// unlimited run.  The monitor polls it every drain round and the replay
  /// loop checks it between accesses; once tripped, the engine stops
  /// replaying, skips the bodies of any subsequent kernels, and finalize()
  /// emits a *valid truncated* trace.  Must outlive the engine.
  core::BudgetToken* budget = nullptr;
};

/// Aggregated sampling statistics of one engine run.
struct EngineStats {
  std::uint64_t mem_ops = 0;        ///< Exact memory operations executed.
  std::uint64_t mem_counted = 0;    ///< PMU mem_access events (with overcount).
  std::uint64_t fp_ops = 0;
  std::uint64_t selections = 0;
  std::uint64_t collisions = 0;
  std::uint64_t written = 0;
  std::uint64_t dropped_full = 0;
  std::uint64_t filtered = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t instrumented_ns = 0;
  /// Producer queue-full spins in the decode pool (0 for an inline pool):
  /// the backpressure signal that decode shards bound the drain loop.
  std::uint64_t decode_stalls = 0;
  // Streaming-capture telemetry (filled by store::run_sessions when the
  // job teed into a net::StreamingTraceSink; all zero/false otherwise).
  std::uint64_t stream_blocks_sent = 0;
  std::uint64_t stream_blocks_dropped = 0;  ///< Drop-oldest ring evictions.
  /// Capture degraded to local-only: the collector was unreachable or the
  /// stream failed mid-run.  The on-disk trace is complete either way.
  bool stream_fallback = false;
  // Time-budget telemetry (zero unless EngineConfig::budget was set).
  std::uint64_t budget_checkpoints = 0;  ///< Cooperative poll() visits.
  bool budget_truncated = false;  ///< The run stopped early on a tripped budget.
};

class TraceEngine final : public wl::Executor {
 public:
  /// `profiler` may be null (pure timing run).  When the profiler's config
  /// enables sampling (mode has kSample and period > 0) the engine opens
  /// one SPE event per virtual thread.
  TraceEngine(const EngineConfig& config, core::Profiler* profiler);
  ~TraceEngine() override;

  // wl::Executor ------------------------------------------------------------
  [[nodiscard]] std::uint32_t threads() const override { return config_.threads; }
  void parallel_for(std::string_view kernel, std::size_t n,
                    const wl::Executor::KernelBody& body) override;
  void serial(std::string_view kernel, const wl::Executor::SerialBody& body) override;
  Addr alloc(std::string_view tag, std::uint64_t bytes, std::uint64_t report_scale) override;
  void dealloc(Addr base) override;
  [[nodiscard]] std::uint64_t now_ns() const override;

  /// Finalizes the run: flushes samplers and aux buffers and performs the
  /// final monitor drain (outside the timing window).  Must be called once
  /// after the workload returns.
  void finalize();

  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] Machine& machine() { return *machine_; }
  [[nodiscard]] bool sampling_enabled() const { return !samplers_.empty(); }
  /// Consumer-side decode counters (null when sampling is disabled).
  [[nodiscard]] const spe::AuxConsumer* consumer() const { return consumer_.get(); }

 private:
  struct RecordedAccess {
    Addr addr;
    std::uint16_t alu_before;
    std::uint8_t size;
    std::uint8_t is_store;
  };

  class Recorder;  // MemRecorder capturing into a RecordedAccess vector

  void replay(std::vector<std::vector<RecordedAccess>>& streams, Cycles start);
  void process_monitor_until(Cycles t);
  void maybe_tick(Cycles t);
  /// True once the budget token tripped; latches budget_stopped_ so every
  /// later kernel is skipped without re-reading the token.
  bool budget_stopped();

  EngineConfig config_;
  core::Profiler* profiler_;
  std::unique_ptr<Machine> machine_;
  kern::PerfEvent* mem_counter_ = nullptr;
  kern::PerfEvent* fp_counter_ = nullptr;

  std::vector<std::unique_ptr<spe::Sampler>> samplers_;
  std::vector<kern::PerfEvent*> events_;
  std::unique_ptr<spe::DecodePool> decode_pool_;  ///< Non-null when sampling.
  std::unique_ptr<spe::AuxConsumer> consumer_;
  std::unique_ptr<Monitor> monitor_;
  std::optional<Cycles> monitor_due_;

  std::vector<Cycles> clocks_;
  Cycles barrier_ = 0;
  std::uint64_t next_tick_ns_ = 0;
  double carry_overcount_ = 0.0;

  // Virtual allocator.
  struct Allocation {
    std::uint64_t bytes = 0;
    std::uint64_t reported = 0;
  };
  Addr next_addr_ = 0x10'0000;  // skip the null page
  std::vector<std::pair<Addr, Allocation>> allocations_;

  // Loaded-latency feedback: rolling utilization estimate.
  std::uint64_t util_window_lines_ = 0;
  Cycles util_window_start_ = 0;
  double utilization_ = 0.0;

  std::uint64_t total_mem_ops_ = 0;
  std::uint64_t total_fp_ops_ = 0;
  bool budget_stopped_ = false;
  std::uint32_t accesses_since_poll_ = 0;
  std::vector<std::uint64_t> last_wakeups_;
  std::vector<std::uint64_t> last_written_;
  bool finalized_ = false;
};

}  // namespace nmo::sim
