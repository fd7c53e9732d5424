// The statistical sweep driver behind Figures 7-11.
//
// Simulating every access of a 10^9-operation run is unnecessary for the
// sensitivity studies: between two sample selections the SPE device state
// only depends on the number of decoded operations, so this driver jumps
// from selection event to selection event.  Everything that shapes the
// paper's curves is simulated faithfully:
//
//  * per-thread virtual clocks, phase barriers, bandwidth-capped execution
//    throughput (per-thread rates fall once aggregate DRAM demand exceeds
//    the socket peak);
//  * loaded memory latency: the dispatch-to-complete occupancy of a DRAM
//    access inflates with utilization and develops a heavy tail under
//    oversubscription - the mechanism behind sample collisions at small
//    periods and their growth with thread count;
//  * the full SPE/perf machinery (samplers, aux buffers, watermark AUX
//    records, flags, throttling) - the very same classes the exact trace
//    driver uses;
//  * the NMO monitor with wake latency, queueing and finite drain
//    throughput - the mechanism behind aux-size truncation loss;
//  * overhead charging: interrupt entry per wakeup and per-sample tracking
//    cost, so time overhead = instrumented/baseline - 1 emerges.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"

namespace nmo::sim {

/// Configuration of one statistical profiling run.
struct SweepConfig {
  std::uint32_t threads = 8;
  std::uint64_t period = 4096;
  std::size_t ring_pages = 16;          ///< Data ring: NMO_BUFSIZE default 1 MiB.
  std::size_t aux_bytes = 1 * kMiB;     ///< NMO_AUXBUFSIZE default 1 MiB.
  std::uint64_t aux_watermark = 0;      ///< 0 = half the aux buffer.
  std::uint64_t seed = 1;
  bool jitter = true;
  bool spe_enabled = true;              ///< false = baseline timing run.
  /// The PMU mem_access event counts a slightly larger population than the
  /// operations SPE can sample (hardware prefetch and page-walker accesses
  /// retire as mem_access but are not sampleable ops); this models the
  /// small persistent accuracy deficit of Figure 8a's plateau.
  double pmu_overcount = 0.015;
  /// Override for the monitor's drain-round cadence (0 = CostModel
  /// default).  Counting-style runs (Figures 7-8) keep the monitor
  /// responsive; full-trace runs with RSS tracking and tagged regions
  /// (Figures 9-11) load the monitor loop and stretch its rounds.
  Cycles monitor_round_interval_cycles = 0;
  /// Decode shards of the run's spe::DecodePool; <= 1 decodes inline.  All
  /// StatResult tallies are identical either way - the monitor syncs the
  /// pool at every round.
  std::uint32_t decode_shards = 1;
  /// Write-combining batch for Sampler aux writes (Sampler::set_write_batch);
  /// 1 restores the exact per-record write path.
  std::uint32_t write_batch = 8;
};

/// Aggregated outcome of a run; analysis/accuracy.hpp turns this into the
/// paper's metrics.
struct StatResult {
  // Accuracy inputs (paper Eq. 1).
  std::uint64_t mem_counted = 0;        ///< perf-stat style mem_access count.
  std::uint64_t processed_samples = 0;  ///< Samples NMO decoded and accepted.
  std::uint64_t period = 0;

  // Timing.
  std::uint64_t baseline_ns = 0;        ///< Filled by the caller (spe_enabled=false run).
  std::uint64_t instrumented_ns = 0;

  // Diagnostics.
  std::uint64_t skipped_records = 0;
  std::uint64_t collision_flags = 0;    ///< AUX records flagged COLLISION (Fig 8c metric).
  std::uint64_t hw_collisions = 0;      ///< Raw pipeline collision events.
  std::uint64_t selections = 0;
  std::uint64_t written = 0;
  std::uint64_t dropped_full = 0;       ///< Samples lost to full aux buffers.
  std::uint64_t filtered = 0;
  std::uint64_t throttled = 0;          ///< Selections suppressed while throttled.
  std::uint64_t throttle_events = 0;    ///< Throttle episodes (Fig 11 metric).
  std::uint64_t wakeups = 0;
  std::uint64_t aux_records = 0;
  std::uint64_t truncated_flags = 0;
  std::uint64_t monitor_services = 0;
  std::uint64_t decode_stalls = 0;      ///< Producer queue-full spins (sharded decode).
};

/// Executes one statistical run.  With cfg.spe_enabled == false only the
/// virtual clocks advance: the result carries the baseline time in
/// instrumented_ns and zero sampling activity.
StatResult run_statistical(const WorkloadProfile& profile, const MachineConfig& machine_config,
                           const SweepConfig& cfg);

/// Convenience: runs baseline + instrumented with the same seed and returns
/// the instrumented result with baseline_ns filled in.
StatResult run_with_baseline(const WorkloadProfile& profile, const MachineConfig& machine_config,
                             const SweepConfig& cfg);

}  // namespace nmo::sim
