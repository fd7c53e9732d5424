// Timing cost model of the simulated machine.
//
// All virtual-time accounting flows through these constants.  They are
// calibrated so that the *relative* behaviour of the paper's evaluation
// (overhead percentages, collision onsets, truncation knees) is reproduced;
// see DESIGN.md section 5 and EXPERIMENTS.md for the calibration notes.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace nmo::sim {

struct CostModel {
  // -- application execution -------------------------------------------------
  /// Cycles per decoded operation when the pipeline is not stalled
  /// (4-wide decode on Neoverse-class cores).
  double issue_cpi = 0.3;
  /// Memory-level parallelism: the fraction of a load's latency that is
  /// exposed to execution time is latency / mlp.  Streaming workloads with
  /// hardware prefetch sustain deep overlap on Neoverse-class cores.
  double mlp = 12.0;
  /// Stores retire through the store buffer; only this fraction of their
  /// latency is exposed.
  double store_visibility = 0.05;

  // -- profiling overhead (charged to the application thread) ---------------
  /// Interrupt entry/exit + perf bookkeeping per aux-buffer wakeup.
  Cycles irq_cycles = 9000;  // ~3 us at 3 GHz
  /// Core-local cost of tracking and writing out one sample record
  /// (SPE pipeline tracking resources + uncached aux writes).
  Cycles sample_cost_cycles = 150;
  /// Socket-wide interference per aux wakeup: the interrupt and the
  /// monitor's drain bounce ring-buffer cachelines and steal interconnect
  /// bandwidth from every active core, so the per-wakeup cost felt by each
  /// thread scales with how much of the socket is busy
  /// (broadcast_cycles * active_threads / cores).  This is what makes the
  /// measured overhead grow with thread count in Figure 10.
  Cycles irq_broadcast_cycles = 60000;

  // -- NMO monitor process ---------------------------------------------------
  /// epoll wakeup + context switch before the monitor reacts.
  Cycles monitor_wake_cycles = 45000;  // ~15 us
  /// Fixed per-round cost (syscalls, record iteration setup).
  Cycles monitor_service_base_cycles = 9000;
  /// Per-byte record processing cost: decode + MD5 fingerprint + trace
  /// append; ~1 GB/s sustained at 3 GHz.
  double monitor_cycles_per_byte = 3.0;
  /// Minimum spacing between drain rounds.  The monitor loop batches fd
  /// servicing with its other duties (capacity sampling, file flushing), so
  /// a buffer must absorb fill_rate x this interval between drains - the
  /// mechanism behind Figure 9's aux-size accuracy curve and Figure 10's
  /// thread dome.
  Cycles monitor_round_interval_cycles = 300'000'000;  // ~100 ms at 3 GHz

  // -- memory system loading --------------------------------------------------
  /// Utilization cap in the loaded-latency model: effective DRAM latency is
  /// base / (1 - min(utilization, max_utilization)).  Under bandwidth
  /// saturation, dispatch-to-complete latency of DRAM loads balloons to the
  /// microsecond range (memory-controller queueing), which is what makes
  /// small sampling periods collide (section VII-A).
  double max_utilization = 0.94;
  /// Write-allocate traffic amplification on the DRAM bus (reads for
  /// ownership + writebacks).
  double writeback_factor = 1.30;
};

}  // namespace nmo::sim
