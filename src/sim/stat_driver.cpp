#include "sim/stat_driver.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "sim/monitor.hpp"
#include "spe/aux_consumer.hpp"
#include "spe/decode_pool.hpp"
#include "spe/sampler.hpp"

namespace nmo::sim {
namespace {

/// Machine-dependent execution parameters of one phase.
struct PhaseExec {
  double cycles_per_mem = 1.0;  ///< Execution time per memory op (throughput view).
  double ops_per_mem = 3.0;     ///< Decoded ops per memory op.
  double mem_frac = 1.0 / 3.0;  ///< P(decoded op is a memory op).
  double oversub = 0.0;         ///< Raw DRAM demand / socket peak (can be > 1).
  double dram_lat_eff = 330.0;  ///< Loaded DRAM dispatch-to-complete latency.
};

PhaseExec derive_phase(const PhaseProfile& ph, const MachineConfig& mc,
                       std::uint32_t active_threads) {
  const auto& lat = mc.hierarchy.latency;
  const CostModel& cost = mc.cost;

  PhaseExec e;
  e.ops_per_mem = 1.0 + ph.nonmem_per_mem;
  e.mem_frac = 1.0 / e.ops_per_mem;

  const double lats[kNumMemLevels] = {
      static_cast<double>(lat.l1), static_cast<double>(lat.l2),
      static_cast<double>(lat.slc), static_cast<double>(lat.dram)};
  double mean_latency = 0.0;
  for (std::size_t l = 0; l < kNumMemLevels; ++l) mean_latency += ph.level_mix[l] * lats[l];

  const double load_frac = 1.0 - ph.store_frac;
  const double exposed =
      mean_latency * (load_frac / cost.mlp + ph.store_frac * cost.store_visibility);
  e.cycles_per_mem = e.ops_per_mem * cost.issue_cpi + exposed +
                     ph.tlb_miss_rate * static_cast<double>(lat.tlb_miss);

  // Aggregate DRAM demand vs. the socket peak: once oversubscribed, every
  // thread's throughput is scaled back and the loaded latency balloons.
  const double bytes_per_mem =
      ph.level_mix[3] * static_cast<double>(mc.hierarchy.l1.line_size) * cost.writeback_factor;
  const double per_thread_rate = mc.freq_hz() / e.cycles_per_mem;  // mem ops/s
  const double demand = per_thread_rate * bytes_per_mem * active_threads;
  const double peak = mc.hierarchy.dram_bytes_per_cycle * mc.freq_hz();
  e.oversub = peak > 0 ? demand / peak : 0.0;
  if (e.oversub > 1.0) e.cycles_per_mem *= e.oversub;
  const double util = std::min(e.oversub, cost.max_utilization);
  e.dram_lat_eff = static_cast<double>(lat.dram) / (1.0 - util);
  return e;
}

enum EventKind : std::uint32_t { kSelection = 0, kMonitorDone = 1 };

struct Ev {
  std::uint64_t cycles;
  std::uint32_t kind;
  std::uint32_t idx;
  std::uint64_t seq;
  bool operator>(const Ev& o) const {
    return cycles != o.cycles ? cycles > o.cycles : seq > o.seq;
  }
};

struct ThreadState {
  Cycles clock = 0;
  double mem_done = 0.0;
  double gap_mem = 0.0;       ///< Mem ops consumed when the pending selection fires.
  bool waiting_event = false; ///< A selection event for this thread is in the heap.
  spe::Sampler* sampler = nullptr;
  kern::PerfEvent* event = nullptr;
  Rng op_rng{0, 0};
  std::uint64_t last_wakeups = 0;
  std::uint64_t last_written = 0;
};

MemLevel draw_level(Rng& rng, const std::array<double, kNumMemLevels>& mix) {
  double u = rng.uniform01();
  for (std::size_t l = 0; l < kNumMemLevels; ++l) {
    if (u < mix[l]) return static_cast<MemLevel>(l);
    u -= mix[l];
  }
  return MemLevel::kDRAM;
}

}  // namespace

StatResult run_statistical(const WorkloadProfile& profile, const MachineConfig& machine_config,
                           const SweepConfig& cfg) {
  Machine machine(machine_config);
  const CostModel& cost = machine.cost();
  auto& mem_counter = machine.open_counter(kern::CountEvent::kMemAccess);

  StatResult result;
  result.period = cfg.period;

  const std::uint32_t threads = std::max<std::uint32_t>(1, cfg.threads);
  std::vector<ThreadState> ts(threads);
  std::vector<std::unique_ptr<spe::Sampler>> samplers;
  std::vector<kern::PerfEvent*> events;

  if (cfg.spe_enabled) {
    kern::PerfEventAttr attr;
    attr.type = kern::kPerfTypeArmSpe;
    attr.config = kern::kSpeConfigLoadsAndStores | (cfg.jitter ? kern::kSpeJitter : 0);
    attr.sample_period = cfg.period;
    attr.aux_watermark = cfg.aux_watermark;
    attr.disabled = false;
    for (std::uint32_t t = 0; t < threads; ++t) {
      auto& ev = machine.open_spe(attr, t % machine_config.hierarchy.cores, cfg.ring_pages,
                                  cfg.aux_bytes);
      samplers.push_back(std::make_unique<spe::Sampler>(&ev, Rng(cfg.seed, 1000 + t)));
      samplers.back()->set_write_batch(cfg.write_batch);
      events.push_back(&ev);
      ts[t].sampler = samplers.back().get();
      ts[t].event = &ev;
    }
  }
  for (std::uint32_t t = 0; t < threads; ++t) ts[t].op_rng = Rng(cfg.seed, 2000 + t);

  // A baseline run drains nothing, so it gets an inline pool (no workers).
  spe::DecodePool decode_pool(cfg.spe_enabled ? cfg.decode_shards : 1);
  spe::AuxConsumer consumer(&decode_pool);
  CostModel monitor_cost = cost;
  if (cfg.monitor_round_interval_cycles != 0) {
    monitor_cost.monitor_round_interval_cycles = cfg.monitor_round_interval_cycles;
  }
  Monitor monitor(monitor_cost, &consumer, events);

  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> heap;
  std::uint64_t seq = 0;

  Cycles phase_start = 0;
  std::uint64_t accounted_wakeups = 0;
  const auto& lat = machine_config.hierarchy.latency;

  for (const auto& phase : profile.phases) {
    const std::uint32_t active = phase.parallel ? threads : 1;
    const PhaseExec exec = derive_phase(phase, machine_config, active);

    // PMU mem_access baseline count (includes the unsampleable population).
    mem_counter.add_count(static_cast<std::uint64_t>(
        std::llround(static_cast<double>(phase.mem_ops) * (1.0 + cfg.pmu_overcount))));

    for (auto& s : ts) {
      s.clock = phase_start;
      s.mem_done = 0.0;
      s.gap_mem = 0.0;
      s.waiting_event = false;
    }
    const double quota = static_cast<double>(phase.mem_ops) / active;

    if (!cfg.spe_enabled) {
      for (std::uint32_t t = 0; t < active; ++t) {
        ts[t].clock += static_cast<Cycles>(quota * exec.cycles_per_mem);
      }
      phase_start = std::max_element(ts.begin(), ts.end(), [](const auto& a, const auto& b) {
                      return a.clock < b.clock;
                    })->clock;
      continue;
    }

    std::uint32_t remaining = active;
    auto schedule_next = [&](std::uint32_t t) {
      ThreadState& s = ts[t];
      const std::uint64_t gap_ops = s.sampler->draw_interval();
      const double gap_mem = static_cast<double>(gap_ops) * exec.mem_frac;
      if (s.mem_done + gap_mem >= quota) {
        const double left = quota - s.mem_done;
        s.clock += static_cast<Cycles>(left * exec.cycles_per_mem);
        s.mem_done = quota;
        s.waiting_event = false;
        --remaining;
        return;
      }
      s.gap_mem = gap_mem;
      s.waiting_event = true;
      const Cycles when = s.clock + static_cast<Cycles>(gap_mem * exec.cycles_per_mem);
      heap.push(Ev{when, kSelection, t, seq++});
    };

    for (std::uint32_t t = 0; t < active; ++t) schedule_next(t);

    while (remaining > 0) {
      const Ev ev = heap.top();
      heap.pop();
      if (ev.kind == kMonitorDone) {
        if (auto next = monitor.on_round_done(ev.cycles)) {
          heap.push(Ev{*next, kMonitorDone, 0, seq++});
        }
        continue;
      }
      ThreadState& s = ts[ev.idx];
      s.clock = ev.cycles;
      s.mem_done += s.gap_mem;
      s.waiting_event = false;

      // Build the selected operation.
      spe::OpInfo op;
      op.now_cycles = s.clock;
      if (s.op_rng.uniform01() < exec.mem_frac) {
        op.cls = s.op_rng.uniform01() < phase.store_frac ? spe::OpClass::kStore
                                                         : spe::OpClass::kLoad;
        op.level = draw_level(s.op_rng, phase.level_mix);
        op.tlb_miss = s.op_rng.bernoulli(phase.tlb_miss_rate);
        double latency;
        switch (op.level) {
          case MemLevel::kL1: latency = static_cast<double>(lat.l1); break;
          case MemLevel::kL2: latency = static_cast<double>(lat.l2); break;
          case MemLevel::kSLC: latency = static_cast<double>(lat.slc); break;
          case MemLevel::kDRAM:
          default: {
            // Loaded latency with a heavy tail that deepens quadratically
            // under oversubscription: queueing variance grows faster than
            // the mean as more requestors contend, which is what makes
            // collisions keep growing with thread count (Fig. 11).
            latency = exec.dram_lat_eff;
            const double tail = std::max(0.0, exec.oversub - 0.5);
            if (tail > 0.0) latency *= 1.0 + 0.3 * tail * tail * s.op_rng.exponential();
            break;
          }
        }
        if (op.tlb_miss) latency += static_cast<double>(lat.tlb_miss);
        op.latency = static_cast<Cycles>(latency);
        op.vaddr = profile.addr_base + (s.op_rng.uniform(profile.addr_span / 8) * 8);
        op.pc = 0x400000 + s.op_rng.uniform(0x10000);
      } else {
        op.cls = spe::OpClass::kOther;
        op.latency = 8;
        op.pc = 0x400000 + s.op_rng.uniform(0x10000);
      }
      s.sampler->select(op);

      // Charge profiling overhead to this thread: IRQ entry per wakeup and
      // tracking cost per written record.
      const auto& est = s.event->stats();
      while (s.last_wakeups < est.wakeups) {
        ++s.last_wakeups;
        s.clock += cost.irq_cycles;
        if (auto done = monitor.on_wakeup(ev.cycles)) {
          heap.push(Ev{*done, kMonitorDone, 0, seq++});
        }
      }
      const std::uint64_t written = s.sampler->stats().written;
      if (written > s.last_written) {
        s.clock += (written - s.last_written) * cost.sample_cost_cycles;
        s.last_written = written;
      }

      schedule_next(ev.idx);
    }

    phase_start = std::max_element(ts.begin(), ts.end(), [](const auto& a, const auto& b) {
                    return a.clock < b.clock;
                  })->clock;

    // Socket-wide wakeup interference: every wakeup in this phase disturbed
    // all active cores in proportion to socket occupancy (see CostModel).
    std::uint64_t total_wakeups = 0;
    for (const auto* ev : events) total_wakeups += ev->stats().wakeups;
    const std::uint64_t new_wakeups = total_wakeups - accounted_wakeups;
    accounted_wakeups = total_wakeups;
    phase_start += static_cast<Cycles>(
        static_cast<double>(new_wakeups) * static_cast<double>(cost.irq_broadcast_cycles) *
        static_cast<double>(active) / static_cast<double>(machine_config.hierarchy.cores));
  }

  const Cycles final_clock = phase_start;
  result.instrumented_ns = machine.ns_of(final_clock);

  if (cfg.spe_enabled) {
    // Drain any in-flight monitor services (they happened during the run).
    while (!heap.empty()) {
      const Ev ev = heap.top();
      heap.pop();
      if (ev.kind != kMonitorDone) continue;
      if (auto next = monitor.on_round_done(ev.cycles)) {
        heap.push(Ev{*next, kMonitorDone, 0, seq++});
      }
    }
    // Final drain after program exit (outside the timing window).
    for (std::uint32_t t = 0; t < threads; ++t) {
      ts[t].sampler->flush(final_clock);
      ts[t].event->flush_aux(machine.ns_of(final_clock));
    }
    monitor.drain_all();

    for (std::uint32_t t = 0; t < threads; ++t) {
      const auto& ss = ts[t].sampler->stats();
      result.selections += ss.selections;
      result.hw_collisions += ss.collisions;
      result.written += ss.written;
      result.dropped_full += ss.write_failed;
      result.filtered += ss.filtered;
      result.throttled += ss.throttled;
      const auto& es = ts[t].event->stats();
      result.wakeups += es.wakeups;
      result.aux_records += es.aux_records;
    }
    const auto& cc = consumer.counts();
    result.processed_samples = cc.records_ok;
    result.skipped_records = cc.records_skipped;
    result.collision_flags = cc.collision_flags;
    result.truncated_flags = cc.truncated_flags;
    result.throttle_events = machine.throttler().throttle_events();
    result.monitor_services = monitor.rounds();
    result.decode_stalls = decode_pool.counts().producer_stalls;
  }

  result.mem_counted = mem_counter.read_count();
  return result;
}

StatResult run_with_baseline(const WorkloadProfile& profile, const MachineConfig& machine_config,
                             const SweepConfig& cfg) {
  SweepConfig base_cfg = cfg;
  base_cfg.spe_enabled = false;
  const StatResult base = run_statistical(profile, machine_config, base_cfg);
  StatResult result = run_statistical(profile, machine_config, cfg);
  result.baseline_ns = base.instrumented_ns;
  return result;
}

}  // namespace nmo::sim
