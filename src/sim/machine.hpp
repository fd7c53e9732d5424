// The simulated ARM machine: cache hierarchy, clock, perf subsystem glue.
//
// Machine ties together the pieces a profiling run needs: the memory
// hierarchy (Table II geometry), the timer/clock conversion, the global
// interrupt throttler, and the set of counting-mode perf events that the
// workload drivers feed (mem_access for the accuracy baseline, bus events
// for bandwidth estimation).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "kernel/perf_abi.hpp"
#include "kernel/perf_event.hpp"
#include "kernel/throttle.hpp"
#include "kernel/timeconv.hpp"
#include "mem/hierarchy.hpp"
#include "sim/cost_model.hpp"

namespace nmo::sim {

struct MachineConfig {
  mem::HierarchyConfig hierarchy{};
  double freq_ghz = 3.0;  ///< Table II: 3.0 GHz cores.
  std::uint64_t page_size = 64 * 1024;
  kern::ThrottleConfig throttle{};
  CostModel cost{};

  [[nodiscard]] double freq_hz() const { return freq_ghz * 1e9; }
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config)
      : config_(config),
        hierarchy_(std::make_unique<mem::Hierarchy>(config.hierarchy)),
        throttler_(config.throttle),
        time_conv_(kern::TimeConv::from_frequency(config.freq_hz())) {}

  [[nodiscard]] const MachineConfig& config() const { return config_; }
  [[nodiscard]] mem::Hierarchy& hierarchy() { return *hierarchy_; }
  [[nodiscard]] const mem::Hierarchy& hierarchy() const { return *hierarchy_; }
  [[nodiscard]] kern::Throttler& throttler() { return throttler_; }
  [[nodiscard]] const kern::TimeConv& time_conv() const { return time_conv_; }
  [[nodiscard]] const CostModel& cost() const { return config_.cost; }

  [[nodiscard]] std::uint64_t ns_of(Cycles cycles) const { return time_conv_.to_ns(cycles); }
  [[nodiscard]] Cycles cycles_of_ns(std::uint64_t ns) const { return time_conv_.to_cycles(ns); }

  /// Opens a counting-mode event bound to this machine; the returned event
  /// is owned by the machine and fed through count().
  kern::PerfEvent& open_counter(kern::CountEvent which) {
    kern::PerfEventAttr attr;
    attr.type = kern::kPerfTypeHardware;
    attr.count_event = which;
    attr.disabled = false;
    counters_.push_back(kern::open_event(attr, /*core=*/0, /*ring_pages=*/0, config_.page_size,
                                         /*aux_bytes=*/0, time_conv_, &throttler_));
    return *counters_.back();
  }

  /// Opens an SPE sampling event on `core`; owned by the machine.
  kern::PerfEvent& open_spe(const kern::PerfEventAttr& attr, CoreId core,
                            std::size_t ring_pages, std::size_t aux_bytes) {
    spe_events_.push_back(kern::open_event(attr, core, ring_pages, config_.page_size, aux_bytes,
                                           time_conv_, &throttler_));
    return *spe_events_.back();
  }

  /// Increments every registered counter listening to `which` by `n`.
  void count(kern::CountEvent which, std::uint64_t n) {
    for (auto& c : counters_) {
      if (c->attr().count_event == which) c->add_count(n);
    }
  }

  [[nodiscard]] const std::vector<std::unique_ptr<kern::PerfEvent>>& spe_events() const {
    return spe_events_;
  }

 private:
  MachineConfig config_;
  std::unique_ptr<mem::Hierarchy> hierarchy_;
  kern::Throttler throttler_;
  kern::TimeConv time_conv_;
  std::vector<std::unique_ptr<kern::PerfEvent>> counters_;
  std::vector<std::unique_ptr<kern::PerfEvent>> spe_events_;
};

}  // namespace nmo::sim
