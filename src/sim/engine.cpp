#include "sim/engine.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace nmo::sim {

/// Captures a kernel body's memory touches into a flat stream.
class TraceEngine::Recorder final : public wl::MemRecorder {
 public:
  explicit Recorder(std::vector<RecordedAccess>* out) : out_(out) {}

  void load(Addr addr, std::uint8_t size) override { push(addr, size, 0); }
  void store(Addr addr, std::uint8_t size) override { push(addr, size, 1); }
  void alu(std::uint32_t n) override { pending_alu_ += n; }
  void flop(std::uint32_t n) override {
    pending_alu_ += n;
    flops_ += n;
  }

  [[nodiscard]] std::uint64_t flops() const { return flops_; }
  [[nodiscard]] std::uint32_t trailing_alu() const { return pending_alu_; }

 private:
  void push(Addr addr, std::uint8_t size, std::uint8_t is_store) {
    out_->push_back(RecordedAccess{
        addr,
        static_cast<std::uint16_t>(std::min<std::uint32_t>(pending_alu_, 0xffff)), size,
        is_store});
    pending_alu_ = 0;
  }

  std::vector<RecordedAccess>* out_;
  std::uint32_t pending_alu_ = 0;
  std::uint64_t flops_ = 0;
};

TraceEngine::TraceEngine(const EngineConfig& config, core::Profiler* profiler)
    : config_(config), profiler_(profiler), machine_(std::make_unique<Machine>(config.machine)) {
  if (config_.threads == 0) throw std::invalid_argument("engine needs at least one thread");
  clocks_.assign(config_.threads, 0);

  mem_counter_ = &machine_->open_counter(kern::CountEvent::kMemAccess);
  fp_counter_ = &machine_->open_counter(kern::CountEvent::kFpOps);

  const bool sample = profiler_ != nullptr &&
                      core::has_mode(profiler_->config().mode, core::Mode::kSample) &&
                      profiler_->config().period > 0;
  if (sample) {
    kern::PerfEventAttr attr;
    attr.type = kern::kPerfTypeArmSpe;
    attr.config = kern::kSpeConfigLoadsAndStores | kern::kSpeJitter;
    attr.sample_period = profiler_->config().period;
    attr.disabled = false;
    const std::size_t ring_pages =
        std::max<std::size_t>(1, profiler_->config().bufsize_bytes / config_.machine.page_size);
    for (std::uint32_t t = 0; t < config_.threads; ++t) {
      auto& ev = machine_->open_spe(attr, t % config_.machine.hierarchy.cores, ring_pages,
                                    profiler_->config().auxbufsize_bytes);
      samplers_.push_back(std::make_unique<spe::Sampler>(&ev, Rng(config_.seed, 900 + t)));
      samplers_.back()->set_write_batch(config_.write_batch);
      events_.push_back(&ev);
    }
    // Shard traces are merged canonically at finalize.
    const std::uint32_t shards = std::max(1u, config_.decode_shards);
    profiler_->bind_trace_shards(shards);
    decode_pool_ = std::make_unique<spe::DecodePool>(shards, profiler_->make_shard_sink());
    consumer_ = std::make_unique<spe::AuxConsumer>(decode_pool_.get());
    if (config_.decode_progress) consumer_->set_progress_hook(config_.decode_progress);
    monitor_ = std::make_unique<Monitor>(machine_->cost(), consumer_.get(), events_);
    monitor_->set_budget(config_.budget);
    profiler_->set_time_conv(machine_->time_conv());
  }
  if (profiler_ != nullptr) {
    profiler_->set_time_source([this] { return now_ns(); });
  }
  last_wakeups_.assign(config_.threads, 0);
  last_written_.assign(config_.threads, 0);
  next_tick_ns_ = config_.tick_interval_ns;
}

TraceEngine::~TraceEngine() {
  if (!finalized_) finalize();
}

std::uint64_t TraceEngine::now_ns() const { return machine_->ns_of(barrier_); }

Addr TraceEngine::alloc(std::string_view tag, std::uint64_t bytes, std::uint64_t report_scale) {
  (void)tag;
  const Addr base = next_addr_;
  // 64 KiB alignment keeps allocations page-distinct (the testbed's pages).
  const std::uint64_t aligned = (bytes + config_.machine.page_size - 1) /
                                config_.machine.page_size * config_.machine.page_size;
  next_addr_ += aligned + config_.machine.page_size;
  const std::uint64_t reported = bytes * report_scale;
  allocations_.emplace_back(base, Allocation{bytes, reported});
  if (profiler_ != nullptr) profiler_->note_alloc(reported);
  return base;
}

void TraceEngine::dealloc(Addr base) {
  for (auto& [addr, a] : allocations_) {
    if (addr == base && a.bytes != 0) {
      if (profiler_ != nullptr) profiler_->note_free(a.reported);
      a.bytes = 0;
      a.reported = 0;
      return;
    }
  }
}

bool TraceEngine::budget_stopped() {
  if (budget_stopped_) return true;
  if (config_.budget != nullptr && config_.budget->tripped()) budget_stopped_ = true;
  return budget_stopped_;
}

void TraceEngine::parallel_for(std::string_view kernel, std::size_t n,
                               const wl::Executor::KernelBody& body) {
  (void)kernel;
  // Cooperative preemption: a tripped budget skips the kernel body
  // entirely (the workload keeps issuing kernels, the engine stops paying
  // for them), so the run winds down at the next kernel boundary.
  if (budget_stopped()) return;
  const std::uint32_t nt = config_.threads;
  std::vector<std::vector<RecordedAccess>> streams(nt);
  std::uint64_t kernel_flops = 0;
  const std::size_t chunk = (n + nt - 1) / nt;
  for (std::uint32_t t = 0; t < nt; ++t) {
    const std::size_t lo = std::min<std::size_t>(t * chunk, n);
    const std::size_t hi = std::min<std::size_t>(lo + chunk, n);
    Recorder rec(&streams[t]);
    if (lo < hi) body(t, lo, hi, rec);
    kernel_flops += rec.flops();
  }
  total_fp_ops_ += kernel_flops;
  fp_counter_->add_count(kernel_flops);
  replay(streams, barrier_);
}

void TraceEngine::serial(std::string_view kernel, const wl::Executor::SerialBody& body) {
  (void)kernel;
  if (budget_stopped()) return;
  std::vector<std::vector<RecordedAccess>> streams(config_.threads);
  Recorder rec(&streams[0]);
  body(rec);
  total_fp_ops_ += rec.flops();
  fp_counter_->add_count(rec.flops());
  replay(streams, barrier_);
}

void TraceEngine::process_monitor_until(Cycles t) {
  while (monitor_ && monitor_due_ && *monitor_due_ <= t) {
    const Cycles due = *monitor_due_;
    monitor_due_.reset();
    if (auto next = monitor_->on_round_done(due)) monitor_due_ = *next;
  }
}

void TraceEngine::maybe_tick(Cycles t) {
  if (profiler_ == nullptr || config_.tick_interval_ns == 0) return;
  const std::uint64_t t_ns = machine_->ns_of(t);
  while (t_ns >= next_tick_ns_) {
    const auto& bus = machine_->hierarchy().bus();
    profiler_->tick(next_tick_ns_,
                    bus.total_bytes(config_.machine.hierarchy.l1.line_size),
                    total_fp_ops_);
    next_tick_ns_ += config_.tick_interval_ns;
  }
}

void TraceEngine::replay(std::vector<std::vector<RecordedAccess>>& streams, Cycles start) {
  const CostModel& cost = machine_->cost();
  const auto& lat = config_.machine.hierarchy.latency;
  const double peak_bpc = config_.machine.hierarchy.dram_bytes_per_cycle;

  std::uint64_t kernel_mem = 0;
  for (const auto& s : streams) kernel_mem += s.size();
  total_mem_ops_ += kernel_mem;
  // PMU mem_access population includes non-sampleable accesses; carry the
  // fractional part across kernels so the total stays consistent.
  carry_overcount_ += static_cast<double>(kernel_mem) * (1.0 + config_.pmu_overcount);
  const auto counted = static_cast<std::uint64_t>(carry_overcount_);
  carry_overcount_ -= static_cast<double>(counted);
  mem_counter_->add_count(counted);

  struct HeapEntry {
    Cycles clock;
    std::uint32_t tid;
    bool operator>(const HeapEntry& o) const {
      return clock != o.clock ? clock > o.clock : tid > o.tid;
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  std::vector<std::size_t> cursor(config_.threads, 0);
  for (std::uint32_t t = 0; t < config_.threads; ++t) {
    clocks_[t] = start;
    if (!streams[t].empty()) heap.push(HeapEntry{start, t});
  }

  if (util_window_start_ == 0) util_window_start_ = start;

  while (!heap.empty()) {
    const auto [clk, tid] = heap.top();
    heap.pop();
    process_monitor_until(clk);

    if (config_.budget != nullptr) {
      // Sampling runs hit the checkpoint through the monitor's round loop;
      // polling here as well (amortized over a stride of accesses) bounds
      // the detection latency of runs that never arm a drain round.
      if (++accesses_since_poll_ >= 4096) {
        accesses_since_poll_ = 0;
        config_.budget->poll();
      }
      if (config_.budget->tripped()) {
        // Stop feeding work mid-kernel: everything already drained/decoded
        // stays, the rest of the recorded streams is abandoned, and
        // finalize() closes a valid truncated trace.
        budget_stopped_ = true;
        break;
      }
    }

    const RecordedAccess& acc = streams[tid][cursor[tid]++];
    Cycles& clock = clocks_[tid];

    const MemAccess ma{acc.addr, acc.is_store ? MemOp::kStore : MemOp::kLoad, acc.size};
    const auto& bus_before = machine_->hierarchy().bus();
    const std::uint64_t lines_before = bus_before.read_lines + bus_before.writeback_lines;
    const auto result =
        machine_->hierarchy().access(tid % config_.machine.hierarchy.cores, ma);
    const auto& bus_after = machine_->hierarchy().bus();
    const std::uint64_t bus_lines =
        bus_after.read_lines + bus_after.writeback_lines - lines_before;

    // Execution time: issue the preceding ALU ops plus the exposed part of
    // the memory latency.  DRAM accesses additionally pay a bandwidth-share
    // cost so that aggregate DRAM traffic cannot exceed the socket peak
    // (the trace-driver analogue of the statistical driver's oversub
    // throughput scaling).
    const double exposed =
        acc.is_store ? static_cast<double>(result.latency) * cost.store_visibility
                     : static_cast<double>(result.latency) / cost.mlp;
    double cycles = static_cast<double>(acc.alu_before + 1) * cost.issue_cpi + exposed;
    if (bus_lines > 0) {
      // Each line this access moved on the bus (fill or writeback) claims
      // this thread's 1/threads share of the socket bandwidth.
      const double line_cost = static_cast<double>(bus_lines) * 64.0 *
                               static_cast<double>(config_.threads) / peak_bpc;
      cycles = std::max(cycles, line_cost);
    }
    clock += static_cast<Cycles>(cycles);

    // Rolling DRAM utilization estimate for the loaded-latency model.
    if (result.level == MemLevel::kDRAM) ++util_window_lines_;
    if (clock - util_window_start_ > 1'000'000) {  // ~0.33 ms windows
      const double bytes = static_cast<double>(util_window_lines_) * 64.0 *
                           cost.writeback_factor;
      utilization_ =
          bytes / (static_cast<double>(clock - util_window_start_) * peak_bpc);
      util_window_lines_ = 0;
      util_window_start_ = clock;
    }

    if (!samplers_.empty()) {
      auto& sampler = *samplers_[tid];
      sampler.advance_other(acc.alu_before, clock, cost.issue_cpi);
      spe::OpInfo op;
      op.cls = acc.is_store ? spe::OpClass::kStore : spe::OpClass::kLoad;
      op.vaddr = acc.addr;
      op.pc = 0x400000 + (acc.addr & 0xfff);
      op.level = result.level;
      op.tlb_miss = result.tlb_miss;
      // Dispatch-to-complete occupancy: loaded latency under utilization.
      double tracked = static_cast<double>(result.latency);
      if (result.level == MemLevel::kDRAM) {
        tracked = static_cast<double>(lat.dram) /
                  (1.0 - std::min(utilization_, cost.max_utilization));
      }
      op.latency = static_cast<Cycles>(tracked);
      op.now_cycles = clock;
      sampler.on_mem_op(op);

      // Charge profiling overhead, mirroring the statistical driver.
      auto& ev = sampler.event();
      while (last_wakeups_[tid] < ev.stats().wakeups) {
        ++last_wakeups_[tid];
        clock += cost.irq_cycles;
        if (monitor_ && !monitor_due_) {
          if (auto due = monitor_->on_wakeup(clock)) monitor_due_ = *due;
        }
      }
      const std::uint64_t written = sampler.stats().written;
      if (written > last_written_[tid]) {
        clock += (written - last_written_[tid]) * cost.sample_cost_cycles;
        last_written_[tid] = written;
      }
    }

    maybe_tick(clock);
    if (cursor[tid] < streams[tid].size()) heap.push(HeapEntry{clock, tid});
  }

  // Implicit barrier: everyone waits for the slowest thread.
  barrier_ = *std::max_element(clocks_.begin(), clocks_.end());
  process_monitor_until(barrier_);
  maybe_tick(barrier_);
}

void TraceEngine::finalize() {
  finalized_ = true;
  for (std::uint32_t t = 0; t < static_cast<std::uint32_t>(samplers_.size()); ++t) {
    samplers_[t]->flush(barrier_);
    events_[t]->flush_aux(machine_->ns_of(barrier_));
  }
  if (monitor_) {
    process_monitor_until(~Cycles{0} >> 1);
    monitor_->drain_all();
  }
  if (profiler_ != nullptr && consumer_ != nullptr) {
    // Merge shard traces and canonicalize the order so every shard count
    // emits byte-identical CSV/fingerprints.
    profiler_->finalize_trace();
  }
  if (profiler_ != nullptr && config_.tick_interval_ns != 0) {
    const auto& bus = machine_->hierarchy().bus();
    profiler_->tick(machine_->ns_of(barrier_),
                    bus.total_bytes(config_.machine.hierarchy.l1.line_size), total_fp_ops_);
  }
}

EngineStats TraceEngine::stats() const {
  EngineStats s;
  s.mem_ops = total_mem_ops_;
  s.mem_counted = mem_counter_->read_count();
  s.fp_ops = total_fp_ops_;
  s.instrumented_ns = machine_->ns_of(barrier_);
  for (const auto& sampler : samplers_) {
    const auto& ss = sampler->stats();
    s.selections += ss.selections;
    s.collisions += ss.collisions;
    s.written += ss.written;
    s.dropped_full += ss.write_failed;
    s.filtered += ss.filtered;
  }
  for (const auto* ev : events_) s.wakeups += ev->stats().wakeups;
  if (decode_pool_ != nullptr) s.decode_stalls = decode_pool_->counts().producer_stalls;
  if (config_.budget != nullptr) {
    s.budget_checkpoints = config_.budget->checkpoints();
    s.budget_truncated = budget_stopped_ || config_.budget->tripped();
  }
  return s;
}

}  // namespace nmo::sim
