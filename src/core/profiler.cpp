#include "core/profiler.hpp"

namespace nmo::core {
namespace {
// Thread-local so N concurrent ProfileSessions (store/session_store.hpp)
// can each install their own profiler for the C annotation API without
// interfering.  Deliberately NO process-wide fallback: nullptr must mean
// "explicitly no profiler" (baseline runs install it to run
// uninstrumented), and a fallback would leak a concurrent session's
// profiler into those runs - an unsynchronized cross-thread write.  The
// contract is that annotations come from the thread running the session,
// which is where the engine replays every workload.
thread_local Profiler* g_active = nullptr;
}  // namespace

Profiler* set_active_profiler(Profiler* profiler) {
  Profiler* prev = g_active;
  g_active = profiler;
  return prev;
}

Profiler* active_profiler() { return g_active; }

core::TraceSample Profiler::convert(const spe::Record& rec, CoreId core) const {
  TraceSample s;
  s.time_ns = time_conv_.to_ns(rec.timestamp);
  s.vaddr = rec.vaddr;
  s.pc = rec.pc;
  s.op = rec.op;
  s.level = rec.level;
  s.latency = rec.total_latency;
  s.core = core;
  const auto region = regions_.find_region(rec.vaddr);
  s.region = region ? static_cast<std::int32_t>(*region) : -1;
  return s;
}

void Profiler::on_sample(const spe::Record& rec, CoreId core) {
  if (!has_mode(config_.mode, Mode::kSample)) return;
  trace_.add(convert(rec, core));
}

void Profiler::bind_trace_shards(std::uint32_t n) {
  trace_shards_.assign(n, SampleTrace{});
}

spe::DecodePool::BatchSink Profiler::make_shard_sink() {
  return [this](std::span<const spe::Record> records, CoreId core, std::uint32_t shard) {
    if (!has_mode(config_.mode, Mode::kSample)) return;
    SampleTrace& out = trace_shards_[shard];
    for (const spe::Record& rec : records) out.add(convert(rec, core));
  };
}

void Profiler::finalize_trace() {
  for (auto& shard : trace_shards_) {
    if (trace_.empty()) {
      // Steal the buffer: a single-shard run never holds two copies.
      trace_ = std::move(shard);
    } else {
      trace_.append(shard);
    }
    shard.clear();
  }
  trace_.sort_canonical();
}

void Profiler::tick(std::uint64_t now_ns, std::uint64_t bus_bytes_cum,
                    std::uint64_t fp_ops_cum) {
  if (has_mode(config_.mode, Mode::kBandwidth)) {
    bandwidth_.tick(now_ns, bus_bytes_cum, fp_ops_cum);
  }
  if (has_mode(config_.mode, Mode::kCapacity)) {
    capacity_.sample(now_ns);
  }
}

}  // namespace nmo::core
