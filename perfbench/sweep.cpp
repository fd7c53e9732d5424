// sweep-cfd: the paper's period x aux-buffer study (Figs. 8-9) on the CFD
// profile with the statistical driver: 32 virtual threads, periods
// 1024-65536, aux buffers 256 KiB-4 MiB, 2 decode shards.  Nothing is
// recorded and the cache model is never accessed; the sampler, aux writes,
// monitor drain and the DecodePool do the work.
//
// Each grid point runs the baseline (spe_enabled=false) and the
// instrumented run with the same seed - exactly what run_with_baseline
// does, split into two calls so the baseline is timed on its own.  After
// the grid, one record per written sample is decoded through decode_chunk
// and again through a 2-shard DecodePool (submit/sync).
#include <array>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "analysis/accuracy.hpp"
#include "common/rng.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "sim/stat_driver.hpp"
#include "spe/decode_pool.hpp"
#include "spe/packet.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace spe = nmo::spe;
namespace sim = nmo::sim;

constexpr std::array<std::uint64_t, 4> kPeriods = {1024, 4096, 16384, 65536};
constexpr std::array<std::size_t, 4> kAuxBytes = {256 * 1024, 1024 * 1024, 2 * 1024 * 1024,
                                                  4 * 1024 * 1024};
constexpr std::uint32_t kThreads = 32;
constexpr std::size_t kRecordPool = 1 << 20;  ///< Distinct encoded records (64 MiB).
/// Passes over the written-sample count in the decode sections, so they
/// cover a measurable share of a second rather than a few milliseconds.
constexpr std::size_t kDecodePasses = 8;

struct SweepSetup {
  sim::WorkloadProfile profile;
  sim::MachineConfig machine;
  std::vector<std::byte> records;  ///< kRecordPool encoded 64-byte SPE records.
  nmo::core::SampleTrace samples;  ///< The same records as decoded samples.
};

/// Encodes records drawn the way the statistical driver draws a selected
/// CFD operation: address in the profile's span, level by the compute
/// loop's level mix, latency by level.
void build_records(SweepSetup& s, std::uint64_t seed) {
  nmo::Rng rng(seed, 17);
  const sim::PhaseProfile& phase = s.profile.phases.back();
  const auto& lat = s.machine.hierarchy.latency;
  const std::uint64_t latencies[] = {lat.l1, lat.l2, lat.slc, lat.dram};
  s.records.assign(kRecordPool * spe::kRecordSize, std::byte{0});
  std::uint64_t ts = 1000;
  for (std::size_t i = 0; i < kRecordPool; ++i) {
    spe::Record r;
    ts += 50 + rng.uniform(200);
    r.timestamp = ts;
    r.vaddr = s.profile.addr_base + rng.uniform(s.profile.addr_span / 8) * 8;
    r.pc = 0x400000 + rng.uniform(0x10000);
    r.op = rng.uniform01() < phase.store_frac ? nmo::MemOp::kStore : nmo::MemOp::kLoad;
    double u = rng.uniform01();
    std::size_t level = 0;
    while (level + 1 < nmo::kNumMemLevels && u >= phase.level_mix[level]) {
      u -= phase.level_mix[level];
      ++level;
    }
    r.level = static_cast<nmo::MemLevel>(level);
    r.events = spe::events_for_level(r.level, false);
    r.total_latency = static_cast<std::uint16_t>(latencies[level]);
    spe::encode(r, std::span<std::byte, spe::kRecordSize>(
                       s.records.data() + i * spe::kRecordSize, spe::kRecordSize));
    nmo::core::TraceSample t;
    t.time_ns = r.timestamp;
    t.vaddr = r.vaddr;
    t.pc = r.pc;
    t.op = r.op;
    t.level = r.level;
    t.latency = r.total_latency;
    t.core = static_cast<nmo::CoreId>(i % kThreads);
    s.samples.add(t);
  }
}

SweepSetup build_setup(std::uint64_t seed) {
  SweepSetup s;
  s.profile = sim::profiles::cfd();
  // Half the calibrated op count: one 16-point grid takes seconds of host
  // time, and the sampling work dwarfs the per-point set-up (aux buffers,
  // the 128-core machine) whose page-fault cost varies most between runs.
  s.profile.scale_ops(1.0 / 2.0);
  build_records(s, seed);
  return s;
}

}  // namespace

void run_sweep_cfd(Bench& bench, const RunOptions& options) {
  SweepSetup setup;
  for (int i = 0; i < 5; ++i) {
    bench.begin_round("setup");
    bench.timed("setup", "setup.inputs", [&] {
      setup = build_setup(options.seed);
      return static_cast<double>(kRecordPool);
    });
    bench.end_round("setup");
  }

  const std::string st = "sweep";
  const Usage start = Usage::now();
  std::vector<spe::Record> decoded(spe::RecordBatch::kMaxRecords);
  while (bench.another_round(st, start, options.capture_seconds(), 3, 64)) {
    bench.begin_round(st);

    bench.timed(st, "sim.machine_build", [&] {
      const sim::Machine machine(setup.machine);
      return static_cast<double>(machine.config().hierarchy.cores);
    });

    double written = 0.0;
    double accuracy_sum = 0.0;
    double overhead_sum = 0.0;
    for (const std::uint64_t period : kPeriods) {
      for (const std::size_t aux : kAuxBytes) {
        sim::SweepConfig cfg;
        cfg.threads = kThreads;
        cfg.period = period;
        cfg.aux_bytes = aux;
        cfg.seed = options.seed;
        cfg.decode_shards = 2;
        sim::SweepConfig base_cfg = cfg;
        base_cfg.spe_enabled = false;
        sim::StatResult base;
        sim::StatResult r;
        bench.timed(st, "sim.stat_baseline", [&] {
          base = sim::run_statistical(setup.profile, setup.machine, base_cfg);
          return static_cast<double>(setup.profile.total_mem_ops());
        });
        bench.timed(st, "spe.instrumented", [&] {
          r = sim::run_statistical(setup.profile, setup.machine, cfg);
          return static_cast<double>(r.selections);
        });
        r.baseline_ns = base.instrumented_ns;
        accuracy_sum += nmo::analysis::accuracy(r);
        overhead_sum += nmo::analysis::time_overhead(r);
        written += static_cast<double>(r.written);
        bench.check(r.processed_samples + r.skipped_records <= r.written,
                    "decoded more records than were written");
        bench.count(st, "spe.selections", static_cast<double>(r.selections));
        bench.count(st, "spe.written", static_cast<double>(r.written));
        bench.count(st, "spe.dropped_full", static_cast<double>(r.dropped_full));
        bench.count(st, "spe.collisions", static_cast<double>(r.collision_flags));
        bench.count(st, "spe.truncated_flags", static_cast<double>(r.truncated_flags));
        bench.count(st, "spe.decode_stalls", static_cast<double>(r.decode_stalls));
        bench.count(st, "kernel.wakeups", static_cast<double>(r.wakeups));
        bench.count(st, "kernel.aux_records", static_cast<double>(r.aux_records));
        bench.count(st, "kernel.monitor_services", static_cast<double>(r.monitor_services));
        bench.count(st, "sim.mem_ops", 2.0 * static_cast<double>(setup.profile.total_mem_ops()));
      }
    }
    const double points = static_cast<double>(kPeriods.size() * kAuxBytes.size());
    bench.count(st, "accuracy_ppm", std::round(1e6 * accuracy_sum / points));
    bench.count(st, "overhead_ppm", std::round(1e6 * overhead_sum / points));

    // One record per written sample, kDecodePasses times over, through
    // the serial decode loop.
    const auto total = static_cast<std::size_t>(written) * kDecodePasses;
    const std::span<const std::byte> pool(setup.records);
    std::uint64_t serial_ok = 0;
    bench.timed(st, "spe.decode", [&] {
      std::size_t done = 0;
      std::size_t at = 0;
      while (done < total) {
        const std::size_t n =
            std::min({decoded.size(), total - done, kRecordPool - at});
        const spe::DecodedChunk c = spe::decode_chunk(
            pool.subspan(at * spe::kRecordSize, n * spe::kRecordSize), decoded);
        serial_ok += c.ok;
        done += n;
        at = (at + n) % kRecordPool;
      }
      return static_cast<double>(done);
    });
    bench.check(serial_ok == total, "serial decode_chunk rejected valid records");

    // The same bytes through a 2-shard pool.
    std::uint64_t pool_ok = 0;
    bench.timed(st, "spe.pool_decode", [&] {
      spe::DecodePool decode_pool(2);
      std::size_t done = 0;
      std::size_t at = 0;
      nmo::CoreId core = 0;
      constexpr std::size_t kSubmit = 1024;  // records per submit call
      while (done < total) {
        const std::size_t n = std::min({kSubmit, total - done, kRecordPool - at});
        decode_pool.submit(pool.subspan(at * spe::kRecordSize, n * spe::kRecordSize), core);
        core = (core + 1) % kThreads;
        done += n;
        at = (at + n) % kRecordPool;
      }
      decode_pool.sync();
      pool_ok = decode_pool.counts().records_ok;
      return static_cast<double>(done);
    });
    bench.check(pool_ok == serial_ok, "pool decode count differs from serial");
    bench.end_round(st);
  }

  const double selections = bench.counted(st, "spe.selections");
  bench.metric("setup_s", bench.med_wall("setup", "setup.inputs"), "s");
  bench.metric("cpu_s", bench.med(st, st + ".round", [](const SectionSample& s) {
    return s.usage.cpu_s();
  }), "s");
  // Host seconds of the whole grid, baseline runs included.
  const auto grid_s = [](const auto& r) {
    return r.at("sim.stat_baseline").usage.wall_s + r.at("spe.instrumented").usage.wall_s;
  };
  bench.metric("sweep_msel_per_s",
               bench.med_of(st, [&](const auto& r) { return selections / grid_s(r) / 1e6; }),
               "Msel/s");
  const double ops = bench.counted(st, "sim.mem_ops");
  bench.metric("capture_mops_per_s",
               bench.med_of(st, [&](const auto& r) { return ops / grid_s(r) / 1e6; }),
               "Mops/s");
  bench.metric("spe_accuracy_pct", bench.counted(st, "accuracy_ppm") / 1e4, "%");
  bench.metric("spe_overhead_pct", bench.counted(st, "overhead_ppm") / 1e4, "%");

  bench.metric("sim.stat_baseline_s", bench.med_wall(st, "sim.stat_baseline"), "s");
  bench.metric("sim.machine_build_s", bench.med_wall(st, "sim.machine_build"), "s");
  bench.metric("spe.sampling_s", bench.med_wall(st, "spe.instrumented"), "s");
  bench.metric("spe.selections", selections, "count");
  const double written = bench.counted(st, "spe.written");
  bench.metric("spe.written_pct", selections > 0 ? 100.0 * written / selections : 0.0, "%");
  for (const char* c : {"spe.dropped_full", "spe.collisions", "spe.truncated_flags",
                        "kernel.wakeups", "kernel.aux_records", "kernel.monitor_services"}) {
    bench.metric(c, bench.counted(st, c), "count");
  }
  bench.metric("spe.decode_stalls", bench.median_count(st, "spe.decode_stalls"), "count");
  bench.metric("spe.decode_mrec_per_s", bench.med_rate(st, "spe.decode") / 1e6, "Mrec/s");
  bench.metric("spe.pool_decode_mrec_per_s", bench.med_rate(st, "spe.pool_decode") / 1e6,
               "Mrec/s");
  bench.metric("spe.pool_sys_s",
               bench.med(st, "spe.pool_decode",
                         [](const SectionSample& s) { return s.usage.sys_s; }),
               "s");
  bench.section_metrics("setup");
  bench.section_metrics(st);

  // The decoded samples through the archive stage, replicated to ~2M.
  const auto files = replicate({&setup.samples}, 2u << 20, 4, options.seed);
  ArchivePlan plan;
  plan.queries_per_round = 50;
  plan.min_rounds = 4;
  plan.seconds = options.archive_seconds();
  run_archive_stage(bench, "archive", files, options.seed, options.workdir, plan);
}

}  // namespace perfbench
