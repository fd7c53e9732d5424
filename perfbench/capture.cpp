// capture-pagerank: ProfileSession::profile(with_baseline=true) of Cloud
// PageRank on 8 virtual cores at period 4096 with a 1 MiB aux buffer and
// serial decode.
//
// Each round makes three passes over the same workload, so the exact
// driver's cost splits into layers measured from outside:
//   1. Workload::run on the benchmark's own recording Executor, replaying
//      every kernel's access streams into a standalone mem::Hierarchy
//      (workloads.record, mem.hierarchy);
//   2. a profiler-less sim::TraceEngine run (sim.baseline);
//   3. ProfileSession::profile with its own baseline (core.profile).
// replay self time = baseline - record - hierarchy; SPE sampling time =
// instrumented (profile - baseline) - baseline.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "mem/hierarchy.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"
#include "workloads/graph.hpp"
#include "workloads/pagerank.hpp"

namespace perfbench {
namespace {

namespace wl = nmo::wl;

constexpr std::uint32_t kThreads = 8;

/// Records each kernel's per-thread access streams (the workload layer's
/// output) and replays them, interleaved round-robin across threads, into
/// a standalone hierarchy (the cache model), timing the two apart.
class RecordingExecutor final : public wl::Executor {
 public:
  RecordingExecutor(const nmo::mem::HierarchyConfig& config, Bench& bench)
      : hierarchy_(config), bench_(bench), streams_(kThreads) {}

  [[nodiscard]] std::uint32_t threads() const override { return kThreads; }

  void parallel_for(std::string_view, std::size_t n, const KernelBody& body) override {
    const std::size_t chunk = (n + kThreads - 1) / kThreads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      const std::size_t lo = std::min<std::size_t>(t * chunk, n);
      const std::size_t hi = std::min<std::size_t>(lo + chunk, n);
      Recorder rec(&streams_[t]);
      if (lo < hi) body(t, lo, hi, rec);
    }
    replay();
  }

  void serial(std::string_view, const SerialBody& body) override {
    Recorder rec(&streams_[0]);
    body(rec);
    replay();
  }

  nmo::Addr alloc(std::string_view, std::uint64_t bytes, std::uint64_t) override {
    constexpr std::uint64_t kPage = 64 * 1024;
    const nmo::Addr base = next_addr_;
    next_addr_ += (bytes + kPage - 1) / kPage * kPage + kPage;
    return base;
  }
  void dealloc(nmo::Addr) override {}
  [[nodiscard]] std::uint64_t now_ns() const override { return 0; }

  [[nodiscard]] const nmo::mem::Hierarchy& hierarchy() const { return hierarchy_; }
  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
  /// Usage spent inside the hierarchy replays.
  [[nodiscard]] const Usage& hierarchy_usage() const { return hierarchy_usage_; }

 private:
  class Recorder final : public wl::MemRecorder {
   public:
    explicit Recorder(std::vector<nmo::MemAccess>* out) : out_(out) {}
    void load(nmo::Addr addr, std::uint8_t size) override {
      out_->push_back({addr, nmo::MemOp::kLoad, size});
    }
    void store(nmo::Addr addr, std::uint8_t size) override {
      out_->push_back({addr, nmo::MemOp::kStore, size});
    }
    void alu(std::uint32_t) override {}
    void flop(std::uint32_t) override {}

   private:
    std::vector<nmo::MemAccess>* out_;
  };

  void replay() {
    const std::uint64_t span = bench_.tracer.begin("mem.hierarchy_replay", "mem");
    const Usage before = Usage::now();
    std::size_t longest = 0;
    std::uint64_t n = 0;
    for (const auto& s : streams_) longest = std::max(longest, s.size());
    for (std::size_t i = 0; i < longest; ++i) {
      for (nmo::CoreId t = 0; t < kThreads; ++t) {
        if (i < streams_[t].size()) {
          hierarchy_.access(t, streams_[t][i]);
          ++n;
        }
      }
    }
    for (auto& s : streams_) s.clear();
    accesses_ += n;
    hierarchy_usage_ += Usage::now() - before;
    bench_.tracer.end(span, {{"accesses", static_cast<double>(n)}});
  }

  nmo::mem::Hierarchy hierarchy_;
  Bench& bench_;
  std::vector<std::vector<nmo::MemAccess>> streams_;
  nmo::Addr next_addr_ = 0x10'0000;
  std::uint64_t accesses_ = 0;
  Usage hierarchy_usage_;
};

struct CaptureSetup {
  wl::PageRankConfig workload;
  nmo::sim::EngineConfig engine;
  nmo::core::NmoConfig nmo;
  std::vector<double> reference_ranks;  ///< Host PageRank over the same graph.
};

/// Plain host PageRank over `fwd` with the workload's update rule (pull
/// over in-edges, then the dangling-mass correction): the reference the
/// profiled runs' ranks are checked against.
std::vector<double> reference_pagerank(const wl::CsrGraph& fwd, const wl::PageRankConfig& c) {
  const std::uint32_t n = fwd.num_nodes;
  std::vector<std::vector<std::uint32_t>> in(n);
  std::vector<std::uint32_t> out_degree(n, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    out_degree[v] = static_cast<std::uint32_t>(fwd.degree(v));
    for (std::uint64_t e = fwd.row_offsets[v]; e < fwd.row_offsets[v + 1]; ++e) {
      in[fwd.columns[e]].push_back(v);
    }
  }
  std::vector<double> ranks(n, 1.0 / n);
  std::vector<double> next(n, 0.0);
  for (std::uint32_t iter = 0; iter < c.iterations; ++iter) {
    for (std::uint32_t v = 0; v < n; ++v) {
      double sum = 0.0;
      for (const std::uint32_t u : in[v]) {
        if (out_degree[u] > 0) sum += ranks[u] / out_degree[u];
      }
      next[v] = (1.0 - c.damping) / n + c.damping * sum;
    }
    ranks.swap(next);
    double total = 0.0;
    for (const double r : ranks) total += r;
    for (double& r : ranks) r += (1.0 - total) / n;
  }
  return ranks;
}

/// Builds the inputs: the seeded RMAT graph and its reference ranks, and
/// the 8-core machine and profiler configuration.
CaptureSetup build_setup(std::uint64_t seed) {
  CaptureSetup s;
  // 2^18 nodes: the 2 MiB rank vector exceeds the modelled 1 MiB per-core
  // L2, and the 4 MiB in-edge array streams through the 16 MiB SLC.
  s.workload.nodes_log2 = 18;
  s.workload.edges_per_node = 4;
  s.workload.iterations = 1;
  s.workload.seed = seed;
  s.engine.threads = kThreads;
  s.engine.machine.hierarchy.cores = kThreads;
  s.engine.seed = seed;
  s.engine.decode_shards = 1;
  s.nmo.enable = true;
  s.nmo.mode = nmo::core::Mode::kAll;
  s.nmo.period = 4096;
  s.nmo.auxbufsize_bytes = 1ull << 20;
  s.reference_ranks = reference_pagerank(
      wl::make_rmat_graph(s.workload.nodes_log2, s.workload.edges_per_node, seed), s.workload);
  return s;
}

/// The run's ranks sum to 1 and match the host reference.
bool ranks_ok(const wl::PageRank& pr, const std::vector<double>& reference) {
  const auto& r = pr.ranks();
  if (r.size() != reference.size() || std::abs(pr.rank_sum() - 1.0) > 1e-6) return false;
  for (std::size_t v = 0; v < r.size(); ++v) {
    if (std::abs(r[v] - reference[v]) > 1e-12 + 1e-9 * reference[v]) return false;
  }
  return true;
}

}  // namespace

void run_capture_pagerank(Bench& bench, const RunOptions& options) {
  CaptureSetup setup;
  for (int i = 0; i < 5; ++i) {
    bench.begin_round("setup");
    bench.timed("setup", "setup.inputs", [&] {
      setup = build_setup(options.seed);
      return static_cast<double>(setup.reference_ranks.size());
    });
    bench.end_round("setup");
  }

  std::string fingerprint;
  nmo::core::SampleTrace last_trace;
  const Usage start = Usage::now();
  while (bench.another_round("capture", start, options.capture_seconds(), 3, 64)) {
    bench.begin_round("capture");

    // 1. Recording executor + standalone hierarchy.
    {
      wl::PageRank pr(setup.workload);
      RecordingExecutor exec(setup.engine.machine.hierarchy, bench);
      const std::uint64_t span = bench.tracer.begin("workloads.run", "workloads");
      const Usage before = Usage::now();
      pr.run(exec);
      const Usage total = Usage::now() - before;
      bench.tracer.end(span, {{"accesses", static_cast<double>(exec.accesses())}});
      const double n = static_cast<double>(exec.accesses());
      bench.add("capture", "workloads.record", {total - exec.hierarchy_usage(), n});
      bench.add("capture", "mem.hierarchy", {exec.hierarchy_usage(), n});
      const auto& levels = exec.hierarchy().level_counts();
      for (std::size_t l = 0; l < levels.size(); ++l) {
        bench.count("capture", "mem.level" + std::to_string(l), static_cast<double>(levels[l]));
      }
      bench.check(ranks_ok(pr, setup.reference_ranks), "PageRank ranks (recording run)");
    }

    // 2. Profiler-less engine run.
    std::uint64_t baseline_ops = 0;
    {
      wl::PageRank pr(setup.workload);
      bench.timed("capture", "sim.baseline", [&] {
        nmo::sim::TraceEngine engine(setup.engine, nullptr);
        pr.run(engine);
        engine.finalize();
        baseline_ops = engine.stats().mem_ops;
        return static_cast<double>(baseline_ops);
      });
      bench.check(ranks_ok(pr, setup.reference_ranks), "PageRank ranks (baseline run)");
    }

    // 3. The profiled run with its own baseline.
    {
      wl::PageRank pr(setup.workload);
      nmo::core::ProfileSession session(setup.nmo, setup.engine);
      nmo::core::SessionReport report;
      bench.timed("capture", "core.profile", [&] {
        report = session.profile(pr, /*with_baseline=*/true);
        return static_cast<double>(report.mem_ops * 2);
      });
      bench.check(ranks_ok(pr, setup.reference_ranks), "PageRank ranks (profiled run)");
      bench.check(report.mem_ops == baseline_ops,
                  "profiled and baseline engines executed different op counts");
      const auto* consumer = session.engine()->consumer();
      const auto& trace = session.profiler().trace();
      const std::string fp = trace.fingerprint();
      bench.check(fingerprint.empty() || fp == fingerprint, "capture fingerprint changed");
      fingerprint = fp;
      const auto count = [&](const char* name, double v) { bench.count("capture", name, v); };
      count("spe.selections", static_cast<double>(report.selections));
      count("spe.written", static_cast<double>(session.engine()->stats().written));
      count("spe.dropped_full", static_cast<double>(report.dropped_full));
      count("spe.collisions", static_cast<double>(report.collision_flags));
      count("spe.decode_stalls", static_cast<double>(report.decode_stalls));
      count("spe.truncated_flags",
            consumer ? static_cast<double>(consumer->counts().truncated_flags) : 0.0);
      count("kernel.wakeups", static_cast<double>(report.wakeups));
      count("kernel.aux_records",
            consumer ? static_cast<double>(consumer->counts().aux_records) : 0.0);
      count("accuracy_ppm", std::round(report.accuracy() * 1e6));
      count("overhead_ppm", std::round(report.time_overhead() * 1e6));
      if (bench.rounds("capture") == 1) last_trace = trace;
    }
    bench.end_round("capture");
  }

  const std::string st = "capture";
  const auto wall = [&](const char* s) { return bench.med_wall(st, s); };
  const double selections = bench.counted(st, "spe.selections");
  bench.metric("setup_s", bench.med_wall("setup", "setup.inputs"), "s");
  bench.metric("cpu_s", bench.med(st, st + ".round", [](const SectionSample& s) {
    return s.usage.cpu_s();
  }), "s");
  bench.metric("capture_mops_per_s", bench.med_rate(st, "core.profile") / 1e6, "Mops/s");
  bench.metric("sweep_msel_per_s", bench.med_of(st, [&](const auto& r) {
    return selections / r.at("core.profile").usage.wall_s / 1e6;
  }), "Msel/s");
  bench.metric("spe_accuracy_pct", bench.counted(st, "accuracy_ppm") / 1e4, "%");
  bench.metric("spe_overhead_pct", bench.counted(st, "overhead_ppm") / 1e4, "%");

  bench.metric("workloads.record_s", wall("workloads.record"), "s");
  bench.metric("workloads.maccesses", bench.work(st, "workloads.record") / 1e6, "M");
  bench.metric("mem.hierarchy_s", wall("mem.hierarchy"), "s");
  bench.metric("mem.hierarchy_maccess_per_s", bench.med_rate(st, "mem.hierarchy") / 1e6,
               "M/s");
  const double accesses = bench.work(st, "mem.hierarchy");
  const char* level_names[] = {"mem.l1_pct", "mem.l2_pct", "mem.slc_pct", "mem.dram_pct"};
  for (int l = 0; l < 4; ++l) {
    const double n = bench.counted(st, "mem.level" + std::to_string(l));
    bench.metric(level_names[l], accesses > 0 ? 100.0 * n / accesses : 0.0, "%");
  }
  bench.metric("sim.baseline_s", wall("sim.baseline"), "s");
  bench.metric("sim.replay_self_s", bench.med_of(st, [](const auto& r) {
    return r.at("sim.baseline").usage.wall_s - r.at("workloads.record").usage.wall_s -
           r.at("mem.hierarchy").usage.wall_s;
  }), "s");
  bench.metric("spe.sampling_s", bench.med_of(st, [](const auto& r) {
    return r.at("core.profile").usage.wall_s - 2.0 * r.at("sim.baseline").usage.wall_s;
  }), "s");
  bench.metric("spe.selections", selections, "count");
  const double written = bench.counted(st, "spe.written");
  bench.metric("spe.written_pct", selections > 0 ? 100.0 * written / selections : 0.0, "%");
  for (const char* c : {"spe.dropped_full", "spe.collisions", "spe.truncated_flags",
                        "kernel.wakeups", "kernel.aux_records"}) {
    bench.metric(c, bench.counted(st, c), "count");
  }
  bench.metric("spe.decode_stalls", bench.median_count(st, "spe.decode_stalls"), "count");
  bench.section_metrics("setup");
  bench.section_metrics(st);

  // The capture's own trace through the archive stage: store, query and
  // stream figures for a single-run-sized trace replicated to ~2M samples.
  const auto files = replicate({&last_trace}, 2u << 20, 4, options.seed);
  ArchivePlan plan;
  plan.queries_per_round = 50;
  plan.min_rounds = 4;
  plan.seconds = options.archive_seconds();
  run_archive_stage(bench, "archive", files, options.seed, options.workdir, plan);
}

}  // namespace perfbench
