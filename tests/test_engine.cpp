// TraceEngine + ProfileSession integration: real workloads through the
// exact simulator with the full NMO stack attached.
#include <gtest/gtest.h>

#include "analysis/pattern.hpp"
#include "core/session.hpp"
#include "workloads/bfs.hpp"
#include "workloads/stream.hpp"

namespace nmo {
namespace {

core::NmoConfig sampling_config(std::uint64_t period = 512) {
  core::NmoConfig cfg;
  cfg.enable = true;
  cfg.mode = core::Mode::kAll;
  cfg.period = period;
  return cfg;
}

sim::EngineConfig small_engine(std::uint32_t threads = 4) {
  sim::EngineConfig cfg;
  cfg.threads = threads;
  cfg.machine.hierarchy.cores = threads;
  return cfg;
}

TEST(TraceEngine, WorkloadStillComputesCorrectly) {
  core::ProfileSession session(sampling_config(), small_engine());
  wl::StreamConfig scfg;
  scfg.array_elems = 20'000;
  scfg.iterations = 2;
  wl::Stream stream(scfg);
  session.profile(stream, /*with_baseline=*/false);
  EXPECT_DOUBLE_EQ(stream.a()[123], wl::Stream::expected_a(2, scfg.scalar));
}

TEST(TraceEngine, SamplesApproximateMemOverPeriod) {
  core::ProfileSession session(sampling_config(512), small_engine());
  wl::StreamConfig scfg;
  scfg.array_elems = 50'000;
  scfg.iterations = 2;
  wl::Stream stream(scfg);
  const auto report = session.profile(stream, false);
  EXPECT_GT(report.mem_ops, 0u);
  const double expected = static_cast<double>(report.mem_ops) / 512.0;
  EXPECT_NEAR(static_cast<double>(report.processed_samples), expected, expected * 0.25);
}

TEST(TraceEngine, AccuracyReasonableAtModeratePeriod) {
  core::ProfileSession session(sampling_config(1024), small_engine());
  wl::StreamConfig scfg;
  scfg.array_elems = 100'000;
  scfg.iterations = 2;
  wl::Stream stream(scfg);
  const auto report = session.profile(stream, true);
  EXPECT_GT(report.accuracy(), 0.80);
  EXPECT_LE(report.accuracy(), 1.0);
  EXPECT_GE(report.time_overhead(), 0.0);
}

TEST(TraceEngine, SamplesAttributedToTaggedArrays) {
  core::ProfileSession session(sampling_config(256), small_engine());
  wl::StreamConfig scfg;
  scfg.array_elems = 50'000;
  scfg.iterations = 2;
  wl::Stream stream(scfg);
  session.profile(stream, false);
  const auto& profiler = session.profiler();
  const auto breakdown = analysis::region_breakdown(profiler.trace(), profiler.regions());
  // Tags a, b, c must all receive samples; untagged should be empty
  // (STREAM touches only the three arrays).
  std::uint64_t tagged = 0, untagged = 0;
  for (const auto& r : breakdown) {
    if (r.name == "(untagged)") {
      untagged = r.samples;
    } else {
      EXPECT_GT(r.samples, 0u) << r.name;
      tagged += r.samples;
    }
  }
  EXPECT_GT(tagged, 0u);
  EXPECT_EQ(untagged, 0u);
}

TEST(TraceEngine, PhaseSpansRecorded) {
  core::ProfileSession session(sampling_config(512), small_engine());
  wl::StreamConfig scfg;
  scfg.array_elems = 10'000;
  scfg.iterations = 2;
  wl::Stream stream(scfg);
  session.profile(stream, false);
  const auto& phases = session.profiler().regions().phases();
  // init + 2 iterations x 4 kernels = 9 phases, all closed.
  ASSERT_EQ(phases.size(), 9u);
  for (const auto& p : phases) {
    EXPECT_GT(p.t_stop_ns, p.t_start_ns) << p.name;
  }
  EXPECT_EQ(session.profiler().regions().open_phases(), 0u);
}

TEST(TraceEngine, TriadSamplesLandInTriadPhase) {
  core::ProfileSession session(sampling_config(256), small_engine());
  wl::StreamConfig scfg;
  scfg.array_elems = 50'000;
  scfg.iterations = 3;
  wl::Stream stream(scfg);
  session.profile(stream, false);
  const auto& profiler = session.profiler();
  const auto triad =
      analysis::samples_in_phase(profiler.trace(), profiler.regions(), "triad");
  EXPECT_GT(triad.size(), 10u);
  // Triad touches all three arrays; samples must span a, b and c ranges.
  std::uint64_t in_a = 0;
  for (const auto& s : triad) {
    if (s.vaddr >= stream.a_base() && s.vaddr < stream.a_base() + scfg.array_elems * 8) ++in_a;
  }
  EXPECT_GT(in_a, 0u);
  EXPECT_LT(in_a, triad.size());
}

TEST(TraceEngine, StreamScatterIsRegular) {
  core::ProfileSession session(sampling_config(256), small_engine(2));
  wl::StreamConfig scfg;
  scfg.array_elems = 80'000;
  scfg.iterations = 2;
  wl::Stream stream(scfg);
  session.profile(stream, false);
  const auto& profiler = session.profiler();
  auto triad = analysis::samples_in_phase(profiler.trace(), profiler.regions(), "triad");
  // Triad interleaves three array streams; within ONE tagged array the
  // sweep is sequential, so per-region same-core deltas are small.
  std::erase_if(triad, [](const core::TraceSample& s) { return s.region != 0; });
  ASSERT_GT(triad.size(), 10u);
  EXPECT_GT(analysis::locality_fraction(triad, 64 * 1024), 0.9);
}

TEST(TraceEngine, CapacityTracksAllocations) {
  core::ProfileSession session(sampling_config(), small_engine());
  wl::StreamConfig scfg;
  scfg.array_elems = 30'000;
  scfg.iterations = 1;
  wl::Stream stream(scfg);
  session.profile(stream, false);
  const auto& cap = session.profiler().capacity();
  EXPECT_EQ(cap.peak_bytes(), 3u * scfg.array_elems * 8);
}

TEST(TraceEngine, BandwidthSeriesNonEmptyAndPositive) {
  sim::EngineConfig ecfg = small_engine();
  ecfg.tick_interval_ns = 100'000;  // dense ticks for a short run
  core::ProfileSession session(sampling_config(), ecfg);
  wl::StreamConfig scfg;
  scfg.array_elems = 200'000;
  scfg.iterations = 2;
  wl::Stream stream(scfg);
  session.profile(stream, false);
  const auto& bw = session.profiler().bandwidth();
  ASSERT_FALSE(bw.series().empty());
  EXPECT_GT(bw.peak_gib_per_s(), 0.0);
  EXPECT_GT(bw.arithmetic_intensity(), 0.0);
}

TEST(TraceEngine, TraceFingerprintIsDeterministic) {
  wl::StreamConfig scfg;
  scfg.array_elems = 20'000;
  scfg.iterations = 1;
  std::string fp1, fp2;
  {
    core::ProfileSession session(sampling_config(512), small_engine());
    wl::Stream stream(scfg);
    session.profile(stream, false);
    fp1 = session.profiler().trace().fingerprint();
  }
  {
    core::ProfileSession session(sampling_config(512), small_engine());
    wl::Stream stream(scfg);
    session.profile(stream, false);
    fp2 = session.profiler().trace().fingerprint();
  }
  EXPECT_EQ(fp1, fp2);
  EXPECT_EQ(fp1.size(), 32u);
}

TEST(TraceEngine, DisabledSamplingCollectsNothing) {
  core::NmoConfig cfg;
  cfg.enable = true;
  cfg.mode = core::Mode::kCapacity;  // no sampling mode
  cfg.period = 512;
  core::ProfileSession session(cfg, small_engine());
  wl::StreamConfig scfg;
  scfg.array_elems = 10'000;
  wl::Stream stream(scfg);
  const auto report = session.profile(stream, false);
  EXPECT_EQ(report.processed_samples, 0u);
  EXPECT_EQ(report.wakeups, 0u);
}

TEST(TraceEngine, BfsThroughFullStack) {
  core::ProfileSession session(sampling_config(512), small_engine());
  wl::BfsConfig bcfg;
  bcfg.nodes = 8192;
  bcfg.edges_per_node = 4;
  wl::Bfs bfs(bcfg);
  const auto report = session.profile(bfs, false);
  // BFS result must still be correct under profiling.
  const auto ref = wl::reference_bfs(bfs.graph(), bcfg.source);
  EXPECT_EQ(bfs.cost(), ref);
  EXPECT_GT(report.processed_samples, 0u);
}

TEST(TraceEngine, InstrumentedNeverFasterThanBaseline) {
  core::ProfileSession session(sampling_config(256), small_engine());
  wl::StreamConfig scfg;
  scfg.array_elems = 60'000;
  scfg.iterations = 2;
  wl::Stream stream(scfg);
  const auto report = session.profile(stream, true);
  EXPECT_GE(report.instrumented_ns, report.baseline_ns);
}

}  // namespace
}  // namespace nmo
