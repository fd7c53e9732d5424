// End-to-end invariants of the statistical sweep driver (the engine behind
// Figures 7-11).
#include "sim/stat_driver.hpp"

#include <gtest/gtest.h>

#include "analysis/accuracy.hpp"
#include "sim/profile.hpp"

namespace nmo::sim {
namespace {

WorkloadProfile tiny_profile(std::uint64_t ops = 10'000'000) {
  WorkloadProfile p;
  p.name = "tiny";
  p.phases = {PhaseProfile{
      .name = "main",
      .mem_ops = ops,
      .nonmem_per_mem = 2.0,
      .level_mix = {0.90, 0.05, 0.03, 0.02},
      .store_frac = 0.3,
      .tlb_miss_rate = 0.001,
      .parallel = true,
  }};
  return p;
}

SweepConfig fast_cfg() {
  SweepConfig cfg;
  cfg.threads = 4;
  cfg.period = 2048;
  cfg.seed = 42;
  return cfg;
}

TEST(StatDriver, BaselineRunHasNoSamplingActivity) {
  SweepConfig cfg = fast_cfg();
  cfg.spe_enabled = false;
  const auto r = run_statistical(tiny_profile(), MachineConfig{}, cfg);
  EXPECT_EQ(r.processed_samples, 0u);
  EXPECT_EQ(r.selections, 0u);
  EXPECT_GT(r.instrumented_ns, 0u);
  EXPECT_GT(r.mem_counted, 0u);
}

TEST(StatDriver, SamplesApproximateOpsOverPeriod) {
  const auto r = run_statistical(tiny_profile(), MachineConfig{}, fast_cfg());
  const double expected = 10'000'000.0 / 2048.0;
  EXPECT_NEAR(static_cast<double>(r.processed_samples), expected, expected * 0.10);
}

TEST(StatDriver, AccuracyHighAtModeratePeriod) {
  const auto r = run_with_baseline(tiny_profile(), MachineConfig{}, fast_cfg());
  EXPECT_GT(analysis::accuracy(r), 0.90);
  EXPECT_LE(analysis::accuracy(r), 1.0);
}

TEST(StatDriver, OverheadNonNegativeAndBounded) {
  const auto r = run_with_baseline(tiny_profile(), MachineConfig{}, fast_cfg());
  const double ov = analysis::time_overhead(r);
  EXPECT_GE(ov, 0.0);
  EXPECT_LT(ov, 0.5);
}

TEST(StatDriver, DeterministicForSameSeed) {
  const auto a = run_statistical(tiny_profile(), MachineConfig{}, fast_cfg());
  const auto b = run_statistical(tiny_profile(), MachineConfig{}, fast_cfg());
  EXPECT_EQ(a.processed_samples, b.processed_samples);
  EXPECT_EQ(a.selections, b.selections);
  EXPECT_EQ(a.hw_collisions, b.hw_collisions);
  EXPECT_EQ(a.instrumented_ns, b.instrumented_ns);
}

TEST(StatDriver, SeedChangesTrialOutcome) {
  SweepConfig cfg = fast_cfg();
  const auto a = run_statistical(tiny_profile(), MachineConfig{}, cfg);
  cfg.seed = 43;
  const auto b = run_statistical(tiny_profile(), MachineConfig{}, cfg);
  EXPECT_NE(a.processed_samples, b.processed_samples);
}

TEST(StatDriver, MemCountedIncludesOvercount) {
  SweepConfig cfg = fast_cfg();
  cfg.pmu_overcount = 0.10;
  const auto r = run_statistical(tiny_profile(1'000'000), MachineConfig{}, cfg);
  EXPECT_EQ(r.mem_counted, 1'100'000u);
}

TEST(StatDriver, SelectionAccountingConsistent) {
  const auto r = run_statistical(tiny_profile(), MachineConfig{}, fast_cfg());
  // Every selection either collided, was filtered, was written, failed the
  // write, or is the in-flight one completed at flush.
  EXPECT_EQ(r.selections, r.hw_collisions + r.filtered + r.written + r.dropped_full);
  // Every written record is either processed or skipped by the consumer.
  EXPECT_EQ(r.written, r.processed_samples + r.skipped_records);
}

TEST(StatDriver, SerialPhaseRunsOnOneThread) {
  WorkloadProfile p = tiny_profile(2'000'000);
  p.phases[0].parallel = false;
  SweepConfig cfg = fast_cfg();
  const auto serial = run_statistical(p, MachineConfig{}, cfg);
  p.phases[0].parallel = true;
  const auto parallel = run_statistical(p, MachineConfig{}, cfg);
  EXPECT_GT(serial.instrumented_ns, parallel.instrumented_ns);
}

TEST(StatDriver, MorePeriodsFewerSamples) {
  SweepConfig cfg = fast_cfg();
  cfg.period = 1024;
  const auto fine = run_statistical(tiny_profile(), MachineConfig{}, cfg);
  cfg.period = 16384;
  const auto coarse = run_statistical(tiny_profile(), MachineConfig{}, cfg);
  EXPECT_GT(fine.processed_samples, 10 * coarse.processed_samples);
}

TEST(StatDriver, DeadAuxBufferLosesEverything) {
  SweepConfig cfg = fast_cfg();
  cfg.aux_bytes = 2 * 64 * 1024;  // 2 pages: below the functional minimum
  const auto r = run_statistical(tiny_profile(), MachineConfig{}, cfg);
  EXPECT_EQ(r.processed_samples, 0u);
  EXPECT_GT(r.dropped_full, 0u);
}

TEST(StatDriver, BandwidthBoundWorkloadCollidesAtSmallPeriod) {
  // STREAM-like profile saturating DRAM: small periods must collide.
  const auto stream = profiles::stream();
  WorkloadProfile scaled = stream;
  scaled.scale_ops(0.02);  // keep the test fast
  SweepConfig cfg;
  cfg.threads = 32;
  cfg.seed = 7;
  cfg.period = 1024;
  const auto fine = run_statistical(scaled, MachineConfig{}, cfg);
  EXPECT_GT(fine.hw_collisions, 100u);
  cfg.period = 16384;
  const auto coarse = run_statistical(scaled, MachineConfig{}, cfg);
  EXPECT_LT(static_cast<double>(coarse.hw_collisions),
            0.2 * static_cast<double>(fine.hw_collisions));
}

TEST(StatDriver, CacheResidentWorkloadBarelyCollides) {
  auto bfs = profiles::bfs();
  bfs.scale_ops(0.05);
  SweepConfig cfg;
  cfg.threads = 32;
  cfg.period = 1024;
  cfg.seed = 7;
  const auto r = run_statistical(bfs, MachineConfig{}, cfg);
  // BFS is cache-resident: collisions stay tiny relative to selections.
  EXPECT_LT(static_cast<double>(r.hw_collisions),
            0.01 * static_cast<double>(r.selections));
}

// Property sweep: accuracy in [0,1] and monotone-ish sample scaling across
// periods (linearity of Fig. 7).
class StatDriverPeriods : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatDriverPeriods, InvariantsHold) {
  SweepConfig cfg = fast_cfg();
  cfg.period = GetParam();
  const auto r = run_with_baseline(tiny_profile(), MachineConfig{}, cfg);
  EXPECT_LE(analysis::accuracy(r), 1.0);
  EXPECT_GE(analysis::accuracy(r), 0.0);
  EXPECT_GE(analysis::time_overhead(r), 0.0);
  EXPECT_EQ(r.written, r.processed_samples + r.skipped_records);
}

INSTANTIATE_TEST_SUITE_P(Periods, StatDriverPeriods,
                         ::testing::Values(512, 1024, 4096, 16384, 65536));

}  // namespace
}  // namespace nmo::sim
