// TraceQuery: pushdown-vs-full-scan parity for every predicate
// combination, fallback paths (v1 and metadata-free v2), skip-count
// evidence that pruning actually happens, and the legacy wrapper's
// validation guarantees.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "store/trace_file.hpp"
#include "store/trace_query.hpp"

namespace nmo::store {
namespace {

namespace fs = std::filesystem;

class TraceQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("nmo_query_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

constexpr std::size_t kBlock = TraceWriter::kMaxBlockSamples;

/// A deterministic trace whose structure rewards pushdown: 8 phases of one
/// block each, every phase in its own time window and address band, region
/// = phase % 4, DRAM confined to the last phase.  add() order is file
/// order, so block b holds exactly phase b.
core::SampleTrace phased_trace(std::size_t phases = 8) {
  core::SampleTrace trace;
  for (std::size_t p = 0; p < phases; ++p) {
    for (std::size_t i = 0; i < kBlock; ++i) {
      core::TraceSample s;
      s.time_ns = p * 1'000'000 + i * 100;
      s.core = static_cast<CoreId>(i % 4);
      s.vaddr = 0x1000'0000 + p * 0x100'0000 + i * 64;
      s.pc = 0x400000 + i * 4;
      s.op = i % 3 == 0 ? MemOp::kStore : MemOp::kLoad;
      s.level = p + 1 == phases ? MemLevel::kDRAM
                                : static_cast<MemLevel>(i % 3);  // L1/L2/SLC elsewhere
      s.latency = static_cast<std::uint16_t>(s.level == MemLevel::kDRAM ? 300 + i % 40
                                                                        : 4 + i % 12);
      s.region = static_cast<std::int32_t>(p % 4) - 1;  // -1..2, phase-aligned
      trace.add(s);
    }
  }
  return trace;
}

void write_trace(const std::string& path, const core::SampleTrace& trace,
                 TraceWriter::Options options = {}) {
  TraceWriter writer(path, options);
  writer.write_all(trace);
  ASSERT_TRUE(writer.close()) << writer.error();
}

std::string csv_of(const core::SampleTrace& t) {
  std::ostringstream out;
  t.write_csv(out);
  return out.str();
}

/// The parity oracle: filter a full in-memory decode with the query's own
/// exact per-sample predicate.
core::SampleTrace filter_full(const core::SampleTrace& full, const TraceQuery& q) {
  core::SampleTrace expected;
  for (const auto& s : full.samples()) {
    if (q.matches(s)) expected.add(s);
  }
  return expected;
}

// ------------------------------------------------------ parity, all combos --

TEST_F(TraceQueryTest, PushdownMatchesFullScanForEveryPredicateCombination) {
  const auto trace = phased_trace();
  write_trace(path("t.nmot"), trace);

  // Every subset of {time, addr, region, level}, each selective enough to
  // prune blocks when present.
  // The largest thread count is a ceiling the query caps at the host's
  // hardware threads (and at the 8 surviving blocks at most).
  for (unsigned mask = 0; mask < 16; ++mask) {
    for (const unsigned threads : {1u, 4u, std::numeric_limits<unsigned>::max()}) {
      TraceQuery q(path("t.nmot"));
      if (mask & 1) q.time_between(2'000'000, 2'999'999);        // phase 2 only
      if (mask & 2) q.address_in(0x1400'0000, 0x14ff'ffff);      // phase 4's band
      if (mask & 4) q.region(1);                                 // phases 2 and 6
      if (mask & 8) q.level(MemLevel::kDRAM);                    // phase 7 only
      const auto result = q.run(threads);
      ASSERT_TRUE(result.ok) << "mask " << mask << ": " << result.error;
      EXPECT_EQ(csv_of(result.samples), csv_of(filter_full(trace, q)))
          << "mask " << mask << " threads " << threads;
      EXPECT_EQ(result.stats.samples_matched, result.samples.size());
      EXPECT_TRUE(result.stats.pushdown);
      EXPECT_EQ(result.stats.blocks_total, 8u);
      EXPECT_EQ(result.stats.blocks_scanned + result.stats.blocks_skipped, 8u);
      if (mask != 0) {
        // Every single predicate above rules out whole phases, so any
        // non-empty combination must skip at least one block.
        EXPECT_GT(result.stats.blocks_skipped, 0u) << "mask " << mask;
      } else {
        EXPECT_EQ(result.stats.blocks_skipped, 0u);
      }
    }
  }
}

TEST_F(TraceQueryTest, SelectiveTimeWindowSkipsMostBlocks) {
  const auto trace = phased_trace();
  write_trace(path("t.nmot"), trace);
  // ~12.5% time window: one phase of eight.
  const auto result = query(path("t.nmot")).time_between(3'000'000, 3'999'999).run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.stats.blocks_scanned, 1u);
  EXPECT_EQ(result.stats.blocks_skipped, 7u);
  EXPECT_EQ(result.stats.samples_scanned, kBlock);
  EXPECT_EQ(result.samples.size(), kBlock);
}

TEST_F(TraceQueryTest, UnconstrainedQueryIsAFullDecode) {
  const auto trace = phased_trace(4);
  write_trace(path("t.nmot"), trace);
  const auto result = query(path("t.nmot")).run(3);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(csv_of(result.samples), csv_of(trace));
  EXPECT_EQ(result.stats.blocks_skipped, 0u);
  EXPECT_EQ(result.info.samples, trace.size());
  EXPECT_EQ(result.info.fingerprint, trace.fingerprint());
}

TEST_F(TraceQueryTest, ReversedBoundsNormalize) {
  const auto trace = phased_trace(4);
  write_trace(path("t.nmot"), trace);
  const auto a = query(path("t.nmot")).time_between(1'000'000, 1'999'999).run();
  const auto b = query(path("t.nmot")).time_between(1'999'999, 1'000'000).run();
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(csv_of(a.samples), csv_of(b.samples));
  EXPECT_GT(a.samples.size(), 0u);
}

// ------------------------------------------------------------ fallbacks ----

TEST_F(TraceQueryTest, V2WithoutMetadataFallsBackToFullScan) {
  const auto trace = phased_trace();
  TraceWriter::Options options;
  options.index_meta = false;
  write_trace(path("nometa.nmot"), trace, options);

  TraceReader reader(path("nometa.nmot"));
  ASSERT_TRUE(reader.load_index());
  EXPECT_FALSE(reader.has_block_meta());

  TraceQuery q(path("nometa.nmot"));
  q.time_between(2'000'000, 2'999'999).region(1);
  const auto result = q.run(2);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.stats.pushdown);
  EXPECT_EQ(result.stats.blocks_skipped, 0u);  // nothing to prune with
  EXPECT_EQ(result.stats.blocks_scanned, 8u);
  EXPECT_EQ(csv_of(result.samples), csv_of(filter_full(trace, q)));
}

TEST_F(TraceQueryTest, V1FallsBackToStreamingScan) {
  const auto trace = phased_trace(4);
  TraceWriter::Options options;
  options.version = kTraceVersion1;
  write_trace(path("v1.nmot"), trace, options);

  TraceQuery q(path("v1.nmot"));
  q.level(MemLevel::kDRAM);
  const auto result = q.run(4);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.stats.pushdown);
  EXPECT_EQ(result.stats.blocks_total, 0u);  // v1 has no index
  EXPECT_EQ(result.stats.samples_scanned, trace.size());
  EXPECT_EQ(csv_of(result.samples), csv_of(filter_full(trace, q)));
  EXPECT_EQ(result.info.version, kTraceVersion1);
}

// ------------------------------------------------------------ region edges --

TEST_F(TraceQueryTest, UntaggedRegionQueriesExactly) {
  const auto trace = phased_trace();
  write_trace(path("t.nmot"), trace);
  TraceQuery q(path("t.nmot"));
  q.region(-1);
  const auto result = q.run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(csv_of(result.samples), csv_of(filter_full(trace, q)));
  EXPECT_GT(result.samples.size(), 0u);
  EXPECT_GT(result.stats.blocks_skipped, 0u);  // untagged lives in phases 0/4 only
  for (const auto& s : result.samples.samples()) EXPECT_EQ(s.region, -1);
}

TEST_F(TraceQueryTest, HighRegionIdsShareTheOverflowBitButFilterExactly) {
  // Regions >= 62 collapse onto one bitmap bit: pruning is conservative
  // (a block holding region 200 cannot be skipped when querying 100), but
  // the per-sample filter still returns exactly the asked-for region.
  core::SampleTrace trace;
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::size_t i = 0; i < kBlock; ++i) {
      core::TraceSample s;
      s.time_ns = p * 1'000'000 + i;
      s.core = 0;
      s.vaddr = 0x1000 + i;
      s.pc = 0x400000;
      s.op = MemOp::kLoad;
      s.level = MemLevel::kL1;
      s.latency = 4;
      s.region = p == 0 ? 100 : p == 1 ? 200 : 3;  // blocks: {100}, {200}, {3}
      trace.add(s);
    }
  }
  write_trace(path("hi.nmot"), trace);

  TraceQuery q(path("hi.nmot"));
  q.region(100);
  const auto result = q.run();
  ASSERT_TRUE(result.ok) << result.error;
  // Block 2 (region 3, its own bit) prunes; blocks 0 and 1 share bit 63.
  EXPECT_EQ(result.stats.blocks_scanned, 2u);
  EXPECT_EQ(result.stats.blocks_skipped, 1u);
  EXPECT_EQ(result.samples.size(), kBlock);
  for (const auto& s : result.samples.samples()) EXPECT_EQ(s.region, 100);
}

// ------------------------------------------------------------ edge cases ----

TEST_F(TraceQueryTest, EmptyTraceQueries) {
  write_trace(path("e.nmot"), core::SampleTrace{});
  const auto result = query(path("e.nmot")).region(0).run(4);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.samples.empty());
  EXPECT_EQ(result.stats.blocks_total, 0u);
  EXPECT_EQ(result.stats.samples_matched, 0u);
}

TEST_F(TraceQueryTest, MissingFileFails) {
  const auto result = query(path("absent.nmot")).run();
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST_F(TraceQueryTest, EmptyResultWhenNoBlockMatches) {
  const auto trace = phased_trace(4);
  write_trace(path("t.nmot"), trace);
  const auto result = query(path("t.nmot")).time_between(9'000'000, 9'999'999).run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.samples.empty());
  EXPECT_EQ(result.stats.blocks_scanned, 0u);
  EXPECT_EQ(result.stats.blocks_skipped, 4u);
  EXPECT_EQ(result.stats.samples_scanned, 0u);
}

// ------------------------------------------------------------ legacy wrapper --

TEST_F(TraceQueryTest, ReadAllParallelStillValidatesCountAndDigest) {
  const auto trace = phased_trace(6);
  write_trace(path("t.nmot"), trace);
  for (const unsigned threads : {1u, 4u}) {
    std::string error;
    const auto back = read_all_parallel(path("t.nmot"), threads, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(csv_of(*back), csv_of(trace));
  }
}

}  // namespace
}  // namespace nmo::store
