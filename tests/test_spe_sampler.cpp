// The SPE sampling unit: interval counting, perturbation, collisions,
// filtering, record emission.
#include "spe/sampler.hpp"

#include <gtest/gtest.h>

#include "kernel/perf_abi.hpp"
#include "spe/aux_consumer.hpp"

namespace nmo::spe {
namespace {

constexpr std::size_t kPage = 64 * 1024;

struct Fixture {
  std::unique_ptr<kern::PerfEvent> event;
  std::unique_ptr<Sampler> sampler;

  explicit Fixture(std::uint64_t period, std::uint64_t config = kern::kSpeConfigLoadsAndStores,
                   std::size_t aux_pages = 16) {
    kern::PerfEventAttr attr;
    attr.type = kern::kPerfTypeArmSpe;
    attr.config = config;
    attr.sample_period = period;
    attr.disabled = false;
    event = kern::open_event(attr, 0, 4, kPage, aux_pages * kPage,
                             kern::TimeConv::from_frequency(3e9), nullptr);
    sampler = std::make_unique<Sampler>(event.get(), Rng(77));
  }
};

OpInfo load_at(std::uint64_t now, Cycles latency = 4, Addr addr = 0x1000) {
  OpInfo op;
  op.cls = OpClass::kLoad;
  op.vaddr = addr;
  op.pc = 0x400000;
  op.level = MemLevel::kL1;
  op.latency = latency;
  op.now_cycles = now;
  return op;
}

TEST(SampleFilter, FromConfigBits) {
  const auto f = SampleFilter::from_config(kern::kSpeLoadFilter);
  EXPECT_TRUE(f.loads);
  EXPECT_FALSE(f.stores);
  EXPECT_FALSE(f.branches);
  const auto f2 = SampleFilter::from_config(kern::kSpeConfigLoadsAndStores);
  EXPECT_TRUE(f2.loads);
  EXPECT_TRUE(f2.stores);
}

TEST(SampleFilter, PaperConfigValue) {
  // 0x600000001 = ts_enable | load_filter | store_filter (section IV-A).
  const auto f = SampleFilter::from_config(0x600000001ull);
  EXPECT_TRUE(f.loads);
  EXPECT_TRUE(f.stores);
  EXPECT_FALSE(f.branches);
}

TEST(SampleFilter, MinLatency) {
  const std::uint64_t config =
      kern::kSpeLoadFilter | (std::uint64_t{50} << kern::kSpeMinLatencyShift);
  const auto f = SampleFilter::from_config(config);
  EXPECT_EQ(f.min_latency, 50u);
  EXPECT_FALSE(f.passes(OpClass::kLoad, 49));
  EXPECT_TRUE(f.passes(OpClass::kLoad, 50));
}

TEST(SampleFilter, OtherOpsRejectedWithMemFilters) {
  const auto f = SampleFilter::from_config(kern::kSpeConfigLoadsAndStores);
  EXPECT_FALSE(f.passes(OpClass::kOther, 1000));
  EXPECT_FALSE(f.passes(OpClass::kBranch, 1000));
}

TEST(Sampler, ExactPeriodWithoutJitter) {
  Fixture fx(100);  // no kSpeJitter bit -> deterministic interval
  for (int i = 0; i < 1000; ++i) {
    fx.sampler->on_mem_op(load_at(static_cast<std::uint64_t>(i) * 10));
  }
  // 1000 ops at period 100 -> exactly 10 selections.
  EXPECT_EQ(fx.sampler->stats().selections, 10u);
}

TEST(Sampler, JitteredIntervalStaysNearPeriod) {
  Fixture fx(1000, kern::kSpeConfigLoadsAndStores | kern::kSpeJitter);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto iv = fx.sampler->draw_interval();
    EXPECT_GE(iv, 1000u - 128);
    EXPECT_LE(iv, 1000u + 128);
    sum += static_cast<double>(iv);
  }
  EXPECT_NEAR(sum / n, 1000.0, 3.0);  // unbiased perturbation
}

TEST(Sampler, SampleWrittenAfterCompletion) {
  Fixture fx(10);
  for (int i = 0; i < 100; ++i) {
    fx.sampler->on_mem_op(load_at(static_cast<std::uint64_t>(i) * 100));
  }
  fx.sampler->flush(100 * 100);
  EXPECT_EQ(fx.sampler->stats().written, 10u);
  EXPECT_EQ(fx.event->aux().used(), 10u * kRecordSize);
}

TEST(Sampler, CollisionWhenPipelineBusy) {
  Fixture fx(10);
  // Long-latency op selected first; next selection fires while in flight.
  std::uint64_t now = 0;
  for (int i = 0; i < 10; ++i) fx.sampler->on_mem_op(load_at(now += 1, 100000));
  EXPECT_EQ(fx.sampler->stats().selections, 1u);
  for (int i = 0; i < 10; ++i) fx.sampler->on_mem_op(load_at(now += 1, 100000));
  EXPECT_EQ(fx.sampler->stats().selections, 2u);
  EXPECT_EQ(fx.sampler->stats().collisions, 1u);
}

TEST(Sampler, CollisionFlagReachesAuxRecord) {
  Fixture fx(10);
  std::uint64_t now = 0;
  for (int i = 0; i < 30; ++i) fx.sampler->on_mem_op(load_at(now += 1, 1'000'000));
  EXPECT_GE(fx.sampler->stats().collisions, 1u);
  fx.sampler->flush(now + 2'000'000);
  fx.event->flush_aux(0);
  AuxConsumer consumer;
  consumer.drain(*fx.event);
  EXPECT_GE(consumer.counts().collision_flags, 1u);
}

TEST(Sampler, NoCollisionWhenOpsComplete) {
  Fixture fx(10);
  // Each op finishes long before the next selection.
  for (int i = 0; i < 200; ++i) {
    fx.sampler->on_mem_op(load_at(static_cast<std::uint64_t>(i) * 1000, 4));
  }
  EXPECT_EQ(fx.sampler->stats().collisions, 0u);
  EXPECT_EQ(fx.sampler->stats().selections, 20u);
}

TEST(Sampler, StoreFilteredWhenOnlyLoadsSelected) {
  Fixture fx(1, kern::kSpeLoadFilter);  // sample every op, loads only
  OpInfo store = load_at(10, 4);
  store.cls = OpClass::kStore;
  fx.sampler->on_mem_op(store);
  fx.sampler->flush(1000);
  EXPECT_EQ(fx.sampler->stats().filtered, 1u);
  EXPECT_EQ(fx.sampler->stats().written, 0u);
}

TEST(Sampler, NonMemOpsAdvanceCounter) {
  Fixture fx(100);
  // 99 non-memory ops then a memory op: the memory op is the 100th decode
  // and must be selected.
  fx.sampler->advance_other(99, 0, 1.0);
  EXPECT_EQ(fx.sampler->stats().selections, 0u);
  fx.sampler->on_mem_op(load_at(200));
  EXPECT_EQ(fx.sampler->stats().selections, 1u);
}

TEST(Sampler, NonMemSelectionIsFiltered) {
  Fixture fx(50);
  fx.sampler->advance_other(500, 0, 1.0);  // 10 selections, all ALU ops
  fx.sampler->flush(10000);
  EXPECT_EQ(fx.sampler->stats().selections, 10u);
  EXPECT_EQ(fx.sampler->stats().filtered, 10u);
  EXPECT_EQ(fx.sampler->stats().written, 0u);
}

TEST(Sampler, RecordCarriesOperationDetails) {
  Fixture fx(1);
  OpInfo op = load_at(123, 45, 0xdeadbeef);
  op.level = MemLevel::kSLC;
  op.tlb_miss = true;
  fx.sampler->on_mem_op(op);
  fx.sampler->flush(1000);
  fx.event->flush_aux(0);
  Record seen;
  AuxConsumer consumer([&](std::span<const Record> records, CoreId) {
    if (!records.empty()) seen = records.back();
  });
  consumer.drain(*fx.event);
  ASSERT_EQ(consumer.counts().records_ok, 1u);
  EXPECT_EQ(seen.vaddr, 0xdeadbeefu);
  EXPECT_EQ(seen.level, MemLevel::kSLC);
  EXPECT_EQ(seen.total_latency, 45u);
  EXPECT_EQ(seen.timestamp, 123u + 45u);  // completion time
  EXPECT_TRUE(seen.events & kEvtTlbWalk);
}

TEST(Sampler, WriteFailsWhenAuxDead) {
  Fixture fx(1, kern::kSpeConfigLoadsAndStores, /*aux_pages=*/2);  // non-functional
  fx.sampler->on_mem_op(load_at(1));
  fx.sampler->flush(100);
  EXPECT_EQ(fx.sampler->stats().write_failed, 1u);
  EXPECT_EQ(fx.sampler->stats().written, 0u);
}

TEST(Sampler, RequiresSpeEvent) {
  kern::PerfEventAttr attr;
  attr.type = kern::kPerfTypeHardware;
  auto counting = kern::open_event(attr, 0, 0, kPage, 0,
                                   kern::TimeConv::from_frequency(3e9), nullptr);
  EXPECT_THROW(Sampler(counting.get(), Rng(1)), std::invalid_argument);
  EXPECT_THROW(Sampler(nullptr, Rng(1)), std::invalid_argument);
}

// Property: over a long run the number of selections approximates
// total_ops / period for several periods (the linearity behind Fig. 7).
class SamplerLinearity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SamplerLinearity, SelectionsMatchExpectation) {
  const std::uint64_t period = GetParam();
  Fixture fx(period, kern::kSpeConfigLoadsAndStores | kern::kSpeJitter);
  const std::uint64_t ops = period * 400;
  std::uint64_t now = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    fx.sampler->on_mem_op(load_at(now += 3, 4));
  }
  const double expected = static_cast<double>(ops) / static_cast<double>(period);
  EXPECT_NEAR(static_cast<double>(fx.sampler->stats().selections), expected,
              expected * 0.05 + 2);
}

INSTANTIATE_TEST_SUITE_P(Periods, SamplerLinearity,
                         ::testing::Values(64, 256, 1024, 4096, 16384));

/// Write-combining parity: a sampler staging records in batches must land
/// the identical record stream (and written/write_failed totals) in the
/// aux buffer as the per-record default, once flushed.
TEST(Sampler, WriteBatchingIsRecordIdentical) {
  const auto run = [](std::uint32_t write_batch) {
    Fixture fx(64);
    if (write_batch > 1) fx.sampler->set_write_batch(write_batch);
    std::uint64_t now = 0;
    for (std::uint64_t i = 0; i < 20000; ++i) {
      fx.sampler->on_mem_op(load_at(now += 5, 4, 0x1000 + i * 8));
    }
    fx.sampler->flush(now);
    fx.event->flush_aux(0);
    std::vector<std::pair<Addr, std::uint64_t>> records;
    AuxConsumer consumer([&](std::span<const Record> batch, CoreId) {
      for (const Record& r : batch) records.emplace_back(r.vaddr, r.timestamp);
    });
    consumer.drain(*fx.event);
    return std::tuple{fx.sampler->stats().written, fx.sampler->stats().write_failed,
                      records};
  };

  const auto [written1, failed1, records1] = run(1);
  ASSERT_GT(written1, 0u);
  for (const std::uint32_t batch : {8u, 64u}) {
    const auto [written, failed, records] = run(batch);
    EXPECT_EQ(written, written1) << "batch=" << batch;
    EXPECT_EQ(failed, failed1) << "batch=" << batch;
    EXPECT_EQ(records, records1) << "batch=" << batch;
  }
}

}  // namespace
}  // namespace nmo::spe
