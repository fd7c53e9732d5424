// AuxConsumer: draining AUX records, decoding through the inline or a
// sharded DecodePool, flag counting.
#include "spe/aux_consumer.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace nmo::spe {
namespace {

constexpr std::size_t kPage = 64 * 1024;

std::unique_ptr<kern::PerfEvent> make_event(std::uint64_t watermark = 128) {
  kern::PerfEventAttr attr;
  attr.type = kern::kPerfTypeArmSpe;
  attr.config = kern::kSpeConfigLoadsAndStores;
  attr.sample_period = 1000;
  attr.aux_watermark = watermark;
  attr.disabled = false;
  return kern::open_event(attr, 3, 4, kPage, 16 * kPage,
                          kern::TimeConv::from_frequency(3e9), nullptr);
}

std::array<std::byte, kRecordSize> valid_record(Addr vaddr, std::uint64_t ts) {
  Record r;
  r.vaddr = vaddr;
  r.timestamp = ts;
  r.op = MemOp::kLoad;
  r.level = MemLevel::kL2;
  std::array<std::byte, kRecordSize> wire{};
  encode(r, wire);
  return wire;
}

TEST(AuxConsumer, DrainsValidRecords) {
  auto ev = make_event();
  ev->aux_write(valid_record(0x1000, 1), 0);
  ev->aux_write(valid_record(0x2000, 2), 0);  // crosses 128-byte watermark
  std::vector<Addr> seen;
  AuxConsumer consumer([&](std::span<const Record> records, CoreId core) {
    for (const Record& r : records) seen.push_back(r.vaddr);
    EXPECT_EQ(core, 3u);
  });
  const auto bytes = consumer.drain(*ev);
  EXPECT_EQ(bytes, 128u);
  EXPECT_EQ(consumer.counts().records_ok, 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 0x1000u);
  EXPECT_EQ(seen[1], 0x2000u);
}

TEST(AuxConsumer, SkipsInvalidRecords) {
  auto ev = make_event();
  auto bad = valid_record(0x1000, 1);
  bad[30] = std::byte{0x00};  // corrupt address header
  ev->aux_write(bad, 0);
  ev->aux_write(valid_record(0x2000, 2), 0);
  AuxConsumer consumer;
  consumer.drain(*ev);
  EXPECT_EQ(consumer.counts().records_ok, 1u);
  EXPECT_EQ(consumer.counts().records_skipped, 1u);
}

TEST(AuxConsumer, AdvancesAuxTail) {
  auto ev = make_event();
  ev->aux_write(valid_record(0x1, 1), 0);
  ev->aux_write(valid_record(0x2, 2), 0);
  AuxConsumer consumer;
  consumer.drain(*ev);
  EXPECT_EQ(ev->aux().tail(), 128u);
  EXPECT_EQ(ev->aux().used(), 0u);
}

TEST(AuxConsumer, CountsCollisionFlags) {
  auto ev = make_event();
  ev->note_collision();
  ev->aux_write(valid_record(0x1, 1), 0);
  ev->aux_write(valid_record(0x2, 2), 0);
  AuxConsumer consumer;
  consumer.drain(*ev);
  EXPECT_EQ(consumer.counts().collision_flags, 1u);
  EXPECT_EQ(consumer.counts().aux_records, 1u);
}

TEST(AuxConsumer, CountsTruncation) {
  auto ev = make_event(/*watermark=*/16 * kPage);  // never auto-emit
  const std::size_t cap = 16 * kPage / kRecordSize;
  for (std::size_t i = 0; i < cap; ++i) {
    ASSERT_TRUE(ev->aux_write(valid_record(1 + i, 1 + i), 0));
  }
  EXPECT_FALSE(ev->aux_write(valid_record(0x9999, 9), 0));
  ev->flush_aux(0);
  AuxConsumer consumer;
  consumer.drain(*ev);
  EXPECT_EQ(consumer.counts().truncated_flags, 1u);
  EXPECT_EQ(consumer.counts().records_ok, cap);
}

TEST(AuxConsumer, EmptyEventDrainsNothing) {
  auto ev = make_event();
  AuxConsumer consumer;
  EXPECT_EQ(consumer.drain(*ev), 0u);
  EXPECT_EQ(consumer.counts().aux_records, 0u);
}

TEST(AuxConsumer, MultipleDrainsAccumulate) {
  auto ev = make_event();
  AuxConsumer consumer;
  ev->aux_write(valid_record(0x1, 1), 0);
  ev->aux_write(valid_record(0x2, 2), 0);
  consumer.drain(*ev);
  ev->aux_write(valid_record(0x3, 3), 0);
  ev->aux_write(valid_record(0x4, 4), 0);
  consumer.drain(*ev);
  EXPECT_EQ(consumer.counts().records_ok, 4u);
  EXPECT_EQ(consumer.counts().aux_records, 2u);
}

TEST(AuxConsumer, ResetCounts) {
  auto ev = make_event();
  AuxConsumer consumer;
  ev->aux_write(valid_record(0x1, 1), 0);
  ev->aux_write(valid_record(0x2, 2), 0);
  consumer.drain(*ev);
  consumer.reset_counts();
  EXPECT_EQ(consumer.counts().records_ok, 0u);
}

TEST(AuxConsumer, DrainRawDefersDecode) {
  // Stage 1 consumes device state and tallies AUX flags but decodes
  // nothing; stage 2 (decode_chunks: submit + sync) completes it to exactly
  // what drain() would have produced.
  auto ev = make_event();
  ev->note_collision();
  ev->aux_write(valid_record(0x1000, 1), 0);
  auto bad = valid_record(0x2000, 2);
  bad[30] = std::byte{0x00};
  ev->aux_write(bad, 0);
  std::vector<Addr> seen;
  AuxConsumer consumer([&](std::span<const Record> records, CoreId) {
    for (const Record& r : records) seen.push_back(r.vaddr);
  });

  std::vector<RawChunk> chunks;
  const auto bytes = consumer.drain_raw(*ev, chunks);
  EXPECT_EQ(bytes, 128u);
  EXPECT_EQ(ev->aux().used(), 0u);  // device space recycled at stage 1
  EXPECT_EQ(consumer.counts().aux_records, 1u);
  EXPECT_EQ(consumer.counts().collision_flags, 1u);
  EXPECT_EQ(consumer.counts().records_ok, 0u);  // nothing decoded yet
  EXPECT_TRUE(seen.empty());
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].core, 3u);
  EXPECT_EQ(chunks[0].bytes.size(), 128u);

  consumer.decode_chunks(chunks);
  EXPECT_EQ(consumer.counts().records_ok, 1u);
  EXPECT_EQ(consumer.counts().records_skipped, 1u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 0x1000u);
}

TEST(AuxConsumer, DefaultConsumerDecodesInline) {
  // Without a pool the consumer owns a one-shard pool that decodes on the
  // calling thread: the sink runs here, before drain() returns.
  auto ev = make_event();
  ev->aux_write(valid_record(0xa, 1), 0);
  ev->aux_write(valid_record(0xb, 2), 0);
  const auto caller = std::this_thread::get_id();
  std::size_t sunk = 0;
  AuxConsumer consumer([&](std::span<const Record> records, CoreId) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    sunk += records.size();
  });
  ASSERT_NE(consumer.pool(), nullptr);
  EXPECT_EQ(consumer.pool()->shards(), 1u);
  consumer.drain(*ev);
  EXPECT_EQ(sunk, 2u);
  EXPECT_EQ(consumer.counts().records_ok, 2u);
}

}  // namespace
}  // namespace nmo::spe
