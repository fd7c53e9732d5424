// Monitor timing model: batched drain rounds, rate limiting, drains.
#include "sim/monitor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "spe/packet.hpp"

namespace nmo::sim {
namespace {

constexpr std::size_t kPage = 64 * 1024;

std::unique_ptr<kern::PerfEvent> make_event(std::uint64_t watermark = 64) {
  kern::PerfEventAttr attr;
  attr.type = kern::kPerfTypeArmSpe;
  attr.config = kern::kSpeConfigLoadsAndStores;
  attr.sample_period = 1000;
  attr.aux_watermark = watermark;
  attr.disabled = false;
  return kern::open_event(attr, 0, 4, kPage, 16 * kPage,
                          kern::TimeConv::from_frequency(3e9), nullptr);
}

/// An event whose data ring holds only `ring_bytes` - small enough that
/// coalesced wakeups overflow it and AUX records are lost, the "can no
/// longer raise wakeups" situation the re-arm branch recovers from.
std::unique_ptr<kern::PerfEvent> make_tiny_ring_event(std::size_t ring_bytes,
                                                      std::uint64_t watermark) {
  kern::PerfEventAttr attr;
  attr.type = kern::kPerfTypeArmSpe;
  attr.config = kern::kSpeConfigLoadsAndStores;
  attr.sample_period = 1000;
  attr.aux_watermark = watermark;
  attr.disabled = false;
  return kern::open_event(attr, 0, 1, ring_bytes, 16 * kPage,
                          kern::TimeConv::from_frequency(3e9), nullptr);
}

std::array<std::byte, spe::kRecordSize> rec(Addr a) {
  spe::Record r;
  r.vaddr = a;
  r.timestamp = 1;
  std::array<std::byte, spe::kRecordSize> wire{};
  spe::encode(r, wire);
  return wire;
}

TEST(Monitor, WakeupArmsRound) {
  CostModel cost;
  spe::AuxConsumer consumer;
  auto ev = make_event();
  Monitor mon(cost, &consumer, {ev.get()});
  ev->aux_write(rec(1), 0);
  const auto done = mon.on_wakeup(1000);
  ASSERT_TRUE(done.has_value());
  EXPECT_GT(*done, 1000u + cost.monitor_wake_cycles);
  EXPECT_TRUE(mon.round_armed());
}

TEST(Monitor, SecondWakeupCoalesces) {
  CostModel cost;
  spe::AuxConsumer consumer;
  auto ev1 = make_event();
  auto ev2 = make_event();
  Monitor mon(cost, &consumer, {ev1.get(), ev2.get()});
  ev1->aux_write(rec(1), 0);
  ev2->aux_write(rec(2), 0);
  ASSERT_TRUE(mon.on_wakeup(0).has_value());
  EXPECT_FALSE(mon.on_wakeup(10).has_value());  // round already armed
}

TEST(Monitor, RoundDrainsAllReadyEvents) {
  CostModel cost;
  spe::AuxConsumer consumer;
  auto ev1 = make_event();
  auto ev2 = make_event();
  Monitor mon(cost, &consumer, {ev1.get(), ev2.get()});
  ev1->aux_write(rec(1), 0);
  ev2->aux_write(rec(2), 0);
  const auto t = mon.on_wakeup(0);
  const auto next = mon.on_round_done(*t);
  EXPECT_FALSE(next.has_value());
  EXPECT_EQ(consumer.counts().records_ok, 2u);  // both fds drained in one round
  EXPECT_FALSE(mon.round_armed());
  EXPECT_EQ(mon.rounds(), 1u);
}

TEST(Monitor, RoundsAreRateLimited) {
  CostModel cost;
  spe::AuxConsumer consumer;
  auto ev = make_event();
  Monitor mon(cost, &consumer, {ev.get()});
  ev->aux_write(rec(1), 0);
  const auto t1 = mon.on_wakeup(0);
  mon.on_round_done(*t1);
  // Immediately another wakeup: the next round must start no earlier than
  // round_interval after the previous round finished.
  ev->aux_write(rec(2), 0);
  ev->aux_write(rec(3), 0);
  const auto t2 = mon.on_wakeup(*t1 + 1);
  ASSERT_TRUE(t2.has_value());
  EXPECT_GE(*t2, *t1 + cost.monitor_round_interval_cycles);
}

TEST(Monitor, FullBufferGetsFollowUpRound) {
  CostModel cost;
  spe::AuxConsumer consumer;
  auto ev = make_event(/*watermark=*/16 * kPage);  // only full-buffer wakeups
  Monitor mon(cost, &consumer, {ev.get()});
  const std::size_t cap = 16 * kPage / spe::kRecordSize;
  for (std::size_t i = 0; i < cap; ++i) ASSERT_TRUE(ev->aux_write(rec(1 + i), 0));
  EXPECT_FALSE(ev->aux_write(rec(9999), 0));  // full -> TRUNCATED wakeup
  EXPECT_GT(ev->pending_wakeups(), 0u);
  const auto t1 = mon.on_wakeup(0);
  ASSERT_TRUE(t1.has_value());
  // Refill the buffer during the drain round so it is full again.
  const auto next = mon.on_round_done(*t1);
  EXPECT_FALSE(next.has_value());  // buffer now empty, no follow-up
  EXPECT_EQ(consumer.counts().records_ok, cap);
}

TEST(Monitor, RoundCostScalesWithBytes) {
  CostModel cost;
  spe::AuxConsumer consumer;
  auto small_ev = make_event(/*watermark=*/16 * kPage);
  auto big_ev = make_event(/*watermark=*/16 * kPage);
  small_ev->aux_write(rec(1), 0);
  for (int i = 0; i < 1000; ++i) big_ev->aux_write(rec(2), 0);
  Monitor mon_small(cost, &consumer, {small_ev.get()});
  Monitor mon_big(cost, &consumer, {big_ev.get()});
  const auto t_small = mon_small.on_wakeup(0);
  const auto t_big = mon_big.on_wakeup(0);
  EXPECT_GT(*t_big, *t_small);
}

TEST(Monitor, DrainAllAcksPendingWakeups) {
  // drain_all used to drain buffers but never acknowledge the wakeups the
  // way on_round_done does, leaving stale pending_wakeups() after the
  // end-of-run drain.
  CostModel cost;
  spe::AuxConsumer consumer;
  auto ev = make_event(/*watermark=*/64);
  Monitor mon(cost, &consumer, {ev.get()});
  for (int i = 0; i < 3; ++i) ev->aux_write(rec(1 + i), 0);
  ASSERT_GT(ev->pending_wakeups(), 0u);
  const std::uint64_t pending = ev->pending_wakeups();
  mon.drain_all();
  EXPECT_EQ(ev->pending_wakeups(), 0u);
  EXPECT_EQ(mon.wakeups_acked(), pending);
  EXPECT_EQ(consumer.counts().records_ok, 3u);
}

TEST(Monitor, FollowUpRoundWhenBufferCannotRaiseWakeups) {
  // While a round is queued, writes keep crossing effective_watermark();
  // each crossing emits an AUX record + wakeup, and a small data ring
  // overflows - those bytes can no longer raise wakeups or be drained, so
  // on_round_done must re-arm a follow-up round (the re-arm branch).
  CostModel cost;
  spe::AuxConsumer consumer;
  // Ring fits 4 AUX records (8 B header + 24 B payload each).
  auto ev = make_tiny_ring_event(/*ring_bytes=*/128, /*watermark=*/64);
  Monitor mon(cost, &consumer, {ev.get()});
  ev->aux_write(rec(1), 0);
  const auto t1 = mon.on_wakeup(0);
  ASSERT_TRUE(t1.has_value());
  // 11 more watermark crossings while the round is queued: 3 more AUX
  // records land in the ring, the rest are lost.
  for (int i = 0; i < 11; ++i) ev->aux_write(rec(2 + i), 0);
  EXPECT_GT(ev->ring().lost(), 0u);
  const auto follow_up = mon.on_round_done(*t1);
  ASSERT_TRUE(follow_up.has_value());  // data is still pending: re-armed
  EXPECT_TRUE(mon.round_armed());
  EXPECT_GE(*follow_up, *t1 + cost.monitor_round_interval_cycles);
  // Only the ring-delivered AUX records could be drained...
  EXPECT_EQ(consumer.counts().records_ok, 4u);
  EXPECT_GE(ev->aux().used(), ev->effective_watermark());
  // ...and every wakeup was still consumed by the round's batched ack.
  EXPECT_EQ(ev->pending_wakeups(), 0u);
}

TEST(Monitor, DrainAllFlushesEverything) {
  CostModel cost;
  spe::AuxConsumer consumer;
  auto ev1 = make_event(16 * kPage);
  auto ev2 = make_event(16 * kPage);
  for (int i = 0; i < 5; ++i) ev1->aux_write(rec(1), 0);
  for (int i = 0; i < 7; ++i) ev2->aux_write(rec(2), 0);
  ev1->flush_aux(0);
  ev2->flush_aux(0);
  Monitor mon(cost, &consumer, {ev1.get(), ev2.get()});
  mon.drain_all();
  EXPECT_EQ(consumer.counts().records_ok, 12u);
  EXPECT_FALSE(mon.round_armed());
  EXPECT_EQ(mon.bytes_drained(), 12 * spe::kRecordSize);
}

}  // namespace
}  // namespace nmo::sim
