#include "sim/monitor.hpp"

#include <algorithm>

namespace nmo::sim {

Monitor::Monitor(const CostModel& cost, spe::AuxConsumer* consumer,
                 std::vector<kern::PerfEvent*> events)
    : cost_(cost), consumer_(consumer) {
  for (auto* ev : events) poller_.add(ev);
}

std::optional<Cycles> Monitor::on_wakeup(Cycles now_cycles) {
  if (round_armed_) return std::nullopt;
  round_armed_ = true;
  const Cycles earliest = last_round_end_ + cost_.monitor_round_interval_cycles;
  const Cycles start = std::max(now_cycles + cost_.monitor_wake_cycles, earliest);
  return start + round_cost();
}

void Monitor::drain_round() {
  // Ready-queue handoff: acknowledge every wakeup this round consumes in
  // one batch, then drain every fd (the monitor services its whole epoll
  // set per round - batched servicing is the round model's premise, and
  // it also picks up ring records like THROTTLE that never raise a
  // wakeup, which is why it does not restrict itself to the ready list).
  wakeups_acked_ += poller_.ack_ready();
  chunks_scratch_.clear();
  std::uint64_t bytes = 0;
  for (auto* ev : poller_.events()) bytes += consumer_->drain_raw(*ev, chunks_scratch_);
  bytes_drained_ += bytes;
  // Fork/join: the pool decodes the whole round while the round is still
  // "open" (inline pools decode right here on the timeline thread).
  consumer_->decode_chunks(chunks_scratch_);
}

std::optional<Cycles> Monitor::on_round_done(Cycles now_cycles) {
  // Cooperative preemption checkpoint: the round loop is where a per-job
  // time budget is enforced.  The round itself still completes (drained
  // records are never discarded) - the *engine* observes the tripped token
  // and stops feeding new work, then finalizes a valid truncated trace.
  if (budget_ != nullptr) budget_->poll();
  drain_round();
  ++rounds_;
  last_round_end_ = now_cycles;
  round_armed_ = false;
  for (auto* ev : poller_.events()) {
    if (ev->aux().used() >= ev->effective_watermark()) {
      round_armed_ = true;
      return last_round_end_ + cost_.monitor_round_interval_cycles + round_cost();
    }
  }
  return std::nullopt;
}

void Monitor::drain_all() {
  drain_round();
  round_armed_ = false;
}

Cycles Monitor::round_cost() const {
  std::uint64_t bytes = 0;
  for (const auto* ev : poller_.events()) bytes += ev->aux().used();
  return cost_.monitor_service_base_cycles +
         static_cast<Cycles>(static_cast<double>(bytes) * cost_.monitor_cycles_per_byte);
}

}  // namespace nmo::sim
