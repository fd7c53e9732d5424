// Timing model of the NMO monitor process.
//
// On real hardware the NMO runtime spawns a monitoring loop that waits in
// epoll on the per-core SPE file descriptors and drains aux data as wakeups
// arrive.  Draining is not free - each record is decoded, MD5-fingerprinted
// and appended to the output trace, and the loop interleaves other work
// (capacity sampling, file flushing) - so in practice the monitor services
// fds in *batched rounds*: a wakeup arms a round, the round drains every
// ready descriptor, and rounds are separated by at least round_interval.
//
// The monitor's round latency is what turns aux-buffer sizing into the
// accuracy/overhead trade-off of Figure 9 and thread count into the
// accuracy dome of Figure 10: while a round is pending the devices keep
// producing, and any buffer that cannot absorb fill_rate x round_latency
// bytes drops samples (TRUNCATED).  Fewer threads push the same sample
// volume through fewer buffers - "effectively reducing the buffer size" as
// the paper puts it.
//
// Monitor is passive with respect to time: drivers call on_wakeup /
// on_round_done and schedule the returned completion times on their own
// event queues, so the same model serves both the statistical and the
// exact trace driver.
//
// Each round runs stage 1 of the drain (AuxConsumer::drain_raw - the
// deterministic device interaction) for every fd, submits the drained
// chunks to the consumer's spe::DecodePool and ends with sync(), so the
// simulated timeline never observes a half-decoded buffer.  The drain
// schedule - which simulated cycle each buffer is drained at - does not
// depend on how many decode shards the pool has, which is what makes every
// shard count emit byte-identical canonical traces.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/budget.hpp"
#include "kernel/perf_event.hpp"
#include "kernel/poller.hpp"
#include "sim/cost_model.hpp"
#include "spe/aux_consumer.hpp"
#include "spe/decode_pool.hpp"

namespace nmo::sim {

class Monitor {
 public:
  /// `events` is the full set of SPE events the monitor watches (the fds
  /// in its epoll set).
  Monitor(const CostModel& cost, spe::AuxConsumer* consumer,
          std::vector<kern::PerfEvent*> events);

  /// A wakeup fired at `now_cycles`.  If no round is armed, one is armed
  /// and the returned value is its completion time (wake latency + drain
  /// estimate, but no earlier than round_interval after the last round).
  std::optional<Cycles> on_wakeup(Cycles now_cycles);

  /// The armed round completed: drain every ready descriptor.  Returns the
  /// completion time of a follow-up round if data is still pending (a
  /// buffer went full while this round was queued and can no longer raise
  /// wakeups).
  std::optional<Cycles> on_round_done(Cycles now_cycles);

  /// Synchronous end-of-run drain (after the timing window, matching the
  /// paper's note that the final buffer drain happens after program exit).
  /// Acknowledges any wakeups still pending, so the poller set is
  /// quiescent afterwards.
  void drain_all();

  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t bytes_drained() const { return bytes_drained_; }
  /// Wakeups consumed through the poller's take_ready handoff (rounds and
  /// the end-of-run drain both ack in batches).
  [[nodiscard]] std::uint64_t wakeups_acked() const { return wakeups_acked_; }
  [[nodiscard]] bool round_armed() const { return round_armed_; }
  [[nodiscard]] const std::vector<kern::PerfEvent*>& events() const { return poller_.events(); }

  /// Attaches a cooperative preemption token: every drain round polls it
  /// (the round loop is the official per-job budget checkpoint - it runs at
  /// a bounded simulated-time interval, so overrun detection latency is one
  /// round).  The token must outlive the monitor; nullptr detaches.
  void set_budget(core::BudgetToken* budget) { budget_ = budget; }
  [[nodiscard]] core::BudgetToken* budget() const { return budget_; }

 private:
  /// Estimated cost of one drain round: fixed setup plus per-byte
  /// processing of everything currently buffered.  Independent of the
  /// decode shard count (see the header comment).
  [[nodiscard]] Cycles round_cost() const;

  /// One drain: stage 1 for every fd + the wakeup-ack handoff, then the
  /// chunks' decode and sync.
  void drain_round();

  CostModel cost_;
  spe::AuxConsumer* consumer_;
  core::BudgetToken* budget_ = nullptr;
  kern::Poller poller_;
  bool round_armed_ = false;
  Cycles last_round_end_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t bytes_drained_ = 0;
  std::uint64_t wakeups_acked_ = 0;

  std::vector<spe::RawChunk> chunks_scratch_;  ///< Reused stage-1 output.
};

}  // namespace nmo::sim
