// Consumer-side draining of an SPE perf event: the record-processing loop
// that NMO runs when epoll reports a wakeup.
//
// For every PERF_RECORD_AUX in the data ring this reads the referenced aux
// bytes, advances aux_tail so the device can reuse the space, and tallies
// the flags NMO's evaluation counts: COLLISION-flagged records (the paper's
// "sample collision" metric) and TRUNCATED ones.  The drain has two stages:
//
//   stage 1  drain_raw()      ring/aux consumption + flag tallies - the only
//                             part that touches device state, so it stays on
//                             the simulated timeline where drains are
//                             deterministic;
//   stage 2  decode_chunks()  submits the raw records to a spe::DecodePool
//                             and ends with sync(), after which counts() and
//                             the sink state are coherent again.
//
// A consumer built without a pool owns an inline DecodePool (the records
// decode on the calling thread); one built over a sharded pool fans them
// out to its workers.  drain() = drain_raw() + decode_chunks().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "kernel/perf_event.hpp"
#include "spe/decode_pool.hpp"
#include "spe/packet.hpp"

namespace nmo::spe {

/// One AUX record's worth of drained-but-undecoded SPE bytes (stage-1
/// output; whole 64-byte records only, trailing partials are dropped at
/// drain time).
struct RawChunk {
  CoreId core = 0;
  std::vector<std::byte> bytes;
};

class AuxConsumer {
 public:
  struct Counts {
    std::uint64_t records_ok = 0;       ///< Decoded, validated samples.
    std::uint64_t records_skipped = 0;  ///< Failed NMO's validation rules.
    std::uint64_t aux_records = 0;      ///< PERF_RECORD_AUX seen.
    std::uint64_t collision_flags = 0;  ///< AUX records with COLLISION flag.
    std::uint64_t truncated_flags = 0;  ///< AUX records with TRUNCATED flag.
    std::uint64_t throttle_records = 0;
    std::uint64_t lost_records = 0;     ///< PERF_RECORD_LOST events.
  };

  /// Batched sink: receives the valid samples of one AUX record in spans
  /// of up to RecordBatch::kMaxRecords records.
  using BatchSink = std::function<void(std::span<const Record>, CoreId core)>;
  /// Decode-progress observer: called with the cumulative records_ok tally
  /// whenever sync() sees it advance (block-close granularity for the
  /// streaming layer's live heartbeats).  Always invoked on the thread
  /// that owns counts() - the timeline thread - never from pool workers.
  using ProgressHook = std::function<void(std::uint64_t records_ok)>;

  /// Counting-only consumer over an owned inline pool.
  AuxConsumer() : AuxConsumer(BatchSink{}) {}
  /// Owns an inline pool that feeds `sink` on the calling thread.
  explicit AuxConsumer(BatchSink sink);
  /// Submits to `pool` (not owned), which must outlive the consumer.
  explicit AuxConsumer(DecodePool* pool) : pool_(pool) {}

  /// Drains and decodes all pending records of `ev`; returns the number of
  /// aux bytes consumed (what the monitor's timing model charges for).
  std::uint64_t drain(kern::PerfEvent& ev);

  /// Stage 1 only: consumes `ev`'s ring records and aux bytes, tallies the
  /// AUX flags, and appends the raw record bytes to `out` without decoding
  /// them.  Returns the aux bytes consumed.
  std::uint64_t drain_raw(kern::PerfEvent& ev, std::vector<RawChunk>& out);

  /// Stage 2: submits every chunk to the pool, then sync().
  void decode_chunks(std::span<const RawChunk> chunks);

  /// Waits for every submitted batch, then folds the pool's decode tallies
  /// into counts().
  void sync();

  /// Installs (or clears) the decode-progress observer.
  void set_progress_hook(ProgressHook hook) { progress_ = std::move(hook); }

  [[nodiscard]] const DecodePool* pool() const { return pool_; }

  [[nodiscard]] const Counts& counts() const { return counts_; }
  void reset_counts();

 private:
  std::unique_ptr<DecodePool> owned_pool_;
  DecodePool* pool_ = nullptr;
  Counts counts_;
  ProgressHook progress_;
};

}  // namespace nmo::spe
