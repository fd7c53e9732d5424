// The one decode stage of the SPE drain path.
//
// The monitor (sim/monitor.hpp) drains each round in two steps: stage 1
// copies the aux bytes out on the simulated timeline (AuxConsumer::
// drain_raw), stage 2 submits them here and ends the round with sync().
// Whatever cannot be drained in time is lost, which is why the paper sweeps
// period and aux-buffer size (Figs. 7-9).
//
// A pool with one shard (or none requested) decodes inline: submit() runs
// decode_chunk on the caller's thread in RecordBatch-sized pieces and hands
// each to the sink as shard 0; there is no worker and no queue, and sync()
// has nothing to wait for.  With N > 1 shards the producer packs raw
// 64-byte records into fixed-size RecordBatches and fans them out to N
// worker threads, one lock-free SPSC batch queue per shard (same head/tail
// cursor discipline as kernel/ring_buffer.hpp, with atomics because the two
// sides really are different threads).  Records are sharded by producing
// core, so each shard observes one or more cores' streams in order and a
// per-shard sink never needs a lock; sync() waits until every submitted
// batch has been decoded.  Either way the per-shard traces merge
// canonically at finalize (core/trace.hpp sort_canonical), so every shard
// count emits byte-identical output.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/thread_safety.hpp"
#include "common/types.hpp"
#include "spe/packet.hpp"

namespace nmo::spe {

/// A fixed-capacity batch of raw 64-byte SPE records from one core: the
/// unit of transport between the drain loop and a decode shard.
struct RecordBatch {
  /// Records per batch: 64 x 64 B = 4 KiB per queue slot, large enough to
  /// amortize the queue handoff, small enough to keep shards load-balanced.
  static constexpr std::size_t kMaxRecords = 64;

  CoreId core = 0;
  std::uint32_t records = 0;  ///< Occupied records in `bytes`.
  std::array<std::byte, kMaxRecords * kRecordSize> bytes;

  [[nodiscard]] std::span<const std::byte> payload() const {
    return std::span<const std::byte>(bytes.data(), records * kRecordSize);
  }
};

/// Lock-free single-producer/single-consumer ring of RecordBatches.  The
/// producer is the drain loop; the consumer is one shard worker.
class SpscBatchQueue {
 public:
  /// `capacity` is rounded up to a power of two.
  explicit SpscBatchQueue(std::size_t capacity);

  /// Producer side; returns false when the ring is full.
  bool try_push(const RecordBatch& batch);
  /// Consumer side; returns false when the ring is empty.
  bool try_pop(RecordBatch& out);

  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_acquire) == tail_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<RecordBatch> slots_;
  std::size_t mask_;
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< Next write slot (producer).
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< Next read slot (consumer).
};

/// Result of decoding one chunk of raw records.
struct DecodedChunk {
  std::uint32_t ok = 0;       ///< Valid records written to `out`.
  std::uint32_t skipped = 0;  ///< Records failing NMO's validation rules.
};

/// Decodes every whole 64-byte record in `raw` (at most out.size() of
/// them), writing valid ones to the front of `out`.  The single decode
/// loop shared by the inline pool and the shard workers.
DecodedChunk decode_chunk(std::span<const std::byte> raw, std::span<Record> out);

class DecodePool {
 public:
  /// Decode tallies, aggregated across shards (valid after sync()).
  struct DecodeCounts {
    std::uint64_t records_ok = 0;
    std::uint64_t records_skipped = 0;
    /// Producer queue-full spins in submit(): each one is a failed push
    /// that cost the drain loop a yield - the backpressure signal that the
    /// decode shards (not the aux buffer) are the bottleneck.  Always 0 for
    /// an inline pool.
    std::uint64_t producer_stalls = 0;
  };

  /// Receives every decoded batch, on the shard's worker thread (or the
  /// caller's thread for an inline pool, as shard 0).  `shard` is the
  /// shard index, so a sink writing into per-shard storage needs no
  /// locking.  May be empty (counting-only runs).
  using BatchSink = std::function<void(std::span<const Record>, CoreId, std::uint32_t shard)>;

  /// `shards` <= 1 builds an inline pool; otherwise spawns `shards` worker
  /// threads, each owning one SPSC queue of `queue_capacity` batches.
  /// Workers are named nmo-dec<N>.
  explicit DecodePool(std::uint32_t shards, BatchSink sink = {},
                      std::size_t queue_capacity = 256);
  ~DecodePool();

  DecodePool(const DecodePool&) = delete;
  DecodePool& operator=(const DecodePool&) = delete;

  /// Producer side (one thread): decodes `raw` inline, or splits it into
  /// RecordBatches and enqueues them on core's shard.  Blocks (spin +
  /// yield) while the shard queue is full - backpressure instead of loss.
  /// A trailing partial record is dropped, as decode_chunk drops it.
  void submit(std::span<const std::byte> raw, CoreId core);

  /// Barrier: returns once every submitted batch has been decoded and its
  /// sink call has returned.  Afterwards counts() and all per-shard sink
  /// state are coherent with the producer thread.  No-op for an inline pool.
  void sync();

  [[nodiscard]] std::uint32_t shards() const { return shard_count_; }
  [[nodiscard]] std::uint32_t shard_of(CoreId core) const {
    return static_cast<std::uint32_t>(core % shard_count_);
  }

  /// Aggregated decode tallies; call sync() first.
  [[nodiscard]] DecodeCounts counts() const;
  /// Resets the tallies (between bench iterations); call sync() first.
  void reset_counts();

 private:
  struct Shard {
    explicit Shard(std::size_t queue_capacity) : queue(queue_capacity) {}

    SpscBatchQueue queue;
    /// Batches handed to the queue / fully decoded; equality means idle.
    alignas(64) std::atomic<std::uint64_t> submitted{0};
    alignas(64) std::atomic<std::uint64_t> processed{0};
    std::uint64_t records_ok = 0;       ///< Worker-private until sync().
    std::uint64_t records_skipped = 0;  ///< Worker-private until sync().
    /// Guards nothing: taken empty by the producer purely to close the
    /// worker's predicate-check-then-block window (no lost wakeups).
    core::Mutex wake_mutex{"DecodePool::wake"};
    core::CondVar wake_cv;
    std::thread worker;
  };

  /// Decodes one batch-sized piece into `scratch` and feeds the sink.
  DecodedChunk decode_batch(std::span<const std::byte> raw, CoreId core, std::uint32_t shard,
                            std::span<Record> scratch) const;
  void worker_loop(Shard& shard, std::uint32_t index);

  BatchSink sink_;
  std::uint32_t shard_count_ = 1;
  /// Worker shards; empty for an inline pool.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Inline-pool tallies (producer thread only).
  std::uint64_t inline_ok_ = 0;
  std::uint64_t inline_skipped_ = 0;
  std::atomic<bool> stop_{false};
  /// Only the producer writes this; atomic so counts() can read it from
  /// any thread without a data race.
  alignas(64) std::atomic<std::uint64_t> producer_stalls_{0};
};

}  // namespace nmo::spe
