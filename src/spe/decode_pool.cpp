#include "spe/decode_pool.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <string>

#include "sys/topology.hpp"

namespace nmo::spe {

DecodedChunk decode_chunk(std::span<const std::byte> raw, std::span<Record> out) {
  DecodedChunk chunk;
  for (std::size_t off = 0;
       off + kRecordSize <= raw.size() && chunk.ok < out.size(); off += kRecordSize) {
    const auto result = decode(raw.subspan(off, kRecordSize));
    if (result.ok()) {
      out[chunk.ok++] = *result.record;
    } else {
      ++chunk.skipped;
    }
  }
  return chunk;
}

SpscBatchQueue::SpscBatchQueue(std::size_t capacity)
    : slots_(std::bit_ceil(std::max<std::size_t>(2, capacity))), mask_(slots_.size() - 1) {}

bool SpscBatchQueue::try_push(const RecordBatch& batch) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= slots_.size()) return false;
  slots_[head & mask_] = batch;
  head_.store(head + 1, std::memory_order_release);
  return true;
}

bool SpscBatchQueue::try_pop(RecordBatch& out) {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  if (tail == head) return false;
  out = slots_[tail & mask_];
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

DecodePool::DecodePool(std::uint32_t shards, BatchSink sink, std::size_t queue_capacity)
    : sink_(std::move(sink)), shard_count_(std::max<std::uint32_t>(1, shards)) {
  if (shards <= 1) return;  // inline: no workers, no queues
  shards_.reserve(shards);
  for (std::uint32_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(queue_capacity));
  }
  for (std::uint32_t i = 0; i < shards; ++i) {
    // /proc-visible identity for external profilers and `perf top`.
    shards_[i]->worker = sys::named_thread("nmo-dec" + std::to_string(i),
                                           [this, i] { worker_loop(*shards_[i], i); });
  }
}

DecodePool::~DecodePool() {
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    {
      const core::MutexLock lock(shard->wake_mutex);
    }
    shard->wake_cv.notify_one();
    if (shard->worker.joinable()) shard->worker.join();
  }
}

DecodedChunk DecodePool::decode_batch(std::span<const std::byte> raw, CoreId core,
                                      std::uint32_t shard, std::span<Record> scratch) const {
  const DecodedChunk chunk = decode_chunk(raw, scratch);
  if (sink_ && chunk.ok > 0) sink_(scratch.first(chunk.ok), core, shard);
  return chunk;
}

void DecodePool::submit(std::span<const std::byte> raw, CoreId core) {
  constexpr std::size_t kBatchBytes = RecordBatch::kMaxRecords * kRecordSize;
  // Whole records only: a trailing partial record is dropped here, as
  // decode_chunk and AuxConsumer::drain_raw drop it.
  raw = raw.first(raw.size() / kRecordSize * kRecordSize);

  if (shards_.empty()) {
    std::array<Record, RecordBatch::kMaxRecords> decoded;
    for (std::size_t off = 0; off < raw.size(); off += kBatchBytes) {
      const DecodedChunk chunk = decode_batch(
          raw.subspan(off, std::min(kBatchBytes, raw.size() - off)), core, 0, decoded);
      inline_ok_ += chunk.ok;
      inline_skipped_ += chunk.skipped;
    }
    return;
  }

  Shard& shard = *shards_[shard_of(core)];
  for (std::size_t off = 0; off < raw.size(); off += kBatchBytes) {
    const std::size_t len = std::min(kBatchBytes, raw.size() - off);
    RecordBatch batch;
    batch.core = core;
    batch.records = static_cast<std::uint32_t>(len / kRecordSize);
    std::memcpy(batch.bytes.data(), raw.data() + off, len);

    // Backpressure: the producer waits for queue space rather than dropping
    // (loss is the device model's job, not the decode pipeline's).  Each
    // failed push is counted as a stall so EngineStats/StatResult can show
    // when decode throughput, not aux capacity, bounds the drain loop.
    std::uint64_t spins = 0;
    while (!shard.queue.try_push(batch)) {
      ++spins;
      std::this_thread::yield();
    }
    if (spins > 0) producer_stalls_.fetch_add(spins, std::memory_order_relaxed);
    shard.submitted.fetch_add(1, std::memory_order_release);
    // Taking the mutex (even empty) orders this push against the worker's
    // predicate-check-then-block window, so the notify cannot be lost.
    {
      const core::MutexLock lock(shard.wake_mutex);
    }
    shard.wake_cv.notify_one();
  }
}

void DecodePool::sync() {
  for (auto& shard : shards_) {
    const std::uint64_t target = shard->submitted.load(std::memory_order_acquire);
    while (shard->processed.load(std::memory_order_acquire) < target) {
      std::this_thread::yield();
    }
  }
}

DecodePool::DecodeCounts DecodePool::counts() const {
  DecodeCounts total;
  total.records_ok = inline_ok_;
  total.records_skipped = inline_skipped_;
  for (const auto& shard : shards_) {
    total.records_ok += shard->records_ok;
    total.records_skipped += shard->records_skipped;
  }
  total.producer_stalls = producer_stalls_.load(std::memory_order_relaxed);
  return total;
}

void DecodePool::reset_counts() {
  inline_ok_ = 0;
  inline_skipped_ = 0;
  for (auto& shard : shards_) {
    shard->records_ok = 0;
    shard->records_skipped = 0;
  }
  producer_stalls_.store(0, std::memory_order_relaxed);
}

void DecodePool::worker_loop(Shard& shard, std::uint32_t index) {
  std::array<Record, RecordBatch::kMaxRecords> decoded;
  RecordBatch batch;
  std::uint32_t idle_polls = 0;
  while (true) {
    if (!shard.queue.try_pop(batch)) {
      if (stop_.load(std::memory_order_acquire)) return;
      // Spin briefly (drain rounds arrive in bursts), then park on the
      // condvar so an idle pool costs nothing between rounds.
      if (++idle_polls < 1024) {
        std::this_thread::yield();
      } else {
        core::MutexLock lock(shard.wake_mutex);
        shard.wake_cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
          return stop_.load(std::memory_order_acquire) || !shard.queue.empty();
        });
        idle_polls = 0;
      }
      continue;
    }
    idle_polls = 0;

    const DecodedChunk chunk = decode_batch(batch.payload(), batch.core, index, decoded);
    shard.records_ok += chunk.ok;
    shard.records_skipped += chunk.skipped;
    shard.processed.fetch_add(1, std::memory_order_release);
  }
}

}  // namespace nmo::spe
