// DecodePool: the inline (one-shard) pool, sharded decode, SPSC queue
// behaviour, count parity between inline and sharded consumers, and trace
// equality across shard counts - pinned to the quickstart's fingerprint.
#include "spe/decode_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "sim/stat_driver.hpp"
#include "spe/aux_consumer.hpp"
#include "workloads/stream.hpp"

namespace nmo::spe {
namespace {

constexpr std::size_t kPage = 64 * 1024;

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

std::vector<std::byte> raw_stream(std::size_t valid, std::size_t invalid, Addr base = 0x1000) {
  std::vector<std::byte> raw;
  raw.reserve((valid + invalid) * kRecordSize);
  for (std::size_t i = 0; i < valid; ++i) {
    const auto wire = valid_record(base + i * 8, 1 + i);
    raw.insert(raw.end(), wire.begin(), wire.end());
  }
  for (std::size_t i = 0; i < invalid; ++i) {
    auto wire = valid_record(base + i * 8, 1 + i);
    wire[kAddrHeaderOffset] = std::byte{0x00};  // corrupt address header
    raw.insert(raw.end(), wire.begin(), wire.end());
  }
  return raw;
}

TEST(SpscBatchQueue, PushPopWrapsAndBounds) {
  SpscBatchQueue q(4);
  RecordBatch b;
  b.records = 1;
  for (int round = 0; round < 3; ++round) {  // exercise wrap-around
    for (std::uint32_t i = 0; i < q.capacity(); ++i) {
      b.core = i;
      EXPECT_TRUE(q.try_push(b));
    }
    EXPECT_FALSE(q.try_push(b));  // full
    RecordBatch out;
    for (std::uint32_t i = 0; i < q.capacity(); ++i) {
      ASSERT_TRUE(q.try_pop(out));
      EXPECT_EQ(out.core, i);
    }
    EXPECT_FALSE(q.try_pop(out));  // empty
    EXPECT_TRUE(q.empty());
  }
}

TEST(DecodePool, DecodesAcrossShardCounts) {
  for (const std::uint32_t shards : {1u, 2u, 8u}) {
    std::atomic<std::uint64_t> sunk{0};
    DecodePool pool(shards, [&](std::span<const Record> records, CoreId core,
                                std::uint32_t shard) {
      EXPECT_EQ(shard, core % shards);
      sunk.fetch_add(records.size(), std::memory_order_relaxed);
    });
    const auto raw = raw_stream(/*valid=*/300, /*invalid=*/17);
    for (CoreId core = 0; core < 16; ++core) pool.submit(raw, core);
    pool.sync();
    const auto counts = pool.counts();
    EXPECT_EQ(counts.records_ok, 300u * 16) << "shards=" << shards;
    EXPECT_EQ(counts.records_skipped, 17u * 16) << "shards=" << shards;
    EXPECT_EQ(sunk.load(), 300u * 16) << "shards=" << shards;
  }
}

TEST(DecodePool, PerCoreOrderIsPreservedWithinAShard) {
  // Both shard workers sink into the shared map; the lock serializes the
  // tree mutation (per-core order within a shard is untouched by it).
  std::mutex seen_mutex;
  std::map<CoreId, std::vector<Addr>> seen;
  DecodePool pool(2, [&](std::span<const Record> records, CoreId core, std::uint32_t) {
    std::lock_guard<std::mutex> lock(seen_mutex);
    for (const Record& r : records) seen[core].push_back(r.vaddr);
  });
  for (CoreId core = 0; core < 4; ++core) {
    const auto raw = raw_stream(/*valid=*/200, /*invalid=*/0, /*base=*/0x1000 * (core + 1));
    pool.submit(raw, core);
  }
  pool.sync();
  for (CoreId core = 0; core < 4; ++core) {
    ASSERT_EQ(seen[core].size(), 200u);
    for (std::size_t i = 0; i < 200; ++i) {
      EXPECT_EQ(seen[core][i], 0x1000u * (core + 1) + i * 8) << "core=" << core;
    }
  }
}

TEST(DecodePool, EmptySyncAndEmptyDrains) {
  DecodePool pool(4);
  pool.sync();  // nothing submitted: must not hang
  pool.sync();
  EXPECT_EQ(pool.counts().records_ok, 0u);

  kern::PerfEventAttr attr;
  attr.type = kern::kPerfTypeArmSpe;
  attr.config = kern::kSpeConfigLoadsAndStores;
  attr.sample_period = 1000;
  attr.disabled = false;
  auto ev = kern::open_event(attr, 0, 4, kPage, 16 * kPage,
                             kern::TimeConv::from_frequency(3e9), nullptr);
  AuxConsumer consumer(&pool);
  EXPECT_EQ(consumer.drain(*ev), 0u);
  consumer.sync();
  EXPECT_EQ(consumer.counts().aux_records, 0u);
  EXPECT_EQ(consumer.counts().records_ok, 0u);
}

TEST(DecodePool, InlinePoolDecodesOnTheCallersThread) {
  // One shard (or none requested) means no worker and no queue: submit()
  // decodes before it returns and sync() has nothing to wait for.
  for (const std::uint32_t shards : {0u, 1u}) {
    const auto caller = std::this_thread::get_id();
    std::uint64_t sunk = 0;
    DecodePool pool(shards, [&](std::span<const Record> records, CoreId core,
                                std::uint32_t shard) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_EQ(shard, 0u);
      EXPECT_EQ(core, 5u);
      EXPECT_LE(records.size(), RecordBatch::kMaxRecords);
      sunk += records.size();
    });
    EXPECT_EQ(pool.shards(), 1u);
    EXPECT_EQ(pool.shard_of(5), 0u);
    pool.submit(raw_stream(/*valid=*/150, /*invalid=*/3), /*core=*/5);
    EXPECT_EQ(sunk, 150u) << "shards=" << shards;
    EXPECT_EQ(pool.counts().records_ok, 150u);
    EXPECT_EQ(pool.counts().records_skipped, 3u);
    pool.sync();
    EXPECT_EQ(pool.counts().producer_stalls, 0u);
    pool.reset_counts();
    EXPECT_EQ(pool.counts().records_ok, 0u);
  }
}

TEST(DecodePool, TrailingPartialRecordIsDropped) {
  // One whole record plus 10 stray bytes: the partial tail is dropped, as
  // decode_chunk drops it, instead of stalling submit() on a 0-record batch.
  auto raw = raw_stream(/*valid=*/1, /*invalid=*/0);
  raw.resize(raw.size() + 10, std::byte{0x5a});
  std::array<Record, RecordBatch::kMaxRecords> out;
  const DecodedChunk expected = decode_chunk(raw, out);
  EXPECT_EQ(expected.ok, 1u);
  EXPECT_EQ(expected.skipped, 0u);
  for (const std::uint32_t shards : {1u, 2u}) {
    DecodePool pool(shards, {}, /*queue_capacity=*/4);
    pool.submit(raw, /*core=*/0);
    pool.submit(std::span<const std::byte>(raw).first(10), /*core=*/1);  // partial only
    pool.sync();
    EXPECT_EQ(pool.counts().records_ok, expected.ok) << "shards=" << shards;
    EXPECT_EQ(pool.counts().records_skipped, expected.skipped) << "shards=" << shards;
  }
}

/// Feeds the same event stream (valid + invalid records, a collision flag
/// and a truncation episode) to a serial consumer and a pool-mode consumer;
/// every Counts field must agree.
TEST(DecodePool, CountsMatchSerialConsumer) {
  const auto make_event = [] {
    kern::PerfEventAttr attr;
    attr.type = kern::kPerfTypeArmSpe;
    attr.config = kern::kSpeConfigLoadsAndStores;
    attr.sample_period = 1000;
    attr.aux_watermark = 4 * kPage;
    attr.disabled = false;
    return kern::open_event(attr, 2, 4, kPage, 4 * kPage,
                            kern::TimeConv::from_frequency(3e9), nullptr);
  };
  const auto feed = [](kern::PerfEvent& ev) {
    ev.note_collision();
    const std::size_t cap = 4 * kPage / kRecordSize;
    for (std::size_t i = 0; i < cap; ++i) {
      auto wire = valid_record(0x1000 + i * 8, 1 + i);
      if (i % 5 == 0) wire[kTsHeaderOffset] = std::byte{0x00};  // corrupt some
      ASSERT_TRUE(ev.aux_write(wire, 0));
    }
    ASSERT_FALSE(ev.aux_write(valid_record(0x9999, 9), 0));  // truncation
    ev.flush_aux(0);
  };

  auto serial_ev = make_event();
  feed(*serial_ev);
  AuxConsumer serial;
  const auto serial_bytes = serial.drain(*serial_ev);

  for (const std::uint32_t shards : {1u, 2u, 8u}) {
    auto parallel_ev = make_event();
    feed(*parallel_ev);
    DecodePool pool(shards);
    AuxConsumer parallel(&pool);
    const auto parallel_bytes = parallel.drain(*parallel_ev);
    parallel.sync();

    EXPECT_EQ(parallel_bytes, serial_bytes);
    const auto& a = serial.counts();
    const auto& b = parallel.counts();
    EXPECT_EQ(b.records_ok, a.records_ok) << "shards=" << shards;
    EXPECT_EQ(b.records_skipped, a.records_skipped) << "shards=" << shards;
    EXPECT_EQ(b.aux_records, a.aux_records) << "shards=" << shards;
    EXPECT_EQ(b.collision_flags, a.collision_flags) << "shards=" << shards;
    EXPECT_EQ(b.truncated_flags, a.truncated_flags) << "shards=" << shards;
    EXPECT_EQ(b.lost_records, a.lost_records) << "shards=" << shards;
  }
}

/// The acceptance check of the parallel pipeline: an end-to-end profiled
/// run must emit a byte-identical CSV and MD5 fingerprint whether decode
/// runs inline or across N shards.
TEST(DecodePool, SerialAndParallelTracesAreByteIdentical) {
  const auto run = [](std::uint32_t decode_shards) {
    core::NmoConfig config;
    config.enable = true;
    config.mode = core::Mode::kAll;
    config.period = 512;

    sim::EngineConfig engine;
    engine.threads = 8;
    engine.machine.hierarchy.cores = 8;
    engine.decode_shards = decode_shards;

    wl::StreamConfig scfg;
    scfg.array_elems = 1 << 14;
    scfg.iterations = 2;
    wl::Stream stream(scfg);

    core::ProfileSession session(config, engine);
    session.profile(stream, /*with_baseline=*/false);

    std::ostringstream csv;
    session.profiler().trace().write_csv(csv);
    return std::pair{session.profiler().trace().fingerprint(), csv.str()};
  };

  const auto [serial_md5, serial_csv] = run(1);
  EXPECT_NE(serial_csv.find('\n'), std::string::npos);
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    const auto [md5, csv] = run(shards);
    EXPECT_EQ(md5, serial_md5) << "shards=" << shards;
    EXPECT_EQ(csv, serial_csv) << "shards=" << shards;
  }
}

/// The fingerprint oracle: the quickstart's STREAM capture (its built-in
/// defaults) must keep this exact MD5 under inline and sharded decode.  A
/// refactor of the drain/decode path that changes it changed the trace.
TEST(DecodePool, QuickstartFingerprintIsPinned) {
  core::NmoConfig config;
  config.enable = true;
  config.mode = core::Mode::kAll;
  config.period = 256;
  config.auxbufsize_bytes = 256 * 1024;
  for (const std::uint32_t shards : {1u, 4u}) {
    sim::EngineConfig engine;
    engine.threads = 8;
    engine.machine.hierarchy.cores = 8;
    engine.machine.cost.monitor_round_interval_cycles = 1'000'000;
    engine.decode_shards = shards;

    wl::StreamConfig scfg;
    scfg.array_elems = 1 << 18;
    scfg.iterations = 3;
    wl::Stream stream(scfg);

    core::ProfileSession session(config, engine);
    session.profile(stream, /*with_baseline=*/false);
    EXPECT_EQ(session.profiler().trace().fingerprint(), "14c91fd6e9f3a16b364e15927083ed1c")
        << "shards=" << shards;
  }
}

/// The statistical driver reaches identical tallies through the pool.
TEST(DecodePool, StatDriverParityAcrossShards) {
  sim::WorkloadProfile profile = sim::profiles::cfd();
  profile.scale_ops(0.05);
  sim::MachineConfig machine;
  sim::SweepConfig cfg;
  cfg.threads = 8;
  cfg.period = 2048;

  const sim::StatResult serial = sim::run_statistical(profile, machine, cfg);
  cfg.decode_shards = 4;
  const sim::StatResult parallel = sim::run_statistical(profile, machine, cfg);

  EXPECT_EQ(parallel.processed_samples, serial.processed_samples);
  EXPECT_EQ(parallel.skipped_records, serial.skipped_records);
  EXPECT_EQ(parallel.collision_flags, serial.collision_flags);
  EXPECT_EQ(parallel.truncated_flags, serial.truncated_flags);
  EXPECT_EQ(parallel.aux_records, serial.aux_records);
  EXPECT_EQ(parallel.instrumented_ns, serial.instrumented_ns);
}

}  // namespace
}  // namespace nmo::spe
