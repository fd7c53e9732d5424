// Decode-pipeline scaling: records/sec of the sharded parallel decode
// (spe/decode_pool.hpp) for 2..N shards against the inline one-shard pool,
// the decode every drain runs with decode_shards <= 1.
//
// This is not a paper figure: it characterizes the reproduction's own
// scaling beachhead.  The paper's period/aux-buffer sweeps (Figs. 7-9)
// exist because decode throughput bounds how fast the monitor can drain
// the aux buffer; this harness measures that bound directly and how it
// moves when decode fans out across shards.
//
//   ./bench_fig12_decode_scaling [records_per_core] [trials] [--json [FILE]]
//
// --json writes machine-readable results (default BENCH_decode_scaling.json)
// so the perf trajectory accumulates comparable numbers per PR.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "spe/decode_pool.hpp"
#include "spe/packet.hpp"

namespace {

using nmo::spe::kRecordSize;
using nmo::spe::Record;

constexpr nmo::CoreId kCores = 8;

/// One core's raw aux stream: encoded records, ~3% of them invalid (the
/// collision-corrupted records NMO's validation skips).
std::vector<std::byte> make_stream(nmo::CoreId core, std::size_t records) {
  std::vector<std::byte> raw(records * kRecordSize);
  for (std::size_t i = 0; i < records; ++i) {
    Record r;
    r.vaddr = 0x4000'0000 + core * 0x100'0000 + i * 8;
    r.pc = 0x400000 + (i & 0xffff);
    r.timestamp = 1 + i;
    r.op = (i & 1) ? nmo::MemOp::kStore : nmo::MemOp::kLoad;
    r.level = static_cast<nmo::MemLevel>(i & 3);
    r.total_latency = static_cast<std::uint16_t>(10 + (i & 255));
    nmo::spe::encode(r, std::span<std::byte, kRecordSize>(raw.data() + i * kRecordSize,
                                                          kRecordSize));
    if (i % 33 == 32) raw[i * kRecordSize + nmo::spe::kTsHeaderOffset] = std::byte{0x00};
  }
  return raw;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double pool_records_per_sec(const std::vector<std::vector<std::byte>>& streams,
                            std::uint32_t shards, std::uint64_t* checksum) {
  std::vector<std::vector<Record>> sunk(shards);
  nmo::spe::DecodePool pool(
      shards, [&](std::span<const Record> records, nmo::CoreId, std::uint32_t shard) {
        sunk[shard].insert(sunk[shard].end(), records.begin(), records.end());
      });
  const auto t0 = std::chrono::steady_clock::now();
  for (nmo::CoreId core = 0; core < streams.size(); ++core) {
    pool.submit(streams[core], core);
  }
  pool.sync();
  const double dt = seconds_since(t0);
  for (const auto& shard : sunk) {
    for (const auto& r : shard) *checksum ^= r.vaddr;
  }
  return static_cast<double>(pool.counts().records_ok) / dt;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t records_per_core = 1 << 18;
  int trials = 5;
  bool json = false;
  std::string json_path = "BENCH_decode_scaling.json";
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (argv[i][0] != '-' && positional == 0) {
      records_per_core = std::strtoull(argv[i], nullptr, 10);
      ++positional;
    } else if (argv[i][0] != '-' && positional == 1) {
      trials = std::atoi(argv[i]);
      ++positional;
    } else {
      std::fprintf(stderr, "usage: %s [records_per_core > 0] [trials > 0] [--json [FILE]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (records_per_core == 0 || trials <= 0) {
    std::fprintf(stderr, "usage: %s [records_per_core > 0] [trials > 0] [--json [FILE]]\n",
                 argv[0]);
    return 2;
  }

  nmo::bench::banner("fig12", "parallel sharded SPE decode: records/sec vs shards");
  std::printf("%zu records/core x %u cores, %d trials, hw threads %u\n\n", records_per_core,
              kCores, trials, std::thread::hardware_concurrency());

  std::vector<std::vector<std::byte>> streams;
  streams.reserve(kCores);
  for (nmo::CoreId core = 0; core < kCores; ++core) {
    streams.push_back(make_stream(core, records_per_core));
  }

  std::uint64_t checksum = 0;
  nmo::RunningStats baseline;
  for (int t = 0; t < trials; ++t) baseline.add(pool_records_per_sec(streams, 1, &checksum));

  nmo::bench::print_row({"config", "records/sec", "speedup"});
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g", baseline.mean());
  nmo::bench::print_row({"inline", buf, "1.00x"});

  double at4 = 0.0;
  struct ShardResult {
    std::uint32_t shards;
    double rate;
    double speedup;
  };
  std::vector<ShardResult> results;
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    nmo::RunningStats stats;
    for (int t = 0; t < trials; ++t) {
      stats.add(pool_records_per_sec(streams, shards, &checksum));
    }
    const double speedup = stats.mean() / baseline.mean();
    if (shards == 4) at4 = speedup;
    results.push_back({shards, stats.mean(), speedup});
    char rate[64], sp[64];
    std::snprintf(rate, sizeof(rate), "%.3g", stats.mean());
    std::snprintf(sp, sizeof(sp), "%.2fx", speedup);
    char name[32];
    std::snprintf(name, sizeof(name), "%u shards", shards);
    nmo::bench::print_row({name, rate, sp});
  }

  // The >= 2x gate only means something when 4 shards can actually run in
  // parallel; on smaller machines the bench is informational.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool gated = hw >= 4;

  if (json) {
    nmo::bench::JsonWriter w;
    w.begin_object();
    w.key("bench").value("decode_scaling");
    w.key("records_per_core").value(static_cast<std::uint64_t>(records_per_core));
    w.key("cores").value(static_cast<std::uint32_t>(kCores));
    w.key("trials").value(trials);
    w.key("hw_threads").value(hw);
    w.key("inline_records_per_sec").value(baseline.mean());
    w.key("shards").begin_array();
    for (const auto& r : results) {
      w.begin_object();
      w.key("shards").value(r.shards);
      w.key("records_per_sec").value(r.rate);
      w.key("speedup").value(r.speedup);
      w.end_object();
    }
    w.end_array();
    w.key("speedup_at_4_shards").value(at4);
    w.key("gate_applied").value(gated);
    w.end_object();
    if (!w.write_file(json_path)) {
      // Exit 3 like the other deterministic failures: CI treats exit 1 as
      // the advisory speedup gate and must not swallow a lost artifact.
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 3;
    }
    std::printf("json -> %s\n", json_path.c_str());
  }

  std::printf("\nchecksum %016llx\n", static_cast<unsigned long long>(checksum));
  if (!gated) {
    std::printf("4-shard speedup %.2fx (gate skipped: only %u hardware thread%s)\n", at4, hw,
                hw == 1 ? "" : "s");
    return 0;
  }
  std::printf("4-shard speedup %.2fx (acceptance: >= 2x)\n", at4);
  return at4 >= 2.0 ? 0 : 1;
}
