// The archive stage: store, query and stream path over fixed traces, with
// no simulation in the timed part.  One round
//   - writes every trace as a v2 file (store.write),
//   - reads each file back in full through TraceQuery (store.read),
//   - runs the seeded query mix on one query thread (store.query),
//   - streams every trace through a StreamingTraceSink into an in-process
//     Collector over loopback, one session at a time (net.stream),
//   - runs lz_compress / lz_decompress over the raw block payloads of a
//     compress=false copy (store.codec_compress / store.codec_decompress).
// Every output is checked: the writer's digest, the digest of the full
// read-back and the collector-mirrored digest against the source trace's
// fingerprint, each query against TraceQuery::matches over the full
// decode, the codec round trip byte for byte.
//
// The archive workload's set-up captures two real traces (a quickstart-
// shaped STREAM run with sequential addresses and a short-period PageRank
// run with irregular ones) and replicates them with time shifts.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/session.hpp"
#include "net/block_sender.hpp"
#include "net/collector.hpp"
#include "store/block_codec.hpp"
#include "store/trace_file.hpp"
#include "store/trace_query.hpp"
#include "workloads.hpp"
#include "workloads/pagerank.hpp"
#include "workloads/stream.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace store = nmo::store;
using nmo::core::SampleTrace;
using nmo::core::TraceSample;

bool same_sample(const TraceSample& a, const TraceSample& b) {
  return a.time_ns == b.time_ns && a.vaddr == b.vaddr && a.pc == b.pc && a.op == b.op &&
         a.level == b.level && a.latency == b.latency && a.core == b.core &&
         a.region == b.region;
}

/// Reads one unsigned LEB128 varint; false past the end.
bool read_varint(std::span<const std::byte> in, std::size_t& pos, std::uint64_t& out) {
  out = 0;
  for (int shift = 0; shift < 64 && pos < in.size(); shift += 7) {
    const auto b = static_cast<std::uint8_t>(in[pos++]);
    out |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return true;
  }
  return false;
}

/// The payload of one v2 block as the writer's block observer saw it
/// (marker | count | codec | cores | core table | raw | stored | payload).
std::span<const std::byte> block_payload(std::span<const std::byte> block) {
  std::size_t pos = 1;
  std::uint64_t v = 0;
  if (!read_varint(block, pos, v)) return {};  // count
  ++pos;                                       // codec byte
  std::uint64_t cores = 0;
  if (!read_varint(block, pos, cores)) return {};
  for (std::uint64_t c = 0; c < cores * 4; ++c) {
    if (!read_varint(block, pos, v)) return {};
  }
  std::uint64_t raw = 0;
  std::uint64_t stored = 0;
  if (!read_varint(block, pos, raw) || !read_varint(block, pos, stored)) return {};
  if (stored != raw || pos + stored != block.size()) return {};
  return block.subspan(pos);
}

/// Stream session name of trace `i`; the collector's session directory
/// name ends with it, and no name is a suffix of another.
std::string session_name(std::size_t i) {
  std::string name = "s";
  name += std::to_string(i);
  return name;
}

/// One query of the mix: the predicate and the file it targets.
struct QuerySpec {
  std::size_t file = 0;
  enum Kind { kTime, kAddress, kRegion, kLevel } kind = kTime;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::int32_t region = -1;

  [[nodiscard]] store::TraceQuery build(const std::string& path) const {
    store::TraceQuery q(path);
    switch (kind) {
      case kTime: q.time_between(lo, hi); break;
      case kAddress: q.address_in(lo, hi); break;
      case kRegion: q.region(region); break;
      case kLevel: q.level(nmo::MemLevel::kDRAM); break;
    }
    return q;
  }
};

/// The seeded query mix.  Class shares are fixed so the latency
/// percentiles land inside one class whatever the seed: 60% time windows
/// over 2% of a file (p50), 15% address bands, 10% regions, 15%
/// level(kDRAM) scans that skip almost no block (p95).  Within a class the
/// k-th query targets file k mod files at a stratified position of that
/// file (seeded jitter inside the stratum), so every seed covers every
/// file evenly and the mix's cost does not swing with the seed.
std::vector<QuerySpec> make_query_mix(const std::vector<SampleTrace>& traces, std::size_t n,
                                      std::uint64_t seed) {
  nmo::Rng rng(seed, 41);
  const auto kind_of = [](std::size_t i) {
    const std::size_t slot = i % 20;
    return slot < 12   ? QuerySpec::kTime
           : slot < 15 ? QuerySpec::kAddress
           : slot < 17 ? QuerySpec::kRegion
                       : QuerySpec::kLevel;
  };
  std::size_t class_total[4] = {};
  for (std::size_t i = 0; i < n; ++i) ++class_total[kind_of(i)];
  std::size_t class_seen[4] = {};
  std::vector<QuerySpec> mix;
  mix.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    QuerySpec q;
    q.kind = kind_of(i);
    const std::size_t k = class_seen[q.kind]++;
    q.file = k % traces.size();
    const auto& s = traces[q.file].samples();
    const double u = (static_cast<double>(k) + rng.uniform01()) /
                     static_cast<double>(class_total[q.kind]);
    const std::size_t width = std::max<std::size_t>(1, s.size() / 50);
    const auto at = std::min(s.size() - width, static_cast<std::size_t>(
                                                   u * static_cast<double>(s.size() - width)));
    switch (q.kind) {
      case QuerySpec::kTime:
        // Samples ascend in time within a file, so an index window is a
        // time window.
        q.lo = s[at].time_ns;
        q.hi = s[at + width - 1].time_ns;
        break;
      case QuerySpec::kAddress:
        q.lo = s[at].vaddr & ~0xffffull;
        q.hi = q.lo + 0x3ffff;
        break;
      case QuerySpec::kRegion:
        q.region = s[at].region;
        break;
      case QuerySpec::kLevel:
        break;
    }
    mix.push_back(q);
  }
  return mix;
}

}  // namespace

std::vector<SampleTrace> replicate(const std::vector<const SampleTrace*>& sources,
                                   std::size_t target_samples, std::size_t files,
                                   std::uint64_t seed) {
  nmo::Rng rng(seed, 29);
  std::vector<SampleTrace> out(files);
  const std::size_t per_file = (target_samples + files - 1) / files;
  std::uint64_t shift = 0;
  std::size_t file = 0;
  for (std::size_t copy = 0; file < files; ++copy) {
    const SampleTrace& src = *sources[copy % sources.size()];
    if (src.empty()) break;
    const std::uint64_t first = src.samples().front().time_ns;
    for (const TraceSample& s : src.samples()) {
      if (file >= files) break;
      TraceSample t = s;
      t.time_ns = s.time_ns - first + shift;
      out[file].add(t);
      if (out[file].size() >= per_file) ++file;
    }
    shift += src.samples().back().time_ns - first + 1000 + rng.uniform(100'000);
  }
  return out;
}

void run_archive_stage(Bench& bench, const std::string& stage,
                       const std::vector<SampleTrace>& traces, std::uint64_t seed,
                       const std::string& workdir, const ArchivePlan& plan) {
  const fs::path dir = fs::path(workdir) / stage;
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::string> paths;
  std::vector<std::string> fingerprints;
  double samples = 0.0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    paths.push_back((dir / ("trace-" + std::to_string(i) + ".nmot")).string());
    fingerprints.push_back(traces[i].fingerprint());
    samples += static_cast<double>(traces[i].size());
  }

  // Raw block payloads of a compress=false copy: the codec's input.
  std::vector<std::vector<std::byte>> payloads;
  {
    const std::string raw_path = (dir / "raw.nmot").string();
    for (const SampleTrace& t : traces) {
      store::TraceWriter writer(raw_path, store::TraceWriter::Options{.compress = false});
      writer.set_block_observer([&](std::span<const std::byte> block, std::uint32_t, auto) {
        const auto p = block_payload(block);
        bench.check(!p.empty(), "raw block payload parse");
        payloads.emplace_back(p.begin(), p.end());
      });
      writer.write_all(t);
      bench.check(writer.close(), "raw copy write");
    }
    fs::remove(raw_path);
  }

  const std::vector<QuerySpec> mix = make_query_mix(traces, plan.queries_per_round, seed);
  std::vector<double> latencies_ms;
  const Usage start = Usage::now();
  while (bench.another_round(stage, start, plan.seconds, plan.min_rounds, 64)) {
    bench.begin_round(stage);

    // Write.
    std::vector<std::string> written(traces.size());
    bench.timed(stage, "store.write", [&] {
      for (std::size_t i = 0; i < traces.size(); ++i) {
        store::TraceWriter writer(paths[i]);
        writer.write_all(traces[i]);
        bench.check(writer.close(), "trace write " + paths[i]);
        written[i] = writer.fingerprint();
      }
      return samples;
    });
    double bytes = 0.0;
    double blocks = 0.0;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      bench.check(written[i] == fingerprints[i], "writer fingerprint");
      bytes += static_cast<double>(fs::file_size(paths[i]));
    }
    bench.count(stage, "store.bytes", bytes);

    // Full read through an unconstrained query.
    std::vector<store::TraceQuery::Result> reads(traces.size());
    bench.timed(stage, "store.read", [&] {
      double n = 0.0;
      for (std::size_t i = 0; i < traces.size(); ++i) {
        reads[i] = store::query(paths[i]).run();
        n += static_cast<double>(reads[i].samples.size());
      }
      return n;
    });
    for (std::size_t i = 0; i < traces.size(); ++i) {
      // The digest over the decoded samples, not the footer's claim.
      bench.check(reads[i].ok && reads[i].samples.fingerprint() == fingerprints[i],
                  "read-back fingerprint " + paths[i]);
      blocks += static_cast<double>(reads[i].stats.blocks_total);
    }
    reads.clear();
    bench.count(stage, "store.blocks", blocks);

    // Query mix, one query thread; each query checked against the exact
    // filter over the full decode (which equals the source trace, as the
    // read-back fingerprints above show).
    for (const QuerySpec& spec : mix) {
      const store::TraceQuery q = spec.build(paths[spec.file]);
      const std::uint64_t span = bench.tracer.begin("store.query", "store");
      const Usage before = Usage::now();
      const store::TraceQuery::Result r = q.run(1);
      const Usage took = Usage::now() - before;
      bench.tracer.end(span, {{"scanned", static_cast<double>(r.stats.samples_scanned)},
                              {"matched", static_cast<double>(r.stats.samples_matched)},
                              {"blocks_skipped", static_cast<double>(r.stats.blocks_skipped)}});
      bench.add(stage, "store.query", {took, static_cast<double>(r.stats.samples_scanned)});
      latencies_ms.push_back(took.wall_s * 1e3);
      std::size_t at = 0;
      bool equal = r.ok;
      for (const TraceSample& s : traces[spec.file].samples()) {
        if (!equal) break;
        if (!q.matches(s)) continue;
        equal = at < r.samples.size() && same_sample(s, r.samples.samples()[at]);
        ++at;
      }
      bench.check(equal && at == r.samples.size(), "query result vs filtered full decode");
      bench.count(stage, "query.blocks_total", static_cast<double>(r.stats.blocks_total));
      bench.count(stage, "query.blocks_skipped", static_cast<double>(r.stats.blocks_skipped));
      bench.count(stage, "query.scanned", static_cast<double>(r.stats.samples_scanned));
      bench.count(stage, "query.matched", static_cast<double>(r.stats.samples_matched));
    }

    // Stream every trace, one session at a time, into an in-process
    // collector; measured from the first block sent until the collector
    // has finalised every session.
    const fs::path collected = dir / "collected";
    fs::remove_all(collected);
    nmo::net::CollectorConfig cc;
    cc.root = collected.string();
    cc.once = static_cast<std::uint32_t>(traces.size());
    nmo::net::Collector collector(cc);
    std::string error;
    bench.check(collector.start(&error), "collector start: " + error);
    std::vector<nmo::net::StreamStats> sent(traces.size());
    bench.timed(stage, "net.stream", [&] {
      for (std::size_t i = 0; i < traces.size(); ++i) {
        nmo::net::StreamConfig sc;
        sc.port = collector.port();
        sc.heartbeat_interval_ms = 0;
        nmo::net::StreamingTraceSink sink(sc, session_name(i),
                                          store::TraceWriter::Options{}, seed + i);
        const bool connected = sink.connect();
        store::TraceWriter writer((dir / ("local-" + std::to_string(i) + ".nmot")).string());
        sink.attach(writer);
        writer.write_all(traces[i]);
        const bool closed = writer.close();
        const bool finished = sink.finish(writer.samples_written(), writer.fingerprint());
        bench.check(connected && closed && finished && !sink.fallback(),
                    "stream session " + std::to_string(i));
        sent[i] = sink.stats();
      }
      bench.check(collector.wait_done(120'000), "collector finalised every session");
      return samples;
    });
    collector.stop();
    const nmo::net::CollectorStats cs = collector.stats();
    bench.check(cs.sessions_clean == traces.size() && cs.sessions_truncated == 0 &&
                    cs.sessions_failed == 0 && cs.protocol_errors == 0,
                "collector sessions clean");
    double wire = 0.0;
    double frames = 0.0;
    double dropped = 0.0;
    for (const auto& s : sent) {
      wire += static_cast<double>(s.bytes_sent);
      frames += static_cast<double>(s.frames_sent);
      dropped += static_cast<double>(s.blocks_dropped);
    }
    bench.check(dropped == 0.0, "stream dropped blocks");
    bench.count(stage, "net.wire_bytes", wire);
    bench.count(stage, "net.frames", frames);
    bench.count(stage, "net.blocks_dropped", dropped);
    bench.count(stage, "net.collector_bytes", static_cast<double>(cs.bytes));
    std::size_t mirrored = 0;
    for (const auto& entry : fs::directory_iterator(collected)) {
      if (!entry.is_directory()) continue;
      const std::string name = entry.path().filename().string();
      for (std::size_t i = 0; i < traces.size(); ++i) {
        if (!name.ends_with(session_name(i))) continue;
        const auto info = store::TraceReader::probe((entry.path() / "trace.nmot").string());
        bench.check(info && info->fingerprint == fingerprints[i],
                    "collector-mirrored fingerprint " + std::to_string(i));
        ++mirrored;
      }
    }
    bench.check(mirrored == traces.size(), "every session mirrored by the collector");
    fs::remove_all(collected);

    // Block codec on raw payloads.
    std::vector<std::vector<std::byte>> packed(payloads.size());
    double raw_bytes = 0.0;
    double packed_bytes = 0.0;
    for (const auto& p : payloads) raw_bytes += static_cast<double>(p.size());
    bench.timed(stage, "store.codec_compress", [&] {
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        packed[i] = store::lz_compress(payloads[i].data(), payloads[i].size());
      }
      return raw_bytes;
    });
    std::vector<std::vector<std::byte>> unpacked(payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      unpacked[i].resize(payloads[i].size());
      packed_bytes += static_cast<double>(packed[i].size());
    }
    bool roundtrip = true;
    bench.timed(stage, "store.codec_decompress", [&] {
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        roundtrip = store::lz_decompress(packed[i].data(), packed[i].size(),
                                         unpacked[i].data(), unpacked[i].size()) &&
                    roundtrip;
      }
      return raw_bytes;
    });
    roundtrip = roundtrip && unpacked == payloads;
    bench.check(roundtrip, "codec round trip");
    bench.count(stage, "codec.packed_bytes", packed_bytes);
    bench.end_round(stage);
  }
  fs::remove_all(dir);

  const std::string& st = stage;
  bench.metric("trace_bytes_per_sample", bench.counted(st, "store.bytes") / samples, "B");
  bench.metric("write_msamples_per_s", bench.med_rate(st, "store.write") / 1e6, "Msamples/s");
  bench.metric("read_msamples_per_s", bench.med_rate(st, "store.read") / 1e6, "Msamples/s");
  bench.metric("query_p50_ms", percentile(latencies_ms, 0.50), "ms");
  bench.metric("query_p95_ms", percentile(latencies_ms, 0.95), "ms");
  bench.metric("stream_msamples_per_s", bench.med_rate(st, "net.stream") / 1e6, "Msamples/s");

  bench.metric("store.write_s", bench.med_wall(st, "store.write"), "s");
  bench.metric("store.read_s", bench.med_wall(st, "store.read"), "s");
  bench.metric("store.blocks", bench.counted(st, "store.blocks"), "count");
  bench.metric("store.samples", samples, "count");
  bench.metric("store.codec_compress_mb_per_s",
               bench.med_rate(st, "store.codec_compress") / 1e6, "MB/s");
  bench.metric("store.codec_decompress_mb_per_s",
               bench.med_rate(st, "store.codec_decompress") / 1e6, "MB/s");
  const double packed = bench.counted(st, "codec.packed_bytes");
  bench.metric("store.compress_ratio",
               packed > 0 ? bench.work(st, "store.codec_compress") / packed : 0.0, "x");
  bench.metric("store.query_count", static_cast<double>(latencies_ms.size()), "count");
  bench.metric("store.query_total_s", bench.med_wall(st, "store.query"), "s");
  const double total_blocks = bench.counted(st, "query.blocks_total");
  bench.metric("store.query_blocks_skipped_pct",
               total_blocks > 0 ? 100.0 * bench.counted(st, "query.blocks_skipped") / total_blocks
                                : 0.0,
               "%");
  const double matched = bench.counted(st, "query.matched");
  bench.metric("store.query_scanned_per_matched",
               matched > 0 ? bench.counted(st, "query.scanned") / matched : 0.0, "x");
  bench.metric("net.stream_s", bench.med_wall(st, "net.stream"), "s");
  bench.metric("net.wire_bytes_per_sample", bench.counted(st, "net.wire_bytes") / samples, "B");
  bench.metric("net.frames", bench.counted(st, "net.frames"), "count");
  bench.metric("net.blocks_dropped", bench.counted(st, "net.blocks_dropped"), "count");
  bench.metric("net.collector_bytes", bench.counted(st, "net.collector_bytes"), "B");
  bench.section_metrics(st);
}

}  // namespace perfbench

namespace perfbench {
namespace {

struct SourceCapture {
  SampleTrace trace;
  double ops = 0.0;  ///< Simulated memory ops, baseline plus instrumented.
  double selections = 0.0;
  double accuracy = 0.0;
  double overhead = 0.0;
};

/// Profiles `workload` and keeps its trace; timed as core.profile.
SourceCapture capture(Bench& bench, nmo::wl::Workload& workload,
                      const nmo::core::NmoConfig& config,
                      const nmo::sim::EngineConfig& engine) {
  SourceCapture c;
  nmo::core::ProfileSession session(config, engine);
  nmo::core::SessionReport report;
  bench.timed("setup", "core.profile", [&] {
    report = session.profile(workload, /*with_baseline=*/true);
    return static_cast<double>(report.mem_ops * 2);
  });
  c.trace = session.profiler().trace();
  c.ops = static_cast<double>(report.mem_ops * 2);
  c.selections = static_cast<double>(report.selections);
  c.accuracy = report.accuracy();
  c.overhead = report.time_overhead();
  return c;
}

}  // namespace

void run_archive(Bench& bench, const RunOptions& options) {
  nmo::sim::EngineConfig engine;
  engine.threads = 8;
  engine.machine.hierarchy.cores = 8;
  engine.machine.cost.monitor_round_interval_cycles = 1'000'000;
  engine.seed = options.seed;
  nmo::core::NmoConfig config;
  config.enable = true;
  config.mode = nmo::core::Mode::kAll;
  config.period = 256;
  config.auxbufsize_bytes = 256 * 1024;

  std::vector<SampleTrace> files;
  std::string stream_fp;
  std::string pagerank_fp;
  SourceCapture sequential;
  SourceCapture irregular;
  for (int i = 0; i < 4; ++i) {
    bench.begin_round("setup");
    bench.timed("setup", "setup.inputs", [&] {
      // The quickstart-shaped STREAM capture: sequential addresses.
      nmo::wl::StreamConfig scfg;
      scfg.array_elems = 1 << 18;
      scfg.iterations = 3;
      nmo::wl::Stream stream(scfg);
      sequential = capture(bench, stream, config, engine);
      const double expect = nmo::wl::Stream::expected_a(scfg.iterations, scfg.scalar);
      bench.check(std::all_of(stream.a().begin(), stream.a().end(),
                              [&](double a) { return a == expect; }),
                  "STREAM expected_a");
      // A short-period PageRank capture: irregular addresses.
      nmo::wl::PageRankConfig pcfg;
      pcfg.nodes_log2 = 15;
      pcfg.edges_per_node = 8;
      pcfg.iterations = 2;
      pcfg.seed = options.seed;
      nmo::wl::PageRank pagerank(pcfg);
      irregular = capture(bench, pagerank, config, engine);
      bench.check(std::abs(pagerank.rank_sum() - 1.0) < 1e-6, "PageRank rank sum");

      const std::string sfp = sequential.trace.fingerprint();
      const std::string pfp = irregular.trace.fingerprint();
      bench.check(stream_fp.empty() || (sfp == stream_fp && pfp == pagerank_fp),
                  "source capture fingerprints differ between set-ups");
      stream_fp = sfp;
      pagerank_fp = pfp;
      files = replicate({&sequential.trace, &irregular.trace}, 4u << 20, 8, options.seed);
      double n = 0.0;
      for (const auto& f : files) n += static_cast<double>(f.size());
      return n;
    });
    bench.end_round("setup");
  }

  bench.metric("setup_s", bench.med_wall("setup", "setup.inputs"), "s");
  const double ops = sequential.ops + irregular.ops;
  bench.metric("capture_mops_per_s", bench.med_of("setup", [&](const auto& r) {
    return ops / r.at("core.profile").usage.wall_s / 1e6;
  }), "Mops/s");
  const double selections = sequential.selections + irregular.selections;
  bench.metric("sweep_msel_per_s", bench.med_of("setup", [&](const auto& r) {
    return selections / r.at("core.profile").usage.wall_s / 1e6;
  }), "Msel/s");
  bench.metric("spe_accuracy_pct", 50.0 * (sequential.accuracy + irregular.accuracy), "%");
  bench.metric("spe_overhead_pct", 50.0 * (sequential.overhead + irregular.overhead), "%");
  bench.section_metrics("setup");

  ArchivePlan plan;
  plan.seconds = options.seconds;
  plan.queries_per_round = 100;
  plan.min_rounds = 3;
  run_archive_stage(bench, "archive", files, options.seed, options.workdir, plan);
  bench.metric("cpu_s", bench.med("archive", "archive.round", [](const SectionSample& s) {
    return s.usage.cpu_s();
  }), "s");
}

}  // namespace perfbench
