// nmo-trace: merge/query CLI over binary sample trace files.
//
// The user-facing entry point of the trace store (src/store/): where the
// paper's post-processing scripts consume one CSV per run, a multi-session
// deployment leaves behind one .nmot file per session and this tool folds,
// inspects, queries and diffs them:
//
//   nmo-trace info FILE...                 header/footer + per-level stats
//   nmo-trace merge -o OUT FILE...         streaming k-way canonical merge
//                                          (unions region sidecars, remaps indices)
//   nmo-trace export-csv FILE [-o OUT]     CSV byte-identical to write_csv
//   nmo-trace compress FILE -o OUT         rewrite into format v2 (self-contained
//                                          blocks + codec + index); --raw disables
//                                          the codec, --v1 pins the legacy format
//   nmo-trace verify FILE...               full decode + footer MD5 + (v2) block
//                                          index/metadata cross-check + probe agreement
//   nmo-trace top FILE [--by region|level|core|latency] [-n N]
//                                          (region rows labeled by name when the
//                                          trace's .nmor sidecar is present)
//   nmo-trace sessions ROOT                per-session lifecycle + scheduler stats
//                                          from the store's metadata files
//   nmo-trace query FILE [predicates]      predicate-pushdown sample query
//                                          (store/trace_query.hpp); --csv/--json output
//   nmo-trace diff A B                     statistical drift verdict between two
//                                          traces or session roots (exit 3 = drift)
//
// Every subcommand sits on the shared declarative parser (tools/cli.hpp):
// typed flags, arity checks and per-subcommand --help come from the
// command table, not hand-rolled argv walks.
//
// Exit codes: 0 success, 1 operation failed, 2 usage error, 3 drift
// detected (diff only).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "analysis/trace_diff.hpp"
#include "cli.hpp"
#include "common/json.hpp"
#include "core/trace.hpp"
#include "store/region_file.hpp"
#include "store/session_store.hpp"
#include "store/trace_file.hpp"
#include "store/trace_merger.hpp"
#include "store/trace_query.hpp"

namespace {

using nmo::cli::Args;
using nmo::cli::Command;
using nmo::cli::Flag;
using nmo::core::TraceSample;
using nmo::store::TraceMerger;
using nmo::store::TraceReader;

constexpr const char* kTool = "nmo-trace";

int cmd_info(const Command&, const Args& args) {
  bool all_ok = true;
  for (const auto& path : args.positionals()) {
    TraceReader reader(path);
    std::uint64_t samples = 0;
    std::uint64_t per_level[nmo::kNumMemLevels] = {};
    std::uint64_t latency_sum = 0;
    std::uint64_t t_min = ~std::uint64_t{0}, t_max = 0;
    std::map<nmo::CoreId, std::uint64_t> per_core;
    TraceSample s;
    while (reader.next(s)) {
      ++samples;
      ++per_level[static_cast<std::size_t>(s.level)];
      ++per_core[s.core];
      latency_sum += s.latency;
      t_min = std::min(t_min, s.time_ns);
      t_max = std::max(t_max, s.time_ns);
    }
    if (!reader.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), reader.error().c_str());
      all_ok = false;
      continue;
    }
    const auto& info = reader.info();
    std::printf("%s\n", path.c_str());
    std::printf("  version    : %u\n", info.version);
    std::printf("  samples    : %" PRIu64 "\n", info.samples);
    std::printf("  fingerprint: %s\n", info.fingerprint.c_str());
    std::printf("  cores      : %zu\n", per_core.size());
    if (samples > 0) {
      std::printf("  time range : %" PRIu64 " .. %" PRIu64 " ns\n", t_min, t_max);
      std::printf("  avg latency: %.1f cycles\n",
                  static_cast<double>(latency_sum) / static_cast<double>(samples));
      std::printf("  levels     :");
      for (std::size_t l = 0; l < nmo::kNumMemLevels; ++l) {
        std::printf(" %s=%" PRIu64, std::string(to_string(static_cast<nmo::MemLevel>(l))).c_str(),
                    per_level[l]);
      }
      std::printf("\n");
    }
  }
  return all_ok ? 0 : 1;
}

int cmd_merge(const Command& command, const Args& args) {
  const std::string out_path = args.str("output");
  if (out_path.empty()) return command.usage_error(kTool, "-o OUT is required");

  TraceMerger merger;
  for (const auto& in : args.positionals()) merger.add_input(in);
  const auto stats = merger.merge_to(out_path);
  if (!stats) {
    std::fprintf(stderr, "merge failed: %s\n", merger.error().c_str());
    return 1;
  }
  std::printf("merged %zu file%s -> %s\n", stats->inputs, stats->inputs == 1 ? "" : "s",
              out_path.c_str());
  std::printf("samples    : %" PRIu64 "\n", stats->samples);
  std::printf("fingerprint: %s\n", stats->fingerprint.c_str());
  if (stats->regions > 0) {
    std::printf("regions    : %zu (union table -> %s)\n", stats->regions,
                nmo::store::region_path_for(out_path).c_str());
  }
  return 0;
}

int cmd_export_csv(const Command&, const Args& args) {
  const std::string& in_path = args.positionals()[0];
  const std::string out_path = args.str("output");

  // Opening the output truncates it; refuse when it aliases the input
  // (same guard class as TraceMerger's output-is-input check).
  if (!out_path.empty()) {
    std::error_code ec;
    if (out_path == in_path || (std::filesystem::equivalent(in_path, out_path, ec) && !ec)) {
      std::fprintf(stderr, "%s: output path is also the input trace\n", out_path.c_str());
      return 2;
    }
  }

  // Validate the input before creating the output, so a bad input path
  // never leaves a header-only CSV behind.
  TraceReader reader(in_path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s: %s\n", in_path.c_str(), reader.error().c_str());
    return 1;
  }

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
  }
  std::ostream& out = out_path.empty() ? std::cout : file;

  // On any failure a partial CSV must not be left behind looking like a
  // complete export (the analogue of TraceMerger's cleanup).
  const auto fail = [&](const std::string& message) {
    std::fprintf(stderr, "%s\n", message.c_str());
    if (!out_path.empty()) {
      file.close();
      std::remove(out_path.c_str());
    }
    return 1;
  };

  out << nmo::core::kTraceCsvHeader;
  TraceSample s;
  while (reader.next(s)) nmo::core::write_csv_row(out, s);
  if (!reader.ok()) return fail(in_path + ": " + reader.error());
  out.flush();
  if (!out) return fail(out_path.empty() ? "write to stdout failed"
                                         : out_path + ": write failed");
  return 0;
}

int cmd_compress(const Command& command, const Args& args) {
  const std::string& in_path = args.positionals()[0];
  const std::string out_path = args.str("output");
  if (out_path.empty()) return command.usage_error(kTool, "-o OUT is required");
  nmo::store::TraceWriter::Options options;
  if (args.has("raw")) options.compress = false;
  if (args.has("v1")) options.version = nmo::store::kTraceVersion1;

  // Writing the output truncates it; aliasing the input would destroy the
  // trace being rewritten (same guard class as the merger's).
  std::error_code ec;
  if (out_path == in_path ||
      (std::filesystem::equivalent(in_path, out_path, ec) && !ec)) {
    std::fprintf(stderr, "%s: output path is also the input trace\n", out_path.c_str());
    return 2;
  }

  TraceReader reader(in_path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s: %s\n", in_path.c_str(), reader.error().c_str());
    return 1;
  }
  nmo::store::TraceWriter writer(out_path, options);
  if (!writer.ok()) {
    std::fprintf(stderr, "%s\n", writer.error().c_str());
    return 1;
  }
  TraceSample s;
  while (reader.next(s)) writer.add(s);
  const auto fail = [&](const std::string& message) {
    std::fprintf(stderr, "%s\n", message.c_str());
    writer.abandon();
    std::remove(out_path.c_str());
    return 1;
  };
  if (!reader.ok()) return fail(in_path + ": " + reader.error());
  if (!writer.close()) return fail(out_path + ": " + writer.error());
  // The rewrite is lossless by construction; the fingerprint (a digest over
  // decoded samples, not file bytes) proves it end to end.
  if (writer.fingerprint() != reader.info().fingerprint) {
    std::remove(out_path.c_str());
    return fail("rewrite fingerprint mismatch: " + writer.fingerprint() + " vs " +
                reader.info().fingerprint);
  }

  // The region sidecar labels the same sample indices either way; a rewrite
  // that silently dropped it would strip names from `top --by region`.
  const std::string in_sidecar = nmo::store::region_path_for(in_path);
  if (std::filesystem::exists(in_sidecar, ec) && !ec) {
    std::error_code copy_ec;
    std::filesystem::copy_file(in_sidecar, nmo::store::region_path_for(out_path),
                               std::filesystem::copy_options::overwrite_existing, copy_ec);
    if (copy_ec) {
      std::remove(out_path.c_str());
      return fail(in_sidecar + ": cannot copy region sidecar: " + copy_ec.message());
    }
  }

  const auto in_size = std::filesystem::file_size(in_path, ec);
  const auto out_size = std::filesystem::file_size(out_path, ec);
  const auto samples = writer.samples_written();
  std::printf("%s (v%u, %ju B) -> %s (v%u, %ju B)\n", in_path.c_str(), reader.info().version,
              static_cast<uintmax_t>(in_size), out_path.c_str(), options.version,
              static_cast<uintmax_t>(out_size));
  std::printf("samples    : %" PRIu64 "\n", samples);
  std::printf("fingerprint: %s (unchanged)\n", writer.fingerprint().c_str());
  if (samples > 0) {
    std::printf("bytes/sample: %.2f -> %.2f (%.0f%% of input)\n",
                static_cast<double>(in_size) / static_cast<double>(samples),
                static_cast<double>(out_size) / static_cast<double>(samples),
                100.0 * static_cast<double>(out_size) / static_cast<double>(in_size));
  }
  return 0;
}

int cmd_verify(const Command&, const Args& args) {
  bool all_ok = true;
  for (const auto& path : args.positionals()) {
    const auto fail = [&](const std::string& message) {
      std::fprintf(stderr, "%s: FAIL: %s\n", path.c_str(), message.c_str());
      all_ok = false;
    };
    // Full decode: validates every block, every sample field, the footer
    // count + MD5, (v2) that the block index describes exactly the blocks
    // on disk, and (when present) that the per-block metadata summaries
    // agree with the decoded samples.
    TraceReader reader(path);
    TraceSample s;
    std::uint64_t samples = 0;
    while (reader.next(s)) ++samples;
    if (!reader.ok()) {
      fail(reader.error());
      continue;
    }
    // The O(1)-ish structural probe must agree with the full decode - the
    // two share the corrupt-file test suite, so a divergence here is a bug.
    const auto probed = TraceReader::probe(path);
    if (!probed) {
      fail("full decode passed but probe rejected the file");
      continue;
    }
    if (probed->fingerprint != reader.info().fingerprint || probed->samples != samples) {
      fail("probe and full decode disagree on count/fingerprint");
      continue;
    }
    std::printf("%s: ok\n", path.c_str());
    std::printf("  version    : %u\n", reader.info().version);
    if (reader.info().version >= nmo::store::kTraceVersion2) {
      std::printf("  blocks     : %zu (index verified)\n", reader.block_index().size());
      std::printf("  metadata   : %s\n", reader.has_block_meta()
                                             ? "present (cross-checked against samples)"
                                             : "absent (pre-metadata v2 file)");
    }
    std::printf("  samples    : %" PRIu64 "\n", samples);
    std::printf("  fingerprint: %s\n", reader.info().fingerprint.c_str());
  }
  return all_ok ? 0 : 1;
}

int cmd_top(const Command& command, const Args& args) {
  const std::string& in_path = args.positionals()[0];
  const std::string by = args.str("by", "region");
  const auto top_n = static_cast<std::size_t>(args.uint("n", 10));
  if (top_n == 0) return command.usage_error(kTool, "-n must be positive");
  if (by != "region" && by != "level" && by != "core" && by != "latency") {
    return command.usage_error(kTool, "--by must be region, level, core or latency");
  }

  // The region sidecar (written by the session runner and by merge) turns
  // bare region indices into names; without it rows keep the index.
  std::vector<nmo::core::AddrRegion> region_names;
  if (by == "region") {
    if (const auto table = nmo::store::read_region_file(nmo::store::region_path_for(in_path))) {
      region_names = *table;
    }
  }

  TraceReader reader(in_path);
  TraceSample s;

  if (by == "latency") {
    // The N highest-latency samples (a bounded min-heap over the stream).
    const auto latency_gt = [](const TraceSample& a, const TraceSample& b) {
      return a.latency > b.latency;
    };
    std::vector<TraceSample> worst;
    while (reader.next(s)) {
      worst.push_back(s);
      std::push_heap(worst.begin(), worst.end(), latency_gt);
      if (worst.size() > top_n) {
        std::pop_heap(worst.begin(), worst.end(), latency_gt);
        worst.pop_back();
      }
    }
    if (!reader.ok()) {
      std::fprintf(stderr, "%s: %s\n", in_path.c_str(), reader.error().c_str());
      return 1;
    }
    std::sort(worst.begin(), worst.end(), latency_gt);
    std::printf("%-12s %-18s %-6s %-6s %-6s %s\n", "latency", "vaddr", "level", "core", "region",
                "time_ns");
    for (const auto& w : worst) {
      std::printf("%-12u 0x%-16" PRIx64 " %-6s %-6u %-6d %" PRIu64 "\n", w.latency, w.vaddr,
                  std::string(to_string(w.level)).c_str(), w.core, w.region, w.time_ns);
    }
    return 0;
  }

  struct Group {
    std::uint64_t count = 0;
    std::uint64_t latency_sum = 0;
    std::uint16_t latency_max = 0;
  };
  std::map<std::int64_t, Group> groups;
  std::uint64_t total = 0;
  while (reader.next(s)) {
    std::int64_t key = 0;
    if (by == "region") {
      key = s.region;
    } else if (by == "level") {
      key = static_cast<std::int64_t>(s.level);
    } else {
      key = static_cast<std::int64_t>(s.core);
    }
    auto& g = groups[key];
    ++g.count;
    g.latency_sum += s.latency;
    g.latency_max = std::max(g.latency_max, s.latency);
    ++total;
  }
  if (!reader.ok()) {
    std::fprintf(stderr, "%s: %s\n", in_path.c_str(), reader.error().c_str());
    return 1;
  }

  std::vector<std::pair<std::int64_t, Group>> rows(groups.begin(), groups.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.count > b.second.count; });
  if (rows.size() > top_n) rows.resize(top_n);

  std::printf("%-14s %-12s %-8s %-12s %s\n", by.c_str(), "samples", "share", "avg_lat",
              "max_lat");
  for (const auto& [key, g] : rows) {
    char label[64];
    if (by == "level") {
      std::snprintf(label, sizeof(label), "%s",
                    std::string(to_string(static_cast<nmo::MemLevel>(key))).c_str());
    } else if (by == "region" && key < 0) {
      std::snprintf(label, sizeof(label), "untagged");
    } else if (by == "region" && key >= 0 &&
               static_cast<std::size_t>(key) < region_names.size()) {
      std::snprintf(label, sizeof(label), "%s",
                    region_names[static_cast<std::size_t>(key)].name.c_str());
    } else {
      std::snprintf(label, sizeof(label), "%" PRId64, key);
    }
    std::printf("%-14s %-12" PRIu64 " %-8.2f %-12.1f %u\n", label, g.count,
                total > 0 ? 100.0 * static_cast<double>(g.count) / static_cast<double>(total)
                          : 0.0,
                g.count > 0 ? static_cast<double>(g.latency_sum) / static_cast<double>(g.count)
                            : 0.0,
                g.latency_max);
  }
  return 0;
}

/// Emits a metadata value with its natural JSON type: digits-only strings
/// (every counter session.meta/scheduler.meta records) as numbers,
/// anything else (names, states, fingerprints, errors) as strings.
void json_meta_value(nmo::JsonWriter& json, const std::string& value) {
  if (!value.empty() && value.size() <= 19 &&
      value.find_first_not_of("0123456789") == std::string::npos) {
    json.value(static_cast<std::uint64_t>(std::strtoull(value.c_str(), nullptr, 10)));
  } else {
    json.value(value);
  }
}

/// A row count read from an untrusted .meta file ("tenants=",
/// "topology.nodes="), capped at the file's key count: every real row owns
/// at least one key, so a larger value is garbage and must not drive a loop.
/// A missing or non-numeric value counts as 0.
std::uint64_t meta_row_count(const std::map<std::string, std::string>& meta,
                             const std::string& key) {
  const auto it = meta.find(key);
  if (it == meta.end()) return 0;
  return std::min<std::uint64_t>(std::strtoull(it->second.c_str(), nullptr, 10), meta.size());
}

/// Collects session directories under a store root, including the
/// per-socket `node-<k>/` roots a topology-aware store writes into.
std::vector<std::filesystem::path> list_session_dirs(const std::string& root) {
  std::vector<std::filesystem::path> dirs;
  std::error_code ec;
  const auto scan = [&dirs](const std::filesystem::path& parent) {
    std::error_code scan_ec;
    for (const auto& entry : std::filesystem::directory_iterator(parent, scan_ec)) {
      if (entry.is_directory() &&
          entry.path().filename().string().rfind("session-", 0) == 0) {
        dirs.push_back(entry.path());
      }
    }
  };
  scan(root);
  for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("node-", 0) == 0) {
      scan(entry.path());
    }
  }
  std::sort(dirs.begin(), dirs.end(),
            [](const auto& a, const auto& b) {
              return a.filename().string() < b.filename().string();
            });
  return dirs;
}

int cmd_sessions(const Command&, const Args& args) {
  const std::string& root = args.positionals()[0];
  std::error_code ec;
  if (!std::filesystem::is_directory(root, ec)) {
    std::fprintf(stderr, "%s: not a session store directory\n", root.c_str());
    return 1;
  }

  if (args.has("json")) {
    // Machine-readable view: every key of every metadata file, verbatim
    // (numbers as numbers), so scripts never re-parse the human table.
    nmo::JsonWriter json;
    json.begin_object();
    json.key("store").value(root);
    for (const char* which : {"scheduler", "collector"}) {
      const std::string file = std::string(which) + ".meta";
      if (const auto meta = nmo::store::read_metadata_file(root + "/" + file)) {
        json.key(which).begin_object();
        for (const auto& [key, value] : *meta) {
          // Per-tenant and per-node rows are re-emitted below as
          // structured arrays; keeping them out of the flat object spares
          // scripts the "tenant.<i>.<key>" / "node.<k>.admitted" surgery.
          if (key.rfind("tenant.", 0) == 0) continue;
          if (key.rfind("node.", 0) == 0) continue;
          json.key(key);
          json_meta_value(json, value);
        }
        json.end_object();
        const auto node_count = meta_row_count(*meta, "topology.nodes");
        if (node_count > 1) {
          json.key(std::string(which) + "_nodes").begin_array();
          for (std::uint64_t k = 0; k < node_count; ++k) {
            const std::string key = "node." + std::to_string(k) + ".admitted";
            json.begin_object();
            json.key("node").value(k);
            json.key("admitted");
            const auto it = meta->find(key);
            json_meta_value(json, it != meta->end() ? it->second : "0");
            json.end_object();
          }
          json.end_array();
        }
        const auto tenant_count = meta_row_count(*meta, "tenants");
        if (tenant_count == 0) continue;
        json.key(std::string(which) + "_tenants").begin_array();
        for (std::uint64_t i = 0; i < tenant_count; ++i) {
          const std::string prefix = "tenant." + std::to_string(i) + ".";
          json.begin_object();
          for (auto it = meta->lower_bound(prefix);
               it != meta->end() && it->first.rfind(prefix, 0) == 0; ++it) {
            json.key(it->first.substr(prefix.size()));
            json_meta_value(json, it->second);
          }
          json.end_object();
        }
        json.end_array();
      }
    }
    const auto dirs = list_session_dirs(root);
    bool all_ok = true;
    json.key("sessions").begin_array();
    for (const auto& dir : dirs) {
      const auto meta = nmo::store::read_metadata_file(
          (dir / std::string(nmo::store::kSessionMetaFile)).string());
      json.begin_object();
      json.key("dir").value(dir.lexically_relative(root).string());
      if (meta) {
        for (const auto& [key, value] : *meta) {
          json.key(key);
          json_meta_value(json, value);
        }
        const auto it = meta->find("error");
        if (it != meta->end() && !it->second.empty()) all_ok = false;
      }
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::printf("%s\n", json.str().c_str());
    return all_ok ? 0 : 1;
  }

  std::printf("store: %s\n", root.c_str());

  // The pool's aggregate ledger, written by run_sessions.
  const auto sched = nmo::store::read_metadata_file(
      root + "/" + std::string(nmo::store::kSchedulerMetaFile));
  if (sched) {
    const auto field = [&](const char* key) -> std::string {
      const auto it = sched->find(key);
      return it != sched->end() ? it->second : "?";
    };
    std::printf("scheduler: workers=%s queue_depth=%s policy=%s\n",
                field("workers").c_str(), field("queue_depth").c_str(),
                field("policy").c_str());
    std::printf("  submitted=%s admitted=%s rejected=%s shed=%s expired=%s requeued=%s "
                "completed=%s failed=%s\n",
                field("submitted").c_str(), field("admitted").c_str(),
                field("rejected").c_str(), field("shed").c_str(), field("expired").c_str(),
                field("requeued").c_str(), field("completed").c_str(),
                field("failed").c_str());
    std::printf("  peak_queue_depth=%s peak_occupancy=%s queue_wait_ns_total=%s "
                "queue_wait_ns_max=%s\n",
                field("peak_queue_depth").c_str(), field("peak_occupancy").c_str(),
                field("queue_wait_ns_total").c_str(), field("queue_wait_ns_max").c_str());
    // Topology placement ledger: only stores written by a multi-node
    // scheduler carry these keys, so a flat store prints nothing extra.
    const auto node_count = meta_row_count(*sched, "topology.nodes");
    if (node_count > 1) {
      std::printf("  placement: nodes=%s local=%s misses=%s", field("topology.nodes").c_str(),
                  field("placement_local").c_str(), field("placement_misses").c_str());
      for (std::uint64_t k = 0; k < node_count; ++k) {
        const std::string key = "node." + std::to_string(k) + ".admitted";
        std::printf(" node%" PRIu64 "=%s", k, field(key.c_str()).c_str());
      }
      std::printf("\n");
    }
    // The per-tenant fairness ledger: who submitted, who got a worker, who
    // was shed or expired, and how long each tenant's jobs waited - the
    // "who got starved and why" view of the weighted-fair scheduler.
    const auto tenant_count = meta_row_count(*sched, "tenants");
    if (tenant_count > 0) {
      std::printf("\n%-16s %-7s %-10s %-9s %-6s %-8s %-12s %-12s\n", "tenant", "weight",
                  "submitted", "admitted", "shed", "expired", "p50_wait_ms", "p99_wait_ms");
      for (std::uint64_t i = 0; i < tenant_count; ++i) {
        const std::string prefix = "tenant." + std::to_string(i) + ".";
        const auto tfield = [&](const char* key) -> std::string {
          const auto it = sched->find(prefix + key);
          return it != sched->end() ? it->second : "?";
        };
        const auto wait_ms = [&](const char* key) {
          return std::strtod(tfield(key).c_str(), nullptr) / 1e6;
        };
        std::printf("%-16s %-7s %-10s %-9s %-6s %-8s %-12.3f %-12.3f\n",
                    tfield("name").c_str(), tfield("weight").c_str(),
                    tfield("submitted").c_str(), tfield("admitted").c_str(),
                    tfield("shed").c_str(), tfield("expired").c_str(),
                    wait_ms("queue_wait_p50_ns"), wait_ms("queue_wait_p99_ns"));
      }
    }
  } else {
    std::printf("scheduler: no %s (store predates the scheduler or used the "
                "thread-per-session runner)\n",
                std::string(nmo::store::kSchedulerMetaFile).c_str());
  }

  const auto dirs = list_session_dirs(root);

  std::printf("\n%-6s %-16s %-9s %-7s %-5s %-12s %-10s %s\n", "id", "name", "state",
              "worker", "node", "wait_ms", "samples", "fingerprint");
  bool all_ok = true;
  for (const auto& dir : dirs) {
    const auto meta = nmo::store::read_metadata_file(
        (dir / std::string(nmo::store::kSessionMetaFile)).string());
    if (!meta) {
      // A store written before session.meta existed is still a valid
      // store (same stance as the missing-scheduler.meta note above);
      // only sessions that *recorded* an error flip the exit code.
      std::printf("%-6s %-16s %s\n", "?", dir.filename().string().c_str(),
                  "(no session.meta - pre-scheduler store or job never ran)");
      continue;
    }
    const auto field = [&](const char* key) -> std::string {
      const auto it = meta->find(key);
      return it != meta->end() ? it->second : "?";
    };
    double wait_ms = 0.0;
    try {
      wait_ms = std::stod(field("queue_wait_ns")) / 1e6;
    } catch (...) {
    }
    std::printf("%-6s %-16s %-9s %-7s %-5s %-12.3f %-10s %s\n", field("id").c_str(),
                field("name").c_str(), field("state").c_str(), field("worker").c_str(),
                field("node").c_str(), wait_ms, field("samples").c_str(),
                field("fingerprint").c_str());
    const std::string error = field("error");
    if (!error.empty() && error != "?") {
      std::printf("       error: %s\n", error.c_str());
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}

/// Maps a level name (L1/L2/SLC/DRAM, case-insensitive) to the enum.
bool parse_level(const std::string& text, nmo::MemLevel& out) {
  for (std::size_t l = 0; l < nmo::kNumMemLevels; ++l) {
    const auto level = static_cast<nmo::MemLevel>(l);
    const std::string name(to_string(level));
    if (text.size() == name.size() &&
        std::equal(text.begin(), text.end(), name.begin(), [](char a, char b) {
          return std::toupper(static_cast<unsigned char>(a)) ==
                 std::toupper(static_cast<unsigned char>(b));
        })) {
      out = level;
      return true;
    }
  }
  return false;
}

int cmd_query(const Command& command, const Args& args) {
  const std::string& path = args.positionals()[0];
  if (args.has("csv") && args.has("json")) {
    return command.usage_error(kTool, "--csv and --json are exclusive");
  }

  auto query = nmo::store::query(path);
  if (args.has("t0") || args.has("t1")) {
    query.time_between(args.uint("t0", 0), args.uint("t1", ~std::uint64_t{0}));
  }
  if (args.has("addr")) {
    const std::string range = args.str("addr");
    const auto colon = range.find(':');
    char* end_lo = nullptr;
    char* end_hi = nullptr;
    if (colon == std::string::npos) {
      return command.usage_error(kTool, "--addr wants LO:HI (hex with 0x or decimal)");
    }
    const std::string lo_text = range.substr(0, colon);
    const std::string hi_text = range.substr(colon + 1);
    const auto lo = std::strtoull(lo_text.c_str(), &end_lo, 0);
    const auto hi = std::strtoull(hi_text.c_str(), &end_hi, 0);
    if (lo_text.empty() || hi_text.empty() || end_lo != lo_text.c_str() + lo_text.size() ||
        end_hi != hi_text.c_str() + hi_text.size()) {
      return command.usage_error(kTool, "--addr wants LO:HI (hex with 0x or decimal)");
    }
    query.address_in(lo, hi);
  }
  for (const auto& text : args.all("region")) {
    // The reader's bound: int32 region ids, -1 = untagged.  strtoll
    // saturates out-of-range text, which the check rejects as well.
    const long long region = std::strtoll(text.c_str(), nullptr, 10);
    if (region < -1 || region > std::numeric_limits<std::int32_t>::max()) {
      return command.usage_error(kTool, "--region must be in [-1, 2147483647]");
    }
    query.region(static_cast<std::int32_t>(region));
  }
  for (const auto& text : args.all("level")) {
    nmo::MemLevel level{};
    if (!parse_level(text, level)) {
      return command.usage_error(kTool, "--level must be L1, L2, SLC or DRAM");
    }
    query.level(level);
  }

  const auto threads = static_cast<unsigned>(args.uint("threads", 1));
  const auto result = query.run(threads == 0 ? 1 : threads);
  if (!result.ok) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), result.error.c_str());
    return 1;
  }

  if (args.has("json")) {
    nmo::JsonWriter json;
    json.begin_object();
    json.key("file").value(path);
    json.key("version").value(static_cast<std::uint64_t>(result.info.version));
    json.key("pushdown").value(result.stats.pushdown);
    json.key("blocks_total").value(result.stats.blocks_total);
    json.key("blocks_scanned").value(result.stats.blocks_scanned);
    json.key("blocks_skipped").value(result.stats.blocks_skipped);
    json.key("samples_scanned").value(result.stats.samples_scanned);
    json.key("samples_matched").value(result.stats.samples_matched);
    json.end_object();
    std::printf("%s\n", json.str().c_str());
    return 0;
  }
  if (args.has("csv")) {
    std::cout << nmo::core::kTraceCsvHeader;
    for (const auto& s : result.samples.samples()) nmo::core::write_csv_row(std::cout, s);
    std::cout.flush();
    return std::cout ? 0 : 1;
  }

  std::printf("%s (v%u)\n", path.c_str(), result.info.version);
  std::printf("  pushdown   : %s\n", result.stats.pushdown ? "yes (index metadata)"
                                                           : "no (full scan)");
  std::printf("  blocks     : %" PRIu64 " total, %" PRIu64 " scanned, %" PRIu64 " skipped\n",
              result.stats.blocks_total, result.stats.blocks_scanned,
              result.stats.blocks_skipped);
  std::printf("  samples    : %" PRIu64 " scanned, %" PRIu64 " matched\n",
              result.stats.samples_scanned, result.stats.samples_matched);
  return 0;
}

int cmd_diff(const Command&, const Args& args) {
  nmo::analysis::DiffOptions options;
  options.ks_threshold = args.number("ks-threshold", options.ks_threshold);
  options.level_threshold = args.number("level-threshold", options.level_threshold);
  options.phase_threshold = args.number("phase-threshold", options.phase_threshold);
  options.min_samples = args.uint("min-samples", options.min_samples);
  options.phase_bins = static_cast<std::size_t>(args.uint("bins", options.phase_bins));
  if (options.phase_bins == 0) options.phase_bins = 1;

  const std::string& path_a = args.positionals()[0];
  const std::string& path_b = args.positionals()[1];
  std::string error;
  const auto profile_a = nmo::analysis::profile_path(path_a, options, &error);
  if (!profile_a) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const auto profile_b = nmo::analysis::profile_path(path_b, options, &error);
  if (!profile_b) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const auto report = nmo::analysis::diff_profiles(*profile_a, *profile_b, options);

  if (args.has("json")) {
    nmo::JsonWriter json;
    json.begin_object();
    json.key("a").value(path_a);
    json.key("b").value(path_b);
    json.key("samples_a").value(report.samples_a);
    json.key("samples_b").value(report.samples_b);
    json.key("drift").value(report.drift);
    json.key("phase_distance").value(report.phase_distance);
    json.key("phase_drift").value(report.phase_drift);
    json.key("regions").begin_array();
    for (const auto& r : report.regions) {
      json.begin_object();
      json.key("name").value(r.name);
      json.key("samples_a").value(r.samples_a);
      json.key("samples_b").value(r.samples_b);
      json.key("ks_latency").value(r.ks_latency);
      json.key("level_distance").value(r.level_distance);
      json.key("judged").value(r.judged);
      json.key("drift").value(r.drift);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::printf("%s\n", json.str().c_str());
    return report.drift ? 3 : 0;
  }

  std::printf("diff %s (%" PRIu64 " samples) vs %s (%" PRIu64 " samples)\n", path_a.c_str(),
              report.samples_a, path_b.c_str(), report.samples_b);
  std::printf("%-20s %-12s %-12s %-10s %-10s %s\n", "region", "samples_a", "samples_b",
              "ks_lat", "level_tv", "verdict");
  for (const auto& r : report.regions) {
    std::printf("%-20s %-12" PRIu64 " %-12" PRIu64 " %-10.4f %-10.4f %s\n", r.name.c_str(),
                r.samples_a, r.samples_b, r.ks_latency, r.level_distance,
                !r.judged ? "(too few)" : r.drift ? "DRIFT" : "ok");
  }
  std::printf("phases: distance=%.4f -> %s\n", report.phase_distance,
              report.phase_drift ? "DRIFT" : "ok");
  std::printf("verdict: %s\n", report.drift ? "DRIFT" : "no drift");
  return report.drift ? 3 : 0;
}

const std::vector<Command>& command_table() {
  static const std::vector<Command> kCommands = {
      {"info", "FILE...", "validate and summarize trace files", 1, std::size_t(-1), {},
       cmd_info},
      {"merge",
       "FILE...",
       "k-way merge into canonical order (unions region sidecars)",
       1,
       std::size_t(-1),
       {{"output", "o", Flag::Type::kString, "OUT", "merged trace path (required)"}},
       cmd_merge},
      {"export-csv",
       "FILE",
       "write the trace as CSV (stdout default)",
       1,
       1,
       {{"output", "o", Flag::Type::kString, "OUT", "CSV path (default: stdout)"}},
       cmd_export_csv},
      {"compress",
       "FILE",
       "rewrite into format v2 (self-contained blocks + codec + index)",
       1,
       1,
       {{"output", "o", Flag::Type::kString, "OUT", "rewritten trace path (required)"},
        {"raw", "", Flag::Type::kBool, "", "disable the block codec"},
        {"v1", "", Flag::Type::kBool, "", "pin the legacy v1 format"}},
       cmd_compress},
      {"verify", "FILE...", "full decode + MD5 + block index/metadata cross-check", 1,
       std::size_t(-1), {}, cmd_verify},
      {"top",
       "FILE",
       "hottest groups by region, level, core or latency",
       1,
       1,
       {{"by", "", Flag::Type::kString, "KEY", "group key: region|level|core|latency"},
        {"n", "n", Flag::Type::kUint, "N", "rows to print (default 10)"}},
       cmd_top},
      {"sessions",
       "ROOT",
       "session lifecycle + scheduler stats of a store",
       1,
       1,
       {{"json", "", Flag::Type::kBool, "",
         "emit every session/scheduler/collector metadata key as JSON"}},
       cmd_sessions},
      {"query",
       "FILE",
       "predicate-pushdown sample query over an indexed trace",
       1,
       1,
       {{"t0", "", Flag::Type::kUint, "NS", "keep samples with time >= NS"},
        {"t1", "", Flag::Type::kUint, "NS", "keep samples with time <= NS"},
        {"addr", "", Flag::Type::kString, "LO:HI", "keep samples with vaddr in [LO, HI]"},
        {"region", "", Flag::Type::kInt, "R", "keep this region id (-1 = untagged)", true},
        {"level", "", Flag::Type::kString, "NAME", "keep this level: L1|L2|SLC|DRAM", true},
        {"threads", "", Flag::Type::kUint, "N", "decode workers (default 1)"},
        {"csv", "", Flag::Type::kBool, "", "print matching samples as CSV"},
        {"json", "", Flag::Type::kBool, "", "print query stats as JSON"}},
       cmd_query},
      {"diff",
       "A B",
       "statistical drift verdict between two traces or session roots (exit 3 = drift)",
       2,
       2,
       {{"json", "", Flag::Type::kBool, "", "print the full report as JSON"},
        {"ks-threshold", "", Flag::Type::kDouble, "X", "per-region latency KS limit (0.15)"},
        {"level-threshold", "", Flag::Type::kDouble, "X", "per-region level-mix TV limit (0.10)"},
        {"phase-threshold", "", Flag::Type::kDouble, "X", "whole-run phase TV limit (0.25)"},
        {"min-samples", "", Flag::Type::kUint, "N", "smallest region worth judging (64)"},
        {"bins", "", Flag::Type::kUint, "N", "phase timeline bins (16)"}},
       cmd_diff},
  };
  return kCommands;
}

}  // namespace

int main(int argc, char** argv) {
  return nmo::cli::dispatch(kTool, command_table(), argc, argv);
}
