// Predicate-pushdown queries over stored traces: reads samples back out
// of a .nmot file, whether the caller wants all of them (a full decode), a
// parallel decode, or only the samples matching time-window /
// address-range / region / level predicates.
//
// The point of the v2 metadata section (store/trace_file.hpp): each block's
// summary - time and address bounds, per-level sample counts, a region
// bitmap - lets the query *prove* a block holds no matching sample and
// skip it without decompressing it.  Pruning is conservative (a scanned
// block may still yield nothing) and exact filtering happens per sample,
// so a pushdown query returns byte-for-byte what filtering a full decode
// returns - only cheaper.  Files without metadata (v1, or v2 written
// before the section existed) degrade gracefully: every block is scanned,
// the sample-level filter still applies, and Result::stats says pushdown
// was unavailable.
//
// Usage is a fluent builder:
//
//   auto result = query(path).time_between(t0, t1).region(2).run(threads);
//   if (result.ok) use(result.samples);   // file order, footer info in result.info
//
// A query is not digest-checked on v2 files: blocks are decoded by seek,
// so each is validated structurally (sizes, varints, field ranges) but the
// footer's sample count and MD5 and the block metadata are not compared
// against what was decoded.  A corrupted in-range field passes.  The
// digest-checked reads are TraceReader::read_all(), read_all_parallel()
// (a query plus a count/digest check over the result) and `nmo-trace
// verify`; use one of those when the file may be damaged.  v1 queries
// stream the whole file and are checked like read_all().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "store/trace_file.hpp"

namespace nmo::store {

/// What a query did, block by block: evidence that pushdown pruned work
/// (blocks_skipped) and how selective the predicates were.
struct QueryStats {
  std::uint64_t blocks_total = 0;    ///< Blocks in the file's index (0 for v1).
  std::uint64_t blocks_scanned = 0;  ///< Blocks decoded and filtered.
  std::uint64_t blocks_skipped = 0;  ///< Blocks pruned via metadata alone.
  std::uint64_t samples_scanned = 0;  ///< Samples decoded (v1: whole file).
  std::uint64_t samples_matched = 0;  ///< Samples passing every predicate.
  bool pushdown = false;  ///< Block metadata was present and consulted.
};

/// A filtered read over one trace file.  Predicates AND together; a
/// repeated region()/level() call ORs within its dimension.  All bounds
/// are inclusive.  The builder is reusable: run() does not consume it.
class TraceQuery {
 public:
  explicit TraceQuery(std::string path) : path_(std::move(path)) {}

  /// Keep samples with time_ns in [t0, t1] (swapped if reversed).
  TraceQuery& time_between(std::uint64_t t0, std::uint64_t t1);
  /// Keep samples with vaddr in [lo, hi] (swapped if reversed).
  TraceQuery& address_in(Addr lo, Addr hi);
  /// Keep samples tagged with this region (-1 = untagged); repeatable.
  TraceQuery& region(std::int32_t r);
  /// Keep samples serviced by this memory level; repeatable.
  TraceQuery& level(MemLevel l);

  struct Result {
    bool ok = false;
    std::string error;
    core::SampleTrace samples;  ///< Matching samples, in file order.
    QueryStats stats;
    TraceFileInfo info;  ///< Header/footer facts about the file queried.
  };

  /// Executes the query with up to `threads` decode workers (contiguous
  /// runs of surviving blocks stream through one seek each), capped at the
  /// host's hardware threads and the surviving block count.  Thread
  /// counts <= 1 decode inline.  v1 traces stream the whole file with
  /// count and digest validated en route; v2 scans are random-access and
  /// structurally validated per block, with no digest check.
  [[nodiscard]] Result run(unsigned threads = 1) const;

  /// The exact per-sample filter (public so callers can verify parity
  /// against an independent full decode).
  [[nodiscard]] bool matches(const core::TraceSample& s) const;
  /// The conservative per-block prune: false only when no sample in a
  /// block summarized by `m` can satisfy matches().
  [[nodiscard]] bool may_match(const BlockMeta& m) const;
  /// True when no predicate was set (the query is a plain full read).
  [[nodiscard]] bool unconstrained() const;

 private:
  std::string path_;
  bool has_time_ = false;
  std::uint64_t time_lo_ = 0;
  std::uint64_t time_hi_ = 0;
  bool has_addr_ = false;
  Addr addr_lo_ = 0;
  Addr addr_hi_ = 0;
  std::vector<std::int32_t> regions_;  ///< Empty = no region predicate.
  unsigned level_mask_ = 0;            ///< Bit per MemLevel; 0 = no predicate.
};

/// Builder entry point: `query(path).region(2).run()`.
inline TraceQuery query(std::string path) { return TraceQuery(std::move(path)); }

}  // namespace nmo::store
