// The on-disk sample trace: a compact, versioned binary format that
// round-trips core::SampleTrace losslessly.
//
// NMO's post-processing workflow (section III of the paper) consumes one
// trace per run; serving many concurrent profiled jobs needs traces to be
// first-class on-disk artifacts that sessions write independently and a
// merge tool folds back together (ROADMAP: multi-process/multi-session
// output).  The layout borrows what makes the BSC/PROMPT trace formats
// cheap to stream:
//
//   header   u32 magic "NMOT" | u16 version | u16 reserved
//   blocks   per-core runs of varint/delta-encoded samples (see below)
//   footer   marker 0xF5 | u64 sample count | 16-byte MD5 | u32 end magic
//
// Samples are written in add() order.  Timestamps, data addresses and PCs
// are zigzag-varint deltas against the same core's previous sample - the
// fields that change slowly per core and would dominate a fixed-width
// encoding.  Latency is a plain varint, op/level pack into one byte,
// region is a zigzag varint.
//
// Version 1 blocks are `marker 0xB7 | varint core | varint count | samples`
// covering a maximal run of consecutive samples from one core, and the
// delta predictors persist across blocks of the same core - which means no
// block can be decoded without decoding every earlier block of its core,
// so v1 supports neither seeking nor per-block compression.  Worse, in the
// canonical (time-sorted) order cores interleave sample by sample, so v1
// "blocks" degenerate to a handful of samples each and the per-block
// framing becomes pure overhead.
//
// Version 2 makes every block self-contained and adds a block index:
//
//   block    marker 0xB7 | varint count | u8 codec | varint cores
//            | per core: varint id, varint base_time, varint base_vaddr,
//                        varint base_pc
//            | varint raw_bytes | varint stored_bytes | payload
//   sample   varint core slot | the six v1 sample fields
//   index    marker 0xA9 | varint blocks
//            | per block: varint offset delta | varint first core
//            | varint count
//   meta     (optional) marker 0xAD | varint blocks (== index blocks)
//            | per block: varint min_time | varint max_time - min_time
//                         | varint min_addr | varint max_addr - min_addr
//                         | varint samples per MemLevel (kNumMemLevels of them)
//                         | varint region bitmap (see BlockMeta::region_bit)
//   footer   marker 0xF5 | u64 sample count | 16-byte MD5
//            | u64 index offset | u32 end magic
//
// A v2 block covers up to kMaxBlockSamples consecutive samples of *any*
// mix of cores (file order preserved); its header lists every core that
// appears, in first-appearance order, together with that core's delta base
// (the predictor state at the core's first sample in the block).  Each
// sample names its core as a slot into that table, so predictors reset at
// every block boundary and a block decodes from its own bytes alone.  The
// payload may pass through the block codec (store/block_codec.hpp); a
// block that does not shrink is stored raw.  The index footer records
// every block's file offset, first core and sample count, which buys O(1)
// seek_block() and block-parallel decode (read_all_parallel).  The optional
// metadata section after the index summarizes each block's contents -
// time/address bounds, per-level sample counts, a region-presence bitmap -
// so a query (store/trace_query.hpp) can prove a block holds no matching
// sample and skip it without decompressing it.  The section is strictly
// additive: v2 files without it (anything written before the section
// existed, or with Options::index_meta = false) read exactly as before,
// and the footer layout is unchanged.  Readers accept both versions
// byte-for-byte; writers emit v2 unless TraceWriter::Options says
// otherwise.
//
// The footer carries the sample count and the MD5 fingerprint over the
// samples in file order, computed with the very routine SampleTrace uses
// (core::fingerprint_update), so `TraceReader::read_all().fingerprint()`
// equals the footer digest and a writer fed a trace reproduces that
// trace's own fingerprint() - in either version, since the digest is over
// decoded samples, not encoded bytes.  Readers reject bad magic, unknown
// versions, truncated files, overlong varints, out-of-range field values,
// index mismatches and count/digest mismatches.
//
// Which reads check the digest: TraceReader::read_all() and next() to the
// end of the file (both versions), read_all_parallel() and `nmo-trace
// verify` hold the samples to the footer's count and MD5; the streaming
// v2 read also cross-checks the block index and metadata it rebuilt.  A
// seeked read - seek_block(), and so TraceQuery::run() on a v2 file -
// validates each block's structure and field ranges only: a corrupted
// field value that stays in range (one latency byte flipped inside a raw
// block) decodes without error there.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/md5.hpp"
#include "core/trace.hpp"
#include "store/block_codec.hpp"

namespace nmo::store {

inline constexpr std::uint32_t kTraceMagic = 0x544F4D4E;     // "NMOT" little-endian
inline constexpr std::uint32_t kTraceEndMagic = 0x454F4D4E;  // "NMOE" little-endian
/// The legacy format: shared-predictor blocks, no codec, no index.
inline constexpr std::uint16_t kTraceVersion1 = 1;
/// Self-contained (optionally compressed) blocks + block-index footer.
inline constexpr std::uint16_t kTraceVersion2 = 2;
/// What TraceWriter emits by default.
inline constexpr std::uint16_t kTraceVersion = kTraceVersion2;
inline constexpr std::uint8_t kBlockMarker = 0xB7;
inline constexpr std::uint8_t kIndexMarker = 0xA9;
inline constexpr std::uint8_t kMetaMarker = 0xAD;
inline constexpr std::uint8_t kFooterMarker = 0xF5;
/// Largest core id the format accepts.  Bounds the per-core predictor
/// tables on both sides, so a corrupt block header cannot drive a reader
/// into an absurd allocation; generous against any machine the simulator
/// (or the paper's testbed) models.
inline constexpr std::uint32_t kMaxCores = 1u << 16;
/// Conventional extension for trace files ("<name>.nmot").
inline constexpr std::string_view kTraceExtension = ".nmot";

namespace detail {
/// Per-core delta predictor.  In v1 it persists across blocks of the same
/// core (writer and reader must evolve it identically); in v2 it resets to
/// the block header's per-core base at every block boundary.
struct CorePredictor {
  std::uint64_t time_ns = 0;
  Addr vaddr = 0;
  Addr pc = 0;
};

/// One entry of a v2 block's core table: a core appearing in the block and
/// its delta base, in first-appearance (= sample slot) order.
struct BlockCoreBase {
  CoreId core = 0;
  CorePredictor base;
};
}  // namespace detail

/// What the header + footer declare about a trace file.
struct TraceFileInfo {
  std::uint16_t version = 0;
  std::uint64_t samples = 0;
  std::string fingerprint;  ///< Lowercase MD5 hex from the footer.
};

/// One entry of the v2 block index: where a block lives and what it holds.
struct BlockIndexEntry {
  std::uint64_t offset = 0;  ///< File offset of the block marker byte.
  /// Core of the block's first sample (v2 blocks may interleave several
  /// cores; v1 blocks hold exactly one).
  CoreId core = 0;
  std::uint32_t samples = 0;
};

/// Per-block content summary from the v2 metadata section: enough to prove
/// a block cannot hold a sample matching a time-window, address-range,
/// level or region predicate, so queries skip it without decompressing it.
/// All bounds are inclusive and conservative-exact: the writer computes
/// them from the very samples it encodes, and full reads cross-check them
/// against the decoded block (a disagreement is a corrupt-index error).
struct BlockMeta {
  std::uint64_t min_time = 0;
  std::uint64_t max_time = 0;
  Addr min_addr = 0;
  Addr max_addr = 0;
  std::uint64_t level_samples[kNumMemLevels] = {};  ///< Samples per MemLevel.
  std::uint64_t region_bits = 0;  ///< Region-presence bitmap, see region_bit().

  /// The bitmap bit a region id sets: bit 0 = untagged (-1), bit 1+r for
  /// regions 0..61, bit 63 = any region >= 62 (the shared overflow bit,
  /// which makes the filter conservative, never wrong, for high ids).
  [[nodiscard]] static std::uint64_t region_bit(std::int32_t region) noexcept {
    if (region < 0) return std::uint64_t{1};
    if (region < 62) return std::uint64_t{1} << (region + 1);
    return std::uint64_t{1} << 63;
  }

  /// Conservative test: false only when no sample with this region id can
  /// be in the block.
  [[nodiscard]] bool may_contain_region(std::int32_t region) const noexcept {
    return (region_bits & region_bit(region)) != 0;
  }

  /// Total samples summarized (the per-level counts partition the block).
  [[nodiscard]] std::uint64_t samples() const noexcept {
    std::uint64_t total = 0;
    for (const auto n : level_samples) total += n;
    return total;
  }

  /// Folds one sample into the summary (writer side and full-read
  /// cross-check side share this, so they can never diverge).
  void absorb(const core::TraceSample& s) noexcept {
    if (samples() == 0) {
      min_time = max_time = s.time_ns;
      min_addr = max_addr = s.vaddr;
    } else {
      min_time = s.time_ns < min_time ? s.time_ns : min_time;
      max_time = s.time_ns > max_time ? s.time_ns : max_time;
      min_addr = s.vaddr < min_addr ? s.vaddr : min_addr;
      max_addr = s.vaddr > max_addr ? s.vaddr : max_addr;
    }
    ++level_samples[static_cast<std::size_t>(s.level)];
    region_bits |= region_bit(s.region);
  }

  [[nodiscard]] bool operator==(const BlockMeta& other) const noexcept {
    if (min_time != other.min_time || max_time != other.max_time ||
        min_addr != other.min_addr || max_addr != other.max_addr ||
        region_bits != other.region_bits) {
      return false;
    }
    for (std::size_t l = 0; l < kNumMemLevels; ++l) {
      if (level_samples[l] != other.level_samples[l]) return false;
    }
    return true;
  }
};

class TraceWriter {
 public:
  /// Longest run of same-core samples one block may cover; bounds the
  /// decode working set of a streaming reader.
  static constexpr std::size_t kMaxBlockSamples = 512;

  /// Output format knobs.  The default writes the current version with the
  /// block codec enabled; Options{.version = kTraceVersion1} reproduces the
  /// legacy format bit for bit (compress is ignored for v1, which has no
  /// codec stage).
  struct Options {
    std::uint16_t version = kTraceVersion;
    /// v2 only: run each block payload through the LZ codec, storing raw
    /// when compression does not shrink the block.
    bool compress = true;
    /// v2 only: emit the per-block metadata section after the index, which
    /// TraceQuery uses for predicate pushdown.  Off reproduces the
    /// pre-metadata v2 layout bit for bit.
    bool index_meta = true;
  };

  /// Observes every closed v2 block as the exact bytes written to the file
  /// (marker, header, payload - the self-contained wire unit the streaming
  /// layer ships verbatim, see net/wire.hpp).  Called synchronously on the
  /// writer's thread at block flush, before close() returns; `samples` and
  /// `first_core` mirror the block's index entry.  v1 blocks are not
  /// self-contained and are never observed.
  using BlockObserver = std::function<void(std::span<const std::byte> block_bytes,
                                           std::uint32_t samples, CoreId first_core)>;

  /// Opens `path` for writing and emits the header.  Check ok(); an
  /// unsupported options.version is an error, not an exception.  The
  /// single-argument overload writes the default Options (in-class default
  /// arguments cannot name a nested class's member initializers).
  explicit TraceWriter(const std::string& path);
  TraceWriter(const std::string& path, Options options);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Installs (or clears) the closed-block observer.  Effective for every
  /// block flushed after the call; install before the first add() to see
  /// them all.
  void set_block_observer(BlockObserver observer) { observer_ = std::move(observer); }

  /// Appends one sample (buffered; flushed on core change / block full).
  void add(const core::TraceSample& s);
  /// Appends every sample of `trace` in order.
  void write_all(const core::SampleTrace& trace);

  /// Flushes the open block, writes the index (v2) + footer and closes the
  /// file.  Idempotent; also run by the destructor.  Returns ok().  If an
  /// add() error is pending the footer is withheld (see abandon()) so the
  /// partial file can never validate as complete.
  bool close();

  /// Closes the file WITHOUT writing a footer (error paths): the partial
  /// file on disk stays rejectable-by-design so it can never pass for a
  /// complete trace.  After abandon(), close() is a no-op.
  void abandon();

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] std::uint64_t samples_written() const { return count_; }
  /// The footer digest; valid (non-empty) only after close().
  [[nodiscard]] const std::string& fingerprint() const { return fingerprint_; }

 private:
  void flush_block();

  std::ofstream out_;
  Options options_;
  std::string error_;
  std::vector<std::byte> block_;  ///< Encoded payload of the open block.
  CoreId block_core_ = 0;         ///< v1: the open block's single core.
  std::uint32_t block_count_ = 0;
  std::vector<detail::BlockCoreBase> block_cores_;  ///< v2: the open block's core table.
  std::vector<detail::CorePredictor> predictors_;   ///< Indexed by core (grown on demand).
  std::vector<BlockIndexEntry> index_;             ///< v2: one entry per flushed block.
  BlockMeta block_meta_;                           ///< v2: summary of the open block.
  std::vector<BlockMeta> meta_;                    ///< v2: one summary per flushed block.
  BlockObserver observer_;                         ///< v2: closed-block tee (may be empty).
  std::vector<std::byte> observed_;                ///< Scratch: contiguous block for observer_.
  std::uint64_t write_offset_ = 0;                 ///< Bytes written so far (next block offset).
  Md5 md5_;
  std::uint64_t count_ = 0;
  std::string fingerprint_;
  bool closed_ = false;
};

class TraceReader {
 public:
  /// Opens `path` and validates the header.  Check ok().
  explicit TraceReader(const std::string& path);

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  /// Streams the next sample.  Returns false at end of trace (after the
  /// footer validated) or on error - distinguish with ok().
  bool next(core::TraceSample& out);

  /// Reads and validates the entire file into a SampleTrace (in file
  /// order), holding it to the footer's sample count and MD5 digest (and,
  /// on v2, the block index and metadata).  On error the partial trace is
  /// discarded; check ok().  This is the digest-checked full read:
  /// `query(path).run()` returns the same samples from an intact file but
  /// checks neither the digest nor the metadata on v2 (see the header
  /// comment).
  [[nodiscard]] core::SampleTrace read_all();

  /// Loads the v2 block index from the footer (without touching the sample
  /// stream) and fills info().  Returns false for v1 traces, which carry no
  /// index - without setting an error, so the reader stays usable for a
  /// streaming read.  A corrupt v2 footer/index is a sticky error.
  bool load_index();
  /// The block index; empty until load_index() (or a full v2 stream read).
  [[nodiscard]] const std::vector<BlockIndexEntry>& block_index() const { return index_; }
  /// The per-block metadata parsed alongside the index; empty when the file
  /// predates the section (or was written with Options::index_meta off).
  /// When present it holds exactly one entry per index block.
  [[nodiscard]] const std::vector<BlockMeta>& block_meta() const { return meta_; }
  /// Whether the loaded index came with the metadata section.
  [[nodiscard]] bool has_block_meta() const { return !meta_.empty(); }

  /// Repositions the stream at block `block` of the index (loading it on
  /// demand): the next next() decodes that block's first sample, O(1) in
  /// the file size.  v2 only - v1 blocks are not independently decodable.
  /// After a seek the reader is in random-access mode: reaching the footer
  /// still validates structure, but the whole-file sample count and digest
  /// no longer apply to what was decoded and are not checked.
  /// Legacy entry point: prefer TraceQuery, which seeks on the caller's
  /// behalf when predicates prune the block list.
  bool seek_block(std::size_t block);

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// Footer metadata; fully populated once the stream hit the footer
  /// (i.e. after next() returned false with ok()), or via load_index() /
  /// probe().
  [[nodiscard]] const TraceFileInfo& info() const { return info_; }

  /// Reads the header and validates the file's structure without decoding
  /// samples: v2 footers are checked against their block index (offsets
  /// monotone, counts summing to the footer count, index ending exactly at
  /// the footer); v1 files - whose blocks carry no length - are walked
  /// structurally (varint skip, no delta/digest work), so probe() and a
  /// full read agree on where the sample stream ends and what may follow
  /// it.  nullopt on any structural error.
  static std::optional<TraceFileInfo> probe(const std::string& path);

 private:
  void fail(std::string message);
  bool read_footer(std::uint64_t index_offset_seen);
  bool read_index_and_footer();
  bool open_block(std::uint64_t marker_offset);
  bool decode_sample(core::TraceSample& out);

  std::ifstream in_;
  std::string error_;
  TraceFileInfo info_;
  std::vector<detail::CorePredictor> predictors_;  ///< v1 cross-block state.
  std::vector<detail::BlockCoreBase> block_cores_;  ///< v2 block-local state (slot order).
  CoreId block_core_ = 0;                           ///< v1: the open block's core.
  std::uint32_t block_remaining_ = 0;
  std::vector<std::byte> block_buf_;  ///< v2: decoded (raw) payload of the open block.
  std::size_t block_pos_ = 0;         ///< v2: cursor into block_buf_.
  std::vector<BlockIndexEntry> index_;
  std::vector<BlockMeta> meta_;               ///< v2: parsed metadata section (may be empty).
  std::vector<BlockIndexEntry> seen_blocks_;  ///< v2: blocks observed while streaming.
  std::vector<BlockMeta> seen_meta_;          ///< v2: summaries rebuilt while streaming.
  bool index_loaded_ = false;
  bool seeked_ = false;  ///< Random-access mode: footer count/digest not applicable.
  Md5 md5_;
  std::uint64_t count_ = 0;
  bool done_ = false;
};

/// Decodes one self-contained v2 block from memory: `block` must be the
/// exact bytes TraceWriter flushed (marker byte through the last payload
/// byte - what a BlockObserver saw, or what net/wire.hpp carried in a block
/// frame).  Appends the decoded samples to `out` in block order.  Applies
/// the full corrupt-input discipline of TraceReader (bounded sizes, varint
/// overflow, field ranges, payload exactly consumed) plus a whole-span
/// check: trailing bytes after the block are an error.  Returns false (and
/// sets *error) on any malformation, leaving `out` untouched.
bool decode_v2_block(std::span<const std::byte> block, std::vector<core::TraceSample>& out,
                     std::string* error = nullptr);

/// Decodes `path` with up to `threads` workers splitting the v2 block index
/// (each worker seeks its own reader to its block range), reassembles the
/// samples in file order and validates the footer count and digest over the
/// result - the parallel counterpart of TraceReader::read_all().  Falls
/// back to a streaming read for v1 traces.  nullopt on error (message in
/// *error when non-null).  Runs `query(path).run(threads)` and then checks
/// the footer count and digest over the result, which the query alone
/// does not do on v2.
std::optional<core::SampleTrace> read_all_parallel(const std::string& path, unsigned threads,
                                                   std::string* error = nullptr);

}  // namespace nmo::store
