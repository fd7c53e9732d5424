#include "store/trace_query.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <thread>

#include "sys/topology.hpp"

namespace nmo::store {

TraceQuery& TraceQuery::time_between(std::uint64_t t0, std::uint64_t t1) {
  has_time_ = true;
  time_lo_ = std::min(t0, t1);
  time_hi_ = std::max(t0, t1);
  return *this;
}

TraceQuery& TraceQuery::address_in(Addr lo, Addr hi) {
  has_addr_ = true;
  addr_lo_ = std::min(lo, hi);
  addr_hi_ = std::max(lo, hi);
  return *this;
}

TraceQuery& TraceQuery::region(std::int32_t r) {
  if (std::find(regions_.begin(), regions_.end(), r) == regions_.end()) regions_.push_back(r);
  return *this;
}

TraceQuery& TraceQuery::level(MemLevel l) {
  level_mask_ |= 1u << static_cast<unsigned>(l);
  return *this;
}

bool TraceQuery::unconstrained() const {
  return !has_time_ && !has_addr_ && regions_.empty() && level_mask_ == 0;
}

bool TraceQuery::matches(const core::TraceSample& s) const {
  if (has_time_ && (s.time_ns < time_lo_ || s.time_ns > time_hi_)) return false;
  if (has_addr_ && (s.vaddr < addr_lo_ || s.vaddr > addr_hi_)) return false;
  if (level_mask_ != 0 && ((level_mask_ >> static_cast<unsigned>(s.level)) & 1u) == 0) {
    return false;
  }
  if (!regions_.empty() &&
      std::find(regions_.begin(), regions_.end(), s.region) == regions_.end()) {
    return false;
  }
  return true;
}

bool TraceQuery::may_match(const BlockMeta& m) const {
  if (has_time_ && (m.max_time < time_lo_ || m.min_time > time_hi_)) return false;
  if (has_addr_ && (m.max_addr < addr_lo_ || m.min_addr > addr_hi_)) return false;
  if (level_mask_ != 0) {
    bool any = false;
    for (std::size_t l = 0; l < kNumMemLevels; ++l) {
      if (((level_mask_ >> l) & 1u) != 0 && m.level_samples[l] > 0) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  if (!regions_.empty()) {
    bool any = false;
    for (const auto r : regions_) {
      if (m.may_contain_region(r)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

TraceQuery::Result TraceQuery::run(unsigned threads) const {
  Result result;
  TraceReader head(path_);
  if (!head.ok()) {
    result.error = head.error();
    return result;
  }

  if (head.info().version != kTraceVersion2) {
    // v1 carries no index: stream the whole file (count and digest
    // validated by the reader as always) and filter per sample.
    core::TraceSample s;
    while (head.next(s)) {
      ++result.stats.samples_scanned;
      if (matches(s)) result.samples.add(s);
    }
    if (!head.ok()) {
      result.error = head.error();
      result.samples.clear();
      return result;
    }
    result.info = head.info();
    result.stats.samples_matched = result.samples.size();
    result.ok = true;
    return result;
  }

  if (!head.load_index()) {
    result.error = head.error();
    return result;
  }
  result.info = head.info();
  const auto& index = head.block_index();
  const auto& meta = head.block_meta();
  const bool pushdown = head.has_block_meta();
  result.stats.blocks_total = index.size();
  result.stats.pushdown = pushdown;

  // The prune: keep only blocks whose summary admits a match.  Without
  // metadata every block survives and the query degrades to a (possibly
  // parallel) full scan with per-sample filtering.
  std::vector<std::size_t> picked;
  picked.reserve(index.size());
  for (std::size_t b = 0; b < index.size(); ++b) {
    if (!pushdown || may_match(meta[b])) {
      picked.push_back(b);
      result.stats.samples_scanned += index[b].samples;
    }
  }
  result.stats.blocks_scanned = picked.size();
  result.stats.blocks_skipped = index.size() - picked.size();
  if (picked.empty()) {
    result.ok = true;
    return result;
  }

  // Contiguous slices of the surviving list, balanced by sample count.  A
  // worker seeks only at its slice start and wherever pruning left a gap;
  // adjacent surviving blocks stream through without repositioning.
  struct Slice {
    std::size_t first = 0;  ///< Index into `picked`.
    std::size_t count = 0;
    std::uint64_t samples = 0;
  };
  // One worker per surviving block at most, and never more than the host
  // runs at once: a caller's thread count is a ceiling, not a spawn order.
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers = std::max<std::size_t>(
      1, std::min<std::size_t>(std::min(threads, hardware), picked.size()));
  const std::uint64_t target = result.stats.samples_scanned / workers + 1;
  std::vector<Slice> slices;
  for (std::size_t k = 0; k < picked.size(); ++k) {
    if (slices.empty() || (slices.back().samples >= target && slices.size() < workers)) {
      slices.push_back(Slice{k, 0, 0});
    }
    ++slices.back().count;
    slices.back().samples += index[picked[k]].samples;
  }

  std::vector<core::SampleTrace> parts(slices.size());
  std::vector<std::string> errors(slices.size());
  const auto scan_slice = [&](std::size_t r) {
    TraceReader reader(path_);
    if (!reader.ok()) {
      errors[r] = reader.error();
      return;
    }
    std::size_t prev = std::size_t(-1);
    core::TraceSample s;
    for (std::size_t k = slices[r].first; k < slices[r].first + slices[r].count; ++k) {
      const std::size_t b = picked[k];
      if (prev == std::size_t(-1) || b != prev + 1) {
        if (!reader.seek_block(b)) {
          errors[r] = reader.ok() ? "seek_block failed" : reader.error();
          return;
        }
      }
      for (std::uint32_t i = 0; i < index[b].samples; ++i) {
        if (!reader.next(s)) {
          errors[r] = reader.ok() ? "unexpected end of block" : reader.error();
          return;
        }
        if (matches(s)) parts[r].add(s);
      }
      prev = b;
    }
  };

  if (slices.size() == 1) {
    scan_slice(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(slices.size());
    for (std::size_t r = 0; r < slices.size(); ++r) {
      pool.push_back(sys::named_thread("nmo-qry" + std::to_string(r), scan_slice, r));
    }
    for (auto& t : pool) t.join();
  }
  for (auto& e : errors) {
    if (!e.empty()) {
      result.error = std::move(e);
      return result;
    }
  }

  for (const auto& part : parts) result.samples.append(part);
  result.stats.samples_matched = result.samples.size();
  result.ok = true;
  return result;
}

// --- legacy wrapper ---------------------------------------------------------

std::optional<core::SampleTrace> read_all_parallel(const std::string& path, unsigned threads,
                                                   std::string* error) {
  auto result = TraceQuery(path).run(threads);
  const auto fail = [&](const std::string& message) {
    if (error) *error = message;
    return std::nullopt;
  };
  if (!result.ok) return fail(result.error);
  if (result.info.version == kTraceVersion2) {
    // Preserve this entry point's historical guarantee: the reassembled
    // samples are held to the footer's count and digest.  (The query's
    // seeked workers skip digest work, so re-validate over the result.)
    if (result.samples.size() != result.info.samples) {
      return fail("parallel decode produced " + std::to_string(result.samples.size()) +
                  " samples, footer declares " + std::to_string(result.info.samples));
    }
    if (result.samples.fingerprint() != result.info.fingerprint) {
      return fail("fingerprint mismatch: trace is corrupt");
    }
  }
  return std::move(result.samples);
}

}  // namespace nmo::store
