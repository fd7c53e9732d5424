// The benchmark's three workloads and the archive stage they share.
//
//   capture-pagerank  ProfileSession::profile of Cloud PageRank (exact
//                     trace driver: recording, replay, cache model);
//   sweep-cfd         the period x aux-buffer study on the CFD profile
//                     (statistical driver: sampler, aux, drain, decode);
//   archive           store write/read, pushdown queries and streaming of
//                     two real captures replicated to millions of samples.
//
// Each workload's timed part runs in rounds until its time budget is
// spent; every figure it reports is a median over rounds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< Time budget of the timed part.
  std::string workdir;    ///< Working directory for trace files.

  /// capture-pagerank and sweep-cfd give 60% of the budget to their own
  /// rounds and the rest to the archive stage over their output.
  [[nodiscard]] double capture_seconds() const { return 0.6 * seconds; }
  [[nodiscard]] double archive_seconds() const { return 0.4 * seconds; }
};

void run_capture_pagerank(Bench& bench, const RunOptions& options);
void run_sweep_cfd(Bench& bench, const RunOptions& options);
void run_archive(Bench& bench, const RunOptions& options);

/// Sizing of the shared archive stage.
struct ArchivePlan {
  std::size_t queries_per_round = 120;
  std::size_t min_rounds = 2;
  double seconds = 10.0;  ///< Budget for the stage's rounds.
};

/// Runs the archive stage over `traces` (one trace file each) as stage
/// `stage` and reports the store/net/query metrics.  Inputs are fixed by
/// the caller; the query mix and stream session names derive from `seed`.
void run_archive_stage(Bench& bench, const std::string& stage,
                       const std::vector<nmo::core::SampleTrace>& traces, std::uint64_t seed,
                       const std::string& workdir, const ArchivePlan& plan);

/// Copies of `sources` time-shifted end to end until `target_samples`
/// samples are reached, split into `files` traces of near-equal size.
/// The shift between replicas is drawn from `seed`.
[[nodiscard]] std::vector<nmo::core::SampleTrace> replicate(
    const std::vector<const nmo::core::SampleTrace*>& sources, std::size_t target_samples,
    std::size_t files, std::uint64_t seed);

}  // namespace perfbench
