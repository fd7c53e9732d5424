// Measurement harness of the benchmark binary: process-wide resource
// snapshots, per-round section accounting, opt-in span tracing and the
// checks/metrics registry a workload reports into.
//
// Every layer is measured from outside: a section wraps one call (or one
// loop of calls) into a layer's public API and records the wall time, the
// getrusage delta over all threads of the process, and the deterministic
// work the call performed.  A workload runs its timed work as repeated
// rounds; metrics are medians over rounds, so a single disturbed round
// does not move them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Wall clock plus getrusage(RUSAGE_SELF): user/sys CPU and context
/// switches summed over every thread of the process.
struct Usage {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  double nvcsw = 0.0;
  double nivcsw = 0.0;

  static Usage now();
  [[nodiscard]] Usage operator-(const Usage& earlier) const;
  Usage& operator+=(const Usage& other);
  [[nodiscard]] double cpu_s() const { return user_s + sys_s; }
};

/// Peak resident set of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Median of `values` (0 for an empty list).
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// In-memory span recorder written out as Chrome trace-event JSON
/// (loadable in Perfetto or chrome://tracing).  Single-threaded: spans are
/// opened and closed by the benchmark's main thread only.  When
/// disabled, begin()/end() cost one branch.
class Tracer {
 public:
  using Counts = std::vector<std::pair<std::string, double>>;

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Workload-run id stamped on every span opened afterwards.
  void set_run(std::uint64_t run) { run_ = run; }

  /// Opens a span; returns its id (0 when disabled).
  std::uint64_t begin(std::string_view name, std::string_view layer);
  /// Closes span `id` (must be the innermost open span) with its counts.
  void end(std::uint64_t id, Counts counts = {});

  [[nodiscard]] std::size_t spans() const { return spans_.size(); }
  /// Layers (span categories) that recorded at least one span.
  [[nodiscard]] std::vector<std::string> layers() const;
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string layer;
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t run = 0;
    Counts counts;
  };
  bool enabled_ = false;
  std::uint64_t run_ = 0;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< Indices into spans_ of open spans.
};

/// One section's measurement within one round.
struct SectionSample {
  Usage usage;
  double work = 0.0;  ///< Deterministic work count (records, ops, bytes...).
};

/// The registry a workload reports into: rounds of section samples,
/// metrics by name, checks against attempted operations.
class Bench {
 public:
  /// With `trace_mode`, set-up is always traced and the rounds of every
  /// other stage alternate traced / untraced, so the tracing overhead is
  /// measured within one process.
  explicit Bench(bool trace_mode) : trace_mode_(trace_mode) { tracer.enable(trace_mode); }

  Tracer tracer;

  /// Starts a new round of stage `stage` (e.g. "capture", "setup"): a new
  /// workload-run id and a "<stage>.round" span parenting its sections.
  void begin_round(const std::string& stage);
  /// Ends the round: its whole usage becomes section "<stage>.round".
  void end_round(const std::string& stage);
  /// Wall time of every round of every stage, in order, for the report.
  [[nodiscard]] std::map<std::string, std::vector<double>> round_walls() const;
  /// Median traced round over median untraced round of `stage`, minus 1,
  /// in percent (0 outside trace mode or without both kinds of round).
  [[nodiscard]] double tracing_overhead_pct(const std::string& stage) const;
  /// Rounds completed so far by `stage`.
  [[nodiscard]] std::size_t rounds(const std::string& stage) const;
  /// Whether `stage` should run another round: always below `min_rounds`,
  /// never at `max_rounds`, otherwise while one more median-length round
  /// still fits in `seconds` since `start`.
  [[nodiscard]] bool another_round(const std::string& stage, const Usage& start, double seconds,
                                   std::size_t min_rounds, std::size_t max_rounds) const;

  /// Runs `fn` as section `section` (layer = text before the first '.'),
  /// inside a span carrying the work count, and adds its usage and work to
  /// the current round of `stage`.  `fn` returns the work it performed.
  double timed(const std::string& stage, const std::string& section,
               const std::function<double()>& fn);

  /// Adds an externally measured sample to the current round of `stage`.
  void add(const std::string& stage, const std::string& section, const SectionSample& sample);

  /// Records a deterministic count (selections, blocks, ...) for the
  /// current round of `stage`; repeated calls in one round add up.
  void count(const std::string& stage, const std::string& name, double value);
  /// The count's value; checks that every round produced the same value.
  [[nodiscard]] double counted(const std::string& stage, const std::string& name);
  /// Median over rounds of a count that legitimately varies with host
  /// timing (e.g. decode backpressure spins); not checked for repeats.
  [[nodiscard]] double median_count(const std::string& stage, const std::string& name) const;

  /// Median over the rounds of `stage` of a field of `section` (rounds
  /// without the section count as zero).
  [[nodiscard]] double med(const std::string& stage, const std::string& section,
                           double (*field)(const SectionSample&)) const;
  [[nodiscard]] double med_wall(const std::string& stage, const std::string& section) const;
  /// The section's work count; checks that every round did the same work.
  [[nodiscard]] double work(const std::string& stage, const std::string& section);
  /// Median over rounds of work / wall time.
  [[nodiscard]] double med_rate(const std::string& stage, const std::string& section) const;
  /// Median over rounds of a per-round value computed from the round's
  /// sections.
  [[nodiscard]] double med_of(const std::string& stage,
                              const std::function<double(const std::map<std::string,
                                                                        SectionSample>&)>& fn) const;

  /// Records metric `name` (later values overwrite earlier ones).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Reports every section of `stage` as <section>.{wall_s,user_s,sys_s,
  /// nvcsw,nivcsw,work} medians per round.
  void section_metrics(const std::string& stage);

  /// Counts one attempted operation; a false `ok` counts it failed and
  /// keeps `what` for the report.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>& metrics() const {
    return metrics_;
  }

 private:
  using Round = std::map<std::string, SectionSample>;
  std::map<std::string, std::vector<Round>> stages_;
  std::map<std::string, std::vector<std::map<std::string, double>>> counts_;
  std::map<std::string, std::vector<bool>> traced_;  ///< Per round: tracing was on.
  std::map<std::string, Usage> round_start_;
  std::map<std::string, std::uint64_t> round_span_;
  std::uint64_t run_counter_ = 0;  ///< Workload-run id: one per round.
  bool trace_mode_ = false;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
