#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>

namespace perfbench {
namespace {

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

double steady_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.wall_s = steady_seconds();
  u.user_s = tv_seconds(ru.ru_utime);
  u.sys_s = tv_seconds(ru.ru_stime);
  u.nvcsw = static_cast<double>(ru.ru_nvcsw);
  u.nivcsw = static_cast<double>(ru.ru_nivcsw);
  return u;
}

Usage Usage::operator-(const Usage& earlier) const {
  Usage d;
  d.wall_s = wall_s - earlier.wall_s;
  d.user_s = user_s - earlier.user_s;
  d.sys_s = sys_s - earlier.sys_s;
  d.nvcsw = nvcsw - earlier.nvcsw;
  d.nivcsw = nivcsw - earlier.nivcsw;
  return d;
}

Usage& Usage::operator+=(const Usage& other) {
  wall_s += other.wall_s;
  user_s += other.user_s;
  sys_s += other.sys_s;
  nvcsw += other.nvcsw;
  nivcsw += other.nivcsw;
  return *this;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

// ---------------------------------------------------------------------------
// Tracer

std::uint64_t Tracer::begin(std::string_view name, std::string_view layer) {
  if (!enabled_) return 0;
  Span s;
  s.name = std::string(name);
  s.layer = std::string(layer);
  s.start_us = steady_seconds() * 1e6;
  s.id = next_id_++;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.run = run_;
  open_.push_back(spans_.size());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id, Counts counts) {
  if (!enabled_ || id == 0 || open_.empty()) return;
  Span& s = spans_[open_.back()];
  if (s.id != id) return;  // unbalanced close: keep the span open rather than mislabel it
  s.end_us = steady_seconds() * 1e6;
  s.counts = std::move(counts);
  open_.pop_back();
}

std::vector<std::string> Tracer::layers() const {
  std::set<std::string> names;
  for (const auto& s : spans_) names.insert(s.layer);
  return {names.begin(), names.end()};
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_us;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double end_us = s.end_us > 0.0 ? s.end_us : s.start_us;
    std::snprintf(buf, sizeof(buf), "\"ts\": %.3f, \"dur\": %.3f", s.start_us - origin,
                  end_us - s.start_us);
    out << "{\"name\": \"" << s.name << "\", \"cat\": \"" << s.layer
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " << buf << ", \"args\": {\"span\": "
        << s.id << ", \"parent\": " << s.parent << ", \"run\": " << s.run;
    for (const auto& [key, value] : s.counts) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out << ", \"" << key << "\": " << buf;
    }
    out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Bench

void Bench::begin_round(const std::string& stage) {
  const bool traced = trace_mode_ && (stage == "setup" || rounds(stage) % 2 == 0);
  tracer.enable(traced);
  tracer.set_run(++run_counter_);
  traced_[stage].push_back(traced);
  stages_[stage].emplace_back();
  counts_[stage].emplace_back();
  round_span_[stage] = tracer.begin(stage + ".round", "bench");
  round_start_[stage] = Usage::now();
}

void Bench::end_round(const std::string& stage) {
  add(stage, stage + ".round", {Usage::now() - round_start_[stage], 1.0});
  tracer.end(round_span_[stage]);
  tracer.enable(trace_mode_);
}

std::map<std::string, std::vector<double>> Bench::round_walls() const {
  std::map<std::string, std::vector<double>> out;
  for (const auto& [stage, rounds] : stages_) {
    for (const Round& r : rounds) {
      const auto it = r.find(stage + ".round");
      out[stage].push_back(it == r.end() ? 0.0 : it->second.usage.wall_s);
    }
  }
  return out;
}

double Bench::tracing_overhead_pct(const std::string& stage) const {
  const auto it = stages_.find(stage);
  const auto tt = traced_.find(stage);
  if (it == stages_.end() || tt == traced_.end()) return 0.0;
  std::vector<double> on;
  std::vector<double> off;
  for (std::size_t i = 0; i < it->second.size(); ++i) {
    const auto r = it->second[i].find(stage + ".round");
    if (r == it->second[i].end()) continue;
    (tt->second[i] ? on : off).push_back(r->second.usage.wall_s);
  }
  if (on.empty() || off.empty()) return 0.0;
  return 100.0 * (median(on) / median(off) - 1.0);
}

std::size_t Bench::rounds(const std::string& stage) const {
  const auto it = stages_.find(stage);
  return it == stages_.end() ? 0 : it->second.size();
}

bool Bench::another_round(const std::string& stage, const Usage& start, double seconds,
                          std::size_t min_rounds, std::size_t max_rounds) const {
  const std::size_t done = rounds(stage);
  if (done < min_rounds) return true;
  if (done >= max_rounds) return false;
  const double elapsed = Usage::now().wall_s - start.wall_s;
  return elapsed + med_wall(stage, stage + ".round") <= seconds;
}

double Bench::timed(const std::string& stage, const std::string& section,
                    const std::function<double()>& fn) {
  const std::string layer = section.substr(0, section.find('.'));
  const std::uint64_t span = tracer.begin(section, layer);
  const Usage before = Usage::now();
  const double work = fn();
  const Usage delta = Usage::now() - before;
  tracer.end(span, {{"work", work}});
  add(stage, section, SectionSample{delta, work});
  return work;
}

void Bench::add(const std::string& stage, const std::string& section,
                const SectionSample& sample) {
  auto& rounds = stages_[stage];
  if (rounds.empty()) rounds.emplace_back();
  SectionSample& into = rounds.back()[section];
  into.usage += sample.usage;
  into.work += sample.work;
}

void Bench::count(const std::string& stage, const std::string& name, double value) {
  auto& rounds = counts_[stage];
  if (rounds.empty()) rounds.emplace_back();
  rounds.back()[name] += value;
}

double Bench::counted(const std::string& stage, const std::string& name) {
  const auto it = counts_.find(stage);
  if (it == counts_.end() || it->second.empty()) return 0.0;
  const auto value_of = [&](const std::map<std::string, double>& r) {
    const auto cit = r.find(name);
    return cit == r.end() ? 0.0 : cit->second;
  };
  const double first = value_of(it->second.front());
  bool same = true;
  for (const auto& r : it->second) same = same && value_of(r) == first;
  check(same, "count " + name + " differs between rounds of " + stage);
  return first;
}

double Bench::median_count(const std::string& stage, const std::string& name) const {
  const auto it = counts_.find(stage);
  if (it == counts_.end()) return 0.0;
  std::vector<double> values;
  for (const auto& r : it->second) {
    const auto cit = r.find(name);
    values.push_back(cit == r.end() ? 0.0 : cit->second);
  }
  return median(std::move(values));
}

double Bench::med(const std::string& stage, const std::string& section,
                  double (*field)(const SectionSample&)) const {
  return med_of(stage, [&](const Round& r) {
    const auto it = r.find(section);
    return it == r.end() ? 0.0 : field(it->second);
  });
}

double Bench::med_wall(const std::string& stage, const std::string& section) const {
  return med(stage, section, [](const SectionSample& s) { return s.usage.wall_s; });
}

double Bench::work(const std::string& stage, const std::string& section) {
  const auto it = stages_.find(stage);
  if (it == stages_.end() || it->second.empty()) return 0.0;
  const auto work_of = [&](const Round& r) {
    const auto sit = r.find(section);
    return sit == r.end() ? 0.0 : sit->second.work;
  };
  const double first = work_of(it->second.front());
  bool same = true;
  for (const Round& r : it->second) same = same && work_of(r) == first;
  check(same, "work count of " + section + " differs between rounds of " + stage);
  return first;
}

double Bench::med_rate(const std::string& stage, const std::string& section) const {
  return med(stage, section, [](const SectionSample& s) {
    return s.usage.wall_s > 0.0 ? s.work / s.usage.wall_s : 0.0;
  });
}

double Bench::med_of(const std::string& stage,
                     const std::function<double(const Round&)>& fn) const {
  const auto it = stages_.find(stage);
  if (it == stages_.end()) return 0.0;
  std::vector<double> values;
  values.reserve(it->second.size());
  for (const Round& r : it->second) values.push_back(fn(r));
  return median(std::move(values));
}

void Bench::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Bench::section_metrics(const std::string& stage) {
  const auto it = stages_.find(stage);
  if (it == stages_.end()) return;
  std::set<std::string> sections;
  for (const Round& r : it->second) {
    for (const auto& [name, sample] : r) sections.insert(name);
  }
  for (const std::string& s : sections) {
    metric(s + ".wall_s", med_wall(stage, s), "s");
    metric(s + ".user_s", med(stage, s, [](const SectionSample& x) { return x.usage.user_s; }),
           "s");
    metric(s + ".sys_s", med(stage, s, [](const SectionSample& x) { return x.usage.sys_s; }),
           "s");
    metric(s + ".nvcsw", med(stage, s, [](const SectionSample& x) { return x.usage.nvcsw; }),
           "count");
    metric(s + ".nivcsw", med(stage, s, [](const SectionSample& x) { return x.usage.nivcsw; }),
           "count");
    metric(s + ".work", work(stage, s), "count");
  }
}

void Bench::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 32) failures_.push_back(what);
}

}  // namespace perfbench
