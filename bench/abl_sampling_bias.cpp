// Ablation + future work (paper section IX): sampling bias.
//
// The paper's future work plans to "continue the evaluation of the bias
// when sampling the same event in different positions of code".  SPE adds
// random perturbation to the interval counter precisely to avoid bias
// (Figure 1); this harness quantifies that design choice:
//
//  * a synthetic loop touches K equally-hot code sites in a fixed rotation
//    whose length divides the sampling period - the worst case for a
//    deterministic counter (aliasing locks sampling onto a subset of
//    sites);
//  * with jitter disabled, the per-site sample distribution is strongly
//    skewed; with jitter enabled it converges to uniform.
//
// Printed metric: max/min per-site sample ratio (1.0 = unbiased) and the
// chi-square-like imbalance.
#include <array>
#include <cstdio>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "kernel/perf_abi.hpp"
#include "spe/aux_consumer.hpp"
#include "spe/sampler.hpp"

namespace {

constexpr std::size_t kSites = 8;
constexpr std::uint64_t kPeriod = 1024;  // divisible by kSites -> aliasing

struct BiasResult {
  double max_min_ratio = 0;
  double imbalance = 0;  // normalized stddev of site shares
  std::uint64_t samples = 0;
};

BiasResult run(bool jitter) {
  nmo::kern::PerfEventAttr attr;
  attr.type = nmo::kern::kPerfTypeArmSpe;
  attr.config = nmo::kern::kSpeConfigLoadsAndStores |
                (jitter ? nmo::kern::kSpeJitter : 0);
  attr.sample_period = kPeriod;
  attr.disabled = false;
  auto ev = nmo::kern::open_event(attr, 0, 4, 64 * 1024, 16ull << 20,
                                  nmo::kern::TimeConv::from_frequency(3e9), nullptr);
  nmo::spe::Sampler sampler(ev.get(), nmo::Rng(17));

  // The loop body: kSites memory operations at distinct PCs, repeated.
  std::uint64_t now = 0;
  constexpr std::uint64_t kIterations = 2'000'000;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    nmo::spe::OpInfo op;
    op.cls = nmo::spe::OpClass::kLoad;
    op.pc = 0x400000 + (i % kSites) * 4;     // code site identity
    op.vaddr = 0x10000 + (i % kSites) * 64;
    op.latency = 4;
    op.now_cycles = now += 3;
    sampler.on_mem_op(op);
  }
  sampler.flush(now + 100);
  ev->flush_aux(0);

  std::array<std::uint64_t, kSites> per_site{};
  nmo::spe::AuxConsumer consumer(
      [&](std::span<const nmo::spe::Record> records, nmo::CoreId) {
        for (const auto& r : records) per_site[(r.pc - 0x400000) / 4 % kSites]++;
      });
  consumer.drain(*ev);

  BiasResult res;
  res.samples = consumer.counts().records_ok;
  std::uint64_t mx = 0, mn = ~0ull;
  double mean = static_cast<double>(res.samples) / kSites, var = 0;
  for (auto c : per_site) {
    mx = std::max(mx, c);
    mn = std::min(mn, c);
    var += (static_cast<double>(c) - mean) * (static_cast<double>(c) - mean);
  }
  res.max_min_ratio = mn > 0 ? static_cast<double>(mx) / static_cast<double>(mn) : 1e9;
  res.imbalance = mean > 0 ? std::sqrt(var / kSites) / mean : 0;
  return res;
}

}  // namespace

int main() {
  nmo::bench::banner("Ablation / future work (section IX)",
                     "per-code-site sampling bias with and without perturbation");
  std::printf("%u code sites in rotation, period %llu (divisible -> aliasing risk)\n\n",
              static_cast<unsigned>(kSites), static_cast<unsigned long long>(kPeriod));
  nmo::bench::print_row({"perturbation", "samples", "max/min ratio", "imbalance"}, 16);
  const auto off = run(false);
  const auto on = run(true);
  char s1[32], r1[32], i1[32];
  std::snprintf(s1, sizeof(s1), "%llu", static_cast<unsigned long long>(off.samples));
  std::snprintf(r1, sizeof(r1), "%.2f", off.max_min_ratio);
  std::snprintf(i1, sizeof(i1), "%.3f", off.imbalance);
  nmo::bench::print_row({"off", s1, r1, i1}, 16);
  std::snprintf(s1, sizeof(s1), "%llu", static_cast<unsigned long long>(on.samples));
  std::snprintf(r1, sizeof(r1), "%.2f", on.max_min_ratio);
  std::snprintf(i1, sizeof(i1), "%.3f", on.imbalance);
  nmo::bench::print_row({"on", s1, r1, i1}, 16);
  std::printf("\n(A deterministic interval counter aliases with the loop body and\n"
              " samples a subset of sites; SPE's random perturbation restores a\n"
              " near-uniform distribution - the bias mechanism of section IX.)\n");
  return 0;
}
