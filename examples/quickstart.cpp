// Quickstart: profile a small STREAM run end-to-end with NMO.
//
// Demonstrates the whole public surface in ~60 lines:
//   1. configure NMO through environment variables (Table I) or directly;
//   2. build a ProfileSession over the simulated ARM machine;
//   3. run an annotated workload (Listing 1's nmo_tag_addr / nmo_start);
//   4. read back accuracy, overhead, the sample trace and its fingerprint.
//
// Try:  NMO_PERIOD=1024 NMO_MODE=all NMO_ENABLE=1 ./example_quickstart
#include <cstdio>

#include "core/session.hpp"
#include "workloads/stream.hpp"

int main() {
  // 1. Configuration: environment first (Table I), with sane fallbacks so
  //    the example works without any setup.
  nmo::core::NmoConfig config = nmo::core::NmoConfig::from_env(nmo::Env{});
  if (!config.enable) {
    // The default demo uses a short period and small aux buffers so the
    // run crosses aux watermarks and the monitor's drain rounds are
    // visible in a few milliseconds of simulated time.
    std::printf("NMO_ENABLE not set - using built-in defaults "
                "(NMO_ENABLE=1 NMO_MODE=all NMO_PERIOD=256 NMO_AUXBUFSIZE=262144)\n");
    config.enable = true;
    config.mode = nmo::core::Mode::kAll;
    config.period = 256;
    config.auxbufsize_bytes = 256 * 1024;
  }
  if (config.period == 0) config.period = 1024;

  // 2. The simulated machine: 8 cores of the Ampere-class model, with
  //    monitor rounds dense enough to service the small demo buffers.
  nmo::sim::EngineConfig engine;
  engine.threads = 8;
  engine.machine.hierarchy.cores = 8;
  engine.machine.cost.monitor_round_interval_cycles = 1'000'000;

  // 3. Run an annotated workload.
  nmo::wl::StreamConfig scfg;
  scfg.array_elems = 1 << 18;
  scfg.iterations = 3;
  nmo::wl::Stream stream(scfg);

  nmo::core::ProfileSession session(config, engine);
  const auto report = session.profile(stream, /*with_baseline=*/true);

  // 4. Results.
  std::printf("\n=== NMO quickstart report ===\n");
  std::printf("memory ops executed : %llu\n",
              static_cast<unsigned long long>(report.mem_ops));
  std::printf("mem_access counted  : %llu (perf-stat baseline)\n",
              static_cast<unsigned long long>(report.mem_counted));
  std::printf("samples processed   : %llu at period %llu\n",
              static_cast<unsigned long long>(report.processed_samples),
              static_cast<unsigned long long>(report.period));
  std::printf("sampling accuracy   : %.2f%%   (Eq. 1 of the paper)\n",
              report.accuracy() * 100.0);
  std::printf("time overhead       : %.2f%%\n", report.time_overhead() * 100.0);
  std::printf("trace fingerprint   : %s\n",
              session.profiler().trace().fingerprint().c_str());
  std::printf("capacity peak       : %llu bytes\n",
              static_cast<unsigned long long>(session.profiler().capacity().peak_bytes()));
  std::printf("bandwidth peak      : %.2f GiB/s\n",
              session.profiler().bandwidth().peak_gib_per_s());
  std::printf("scheduler placement : %s (queue wait %.3f ms, worker %u) - "
              "see example_multi_session for the bounded pool\n",
              std::string(nmo::core::to_string(report.sched_state)).c_str(),
              static_cast<double>(report.sched_queue_wait_ns) / 1e6, report.sched_worker);
  std::printf("\nSanity: STREAM still computed the right answer: a[0] = %.4f (expect %.4f)\n",
              stream.a()[0], nmo::wl::Stream::expected_a(scfg.iterations, scfg.scalar));

  // 5. Sharded decode (spe/decode_pool.hpp) must reproduce the inline
  //    (one-shard) trace bit-for-bit: same samples, same canonical order,
  //    same MD5 fingerprint.
  engine.decode_shards = 4;
  nmo::wl::Stream stream_par(scfg);
  nmo::core::ProfileSession session_par(config, engine);
  const auto report_par = session_par.profile(stream_par, /*with_baseline=*/false);
  const std::string serial_md5 = session.profiler().trace().fingerprint();
  const std::string parallel_md5 = session_par.profiler().trace().fingerprint();
  std::printf("parallel decode (4 shards) fingerprint: %s -> %s\n", parallel_md5.c_str(),
              parallel_md5 == serial_md5 ? "matches serial" : "MISMATCH");
  std::printf("decode backpressure : %llu producer queue-full spins\n",
              static_cast<unsigned long long>(report_par.decode_stalls));

  return parallel_md5 == serial_md5 ? 0 : 1;
}
