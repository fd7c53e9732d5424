#!/usr/bin/env python3
"""Builds and runs the profiler benchmark for one workload and seed.

    python3 perfbench/run.py --workload capture-pagerank --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  The benchmark package (perfbench/) builds
the profiler library from ../src with its own CMake project into the
build directory ($CARGO_TARGET_DIR, default .bench_build), runs the
benchmark binary, and prints:

  * a header: git commit (or "none" outside a git checkout), a digest of
    the src/ tree, compiler, build type, nproc and NUMA node count;
  * every metric the run measured, by name and unit;
  * as the last line, one JSON object with exactly the keys correct,
    attempted, failed and metrics.  --trace 0 reports the end-to-end
    metrics; --trace 1 records spans (written as Chrome trace-event JSON
    under the build directory) and reports the per-layer metrics.

Exits 0 once a result line is printed; any other code means the
benchmark could not run (e.g. the profiler sources are missing).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("capture-pagerank", "sweep-cfd", "archive")

# End-to-end metrics and their units (the same every workload).
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "cpu_s": "s", "capture_mops_per_s": "Mops/s",
    "sweep_msel_per_s": "Msel/s", "spe_accuracy_pct": "%", "spe_overhead_pct": "%",
    "trace_bytes_per_sample": "B", "write_msamples_per_s": "Msamples/s",
    "read_msamples_per_s": "Msamples/s", "query_p50_ms": "ms", "query_p95_ms": "ms",
    "stream_msamples_per_s": "Msamples/s",
}

# Timed sections: each reports <section>.{wall_s,user_s,sys_s,nvcsw,nivcsw,work}.
SECTIONS = (
    "setup.inputs", "workloads.record", "mem.hierarchy", "sim.baseline", "core.profile",
    "sim.machine_build", "sim.stat_baseline", "spe.instrumented", "spe.decode",
    "spe.pool_decode", "store.write", "store.read", "store.query", "store.codec_compress",
    "store.codec_decompress", "net.stream",
)
# Sections whose wall time already has a named per-layer metric.
NAMED_WALL = {
    "workloads.record", "mem.hierarchy", "sim.baseline", "sim.machine_build",
    "sim.stat_baseline", "store.write", "store.read", "store.query", "net.stream",
}

PER_LAYER = (
    "workloads.record_s", "workloads.maccesses",
    "mem.hierarchy_s", "mem.hierarchy_maccess_per_s",
    "mem.l1_pct", "mem.l2_pct", "mem.slc_pct", "mem.dram_pct",
    "sim.baseline_s", "sim.replay_self_s", "sim.stat_baseline_s", "sim.machine_build_s",
    "spe.sampling_s", "spe.selections", "spe.written_pct", "spe.dropped_full",
    "spe.collisions", "spe.truncated_flags", "spe.decode_stalls",
    "spe.decode_mrec_per_s", "spe.pool_decode_mrec_per_s", "spe.pool_sys_s",
    "kernel.wakeups", "kernel.aux_records", "kernel.monitor_services",
    "store.write_s", "store.read_s", "store.blocks",
    "store.codec_compress_mb_per_s", "store.codec_decompress_mb_per_s",
    "store.compress_ratio", "store.query_total_s", "store.query_blocks_skipped_pct",
    "store.query_scanned_per_matched",
    "net.stream_s", "net.wire_bytes_per_sample", "net.frames", "net.blocks_dropped",
    "net.collector_bytes",
    "trace.overhead_pct", "trace.spans",
) + tuple(
    f"{s}.{f}" for s in SECTIONS
    for f in (("work", "user_s", "sys_s", "nvcsw", "nivcsw")
              + (() if s in NAMED_WALL else ("wall_s",)))
)

RUN_TIMEOUT_S = 165.0  # the benchmark binary's own limit; a run must end within 180 s


def unit_of(name):
    """Unit of a metric, by its name."""
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in ((".nvcsw", "count"), (".nivcsw", "count"), (".work", "count"),
                         ("_mb_per_s", "MB/s"), ("_mrec_per_s", "Mrec/s"),
                         ("_maccess_per_s", "M/s"), ("_pct", "%"), ("_s", "s"),
                         ("_bytes_per_sample", "B"), ("_bytes", "B"), ("_ratio", "x"),
                         ("_per_matched", "x"), ("maccesses", "M")):
        if name.endswith(suffix):
            return unit
    return "count"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_digest(root):
    h = hashlib.sha1()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(root, build_dir, deadline):
    """Configures and builds the benchmark binary; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    )
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"build step failed: {' '.join(cmd)}: {exc}")
            return None
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(build_dir, "nmo_perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "core", "session.hpp")):
        log("profiler sources (src/) not found next to perfbench/")
        return 2
    # The first run in a checkout builds; later runs find the build current.
    binary = build(root, build_dir, start + 850.0)
    if binary is None:
        return 3

    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(build_root, "work", tag)
    trace_path = os.path.join(build_root, "traces", f"{tag}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir]
    if args.trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd += ["--trace-out", trace_path]
    run_start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded its deadline")
        return 4
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(proc.stdout[-4000:])
        log(f"benchmark binary exited {proc.returncode} without a result")
        return 5

    header = report["header"]
    print(f"commit        {git_commit(root)}")
    print(f"src digest    {source_digest(root)}")
    print(f"compiler      {header['compiler']}")
    print(f"build type    {header['build_type']}")
    print(f"nproc         {header['nproc']}")
    print(f"numa nodes    {header['numa_nodes']}")
    print(f"workload      {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  run wall {time.monotonic() - run_start:.1f} s")
    for line in lines[:-1]:
        print(line)

    measured = report["metrics"]
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    missing = []
    for name in wanted:
        if name in measured:
            metrics[name] = {"value": measured[name]["value"], "unit": unit_of(name)}
        elif args.trace:
            # A layer this workload never enters did no work: report zero.
            metrics[name] = {"value": 0.0, "unit": unit_of(name)}
        else:
            missing.append(name)
    correct = proc.returncode == 0 and report["failed"] == 0 and not missing
    if not args.trace:
        zero = [n for n, m in metrics.items() if not m["value"] > 0]
        correct = correct and not zero
        for n in zero:
            print(f"FAILED: end-to-end metric {n} is not positive")
    else:
        print(f"trace file    {os.path.relpath(trace_path, root)}"
              f"  layers {','.join(report['span_layers'])}")
    for n in missing:
        print(f"FAILED: end-to-end metric {n} was not measured")
    result = {
        "correct": bool(correct),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
