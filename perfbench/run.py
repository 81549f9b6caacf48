#!/usr/bin/env python3
"""Builds and runs the DFX simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The benchmark binary is built from source
with CMake into `$CARGO_TARGET_DIR/perfbench` (default
`.bench_build/perfbench`). The last stdout line is one JSON object with
exactly the keys `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics of BENCHMARK.json for `--trace 0`, its per-layer
metrics for `--trace 1`. The line before it names the host, compiler,
build and SIMD kernel that produced the numbers. A failed correctness
check, a failed build or a refused environment exits non-zero without a
result line.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# Environment knobs that change what the simulator measures: a trace
# slows every step, forced scalar kernels change the hot path, and a
# weight cache file skips weight generation in set-up.
REFUSED_ENV = ("DFX_TRACE", "DFX_FORCE_SCALAR", "DFX_WEIGHT_CACHE")
DEADLINE_S = 170.0
CPU_FLAGS = ("avx2", "f16c", "fma", "avx512f", "avx512bw", "avx512_fp16")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def build(out):
    cache = out / "CMakeCache.txt"
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "dfx_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 3)
    return out / "dfx_perfbench"


def cmake_cache(out):
    values = {}
    try:
        text = (out / "CMakeCache.txt").read_text()
    except OSError:
        return values
    for line in text.splitlines():
        m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line)
        if m:
            values[m.group(1)] = m.group(2)
    return values


def compiler(out):
    for f in sorted((out / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake")):
        text = f.read_text()
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if cid and ver:
            return f"{cid.group(1)} {ver.group(1)}"
    return "unknown"


def commit():
    # The ceiling keeps git from reporting an enclosing repository's
    # commit when this checkout is not a repository itself.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fingerprint(out, kernel):
    model, flags = platform.processor() or "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                model = value.strip()
            elif key.strip() == "flags":
                flags = set(value.split())
    except OSError:
        pass
    return {
        "cpu_model": model,
        "vcpus": os.cpu_count(),
        "isa_flags": {f: f in flags for f in CPU_FLAGS},
        "simd_kernel": kernel,
        "compiler": compiler(out),
        "build_type": cmake_cache(out).get("CMAKE_BUILD_TYPE", "unknown"),
        "commit": commit(),
    }


def merge_traces(trace_dir, workload, seed):
    """Overlays the simulator's and the benchmark's span files."""
    events = []
    for part in ("sim", "bench"):
        path = trace_dir / f"{workload}.{part}.json"
        events += json.loads(path.read_text())["traceEvents"]
        path.unlink()
    merged = trace_dir / f"{workload}-seed{seed}.json"
    merged.write_text(json.dumps({"displayTimeUnit": "ms",
                                  "traceEvents": events}))
    return merged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    refused = [k for k in REFUSED_ENV if os.environ.get(k)]
    if refused:
        fail(f"refusing a timed run with {', '.join(refused)} set", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    trace_dir = out / "traces"
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-dir", str(trace_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, cwd=ROOT,
                              timeout=max(1.0, DEADLINE_S -
                                          (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        fail("the benchmark binary ran out of time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"the benchmark binary failed (exit {proc.returncode}); "
             "its checks are on stderr")
    run = json.loads(lines[-1])
    if not run["correct"]:
        fail("correctness checks failed: " + "; ".join(run["errors"]))

    # BENCHMARK.json is the one list of metric names and units. A traced
    # run reads a layer the workload does not exercise as 0; an untraced
    # run must measure every end-to-end metric.
    metrics = run["metrics"]
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        fail(f"metrics BENCHMARK.json does not list: {sorted(extra)}")
    for m in wanted:
        got = metrics.setdefault(m["name"], {"value": 0.0, "unit": m["unit"]}
                                 if args.trace else None)
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
    metrics = {m["name"]: metrics[m["name"]] for m in wanted}

    record = {"workload": args.workload, "seed": args.seed,
              "trace": bool(args.trace),
              "host": fingerprint(out, run["simd_kernel"]),
              "info": run["info"]}
    if args.trace:
        record["trace_file"] = os.path.relpath(
            merge_traces(trace_dir, args.workload, args.seed), ROOT)
    print(json.dumps(record))
    print(json.dumps({"correct": True, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
