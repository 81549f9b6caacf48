#!/usr/bin/env python3
"""The benchmark's own test (about three minutes; run from anywhere).

    python3 perfbench/test_perfbench.py

Re-derives decode-fn's pinned token digests from the float32 reference
model, runs every workload once at a seed never used while the
benchmark was tuned, checks that a repeated serve gives bit-identical
simulated results, that a traced run reports every per-layer metric
with a loadable trace, and that timed runs refuse the environment
knobs.
"""

import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

HELD_OUT_SEED = 987654321
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed=HELD_OUT_SEED, trace=0, env=None):
    """Runs run.py; returns (exit code, parsed stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, env=env)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    return proc.returncode, lines


class PerfbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())

    def test_reference_digests_match_pinned(self):
        source = (BENCH / "src" / "decode_fn.cpp").read_text()
        table = source[source.index("kDigests[kPoolSize]"):]
        pinned = re.findall(r"0x([0-9a-f]{16})ull", table[:table.index("};")])
        out = subprocess.run([str(self.binary), "--reference-digests"],
                             capture_output=True, text=True, check=True)
        derived = [l.split()[1][2:] for l in out.stdout.splitlines()]
        self.assertEqual(derived, pinned)

    def test_held_out_seed_every_workload(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, lines = bench(w["name"])
                self.assertEqual(code, 0)
                result = lines[-1]
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), names)
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)
                self.assertIn("avx512_fp16", lines[-2]["host"]["isa_flags"])

    def test_serve_repeats_simulated_results(self):
        runs = [bench("serve-345m-paged")[1] for _ in range(2)]
        sims = [{k: v["value"] for k, v in r[-1]["metrics"].items()
                 if k.startswith("sim_")} for r in runs]
        self.assertEqual(sims[0], sims[1])
        self.assertEqual(runs[0][-2]["info"]["prefix_hits"],
                         runs[1][-2]["info"]["prefix_hits"])

    def test_traced_run_reports_layers_and_trace(self):
        code, lines = bench("decode-fn", trace=1)
        self.assertEqual(code, 0)
        self.assertEqual(set(lines[-1]["metrics"]),
                         {m["name"] for m in SPEC["per_layer"]})
        self.assertGreater(lines[-1]["metrics"]["core.mpu_ms_per_step"]
                           ["value"], 0)
        trace = json.loads((ROOT / lines[-2]["trace_file"]).read_text())
        pids = {e.get("pid") for e in trace["traceEvents"]}
        self.assertEqual(pids, {0, 1})
        requests = {e["args"]["request"] for e in trace["traceEvents"]
                    if "request" in e.get("args", {})}
        self.assertTrue(requests)

    def test_refuses_environment_knobs(self):
        for knob in run.REFUSED_ENV:
            with self.subTest(knob=knob):
                env = dict(os.environ, **{knob: "1"})
                code, lines = bench("decode-fn", env=env)
                self.assertEqual(code, 2)
                self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
