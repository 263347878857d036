#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny size.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it runs perfbench/run.py with
--size tiny for one second, untraced and traced (twice), and asserts that
the last output line is the JSON result with exactly the expected keys, that
the correctness checks passed, that every metric named in BENCHMARK.json is
printed with its unit, and that exact counts repeat between the two traced
runs.  Exits non-zero on the first failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = {"count", "B", "cycles", "1/cycle"}
EXACT_NAMES = {"core.cache_hit_ratio"}


def run(workload, trace, seed=3):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check(workload, trace, result, spec):
    where = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: correctness checks failed"
    assert result["failed"] == 0 and result["attempted"] >= 1, where
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    assert set(got) == set(want), f"{where}: metrics {sorted(set(got) ^ set(want))}"
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{where}: {name} unit"
        v = got[name]["value"]
        assert isinstance(v, (int, float)) and math.isfinite(v), f"{where}: {name}"
        if trace == 0:
            assert v > 0, f"{where}: {name} is {v}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        lines, res = run(name, 0)
        check(name, 0, res, bench["end_to_end"])
        digest = [l for l in lines if l.startswith("output digest")]
        traced = []
        for _ in range(2):
            lines, res = run(name, 1)
            check(name, 1, res, bench["per_layer"])
            traced.append(res["metrics"])
            if digest:
                assert digest == [l for l in lines if l.startswith("output digest")], \
                    f"{name}: output digest differs between runs"
        for m in bench["per_layer"]:
            if m["unit"] in EXACT_UNITS or m["name"] in EXACT_NAMES:
                a, b = (t[m["name"]]["value"] for t in traced)
                assert a == b, f"{name}: {m['name']} not exact ({a} vs {b})"
        print(f"ok  {name}")
    print("selftest: all workloads ok")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"selftest FAILED: {e}", file=sys.stderr)
        sys.exit(1)
