#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark on tiny corpora.

    python3 perfbench/selftest.py

For every workload, runs run.py at 200 clean movies with tracing off and
on, and checks that
  * the run passes its own checks (1- and 4-thread iterations identical),
  * exactly the metrics BENCHMARK.json names are printed, with its units,
  * the layer ledger closes: ledger.closure_pct <= 2 and
    kg.s + sw.s + tc.s + detect.other_s == detect.s,
  * the report carries host metadata and per-candidate precision/recall.
Finally it checks that run.py fails, printing no result, in a directory
holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ARTIFACTS = os.path.join(ROOT, ".bench_build", "artifacts")
MOVIES = 200


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--movies", str(MOVIES)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def check_workload(spec, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run(workload, trace)
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 1, result
        units = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == units, f"{workload}: metric names/units differ"
        values = {name: m["value"] for name, m in result["metrics"].items()}
        if trace == 1:
            for t in ("t1", "t4"):
                assert values[f"ledger.closure_pct.{t}"] <= 2.0, values
                parts = sum(values[f"{layer}.{t}"] for layer in
                            ("kg.s", "sw.s", "tc.s", "detect.other_s"))
                assert abs(parts - values[f"detect.s.{t}"]) <= 1e-9, values
        else:
            assert values["ok_frac"] == 1.0, values
            assert 0.0 < values["f_measure"] <= 1.0, values

        name = f"{workload}-seed3-trace{trace}.report.json"
        with open(os.path.join(ARTIFACTS, name)) as f:
            report = json.load(f)
        host = report["host"]
        assert host["hardware_threads"] >= 1 and host["simd_backend"], host
        assert report["seeds"]["held_out_seed"] != report["seeds"]["seed"]
        assert report["samples_s"]["t1"] and report["samples_s"]["t4"]
        for m in report["quality"]["candidates"].values():
            assert 0.0 <= m["precision"] <= 1.0 and 0.0 <= m["recall"] <= 1.0
    print(f"ok  {workload}")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dirty_movies",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0, "run.py succeeded without sources"
        assert '"correct"' not in proc.stdout, "printed a result anyway"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory fails cleanly")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        check_workload(spec, workload["name"])
    check_bare_directory()


if __name__ == "__main__":
    main()
