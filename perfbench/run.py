#!/usr/bin/env python3
"""End-to-end SXNM benchmark: XML bytes in, de-duplicated XML out.

Builds the sxnm_e2e program from this checkout (CMake, into .bench_build/
at the repository root) and runs one workload:

    python3 perfbench/run.py --workload dirty_movies --seed 7 \\
        --seconds 45 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger
(see README.md in this directory). The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the exit code is 0
only when every check passed. --held-out replaces --seed with the seed
kept out of development. Reports and Chrome traces land in
.bench_build/artifacts/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
ARTIFACTS = os.path.join(BUILD, "artifacts")
BINARY = os.path.join(BUILD, "sxnm_e2e")
RUN_TIMEOUT_S = 170


def die(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"engine sources not found under {ROOT}/src; run from a full "
            "checkout of the repository", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "sxnm_e2e"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as done:
                    sys.stderr.write("".join(done.readlines()[-30:]))
                die(f"build failed (full log: {log_path})", 3)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_digest():
    """SHA-256 over the engine and benchmark sources, so a report names
    the code it measured even where there is no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--held-out", action="store_true",
                        help="use the seed kept out of development")
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--movies", type=int, default=0,
                        help="clean movies (0 = the workload's size)")
    args = parser.parse_args()

    build()
    os.makedirs(ARTIFACTS, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--artifacts", ARTIFACTS, "--movies", str(args.movies),
               "--setups", "1" if args.trace else "3",
               "--git-commit", git_commit(),
               "--source-digest", source_digest()]
    if args.held_out:
        command.append("--held-out")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"sxnm_e2e did not finish within {RUN_TIMEOUT_S} s", 4)

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(run.stdout)
        die(f"sxnm_e2e printed no result (exit code {run.returncode})", 5)
    for line in lines[:-1]:
        print(line)

    mismatch = expected_metrics(args.trace) ^ set(result["metrics"])
    if mismatch:
        print(f"perfbench: metric set differs from BENCHMARK.json: "
              f"{sorted(mismatch)}", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    ok = run.returncode == 0 and result["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
