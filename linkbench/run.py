#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see NOTES.md).

Run from the repository root:

  python3 linkbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 linkbench/run.py --self-check [--seconds <s>]

Every call builds the benchmark from source into .bench_build (CMake,
Release; only the first build compiles everything); build output goes to
stderr. A run's last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}. The exit code
is non-zero when the build fails or a correctness check fails.

--self-check runs every workload of BENCHMARK.json briefly in both modes
and asserts that the printed metric names and units are exactly the ones
BENCHMARK.json declares, that each run is correct, and that each
workload's `why` states the open-loop rate the benchmark uses.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "linkbench")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring an up-to-date tree is quick and changes nothing; doing
    # it every time also recovers from an interrupted first configure.
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "linkbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def run_benchmark(args, capture):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    try:
        proc = subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print("linkbench: run timed out", file=sys.stderr)
        return 1, None
    return proc.returncode, proc.stdout


def self_check(seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    modes = {0: bench["end_to_end"], 1: bench["per_layer"]}
    ok = True
    for workload in bench["workloads"]:
        name = workload["name"]
        peaks = {}
        for trace, declared in modes.items():
            code, out = run_benchmark(["--workload", name, "--seed", "1",
                                    "--seconds", str(seconds),
                                    "--trace", str(trace)], capture=True)
            lines = (out or "").strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"FAIL {name} trace={trace}: no result line")
                ok = False
                continue
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in declared}
            problems = []
            if code != 0 or not result["correct"]:
                problems.append(f"exit {code}, correct={result['correct']}")
            if printed != wanted:
                problems.append(f"metrics differ: missing "
                                f"{sorted(set(wanted) - set(printed))}, "
                                f"extra {sorted(set(printed) - set(wanted))}, "
                                f"units {[k for k in wanted if k in printed and printed[k] != wanted[k]]}")
            for line in lines:
                if line.startswith("detail open_loop.rate"):
                    rate = f"{float(line.split()[2]):g} links/s"
                    if rate not in workload["why"]:
                        problems.append(f"why does not state {rate}")
                if line.startswith("detail peak_links_per_s"):
                    peaks[trace] = float(line.split()[2])
            if "trace.peak_links_per_s" in result["metrics"]:
                peaks[trace] = result["metrics"]["trace.peak_links_per_s"]["value"]
            status = "FAIL" if problems else "ok"
            print(f"{status} {name} trace={trace}: {len(printed)} metrics"
                  + "".join(f"; {p}" for p in problems))
            ok = ok and not problems
        if len(peaks) == 2:
            print(f"   {name}: peak links/s measured {peaks[0]:.0f},"
                  f" traced {peaks[1]:.0f} ({peaks[1] / peaks[0]:.3f}x)")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv):
    args = argv[1:]
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"linkbench: build failed: {e}", file=sys.stderr)
        return 1
    if args and args[0] == "--self-check":
        seconds = args[args.index("--seconds") + 1] if "--seconds" in args else "3"
        return self_check(seconds)
    code, _ = run_benchmark(args, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
