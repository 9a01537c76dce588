#!/usr/bin/env python3
"""Runs the whole miso-e2e set and reports it; `run.sh` calls this.

Every workload gets two processes of its own: a timed run (end-to-end
metrics) and a traced run (per-layer metrics). Each prints its own table;
the results are gathered into `out/summary.json`. With `--selfcheck` the
set runs twice on the same build and the two are compared against the
bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Per-layer metrics that must repeat exactly between two runs of one build:
# everything counted by the program or its cost model, except what depends
# on thread scheduling. Two tuner threads that miss the what-if memo on the
# same key both compute it, so the optimizer calls below the memo vary by a
# few per 10^4 on serve_warm; `proc.*` and `obs.events` count thread work.
EXACT_UNITS = {"count", "bytes", "sim_s", "1/sim_s", "MB"}
NOT_EXACT = ("proc.", "obs.events", "optimizer.calls", "optimizer.cost_evals",
             "plan.split_enumerations")


def run_once(binary, workload, seed, seconds, trace):
    """One process; prints its table, returns its result object."""
    cmd = [binary, "--out", OUT, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} --trace {trace}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in declared):
        sys.exit(f"{workload} --trace {trace}: metric names differ from BENCHMARK.json")
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} --trace {trace}: {result['failed']} of "
                 f"{result['attempted']} operations failed")
    return result


def run_set(binary, workloads, seed, seconds):
    return {
        w: {"end_to_end": run_once(binary, w, seed, seconds, 0),
            "per_layer": run_once(binary, w, seed, seconds, 1)}
        for w in workloads
    }


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def selfcheck(first, second):
    """Prints both sets side by side; returns the disagreements."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    problems = []
    print(f"\n{'workload':<14} {'metric':<30} {'first':>16} {'second':>16} {'change':>9}")
    for workload in first:
        for kind in ("end_to_end", "per_layer"):
            a, b = values(first[workload][kind]), values(second[workload][kind])
            units = {n: m["unit"] for n, m in first[workload][kind]["metrics"].items()}
            for name in a:
                change = (b[name] - a[name]) / a[name] if a[name] else 0.0
                exact = name == "sim_s" or (
                    kind == "per_layer" and units[name] in EXACT_UNITS
                    and not name.startswith(NOT_EXACT))
                verdict = ""
                if exact and a[name] != b[name]:
                    verdict = "  must repeat exactly"
                elif name in bounds and abs(change) > bounds[name]:
                    verdict = f"  beyond bound {bounds[name]}"
                if verdict:
                    problems.append(f"{workload} {name}: {a[name]} vs {b[name]}{verdict}")
                print(f"{workload:<14} {name:<30} {a[name]:>16.6f} {b[name]:>16.6f} "
                      f"{change:>+9.2%}{verdict}")
    return problems


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bin", required=True, help="the built miso-e2e binary")
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=0x5EED2014)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    workloads = [args.workload] if args.workload else names
    sets = [run_set(args.bin, workloads, args.seed, args.seconds)
            for _ in range(2 if args.selfcheck else 1)]
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "summary.json"), "w") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "cores": os.cpu_count(), "sets": sets}, f, indent=1)
    if args.selfcheck:
        problems = selfcheck(*sets)
        if problems:
            sys.exit("selfcheck failed:\n  " + "\n  ".join(problems))
        print("\nselfcheck passed: both sets agree within the bounds")


if __name__ == "__main__":
    main()
