#!/usr/bin/env python3
"""Check the benchmark's determinism and zero perturbation from outside.

For each workload, runs perfbench/run.py three times on one seed: twice
with --trace 0 and once with --trace 1. It fails (exit 1) unless:

- every run exits 0 and reports correct = true;
- every pass digest (cycles, statistics and per-ray results of a pass) is
  the same in all three runs, and within a run the untraced, traced and
  other-event-loop passes have the same digest;
- every model_* metric is the same in all three runs;
- the traced run reports trace.perturbation = 0.

Usage, from the repository root:

    python3 perfbench/check.py [--seed N] [workload ...]
"""

import argparse
import json
import re
import subprocess
import sys

RUN = [sys.executable, "perfbench/run.py"]
WORKLOADS = ["ao", "photon", "pathtrace", "ao_8sm"]


def run(workload, seed, trace):
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        result = {}
    digests = dict(re.findall(r"^digest (\w+): ([0-9a-f]+)$", p.stdout,
                              re.M))
    model = dict(re.findall(r"^\s+(model_\w+)\s+(\S+)", p.stdout, re.M))
    return p.returncode, result, digests, model, p.stderr


def check(workload, seed):
    problems = []
    runs = [run(workload, seed, t) for t in (0, 0, 1)]
    for i, (code, result, _, _, err) in enumerate(runs):
        if code != 0 or not result.get("correct"):
            problems.append(f"run {i}: exit {code}, correct="
                            f"{result.get('correct')}; stderr: "
                            f"{err.strip()[-500:]}")
    all_digests = [d for r in runs for d in r[2].values()]
    if not all_digests or len(set(all_digests)) != 1:
        problems.append(f"pass digests differ: {[r[2] for r in runs]}")
    if len({json.dumps(r[3], sort_keys=True) for r in runs}) != 1:
        problems.append(f"model metrics differ: {[r[3] for r in runs]}")
    exact = [{k: v["value"] for k, v in r[1].get("metrics", {}).items()
              if k.startswith("model_")} for r in runs[:2]]
    if exact[0] != exact[1] or not exact[0]:
        problems.append(f"model metrics differ in JSON: {exact}")
    traced = runs[2][1].get("metrics", {})
    if traced.get("trace.perturbation", {}).get("value") != 0:
        problems.append("trace.perturbation is not 0")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    failed = False
    for w in args.workloads:
        problems = check(w, args.seed)
        print(f"{w}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        failed = failed or bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
