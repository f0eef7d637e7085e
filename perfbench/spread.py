#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread (interquartile range / median) against its bound.

    python3 perfbench/spread.py --workloads paced_put,incast --seeds 1-10 [--out runs.json]

Run from the repository root. Uses the command and run length recorded in
BENCHMARK.json. A spread above the bound (setup_s excepted) means the
metric is too unsteady to gate on; the aim is a spread below a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    ok = True
    for w in args.workloads.split(","):
        values = runs.setdefault(w, {})
        for s in args.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            r = subprocess.run(cmd, capture_output=True, text=True)
            result = json.loads(r.stdout.strip().splitlines()[-1]) if r.stdout.strip() else {}
            if r.returncode != 0 or not result.get("correct"):
                print(f"{w} seed {s}: FAILED (exit {r.returncode})\n{r.stderr[-2000:]}")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {s}: ok", flush=True)
        for name, v in values.items():
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            verdict = "" if name == "setup_s" or spread <= bounds[name] / 3 else \
                " (above a third of the bound)" if spread <= bounds[name] else " (ABOVE THE BOUND)"
            ok &= name == "setup_s" or spread <= bounds[name]
            print(f"  {w:13s} {name:22s} median {med:<14.6g} spread {spread:.3f}"
                  f" bound {bounds[name]}{verdict}")
    if args.out:
        json.dump(runs, open(args.out, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
