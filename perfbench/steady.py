#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one build, compared.

    python3 perfbench/steady.py

Runs the benchmark command from BENCHMARK.json (with --trace 0) ten
times per set, two sets, on every workload, each run with its own seed
(1, 2, 3, ... in order), one run at a time.  For each workload and
end-to-end metric it prints each set's median and quartiles and the
quartile spread as a share of the median.  Then it says whether the
sets agree: every spread within the metric's bound, the two medians
apart by no more than the bound in either direction, and the same share
of failed operations in every run.  Exits 1 when they do not agree.
Run it from the root of a checkout.
"""

import json
import statistics
import subprocess
import sys

SETS = 2
RUNS = 10


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"steady: {workload} seed {seed} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ok = True
    seed = 1
    for w in (w["name"] for w in bench["workloads"]):
        sets = []
        for _ in range(SETS):
            runs = []
            for _ in range(RUNS):
                runs.append(run_once(bench["command"], w, seed, bench["run_seconds"]))
                seed += 1
            sets.append(runs)
        print(f"== {w}")
        first = sets[0][0]
        same_share = all(r["failed"] * first["attempted"] == first["failed"] * r["attempted"]
                         for runs in sets for r in runs)
        print(f"   failed share {first['failed']}/{first['attempted']}"
              f" {'same in every run' if same_share else 'DIFFERS'}")
        ok &= same_share
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for i, runs in enumerate(sets):
                q1, q2, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
                meds.append(q2)
                flag = "" if spread <= bound else "  SPREAD>BOUND"
                ok &= flag == ""
                print(f"   {name:16s} set{i + 1}: median {q2:.6g} {m['unit']}"
                      f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f} (bound {bound}){flag}")
            apart = abs(meds[1] - meds[0]) / meds[0]
            agree = apart <= bound
            ok &= agree
            print(f"   {name:16s} set2 vs set1: {(meds[1] - meds[0]) / meds[0]:+.3f}"
                  f" {'agrees' if agree else 'DISAGREES'}")
    print("steady: sets agree within the bounds" if ok else "steady: sets DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
