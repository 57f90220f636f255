"""Repeat one workload and show whether its end-to-end metrics are steady.

    python3 bench/repeat.py --workload NAME [--runs 10] [--sets 2]

Runs bench/run.py --runs times per set, at BENCHMARK.json's run_seconds,
for --sets sets; the seeds run 1, 2, 3, ... across the sets.  For every
end-to-end metric it prints, per set, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread, the quartile distance
as a share of the median, against the metric's bound from BENCHMARK.json;
and, from the second set on, how much worse the set's median is than the
first set's, against the same bound.  It also prints
each set's share of failed operations, which must be identical.  Raw
results go to bench/out/repeat-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"run with seed {seed} exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()

    sets: list[list[dict]] = []
    seconds = declared["run_seconds"]
    seed = 1
    for set_index in range(args.sets):
        results = []
        for _ in range(args.runs):
            result = run_once(args.workload, seed, seconds, 0)
            results.append(result)
            print(f"set {set_index + 1} seed {seed}: " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
            seed += 1
        sets.append(results)

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"repeat-{args.workload}.json").write_text(json.dumps(sets, indent=1), encoding="utf-8")

    print(f"\n{args.workload}: {args.runs} runs per set, {seconds} s each")
    header = f"{'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'worse':>7} {'bound':>6}  verdict"
    print(header)
    steady = True
    first_median: dict[str, float] = {}
    for metric in declared["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        for set_index, results in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdicts = ["spread ok" if spread <= bound else "SPREAD OVER BOUND"]
            if spread > bound / 3:
                verdicts.append("(above a third of the bound)")
            worse_text = ""
            if set_index == 0:
                first_median[name] = median
            else:
                base = first_median[name]
                worse = (median - base) / base if lower else (base - median) / base
                worse_text = f"{worse:+.3f}"
                verdicts.append("median ok" if worse <= bound else "MEDIAN WORSE THAN BOUND")
            steady &= not any(v.isupper() for v in verdicts)
            print(f"{name:<18} {set_index + 1:>3} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {worse_text:>7} {bound:>6}  {' '.join(verdicts)}")
    shares = []
    for set_index, results in enumerate(sets):
        shares.append({Fraction(r["failed"], r["attempted"]) for r in results})
        print(f"set {set_index + 1}: failed shares {sorted(map(str, shares[-1]))}, correct {all(r['correct'] for r in results)}")
    same_share = len(set().union(*shares)) == 1
    print("failed share identical across runs" if same_share else "FAILED SHARE DIFFERS")
    print("STEADY" if steady and same_share else "NOT STEADY")
    return 0 if steady and same_share else 1


if __name__ == "__main__":
    sys.exit(main())
