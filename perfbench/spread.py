"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it.

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each end-to-end metric of BENCHMARK.json the median, the quartiles and the
interquartile range as a share of the median, next to the metric's bound.

Usage, from the repository root:

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_of, default=seeds_of("1-10"))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("--seeds: a spread needs at least two seeds")
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        row = []
        for name in values:
            values[name].append(result["metrics"][name]["value"])
            row.append(f"{name}={values[name][-1]:.4g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med
        mark = "ok" if share < m["bound"] / 3 else ("within bound" if share <= m["bound"] else "TOO WIDE")
        print(f"{args.workload} {m['name']}: median {med:.4g} {m['unit']}, "
              f"quartiles {q1:.4g}..{q3:.4g}, spread {share:.3f} of median, bound {m['bound']} ({mark})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
