"""Repeatability check of the traced benchmark.

For each workload named, runs ``perfbench/run.py --trace 1`` twice with one
seed and once with another, one run at a time, and checks that

- the two same-seed runs report identical counts (every per-layer metric
  with unit ``count`` or ``bytes``: calls, faces, nnz, rank, candidates,
  found, ...);
- the other seed generates different inputs (``inputs_sha256`` differs);
- the layer self times plus ``bench.self_s`` account for the traced wall
  time of a pass.

Usage, from the repository root:

    python3 perfbench/check_repeat.py [--seed N] [--other-seed M] [--seconds S] WORKLOAD...
"""

import argparse
import json
import subprocess
import sys

COUNT_UNITS = ("count", "bytes")
# Self times and the wall time are medians over traced passes, so the sum
# of the parts matches the whole only to within pass-to-pass noise.
ACCOUNT_TOLERANCE = 0.1


def traced_run(workload, seed, seconds):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    ok = True
    for wl in args.workloads:
        info1, m1 = traced_run(wl, args.seed, args.seconds)
        info2, m2 = traced_run(wl, args.seed, args.seconds)
        info3, _ = traced_run(wl, args.other_seed, args.seconds)
        counts1 = {k: v["value"] for k, v in m1.items() if v["unit"] in COUNT_UNITS}
        counts2 = {k: v["value"] for k, v in m2.items() if v["unit"] in COUNT_UNITS}
        differ = sorted(k for k in counts1 if counts1[k] != counts2[k])
        same_inputs = info1["inputs_sha256"] == info2["inputs_sha256"]
        new_inputs = info3["inputs_sha256"] != info1["inputs_sha256"]
        parts = sum(v["value"] for k, v in m1.items() if k.endswith(".self_s"))
        whole = m1["trace.traced_wall_s"]["value"]
        accounted = abs(parts - whole) <= ACCOUNT_TOLERANCE * whole
        print(f"{wl}: {len(counts1)} counts, identical across same-seed runs: {not differ}"
              + (f" (differ: {differ})" if differ else ""))
        print(f"{wl}: same seed, same inputs: {same_inputs}; seed {args.other_seed} changes inputs: {new_inputs}")
        print(f"{wl}: self times + bench.self_s = {parts:.3f} s, traced wall {whole:.3f} s, "
              f"untraced wall {m1['trace.untraced_wall_s']['value']:.3f} s, "
              f"overhead {m1['trace.overhead_s']['value']:+.3f} s")
        ok = ok and not differ and same_inputs and new_inputs and accounted
    print("repeatability check:", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
