"""Benchmark for tphi: one workload per process, one client in a closed loop.

Usage, from the root of a checkout (tphi is imported from ./src):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pipeline-large, sweep-small, matroid, cli-files (workloads.py
says what each runs; BENCHMARK.json says why).  The loop starts an item
only after the previous one has finished, in one process with no threads;
cli-files runs one child process at a time.  Passes over the items repeat
while the next pass is projected to end within --seconds; there is always
at least one.

Times are scaled to a fixed host speed.  The host is shared: for tens of
seconds at a time other tenants make the same code take up to twice as
long, longer than a run lasts, so no statistic over one run's raw times is
steady from run to run (on a 2-vCPU VM, the quartiles of raw wall_s over
six runs lay 35% of the median apart).  The benchmark therefore times a
fixed pure-Python reference loop (no tphi code) at item boundaries, at
least every REF_EVERY_S, and divides each item's time by the host's
slowness around it: the mean of the reference samples before and after
the item, over REF_S, the loop's time on an idle host.  On an idle host the
scaled time is the raw time; a change to tphi moves the scaled time as
much as the raw one, since the loop does not run tphi.  The raw figures
are in the info line.  The process and its CLI children keep to one CPU,
the one the reference loop times.  Set-up objects are frozen out of the
garbage collector, so their number does not tax the timed items.

--trace 0 prints the end-to-end metrics:
  setup_s       the median of SETUP_REPEATS set-ups, each a fresh import of
                tphi and this benchmark's modules plus a generation of the
                seeded inputs, each scaled
  wall_s        seconds for one pass: the sum of the item latencies, where
                an item's latency is the median of its scaled times over
                the run's untraced passes
  item_ms_p50, item_ms_p90
                quantiles of the item latencies (interpolated, inclusive)
  peak_rss_mb   peak RSS of this process; for cli-files, of the largest child
--trace 1 alternates untraced and traced passes (at least one of each) and
prints the per-layer metrics of spans.py: calls and self time of each
wrapped tphi function per traced pass, the counts read at those
boundaries, CLI process figures, and the tracing overhead.  These are
medians over the traced passes, so that the layers add up to the traced
wall time of a pass.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it is {"info": ...} with the run's provenance.  The exit
status is 0 when every item matched its oracle, 1 when one did not (each
failing item is named on stderr), and 2 when ./src holds no tphi.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 5
# The reference loop: REF_LOOPS iterations make one run; a sample is the
# fastest of REF_RUNS runs, which drops runs hit by an interrupt.
REF_LOOPS = 600
REF_RUNS = 4
REF_EVERY_S = 0.05
# Seconds of one sample on an idle host: the fastest sample seen on a 2-vCPU
# x86-64 VM with Python 3.11.
REF_S = 0.000240
WORK_DIR = ".perfbench-work"
WORKLOADS = ("pipeline-large", "sweep-small", "matroid", "cli-files")


def _commit(root: Path):
    """The checked-out commit, read from .git without running git; None
    outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text(encoding="utf-8").strip()
    except OSError:
        return None
    return head


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "tphi").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def reference_loop():
    """Fixed dict, tuple and frozenset traffic, the kind tphi's code makes:
    a shared host slows it about as much as it slows tphi, which it does
    not to a loop of integer arithmetic."""
    table = {}
    for i in range(REF_LOOPS):
        key = (i % 31, i % 29)
        table[key] = table.get(key, ()) + (i,)
    return len({frozenset(v) for v in table.values()})


def slowness():
    """One reference sample over REF_S: 1 on an idle host, 1.5 when the
    host makes code take half as long again."""
    best = math.inf
    for _ in range(REF_RUNS):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return best / REF_S


def timed_scaled(fn, *args):
    """Call fn; return its result, its seconds, and its seconds scaled to an
    idle host."""
    before = slowness()
    start = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - start
    return result, raw, raw / ((before + slowness()) / 2)


def run_pass(items, rec, failures):
    """Run every item once, in order; return the item latencies and the
    same scaled to an idle host."""
    gc.collect()
    lats, before, samples = [], [], [slowness()]
    sampled = time.perf_counter()
    for idx, item in enumerate(items):
        if time.perf_counter() - sampled >= REF_EVERY_S:
            samples.append(slowness())
            sampled = time.perf_counter()
        before.append(len(samples) - 1)
        if rec is not None:
            rec.item = idx
        start = time.perf_counter()
        try:
            item.run()
        except Exception as exc:  # a raising item is a failed item, not a crashed run
            failures.append(f"{item.name}: {type(exc).__name__}: {exc}")
        lats.append(time.perf_counter() - start)
        if rec is not None:
            rec.item = None
    samples.append(slowness())
    # The sample after an item is the next one taken: at the first boundary
    # REF_EVERY_S after the one before it, or at the end of the pass.
    scaled = [lat / ((samples[b] + samples[b + 1]) / 2) for lat, b in zip(lats, before)]
    return lats, scaled


def pass_wall(passes):
    """One pass's seconds, from the median latency of each item."""
    return sum(statistics.median(lats) for lats in zip(*passes))


def fresh_import():
    """Import tphi and the benchmark's modules as a new process would:
    drop them from sys.modules first, so each call pays the whole import."""
    for name in [m for m in sys.modules if m.split(".")[0] in ("tphi", "workloads", "spans")]:
        del sys.modules[name]
    importlib.import_module("tphi")
    return importlib.import_module("workloads")


def set_up(args, root, work):
    workloads = fresh_import()
    cli = workloads.CliRunner(root, work)
    return cli, workloads.SETUPS[args.workload](args.seed, cli)


def layer_metrics(spans_mod, rec, cli, wall):
    """Per-layer metrics of one traced pass."""
    spans, counts = rec.take()
    calls, self_s, top = spans_mod.layer_times(spans)
    out = {}
    for name in spans_mod.SPAN_NAMES + (spans_mod.PROCESS_SPAN,):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in spans_mod.COUNT_NAMES:
        out[name] = counts[name]
    for y in spans_mod.YIELDS:
        cand = counts[f"{y}.candidates"]
        out[f"{y}.yield"] = counts[f"{y}.found"] / cand if cand else 0.0
    out["cli.startup_ms"] = statistics.median(cli.startup_ms) if cli.startup_ms else 0.0
    out["cli.bytes_out"] = sum(nbytes for _, nbytes in cli.stats.values())
    for sub in spans_mod.CLI_SUBCOMMANDS:
        out[f"cli.{sub}.wall_s"] = cli.stats.get(sub, (0.0, 0))[0]
    out["bench.self_s"] = wall - top
    return out


def measure(args, root, work):
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        (cli, wl), raw, scaled = timed_scaled(set_up, args, root, work)
        raw_setups.append(raw)
        setups.append(scaled)
    setup_s = statistics.median(setups)
    import spans as spans_mod
    import tphi

    gc.collect()
    gc.freeze()

    rec = spans_mod.Recorder() if args.trace else None
    failures, layers = [], []
    passes = {False: [], True: []}  # item latencies of each untraced / traced pass
    scaled = []  # scaled item latencies of each untraced pass
    pass_s = []
    attempted = 0
    start = time.perf_counter()
    for i in itertools.count():
        pass_start = time.perf_counter()
        traced = bool(args.trace) and i % 2 == 1
        cli.stats.clear()
        cli.startup_ms.clear()
        if traced:
            rec.install()
            cli.recorder = rec
        try:
            pass_lats, pass_scaled = run_pass(wl.items, rec if traced else None, failures)
        finally:
            if traced:
                rec.uninstall()
                cli.recorder = None
        attempted += len(pass_lats)
        passes[traced].append(pass_lats)
        if traced:
            layers.append(layer_metrics(spans_mod, rec, cli, sum(pass_lats)))
        else:
            scaled.append(pass_scaled)
        pass_s.append(time.perf_counter() - pass_start)
        if failures or time.perf_counter() - start + max(pass_s) > args.seconds:
            if not args.trace or passes[True] or failures:
                break

    if args.trace:
        counts = [
            {k: v for k, v in m.items() if isinstance(v, int)} for m in layers
        ]
        if any(c != counts[0] for c in counts):
            failures.append("trace: counts differ between traced passes of one run")
        metrics = {
            name: statistics.median(m[name] for m in layers)
            if isinstance(layers[0][name], float)
            else layers[0][name]
            for name in layers[0]
        }
        untraced, traced_wall = pass_wall(passes[False]), pass_wall(passes[True])
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.traced_wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced
        units = {name: unit for name, unit, _ in spans_mod.per_layer_names()}
        result = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        lats = [statistics.median(x) for x in zip(*scaled)]
        deciles = statistics.quantiles([x * 1000 for x in lats], n=10, method="inclusive")
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-files" else resource.RUSAGE_SELF
        result = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": sum(lats), "unit": "s"},
            "item_ms_p50": {"value": deciles[4], "unit": "ms"},
            "item_ms_p90": {"value": deciles[8], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MiB"},
        }

    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tphi_file": str(Path(tphi.__file__).resolve()),
        "commit": _commit(root),
        "src_sha256": _src_digest(root / "src"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "inputs_sha256": hashlib.sha256(wl.fingerprint.encode()).hexdigest()[:16],
        "items_per_pass": len(wl.items),
        "passes": {"untraced": len(passes[False]), "traced": len(passes[True])},
        "fail_ratio": len(failures) / attempted,
        "raw_setup_s": statistics.median(raw_setups),
        "raw_wall_s": pass_wall(passes[False]),
        "run_s": time.perf_counter() - _T0,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": result}))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the finally blocks run: subprocess.run
    # kills and reaps a running CLI child, and the work directory goes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this process and the CLI children it starts, so that the
    # reference loop times the CPU the items run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path.cwd()
    src = root / "src"
    if not (src / "tphi" / "__init__.py").is_file():
        print(f"perfbench: no tphi sources under {src}; run from the root of a tphi checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made


if __name__ == "__main__":
    sys.exit(main())
