"""The benchmark's four workloads.

Each ``setup_<workload>(seed, cli)`` generates its inputs from the seed and
returns a ``Workload``: the items of one pass, in the order the closed loop
runs them, and a fingerprint of the generated inputs.  An item runs public
tphi functions (or one ``python -m tphi`` child) and checks the answer
against an oracle that does not reuse the code under test; it raises
``Mismatch`` when they disagree.

tphi functions are always reached through their module (``homology.
homology_groups``, never a name imported into this file), so the span
recorder's patches see every call the benchmark makes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tphi import homology, hyperfield, models, phased, poset, simplicial

import spans as spans_mod

CHILD_TIMEOUT_S = 120


class Mismatch(Exception):
    """An answer disagreed with its oracle."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass
class Item:
    name: str
    run: Callable[[], None]


@dataclass
class Workload:
    items: list
    fingerprint: str


def _fubini(s: int) -> int:
    """Ordered set partitions of an s-set."""
    a = [1]
    for m in range(1, s + 1):
        a.append(sum(math.comb(m, i) * a[m - i] for i in range(1, m + 1)))
    return a[s]


def power_faces(n: int, k: int) -> int:
    """Faces of the order complex of power(n, k).

    A chain is fixed by its top vector (support size s, k^s choices) and a
    chain of non-empty subsets of that support ending at the whole support,
    of which there are as many as ordered set partitions of s elements.
    """
    return sum(math.comb(n, s) * k**s * _fubini(s) for s in range(1, n + 1))


def reduced_homology_lines(dim: int, rank: int) -> list:
    """What `tphi homology --reduced` prints for a complex of dimension dim
    whose reduced homology is Z^rank in dimension dim and zero below."""
    return [f"H~_{d} = " + (f"Z^{rank}" if d == dim and rank else "0") for d in range(dim + 1)]


def model_path(name, n, k, p):
    """chain_count -> order_complex -> homology_groups(reduced) on poset p of
    power(n, k), checked against the join formula and the face count."""
    total = poset.chain_count(p)
    c = simplicial.order_complex(p)
    h = homology.homology_groups(c, reduced=True)
    faces = power_faces(n, k)
    check(total == faces and len(c) == faces, f"{name}: {total} chains, {len(c)} faces, expected {faces}")
    check(h == models.expected_join_betti(n, k), f"{name}: homology {h.groups}")


# --- pipeline-large -------------------------------------------------------

# power(7,1) is a cone; the others are joins of discrete spaces, so spheres
# or wedges of spheres.  power(5,3) (165,633 faces, about 9 s) is left out:
# it would run once or twice in a 30 s run, too few vertex orders for a
# median that holds from seed to seed.
LARGE_MODELS = ((7, 1), (4, 5), (5, 2), (3, 11))
LARGE_LABELINGS = 8
# Random vertex orders drawn per model, of which LARGE_LABELINGS are kept
# (see vertex_orders), and the order in which the kept ranks are run.
LARGE_POOL = 32
LARGE_RANK_ORDER = (4, 2, 6, 1, 5, 3, 7, 0)


def vertex_orders(p, rng):
    """LARGE_LABELINGS seeded vertex orders for p, stratified.

    The pipeline's cost follows how far a vertex order agrees with height:
    over 22 random orders of power(7,1) it took 2.3 to 3.5 s, and it
    correlated 0.7 with the correlation between the new positions and the
    down-set sizes.  Plain draws let one seed's orders all land on one side
    of that range.  The orders are drawn LARGE_POOL at a time and kept at
    evenly spaced ranks of that correlation, run in LARGE_RANK_ORDER so that
    the first few passes of a run already span the range."""
    below = [0] * len(p.labels)
    for ups in p.above:
        for j in ups:
            below[j] += 1
    pool = []
    for _ in range(LARGE_POOL):
        order = list(range(len(p.labels)))
        rng.shuffle(order)
        pool.append(order)
    pool.sort(key=lambda order: statistics.correlation(order, below))
    ranks = [(2 * r + 1) * LARGE_POOL // (2 * LARGE_LABELINGS) for r in range(LARGE_LABELINGS)]
    return [pool[ranks[r]] for r in LARGE_RANK_ORDER]


def relabel(p, order):
    """The same order on labels renamed by a permutation, which changes the
    vertex order of the complex and so the elimination order."""
    new = {lab: f"x{order[i]:06d}" for i, lab in enumerate(p.labels)}
    return poset.build_poset(new.values(), [(new[a], new[b]) for a, b in p.covers()])


def _cycling_item(name, n, k, labelings):
    order = itertools.cycle(labelings)
    return Item(name, lambda: model_path(name, n, k, next(order)))


def setup_pipeline_large(seed, cli):
    """Each model gets LARGE_LABELINGS seeded relabelings; pass p runs
    labeling p (cyclically), so each pass of a run meets a new vertex
    order."""
    rng = random.Random(seed)
    items, shuffles = [], []
    for n, k in LARGE_MODELS:
        base = models.build_tphi_power(n, k).poset
        labelings = [relabel(base, order) for order in vertex_orders(base, rng)]
        shuffles.append([sorted(p.above[0]) for p in labelings])
        name = f"power({n},{k})"
        items.append(_cycling_item(name, n, k, labelings))
    return Workload(items, repr(shuffles))


# --- sweep-small ----------------------------------------------------------

SWEEP_MAX_FACES = 10_000
SWEEP_N1_ITEMS = 160


def criterion03_cases():
    return [(n, k) for n in range(1, 11) for k in range(1, 2001) if (k + 1) ** n - 1 <= 2000]


def setup_sweep_small(seed, cli):
    """Every criterion-03 case with n >= 2 and at most SWEEP_MAX_FACES faces,
    plus the n = 1 row sampled one k per equal block of the row, so that
    the total k (and so the cost) barely moves with the seed."""
    rng = random.Random(seed)
    small = [(n, k) for n, k in criterion03_cases() if power_faces(n, k) <= SWEEP_MAX_FACES]
    row = [k for n, k in small if n == 1]
    rest = [(n, k) for n, k in small if n > 1]
    bounds = [len(row) * i // SWEEP_N1_ITEMS for i in range(SWEEP_N1_ITEMS + 1)]
    sampled = [(1, row[rng.randrange(lo, hi)]) for lo, hi in zip(bounds, bounds[1:])]
    cases = sampled + rest

    def item(n, k):
        name = f"power({n},{k})"

        def run():
            mp = models.build_tphi_power(n, k)
            check(len(mp.poset) == (k + 1) ** n - 1, f"{name}: {len(mp.poset)} elements")
            model_path(name, n, k, mp.poset)

        return Item(name, run)

    return Workload([item(n, k) for n, k in cases], repr(cases))


# --- matroid --------------------------------------------------------------

SUM_K = 24
# Many small groups, so that both latency quantiles fall among sum items
# rather than on whichever seeded enumeration, re-verification or perp
# item happens to sit at the 90% boundary.
SUM_GROUPS = 480
SUMS_PER_GROUP = 16
# (n, r, k) -> pinned number of normalized strong alternating functions
ENUMS = {(4, 2, 4): 1190, (4, 2, 3): 375, (5, 2, 1): 131, (5, 3, 1): 131}
REVERIFY = {(4, 2, 4): 6, (4, 2, 3): 6, (5, 2, 1): 6, (5, 3, 1): 2}
# (n, k, number of constraint vectors), each drawn PERP_DRAWS times
PERP_CONFIGS = ((4, 4, 1), (4, 4, 2), (5, 2, 1), (5, 2, 2))
PERP_DRAWS = 2
# Candidate constraint sets per config, of which the draws are taken at
# evenly spaced ranks of total support (see perp_draws).
PERP_POOL = 16


def _nonzero_vector(rng, pool, n):
    while True:
        v = tuple(rng.choice(pool) for _ in range(n))
        if any(not e.is_zero for e in v):
            return v


def perp_constraints(rng, n, k, m):
    """m constraint vectors with a common non-zero orthogonal vector, so the
    perp set is never empty."""
    pool = hyperfield.scalars(k)
    x = _nonzero_vector(rng, pool, n)
    out = []
    while len(out) < m:
        v = _nonzero_vector(rng, pool, n)
        if phased.perp_membership([v], x):
            out.append(v)
    return out


def perp_draws(rng, n, k, m):
    """PERP_DRAWS constraint sets for one config, stratified by support.

    The perp set grows with the supports of the constraint vectors (at
    n=4, k=4, m=1: 124 members for support 1 or 2, 364 for support 4) and
    build_perp_poset is quadratic in it, so two plain draws could differ
    by a factor of eight in cost.  Drawing PERP_POOL sets and keeping those
    at evenly spaced ranks of total support gives every seed a sparse and
    a dense set."""
    pool = [perp_constraints(rng, n, k, m) for _ in range(PERP_POOL)]
    pool.sort(key=lambda vs: sum(not e.is_zero for v in vs for e in v))
    return [pool[(2 * d + 1) * PERP_POOL // (2 * PERP_DRAWS)] for d in range(PERP_DRAWS)]


def setup_matroid(seed, cli):
    rng = random.Random(seed)
    items = []
    found = {}

    def enum_item(key, count):
        def run():
            res = models.enum_grassmannian(*key)
            found[key] = res
            check(len(res) == count, f"enum{key}: {len(res)} functions, pinned {count}")

        return Item(f"enum{key}", run)

    def reverify_item(key, index):
        def run():
            phi = found[key][index]
            inc = phased.gp_verify_all(phi).ok
            every = phased.gp_verify_all(phi, all_tuples=True).ok
            check(inc and every, f"gp{key}[{index}]: increasing {inc}, all tuples {every}")

        return Item(f"gp{key}[{index}]", run)

    def sums_item(g, group):
        def run():
            for terms in group:
                check(
                    hyperfield.contains_zero(terms) == hyperfield.boxplus_fold(terms).has_zero,
                    f"sums[{g}]: {[hyperfield.format_value(t) for t in terms]}",
                )

        return Item(f"sums[{g}]", run)

    def perp_item(name, vs, k):
        def run():
            mp = models.build_perp_poset(vs, k)
            for label in mp.poset.labels:
                check(phased.perp_membership(vs, phased.parse_vector(label)), f"{name}: {label}")

        return Item(name, run)

    for key, count in ENUMS.items():
        items.append(enum_item(key, count))
    picks = {key: sorted(rng.sample(range(ENUMS[key]), m)) for key, m in REVERIFY.items()}
    for key, idx in picks.items():
        items.extend(reverify_item(key, i) for i in idx)
    pool = hyperfield.scalars(SUM_K)
    groups = [
        [[rng.choice(pool) for _ in range(rng.randint(1, 8))] for _ in range(SUMS_PER_GROUP)]
        for _ in range(SUM_GROUPS)
    ]
    items.extend(sums_item(g, group) for g, group in enumerate(groups))
    constraints = []
    for n, k, m in PERP_CONFIGS:
        for d, vs in enumerate(perp_draws(rng, n, k, m)):
            constraints.append([phased.format_vector(v) for v in vs])
            items.append(perp_item(f"perp(n={n},k={k},m={m})#{d}", vs, k))
    fingerprint = repr((picks, [[hyperfield.format_value(t) for t in s] for s in groups[0]], constraints))
    return Workload(items, fingerprint)


# --- cli-files ------------------------------------------------------------

CLI_POWERS = ((3, 5), (4, 3), (6, 1))
CLI_PERP_N = 5
CLI_GP_SOURCE = (4, 2, 2)
CLI_GP_ENUM = (5, 2, 1)
CLI_TRANSVERSAL = (5, 3)


class CliRunner:
    """Runs one tphi CLI child at a time from the checkout root.

    Untraced children are ``python -m tphi``.  When ``recorder`` is set,
    children go through ``perfbench/launch.py``, which installs a recorder
    in the child, and their spans are adopted under a ``cli.process`` span.
    """

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.recorder = None
        self.stats = {}
        self.startup_ms = []
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def call(self, argv, stdin=None, stdout=None):
        """Run `tphi argv`; return (exit code, stdout text or '' when stdout
        goes to a file, stderr text)."""
        rec = self.recorder
        if rec is None:
            return self._spawn(argv[0], [sys.executable, "-m", "tphi", *argv], stdin, stdout)
        span_file = self.work / "child-spans.json"
        launcher = str(Path(__file__).with_name("launch.py"))
        cmd = [sys.executable, launcher, str(span_file), str(rec.item), *argv]
        sid = len(rec.spans)
        spawned = time.time()
        result = rec.timed(spans_mod.PROCESS_SPAN, self._spawn, argv[0], cmd, stdin, stdout)
        with open(span_file, encoding="utf-8") as fh:
            child = json.load(fh)
        os.unlink(span_file)
        rec.adopt(child["spans"], child["counts"], sid)
        self.startup_ms.append((child["ready"] - spawned) * 1000)
        return result

    def _spawn(self, sub, cmd, stdin, stdout):
        fin = open(stdin, "rb") if stdin else subprocess.DEVNULL
        fout = open(stdout, "wb") if stdout else subprocess.PIPE
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, stdin=fin, stdout=fout, stderr=subprocess.PIPE, cwd=self.root,
                env=self.env, timeout=CHILD_TIMEOUT_S,
            )
        finally:
            if stdin:
                fin.close()
            if stdout:
                fout.close()
        wall, nbytes = self.stats.get(sub, (0.0, 0))
        out = proc.stdout or b""
        size = os.path.getsize(stdout) if stdout else len(out)
        self.stats[sub] = (wall + time.perf_counter() - start, nbytes + size)
        return proc.returncode, out.decode(), proc.stderr.decode()


def _expect(name, result, code):
    got, out, err = result
    check(got == code, f"{name}: exit {got}, expected {code}; stderr {err.strip()[-200:]!r}")
    return out


def _transversal_ok(n, r, tuples):
    """Criterion-07 properties: distinct r-tuples of distinct elements, no
    two a transposition apart, every r-permutation in or next to one."""
    members = set(tuples)

    def swaps(t):
        return {t[:i] + (t[j],) + t[i + 1 : j] + (t[i],) + t[j + 1 :] for i, j in itertools.combinations(range(r), 2)}

    if len(members) != len(tuples) or any(len(set(t)) != r for t in tuples):
        return False
    if any(members & swaps(t) for t in tuples):
        return False
    return all(t in members or members & swaps(t) for t in itertools.permutations(range(1, n + 1), r))


def setup_cli_files(seed, cli):
    rng = random.Random(seed)
    work = cli.work
    work.mkdir(parents=True, exist_ok=True)
    items = []

    pool = hyperfield.scalars(SUM_K)
    terms = [rng.choice(pool) for _ in range(6)]
    expr = " + ".join(hyperfield.format_value(t) for t in terms)
    zero = hyperfield.contains_zero(terms)

    def hfcalc():
        out = _expect("hfcalc", cli.call(["hfcalc", expr, "--format", "json-lines"]), 0)
        check(json.loads(out)["contains_zero"] == zero, f"hfcalc {expr!r}: {out.strip()}")

    gp_funcs = models.enum_grassmannian(*CLI_GP_SOURCE)
    gp_file = work / "function.gp"
    gp_file.write_text(phased.format_gp(gp_funcs[rng.randrange(len(gp_funcs))]), encoding="utf-8")

    def gp_check():
        out = _expect("gp-check", cli.call(["gp-check", str(gp_file), "--all-tuples"]), 0)
        check(out.startswith("ok:"), f"gp-check: {out.strip()}")

    def gp_enum():
        n, r, k = CLI_GP_ENUM
        count = ENUMS[CLI_GP_ENUM]
        out = _expect("gp-enum", cli.call(["gp-enum", "--n", str(n), "--r", str(r), "--k", str(k)]), 0)
        lines = out.splitlines()
        check(lines[-1] == f"count: {count}" and len(lines) == count + 1, f"gp-enum: {lines[-1]}")

    perp_vs = perp_constraints(rng, 4, 4, 1)
    perp_args = [phased.format_vector(v) for v in perp_vs]

    def perp():
        out = _expect("perp", cli.call(["perp", "--k", "4", *perp_args]), 0)
        lines = out.splitlines()
        members = [phased.parse_vector(line) for line in lines[:-1]]
        check(lines[-1] == f"count: {len(members)}" and members, f"perp: {lines[-1]}")
        for x in members:
            check(phased.perp_membership(perp_vs, x), f"perp {perp_args}: {phased.format_vector(x)}")

    def transversal():
        n, r = CLI_TRANSVERSAL
        out = _expect("transversal", cli.call(["transversal", "--n", str(n), "--r", str(r)]), 0)
        lines = out.splitlines()
        tuples = [tuple(map(int, line.split())) for line in lines[:-2]]
        check(lines[-2:] == [f"size: {len(tuples)}", f"increasing-tuples: {math.comb(n, r)}"], "transversal: summary")
        check(_transversal_ok(n, r, tuples), "transversal: not a transposition transversal")

    items += [
        Item("hfcalc", hfcalc),
        Item("gp-check", gp_check),
        Item("gp-enum", gp_enum),
        Item("perp", perp),
        Item("transversal", transversal),
    ]

    # power(n,1) has a maximum, so it is a cone and of CW type; the other
    # models are spheres or wedges of spheres, which cw-report obstructs.
    specs = [
        (f"power({n},{k})", ["--family", "power", "--n", str(n), "--k", str(k)], (k + 1) ** n - 1, n - 1, (k - 1) ** n)
        for n, k in CLI_POWERS
    ]
    # A full-support sign vector: its perp is the sign-vector model of the
    # (n-2)-sphere, with 3^n - 1 - 2(2^n - 1) members.
    n = CLI_PERP_N
    sign = phased.format_vector(tuple(rng.choice(hyperfield.units(2)) for _ in range(n)))
    specs.append((f"perp(n={n},k=2)", ["--family", "perp", "--n", str(n), "--k", "2", sign], 3**n - 1 - 2 * (2**n - 1), n - 2, 1))
    for spec in specs:
        items += _cli_model_items(cli, *spec)
    return Workload(items, repr((expr, gp_file.read_text(encoding="utf-8"), perp_args, sign)))


def _cli_model_items(cli, name, build_args, elements, dim, rank):
    """model-build -> poset-check -> order-complex -> homology - ->
    mccord-verify -> cw-report on one model, through files.  The model's
    order complex has dimension dim and reduced homology Z^rank there."""
    stem = name.replace("(", "_").replace(")", "").replace(",", "_").replace("=", "")
    model = cli.work / f"{stem}.poset"
    cx = cli.work / f"{stem}.complex"

    def build():
        _expect(f"{name} model-build", cli.call(["model-build", *build_args], stdout=model), 0)
        got = model.read_text(encoding="utf-8").split("\nindex\n")[0].count("elem ")
        check(got == elements, f"{name} model-build: {got} elements, expected {elements}")

    def poset_check():
        out = _expect(f"{name} poset-check", cli.call(["poset-check", str(model)]), 0)
        check(out.splitlines() == ["mirror: ok", "geometric: ok"], f"{name} poset-check: {out.strip()}")

    def order_complex():
        _expect(f"{name} order-complex", cli.call(["order-complex", str(model)], stdout=cx), 0)

    def homology_():
        out = _expect(f"{name} homology", cli.call(["homology", "-", "--reduced"], stdin=cx), 0)
        want = reduced_homology_lines(dim, rank)
        check(out.splitlines() == want, f"{name} homology: {out.splitlines()} expected {want}")

    def mccord_verify():
        out = _expect(f"{name} mccord-verify", cli.call(["mccord-verify", str(model)]), 0)
        check("verdict: all basic opens certified contractible" in out.splitlines(), f"{name} mccord-verify verdict")

    def cw_report():
        cone = rank == 0
        out = _expect(f"{name} cw-report", cli.call(["cw-report", str(model)]), 0 if cone else 1)
        want = "verdict: CW type" if cone else "verdict: obstructed"
        check(out.splitlines()[-1] == want, f"{name} cw-report: {out.strip()[-80:]}")

    return [
        Item(f"{name} model-build", build),
        Item(f"{name} poset-check", poset_check),
        Item(f"{name} order-complex", order_complex),
        Item(f"{name} homology", homology_),
        Item(f"{name} mccord-verify", mccord_verify),
        Item(f"{name} cw-report", cw_report),
    ]


SETUPS = {
    "pipeline-large": setup_pipeline_large,
    "sweep-small": setup_sweep_small,
    "matroid": setup_matroid,
    "cli-files": setup_cli_files,
}
