"""Outside-in span recorder for the tphi benchmark.

The recorder replaces public tphi functions with timing wrappers, on every
tphi module that binds the function, so calls between tphi modules are
timed too (``chain_count`` is reached through ``tphi.poset``,
``tphi.simplicial`` and ``tphi.mccord``).  ``SimplicialComplex.maximal_faces``
is replaced on the class.  Nothing inside ``src/tphi`` changes; the
wrappers live only in the process that installed them.

A span is ``(name, start, end, parent, item)``: ``parent`` is the index of
the enclosing span or -1, ``item`` the benchmark item that caused it.
Spans are kept only while an item is current; calls made outside an item
(set-up, the benchmark's own bookkeeping) pass straight through.  Counts
are read at the same boundaries, from arguments and results.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  Child spans run one after another inside their parent,
so the covered part is the sum of the child durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("hyperfield", "phased", "models", "poset", "simplicial", "homology", "mccord", "cli")


def _count_nnz(counts, args, result):
    counts["homology.nnz"] += len(result.entries)


def _count_snf(counts, args, result):
    counts["homology.rank"] += len(result)
    counts["homology.torsion"] += sum(1 for f in result if f > 1)


def _count_power(counts, args, result):
    counts["models.elements"] += len(result.poset)


def _count_perp_poset(counts, args, result):
    members = len(result.poset)
    counts["models.elements"] += members
    # build_perp_poset compares every ordered pair of members
    counts["models.build_perp_poset.pairs"] += members * members


def _count_faces(counts, args, result):
    counts["simplicial.faces"] += len(result)


def _count_enum(counts, args, result):
    n, r, k = args["n"], args["r"], args["k"]
    counts["models.enum_grassmannian.candidates"] += (k + 1) ** math.comb(n, r)
    counts["models.enum_grassmannian.found"] += len(result)


def _count_perp_enum(counts, args, result):
    counts["phased.perp_enumerate.candidates"] += (args["k"] + 1) ** len(args["vs"][0]) - 1
    counts["phased.perp_enumerate.found"] += len(result)


def _count_gp(counts, args, result):
    counts["phased.gp_verify_all.candidates"] += 1
    counts["phased.gp_verify_all.found"] += bool(result.ok)


# (module, attribute, counter, counter reads arguments)
TARGETS = (
    ("hyperfield", "boxplus_fold", None, False),
    ("hyperfield", "contains_zero", None, False),
    ("phased", "gp_verify_all", _count_gp, False),
    ("phased", "perp_enumerate", _count_perp_enum, True),
    ("models", "build_tphi_power", _count_power, False),
    ("models", "build_perp_poset", _count_perp_poset, False),
    ("models", "enum_grassmannian", _count_enum, True),
    ("poset", "build_poset", None, False),
    ("poset", "chain_count", None, False),
    ("poset", "parse_poset_file", None, False),
    ("poset", "format_poset_file", None, False),
    ("simplicial", "order_complex", _count_faces, False),
    ("simplicial", "SimplicialComplex.maximal_faces", None, False),
    ("simplicial", "collapse_certify", None, False),
    ("simplicial", "parse_complex_lines", None, False),
    ("simplicial", "complex_to_lines", None, False),
    ("homology", "boundary_matrix", _count_nnz, False),
    ("homology", "smith_normal_form", _count_snf, False),
    ("homology", "homology_groups", None, False),
    ("mccord", "basis_certificates", None, False),
    ("mccord", "contractibility_certificate", None, False),
    ("mccord", "cw_type_report", None, False),
    ("cli", "main", None, False),
)

SPAN_NAMES = tuple(f"{mod}.{attr.split('.')[-1]}" for mod, attr, _, _ in TARGETS)
# Spans the benchmark opens itself, around each CLI child process.
PROCESS_SPAN = "cli.process"
YIELDS = ("models.enum_grassmannian", "phased.perp_enumerate", "phased.gp_verify_all")
COUNT_NAMES = (
    "homology.nnz",
    "homology.rank",
    "homology.torsion",
    "models.elements",
    "models.build_perp_poset.pairs",
    "simplicial.faces",
) + tuple(f"{y}.{c}" for y in YIELDS for c in ("candidates", "found"))
CLI_SUBCOMMANDS = (
    "hfcalc",
    "gp-check",
    "gp-enum",
    "perp",
    "transversal",
    "model-build",
    "poset-check",
    "order-complex",
    "homology",
    "mccord-verify",
    "cw-report",
)


class Recorder:
    """Spans and counts of one process; install() patches, uninstall()
    restores every patched binding."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.item = None
        self._stack = []
        self._patches = []

    def install(self):
        import tphi

        mods = [tphi] + [importlib.import_module(f"tphi.{m}") for m in MODULES]
        for (mod, attr, counter, reads_args), name in zip(TARGETS, SPAN_NAMES):
            home = importlib.import_module(f"tphi.{mod}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original, counter, reads_args))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, counter, reads_args)
            for m in mods:
                if m.__dict__.get(attr) is original:
                    self._patch(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, counter, reads_args):
        sig = inspect.signature(fn) if reads_args else None

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            if self.item is None:
                return fn(*a, **kw)
            result = self.timed(name, fn, *a, **kw)
            if counter is not None:
                counter(self.counts, sig.bind(*a, **kw).arguments if sig else None, result)
            return result

        return wrapper

    def timed(self, name, fn, *a, **kw):
        """Call fn inside a span called name."""
        stack = self._stack
        sid = len(self.spans)
        self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*a, **kw)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[sid] = (name, start, end, parent, self.item)

    def adopt(self, spans, counts, parent):
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, par, item in spans:
            self.spans.append((name, start, end, base + par if par >= 0 else parent, item))
        self.counts.update(counts)

    def take(self):
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def layer_times(spans):
    """Calls, self seconds per span name, and the total of top-level spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, item in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    top = 0.0
    for i, (name, start, end, parent, item) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - covered[i]
        if parent < 0:
            top += end - start
    return calls, self_s, top


def per_layer_names():
    """Every per-layer metric name with its unit and better direction."""
    out = []
    for name in SPAN_NAMES + (PROCESS_SPAN,):
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    for name in COUNT_NAMES:
        out.append((name, "count", "higher" if name.endswith(".found") else "lower"))
    for y in YIELDS:
        out.append((f"{y}.yield", "ratio", "higher"))
    out.append(("cli.startup_ms", "ms", "lower"))
    out.append(("cli.bytes_out", "bytes", "lower"))
    for sub in CLI_SUBCOMMANDS:
        out.append((f"cli.{sub}.wall_s", "s", "lower"))
    out.append(("bench.self_s", "s", "lower"))
    out.append(("trace.untraced_wall_s", "s", "lower"))
    out.append(("trace.traced_wall_s", "s", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out
