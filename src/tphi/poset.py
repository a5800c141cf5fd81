"""Finite strict posets, stratifying mirrors, and discreteness checks.

A poset is built from element labels and strict pairs; the constructor
takes the transitive closure and rejects cycles.  A mirrored poset carries
a monotone map onto a second poset of stratum indices, mimicking how a
graded space records the stratum of each point.  All structures are
immutable once built and every textual output is sorted by label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import CycleDetectedError, UnknownElementError


class FinitePoset:
    """Strict partial order on string labels, stored transitively closed."""

    __slots__ = ("labels", "_pos", "above", "below")

    def __init__(self, elements: Iterable[str], pairs: Iterable[tuple]):
        labels = tuple(sorted(elements))
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate element labels")
        pos = {lab: i for i, lab in enumerate(labels)}
        direct = [set() for _ in labels]
        indegree = [0] * len(labels)
        for a, b in pairs:
            if a not in pos:
                raise UnknownElementError(f"unknown element {a!r}")
            if b not in pos:
                raise UnknownElementError(f"unknown element {b!r}")
            if a == b:
                raise CycleDetectedError(f"{a!r} < {a!r}")
            ia, ib = pos[a], pos[b]
            if ib not in direct[ia]:
                direct[ia].add(ib)
                indegree[ib] += 1
        # Kahn's algorithm: anything left over sits on a cycle.
        queue = [i for i in range(len(labels)) if indegree[i] == 0]
        topo = []
        while queue:
            nxt = queue.pop()
            topo.append(nxt)
            for j in direct[nxt]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    queue.append(j)
        if len(topo) != len(labels):
            stuck = sorted(labels[i] for i in range(len(labels)) if indegree[i] > 0)
            raise CycleDetectedError(f"cycle through {stuck[:4]}")
        above = [set() for _ in labels]
        for i in reversed(topo):
            for j in direct[i]:
                above[i].add(j)
                above[i] |= above[j]
        below = [set() for _ in labels]
        for i, ups in enumerate(above):
            for j in ups:
                below[j].add(i)
        self.labels = labels
        self._pos = pos
        self.above = tuple(frozenset(s) for s in above)
        self.below = tuple(frozenset(s) for s in below)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.labels == other.labels and self.above == other.above

    def __hash__(self):
        return hash((self.labels, self.above))

    def __repr__(self) -> str:
        pairs = sum(len(s) for s in self.above)
        return f"FinitePoset({len(self.labels)} elements, {pairs} strict pairs)"

    def index_of(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise UnknownElementError(f"unknown element {label!r}") from None

    def less(self, a: str, b: str) -> bool:
        return self.index_of(b) in self.above[self.index_of(a)]

    def strict_pairs(self) -> list:
        """All pairs (a, b) with a < b, sorted."""
        out = []
        for i, ups in enumerate(self.above):
            for j in ups:
                out.append((self.labels[i], self.labels[j]))
        return sorted(out)

    def upset(self, seeds: Iterable[str]) -> frozenset:
        """Reflexive up-closure of the given elements."""
        idx = {self.index_of(lab) for lab in seeds}
        out = set(idx)
        for i in idx:
            out |= self.above[i]
        return frozenset(self.labels[i] for i in out)

    def covers(self) -> list:
        """Cover pairs (a, b): a < b with nothing strictly between, sorted."""
        out = []
        for i, ups in enumerate(self.above):
            for j in ups:
                if not (ups & self.below[j]):
                    out.append((self.labels[i], self.labels[j]))
        return sorted(out)

    def opposite(self) -> "FinitePoset":
        pairs = [(b, a) for a, b in self.strict_pairs()]
        return FinitePoset(self.labels, pairs)

    def induced(self, subset: Iterable[str]) -> "FinitePoset":
        keep = sorted(set(subset))
        kept = {self.index_of(lab) for lab in keep}
        pairs = []
        for i in kept:
            for j in self.above[i] & kept:
                pairs.append((self.labels[i], self.labels[j]))
        return FinitePoset(keep, pairs)

    def maximal_elements(self) -> list:
        return [lab for i, lab in enumerate(self.labels) if not self.above[i]]

    def minimal_elements(self) -> list:
        return [lab for i, lab in enumerate(self.labels) if not self.below[i]]


def build_poset(elements: Iterable[str], pairs: Iterable[tuple]) -> FinitePoset:
    """Close the strict pairs transitively; raise on cycles."""
    return FinitePoset(elements, pairs)


def _chains_by_minimum(p: FinitePoset) -> list:
    """c(x) for every element x in label order: the number of chains whose
    minimum is x, c(x) = 1 + sum of c(y) over y > x."""
    counts = [0] * len(p.labels)
    order = sorted(range(len(p.labels)), key=lambda i: len(p.above[i]))
    for i in order:
        counts[i] = 1 + sum(counts[j] for j in p.above[i])
    return counts


def chain_count(p: FinitePoset) -> int:
    """Number of non-empty chains, counted by their minimum without
    enumerating them."""
    return sum(_chains_by_minimum(p))


@dataclass(frozen=True)
class MirroredPoset:
    """A poset with a monotone stratum map onto an index poset.

    ``assignments`` pairs each element label with its stratum label.  Use
    ``mirror_check`` for the actual axioms; construction only demands that
    the assignment is total and mentions known labels.
    """

    poset: FinitePoset
    index_poset: FinitePoset
    assignments: tuple

    def __post_init__(self):
        seen = {}
        for lab, idx in self.assignments:
            self.poset.index_of(lab)
            self.index_poset.index_of(idx)
            if lab in seen:
                raise ValueError(f"element {lab!r} assigned twice")
            seen[lab] = idx
        missing = [lab for lab in self.poset.labels if lab not in seen]
        if missing:
            raise UnknownElementError(f"no stratum for {missing[:4]}")
        object.__setattr__(self, "assignments", tuple(sorted(seen.items())))

    @property
    def mirror(self) -> dict:
        return dict(self.assignments)

    def fibers(self) -> dict:
        """Stratum label -> sorted tuple of elements mapped there."""
        out = {idx: [] for idx in self.index_poset.labels}
        for lab, idx in self.assignments:
            out[idx].append(lab)
        return {idx: tuple(sorted(labs)) for idx, labs in out.items()}


def mirrored(poset: FinitePoset, index_poset: FinitePoset, mapping: Mapping) -> MirroredPoset:
    return MirroredPoset(poset, index_poset, tuple(mapping.items()))


@dataclass(frozen=True)
class MirrorReport:
    ok: bool
    violation: str | None = None


def mirror_check(mp: MirroredPoset) -> MirrorReport:
    """Strict monotonicity of the stratum map, then non-empty fibers;
    the first violation in label order is reported."""
    mirror = mp.mirror
    for a, b in mp.poset.strict_pairs():
        if not mp.index_poset.less(mirror[a], mirror[b]):
            return MirrorReport(
                False, f"map not strictly monotone on {a} < {b}"
            )
    for idx, fiber in sorted(mp.fibers().items()):
        if not fiber:
            return MirrorReport(False, f"empty stratum {idx}")
    return MirrorReport(True)


@dataclass(frozen=True)
class GeometricReport:
    ok: bool
    a1_violations: tuple = ()
    notes: tuple = ()


def geometric_discrete_check(mp: MirroredPoset) -> GeometricReport:
    """Discrete forms of the graded-space axioms.

    A1: for strata r < s, every element of stratum r has something above it
    in stratum s.  The openness and refinement axioms hold vacuously over
    discrete strata; the basis axiom reduces to the fact that the upset of
    a single element meets higher strata in elements genuinely above it.
    Those two are reported as notes, the second with the number of
    higher-stratum elements that the up-sets reach.
    """
    fibers = mp.fibers()
    poset = mp.poset
    violations = []
    checked = 0
    for r, s in mp.index_poset.strict_pairs():
        high = set(fibers[s])
        for x in fibers[r]:
            hits = poset.upset([x]) & high
            if not hits:
                violations.append(f"nothing above {x} in stratum {s}")
            checked += len(hits)
    notes = (
        "openness: subsets of discrete strata are open, nothing to check",
        "refinement of covers inside a stratum is vacuous at discrete scale",
        f"singleton basis: x is the only generator below its {checked} "
        "comparable higher-stratum elements",
    )
    return GeometricReport(not violations, tuple(violations), notes)


def discrete_type_classes(p: FinitePoset) -> tuple:
    """Connected components of the comparability graph, each a frozenset,
    ordered by least label."""
    n = len(p.labels)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(p.labels[i])
            for j in p.above[i] | p.below[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        comps.append(frozenset(comp))
    comps.sort(key=lambda c: min(c))
    return tuple(comps)


def format_poset_file(obj) -> str:
    """Canonical text: sorted elem lines, sorted cover-pair rel lines, and
    for mirrored posets an index block plus mirror lines."""
    if isinstance(obj, MirroredPoset):
        main, index, mirror = obj.poset, obj.index_poset, obj.mirror
    else:
        main, index, mirror = obj, None, None
    for lab in main.labels:
        if any(c.isspace() for c in lab):
            raise ValueError(f"label {lab!r} contains whitespace")
    lines = [f"elem {lab}" for lab in main.labels]
    lines += [f"rel {a} < {b}" for a, b in main.covers()]
    if index is not None:
        lines.append("index")
        lines += [f"elem {lab}" for lab in index.labels]
        lines += [f"rel {a} < {b}" for a, b in index.covers()]
        lines += [f"mirror {lab} -> {idx}" for lab, idx in sorted(mirror.items())]
    return "\n".join(lines) + "\n"


def parse_poset_file(text: str):
    """Parse the poset file form.

    Returns a FinitePoset, or a MirroredPoset when an index block and
    mirror lines are present.
    """
    main_elems, main_pairs = [], []
    index_elems, index_pairs = [], []
    mirror = {}
    target_elems, target_pairs = main_elems, main_pairs
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens == ["index"]:
            target_elems, target_pairs = index_elems, index_pairs
            continue
        if tokens[0] == "elem" and len(tokens) == 2:
            target_elems.append(tokens[1])
        elif tokens[0] == "rel" and len(tokens) == 4 and tokens[2] == "<":
            target_pairs.append((tokens[1], tokens[3]))
        elif tokens[0] == "mirror" and len(tokens) == 4 and tokens[2] == "->":
            if tokens[1] in mirror:
                raise ValueError(f"element {tokens[1]!r} mirrored twice")
            mirror[tokens[1]] = tokens[3]
        else:
            raise ValueError(f"bad poset line {line!r}")
    poset = build_poset(main_elems, main_pairs)
    if not index_elems and not mirror:
        return poset
    if not index_elems or not mirror:
        raise ValueError("mirrored posets need both an index block and mirror lines")
    index = build_poset(index_elems, index_pairs)
    return MirroredPoset(poset, index, tuple(mirror.items()))
