"""Finite strict posets, stratifying mirrors, and discreteness checks.

A poset is stored on integer ids: element i is ``labels[i]``, with the
labels in sorted order, so id order is label order.  Every poset goes
through one closure pass, ``FinitePoset._close``, by one of two ways in.
The constructor checks its label pairs and turns them into ids.
``FinitePoset._of_ids`` checks, sorts and renumbers nothing: it takes labels
already sorted and distinct, with pairs of their positions, which are the
ids.  The model builders, ``opposite`` and ``induced`` use it, as they make
or hold the ids in label order.  The pass takes each element's direct
successors, rejects cycles by Kahn's algorithm, and walks the elements in
reverse topological order.  The elements above i are its direct successors
together with everything above them, and the direct successors outside
that union are i's up-covers.  The pass stores ``above`` and ``below`` as
sorted tuples of ids, the one empty tuple where there is nothing, and
``up_covers`` as tuples of ids, so covers are read, never recomputed.  A
sorted tuple costs 8 bytes a pair where a frozenset cost about 60, and
membership goes through ``bisect``.  One recurrence, ``_chain_counts``,
counts the chains with each top element, on ``below``, and with each
minimum, on ``above``.  The first, with the length of the longest chain,
is counted on first use and cached on the poset, for ``chain_count`` and
``order_complex`` to share; the second is counted afresh on each call,
since ``basis_certificates`` reads it once per report.  The label-to-id
dict is built on first use too, by ``index_of`` (and so ``less``,
``upset`` and ``induced``) or the checked ``MirroredPoset``: the model
pipeline reads ids only.

A mirrored poset carries a monotone map onto a second poset of stratum
indices, mimicking how a graded space records the stratum of each point.
All structures are immutable once built and every textual output is sorted
by label.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Iterable, Mapping

from .errors import CycleDetectedError, Frozen, UnknownElementError, check_file_labels, file_lines


class FinitePoset:
    """Strict partial order on string labels, stored transitively closed
    on the ids of the labels in sorted order."""

    __slots__ = ("labels", "_ids", "above", "below", "up_covers", "_tops")

    def __init__(self, elements: Iterable[str], pairs: Iterable[tuple]):
        labels = tuple(sorted(elements))
        pos = {lab: i for i, lab in enumerate(labels)}
        if len(pos) != len(labels):
            raise ValueError("duplicate element labels")
        direct = defaultdict(set)
        for a, b in pairs:
            if a not in pos:
                raise UnknownElementError(f"unknown element {a!r}")
            if b not in pos:
                raise UnknownElementError(f"unknown element {b!r}")
            if a == b:
                raise CycleDetectedError(f"{a!r} < {a!r}")
            direct[pos[a]].add(pos[b])
        self._close(labels, direct)
        self._ids = pos

    @classmethod
    def _of_ids(cls, labels, pairs: Iterable[tuple]) -> "FinitePoset":
        """The poset on labels already sorted and distinct, with strict
        pairs (a, b) of positions in that list, each pair once.  Nothing is
        checked, sorted or looked up: for callers that make or hold the
        ids in label order, which the positions are taken as."""
        direct = defaultdict(list)
        for a, b in pairs:
            direct[a].append(b)
        p = cls.__new__(cls)
        p._close(tuple(labels), direct)
        return p

    def _close(self, labels: tuple, direct: dict) -> None:
        """The closure pass of both ways in: labels sorted, and direct,
        which the pass empties, mapping an id to its direct successors,
        each once; ids with none may be left out.  above and below come
        out as sorted tuples of ids; no set outlives the element it is
        built for.  The label-to-id dict waits for its first use."""
        n = len(labels)
        indegree = [0] * n
        for ds in direct.values():
            for j in ds:
                indegree[j] += 1
        # Kahn's algorithm over the ids with successors: anything left over
        # sits on a cycle, and every cycle passes through such ids.
        queue = [i for i in direct if not indegree[i]]
        topo = []
        while queue:
            i = queue.pop()
            topo.append(i)
            for j in direct[i]:
                indegree[j] -= 1
                if not indegree[j] and j in direct:
                    queue.append(j)
        if len(topo) != len(direct):
            stuck = sorted(labels[i] for i in range(n) if indegree[i])
            raise CycleDetectedError(f"cycle through {stuck[:4]}")
        above = [()] * n
        up_covers = [()] * n
        for i in reversed(topo):
            # direct's lists go as above's tuples come
            ds = direct.pop(i)
            reach = set()
            for j in ds:
                reach.update(above[j])
            up_covers[i] = tuple(j for j in ds if j not in reach)
            reach.update(ds)
            above[i] = tuple(sorted(reach))
        # walking i in id order appends to each below list in sorted order
        below = defaultdict(list)
        for i, ups in enumerate(above):
            for j in ups:
                below[j].append(i)
        # each list goes as its tuple comes, so they never both hold every pair
        downs = [()] * n
        while below:
            j, b = below.popitem()
            downs[j] = tuple(b)
        self.labels = labels
        self._ids = None
        self.above = tuple(above)
        self.below = tuple(downs)
        self.up_covers = tuple(up_covers)
        self._tops = None

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

    @property
    def _pos(self) -> dict:
        """Label -> id, built on first use and then kept."""
        if self._ids is None:
            self._ids = dict(zip(self.labels, range(len(self.labels))))
        return self._ids

    def index_of(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise UnknownElementError(f"unknown element {label!r}") from None

    def less(self, a: str, b: str) -> bool:
        return _holds(self.above[self.index_of(a)], self.index_of(b))

    def strict_pairs(self) -> list:
        """All pairs (a, b) with a < b, sorted."""
        labels = self.labels
        return [(labels[i], labels[j]) for i, ups in enumerate(self.above) for j in ups]

    def upset(self, seeds: Iterable[str]) -> frozenset:
        """Reflexive up-closure of the given elements."""
        idx = {self.index_of(lab) for lab in seeds}
        out = set(idx)
        for i in idx:
            out.update(self.above[i])
        return frozenset(self.labels[i] for i in out)

    def covers(self) -> list:
        """Cover pairs (a, b): a < b with nothing strictly between, sorted."""
        labels = self.labels
        return [
            (labels[i], labels[j]) for i, ups in enumerate(self.up_covers) for j in sorted(ups)
        ]

    def opposite(self) -> "FinitePoset":
        return FinitePoset._of_ids(
            self.labels, [(j, i) for i, ups in enumerate(self.up_covers) for j in ups]
        )

    def induced(self, subset: Iterable[str]) -> "FinitePoset":
        ids = sorted({self.index_of(lab) for lab in subset})
        new = {i: r for r, i in enumerate(ids)}
        pairs = [(r, new[j]) for r, i in enumerate(ids) for j in self.above[i] if j in new]
        return FinitePoset._of_ids([self.labels[i] for i in ids], pairs)

    def maximal_elements(self) -> list:
        return [lab for i, lab in enumerate(self.labels) if not self.above[i]]

    def minimal_elements(self) -> list:
        return [lab for i, lab in enumerate(self.labels) if not self.below[i]]


def _holds(ids: tuple, j: int) -> bool:
    """Whether the sorted tuple of ids holds j."""
    k = bisect_left(ids, j)
    return k < len(ids) and ids[k] == j


def build_poset(elements: Iterable[str], pairs: Iterable[tuple]) -> FinitePoset:
    """Close the strict pairs transitively; raise on cycles."""
    return FinitePoset(elements, pairs)


def _chain_counts(rel: tuple) -> tuple:
    """(counts, order) for rel, a poset's above or below: counts[i] = 1 +
    the sum of counts[j] over j in rel[i], for every element i in label
    order, so on above the number of chains whose minimum is i and on below
    the number whose top is i.  order lists the elements with rel[i]
    non-empty, each after every j in rel[i]: such a j has fewer related
    elements than i, so it comes first when sorted by their number."""
    sizes = list(map(len, rel))
    counts = [1] * len(rel)
    order = sorted(filter(sizes.__getitem__, range(len(rel))), key=sizes.__getitem__)
    for i in order:
        counts[i] += sum(map(counts.__getitem__, rel[i]))
    return tuple(counts), order


def _chains_by_top(p: FinitePoset) -> tuple:
    """(size, dim): size is _chain_counts on below, the number of chains
    whose top is each element, and dim the length of the longest chain
    less one, -1 on the empty poset.  Counted once per poset and cached on
    it; order_complex keeps size as its layout, so nothing may change it.
    The longest chains are pushed along up-covers in the count's order,
    not read off every pair: a non-minimal element starts at 2, and once
    final lifts its up-covers to one more than its own."""
    if p._tops is None:
        size, order = _chain_counts(p.below)
        longest = [2] * len(size)
        for i in order:
            up = longest[i] + 1
            for j in p.up_covers[i]:
                if longest[j] < up:
                    longest[j] = up
        dim = max(map(longest.__getitem__, order), default=min(len(size), 1)) - 1
        p._tops = (size, dim)
    return p._tops


def chain_count(p: FinitePoset) -> int:
    """Number of non-empty chains, counted by their top without
    enumerating them: the count order_complex shares."""
    return sum(_chains_by_top(p)[0])


def core(p: FinitePoset) -> tuple:
    """Stong's core, in label order: remove beat points, elements with
    exactly one live upper or lower cover, until none is left.  Removing x
    links each lower cover a and upper cover b of x as a cover pair unless
    a live lower cover of b lies above a, found by bisecting above[a] for
    each of them, so the pass costs O(pairs log n).

    The live covers of each element are the keys of a dict, not a set: the
    garbage collector tracks every set but no dict that holds only ints,
    and on a large poset its passes over two sets per element took several
    times the removal itself (power(3,60): 3-4 s against 0.5 s).
    """
    ups = [dict.fromkeys(cs) for cs in p.up_covers]
    downs = [{} for _ in ups]
    for a, cs in enumerate(p.up_covers):
        for b in cs:
            downs[b][a] = None
    live = [True] * len(ups)
    queue = list(range(len(ups)))
    while queue:
        x = queue.pop()
        if not live[x] or (len(ups[x]) != 1 and len(downs[x]) != 1):
            continue
        live[x] = False
        for b in ups[x]:
            del downs[b][x]
        for a in downs[x]:
            del ups[a][x]
            higher = p.above[a]
            for b in ups[x]:
                if not any(_holds(higher, c) for c in downs[b]):
                    ups[a][b] = None
                    downs[b][a] = None
        queue += downs[x]
        queue += ups[x]
    return tuple(lab for lab, keep in zip(p.labels, live) if keep)


class MirroredPoset(Frozen):
    """A poset with a monotone stratum map onto an index poset.

    ``assignments`` pairs each element label with its stratum label.  Use
    ``mirror_check`` for the actual axioms; construction only demands that
    the assignment is total and mentions known labels.  ``_of_strata``
    checks nothing: it takes the stratum labels in id order.
    """

    __slots__ = _fields = ("poset", "index_poset", "assignments")

    def __init__(self, poset: FinitePoset, index_poset: FinitePoset, assignments: tuple):
        pos, index = poset._pos, index_poset._pos
        stratum = [None] * len(pos)
        for lab, idx in assignments:
            i = pos.get(lab)
            if i is None:
                raise UnknownElementError(f"unknown element {lab!r}")
            if idx not in index:
                raise UnknownElementError(f"unknown element {idx!r}")
            if stratum[i] is not None:
                raise ValueError(f"element {lab!r} assigned twice")
            stratum[i] = idx
        if None in stratum:
            missing = [lab for lab, idx in zip(poset.labels, stratum) if idx is None]
            raise UnknownElementError(f"no stratum for {missing[:4]}")
        Frozen.__init__(self, poset, index_poset, tuple(zip(poset.labels, stratum)))

    @classmethod
    def _of_strata(cls, poset: FinitePoset, index_poset: FinitePoset, strata) -> "MirroredPoset":
        """The mirrored poset whose element i lies in stratum strata[i], a
        label of index_poset; nothing is checked or looked up, for the
        model builders, which make the strata in id order."""
        mp = cls.__new__(cls)
        Frozen.__init__(mp, poset, index_poset, tuple(zip(poset.labels, strata)))
        return mp

    @property
    def mirror(self) -> dict:
        return dict(self.assignments)

    def fibers(self) -> dict:
        """Stratum label -> sorted tuple of elements mapped there."""
        out = {idx: [] for idx in self.index_poset.labels}
        for lab, idx in self.assignments:
            out[idx].append(lab)
        # assignments are stored in label order
        return {idx: tuple(labs) for idx, labs in out.items()}


def mirrored(poset: FinitePoset, index_poset: FinitePoset, mapping: Mapping) -> MirroredPoset:
    return MirroredPoset(poset, index_poset, tuple(mapping.items()))


class MirrorReport(Frozen):
    __slots__ = _fields = ("ok", "violation")

    def __init__(self, ok: bool, violation: str | None = None):
        Frozen.__init__(self, ok, violation)


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


class GeometricReport(Frozen):
    __slots__ = _fields = ("ok", "a1_violations")

    def __init__(self, ok: bool, a1_violations: tuple = ()):
        Frozen.__init__(self, ok, a1_violations)


def geometric_discrete_check(mp: MirroredPoset) -> GeometricReport:
    """Discrete forms of the graded-space axioms.

    A1: for strata r < s, every element of stratum r has something above it
    in stratum s.  Only A1 is checked.  The openness and refinement axioms
    hold vacuously over discrete strata, where every subset is open and a
    cover inside a stratum has nothing to refine; the basis axiom reduces
    to the fact that the upset of a single element meets higher strata in
    elements genuinely above it.
    """
    fibers = mp.fibers()
    poset = mp.poset
    violations = []
    for r, s in mp.index_poset.strict_pairs():
        high = set(fibers[s])
        for x in fibers[r]:
            if high.isdisjoint(poset.upset([x])):
                violations.append(f"nothing above {x} in stratum {s}")
    return GeometricReport(not violations, tuple(violations))


def discrete_type_classes(p: FinitePoset) -> tuple:
    """Connected components of the comparability graph, each a frozenset,
    ordered by least label.

    They are the components of the cover graph, merged by union-find over
    the stored up-cover pairs: O(covers), where a walk over ``above`` and
    ``below`` costs O(strict pairs), and no container per element, whose
    garbage collection on a large poset costs more than the walk.
    """
    # root[i] <= i always: path halving moves i closer to its root, and
    # of two roots the larger joins the smaller.  a stays a root for the
    # rest of its covers.
    root = list(range(len(p.labels)))
    for a, cs in enumerate(p.up_covers):
        for b in cs:
            while root[a] != a:
                root[a] = root[root[a]]
                a = root[a]
            while root[b] != b:
                root[b] = root[root[b]]
                b = root[b]
            if a < b:
                root[b] = a
            elif b < a:
                root[a] = b
                a = b
    # in id order, root[root[i]] is already the least id of i's class, so
    # the classes are met, and listed, in least-label order
    classes = {}
    for i, lab in enumerate(p.labels):
        root[i] = root[root[i]]
        classes.setdefault(root[i], []).append(lab)
    return tuple(map(frozenset, classes.values()))


def format_poset_file(obj) -> str:
    """Canonical text: sorted elem lines, sorted cover-pair rel lines, and
    for mirrored posets an index block plus mirror lines."""
    if isinstance(obj, MirroredPoset):
        main, index = obj.poset, obj.index_poset
    else:
        main, index = obj, None
    check_file_labels(main.labels)
    lines = [f"elem {lab}" for lab in main.labels]
    lines += [f"rel {a} < {b}" for a, b in main.covers()]
    if index is not None:
        # the parser knows a mirrored poset by its mirror lines
        if not main.labels:
            raise ValueError("a mirrored poset with no elements has no mirror lines to write")
        check_file_labels(index.labels)
        lines.append("index")
        lines += [f"elem {lab}" for lab in index.labels]
        lines += [f"rel {a} < {b}" for a, b in index.covers()]
        lines += [f"mirror {lab} -> {idx}" for lab, idx in obj.assignments]
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
    for line in file_lines(text):
        tokens = line.split()
        if tokens == ["index"]:
            if target_elems is index_elems:
                raise ValueError("second index line; a poset file has one index block")
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
