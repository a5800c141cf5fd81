"""Finite simplicial complexes, with order complexes of posets as the main
source.

A complex stores its vertex labels and every face as an increasing
tuple of vertex indices, in one store: a list per vertex of the faces
whose least vertex it is, which the element matching of `homology` reads
as it is.  The order complex of a poset has one vertex per element and
one face per non-empty chain; building it is guarded by a simplex-count
cap because chain counts explode much faster than poset sizes.  Joins,
Euler characteristics, cone detection, greedy free-face collapsing, face
posets, and barycentric subdivision live here too.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Iterable

from .errors import DEFAULT_SIMPLEX_CAP, Frozen, SizeCapExceededError

# posets are imported where a complex is made from one or made into one,
# so parsing a complex file and taking its homology loads no `poset`
if TYPE_CHECKING:
    from .poset import FinitePoset


class SimplicialComplex:
    """Immutable abstract simplicial complex on string-labeled vertices.

    Every face is checked when the complex is built: non-empty, no vertex
    twice, known vertex indices, and with closed=True every facet present.
    The vertex indices are the order in which homology_groups matches
    faces: order_complex numbers the vertices from the poset, every other
    constructor in label order.  Equality and hash see only the labels,
    so one complex numbered two ways compares equal.

    Every complex keeps its faces in one store, _lists, where _lists[r]
    holds the faces whose least vertex is r: an order complex in the order
    it built them, any other complex bucketed once when it is built.
    Iterating the complex walks the lists, and homology_groups hands them
    to the element matching.  The face set serves membership alone
    (`has_face`, equality and `faces`); it is built from the lists on
    first use of `faces` and then kept.
    """

    __slots__ = ("labels", "_pos", "_faces", "_lists", "_size", "dim")

    def __init__(self, labels: Iterable[str], faces: Iterable[tuple], closed: bool = False):
        labels = tuple(sorted(labels))
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate vertex labels")
        self._build(labels, [tuple(sorted(f)) for f in faces], closed)

    def _build(self, labels: tuple, gens: list, closed: bool) -> None:
        """Check each increasing face against the distinct sorted labels,
        close the faces downward (or, with closed, check that they are
        closed) and store them."""
        for f in gens:
            if not f:
                raise ValueError("faces must be non-empty")
            if not (0 <= f[0] and f[-1] < len(labels)):
                raise ValueError(f"face {f} uses an unknown vertex index")
            if len(set(f)) < len(f):
                raise ValueError(f"face {f} repeats a vertex")
        if closed:
            face_set = set(gens)
            for f in face_set:
                if len(f) > 1:
                    for i in range(len(f)):
                        if f[:i] + f[i + 1 :] not in face_set:
                            raise KeyError(f"face {f} lacks its facet {f[:i] + f[i + 1 :]}")
        else:
            face_set = _closure(gens)
        self._init(labels, face_set)

    def _init(self, labels: tuple, faces) -> None:
        """Keep a collection of distinct increasing faces, bucketed by
        least vertex, with no check."""
        lists = [[] for _ in labels]
        for f in faces:
            lists[f[0]].append(f)
        # the largest face has dim + 1 vertices; -1 for the empty complex
        self._keep(labels, lists, len(faces), max(map(len, faces), default=0) - 1)

    def _keep(self, labels: tuple, lists: list, size: int, dim: int) -> None:
        """Set every slot; the face set waits for its first use."""
        self.labels = labels
        self._pos = dict(zip(labels, range(len(labels))))
        self._faces = None
        self._lists = lists
        self._size = size
        self.dim = dim

    @classmethod
    def _closed(cls, labels: tuple, faces) -> "SimplicialComplex":
        """A complex from distinct labels and distinct increasing faces
        that are closed by construction, with no check; for join."""
        c = cls.__new__(cls)
        c._init(labels, faces)
        return c

    @classmethod
    def _of_lists(cls, labels: tuple, lists: list, size: int, dim: int) -> "SimplicialComplex":
        """A complex from distinct labels and its size faces by least
        vertex, closed and increasing by construction, with no check; for
        order_complex."""
        c = cls.__new__(cls)
        c._keep(labels, lists, size, dim)
        return c

    @property
    def faces(self) -> frozenset:
        """Every face, as a set built on first use and then kept."""
        if self._faces is None:
            self._faces = frozenset(self)
        return self._faces

    @classmethod
    def from_simplices(cls, simplices: Iterable[Iterable[str]]) -> "SimplicialComplex":
        """Build from label-level generators, closing downward.  Each
        generator is mapped to its set of vertex indices first, which drops
        a repeated label, and sorted once, as integers."""
        gens = list(map(tuple, simplices))
        labels = tuple(sorted(set().union(*gens)))
        pos = dict(zip(labels, range(len(labels))))
        c = cls.__new__(cls)
        c._build(labels, [tuple(sorted({pos[lab] for lab in g})) for g in gens], False)
        return c

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        if self._pos.keys() != other._pos.keys() or self._size != other._size:
            return False
        faces = self.faces
        if self.labels == other.labels:
            return all(map(faces.__contains__, other))
        to_self = [self._pos[lab] for lab in other.labels]
        return all(tuple(sorted(map(to_self.__getitem__, f))) in faces for f in other)

    def __hash__(self):
        # the label set and the face count do not depend on the numbering
        return hash((frozenset(self.labels), self._size))

    def __iter__(self):
        """The faces by least vertex, each once."""
        return itertools.chain.from_iterable(self._lists)

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.labels)} vertices, {self._size} faces, dim {self.dim})"

    def faces_of_dim(self, d: int) -> list:
        """The d-faces, sorted; each call sorts them afresh."""
        return sorted(f for f in self if len(f) == d + 1)

    def f_vector(self) -> tuple:
        sizes = Counter(map(len, self))
        return tuple(sizes[d + 1] for d in range(self.dim + 1))

    def face_labels(self, face: tuple) -> tuple:
        """The labels of a face, sorted."""
        return tuple(sorted(map(self.labels.__getitem__, face)))

    def has_face(self, simplex: Iterable[str]) -> bool:
        try:
            key = tuple(sorted(self._pos[lab] for lab in simplex))
        except KeyError:
            return False
        return key in self.faces

    def maximal_faces(self) -> list:
        """Faces that are no codimension-1 facet of another face, sorted.
        Marking the facets of every face costs O(faces x dim)."""
        facets = {f[:i] + f[i + 1 :] for f in self for i in range(len(f))}
        return sorted(f for f in self if f not in facets)


def _closure(gens: list) -> set:
    """Every face of the generators.  Refuses at once when one generator's
    2^m - 1 faces, a lower bound on the closure, exceed DEFAULT_SIMPLEX_CAP,
    and otherwise as soon as the closure passes it."""
    cap = DEFAULT_SIMPLEX_CAP
    for f in gens:
        if 2 ** len(f) - 1 > cap:
            raise SizeCapExceededError(
                f"a generator closes to {2 ** len(f) - 1} faces, cap is {cap}"
            )
    face_set = set()
    stack = gens
    while stack:
        f = stack.pop()
        if f in face_set:
            continue
        face_set.add(f)
        if len(face_set) > cap:
            raise SizeCapExceededError(f"the closure holds more than {cap} faces, cap is {cap}")
        if len(f) > 1:
            for i in range(len(f)):
                g = f[:i] + f[i + 1 :]
                if g not in face_set:
                    stack.append(g)
    return face_set


def _hasse_order(p: FinitePoset) -> list:
    """Elements with fewest elements above first, then most below; ties
    by BFS layer in the undirected cover graph from the first of them,
    then by index.  Homology matches the order complex's faces in this
    order; without the BFS layer, ties fall to label order, which leaves
    hundreds of extra critical cells on some relabeled power models."""
    n = len(p.labels)
    if n == 0:
        return []
    height = list(zip(map(len, p.above), map(operator.neg, map(len, p.below))))
    covers = defaultdict(list)
    for i, ups in enumerate(p.up_covers):
        for j in ups:
            covers[i].append(j)
            covers[j].append(i)
    first = min(range(n), key=height.__getitem__)
    layer = [n] * n
    layer[first] = 0
    frontier = [first]
    while frontier:
        nxt = []
        for i in frontier:
            for j in covers[i]:
                if layer[j] == n:
                    layer[j] = layer[i] + 1
                    nxt.append(j)
        frontier = nxt
    # sorting is stable: by layer, then by height, leaves ties by index
    order = sorted(range(n), key=layer.__getitem__)
    order.sort(key=height.__getitem__)
    return order


def order_complex(p: FinitePoset, cap: int = DEFAULT_SIMPLEX_CAP) -> SimplicialComplex:
    """The complex of non-empty chains of p, its vertices numbered in the
    order of _hasse_order.

    Chain counts are computed first; anything beyond the cap raises
    SizeCapExceededError instead of building.  The dimension is the
    longest chain's length less one.
    """
    from .poset import chain_count

    total = chain_count(p)
    if total > cap:
        raise SizeCapExceededError(
            f"order complex would hold {total} chains, cap is {cap}"
        )
    order = _hasse_order(p)
    below = p.below
    # chains[i]: the chains with maximum i, as tuples of ranks in the order;
    # longest[i]: the most elements in one of them.  The elements below i
    # come after i in the order, so walking it backwards finds their chains
    # built, and each chain of i is (rank of i,) joined to one of theirs:
    # one comprehension per element, one tuple concatenation per face, every
    # face increasing.  A minimal element holds its singleton face alone.
    # The chains of order[r] are the faces with least vertex r, which the
    # complex keeps as they are; total, already counted, is their number.
    chains = [None] * len(order)
    longest = [1] * len(order)
    for r in range(len(order) - 1, -1, -1):
        i = order[r]
        head = (r,)
        if below[i]:
            chains[i] = own = [head + g for j in below[i] for g in chains[j]]
            own.append(head)
            longest[i] += max(map(longest.__getitem__, below[i]))
        else:
            chains[i] = (head,)
    return SimplicialComplex._of_lists(
        tuple(map(p.labels.__getitem__, order)),
        list(map(chains.__getitem__, order)),
        total,
        max(longest, default=0) - 1,
    )


def euler_characteristic(c: SimplicialComplex) -> int:
    return sum((-1) ** d * n for d, n in enumerate(c.f_vector()))


def join(a: SimplicialComplex, b: SimplicialComplex, cap: int = DEFAULT_SIMPLEX_CAP) -> SimplicialComplex:
    """Simplicial join: unions of a face from each side (and the originals).

    Vertex labels are prefixed only when the two sides collide.  Face
    counts multiply, so the same cap as for order complexes applies.  The
    two sides' vertex sets are disjoint, so the faces built are distinct
    by construction and are kept in a list.
    """
    total = (len(a) + 1) * (len(b) + 1) - 1
    if total > cap:
        raise SizeCapExceededError(f"join would hold {total} faces, cap is {cap}")
    clash = set(a.labels) & set(b.labels)
    la = [f"A:{lab}" for lab in a.labels] if clash else list(a.labels)
    lb = [f"B:{lab}" for lab in b.labels] if clash else list(b.labels)
    labels = la + lb
    order = sorted(range(len(labels)), key=lambda i: labels[i])
    rank = [0] * len(labels)
    for new, old in enumerate(order):
        rank[old] = new
    amap = [rank[i] for i in range(len(la))]
    bmap = [rank[len(la) + i] for i in range(len(lb))]
    afaces = [tuple(sorted(amap[i] for i in f)) for f in a]
    bfaces = [tuple(sorted(bmap[i] for i in f)) for f in b]
    faces = afaces + bfaces + [tuple(sorted(fa + fb)) for fa in afaces for fb in bfaces]
    return SimplicialComplex._closed(tuple(sorted(labels)), faces)


def cone_apexes(c: SimplicialComplex) -> list:
    """Vertices contained in every maximal face, sorted by label: one
    `maximal_faces` pass and an intersection."""
    maximal = c.maximal_faces()
    common = set(maximal[0]).intersection(*maximal[1:]) if maximal else ()
    return sorted(c.labels[i] for i in common)


class CollapseResult(Frozen):
    """Contractibility certificate: a cone apex or an elementary collapse
    sequence ending in one vertex.  collapsible=False only means the greedy
    search got stuck, never that the complex is essential."""

    __slots__ = _fields = ("collapsible", "method", "apex", "steps")

    def __init__(
        self,
        collapsible: bool,
        method: str | None = None,
        apex: str | None = None,
        steps: tuple = (),
    ):
        Frozen.__init__(self, collapsible, method, apex, steps)


def collapse_certify(c: SimplicialComplex) -> CollapseResult:
    """Detect a cone, else greedily remove free face pairs.

    A face is free when it has exactly one immediate coface; removing the
    pair preserves the homotopy type.  The greedy order (smallest face
    first) is deterministic.
    """
    if not len(c):
        return CollapseResult(False)
    apexes = cone_apexes(c)
    if apexes:
        return CollapseResult(True, "cone", apexes[0])
    faces = set(c)
    cofaces = {f: set() for f in faces}
    for f in faces:
        if len(f) > 1:
            for i in range(len(f)):
                cofaces[f[: i] + f[i + 1 :]].add(f)
    heap = [(len(f), f) for f, cs in cofaces.items() if len(cs) == 1]
    heapq.heapify(heap)
    steps = []
    while heap:
        _, f = heapq.heappop(heap)
        if f not in faces or len(cofaces[f]) != 1:
            continue
        (g,) = cofaces[f]
        faces.discard(f)
        faces.discard(g)
        steps.append((c.face_labels(f), c.face_labels(g)))
        for parent, child in ((g, f), (f, None)):
            if len(parent) > 1:
                for i in range(len(parent)):
                    facet = parent[: i] + parent[i + 1 :]
                    if facet in faces:
                        cofaces[facet].discard(parent)
                        if len(cofaces[facet]) == 1:
                            heapq.heappush(heap, (len(facet), facet))
    if len(faces) == 1 and len(next(iter(faces))) == 1:
        return CollapseResult(True, "collapse", None, tuple(steps))
    return CollapseResult(False, None, None, tuple(steps))


def face_poset(c: SimplicialComplex) -> FinitePoset:
    """Non-empty faces ordered by strict inclusion.

    Only the covers, each face above its facets, are passed on; the
    closure pass of FinitePoset derives every other inclusion.  Face
    labels join vertex labels with '|'.
    """
    from .poset import FinitePoset

    names = {f: "|".join(c.face_labels(f)) for f in c}
    pairs = [
        (names[f[:t] + f[t + 1 :]], nf)
        for f, nf in names.items()
        if len(f) > 1
        for t in range(len(f))
    ]
    return FinitePoset(names.values(), pairs)


def barycentric_subdivision(c: SimplicialComplex, cap: int = DEFAULT_SIMPLEX_CAP) -> SimplicialComplex:
    """Order complex of the face poset: one vertex per face, one face per
    chain of faces."""
    return order_complex(face_poset(c), cap)


def complex_to_lines(c: SimplicialComplex) -> list:
    """Canonical export: every face on one line as sorted labels, lines
    sorted; diff-friendly."""
    for lab in c.labels:
        if any(ch.isspace() for ch in lab):
            raise ValueError(f"label {lab!r} contains whitespace")
    return sorted(" ".join(c.face_labels(f)) for f in c)


def parse_complex_lines(text) -> SimplicialComplex:
    """Parse the export form; lines are face generators, closure is taken."""
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = list(text)
    gens = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        gens.append(line.split())
    return SimplicialComplex.from_simplices(gens)
