"""Finite simplicial complexes, with order complexes of posets as the main
source.

A complex stores its vertex labels and every face as an increasing
tuple of vertex indices, in one store: a list per vertex of the faces
whose least vertex it is.  A complex is built one of two ways: checked
and closed downward from generators (the constructor and
`from_simplices`, and so the file reader and `join`), or unchecked
(`order_complex`), which computes only the layout its lists follow and
builds them on their first read.  The element matching of `homology`
reads the lists of a checked complex as they are and the layout of an
order complex, which needs no face.  The order complex of a poset has
one vertex per element and one face per non-empty chain; building it is
guarded by a simplex-count cap because chain counts explode much faster
than poset sizes.  Joins, Euler characteristics, cone detection, greedy
free-face collapsing, face posets, and barycentric subdivision live here
too.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from typing import TYPE_CHECKING, Iterable

from .errors import DEFAULT_SIMPLEX_CAP, Frozen, SizeCapExceededError, check_file_labels, file_lines

# posets are imported where a complex is made from one or made into one,
# so parsing a complex file and taking its homology loads no `poset`
if TYPE_CHECKING:
    from .poset import FinitePoset


class SimplicialComplex:
    """Immutable abstract simplicial complex on string-labeled vertices.

    There are two ways in.  `SimplicialComplex(labels, faces)` and
    `from_simplices`, which `parse_complex_lines` calls, check every face
    (non-empty, no vertex twice, known vertex indices) and close the faces
    downward.  `_of_lists`, which `order_complex` calls, takes faces kept
    by least vertex as given, with no check.  Only `order_complex` sets
    _layout, (order, below, size), from which its lists are built and the
    element matching of homology_groups reads runs of face ids; every
    other complex has None there.  The vertex indices are the order in
    which homology_groups matches faces: order_complex numbers the
    vertices from the poset, the checked way in label order.  Equality and
    hash see only the labels, so one complex numbered two ways compares
    equal.

    Every complex keeps its faces in one store, _lists, where _lists[r]
    holds the faces whose least vertex is r: a checked complex buckets
    them once when it is built, an order complex builds them from its
    layout on first read and then keeps them.  Iterating the complex walks
    the lists.  The face set serves membership alone (`has_face`,
    equality and `faces`); it is built from the lists on first use of
    `faces` and then kept.  So is the label-to-index dict, which only
    `has_face` and equality read.
    """

    __slots__ = ("labels", "_ids", "_faces", "_store", "_layout", "_size", "dim")

    def __init__(self, labels: Iterable[str], faces: Iterable[Iterable[int]]):
        labels = tuple(sorted(labels))
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate vertex labels")
        face_set = _closure([tuple(sorted(f)) for f in faces], len(labels))
        lists = [[] for _ in labels]
        for f in face_set:
            lists[f[0]].append(f)
        # the largest face has dim + 1 vertices; -1 for the empty complex
        self._keep(labels, lists, len(face_set), max(map(len, face_set), default=0) - 1)

    def _keep(self, labels: tuple, lists: list | None, size: int, dim: int) -> None:
        """Set every slot; the face set and the label-to-index dict wait
        for their first use, and so do the lists when None is given."""
        self.labels = labels
        self._ids = None
        self._faces = None
        self._store = lists
        self._layout = None
        self._size = size
        self.dim = dim

    @classmethod
    def _of_lists(
        cls, labels: tuple, lists: list | None, size: int, dim: int
    ) -> "SimplicialComplex":
        """A complex from distinct labels and its size faces by least
        vertex, closed and increasing by construction, with no check; for
        order_complex, which gives None and sets the layout they are built
        from."""
        c = cls.__new__(cls)
        c._keep(labels, lists, size, dim)
        return c

    @property
    def _lists(self) -> list:
        """The faces by least vertex.  An order complex builds them on
        first read, from its layout (order, below, size): the faces of
        vertex r are, for each j of below[order[r]] in sorted id order,
        (r,) joined to every face of the vertex of j, and then (r,) alone.
        The elements below order[r] come after it in the order, so walking
        it backwards finds their lists built: one comprehension per
        element, one tuple concatenation per face, every face increasing.
        A minimal element holds its singleton face alone."""
        if self._store is None:
            order, below, _ = self._layout
            chains = [None] * len(order)
            for r in range(len(order) - 1, -1, -1):
                i = order[r]
                head = (r,)
                if below[i]:
                    chains[i] = own = [head + g for j in below[i] for g in chains[j]]
                    own.append(head)
                else:
                    chains[i] = (head,)
            self._store = list(map(chains.__getitem__, order))
        return self._store

    @property
    def _pos(self) -> dict:
        """Label -> vertex index, built on first use and then kept."""
        if self._ids is None:
            self._ids = dict(zip(self.labels, range(len(self.labels))))
        return self._ids

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
        labels = sorted(set().union(*gens))
        pos = dict(zip(labels, range(len(labels))))
        return cls(labels, ({pos[lab] for lab in g} for g in gens))

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


def _closure(gens: list, n: int) -> set:
    """Every face of the generators, increasing tuples of vertex indices
    below n.  A generator that is empty, repeats a vertex or uses an
    unknown one is a ValueError.  Refuses at once when one generator's
    2^m - 1 faces, a lower bound on the closure, exceed DEFAULT_SIMPLEX_CAP,
    and otherwise as soon as the closure passes it."""
    cap = DEFAULT_SIMPLEX_CAP
    for f in gens:
        if not f:
            raise ValueError("faces must be non-empty")
        if not (0 <= f[0] and f[-1] < n):
            raise ValueError(f"face {f} uses an unknown vertex index")
        if len(set(f)) < len(f):
            raise ValueError(f"face {f} repeats a vertex")
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
    hundreds of extra critical cells on some relabeled power models.

    An antichain, such as a power model with n = 1, ties everywhere and
    its first element alone has layer 0, so it keeps index order, with no
    list per element made.  Otherwise the walk follows one list per
    element, its up-covers and then its down-covers, and one stable sort on
    the integer key height * (n + 1) + layer, height = above * (n + 1) +
    n - below, leaves ties by index."""
    n = len(p.labels)
    up_covers = p.up_covers
    if not any(up_covers):
        return list(range(n))
    m = n + 1
    height = [a * m + n - b for a, b in zip(map(len, p.above), map(len, p.below))]
    covers = list(map(list, up_covers))
    for i, ups in enumerate(up_covers):
        for j in ups:
            covers[j].append(i)
    first = min(range(n), key=height.__getitem__)
    layer = [n] * n
    layer[first] = 0
    frontier = [first]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for i in frontier:
            for j in covers[i]:
                if layer[j] == n:
                    layer[j] = depth
                    nxt.append(j)
        frontier = nxt
    key = [h * m + d for h, d in zip(height, layer)]
    return sorted(range(n), key=key.__getitem__)


def order_complex(p: FinitePoset, cap: int = DEFAULT_SIMPLEX_CAP) -> SimplicialComplex:
    """The complex of non-empty chains of p, its vertices numbered in the
    order of _hasse_order.

    Only the layout is computed: the order, and the number of chains with
    each top element and the dimension, which come from the count that
    chain_count shares (`poset._chains_by_top`), cached on p.  More chains
    than the cap raise SizeCapExceededError.  The faces are built on their
    first read (see `SimplicialComplex._lists`); homology_groups matches
    them on the layout alone.
    """
    from .poset import _chains_by_top

    size, dim = _chains_by_top(p)
    total = sum(size)
    if total > cap:
        raise SizeCapExceededError(
            f"order complex would hold {total} chains, cap is {cap}"
        )
    order = _hasse_order(p)
    c = SimplicialComplex._of_lists(tuple(map(p.labels.__getitem__, order)), None, total, dim)
    c._layout = (order, p.below, size)
    return c


def euler_characteristic(c: SimplicialComplex) -> int:
    return sum((-1) ** d * n for d, n in enumerate(c.f_vector()))


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join: unions of a face from each side (and the originals).

    Vertex labels are prefixed only when the two sides collide, and every
    label of both sides is kept, also one in no face.  Face counts
    multiply: a join of more than DEFAULT_SIMPLEX_CAP faces, the cap the
    checked constructor closes under, is refused before anything is built.
    """
    total = (len(a) + 1) * (len(b) + 1) - 1
    if total > DEFAULT_SIMPLEX_CAP:
        raise SizeCapExceededError(f"join would hold {total} faces, cap is {DEFAULT_SIMPLEX_CAP}")
    clash = set(a.labels) & set(b.labels)
    la = [f"A:{lab}" for lab in a.labels] if clash else list(a.labels)
    lb = [f"B:{lab}" for lab in b.labels] if clash else list(b.labels)
    labels = sorted(la + lb)
    pos = dict(zip(labels, range(len(labels))))
    amap = [pos[lab] for lab in la]
    bmap = [pos[lab] for lab in lb]
    afaces = [tuple(map(amap.__getitem__, f)) for f in a]
    bfaces = [tuple(map(bmap.__getitem__, f)) for f in b]
    return SimplicialComplex(labels, afaces + bfaces + [fa + fb for fa in afaces for fb in bfaces])


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


def barycentric_subdivision(c: SimplicialComplex) -> SimplicialComplex:
    """Order complex of the face poset: one vertex per face, one face per
    chain of faces."""
    return order_complex(face_poset(c))


def complex_to_lines(c: SimplicialComplex) -> list:
    """Canonical export: every face on one line as sorted labels, lines
    sorted; diff-friendly.  A label that check_file_labels refuses, or a
    vertex in no face, which no line could carry, is a ValueError."""
    check_file_labels(c.labels)
    for lab, faces in zip(c.labels, c._lists):
        if not faces:
            raise ValueError(f"vertex {lab!r} is in no face, so no line can carry it")
    return sorted(" ".join(c.face_labels(f)) for f in c)


def parse_complex_lines(text) -> SimplicialComplex:
    """Parse the export form, as text or as a list of lines such as
    complex_to_lines returns; lines are face generators, closure is taken."""
    if not isinstance(text, str):
        text = "\n".join(text)
    return SimplicialComplex.from_simplices([line.split() for line in file_lines(text)])
