"""Integer simplicial homology through discrete Morse theory.

homology_groups runs one element matching over the faces (Jonsson,
"Simplicial Complexes of Graphs", LNM 1928): taking the vertices v in
index order, it pairs every still unmatched face f containing v with
f - v when that face is unmatched too.  It works on integer ids: a
face's id is its place in the concatenation of the lists that keep the
faces by least vertex, and one list, mate, says of each face whether it
is critical, matched with a face below it, or matched with a face above
it, whose id it then holds.  A face first tries its least vertex, and
only a face whose try fails joins a retry list, at its next vertex.  On
an order complex the matching reads only the layout: the faces that
share a prefix have consecutive ids, and it pairs and queues such runs
whole, with no face made (`_element_matching`).  The faces of a complex
built the checked way, or of a face poset, are numbered once by one dict,
which the tries read one face at a time (`_face_matching`).  A sequence
of element matchings is acyclic, so by Forman ("Morse theory for cell
complexes", Adv. Math. 134, 1998) the faces left over, the critical
cells, span a chain complex with the homology of the whole.  Its
boundary follows each critical cell's boundary along the matching to the
critical cells one dimension down, and is built only between dimensions
that both hold critical cells.  On the order complexes of the power
models, whose vertices order_complex numbers from the poset, only
Betti + 1 cells are critical, so no boundary is built at all.  A finite
space that is the face poset of a complex reaches the same matching on
that complex's faces (`mccord.finite_space_homology`), with no complex
object built.

The Morse boundaries are reduced by one eliminator, which consumes row
dicts and keeps its own column index: a unit-pivot phase taking the
shortest row first from a lazy heap, then a classical min-entry phase on
whatever small residue remains.  Divisibility of the invariant factors is
restored afterwards by one pass of gcd/lcm exchanges over the sorted
factors other than 1, which is cheaper than enforcing it during
elimination.  boundary_matrix and smith_normal_form expose the full
boundary maps and the same eliminator on an explicit IntegerMatrix of
integers.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from typing import TYPE_CHECKING

from .errors import DimOutOfRangeError, Frozen

# complexes are only read here, so a `homology` child that parses one loads
# `simplicial` for the parser alone, and `mccord` on a face poset none
if TYPE_CHECKING:
    from .simplicial import SimplicialComplex


class IntegerMatrix(Frozen):
    """Sparse integer matrix; entries is a sorted tuple of (row, col, value).
    The shape and every entry must be of type int: a bool, which Python
    counts as an int, is refused as a float is."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple = ()):
        if not (type(rows) is int and type(cols) is int):
            raise ValueError(f"shape {rows!r}x{cols!r} is not integer")
        if rows < 0 or cols < 0:
            raise ValueError(f"shape {rows}x{cols} is negative")
        entries = tuple(entries)
        seen = set()
        for i, j, v in entries:
            if not (type(i) is int and type(j) is int and type(v) is int):
                raise ValueError(f"entry ({i!r},{j!r}) = {v!r} is not an integer")
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
            if v == 0:
                raise ValueError("explicit zero entry")
            if (i, j) in seen:
                raise ValueError(f"duplicate entry at ({i},{j})")
            seen.add((i, j))
        Frozen.__init__(self, rows, cols, tuple(sorted(entries)))

    @classmethod
    def from_dense(cls, grid) -> "IntegerMatrix":
        grid = [list(row) for row in grid]
        rows = len(grid)
        cols = len(grid[0]) if grid else 0
        if any(len(row) != cols for row in grid):
            raise ValueError(f"rows of lengths {sorted(set(map(len, grid)))} are ragged")
        # only an int zero is left out: every other entry, False and 0.0
        # among them, goes to the constructor's check
        entries = [
            (i, j, v) for i, row in enumerate(grid)
            for j, v in enumerate(row) if v or type(v) is not int
        ]
        return cls(rows, cols, tuple(entries))

    def to_dense(self) -> list:
        grid = [[0] * self.cols for _ in range(self.rows)]
        for i, j, v in self.entries:
            grid[i][j] = v
        return grid


def boundary_matrix(c: SimplicialComplex, dim: int) -> IntegerMatrix:
    """Boundary map from dim-faces to (dim-1)-faces.

    Column f = (v0 < ... < vd) holds (-1)^t at the row of f minus its t-th
    vertex.  dim 0 maps to a zero-row matrix; dim == c.dim + 1 has no
    columns.  A missing facet raises KeyError, a repeated one ValueError.
    """
    if dim < 0 or dim > c.dim + 1:
        raise DimOutOfRangeError(f"dimension {dim} not in 0..{c.dim + 1}")
    cols = c.faces_of_dim(dim)
    if dim == 0:
        return IntegerMatrix(0, len(cols))
    row_pos = {f: i for i, f in enumerate(c.faces_of_dim(dim - 1))}
    entries = tuple(
        (row_pos[f[:t] + f[t + 1 :]], j, (-1) ** t)
        for j, f in enumerate(cols)
        for t in range(len(f))
    )
    return IntegerMatrix(len(row_pos), len(cols), entries)


def _row_sub(rows, col_index, i, src, q):
    """row_i -= q * src, dropping zeros; deletes row i if it empties."""
    ri = rows[i]
    for j, w in src.items():
        nv = ri.get(j, 0) - q * w
        if nv:
            ri[j] = nv
            col_index[j].add(i)
        elif j in ri:
            del ri[j]
            col_index[j].discard(i)
    if not ri:
        del rows[i]


def _eliminate(rows: dict) -> tuple:
    """Reduce a matrix given as row dicts {row: {col: non-zero value}},
    consuming them, to its non-zero invariant factors, positive and in
    divisibility order.  The column index is built here and kept exact by
    _row_sub, so a column never names a deleted row."""
    col_index = {}
    for i, r in rows.items():
        for j in r:
            col_index.setdefault(j, set()).add(i)
    factors = []

    # phase 1: unit pivots, shortest row first.  Keys are just row
    # lengths, so stale heap entries cost one O(1) check instead of a
    # Markowitz rescan; the row is only scanned once, when it wins.
    heap = [(len(r), i) for i, r in rows.items()]
    heapq.heapify(heap)
    while heap:
        key, i0 = heapq.heappop(heap)
        r0 = rows.get(i0)
        if not r0:
            continue
        if len(r0) > key:
            heapq.heappush(heap, (len(r0), i0))
            continue
        best = None
        for j, v in r0.items():
            if v == 1 or v == -1:
                cand = (len(col_index[j]), j)
                if best is None or cand < best:
                    best = cand
        if best is None:
            # no unit entry; phase 2 picks it up unless a later
            # subtraction re-pushes it
            continue
        j0 = best[1]
        v0 = r0[j0]
        factors.append(1)
        touched = [i for i in col_index[j0] if i != i0]
        for i in touched:
            _row_sub(rows, col_index, i, r0, rows[i][j0] * v0)
        for j in r0:
            col_index[j].discard(i0)
        del rows[i0]
        for i in touched:
            if i in rows:
                heapq.heappush(heap, (len(rows[i]), i))

    # phase 2: whatever is left has no unit entries; classical reduction
    # from the least entry, by Euclid steps along its column and its row
    while rows:
        _, i0, j0 = min((abs(v), i, j) for i, r in rows.items() for j, v in r.items())
        while True:
            r0 = rows[i0]
            if r0[j0] < 0:
                for j in r0:
                    r0[j] = -r0[j]
            p = r0[j0]
            for i in list(col_index[j0]):
                if i != i0:
                    q = rows[i][j0] // p
                    if q:
                        _row_sub(rows, col_index, i, r0, q)
                    if i in col_index[j0]:
                        i0 = i  # strictly smaller remainder becomes the pivot
                        break
            else:
                for j in list(r0):
                    if j != j0:
                        q, r = divmod(r0[j], p)
                        # column j  -=  q * column j0 touches only this row now
                        if r:
                            r0[j] = r
                            j0 = j
                            break
                        del r0[j]
                        col_index[j].discard(i0)
                else:
                    break
        factors.append(rows[i0][j0])
        col_index[j0].discard(i0)
        del rows[i0]

    # restore divisibility: diag(a, b) is equivalent to diag(gcd, lcm).
    # Factors equal to 1 divide everything, so only the sorted tail needs
    # work.  After step a, tail[a] divides every later factor, and the
    # later steps, taking gcds and lcms of its multiples, keep that.
    factors.sort()
    ones = bisect.bisect_right(factors, 1)
    tail = factors[ones:]
    for a in range(len(tail)):
        for b in range(a + 1, len(tail)):
            g = math.gcd(tail[a], tail[b])
            tail[a], tail[b] = g, tail[a] * tail[b] // g
    factors[ones:] = tail
    return tuple(factors)


def smith_normal_form(m: IntegerMatrix) -> tuple:
    """Nonzero invariant factors of m, positive and in divisibility order."""
    rows = {}
    for i, j, v in m.entries:
        rows.setdefault(i, {})[j] = v
    return _eliminate(rows)


# the mate of a face matched with a face below it; a face matched with a
# face above it has that face's id, a critical face None
_BELOW = -1


class HomologySummary(Frozen):
    """Integer homology of one complex.

    groups maps dimension to (betti rank, torsion factors), sorted by
    dimension, keeping only nontrivial entries.  critical counts the
    critical cells per dimension 0..top_dim that the element matching left,
    whether it ran on an order complex or, through
    `mccord.finite_space_homology`, on the complex whose face poset a
    finite space is.  Equality and hash see groups and the reduced flag but
    not top_dim or critical, so complexes of different dimension with the
    same homology compare equal.
    """

    __slots__ = _fields = ("groups", "top_dim", "reduced", "critical")

    def __init__(self, groups: tuple, top_dim: int, reduced: bool = False, critical: tuple = ()):
        Frozen.__init__(self, groups, top_dim, reduced, critical)

    def _key(self) -> tuple:
        return (self.groups, self.reduced)

    def group(self, d: int) -> tuple:
        for dim, g in self.groups:
            if dim == d:
                return g
        return (0, ())

    def betti(self, d: int) -> int:
        return self.group(d)[0]


def _face_matching(lists: list, top: int) -> tuple:
    """The element matching, in vertex index order, over the faces of a
    complex of dimension top closed under taking facets, given by least
    vertex: lists[r] holds the faces whose least vertex is r.  A face's id
    is its position in faces, the concatenation of the lists, and number,
    built here, maps every face to its id; a missing facet raises
    KeyError.

    One sweep over the vertices: at vertex r, every unmatched face f that
    contains r and has two or more vertices is matched with f - r when
    that face is unmatched too.  The faces of lists[r] take their first
    tries there, and then the faces queued at r take their retries.  A
    face whose try fails is queued at its next vertex, so it sits in one
    retry list at a time.  Returns (faces, number, mate, critical): mate[i]
    is None when face i is critical, _BELOW when it is matched with a face
    below it, and the id of its partner when it is matched with a face
    above it; critical[d] lists the ids of the critical d-faces, in
    increasing order.
    """
    faces = list(itertools.chain.from_iterable(lists))
    mate = [None] * len(faces)
    number = dict(zip(faces, range(len(faces))))
    tried = [[] for _ in lists]
    end = 0
    for r, first in enumerate(lists):
        end += len(first)
        for u in itertools.chain(range(end - len(first), end), tried[r]):
            f = faces[u]
            if mate[u] is not None or len(f) == 1:
                continue
            t = f.index(r)
            d = number[f[:t] + f[t + 1 :]]
            if mate[d] is None:
                mate[u] = _BELOW
                mate[d] = u
            elif t + 1 < len(f):
                tried[f[t + 1]].append(u)
        tried[r] = None
    critical = [[] for _ in range(top + 1)]
    for i, m in enumerate(mate):
        if m is None:
            critical[len(faces[i]) - 1].append(i)
    return faces, number, mate, critical


def _element_matching(layout: tuple, top: int) -> tuple:
    """The matching of _face_matching on the order complex of dimension
    top laid out by layout = (order, below, size), made a run of face ids
    at a time, with no face built.  Returns (mate, critical), which
    _face_matching gives on the complex's lists too.

    Runs.  Vertex r is the element order[r], and lists[r] holds, for each
    j of below[order[r]] in sorted id order, (r,) joined to every face of
    the list of j, and then (r,) alone: size[order[r]] faces.  So the
    faces that begin with a given chain, a prefix, have consecutive ids;
    they are its run.  Elements stand for their vertices below.  Let
    start[i] be the first id of the list of i, and for a prefix P ending
    at p, x the first id of the run of P, so x = start[p] when P = (p,).
    The run of P + (j,), for j below p, begins at x + off[p][j], off[p][j]
    being where j's block begins in the list of p, and holds size[j]
    faces; P itself is the last face of its run, at x + size[p] - 1.  Two
    runs are paired by two slice assignments of mate, or by two stores
    when they hold one face each, as the runs of a minimal element do.

    A first try at i pairs, for each j below i, the run of (i, j) with the
    run of (j,), at start[j].  A run of P + (j,) whose pair is taken is
    queued at j, its next vertex, as (first, x, p, depth): its first id, the
    first id of the run of P, the last element of P and the length of P;
    at a first try P = (i,).  Its retry pairs, for each k below j, the
    run of P + (j, k) with the run of P + (k,), at x + off[p][k], or
    queues it at k as (its first id, first, j, depth + 1); then it pairs the
    face P + (j,) with P.  When P is taken, P + (j,) has no vertex left to
    try: it is a candidate critical cell of dimension depth, and stays
    critical unless a later pairing takes it, as mate says at the end.
    Every critical cell of positive dimension is a candidate, and the
    critical vertices are the singletons left unmatched.  The offsets
    off[p] are built the first time a retry at an element with elements
    below it reads them, so a complex whose first tries all succeed, or
    one of dimension 1, builds none.

    Every first try runs before every retry, where _face_matching takes
    each vertex's first tries and then its retries in one sweep; the pairs
    are the same.  A first try at r pairs a face whose least vertex is r
    with f[1:], whose least vertex is later, and a retry at r pairs two
    faces whose least vertex is earlier than r.  So a first try touches no
    face that a retry at an earlier vertex touches, and within one vertex
    the pairs (f, f - r) are disjoint.  The split pays here: one sweep,
    with the first tries run as retries of an empty prefix, gave the same
    matching, but `pipeline-large` wall time rose by 1.2% to 6.1% in 4 of
    4 alternating pairs of runs (2 cores, Python 3.11).

    Each pairing is decided by reading mate at the first face of each
    side, on two grounds, and so it makes, grouped, the pairs that
    _face_matching makes face by face.

    (a) A face whose top element is not maximal is matched before its own
    first try.  Everything above that top element ranks earlier, and the
    smallest vertex w that extends the face pairs with it at w's first
    try: no vertex before w extends the face, or the face with w added, so
    neither was matched before.  So the first tries run only at maximal
    elements, and any other is passed over on one read of mate at its
    first face.  No face with a maximal top is matched before its first
    try, since the first tries of earlier vertices match only faces whose
    top is lower.

    (b) Each run is matched or free as a whole when it is read.  Two runs
    nest or are disjoint, and every pairing, whether a first try, a run or
    a single last-vertex pair, is between two runs or two faces.  Every
    vertex of a run's suffix ranks after the vertex v being processed, and
    so does the last vertex of its prefix, but for a queued run read at v,
    before its own pairings.  A pairing made at w <= v has the sides
    P + (w, k) and P + (k,), runs, or P + (w,) and P, faces, for a prefix P
    of vertices before w.  A side lies strictly inside the run only if the
    run's prefix is a proper prefix of the side's, or a prefix of the
    face, and every such prefix ends at w or before.  At w = v that leaves
    the sides P + (v, k) and P + (v,) of a queued run of P + (v,), which
    are its own pairings.  So every earlier pairing either contains the
    run or misses it.
    """
    order, below, size = layout
    # the candidates for critical cells: every singleton, and every face
    # whose last try failed, by dimension
    found = [[] for _ in range(top + 1)]
    start = [0] * len(order)
    end = 0
    for i in order:
        start[i] = end
        end += size[i]
        found[0].append(end - 1)
    mate = [None] * end
    tried = [[] for _ in order]
    tables = [None] * len(order)

    def offsets(p):
        """off[p], by element: where each block of lists[p] begins."""
        blocks = below[p]
        starts = itertools.accumulate(map(size.__getitem__, blocks), initial=0)
        tables[p] = off = dict(zip(blocks, starts))
        return off

    for i in order:
        u = x = start[i]
        if mate[u] is not None:
            continue
        for j in below[i]:
            m = size[j]
            d = start[j]
            if mate[d] is None:
                if m == 1:
                    mate[u] = _BELOW
                    mate[d] = u
                else:
                    mate[u : u + m] = [_BELOW] * m
                    mate[d : d + m] = range(u, u + m)
            else:
                tried[j].append((u, x, i, 1))
            u += m
    for i in order:
        for first, x, p, depth in tried[i]:
            if mate[first] is not None:
                continue
            u = first
            # a minimal i has no blocks, and so no use for off[p]
            off = below[i] and (tables[p] or offsets(p))
            for j in below[i]:
                m = size[j]
                d = x + off[j]
                if mate[d] is None:
                    if m == 1:
                        mate[u] = _BELOW
                        mate[d] = u
                    else:
                        mate[u : u + m] = [_BELOW] * m
                        mate[d : d + m] = range(u, u + m)
                else:
                    tried[j].append((u, first, i, depth + 1))
                u += m
            d = x + size[p] - 1
            if mate[d] is None:
                mate[u] = _BELOW
                mate[d] = u
            else:
                found[depth].append(u)
        tried[i] = None
    return mate, [sorted(u for u in ids if mate[u] is None) for ids in found]


def _facets(u: tuple) -> list:
    return [u[:k] + u[k + 1 :] for k in range(len(u))]


def _signed_sum(facets: list, skip, sign: int, flow: dict) -> dict:
    """sign times the sum of (-1)^k flow[facets[k]] over the facet ids,
    listed as _facets lists the facets, other than skip, with zero entries
    dropped."""
    acc = {}
    for k, g in enumerate(facets):
        if g != skip:
            w = -sign if k % 2 else sign
            for i, x in flow[g].items():
                acc[i] = acc.get(i, 0) + w * x
    return {i: x for i, x in acc.items() if x}


def _morse_rows(faces: list, number: dict, mate: list, critical: list, d: int) -> dict:
    """The Morse boundary from critical d-cells to critical (d-1)-cells,
    given by id, as the row dicts _eliminate takes.

    flow[tau] is where a (d-1)-cell tau ends up among the critical cells,
    following the matching: itself if critical, nothing if it is matched
    with a (d-2)-cell (its mate is _BELOW), and otherwise, with tau
    matched to the d-cell u, -[u:tau] times the flow of the rest of the
    boundary of u.  The facet ids of u are found once, serve both the walk
    and the sum, and wait in waiting while the walk is away.  The matching
    is acyclic, so this terminates; it is evaluated with an explicit stack
    and memoized, since gradient paths can be long.
    """
    row = {f: i for i, f in enumerate(critical[d - 1])}
    flow = {}
    waiting = {}
    rows = {}
    for j, s in enumerate(critical[d]):
        boundary = list(map(number.__getitem__, _facets(faces[s])))
        stack = boundary[:]
        while stack:
            f = stack[-1]
            if f in flow:
                stack.pop()
                continue
            u = mate[f]
            if u is None:
                flow[f] = {row[f]: 1}
            elif u == _BELOW:
                flow[f] = {}
            else:
                facets = waiting.pop(f, None) or list(map(number.__getitem__, _facets(faces[u])))
                todo = [g for g in facets if g != f and g not in flow]
                if todo:
                    waiting[f] = facets
                    stack.extend(todo)
                    continue
                flow[f] = _signed_sum(facets, f, 1 if facets.index(f) % 2 else -1, flow)
            stack.pop()
        for i, x in _signed_sum(boundary, None, 1, flow).items():
            rows.setdefault(i, {})[j] = x
    return rows


def homology_groups(c: SimplicialComplex, reduced: bool = False) -> HomologySummary:
    """Homology in every dimension through one element matching: on the
    runs of an order complex's layout, whose face lists stay unbuilt
    unless a Morse boundary needs them, or on the faces any other complex
    keeps by least vertex.  The face set stays unbuilt."""
    if c.dim < 1:
        # points only, or nothing: no matching and no boundary
        return _assemble((len(c),) if c.dim == 0 else (), {}, reduced)
    if c._layout is None:
        return _face_homology(c._lists, c.dim, reduced)
    mate, critical = _element_matching(c._layout, c.dim)
    return _morse_homology(c, None, mate, critical, reduced)


def _face_homology(lists: list, top: int, reduced: bool) -> HomologySummary:
    """Homology of the complex of dimension top whose faces, increasing
    tuples closed under taking facets, lists[r] holds by least vertex r,
    through _face_matching."""
    return _morse_homology(*_face_matching(lists, top), reduced)


def _morse_homology(
    faces, number: dict | None, mate: list, critical: list, reduced: bool
) -> HomologySummary:
    """The homology of the Morse complex that the critical cells of the
    matching mate span, which has the homology of the complex.  Its
    boundary from d is zero unless critical cells lie in both d and d-1,
    and from 1 also when one vertex is critical, so only the remaining
    maps are built and reduced; reduced only lowers rank in dimension 0.
    faces lists the faces in id order and number numbers them; with
    number None, faces is an order complex, listed and numbered only when
    a map is built."""
    counts = tuple(map(len, critical))
    wanted = [
        d
        for d in range(1, len(counts))
        if counts[d] and counts[d - 1] and not (d == 1 and counts[0] == 1)
    ]
    if wanted and number is None:
        faces = list(faces)
        number = dict(zip(faces, range(len(faces))))
    factors = {d: _eliminate(_morse_rows(faces, number, mate, critical, d)) for d in wanted}
    return _assemble(counts, factors, reduced)


def _assemble(counts: tuple, factors: dict, reduced: bool) -> HomologySummary:
    """The homology of a chain complex with counts[d] cells in dimension d
    and boundary d -> d-1 of invariant factors factors[d] (zero where
    absent); counts becomes the summary's critical."""
    groups = []
    for d in range(len(counts)):
        betti = counts[d] - len(factors.get(d, ())) - len(factors.get(d + 1, ()))
        if d == 0 and reduced:
            betti -= 1
        torsion = tuple(t for t in factors.get(d + 1, ()) if t > 1)
        if betti or torsion:
            groups.append((d, (betti, torsion)))
    return HomologySummary(tuple(groups), len(counts) - 1, reduced, counts)


def format_homology(s: HomologySummary) -> list:
    """One line per dimension 0..top_dim, like 'H_1 = Z^2 + Z/3'."""
    prefix = "H~" if s.reduced else "H"
    lines = []
    for d in range(s.top_dim + 1):
        betti, torsion = s.group(d)
        parts = []
        if betti:
            parts.append(f"Z^{betti}")
        parts.extend(f"Z/{t}" for t in torsion)
        lines.append(f"{prefix}_{d} = " + (" + ".join(parts) if parts else "0"))
    return lines
