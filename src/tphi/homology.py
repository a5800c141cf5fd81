"""Integer simplicial homology through discrete Morse theory.

homology_groups runs one element matching over the faces (Jonsson,
"Simplicial Complexes of Graphs", LNM 1928): taking the vertices v in
index order, it pairs every still unmatched face f containing v with
f - v when that face is unmatched too.  It reads the faces by least
vertex, as every complex keeps them: an order complex in the lists it
built them in, any other complex bucketed once when it is built.  A face
first tries its least vertex, straight from that vertex's list, so f - v
is a slice there, and the matching stores no new tuple: the upper face of
a pair is marked False and the lower one names it as its partner.  A
sequence of element matchings is acyclic, so by Forman ("Morse theory for
cell complexes", Adv. Math. 134, 1998) the faces left over, the critical
cells, span a chain complex with the homology of the whole.  Its boundary
follows each critical cell's boundary along the matching to the critical
cells one dimension down, and is built only between dimensions that both
hold critical cells.  On the order complexes of the power models, whose
vertices order_complex numbers from the poset, only Betti + 1 cells are
critical, so no boundary is built at all.  A finite space that is the
face poset of a complex reaches the same matching on that complex's faces
(`mccord.finite_space_homology`), with no complex object built.

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
import math
from typing import TYPE_CHECKING

from .errors import DimOutOfRangeError, Frozen

# complexes are only read here, so a `homology` child that parses one loads
# `simplicial` for the parser alone, and `mccord` on a face poset none
if TYPE_CHECKING:
    from .simplicial import SimplicialComplex


class IntegerMatrix(Frozen):
    """Sparse integer matrix; entries is a sorted tuple of (row, col, value)."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple = ()):
        if not (isinstance(rows, int) and isinstance(cols, int)):
            raise ValueError(f"shape {rows!r}x{cols!r} is not integer")
        if rows < 0 or cols < 0:
            raise ValueError(f"shape {rows}x{cols} is negative")
        entries = tuple(entries)
        seen = set()
        for i, j, v in entries:
            if not (isinstance(i, int) and isinstance(j, int) and isinstance(v, int)):
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
        entries = [
            (i, j, v) for i, row in enumerate(grid) for j, v in enumerate(row) if v
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


def _element_matching(lists: list, top: int) -> list:
    """One element-matching pass, in vertex index order, over the faces of
    a complex of dimension at most top, closed under taking facets, given
    by least vertex: lists[r] holds the faces whose least vertex is r.

    For each vertex r in turn, every unmatched face f that contains r and
    has two or more vertices is matched with f - r when that face is
    unmatched too.  Whether a face is matched at r does not depend on the
    order of the faces tried there, so the faces of lists[r] try r in the
    order given, f - r being f[1:], and then the faces retried at r.  A
    face whose try fails is retried at its next vertex, so it sits in one
    retry list at a time.  Returns partner[m] for every face size m,
    mapping a face to None when it is critical, to False when it is matched
    with a face below it, and to its partner when it is matched with a
    face above it.  The marker keeps no tuple f - r alive.  A missing facet
    f - r raises KeyError.
    """
    partner = [{} for _ in range(top + 2)]
    for faces in lists:
        for f in faces:
            partner[len(f)][f] = None
    retry = [[] for _ in lists]
    for r, faces in enumerate(lists):
        for f in faces:
            m = len(f)
            if m == 1:
                continue
            up = partner[m]
            if up[f] is not None:
                continue
            g = f[1:]
            down = partner[m - 1]
            if down[g] is not None:
                retry[f[1]].append(f)
                continue
            up[f] = False
            down[g] = f
        for f in retry[r]:
            m = len(f)
            up = partner[m]
            if up[f] is not None:
                continue
            t = f.index(r)
            g = f[:t] + f[t + 1 :]
            down = partner[m - 1]
            if down[g] is not None:
                if t + 1 < m:
                    retry[f[t + 1]].append(f)
                continue
            up[f] = False
            down[g] = f
        retry[r] = None
    return partner


def _facets(u: tuple) -> list:
    return [u[:k] + u[k + 1 :] for k in range(len(u))]


def _signed_sum(facets: list, skip, sign: int, flow: dict) -> dict:
    """sign times the sum of (-1)^k flow[facets[k]] over the facets, listed
    as _facets lists them, other than skip, with zero entries dropped."""
    acc = {}
    for k, g in enumerate(facets):
        if g != skip:
            w = -sign if k % 2 else sign
            for i, x in flow[g].items():
                acc[i] = acc.get(i, 0) + w * x
    return {i: x for i, x in acc.items() if x}


def _morse_rows(partner: list, critical: list, d: int) -> dict:
    """The Morse boundary from critical d-cells to critical (d-1)-cells,
    as the row dicts _eliminate takes.

    flow[tau] is where a (d-1)-cell tau ends up among the critical cells,
    following the matching: itself if critical, nothing if it is matched
    with a (d-2)-cell (its partner is the marker False), and otherwise,
    with tau matched to the d-cell u, -[u:tau] times the flow of the rest
    of the boundary of u.  The facets of u are listed once per visit and
    serve both the walk and the sum.  The matching is acyclic, so this
    terminates; it is evaluated with an explicit stack and memoized, since
    gradient paths can be long.
    """
    row = {f: i for i, f in enumerate(critical[d - 1])}
    low = partner[d]
    flow = {}
    rows = {}
    for j, s in enumerate(critical[d]):
        stack = _facets(s)
        while stack:
            f = stack[-1]
            if f in flow:
                stack.pop()
                continue
            u = low[f]
            if u is None:
                flow[f] = {row[f]: 1}
            elif u is False:
                flow[f] = {}
            else:
                facets = _facets(u)
                todo = [g for g in facets if g != f and g not in flow]
                if todo:
                    stack.extend(todo)
                    continue
                flow[f] = _signed_sum(facets, f, 1 if facets.index(f) % 2 else -1, flow)
            stack.pop()
        for i, x in _signed_sum(_facets(s), None, 1, flow).items():
            rows.setdefault(i, {})[j] = x
    return rows


def homology_groups(c: SimplicialComplex, reduced: bool = False) -> HomologySummary:
    """Homology in every dimension through one element matching, on the
    faces the complex keeps by least vertex; its face set stays unbuilt."""
    return _face_homology(c._lists, c.dim, reduced)


def _face_homology(lists: list, top: int, reduced: bool) -> HomologySummary:
    """Homology of the complex of dimension top whose faces, increasing
    tuples closed under taking facets, lists[r] holds by least vertex r.

    The critical cells of the matching span the Morse complex, which has
    the homology of the complex.  Its boundary from d is zero unless
    critical cells lie in both d and d-1, and from 1 also when one vertex
    is critical, so only the remaining maps are built and reduced; reduced
    only lowers rank in dimension 0."""
    if top < 1:
        # points only, or nothing: no boundary to reduce
        return _assemble((sum(map(len, lists)),) if top == 0 else (), {}, reduced)
    partner = _element_matching(lists, top)
    critical = [[f for f, g in partner[d + 1].items() if g is None] for d in range(top + 1)]
    counts = tuple(map(len, critical))
    factors = {
        d: _eliminate(_morse_rows(partner, critical, d))
        for d in range(1, top + 1)
        if counts[d] and counts[d - 1] and not (d == 1 and counts[0] == 1)
    }
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
