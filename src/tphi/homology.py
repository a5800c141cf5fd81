"""Integer simplicial homology via sparse Smith normal form.

Boundary matrices of the complexes built here are huge but very sparse
with all entries +-1.  homology_groups builds them straight into row
dicts, from the top dimension down, and one eliminator reduces each: a
unit-pivot phase taking the shortest row first from a lazy heap, then a
classical min-entry phase on whatever small residue remains.
Divisibility of the invariant factors is restored afterwards by pairwise
gcd/lcm exchanges, which is cheaper than enforcing it during elimination.

Going down lets each boundary map skip the columns that the one above it
already settles: a d-face that phase 1 pivoted on as a row is dropped as
a column one dimension lower ("clearing", after Chen & Kerber,
"Persistent homology computation with a twist", EuroCG 2011).
homology_groups says why that is exact over Z.  boundary_matrix and
smith_normal_form expose the same row builder and eliminator on an
explicit IntegerMatrix, without clearing.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass

from .errors import DimOutOfRangeError
from .simplicial import SimplicialComplex


@dataclass(frozen=True)
class IntegerMatrix:
    """Sparse integer matrix; entries is a sorted tuple of (row, col, value)."""

    rows: int
    cols: int
    entries: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))
        seen = set()
        for i, j, v in self.entries:
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
            if v == 0:
                raise ValueError("explicit zero entry")
            if (i, j) in seen:
                raise ValueError(f"duplicate entry at ({i},{j})")
            seen.add((i, j))

    @classmethod
    def from_dense(cls, grid) -> "IntegerMatrix":
        grid = [list(row) for row in grid]
        rows = len(grid)
        cols = len(grid[0]) if grid else 0
        entries = [
            (i, j, v) for i, row in enumerate(grid) for j, v in enumerate(row) if v
        ]
        return cls(rows, cols, tuple(entries))

    def to_dense(self) -> list:
        grid = [[0] * self.cols for _ in range(self.rows)]
        for i, j, v in self.entries:
            grid[i][j] = v
        return grid


def _boundary_rows(c: SimplicialComplex, dim: int, cleared=frozenset()) -> tuple:
    """The boundary map from dim-faces (dim >= 1) as (rows, col_index),
    the eliminator's form: rows[i] = {j: sign} for each non-zero row and
    col_index[j] = rows of column j.

    Column f = (v0 < ... < vd) holds (-1)^t at the row of f minus its t-th
    vertex.  Columns listed in cleared are left out, but their facets are
    still looked up, so a face missing from the complex raises either way.
    """
    row_pos = {f: i for i, f in enumerate(c.faces_of_dim(dim - 1))}
    rows = {}
    col_index = {}
    for j, f in enumerate(c.faces_of_dim(dim)):
        facets = [row_pos[f[:t] + f[t + 1 :]] for t in range(len(f))]
        col = set(facets)
        if len(col) < len(facets):
            raise ValueError(f"duplicate entry in column {j}")
        if j in cleared:
            continue
        col_index[j] = col
        sign = 1
        for i in facets:
            r = rows.get(i)
            if r is None:
                rows[i] = {j: sign}
            else:
                r[j] = sign
            sign = -sign
    return rows, col_index


def boundary_matrix(c: SimplicialComplex, dim: int) -> IntegerMatrix:
    """Boundary map from dim-faces to (dim-1)-faces.

    dim 0 maps to a zero-row matrix; dim == c.dim + 1 has no columns.
    """
    if dim < 0 or dim > c.dim + 1:
        raise DimOutOfRangeError(f"dimension {dim} not in 0..{c.dim + 1}")
    cols = len(c.faces_of_dim(dim))
    if dim == 0:
        return IntegerMatrix(0, cols)
    rows, _ = _boundary_rows(c, dim)
    entries = tuple((i, j, v) for i, r in rows.items() for j, v in r.items())
    return IntegerMatrix(len(c.faces_of_dim(dim - 1)), cols, entries)


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


def _eliminate(rows: dict, col_index: dict) -> tuple:
    """Reduce a matrix given as row dicts plus column index, consuming both.

    Returns (invariant factors, phase-1 pivot rows): the non-zero factors,
    positive and in divisibility order, and the rows that phase 1 pivoted
    on with a unit entry.
    """
    factors = []
    unit_pivot_rows = set()

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
        unit_pivot_rows.add(i0)
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
    while rows:
        best = None
        for i, r in rows.items():
            for j, v in r.items():
                key = (abs(v), i, j)
                if best is None or key < best:
                    best = key
        _, i0, j0 = best
        while True:
            if rows[i0][j0] < 0:
                r0 = rows[i0]
                for j in r0:
                    r0[j] = -r0[j]
            p = rows[i0][j0]
            swapped = False
            for i in list(col_index[j0]):
                if i == i0 or i not in rows:
                    continue
                q = rows[i][j0] // p
                if q:
                    _row_sub(rows, col_index, i, rows[i0], q)
                if rows.get(i, {}).get(j0):
                    i0 = i  # strictly smaller remainder becomes the pivot
                    swapped = True
                    break
            if swapped:
                continue
            r0 = rows[i0]
            finished = True
            for j in list(r0):
                if j == j0:
                    continue
                q, r = divmod(r0[j], p)
                # column j  -=  q * column j0 touches only this row now
                if r:
                    r0[j] = r
                    j0 = j
                    finished = False
                    break
                del r0[j]
                col_index[j].discard(i0)
            if finished:
                break
        factors.append(rows[i0][j0])
        col_index[j0].discard(i0)
        del rows[i0]

    # restore divisibility: diag(a, b) is equivalent to diag(gcd, lcm).
    # Factors equal to 1 divide everything, so only the tail needs work.
    factors.sort()
    ones = bisect.bisect_right(factors, 1)
    tail = factors[ones:]
    changed = True
    while changed:
        changed = False
        for a in range(len(tail)):
            for b in range(a + 1, len(tail)):
                if tail[b] % tail[a]:
                    g = math.gcd(tail[a], tail[b])
                    tail[a], tail[b] = g, tail[a] * tail[b] // g
                    changed = True
        tail.sort()
    factors[ones:] = tail
    return tuple(factors), unit_pivot_rows


def smith_normal_form(m: IntegerMatrix) -> tuple:
    """Nonzero invariant factors of m, positive and in divisibility order."""
    rows = {}
    col_index = {}
    for i, j, v in m.entries:
        rows.setdefault(i, {})[j] = v
        col_index.setdefault(j, set()).add(i)
    return _eliminate(rows, col_index)[0]


@dataclass(frozen=True, eq=False)
class HomologySummary:
    """Integer homology of one complex.

    groups maps dimension to (betti rank, torsion factors), keeping only
    nontrivial entries.  Equality compares groups and the reduced flag but
    not top_dim, so complexes of different dimension with the same
    homology compare equal.
    """

    groups: tuple  # sorted ((dim, (betti, torsion)), ...)
    top_dim: int
    reduced: bool = False

    def __eq__(self, other):
        if not isinstance(other, HomologySummary):
            return NotImplemented
        return self.groups == other.groups and self.reduced == other.reduced

    def __hash__(self):
        return hash((self.groups, self.reduced))

    def group(self, d: int) -> tuple:
        for dim, g in self.groups:
            if dim == d:
                return g
        return (0, ())

    def betti(self, d: int) -> int:
        return self.group(d)[0]


def homology_groups(c: SimplicialComplex, reduced: bool = False) -> HomologySummary:
    """Homology in every dimension from ranks and torsion of the boundary
    maps; reduced only lowers rank in dimension 0."""
    top = c.dim
    if top < 0:
        return HomologySummary((), -1, reduced)
    # Clearing: the d-faces S that were phase-1 pivot rows of M, the map
    # from dimension d+1, are left out as columns of the map from d.
    # Phase 1 only adds multiples of earlier pivot rows to later ones, so
    # with T the pivot columns, M[S,T] has determinant +-1, the product of
    # the unit pivots.  Swapping the cycles (boundary of tau, tau in T) in
    # for the basis vectors (e_sigma, sigma in S) is then a change of
    # Z-basis of the d-chains.  The map from d is zero on the new vectors
    # and unchanged on the rest, so its rank and torsion are the same.
    # Phase-2 pivot rows are never cleared.
    factors = {}
    cleared = frozenset()
    for d in range(top, 0, -1):
        factors[d], cleared = _eliminate(*_boundary_rows(c, d, cleared))
    groups = []
    for d in range(top + 1):
        ranks = len(factors.get(d, ())) + len(factors.get(d + 1, ()))
        betti = len(c.faces_of_dim(d)) - ranks
        if d == 0 and reduced:
            betti -= 1
        torsion = tuple(t for t in factors.get(d + 1, ()) if t > 1)
        if betti or torsion:
            groups.append((d, (betti, torsion)))
    return HomologySummary(tuple(groups), top, reduced)


def rational_betti(c: SimplicialComplex, reduced: bool = False) -> HomologySummary:
    """Betti numbers over the rationals: the integral result with torsion
    dropped, which by the universal coefficient theorem leaves the free
    ranks.  It equals the integral answer only when the space is
    torsion-free."""
    s = homology_groups(c, reduced)
    groups = tuple((d, (betti, ())) for d, (betti, _) in s.groups if betti)
    return HomologySummary(groups, s.top_dim, reduced)


def format_homology(s: HomologySummary) -> list:
    """One line per dimension 0..top_dim, like 'H_1 = Z^2 + Z/3'."""
    prefix = "H~" if s.reduced else "H"
    lines = []
    for d in range(max(s.top_dim, 0) + 1 if s.top_dim >= 0 else 0):
        betti, torsion = s.group(d)
        parts = []
        if betti:
            parts.append(f"Z^{betti}")
        parts.extend(f"Z/{t}" for t in torsion)
        lines.append(f"{prefix}_{d} = " + (" + ".join(parts) if parts else "0"))
    return lines
