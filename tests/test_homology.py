"""Smith normal form and homology, checked against independent oracles.

Invariant factors are cross-checked with determinant divisors (gcds of
k x k minors, the textbook definition) and ranks with exact Gaussian
elimination over the rationals.  Neither oracle shares code with the
sparse elimination under test.
"""

import bisect
import heapq
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from tphi.errors import DimOutOfRangeError
from tphi.homology import (
    HomologySummary,
    IntegerMatrix,
    _BELOW,
    _element_matching,
    _eliminate,
    _face_matching,
    _row_sub,
    boundary_matrix,
    format_homology,
    homology_groups,
    smith_normal_form,
)
from tphi.hyperfield import ONE, unit
from tphi.models import build_perp_poset, build_tphi_power, expected_join_betti
from tphi.poset import build_poset
from tphi.simplicial import (
    SimplicialComplex,
    barycentric_subdivision,
    complex_to_lines,
    euler_characteristic,
    face_poset,
    join,
    order_complex,
    parse_complex_lines,
)

# ---------------------------------------------------------------- oracles


def rational_rank(grid):
    grid = [[Fraction(v) for v in row] for row in grid]
    rank = 0
    cols = len(grid[0]) if grid else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(grid)) if grid[i][j]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        inv = 1 / grid[rank][j]
        grid[rank] = [v * inv for v in grid[rank]]
        for i in range(len(grid)):
            if i != rank and grid[i][j]:
                f = grid[i][j]
                grid[i] = [a - f * b for a, b in zip(grid[i], grid[rank])]
        rank += 1
    return rank


def laplace_det(grid):
    n = len(grid)
    if n == 0:
        return 1
    if n == 1:
        return grid[0][0]
    total = 0
    for t in range(n):
        if grid[0][t]:
            minor = [row[:t] + row[t + 1 :] for row in grid[1:]]
            total += (-1) ** t * grid[0][t] * laplace_det(minor)
    return total


def divisor_factors(grid):
    """Invariant factors as ratios of determinant divisors."""
    rows, cols = len(grid), len(grid[0]) if grid else 0
    divisors = [1]
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                minor = [[grid[i][j] for j in cs] for i in rs]
                g = math.gcd(g, laplace_det(minor))
        if g == 0:
            break
        divisors.append(g)
    return tuple(divisors[k] // divisors[k - 1] for k in range(1, len(divisors)))


# ------------------------------------------------------------------- SNF


def test_snf_frozen_examples():
    assert smith_normal_form(IntegerMatrix.from_dense([[1, 0], [0, 1]])) == (1, 1)
    assert smith_normal_form(IntegerMatrix.from_dense([[2, 0], [0, 3]])) == (1, 6)
    assert smith_normal_form(IntegerMatrix.from_dense([[2, 4], [6, 8]])) == (2, 4)
    assert smith_normal_form(IntegerMatrix.from_dense([[0, 2], [3, 0]])) == (1, 6)
    assert smith_normal_form(IntegerMatrix.from_dense([[0, 0], [0, 0]])) == ()
    assert smith_normal_form(IntegerMatrix(0, 4)) == ()
    assert smith_normal_form(IntegerMatrix(3, 0)) == ()
    # torsion survives a unit pivot next door
    assert smith_normal_form(IntegerMatrix.from_dense([[1, 0], [0, 4]])) == (1, 4)


def test_snf_exhaustive_2x2():
    span = range(-2, 3)
    for a, b, c, d in itertools.product(span, repeat=4):
        grid = [[a, b], [c, d]]
        assert smith_normal_form(IntegerMatrix.from_dense(grid)) == divisor_factors(
            grid
        ), grid


def test_snf_random_against_divisors_and_rank():
    rng = random.Random(20240812)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        grid = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        got = smith_normal_form(IntegerMatrix.from_dense(grid))
        assert got == divisor_factors(grid), grid
        assert len(got) == rational_rank(grid), grid
        for x, y in zip(got, got[1:]):
            assert y % x == 0


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntegerMatrix(2, 2, ((0, 0, 0),))
    with pytest.raises(ValueError):
        IntegerMatrix(2, 2, ((2, 0, 1),))
    with pytest.raises(ValueError):
        IntegerMatrix(2, 2, ((0, 0, 1), (0, 0, 2)))


def test_matrix_takes_integers_only():
    # a non-integer value once came back as a factor, (1.5,), or failed
    # inside math.gcd; every entry is now checked when the matrix is built
    for v in (1.5, 2.0, Fraction(1, 2)):
        with pytest.raises(ValueError, match=r"entry \(1,0\) = .* is not an integer"):
            IntegerMatrix.from_dense([[1, 0], [v, 3]])
        with pytest.raises(ValueError, match="is not an integer"):
            IntegerMatrix(2, 2, ((0, 0, 1), (1, 1, v)))
    with pytest.raises(ValueError, match=r"entry \(0.0,1\) = 1 is not an integer"):
        IntegerMatrix(2, 2, ((0.0, 1, 1),))
    with pytest.raises(ValueError, match="is not an integer"):
        IntegerMatrix(2, 2, ((1, 0.5, 1),))
    with pytest.raises(ValueError, match="is not integer"):
        IntegerMatrix(2.0, 2)
    # a negative shape, and a short row first or last, once passed or
    # were padded with zeros
    for shape in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="negative"):
            IntegerMatrix(*shape)
    for grid in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="ragged"):
            IntegerMatrix.from_dense(grid)
    assert smith_normal_form(IntegerMatrix(2, 2, iter(((1, 1, 3), (0, 0, 2))))) == (1, 6)


# -------------------------------------------------------------- boundary


def two_points(x, y):
    return SimplicialComplex.from_simplices([[x], [y]])


def cycle_complex(n):
    verts = [f"c{i}" for i in range(n)]
    return SimplicialComplex.from_simplices(
        [[verts[i], verts[(i + 1) % n]] for i in range(n)]
    )


def octahedron():
    return join(
        join(two_points("a0", "a1"), two_points("b0", "b1")),
        two_points("c0", "c1"),
    )


def projective_plane():
    # antipodal quotient of the icosahedron: 6 vertices, 10 triangles
    return SimplicialComplex.from_simplices(
        [
            [f"v{a}", f"v{b}", f"v{c}"]
            for a, b, c in [
                (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
                (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
            ]
        ]
    )


def dense_product(a, b):
    n = len(a)
    k = len(a[0]) if a else 0
    m = len(b[0]) if b else 0
    assert k == len(b)
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)
    ]


def test_boundary_shapes_and_signs():
    tri = SimplicialComplex.from_simplices([["a", "b", "c"]])
    d0 = boundary_matrix(tri, 0)
    assert (d0.rows, d0.cols) == (0, 3)
    d1 = boundary_matrix(tri, 1)
    assert (d1.rows, d1.cols) == (3, 3)
    d2 = boundary_matrix(tri, 2)
    # single column (a,b,c): bc - ac + ab
    assert d2.to_dense() == [[1], [-1], [1]]
    d3 = boundary_matrix(tri, 3)
    assert (d3.rows, d3.cols) == (1, 0)
    with pytest.raises(DimOutOfRangeError):
        boundary_matrix(tri, 4)
    with pytest.raises(DimOutOfRangeError):
        boundary_matrix(tri, -1)


def test_boundary_squares_to_zero():
    for c in (octahedron(), projective_plane(), cycle_complex(6)):
        for d in range(1, c.dim + 1):
            prod = dense_product(
                boundary_matrix(c, d).to_dense(), boundary_matrix(c, d + 1).to_dense()
            )
            assert all(v == 0 for row in prod for v in row)


# -------------------------------------------------------------- homology


def test_full_simplex_is_acyclic():
    c = SimplicialComplex.from_simplices([["a", "b", "c", "d"]])
    assert homology_groups(c).groups == ((0, (1, ())),)
    assert homology_groups(c, reduced=True).groups == ()


def test_circle():
    s = homology_groups(cycle_complex(8))
    assert s.groups == ((0, (1, ())), (1, (1, ())))
    assert s.betti(1) == 1
    assert s.group(5) == (0, ())


def test_octahedron_is_a_2_sphere():
    c = octahedron()
    s = homology_groups(c)
    assert s.groups == ((0, (1, ())), (2, (1, ())))
    assert homology_groups(c, reduced=True).groups == ((2, (1, ())),)


def test_projective_plane_torsion():
    c = projective_plane()
    assert c.f_vector() == (6, 15, 10)
    # closed surface: every edge lies in exactly two triangles
    for e in c.faces_of_dim(1):
        assert sum(set(e) <= set(f) for f in c.faces_of_dim(2)) == 2
    s = homology_groups(c)
    assert s.groups == ((0, (1, ())), (1, (0, (2,))))
    assert format_homology(s) == ["H_0 = Z^1", "H_1 = Z/2", "H_2 = 0"]


def test_disjoint_pieces_count_components():
    c = SimplicialComplex.from_simplices([["a", "b"], ["c", "d"], ["e"]])
    assert homology_groups(c).betti(0) == 3
    assert homology_groups(c, reduced=True).betti(0) == 2


def test_euler_characteristic_matches_betti_sum():
    for c in (octahedron(), projective_plane(), cycle_complex(5)):
        s = homology_groups(c)
        assert euler_characteristic(c) == sum(
            (-1) ** d * s.betti(d) for d in range(c.dim + 1)
        )


def test_summary_equality_ignores_dimension():
    point = homology_groups(SimplicialComplex.from_simplices([["p"]]))
    simplex = homology_groups(SimplicialComplex.from_simplices([["a", "b", "c", "d"]]))
    assert point == simplex
    assert point != homology_groups(
        SimplicialComplex.from_simplices([["p"]]), reduced=True
    )


def test_empty_complex():
    empty = SimplicialComplex([], [])
    s = homology_groups(empty)
    assert s.groups == ()
    assert format_homology(s) == []


def test_format_reduced_prefix():
    s = homology_groups(cycle_complex(4), reduced=True)
    assert format_homology(s) == ["H~_0 = 0", "H~_1 = Z^1"]


# ------------------------------------------------------- Morse complex


def uncleared_homology(c, reduced):
    """Homology assembled from the Smith form of every full boundary
    matrix, with no face left out."""
    top = c.dim
    factors = {d: smith_normal_form(boundary_matrix(c, d)) for d in range(1, top + 2)}
    groups = []
    for d in range(top + 1):
        betti = len(c.faces_of_dim(d)) - len(factors.get(d, ())) - len(factors[d + 1])
        if d == 0 and reduced:
            betti -= 1
        torsion = tuple(t for t in factors[d + 1] if t > 1)
        if betti or torsion:
            groups.append((d, (betti, torsion)))
    return HomologySummary(tuple(groups), top, reduced)


def relabeled(c, rng):
    """The same complex with its vertices put in a shuffled order, so that
    faces are indexed, and matched, differently.  A new label is
    'w<new index>:<old label>'."""
    perm = list(range(len(c.labels)))
    rng.shuffle(perm)
    labels = [f"w{perm[v]:04d}:{lab}" for v, lab in enumerate(c.labels)]
    faces = [tuple(sorted(perm[v] for v in f)) for f in c.faces]
    return SimplicialComplex(labels, faces)


def relabeled_poset(p, rng):
    """The same order on shuffled labels, so that ties in the vertex order
    of its order complex fall differently."""
    perm = list(range(len(p.labels)))
    rng.shuffle(perm)
    new = {lab: f"x{perm[i]:06d}" for i, lab in enumerate(p.labels)}
    return build_poset(new.values(), [(new[a], new[b]) for a, b in p.strict_pairs()])


def test_morse_complex_matches_uncleared_smith_form():
    from test_acceptance import _model_battery
    from test_mccord import random_posets

    rng = random.Random(20261018)
    rp2 = projective_plane()
    suspension = join(rp2, two_points("s", "t"))
    assert homology_groups(rp2).group(1) == (0, (2,))
    assert homology_groups(suspension).group(2) == (0, (2,))
    spaces = [rp2, suspension, barycentric_subdivision(rp2)]
    spaces += [relabeled(rp2, rng) for _ in range(20)]
    spaces += [relabeled(suspension, rng) for _ in range(20)]
    for n, k in ((3, 2), (2, 4)):
        c = order_complex(build_tphi_power(n, k).poset)
        spaces += [relabeled(c, rng) for _ in range(5)]
    posets = [p for _, p in _model_battery()] + random_posets(20, 20261018)
    spaces += [order_complex(q) for p in posets for q in (p, p.opposite())]
    built = 0
    for c in spaces:
        h = homology_groups(c)
        # matched pairs cancel in the Euler characteristic
        assert sum((-1) ** d * n for d, n in enumerate(h.critical)) == euler_characteristic(c)
        # the Morse boundary is built when critical cells lie in two
        # adjacent dimensions, other than one vertex and some edges
        counts = h.critical
        built += any(
            counts[d] and counts[d - 1] and not (d == 1 and counts[0] == 1)
            for d in range(1, len(counts))
        )
        for reduced in (False, True):
            assert homology_groups(c, reduced) == uncleared_homology(c, reduced)
    assert built >= 40


def test_power_models_leave_betti_plus_one_critical_cells():
    rng = random.Random(7)
    for n, k in ((7, 1), (4, 5), (5, 2), (3, 11), (5, 3), (2, 10)):
        base = build_tphi_power(n, k).poset
        want = expected_join_betti(n, k)
        for _ in range(3):
            h = homology_groups(order_complex(relabeled_poset(base, rng)), reduced=True)
            assert h == want
            assert sum(h.critical) == sum(b for _, (b, _) in want.groups) + 1, (n, k)


def test_power_7_1_order_complex_homology_within_budget():
    # order_complex computes only its layout and the element matching pairs
    # runs of ids on it, so no face tuple is made: power(7,1), 94,585
    # faces, takes about 2 ms on a 2-core host, and power(8,1), 1,091,669
    # faces, about 25 ms.  What both hold at their peak is the mate list
    # and the layout, about 25 bytes a face on power(7,1); building every
    # face tuple as well took about 110
    for n, faces in ((7, 94_585), (8, 1_091_669)):
        p = build_tphi_power(n, 1).poset
        start = time.perf_counter()
        c = order_complex(p)
        h = homology_groups(c, reduced=True)
        assert time.perf_counter() - start < 2
        assert len(c) == faces
        assert h == expected_join_betti(n, 1)
        assert h.critical == (1,) + (0,) * (n - 1)
    p = build_tphi_power(7, 1).poset
    tracemalloc.start()
    try:
        homology_groups(order_complex(p), reduced=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 94_585


def test_long_gradient_paths_need_no_recursion():
    c = cycle_complex(5000)
    assert c.labels == tuple(sorted(c.labels))
    h = homology_groups(c)
    assert h.groups == ((0, (1, ())), (1, (1, ())))
    # label order c0, c1, c10, c100, ... leaves many critical vertices
    # and edges, so the Morse boundary is built along paths thousands of
    # edges long
    assert h.critical[0] > 1 and h.critical[1] > 1


def unchecked_complex(labels, faces):
    """A complex on the faces exactly as given, bucketed by least vertex
    with no check: for the broken complexes that the checked constructor
    refuses or closes."""
    lists = [[] for _ in labels]
    for f in faces:
        lists[f[0]].append(f)
    dim = max(map(len, faces), default=0) - 1
    return SimplicialComplex._of_lists(tuple(labels), lists, len(faces), dim)


def test_boundary_rows_keep_failure_modes():
    # a face with a repeated vertex raises when the complex is built, and
    # boundary_matrix still raises on it and on a missing facet
    with pytest.raises(ValueError, match="repeats"):
        SimplicialComplex(["a", "b"], [(0,), (1,), (0, 0)])
    with pytest.raises(ValueError, match="repeats"):
        SimplicialComplex(["a", "b"], [(0, 0, 1)])
    bad = unchecked_complex(("a", "b"), [(0,), (1,), (0, 0)])
    with pytest.raises(ValueError):
        boundary_matrix(bad, 1)
    open_edge = unchecked_complex(("a", "b"), [(0,), (0, 1)])
    with pytest.raises(KeyError):
        boundary_matrix(open_edge, 1)
    with pytest.raises(KeyError):
        homology_groups(open_edge)


def test_critical_cells_do_not_change_equality():
    c = cycle_complex(6)
    h = homology_groups(c)
    assert h.critical == (1, 1)
    assert h == HomologySummary(h.groups, h.top_dim, h.reduced, (6, 6))
    assert hash(h) == hash(HomologySummary(h.groups, h.top_dim, h.reduced))
    points = homology_groups(SimplicialComplex.from_simplices([["p"], ["q"], ["r"]]))
    assert points.critical == (3,)


# ------------------------------------------- the former matching as oracle


def oracle_posets():
    """The posets that order_complex and the element matching are checked
    on against their former kernels: the model battery, seeded random
    posets, relabeled power models and the face posets of RP^2 and the
    dunce hat, each also as its opposite."""
    from test_acceptance import _model_battery
    from test_mccord import dunce_hat, random_posets

    rng = random.Random(20261019)
    posets = [p for _, p in _model_battery()] + random_posets(30, 20261019)
    for n, k in ((3, 2), (2, 4), (4, 3), (5, 1)):
        base = build_tphi_power(n, k).poset
        posets += [relabeled_poset(base, rng) for _ in range(2)]
    posets += [face_poset(projective_plane()), face_poset(dunce_hat())]
    return posets + [p.opposite() for p in posets]


def reference_element_matching(c):
    """The former `_element_matching`: every try finds f - r by f.index,
    and the upper face of a pair keeps the new tuple f - r as its
    partner."""
    partner = [{} for _ in range(c.dim + 2)]
    waiting = [[] for _ in c.labels]
    for f in c.faces:
        partner[len(f)][f] = None
        if len(f) > 1:
            waiting[f[0]].append(f)
    for r, faces in enumerate(waiting):
        for f in faces:
            up = partner[len(f)]
            if up[f] is not None:
                continue
            t = f.index(r)
            g = f[:t] + f[t + 1 :]
            down = partner[len(g)]
            if down[g] is not None:
                if t + 1 < len(f):
                    waiting[f[t + 1]].append(f)
                continue
            up[f] = g
            down[g] = f
        waiting[r] = None
    return partner


def assert_same_matching(faces, mate, want):
    """The mates of the ids, as _element_matching gives them, pair the same
    faces as the partners of reference_element_matching."""
    assert len(faces) == len(mate) == sum(map(len, want))
    number = dict(zip(faces, range(len(faces))))
    assert len(number) == len(faces)
    for f, u in zip(faces, mate):
        w = want[len(f)][f]
        if u is None:
            assert w is None
        elif u == _BELOW:
            # the former matching kept the lower face here
            assert len(w) == len(f) - 1 and mate[number[w]] == number[f]
        else:
            assert faces[u] == w and len(w) == len(f) + 1


def test_element_matching_matches_the_former_matching():
    # the same (lower, upper) pairs and critical cells per dimension, on
    # each order complex, matched a run at a time on its layout; on the
    # same lists with the layout dropped, numbered through the dict; and on
    # its label-order copy read back from the file form, from the lists its
    # face set was bucketed into.  The copy leaves critical cells that need
    # Morse boundaries.  homology_groups then agrees with the full Smith
    # forms, twice over.  Besides oracle_posets: more seeded random posets
    # and two perps of k = 2, each also as its opposite
    from test_mccord import random_posets

    extra = random_posets(300, 99)
    extra += [
        build_perp_poset([(ONE,) * 5], 2).poset,
        build_perp_poset([(ONE,) * 5, (ONE, unit(1, 2), ONE, unit(1, 2), ONE)], 2).poset,
    ]
    built = 0
    for p in oracle_posets() + extra + [p.opposite() for p in extra]:
        c = order_complex(p)
        bare = SimplicialComplex._of_lists(c.labels, c._lists, len(c), c.dim)
        back = parse_complex_lines(complex_to_lines(c))
        for x in (c, bare, back):
            want = reference_element_matching(x)
            if x is c:
                mate, critical = _element_matching(x._layout, x.dim)
                faces = list(x)
            else:
                faces, number, mate, critical = _face_matching(x._lists, x.dim)
                assert number == dict(zip(faces, range(len(faces))))
            assert_same_matching(faces, mate, want)
            unmatched = [[] for _ in range(x.dim + 1)]
            for i, f in enumerate(faces):
                if mate[i] is None:
                    unmatched[len(f) - 1].append(i)
            assert critical == unmatched
            if x.dim < 1:
                continue
            h = homology_groups(x)
            assert h.critical == tuple(
                sum(u is None for u in w.values()) for w in want[1:]
            )
            assert h == uncleared_homology(x, False)
            again = homology_groups(x)
            assert (again, again.critical) == (h, h.critical)
            counts = h.critical
            built += any(
                counts[d] and counts[d - 1] and not (d == 1 and counts[0] == 1)
                for d in range(1, len(counts))
            )
    assert built >= 40


def test_missing_facet_after_a_retry_is_a_key_error():
    # (1,2,3) first tries (2,3), which (0,2,3) took, then needs the
    # missing (1,3) on its second try, at vertex 2
    faces = [(0,), (1,), (2,), (3,), (0, 2), (0, 3), (2, 3), (1, 2), (0, 2, 3), (1, 2, 3)]
    c = unchecked_complex(("a", "b", "c", "d"), faces)
    for lists in (c._lists, [bucket[::-1] for bucket in c._lists]):
        with pytest.raises(KeyError):
            _face_matching(lists, 2)
        with pytest.raises(KeyError):
            homology_groups(SimplicialComplex._of_lists(c.labels, lists, 10, 2))
    with pytest.raises(KeyError):
        reference_element_matching(c)
    with pytest.raises(KeyError):
        homology_groups(c)


# ------------------------------------ the former two-pass matching as oracle


def reference_face_matching(lists: list, top: int) -> tuple:
    """The former `_face_matching`, verbatim but for its name: every first
    try, in vertex order, ran before every retry, in vertex order."""
    faces = list(itertools.chain.from_iterable(lists))
    mate = [None] * len(faces)
    number = dict(zip(faces, range(len(faces))))
    kept = [len(f) > 1 for f in faces]
    ups = itertools.compress(range(len(faces)), kept)
    downs = [number[f[1:]] for f in itertools.compress(faces, kept)]
    tried = [[] for _ in lists]
    for u, d in zip(ups, downs):
        if mate[u] is None:
            if mate[d] is None:
                mate[u] = _BELOW
                mate[d] = u
            else:
                tried[faces[u][1]].append(u)
    for r, retries in enumerate(tried):
        for u in retries:
            if mate[u] is not None:
                continue
            f = faces[u]
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


def random_checked_complexes(count, seed):
    """Seeded complexes built the checked way: random generators on up to
    9 of up to 12 vertices, so some vertices lie in no face, with labels
    drawn apart from the generation order."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 12)
        labels = rng.sample([f"x{i:02d}" for i in range(40)], n)
        used = rng.sample(range(n), rng.randint(1, min(n, 9)))
        gens = [
            rng.sample(used, rng.randint(1, min(len(used), 4)))
            for _ in range(rng.randint(1, 8))
        ]
        out.append(SimplicialComplex(labels, gens))
    return out


def test_face_matching_matches_the_former_two_passes(monkeypatch):
    # the same faces, numbers, mates and critical cells as the former
    # two passes: on checked complexes, with their buckets as built and
    # shuffled; on the file copies of three power models' order complexes;
    # and on the face lists that finite_space_homology hands over for
    # every poset _complex_faces accepts
    from test_mccord import cell_test_complexes, dunce_hat, random_posets
    from tphi import homology
    from tphi.mccord import _complex_faces, finite_space_homology

    rng = random.Random(20261022)
    complexes = [projective_plane(), dunce_hat(), *cell_test_complexes()]
    complexes += [
        join(dunce_hat(), cycle_complex(3)),
        join(projective_plane(), two_points("p", "q")),
        join(cycle_complex(4), cycle_complex(5)),
    ]
    complexes += random_checked_complexes(50, 20261022)
    for n, k in ((3, 5), (4, 3), (6, 1)):
        lines = complex_to_lines(order_complex(build_tphi_power(n, k).poset))
        complexes.append(parse_complex_lines(lines))
    assert any(not bucket for c in complexes for bucket in c._lists)
    for c in complexes:
        lists = c._lists
        for buckets in (lists, [rng.sample(b, len(b)) for b in lists]):
            assert _face_matching(buckets, c.dim) == reference_face_matching(buckets, c.dim)

    calls = []

    def checked(lists, top):
        got = reference_face_matching(lists, top)
        assert got == face_matching(lists, top)
        calls.append(len(got[0]))
        return got

    face_matching = homology._face_matching
    monkeypatch.setattr(homology, "_face_matching", checked)
    extra = random_posets(100, 20261022)
    posets = oracle_posets() + extra + [p.opposite() for p in extra]
    accepted = [p for p in posets if _complex_faces(p) is not None]
    for p in accepted:
        finite_space_homology(p)
    assert len(calls) == len(accepted) > 100
    assert max(calls) > 200


# --------------------------------------------- the former eliminator as oracle

# The former `_eliminate`, verbatim but for its name: it took the column
# index from its caller.  `_row_sub` is unchanged and shared.
def reference_eliminate(rows: dict, col_index: dict) -> tuple:
    """Reduce a matrix given as row dicts plus column index, consuming both.

    Returns the non-zero invariant factors, positive and in divisibility
    order.
    """
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
    return tuple(factors)


def column_index(rows):
    col_index = {}
    for i, r in rows.items():
        for j in r:
            col_index.setdefault(j, set()).add(i)
    return col_index


def assert_eliminators_agree(rows):
    """_eliminate on rows and reference_eliminate on a copy give the same
    factors; returns them."""
    entries = [(i, j, v) for i, r in rows.items() for j, v in r.items()]
    copy = {i: dict(r) for i, r in rows.items()}
    want = reference_eliminate(copy, column_index(copy))
    got = _eliminate(rows)
    assert got == want, entries
    assert not rows
    return got


def rows_of(m):
    rows = {}
    for i, j, v in m.entries:
        rows.setdefault(i, {})[j] = v
    return rows


def test_eliminate_matches_the_former_eliminator_on_random_matrices():
    # sparse matrices up to 12 x 12; each takes a multiplier in 1..4 and
    # either small magnitudes, so unit pivots and phase 1 run, or ones up
    # to 97, so phase 2 runs its Euclid steps and torsion shows
    rng = random.Random(20261020)
    torsion = 0
    for _ in range(3000):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.uniform(0.1, 0.9)
        top = rng.choice((3, 97))
        mult = rng.randint(1, 4)
        grid = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < density:
                    sign = rng.choice((-1, 1))
                    grid.setdefault(i, {})[j] = sign * rng.randint(1, top) * mult
        factors = assert_eliminators_agree(grid)
        for x, y in zip(factors, factors[1:]):
            assert y % x == 0
        # a factor above 1 comes from phase 2; two of them, unless one
        # divides the other as it came, from the divisibility pass too
        torsion += factors[-2:-1] > (1,)
    assert torsion > 1000


def test_eliminate_matches_the_former_eliminator_on_boundaries(monkeypatch):
    # every full boundary matrix of the oracle posets' order complexes and
    # of their label-order file copies, and every Morse boundary that
    # homology_groups reduces on the copies
    import tphi.homology

    morse = []

    def checked(rows):
        morse.append(assert_eliminators_agree(rows))
        return morse[-1]

    full = 0
    for p in oracle_posets():
        c = order_complex(p)
        back = parse_complex_lines(complex_to_lines(c))
        for x in (c, back):
            for d in range(1, x.dim + 2):
                m = boundary_matrix(x, d)
                assert smith_normal_form(m) == assert_eliminators_agree(rows_of(m))
                full += 1
        with monkeypatch.context() as mp:
            mp.setattr(tphi.homology, "_eliminate", checked)
            homology_groups(back)
    assert full > 500 and len(morse) >= 40
