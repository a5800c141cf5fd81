"""Release acceptance battery: ten numbered criteria, one test per line.

Run `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion.  The budgeted criteria assert their own wall-clock limits,
so a green run also certifies the runtime envelope.  Oracles used here
(Bareiss determinants, dense rational elimination, brute-force model
filters) share no code with the implementations they judge.
"""

import functools
import itertools
import math
import random
import time

from tphi.cli import main
from tphi.homology import (
    IntegerMatrix,
    boundary_matrix,
    homology_groups,
    smith_normal_form,
)
from tphi.hyperfield import (
    ONE,
    ZERO,
    arcset_of,
    boxplus_fold,
    boxplus_pair,
    contains_zero,
    neg,
    neg_arcset,
    scale_arcset,
    scalars,
    unit,
)
from tphi.mccord import CONE, basis_certificates, finite_space_homology
from tphi.models import (
    DISCRETIZATION_CAVEAT,
    build_perp_poset,
    build_tphi_power,
    enum_grassmannian,
    expected_join_betti,
)
from tphi.phased import (
    GPFunction,
    gp_normalize,
    gp_verify_all,
    transpositions,
    transversal,
)
from tphi.poset import chain_count
from tphi.simplicial import (
    DEFAULT_SIMPLEX_CAP,
    SimplicialComplex,
    barycentric_subdivision,
    euler_characteristic,
    order_complex,
)

# ---------------------------------------------------------------- helpers


def _model_battery():
    """Finite models spanning both poset-backed families."""
    models = []
    for n, k in [(1, 1), (1, 5), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        models.append((f"power({n},{k})", build_tphi_power(n, k).poset))
    perps = [
        ([(ONE, ONE)], 2),
        ([(ONE, ONE)], 4),
        ([(ONE, ONE)], 6),
        ([(ONE, ONE, ONE)], 2),
        ([(ONE, ONE, ONE)], 4),
        ([(ONE, ONE, ONE, ONE)], 2),
        ([(ONE, ONE, ONE), (ONE, unit(1, 2), ONE)], 2),
    ]
    for vs, k in perps:
        name = f"perp(n={len(vs[0])},k={k},m={len(vs)})"
        models.append((name, build_perp_poset(list(vs), k).poset))
    return models


def _dense(m):
    return m.to_dense()


def _matmul(a, b):
    rows, inner = len(a), len(a[0]) if a else 0
    cols = len(b[0]) if b else 0
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def _bareiss_det(grid):
    """Fraction-free elimination; exact on integer input."""
    a = [list(row) for row in grid]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for i in range(n - 1):
        if a[i][i] == 0:
            swap = next((t for t in range(i + 1, n) if a[t][i]), None)
            if swap is None:
                return 0
            a[i], a[swap] = a[swap], a[i]
            sign = -sign
        for t in range(i + 1, n):
            for j in range(i + 1, n):
                a[t][j] = (a[t][j] * a[i][i] - a[t][i] * a[i][j]) // prev
            a[t][i] = 0
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def _gauss_rank(grid):
    from fractions import Fraction

    a = [[Fraction(v) for v in row] for row in grid]
    rank = 0
    for j in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][j]:
                f = a[i][j] / a[rank][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _assert_boundary_and_euler(c):
    for d in range(1, c.dim + 1):
        prod = _matmul(_dense(boundary_matrix(c, d)), _dense(boundary_matrix(c, d + 1)))
        assert all(v == 0 for row in prod for v in row)
    s = homology_groups(c)
    betti = {d: b for d, (b, _) in s.groups}
    alternating = sum((-1) ** d * betti.get(d, 0) for d in range(c.dim + 1))
    assert alternating == euler_characteristic(c)


RP2 = SimplicialComplex.from_simplices(
    [
        [f"v{a}", f"v{b}", f"v{c}"]
        for a, b, c in [
            (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
            (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
        ]
    ]
)

# --------------------------------------------------------------- criteria


def test_criterion_01_hyperfield_axiom_suite():
    start = time.monotonic()
    for k in (2, 4, 6, 8):
        pool = scalars(k)
        for a in pool:
            assert boxplus_pair(a, ZERO) == arcset_of(a)
        for a, b in itertools.product(pool, repeat=2):
            assert boxplus_pair(a, b) == boxplus_pair(b, a)
            assert neg_arcset(boxplus_pair(a, b)) == boxplus_pair(neg(a), neg(b))
            assert contains_zero([a, b]) == (b == neg(a))
        for a, b, c in itertools.product(pool, repeat=3):
            folded = boxplus_fold([a, b, c])
            for perm in itertools.permutations((a, b, c)):
                assert boxplus_fold(perm) == folded
            assert scale_arcset(a, boxplus_pair(b, c)) == boxplus_pair(a * b, a * c)
    assert time.monotonic() - start < 60


def test_criterion_02_zero_criterion_equals_fold_oracle():
    pool = scalars(8)
    seen = 0
    for size in range(1, 6):
        for terms in itertools.combinations_with_replacement(pool, size):
            seen += 1
            assert contains_zero(terms) == boxplus_fold(terms).has_zero
    assert seen == 2001
    rng = random.Random(20260815)
    pool24 = scalars(24)
    for _ in range(10_000):
        terms = [rng.choice(pool24) for _ in range(rng.randint(1, 8))]
        assert contains_zero(terms) == boxplus_fold(terms).has_zero


def test_criterion_03_power_model_homology_sweep():
    start = time.monotonic()
    cases = [
        (n, k)
        for n in range(1, 11)
        for k in range(1, 2001)
        if (k + 1) ** n - 1 <= 2000
    ]
    assert len(cases) == 2068
    assert (2, 2) in cases and (3, 2) in cases
    oversized = 0
    for n, k in cases:
        mp = build_tphi_power(n, k)
        expected = expected_join_betti(n, k)
        if chain_count(mp.poset) > DEFAULT_SIMPLEX_CAP:
            # complex too large to build, but a poset with a maximum is a
            # cone: reduced homology vanishes, which is what the rank
            # formula predicts here
            oversized += 1
            assert len(mp.poset.maximal_elements()) == 1
            assert expected.groups == ()
            continue
        c = order_complex(mp.poset)
        assert homology_groups(c, reduced=True) == expected
        if (n, k) == (2, 2):
            assert c.f_vector() == (8, 8)  # the 8-cycle circle
        if (n, k) == (3, 2):
            assert c.f_vector() == (26, 72, 48)  # subdivided octahedron
    assert oversized == 2
    assert time.monotonic() - start < 300


def test_criterion_04_sign_perp_circle_and_sphere():
    mp = build_perp_poset([(ONE, ONE, ONE)], 2)
    c = order_complex(mp.poset)
    s = homology_groups(c)
    assert s.groups == ((0, (1, ())), (1, (1, ())))
    # a connected graph with every vertex on exactly two edges is one cycle
    assert c.dim == 1
    verts = c.faces_of_dim(0)
    edges = c.faces_of_dim(1)
    assert len(verts) == len(edges)
    for (v,) in verts:
        assert sum(v in e for e in edges) == 2
    sphere = build_perp_poset([(ONE, ONE, ONE, ONE)], 2)
    reduced = homology_groups(order_complex(sphere.poset), reduced=True)
    assert reduced.groups == ((2, (1, ())),)


def test_criterion_05_basic_opens_certified_as_cones():
    for name, p in _model_battery():
        assert p.labels, name
        report = basis_certificates(p)
        assert len(report.certificates) == len(p.labels), name
        assert all(cert.kind == CONE for cert in report.certificates), name
        assert all(cert.apex == cert.element for cert in report.certificates), name


def test_criterion_06_gp_verification_and_enumeration():
    for n in range(1, 6):
        for k in range(1, 5):
            pool = scalars(k)
            passed = 0
            for values in itertools.product(pool, repeat=n):
                entries = tuple(
                    ((i + 1,), v) for i, v in enumerate(values) if not v.is_zero
                )
                if not entries:
                    continue
                assert gp_verify_all(GPFunction(n, 1, entries)).ok
                passed += 1
            assert passed == (k + 1) ** n - 1
    rep = gp_verify_all(GPFunction(3, 2))
    assert not rep.ok
    assert rep.reason == "not identically zero"
    # brute force: filter every candidate assignment, then normalize
    pool = scalars(2)
    keys = list(itertools.combinations(range(1, 4), 2))
    brute = set()
    for values in itertools.product(pool, repeat=len(keys)):
        entries = tuple((k, v) for k, v in zip(keys, values) if not v.is_zero)
        if not entries:
            continue
        phi = GPFunction(3, 2, entries)
        if gp_verify_all(phi).ok:
            brute.add(gp_normalize(phi))
    first = enum_grassmannian(3, 2, 2)
    second = enum_grassmannian(3, 2, 2)
    assert set(first) == brute
    assert first == second
    assert len(first) == 13


def test_criterion_07_transversal_properties_and_traces():
    for n in range(1, 6):
        for r in range(1, min(n, 3) + 1):
            t = transversal(n, r)
            members = set(t.tuples)
            assert t.d == len(members) == len(t.tuples)
            for tup in t.tuples:
                assert len(set(tup)) == r
                assert members.isdisjoint(transpositions(tup))
            for tup in itertools.permutations(range(1, n + 1), r):
                assert tup in members or any(
                    swapped in members for swapped in transpositions(tup)
                )
    assert transversal(3, 2).tuples == ((1, 2), (1, 3), (2, 3))
    assert transversal(3, 3).tuples == ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def test_criterion_08_homology_engine_oracles():
    battery = [
        RP2,
        SimplicialComplex.from_simplices([["a", "b"], ["b", "c"], ["a", "c"]]),
        barycentric_subdivision(SimplicialComplex.from_simplices([["x", "y", "z"]])),
        order_complex(build_tphi_power(2, 2).poset),
        order_complex(build_perp_poset([(ONE, ONE, ONE)], 2).poset),
    ]
    for c in battery:
        _assert_boundary_and_euler(c)
    assert homology_groups(RP2).groups == ((0, (1, ())), (1, (0, (2,))))
    rng = random.Random(20260814)
    for trial in range(1000):
        rows = rng.randint(1, 8)
        cols = rows if trial % 2 else rng.randint(1, 8)
        grid = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        factors = smith_normal_form(IntegerMatrix.from_dense(grid))
        for small, big in zip(factors, factors[1:]):
            assert big % small == 0
        assert len(factors) == _gauss_rank(grid)
        flat = [abs(v) for row in grid for v in row]
        if factors:
            assert factors[0] == functools.reduce(math.gcd, flat, 0)
        else:
            assert not any(flat)
        if rows == cols:
            det = _bareiss_det(grid)
            if len(factors) == rows:
                assert math.prod(factors) == abs(det)
            else:
                assert det == 0


def test_criterion_09_duality_and_subdivision_on_models():
    checked = 0
    for name, p in _model_battery():
        if chain_count(p) > 1000:
            continue
        checked += 1
        assert finite_space_homology(p) == finite_space_homology(p.opposite()), name
        c = order_complex(p)
        assert homology_groups(barycentric_subdivision(c)) == homology_groups(c), name
    assert checked >= 10


def test_criterion_10_antichain_negative_control(capsys):
    circle = homology_groups(
        order_complex(build_perp_poset([(ONE, ONE, ONE)], 2).poset)
    )
    for k in (2, 4, 6):
        mp = build_perp_poset([(ONE, ONE)], k)
        assert mp.poset.strict_pairs() == []
        c = order_complex(mp.poset)
        assert c.f_vector() == (k,)
        s = homology_groups(c)
        assert s.groups == ((0, (k, ())),)
        assert s != circle
    code = main(
        ["model-build", "--family", "perp", "--n", "2", "--k", "2", "0/1,0/1"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert DISCRETIZATION_CAVEAT in captured.err
