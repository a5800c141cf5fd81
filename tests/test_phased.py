"""Orthogonal sets, exchange relations, and the transposition transversal.

Enumeration results are frozen from hand derivations and double-checked
against a brute-force filter written inline, so the library path and the
oracle stay separate: perp_enumerate searches residue rows, and
reference_perp filters scalar tuples through perp_membership.
"""

import itertools
import random

import pytest

from tphi.errors import (
    BadArityError,
    IdenticallyZeroError,
    IndexOutOfRangeError,
    LengthMismatchError,
    OddDiscretizationError,
    SizeCapExceededError,
    ZeroVectorError,
)
from tphi.hyperfield import (
    ONE,
    TPhi,
    ZERO,
    boxplus_fold,
    scalars,
    unit,
    units,
)
from tphi.models import build_perp_poset, enum_grassmannian
from tphi.phased import (
    GPFunction,
    GPReport,
    Transversal,
    _inversions,
    format_gp,
    format_vector,
    gp_eval,
    gp_normalize,
    gp_relation_check,
    gp_relation_terms,
    gp_verify_all,
    parse_gp_file,
    parse_vector,
    perp_enumerate,
    perp_membership,
    scalar_multiply,
    support,
    transpositions,
    transversal,
    vector_key,
)

P = unit(0, 1)   # +1
M = unit(1, 2)   # -1


def test_support_and_vector_text():
    v = (ZERO, P, unit(1, 4))
    assert support(v) == frozenset({1, 2})
    assert format_vector(v) == "0,0/1,1/4"
    assert parse_vector("0,0/1,1/4") == v
    assert parse_vector(format_vector(v)) == v


def test_perp_membership_hand_cases():
    # (1,1) is orthogonal to (1,-1): the products 1 and -1 are antipodal
    assert perp_membership([(P, P)], (P, M))
    assert not perp_membership([(P, P)], (P, P))
    # v=(1,1,1) and x=(1,-1,0): products {1,-1,0} contain an antipodal pair
    assert perp_membership([(P, P, P)], (P, M, ZERO))
    # disjoint supports: every product is zero and the sum is {0}
    assert perp_membership([(P, ZERO)], (ZERO, P))
    with pytest.raises(ZeroVectorError):
        perp_membership([(P, P)], (ZERO, ZERO))
    with pytest.raises(LengthMismatchError):
        perp_membership([(P, P, P)], (P, M))


def reference_perp(vs, k):
    """The search perp_enumerate ran on scalars: every non-zero candidate
    over scalars(k), kept when perp_membership holds."""
    return [
        cand
        for cand in itertools.product(scalars(k), repeat=len(vs[0]))
        if not all(e.is_zero for e in cand) and perp_membership(vs, cand)
    ]


def _seeded_perp_configs():
    """(vs, k) with n <= 5, k in {2, 4, 6} and 1 to 3 constraints.  Entries
    are zero about a third of the time, and about a quarter of the
    constraints have a single non-zero entry."""
    rng = random.Random(20261020)
    configs = []
    for n, k in [(1, 2), (2, 6), (3, 2), (3, 4), (3, 6), (4, 2), (4, 4), (4, 6), (5, 2), (5, 4), (5, 6)]:
        circle = units(k)
        for m in (1, 2, 3):
            vs = []
            for _ in range(m):
                if rng.random() < 0.25:
                    v = [ZERO] * n
                    v[rng.randrange(n)] = rng.choice(circle)
                else:
                    v = [ZERO if rng.random() < 0.3 else rng.choice(circle) for _ in range(n)]
                vs.append(tuple(v))
            configs.append((vs, k))
    return configs


def test_perp_enumerate_pair_k2():
    got = perp_enumerate([(P, P)], 2)
    assert got == [(P, M), (M, P)]
    assert got == reference_perp([(P, P)], 2)


def test_perp_enumerate_pair_k4():
    got = perp_enumerate([(P, P)], 4)
    # exactly the antipodal pairs (x, -x), both coordinates non-zero
    assert got == reference_perp([(P, P)], 4)
    assert len(got) == 4
    assert all(b == -a for a, b in got)


def test_perp_enumerate_triple_k2():
    got = perp_enumerate([(P, P, P)], 2)
    assert got == reference_perp([(P, P, P)], 2)
    assert len(got) == 12
    by_support = {2: 0, 3: 0}
    for x in got:
        by_support[len(support(x))] += 1
    assert by_support == {2: 6, 3: 6}


def test_perp_enumerate_two_constraints():
    # x must oppose itself across both overlapping constraints
    got = perp_enumerate([(P, P, ZERO), (ZERO, P, P)], 2)
    assert got == [(P, M, P), (M, P, M)]
    assert got == reference_perp([(P, P, ZERO), (ZERO, P, P)], 2)


def test_perp_enumerate_sorted_lexicographically():
    for vs, k in [([(P, P)], 6)] + _seeded_perp_configs():
        got = perp_enumerate(vs, k)
        keys = [vector_key(x) for x in got]
        assert keys == sorted(keys), (vs, k)


def test_perp_enumerate_matches_reference_seeded():
    configs = _seeded_perp_configs()
    single = sum(
        sum(1 for e in v if not e.is_zero) == 1 for vs, _ in configs for v in vs
    )
    with_zero = sum(any(e.is_zero for e in v) for vs, _ in configs for v in vs)
    assert single >= 5 and with_zero >= 20
    non_empty = 0
    for vs, k in configs:
        got = perp_enumerate(vs, k)
        assert got == reference_perp(vs, k), (vs, k)
        non_empty += bool(got)
    assert non_empty >= 20


def test_perp_enumerate_validation():
    with pytest.raises(OddDiscretizationError):
        perp_enumerate([(P, P)], 3)
    with pytest.raises(LengthMismatchError):
        perp_enumerate([(P, P), (P,)], 2)
    with pytest.raises(ZeroVectorError):
        perp_enumerate([], 2)


def test_perp_search_error_messages():
    # the residue search keeps the checks and messages of the scalar loop,
    # for perp_enumerate and for the perp model builder alike
    cases = [
        (([], 2), ZeroVectorError, "need at least one constraint vector"),
        (([(P, P)], 3), OddDiscretizationError, "k must be even, got 3"),
        (([(P, P), (P,)], 2), LengthMismatchError, "constraint vectors must share one length"),
        (([(P, unit(1, 3))], 4), ValueError, "constraint entry 1/3 is not a 4-th root of unity"),
        (([(P, ZERO, unit(1, 8))], 4), ValueError, "constraint entry 1/8 is not a 4-th root of unity"),
        (([(P, P, P)], 2, 25), SizeCapExceededError, "perp has more candidates than the cap 25"),
        (([(P, P)], 0), ValueError, "k must be positive"),
        (([(P, P)], -2), ValueError, "k must be positive"),
        (([(P, unit(1, 4))], -2), ValueError, "k must be positive"),
    ]
    for search in (perp_enumerate, build_perp_poset):
        for args, error, message in cases:
            with pytest.raises(error) as caught:
                search(*args)
            assert type(caught.value) is error and str(caught.value) == message, (search, args)
    assert perp_enumerate([()], 2) == []


def test_perp_enumerate_cap_counts_candidates():
    # 3^3 - 1 = 26 candidates, of which 12 are members
    assert len(perp_enumerate([(P, P, P)], 2, cap=26)) == 12
    with pytest.raises(SizeCapExceededError, match="more candidates than the cap 25$"):
        perp_enumerate([(P, P, P)], 2, cap=25)


def test_gp_construction_and_validation():
    phi = GPFunction.from_values(3, 2, {(1, 2): P, (1, 3): ZERO, (2, 3): M})
    assert phi.values == {(1, 2): P, (2, 3): M}  # zero values dropped
    assert not phi.is_zero
    assert GPFunction.from_values(3, 2, {}).is_zero
    with pytest.raises(BadArityError):
        GPFunction.from_values(3, 4, {})
    with pytest.raises(BadArityError):
        GPFunction.from_values(3, 2, {(1, 2, 3): P})
    with pytest.raises(BadArityError):
        GPFunction.from_values(3, 2, {(2, 1): P})
    with pytest.raises(IndexOutOfRangeError):
        GPFunction.from_values(3, 2, {(1, 4): P})


def test_gp_eval_alternating():
    phi = GPFunction.from_values(3, 2, {(1, 2): unit(1, 4)})
    assert gp_eval(phi, (1, 2)) == unit(1, 4)
    assert gp_eval(phi, (2, 1)) == unit(3, 4)  # one transposition: half turn
    assert gp_eval(phi, (1, 1)) == ZERO
    assert gp_eval(phi, (1, 3)) == ZERO  # unstored
    with pytest.raises(BadArityError):
        gp_eval(phi, (1, 2, 3))
    with pytest.raises(IndexOutOfRangeError):
        gp_eval(phi, (0, 2))


def test_gp_eval_sign_is_permutation_parity():
    phi = GPFunction.from_values(4, 3, {(1, 2, 3): P})
    for perm in itertools.permutations((1, 2, 3)):
        inv = sum(
            1
            for i in range(3)
            for j in range(i + 1, 3)
            if perm[i] > perm[j]
        )
        expected = M * P if inv % 2 else P
        assert gp_eval(phi, perm) == expected, perm


def test_relation_terms_hand_trace():
    # all stored values one, n=3, r=2, xs=(1,2,3), ys=(1,)
    phi = GPFunction.from_values(3, 2, {(1, 2): P, (1, 3): P, (2, 3): P})
    terms = gp_relation_terms(phi, (1, 2, 3), (1,))
    # k=1: -phi(23)*phi(11) = 0; k=2: phi(13)*phi(21) = -1; k=3: -phi(12)*phi(31) = +1
    assert terms == [ZERO, M, P]
    assert gp_relation_check(phi, (1, 2, 3), (1,))


def test_relation_check_validation():
    phi = GPFunction.from_values(3, 2, {(1, 2): P})
    with pytest.raises(BadArityError):
        gp_relation_check(phi, (1, 2), (1,))
    with pytest.raises(BadArityError):
        gp_relation_check(phi, (1, 2, 3), (1, 2))
    with pytest.raises(BadArityError):
        gp_relation_check(phi, (3, 2, 1), (1,))


def test_verify_all_rank_one_always_passes():
    # two exchange terms t and -t: zero is always in their sum
    for n in (2, 3, 4):
        for vals in itertools.product(scalars(2), repeat=n):
            if all(v.is_zero for v in vals):
                continue
            phi = GPFunction.from_values(
                n, 1, {(i + 1,): v for i, v in enumerate(vals)}
            )
            assert gp_verify_all(phi).ok


def test_verify_all_identically_zero():
    report = gp_verify_all(GPFunction.from_values(3, 2, {}))
    assert report == GPReport(False, "not identically zero")


def test_verify_all_tuple_sweep_matches():
    funcs = [
        GPFunction.from_values(3, 2, {(1, 2): P, (1, 3): unit(1, 4), (2, 3): M}),
        GPFunction.from_values(4, 2, {(1, 2): P, (3, 4): P}),
        GPFunction.from_values(3, 1, {(1,): P, (2,): unit(1, 3)}),
    ]
    for phi in funcs:
        assert gp_verify_all(phi).ok == gp_verify_all(phi, all_tuples=True).ok


def test_verify_all_scalar_invariance():
    phi = GPFunction.from_values(3, 2, {(1, 2): P, (1, 3): unit(1, 4), (2, 3): M})
    base = gp_verify_all(phi).ok
    for t in units(4):
        assert gp_verify_all(scalar_multiply(t, phi)).ok == base


def sweep_report(phi, all_tuples=False):
    """Oracle for gp_verify_all: the sweep term by term, each relation's
    gp_relation_terms summed by boxplus_fold.  Returns (ok, xs, ys)."""
    if phi.is_zero:
        return False, (), ()
    ground = range(1, phi.n + 1)
    if all_tuples:
        xs_sweep = itertools.product(ground, repeat=phi.r + 1)
        ys_sweep = list(itertools.product(ground, repeat=phi.r - 1))
    else:
        xs_sweep = itertools.combinations(ground, phi.r + 1)
        ys_sweep = list(itertools.combinations(ground, phi.r - 1))
    for xs in xs_sweep:
        for ys in ys_sweep:
            if not boxplus_fold(gp_relation_terms(phi, xs, ys)).has_zero:
                return False, xs, ys
    return True, (), ()


# Phases of the 2x2 minors of [[1, 0, 1, 1], [0, 1, w, i]], w = exp(2 pi i/3):
# a realizable, hence strong, function mixing thirds, quarters and 1/24.
MIXED_REALIZABLE = GPFunction.from_values(
    4,
    2,
    {
        (1, 2): ONE,
        (1, 3): unit(1, 3),
        (1, 4): unit(1, 4),
        (2, 3): M,
        (2, 4): M,
        (3, 4): unit(1, 24),
    },
)


def test_verify_all_matches_term_sweep():
    rng = random.Random(20261018)
    mixed = [ZERO, ZERO] + units(3) + units(4) + units(6)
    funcs = [MIXED_REALIZABLE, scalar_multiply(unit(1, 5), MIXED_REALIZABLE)]
    for phi in enum_grassmannian(4, 2, 2)[::15]:
        funcs.append(scalar_multiply(unit(1, 3), phi))
    for n, r in ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (4, 1)):
        tuples = list(itertools.combinations(range(1, n + 1), r))
        for _ in range(6):
            values = {t: rng.choice(mixed) for t in tuples}
            funcs.append(GPFunction.from_values(n, r, values))
    passed = 0
    for phi in funcs:
        want = sweep_report(phi)
        rep = gp_verify_all(phi)
        assert (rep.ok, rep.xs, rep.ys) == want, format_gp(phi)
        passed += rep.ok
        if phi.n <= 4:
            want = sweep_report(phi, all_tuples=True)
            rep = gp_verify_all(phi, all_tuples=True)
            assert (rep.ok, rep.xs, rep.ys) == want, format_gp(phi)
    assert sweep_report(MIXED_REALIZABLE)[0]
    assert 12 <= passed < len(funcs)


def test_verify_all_counts_relations_against_cap():
    # C(40,21) * C(40,19) relations on increasing tuples
    phi = GPFunction.from_values(40, 20, {tuple(range(1, 21)): ONE})
    with pytest.raises(SizeCapExceededError):
        gp_verify_all(phi)
    # C(11,5) * C(11,3) = 76230 relations on increasing tuples pass the
    # cap, 11^8 on all tuples do not
    phi = GPFunction.from_values(11, 4, {(1, 2, 3, 4): ONE})
    assert gp_verify_all(phi).ok
    with pytest.raises(SizeCapExceededError):
        gp_verify_all(phi, all_tuples=True)
    # the zero function is reported before anything is counted
    assert not gp_verify_all(GPFunction(40, 20)).ok


def test_normalize():
    phi = GPFunction.from_values(
        3, 1, {(1,): ZERO, (2,): unit(1, 3), (3,): unit(2, 3)}
    )
    normalized = gp_normalize(phi)
    assert normalized.values == {(2,): ONE, (3,): unit(1, 3)}
    # idempotent, and constant on scalar orbits
    assert gp_normalize(normalized) == normalized
    for t in units(6):
        assert gp_normalize(scalar_multiply(t, phi)) == normalized
    with pytest.raises(IdenticallyZeroError):
        gp_normalize(GPFunction.from_values(2, 1, {}))


def test_transversal_hand_traces():
    assert transversal(3, 2).tuples == ((1, 2), (1, 3), (2, 3))
    assert transversal(3, 2).d == 3
    assert transversal(2, 2).tuples == ((1, 2),)
    # n = r = 3 keeps exactly the cyclic rotations of (1,2,3)
    assert transversal(3, 3).tuples == ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    with pytest.raises(BadArityError):
        transversal(2, 3)
    with pytest.raises(BadArityError):
        transversal(3, 0)


def reference_transversal(n, r):
    """The greedy pass that transversal's closed form replaces: keep the
    least remaining tuple, discard its transpositions, repeat."""
    alive = set(itertools.permutations(range(1, n + 1), r))
    chosen = []
    for tup in sorted(alive):
        if tup not in alive:
            continue
        chosen.append(tup)
        alive.discard(tup)
        for other in transpositions(tup):
            alive.discard(other)
    return tuple(chosen)


def test_transversal_matches_the_greedy_pass():
    # the subsets arranged by even position-permutations, sorted, against
    # the greedy pass and the per-tuple inversion count it replaced
    for n in range(1, 8):
        for r in range(1, n + 1):
            got = transversal(n, r).tuples
            assert got == reference_transversal(n, r), (n, r)
            perms = itertools.permutations(range(1, n + 1), r)
            assert got == tuple(t for t in perms if not _inversions(t) % 2), (n, r)


def test_transversal_properties_exhaustive():
    for n in range(1, 6):
        for r in range(1, min(n, 3) + 1):
            t = transversal(n, r)
            members = set(t.tuples)
            everything = set(itertools.permutations(range(1, n + 1), r))
            # (a) members have distinct entries
            assert members <= everything
            # (b) everything is a member or one transposition from a member
            for tup in everything:
                assert tup in members or any(
                    s in members for s in transpositions(tup)
                ), (n, r, tup)
            # (c) no two members are one transposition apart
            for tup in members:
                assert not any(s in members for s in transpositions(tup)), (n, r, tup)


def test_gp_file_round_trip():
    phi = GPFunction.from_values(3, 2, {(1, 2): P, (2, 3): unit(3, 4)})
    text = format_gp(phi)
    assert text.splitlines()[0] == "3 2"
    assert parse_gp_file(text) == phi
    parsed = parse_gp_file("# comment\n2 1\n1 : 0/1\n")
    assert parsed == GPFunction.from_values(2, 1, {(1,): P})
    with pytest.raises(ValueError):
        parse_gp_file("")
    with pytest.raises(ValueError):
        parse_gp_file("2 1\n1 : 0/1\n1 : 1/2\n")
    with pytest.raises(ValueError):
        parse_gp_file("2 1\n1 0/1\n")
