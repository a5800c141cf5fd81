"""Arc arithmetic: frozen examples, canonical forms, and algebraic laws.

boxplus_fold and contains_zero both decide a sum by one scan of the gaps
between integer residues.  reference_fold below is the pairwise fold on
Fraction arcs that boxplus_fold replaced; it shares no code with the gap
scan, so both are checked against it exhaustively on small
discretizations and on seeded random batches.  reference_canonical_arcs
is the split-merge-fold canonicalizer that the sorted sweep in ArcSet
replaced; the sweep is checked against it on seeded random unions.
zero_test, the memoized residue scan of the sweeps, is checked against
zero_in_residue_sum on every small residue tuple, memo hits included.
"""

import itertools
import random
from fractions import Fraction

import pytest

from tphi.errors import EmptySumError
from tphi.hyperfield import (
    HALF,
    ArcSet,
    EMPTY,
    FULL_WITH_ZERO,
    ONE,
    TPhi,
    ZERO,
    ZERO_ONLY,
    _on_arc,
    arcset_of,
    boxplus_fold,
    boxplus_pair,
    contains_zero,
    format_arcset,
    format_value,
    neg_arcset,
    parse_terms,
    parse_value,
    scalars,
    scale_arcset,
    unit,
    units,
    zero_in_residue_sum,
    zero_test,
)


def phase_key(v: TPhi):
    """Sort key of a scalar: zero first, then units by increasing angle."""
    if v.is_zero:
        return (0, Fraction(0))
    return (1, v.angle)


def reference_pair(a: TPhi, b: TPhi) -> ArcSet:
    """Multivalued sum of two scalars.

    Zero is neutral, a point plus its antipode is everything, and otherwise
    the sum is the smallest closed arc joining the two points (a single
    point when they coincide).
    """
    if a.is_zero and b.is_zero:
        return ZERO_ONLY
    if a.is_zero:
        return arcset_of(b)
    if b.is_zero:
        return arcset_of(a)
    d = (b.angle - a.angle) % 1
    if d == HALF:
        return FULL_WITH_ZERO
    if d == 0:
        return arcset_of(a)
    if d < HALF:
        return ArcSet(arcs=((a.angle, d),))
    return ArcSet(arcs=((b.angle, 1 - d),))


def _point_with_arc(theta: Fraction, start: Fraction, length: Fraction):
    """Union of pairwise sums of a circle point with every point of an arc.

    Returns None when the antipode of theta lies on the arc, in which case
    the union is the whole hyperfield.  Otherwise the union is the unique
    closed arc that covers the given arc and theta while avoiding the
    antipode.
    """
    anti = (theta + HALF) % 1
    if _on_arc(start, length, anti):
        return None
    if _on_arc(start, length, theta):
        return (start, length)
    lead = (start - theta) % 1
    trail = (theta - (start + length)) % 1
    if 0 < (anti - theta) % 1 < lead:
        return (start, length + trail)
    return (theta, lead + length)


def _extend(acc: ArcSet, t: TPhi) -> ArcSet:
    if t.is_zero:
        return acc
    if acc.full:
        return FULL_WITH_ZERO
    pieces = []
    if acc.has_zero:
        pieces.append((t.angle, Fraction(0)))
    for start, length in acc.arcs:
        hull = _point_with_arc(t.angle, start, length)
        if hull is None:
            return FULL_WITH_ZERO
        pieces.append(hull)
    return ArcSet(has_zero=False, arcs=tuple(pieces))


def reference_fold(terms) -> ArcSet:
    """Multivalued sum of the terms, folded left to right.

    Each step forms the union of pairwise sums of the accumulated set with
    the next scalar.  The result does not depend on the order; the fold is
    merely an evaluation strategy.
    """
    terms = list(terms)
    if not terms:
        raise EmptySumError("cannot sum an empty sequence of scalars")
    acc = arcset_of(terms[0])
    for t in terms[1:]:
        acc = _extend(acc, t)
    return acc


def _assert_fold_matches_reference(terms):
    got = boxplus_fold(terms)
    want = reference_fold(terms)
    assert got == want, terms
    assert hash(got) == hash(want), terms
    assert got.arcs == want.arcs, terms
    assert format_arcset(got) == format_arcset(want), terms
    # the unchecked arc is already in the canonical form the checked
    # constructor would give it
    assert got == ArcSet(got.has_zero, got.full, got.arcs), terms


REFERENCE_FULL_MARK = ((Fraction(0), Fraction(1)),)


def reference_canonical_arcs(arcs, full: bool):
    if full:
        return ()
    segments = []
    for start, length in arcs:
        start = Fraction(start)
        length = Fraction(length)
        if length < 0:
            raise ValueError("arc length must be non-negative")
        if length >= 1:
            return REFERENCE_FULL_MARK
        start %= 1
        end = start + length
        if end > 1:
            segments.append((start, Fraction(1)))
            segments.append((Fraction(0), end - 1))
        else:
            segments.append((start, end))
    if not segments:
        return ()
    segments.sort()
    merged = [segments[0]]
    for start, end in segments[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            if end > last_end:
                merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    if len(merged) == 1 and merged[0] == (0, 1):
        return REFERENCE_FULL_MARK
    if len(merged) > 1 and merged[0][0] == 0 and merged[-1][1] == 1:
        # Touching across the wrap point: fold the last segment around.
        first = merged.pop(0)
        start = merged[-1][0]
        length = 1 - start + first[1]
        if length >= 1:
            return REFERENCE_FULL_MARK
        merged[-1] = (start, start + length)
    out = tuple((s, e - s) for s, e in merged)
    return tuple(sorted(out))


def reference_arcset(has_zero, full, arcs):
    """(has_zero, full, arcs) as the former ArcSet constructor made them."""
    arcs = reference_canonical_arcs(arcs, full)
    if arcs == REFERENCE_FULL_MARK:
        full, arcs = True, ()
    return has_zero, full, arcs


def reference_scale(a: TPhi, ref):
    """The former scale_arcset, through the former ArcSet.rotated."""
    has_zero, full, arcs = ref
    if not (has_zero or full or arcs):
        return False, False, ()
    if a.is_zero:
        return True, False, ()
    return reference_arcset(has_zero, full, tuple(((s + a.angle) % 1, l) for s, l in arcs))


def _random_union(rng):
    """Seeded arcs over one denominator: starts from -2 to 3 turns, lengths
    0, under 1/2, at least 1/2, at least 1; some arcs start where the
    previous one ends, a whole number of turns away."""
    q = rng.choice((1, 2, 3, 4, 6, 8, 12, 97))
    arcs = []
    for _ in range(rng.randint(0, 6)):
        if arcs and rng.random() < 0.3:
            start = arcs[-1][0] + arcs[-1][1] + rng.randint(-1, 1)
        else:
            start = Fraction(rng.randint(-2 * q, 3 * q), q)
        kind = rng.random()
        if kind < 0.2:
            length = Fraction(0)
        elif kind < 0.6:
            length = Fraction(rng.randrange(q), 2 * q)
        elif kind < 0.95:
            length = Fraction(rng.randrange(q, 2 * q), 2 * q)
        else:
            length = Fraction(rng.randint(2 * q, 4 * q), 2 * q)
        arcs.append((start, length))
    return q, tuple(arcs)


def _assert_canonical(s: ArcSet):
    assert not (s.full and s.arcs)
    for (s0, l0), (s1, _) in zip(s.arcs, s.arcs[1:]):
        assert s0 + l0 < s1
    for start, length in s.arcs:
        assert type(start) is type(length) is Fraction
        assert 0 <= start < 1 and 0 <= length < 1
    if len(s.arcs) > 1:
        assert s.arcs[-1][0] + s.arcs[-1][1] < s.arcs[0][0] + 1


def _arc(ps, qs, plen_num, plen_den):
    return (Fraction(ps, qs), Fraction(plen_num, plen_den))


def test_scalar_basics():
    assert ZERO.is_zero
    assert not ONE.is_zero
    assert unit(1, 4) * unit(1, 4) == unit(1, 2)
    assert unit(3, 4) * unit(1, 2) == unit(1, 4)  # angles add mod 1
    assert unit(5, 4) == unit(1, 4)
    assert -unit(0, 1) == unit(1, 2)
    assert -ZERO == ZERO
    assert ZERO * unit(1, 3) == ZERO
    assert unit(1, 3).inverse() == unit(2, 3)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_pair_with_zero_terms():
    # zero is neutral: x + 0 = {x}
    assert boxplus_pair(unit(1, 3), ZERO) == arcset_of(unit(1, 3))
    assert boxplus_pair(ZERO, unit(1, 3)) == arcset_of(unit(1, 3))
    assert boxplus_pair(ZERO, ZERO) == ZERO_ONLY


def test_pair_antipodal_is_everything():
    # x + (-x) = {0} plus the whole circle
    s = boxplus_pair(ONE, unit(1, 2))
    assert s == FULL_WITH_ZERO
    assert s.has_zero and s.full
    assert boxplus_pair(unit(1, 8), unit(5, 8)) == FULL_WITH_ZERO


def test_pair_generic_is_smallest_closed_arc():
    # the short way from 0 to 1/4 is the arc [0, 1/4]
    s = boxplus_pair(ONE, unit(1, 4))
    assert s == ArcSet(arcs=(_arc(0, 1, 1, 4),))
    assert not s.has_zero
    # same pair in the other order: same arc
    assert boxplus_pair(unit(1, 4), ONE) == s
    # wrap around the top of the circle: [7/8, 1/8]
    w = boxplus_pair(unit(7, 8), unit(1, 8))
    assert w == ArcSet(arcs=(_arc(7, 8, 1, 4),))
    assert w.contains(ONE)
    assert not w.contains(unit(1, 2))
    # idempotent-ish: x + x = {x}
    assert boxplus_pair(unit(1, 3), unit(1, 3)) == arcset_of(unit(1, 3))


def test_fold_examples():
    # 1 + (-1) already fills everything; a further term keeps it full
    assert boxplus_fold([ONE, unit(1, 2), unit(1, 4)]) == FULL_WITH_ZERO
    # [0,1/4] then +3/8: every pairwise short arc lands inside [0,3/8]
    assert boxplus_fold([ONE, unit(1, 4), unit(3, 8)]) == ArcSet(
        arcs=(_arc(0, 1, 3, 8),)
    )
    # the accumulated arc [0,1/4] contains the antipode of 1/2, so zero enters
    assert boxplus_fold([ONE, unit(1, 4), unit(1, 2)]) == FULL_WITH_ZERO
    # dropping zeros never changes a fold
    assert boxplus_fold([ONE, ZERO, unit(1, 4), ZERO]) == boxplus_fold(
        [ONE, unit(1, 4)]
    )
    assert boxplus_fold([ZERO]) == ZERO_ONLY
    assert boxplus_fold([unit(2, 3)]) == arcset_of(unit(2, 3))
    # a generator is read once, like a list or a tuple
    assert boxplus_fold(t for t in (ONE, ZERO, unit(1, 4))) == ArcSet(arcs=(_arc(0, 1, 1, 4),))
    assert boxplus_fold(t for t in (ZERO, ZERO)) == ZERO_ONLY
    assert boxplus_fold((ONE, unit(1, 2))) == FULL_WITH_ZERO
    for empty in ([], (), (t for t in ())):
        with pytest.raises(EmptySumError):
            boxplus_fold(empty)


def test_fold_order_invariance_small():
    vals = [ONE, unit(1, 3), unit(2, 3)]
    results = {boxplus_fold(p) for p in itertools.permutations(vals)}
    assert len(results) == 1
    assert results.pop() == FULL_WITH_ZERO


def test_criterion_examples():
    # 1, e^(2pi i/3), e^(4pi i/3): all gaps are 1/3 of a turn, under half
    assert contains_zero([ONE, unit(1, 3), unit(2, 3)])
    # no antipodal pair and a 3/4-turn gap: an open semicircle covers both
    assert not contains_zero([ONE, unit(1, 4)])
    assert contains_zero([ONE, unit(1, 2)])
    assert not contains_zero([ONE])
    assert contains_zero([ZERO])
    assert contains_zero([ZERO, ZERO])
    assert not contains_zero([ZERO, unit(1, 5)])
    # duplicates are immaterial
    assert not contains_zero([ONE, ONE, unit(1, 4), unit(1, 4)])
    # a generator is read once, like a list or a tuple
    assert contains_zero(t for t in (ONE, unit(1, 3), unit(2, 3)))
    assert not contains_zero(t for t in (ONE, unit(1, 4)))
    assert contains_zero(t for t in (ZERO, ZERO))
    assert contains_zero((unit(1, 7), unit(9, 14)))
    for empty in ([], (), (t for t in ())):
        with pytest.raises(EmptySumError):
            contains_zero(empty)


def test_gap_of_exactly_half_turn_is_antipodal():
    # entries at 0 and 1/2: caught by the antipodal test, not the gap test
    assert contains_zero([ONE, unit(1, 2)])
    # entries at 0, 1/4, 1/2: largest gap is exactly 1/2 but 0 and 1/2 are
    # antipodal, so zero is in the sum
    assert contains_zero([ONE, unit(1, 4), unit(1, 2)])


def test_canonical_forms():
    # touching arcs merge
    a = ArcSet(arcs=(_arc(0, 1, 1, 4), _arc(1, 4, 1, 4)))
    assert a == ArcSet(arcs=(_arc(0, 1, 1, 2),))
    # overlapping arcs merge
    b = ArcSet(arcs=(_arc(0, 1, 1, 2), _arc(1, 4, 1, 2)))
    assert b == ArcSet(arcs=(_arc(0, 1, 3, 4),))
    # arcs covering the circle collapse to the full flag
    c = ArcSet(arcs=(_arc(0, 1, 2, 3), _arc(1, 2, 1, 2)))
    assert c.full and c.arcs == ()
    # touching across the wrap point
    d = ArcSet(arcs=(_arc(3, 4, 1, 4), _arc(0, 1, 1, 8)))
    assert d == ArcSet(arcs=(_arc(3, 4, 3, 8),))
    # a point swallowed by an arc
    e = ArcSet(arcs=(_arc(1, 8, 0, 1), _arc(0, 1, 1, 4)))
    assert e == ArcSet(arcs=(_arc(0, 1, 1, 4),))
    # length one means the whole circle no matter the start
    f = ArcSet(arcs=((Fraction(1, 3), Fraction(1)),))
    assert f.full
    with pytest.raises(ValueError):
        ArcSet(arcs=((Fraction(0), Fraction(-1, 4)),))


def test_canonical_arcs_match_the_former_canonicalizer():
    rng = random.Random(20261020)
    scales = [ZERO, ONE, unit(1, 2), unit(1, 3), unit(5, 8), unit(3, 97)]
    grids = {}
    for _ in range(3000):
        q, arcs = _random_union(rng)
        has_zero, full = rng.random() < 0.5, rng.random() < 0.05
        s = ArcSet(has_zero, full, arcs)
        ref = reference_arcset(has_zero, full, arcs)
        assert (s.has_zero, s.full, s.arcs) == ref, arcs
        _assert_canonical(s)
        for a in scales:
            t = scale_arcset(a, s)
            assert (t.has_zero, t.full, t.arcs) == reference_scale(a, ref), (a, arcs)
            _assert_canonical(t)
        assert neg_arcset(s) == scale_arcset(unit(1, 2), s)
        # membership on a grid four times finer than the arcs' denominator,
        # against the listed arcs themselves
        n = 4 * q
        if n not in grids:
            grids[n] = [unit(j, n) for j in range(n)]
        points = grids[n]
        ints = [(int(start * n), int(length * n)) for start, length in arcs]
        for j, x in enumerate(points):
            want = full or any(l >= n or (j - st) % n <= l for st, l in ints)
            assert s.contains(x) == want, (arcs, x)


def test_membership_queries():
    s = ArcSet(arcs=(_arc(7, 8, 1, 4),))
    assert s.contains(unit(7, 8))
    assert s.contains(ONE)
    assert s.contains(unit(1, 8))
    assert not s.contains(unit(1, 4))
    assert not s.contains(ZERO)
    assert FULL_WITH_ZERO.contains(ZERO)
    assert FULL_WITH_ZERO.contains(unit(17, 19))
    assert not EMPTY.contains(ZERO)


def test_formatting():
    assert format_value(ZERO) == "0"
    assert format_value(ONE) == "0/1"
    assert format_value(unit(2, 4)) == "1/2"
    assert parse_value("3/4") == unit(3, 4)
    assert parse_value("0") == ZERO
    assert parse_value(" -1/3 ") == unit(2, 3)
    assert parse_value("007/8") == unit(7, 8)
    with pytest.raises(ValueError):
        parse_value("1/0")
    with pytest.raises(ValueError):
        parse_value("x")
    # int() takes both parts of each text in refused, and the scalar rule
    # takes none of these: it takes ASCII digits, and a '-' on the numerator
    refused = ("1_0/3", "1/2_0", "\u0661/\u0662", "1/\u0662", "\uff11/2", "+1/2", "1/+2", "1 /2", "1/ 2")
    for text in refused + ("--1/2", "-/2"):
        with pytest.raises(ValueError, match="bad scalar"):
            parse_value(text)
    with pytest.raises(ValueError, match="denominator must be positive"):
        parse_value("1/-2")
    assert format_arcset(FULL_WITH_ZERO) == "FULL +0"
    assert format_arcset(ZERO_ONLY) == "+0"
    assert format_arcset(EMPTY) == "EMPTY"
    assert format_arcset(boxplus_pair(ONE, unit(1, 4))) == "[0/1,1/4]"
    two = ArcSet(arcs=(_arc(0, 1, 1, 8), _arc(1, 2, 1, 8)))
    assert format_arcset(two) == "[0/1,1/8],[1/2,5/8]"
    assert format_arcset(boxplus_fold(parse_terms("0/1 + 1/2"))) == "FULL +0"
    with pytest.raises(ValueError):
        parse_terms("1/2 + + 1/3")


def _fold_says_zero(terms):
    return reference_fold(terms).has_zero


def test_criterion_vs_fold_exhaustive_tphi8():
    # every multiset of size at most 5 over {0} and the 8th roots of unity
    pool = scalars(8)
    for size in range(1, 6):
        for combo in itertools.combinations_with_replacement(pool, size):
            assert contains_zero(combo) == _fold_says_zero(combo), combo
            _assert_fold_matches_reference(combo)


def test_criterion_vs_fold_random_tphi24():
    rng = random.Random(20240811)
    pool = scalars(24)
    for _ in range(2000):
        size = rng.randint(1, 8)
        combo = [pool[rng.randrange(len(pool))] for _ in range(size)]
        assert contains_zero(combo) == _fold_says_zero(combo), combo


def test_residue_zero_test_vs_fold_exhaustive():
    # every multiset of at most 4 terms over {0} and the k-th roots of
    # unity, k <= 12; j/k turns is residue 2j mod 2k
    for k in range(1, 13):
        pool = scalars(k)
        for size in range(1, 5):
            for combo in itertools.combinations_with_replacement(range(k + 1), size):
                terms = [pool[e] for e in combo]
                residues = [2 * (e - 1) for e in combo if e]
                want = _fold_says_zero(terms)
                assert zero_in_residue_sum(residues, k) == want, (k, combo)
                assert contains_zero(terms) == want, (k, combo)
                _assert_fold_matches_reference(terms)


def test_fold_matches_reference_random_with_off_grid_units():
    rng = random.Random(20261019)
    pool = scalars(24) + [unit(1, 97), unit(2, 7), unit(96, 97), unit(5, 7), unit(11, 194)]
    for _ in range(10000):
        terms = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
        _assert_fold_matches_reference(terms)


def test_fold_matches_reference_edge_cases():
    cases = [[ZERO], [ZERO, ZERO, ZERO], [ONE], [unit(3, 7)], [ZERO, unit(1, 97), ZERO]]
    # antipodal pairs, alone and with more terms
    cases += [[unit(j, 8), unit(j + 4, 8)] for j in range(8)]
    cases += [[unit(1, 7), unit(9, 14), unit(1, 3)], [unit(1, 97), ZERO, unit(195, 194)]]
    # arcs that wrap past zero turns, ending exactly at 0/1 and beyond it
    cases += [
        [unit(7, 8), unit(1, 8)],
        [unit(3, 4), ONE],
        [ONE, unit(5, 6), unit(11, 12)],
        [unit(96, 97), unit(1, 97), ZERO, unit(2, 97)],
        [unit(5, 7), unit(1, 7), unit(6, 7)],
    ]
    # the widest gap exactly half a turn, and just over it
    cases += [[ONE, unit(1, 4), unit(1, 2)], [ONE, unit(1, 4), unit(48, 97)]]
    for terms in cases:
        for perm in itertools.permutations(terms):
            _assert_fold_matches_reference(perm)
    for a, b in itertools.product(scalars(12) + [unit(1, 97), unit(2, 7)], repeat=2):
        assert boxplus_pair(a, b) == reference_pair(a, b), (a, b)
    with pytest.raises(EmptySumError):
        boxplus_fold(iter(()))


def test_residue_zero_test_scales_and_wraps():
    # the same points over a finer modulus, and residues outside 0..2h-1
    assert zero_in_residue_sum([], 1)
    assert not zero_in_residue_sum([5], 3)
    assert zero_in_residue_sum([0, 3], 3)
    assert zero_in_residue_sum([0, 9], 3)
    assert not zero_in_residue_sum([0, 2], 3)
    assert not zero_in_residue_sum([0, 4], 6)
    assert zero_in_residue_sum([0, 2, 4], 3)
    assert zero_in_residue_sum([-2, 2, 6], 3)
    assert zero_in_residue_sum([0, 4, 8], 6)


def test_zero_test_matches_the_residue_scan_exhaustively():
    # every residue tuple of length 0 to 4 with entries below 4h, so that
    # points also come a turn late, each asked twice: the second ask is a
    # memo hit.  h = 4 makes 69,905 tuples, more than the memo keeps
    for h in range(1, 5):
        zero_in = zero_test(h)
        for size in range(5):
            for residues in itertools.product(range(4 * h), repeat=size):
                want = zero_in_residue_sum(residues, h)
                assert zero_in(residues) == want == zero_in(residues), (h, residues)
        info = zero_in.cache_info()
        assert info.hits == info.misses == sum((4 * h) ** s for s in range(5))
        assert info.maxsize == 1 << 16 and info.currsize == min(info.misses, 1 << 16)


def test_contains_zero_mixed_denominators_seeded():
    rng = random.Random(20261018)
    pool = [unit(p, q) for q in (3, 4, 5, 6, 8, 10, 12) for p in range(q)] + [ZERO]
    for _ in range(3000):
        terms = [rng.choice(pool) for _ in range(rng.randint(1, 7))]
        assert contains_zero(terms) == _fold_says_zero(terms), terms


def test_commutativity_and_identity_exhaustive():
    for k in (2, 4, 6):
        pool = scalars(k)
        for a, b in itertools.product(pool, repeat=2):
            assert boxplus_pair(a, b) == boxplus_pair(b, a)
        for a in pool:
            assert boxplus_pair(a, ZERO) == arcset_of(a)
            assert a * ONE == a
            assert a * ZERO == ZERO


def test_unique_additive_inverse_exhaustive():
    for k in (2, 4, 6, 8):
        pool = scalars(k)
        for a, b in itertools.product(pool, repeat=2):
            if a.is_zero and b.is_zero:
                continue
            assert contains_zero([a, b]) == (b == -a), (a, b)


def test_associativity_exhaustive_small():
    # permutation invariance of the fold == set-level associativity
    for k in (2, 4):
        pool = scalars(k)
        for triple in itertools.combinations_with_replacement(pool, 3):
            results = {boxplus_fold(p) for p in itertools.permutations(triple)}
            assert len(results) == 1, triple


def test_distributivity_and_reflection_exhaustive_small():
    for k in (2, 4):
        pool = scalars(k)
        for a, b, c in itertools.product(pool, repeat=3):
            left = scale_arcset(a, boxplus_pair(b, c))
            right = boxplus_pair(a * b, a * c)
            assert left == right, (a, b, c)
        for a, b in itertools.product(pool, repeat=2):
            assert neg_arcset(boxplus_pair(a, b)) == boxplus_pair(-a, -b)


def test_scale_arcset_cases():
    s = boxplus_pair(ONE, unit(1, 4))
    assert scale_arcset(unit(1, 2), s) == ArcSet(arcs=(_arc(1, 2, 1, 4),))
    assert scale_arcset(ZERO, s) == ZERO_ONLY
    assert scale_arcset(ZERO, EMPTY) == EMPTY
    assert scale_arcset(unit(1, 3), FULL_WITH_ZERO) == FULL_WITH_ZERO


def test_discretization_helpers():
    assert units(2) == [ONE, unit(1, 2)]
    assert len(scalars(8)) == 9
    assert scalars(2)[0] == ZERO
    assert sorted(scalars(4), key=phase_key) == scalars(4)
    with pytest.raises(ValueError):
        units(0)
