"""Model family builders.

The power-model homology oracle is independent of the pipeline: the order
complex must coincide with the barycentric subdivision of a join of
antichains under the explicit vector-to-face relabeling, and joins of
antichains have known reduced homology.  Grassmannian counts are frozen
from the brute-force filter, which is re-run here as the oracle, and the
search is checked against reference_enum_grassmannian, the search as it was
before it decided each distinct sum once, for its output, its steps and
its refusals.
"""

import functools
import hashlib
import itertools
import random
import weakref
from functools import reduce
from math import gcd

import pytest

from tphi.errors import BadArityError, EmptyPerpError, SizeCapExceededError, TphiError
from tphi import hyperfield, models, phased
from tphi.homology import homology_groups
from tphi.hyperfield import (
    ONE,
    ZERO,
    format_scalars,
    format_value,
    scalars,
    unit,
    units,
    zero_in_residue_sum,
)
from tphi.models import (
    DISCRETIZATION_CAVEAT,
    _min_search_steps,
    _power_pair_count,
    build_perp_poset,
    build_tphi_power,
    enum_grassmannian,
    expected_join_betti,
    perp_pruned_strata,
)
from tphi.phased import (
    GPFunction,
    _gp_relations_by_last_tuple,
    _perp_rows,
    format_vector,
    gp_normalize,
    gp_verify_all,
    parse_vector,
    perp_enumerate,
    support,
)
from tphi.poset import (
    build_poset,
    format_poset_file,
    geometric_discrete_check,
    mirror_check,
    mirrored,
)
from tphi.simplicial import (
    DEFAULT_SIMPLEX_CAP,
    SimplicialComplex,
    barycentric_subdivision,
    join,
    order_complex,
)

from test_hyperfield import phase_key
from test_phased import reference_perp_membership, sweep_report

P = ONE
M = unit(1, 2)


def test_power_2_2_shape():
    mp = build_tphi_power(2, 2)
    assert len(mp.poset.labels) == 8
    assert {s: len(f) for s, f in mp.fibers().items()} == {"1": 4, "2": 4}
    assert mirror_check(mp).ok
    assert geometric_discrete_check(mp).ok
    c = order_complex(mp.poset)
    assert c.f_vector() == (8, 8)


def test_power_element_counts():
    for n, k in [(1, 5), (2, 3), (3, 2), (4, 1)]:
        mp = build_tphi_power(n, k)
        assert len(mp.poset.labels) == (k + 1) ** n - 1


def test_power_1_is_antichain():
    mp = build_tphi_power(1, 4)
    assert len(mp.poset.labels) == 4
    assert mp.poset.covers() == []
    assert mp.index_poset.labels == ("1",)


def test_power_upset_example():
    mp = build_tphi_power(2, 2)
    up = mp.poset.upset(["0/1,0"])
    assert up == {"0/1,0", "0/1,0/1", "0/1,1/2"}


def test_power_cap():
    with pytest.raises(SizeCapExceededError):
        build_tphi_power(3, 2, cap=20)


def test_power_pair_count_matches_built_order():
    for n, k in [(3, 2), (2, 3), (4, 2), (3, 4), (1, 5), (5, 1), (2, 1), (4, 3)]:
        p = build_tphi_power(n, k).poset
        pairs = sum(map(len, p.below))
        assert _power_pair_count(n, k, DEFAULT_SIMPLEX_CAP) == pairs, (n, k)
        # the cap bounds pairs as well as elements: at cap = pairs the
        # model builds, one below it is refused
        if pairs >= len(p):
            assert len(build_tphi_power(n, k, cap=pairs).poset) == len(p)
            with pytest.raises(SizeCapExceededError, match="order pairs than the cap"):
                build_tphi_power(n, k, cap=pairs - 1)
    # power(4, 40): 2,825,760 elements, under the default cap, but
    # 37,395,200 strict pairs
    assert _power_pair_count(4, 40, 10**9) == 37395200
    assert _power_pair_count(4, 40, DEFAULT_SIMPLEX_CAP) == DEFAULT_SIMPLEX_CAP + 1
    assert _power_pair_count(3, 60, DEFAULT_SIMPLEX_CAP) <= DEFAULT_SIMPLEX_CAP
    assert _power_pair_count(5, 10, DEFAULT_SIMPLEX_CAP) <= DEFAULT_SIMPLEX_CAP


def test_perp_files_are_pinned():
    # sha256 of format_poset_file output, pinned from the scalar perp search
    cases = [
        ([(P, P, P, P)], 2, "a6ec9096bb248b9896b49b38fae0ab4c91683fb0c46681cbcca3e42e8eaada1b"),
        ([(P, unit(1, 4), ZERO, M)], 4, "2a263873f9fd60fee9cb12d8e1b22a60a257b4d397879d35d18f6ca9dba569fc"),
        ([(P, P, ZERO, P), (ZERO, P, P, M)], 2, "b8ea971a0b0dc4d4c65d285b7d9face9f4a0af7f608d5f56893af0c259374db5"),
        ([(P, unit(1, 6), M), (ZERO, P, unit(5, 6))], 6, "8a6b8ddeaf18b3a7a707bc8cfd0d1942d23ef5f31e15fee0866ddc0532735f79"),
    ]
    for vs, k, digest in cases:
        text = format_poset_file(build_perp_poset(vs, k))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (vs, k)


def _antichain(i, k):
    return SimplicialComplex.from_simplices([[f"{i}:{format_value(u)}"] for u in units(k)])


def _vector_face_name(label):
    v = parse_vector(label)
    return "|".join(sorted(f"{i + 1}:{format_value(v[i])}" for i in support(v)))


def test_power_complex_is_subdivided_join():
    for n in (1, 2, 3):
        for k in (1, 2, 3, 4):
            mp = build_tphi_power(n, k)
            power_cx = order_complex(mp.poset)
            jn = reduce(join, [_antichain(i, k) for i in range(1, n + 1)])
            sd = barycentric_subdivision(jn)
            relabeled = SimplicialComplex.from_simplices(
                [
                    [_vector_face_name(lab) for lab in power_cx.face_labels(f)]
                    for f in power_cx.maximal_faces()
                ]
            )
            assert relabeled == sd, (n, k)


def test_power_homology_matches_expectation():
    for n, k in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (4, 1), (4, 2)]:
        mp = build_tphi_power(n, k)
        got = homology_groups(order_complex(mp.poset), reduced=True)
        assert got == expected_join_betti(n, k), (n, k)


def test_expected_join_betti_values():
    assert expected_join_betti(2, 2).groups == ((1, (1, ())),)
    assert expected_join_betti(1, 3).groups == ((0, (2, ())),)
    assert expected_join_betti(3, 2).groups == ((2, (1, ())),)
    assert expected_join_betti(3, 1).groups == ()
    assert expected_join_betti(2, 4).groups == ((1, (9, ())),)


def test_perp_antichain_negative_control():
    for k in (2, 4, 6):
        mp = build_perp_poset([(P, P)], k)
        assert len(mp.poset.labels) == k
        assert mp.poset.covers() == []
        # k isolated points, not a circle
        s = homology_groups(order_complex(mp.poset))
        assert s.betti(0) == k
        assert s.betti(1) == 0


def test_perp_12_element_circle():
    mp = build_perp_poset([(P, P, P)], 2)
    assert len(mp.poset.labels) == 12
    covers = mp.poset.covers()
    assert len(covers) == 12
    assert mp.index_poset.labels == ("2", "3")
    assert mirror_check(mp).ok
    assert geometric_discrete_check(mp).ok
    # comparability graph is a single 12-cycle: walk it
    adj = {lab: set() for lab in mp.poset.labels}
    for a, b in covers:
        adj[a].add(b)
        adj[b].add(a)
    assert all(len(ns) == 2 for ns in adj.values())
    start = mp.poset.labels[0]
    prev, cur, steps = None, start, 0
    while True:
        nxt = min(n for n in adj[cur] if n != prev)
        prev, cur, steps = cur, nxt, steps + 1
        if cur == start:
            break
    assert steps == 12


def test_perp_matches_brute_force_filter():
    vs = [(P, P, P)]
    mp = build_perp_poset(vs, 2)
    power = build_tphi_power(3, 2)
    brute = sorted(
        lab
        for lab in power.poset.labels
        if reference_perp_membership(vs, parse_vector(lab))
    )
    assert sorted(mp.poset.labels) == brute


def test_perp_order_is_induced():
    vs = [(P, P, P)]
    mp = build_perp_poset(vs, 2)
    power = build_tphi_power(3, 2)
    sub = power.poset.induced(mp.poset.labels)
    assert set(sub.labels) == set(mp.poset.labels)
    assert sub.strict_pairs() == mp.poset.strict_pairs()


def test_perp_pruning_and_errors():
    assert perp_pruned_strata(build_perp_poset([(P, P, P)], 2), 3) == (1,)
    assert perp_pruned_strata(build_perp_poset([(P, P)], 2), 2) == (1,)
    # (0,0,a) is orthogonal to (1,1,0), so no stratum is empty
    assert perp_pruned_strata(build_perp_poset([(P, P, ZERO)], 2), 3) == ()
    with pytest.raises(EmptyPerpError):
        build_perp_poset([(P,)], 2)
    with pytest.raises(SizeCapExceededError):
        build_perp_poset([(P, P, P)], 2, cap=5)


def test_perp_refuses_too_many_order_pair_lookups():
    # perp of (1,1,1) over k = 2: 26 candidates and 12 members, 6 with two
    # non-zero entries (2 lookups each) and 6 with three (6 each), so 48
    # lookups bound the order pairs
    mp = build_perp_poset([(P, P, P)], 2, cap=48)
    assert len(mp.poset) == 12 and sum(map(len, mp.poset.below)) <= 48
    # the candidates fit under 47, the lookups do not
    assert len(_perp_rows([(P, P, P)], 2, 47, lambda k: range(k + 1))) == 12
    with pytest.raises(SizeCapExceededError) as caught:
        build_perp_poset([(P, P, P)], 2, cap=47)
    assert str(caught.value) == "perp poset has more order-pair lookups than the cap 47"


def test_perp_build_makes_one_label_table(monkeypatch):
    # one format_scalars(k) table per build, made once _perp_rows's checks
    # have passed: a refused search makes none
    calls = []

    def counting(k):
        calls.append(k)
        return format_scalars(k)

    monkeypatch.setattr(models, "format_scalars", counting)
    for k in (2, 4, 6):
        mp = build_perp_poset([(P, P, P)], k)
        assert mp.poset.labels == tuple(sorted(mp.poset.labels)), k
    assert calls == [2, 4, 6]
    for vs, k, cap in (([(P, P, P)], 2, 25), ([(P, P)], 3, 100), ([], 2, 100)):
        with pytest.raises(TphiError):
            build_perp_poset(vs, k, cap)
    assert calls == [2, 4, 6]


def _reference_chain(labels):
    labels = list(labels)
    return build_poset(labels, list(zip(labels, labels[1:])))


def _reference_power(n, k):
    """The power model built on scalars: every vector and label made from
    TPhi values, below-labels by zeroing one coordinate."""
    vectors = [
        v for v in itertools.product(scalars(k), repeat=n) if not all(e.is_zero for e in v)
    ]
    labels = [format_vector(v) for v in vectors]
    pairs = []
    for v, lab in zip(vectors, labels):
        if len(support(v)) < 2:
            continue
        for i in support(v):
            below = v[:i] + (ZERO,) + v[i + 1 :]
            pairs.append((format_vector(below), lab))
    poset = build_poset(labels, pairs)
    index = _reference_chain(str(s) for s in range(1, n + 1))
    assignment = {lab: str(len(support(v))) for v, lab in zip(vectors, labels)}
    return mirrored(poset, index, assignment)


def _reference_perp(vs, k):
    """The perp model ordered by comparing every pair of members.  Each
    member is keyed once, as its tuple of positions in scalars(k), where
    0 is zero, so the pairs compare ints."""
    members = perp_enumerate(vs, k)
    if not members:
        raise EmptyPerpError("no nonzero vector is orthogonal to the constraints")
    labels = [format_vector(m) for m in members]
    position = {e: i for i, e in enumerate(scalars(k))}
    keys = [tuple(map(position.__getitem__, m)) for m in members]
    pairs = []
    for x, lx in zip(keys, labels):
        for y, ly in zip(keys, labels):
            if x is not y and all(a == 0 or a == b for a, b in zip(x, y)):
                pairs.append((lx, ly))
    poset = build_poset(labels, pairs)
    occupied = sorted({len(support(m)) for m in members})
    index = _reference_chain(str(s) for s in occupied)
    assignment = {lab: str(len(support(m))) for m, lab in zip(members, labels)}
    return mirrored(poset, index, assignment)


def _label_pair_power(n, k):
    """The label-pair loop the power builder ran before it passed ids: each
    label with its stratum, and the strict pairs as label pairs."""
    table = format_scalars(k)
    strata = [str(s) for s in range(n + 1)]
    pairs = []
    assignment = {}
    for v in itertools.islice(itertools.product(range(k + 1), repeat=n), 1, None):
        parts = list(map(table.__getitem__, v))
        lab = ",".join(parts)
        rank = n - v.count(0)
        assignment[lab] = strata[rank]
        if rank < 2:
            continue
        for i, e in enumerate(v):
            if e:
                parts[i] = "0"
                pairs.append((",".join(parts), lab))
                parts[i] = table[e]
    return assignment, pairs


def _label_pair_perp(vs, k):
    """The label-pair loop the perp builder ran before it passed ids."""
    table = format_scalars(k)
    position = {e: i for i, e in enumerate(scalars(k))}
    rows = (tuple(map(position.__getitem__, m)) for m in perp_enumerate(vs, k))
    label_of = {r: ",".join(table[e] for e in r) for r in rows}
    pairs = []
    assignment = {}
    for r, lab in label_of.items():
        nonzero = [i for i, e in enumerate(r) if e]
        assignment[lab] = str(len(nonzero))
        for size in range(1, len(nonzero)):
            for zeroed in itertools.combinations(nonzero, size):
                below = list(r)
                for i in zeroed:
                    below[i] = 0
                lx = label_of.get(tuple(below))
                if lx is not None:
                    pairs.append((lx, lab))
    return assignment, pairs


def test_id_builders_match_label_pair_loops_byte_for_byte():
    models = []
    for n, k in [(1, 7), (2, 3), (3, 2), (3, 5), (4, 3)]:
        assignment, pairs = _label_pair_power(n, k)
        index = _reference_chain(str(s) for s in range(1, n + 1))
        models.append((build_tphi_power(n, k), assignment, pairs, index))
    for vs, k in [([(P, P, P, P)], 2), ([(P, P, P), (P, M, P)], 4)]:
        assignment, pairs = _label_pair_perp(vs, k)
        index = _reference_chain(sorted(set(assignment.values()), key=int))
        models.append((build_perp_poset(vs, k), assignment, pairs, index))
    for built, assignment, pairs, index in models:
        old = mirrored(build_poset(list(assignment), pairs), index, assignment)
        assert format_poset_file(built) == format_poset_file(old)
        assert order_complex(built.poset).labels == order_complex(old.poset).labels


def test_format_scalars_matches_format_value():
    for k in list(range(1, 241)) + [720, 840, 1680, 1849, 1936, 1999]:
        assert format_scalars(k) == [format_value(s) for s in scalars(k)], k
    # every k of the n = 1 row of criterion 03, squares such as 1849 = 43^2
    # among them, against j/k in lowest terms by gcd, which is what
    # format_value prints; building every scalar would take seconds
    for k in range(1, 2001):
        lowest = [f"{j // g}/{k // g}" for j in range(k) for g in (gcd(j, k),)]
        assert format_scalars(k) == ["0"] + lowest, k
    with pytest.raises(ValueError):
        format_scalars(0)


def test_power_matches_scalar_reference():
    cases = [(1, k) for k in range(1, 201)]
    cases += [
        (n, k)
        for n in range(2, 11)
        for k in range(1, 36)
        if (k + 1) ** n <= 1300
    ]
    assert (2, 35) in cases and (5, 3) in cases and (10, 1) in cases
    for n, k in cases:
        assert build_tphi_power(n, k) == _reference_power(n, k), (n, k)


def test_perp_matches_pairwise_reference():
    rng = random.Random(20211)
    checked = 0
    for n, k in [(3, 2), (4, 2), (4, 4), (5, 2), (4, 6)]:
        pool = scalars(k)
        for m in (1, 2):
            for _ in range(3):
                vs = [tuple(rng.choice(pool) for _ in range(n)) for _ in range(m)]
                try:
                    want = _reference_perp(vs, k)
                except EmptyPerpError:
                    with pytest.raises(EmptyPerpError):
                        build_perp_poset(vs, k)
                    continue
                assert build_perp_poset(vs, k) == want, (n, k, vs)
                checked += 1
    assert checked >= 25


def test_grassmannian_counts_frozen():
    assert len(enum_grassmannian(2, 1, 2)) == 4
    assert len(enum_grassmannian(3, 1, 2)) == 13
    # fixed at the first verified run of the exhaustive filter
    assert len(enum_grassmannian(3, 2, 2)) == 13


def test_grassmannian_rank1_count_formula():
    # every nonzero function passes at r=1, so counting scalar classes
    # is pure combinatorics
    for n, k in [(2, 2), (3, 2), (2, 4), (4, 2)]:
        c = n
        expected = ((k + 1) ** c - 1) // k
        assert len(enum_grassmannian(n, 1, k)) == expected, (n, k)


def _brute_grassmannian(n, r, k):
    tuples = list(itertools.combinations(range(1, n + 1), r))
    out = set()
    for values in itertools.product(scalars(k), repeat=len(tuples)):
        if all(v.is_zero for v in values):
            continue
        phi = GPFunction.from_values(n, r, dict(zip(tuples, values)))
        if gp_verify_all(phi).ok:
            out.add(gp_normalize(phi))
    return out


def test_grassmannian_equals_brute_force():
    for n, r, k in [(2, 1, 2), (3, 2, 2), (2, 2, 4)]:
        got = enum_grassmannian(n, r, k)
        assert len(set(got)) == len(got)
        assert set(got) == _brute_grassmannian(n, r, k), (n, r, k)


def _pinned_loop_grassmannian(n, r, k):
    """The exhaustive loop the backtracking search replaced: every
    candidate with its first nonzero value pinned to 1, kept when the
    term-by-term sweep passes, sorted by value vector."""
    tuples = list(itertools.combinations(range(1, n + 1), r))
    found = []
    for first in range(len(tuples)):
        for tail in itertools.product(scalars(k), repeat=len(tuples) - first - 1):
            values = {tuples[first]: ONE, **dict(zip(tuples[first + 1 :], tail))}
            phi = GPFunction.from_values(n, r, values)
            if sweep_report(phi)[0]:
                found.append(phi)
    found.sort(key=lambda phi: [phase_key(phi.values.get(t, ZERO)) for t in tuples])
    return found


def test_grassmannian_equals_pinned_loop():
    cases = [(3, 2, 2), (4, 2, 2), (4, 2, 3), (5, 2, 1), (5, 3, 1), (2, 2, 4), (3, 1, 4)]
    for n, r, k in cases:
        assert enum_grassmannian(n, r, k) == _pinned_loop_grassmannian(n, r, k), (n, r, k)


def reference_relation_holds(terms, value, h):
    """One relation of _gp_relations_by_last_tuple on residues mod 2h,
    decided afresh: the helper the search used before its zero_test."""
    return zero_in_residue_sum(
        [
            value[a] + value[b] + h * p
            for a, b, p in terms
            if value[a] is not None and value[b] is not None
        ],
        h,
    )


def reference_enum_grassmannian(n, r, k, cap=DEFAULT_SIMPLEX_CAP):
    """The search as it was before each distinct sum was decided once and
    before the functions found were made unchecked: every relation is
    decided afresh and every function goes through GPFunction."""
    if not 1 <= r <= n:
        raise BadArityError(f"rank {r} not in 1..{n}")
    if k < 1:
        raise ValueError("k must be positive")
    if _min_search_steps(n, r, k, cap) > cap:
        raise SizeCapExceededError(f"the search needs at least {cap + 1} steps, cap is {cap}")
    tuples = list(itertools.combinations(range(1, n + 1), r))
    count = len(tuples)
    closing = _gp_relations_by_last_tuple(n, r)
    chosen = [0] * count
    value = [None] * count
    scalar = functools.cache(lambda e: unit(e - 1, k))
    options = [iter((0, 1))] + [None] * (count - 1)
    started = [False] * count
    found = []
    steps = 0
    p = 0
    while p >= 0:
        e = next(options[p], None)
        if e is None:
            p -= 1
            continue
        chosen[p] = e
        value[p] = 2 * e - 2 if e else None
        steps += 1
        holds = True
        for terms in closing[p] if started[p] else ():
            steps += 1
            if not reference_relation_holds(terms, value, k):
                holds = False
                break
        if steps > cap:
            raise SizeCapExceededError(f"search steps exceed cap {cap}")
        if holds:
            if p + 1 < count:
                p += 1
                started[p] = started[p - 1] or e > 0
                options[p] = iter(range(k + 1) if started[p] else (0, 1))
            elif started[p] or e > 0:
                entries = tuple((t, scalar(c)) for t, c in zip(tuples, chosen) if c)
                found.append(GPFunction(n, r, entries))
    return found


def test_grassmannian_matches_the_former_search():
    # back to back in one process, so no search can lean on another's sums
    cases = [(4, 2, 2), (4, 2, 3), (4, 2, 4), (5, 2, 1), (5, 3, 1), (2, 2, 4), (3, 1, 4), (4, 2, 8)]
    counts = []
    for n, r, k in cases:
        got, want = enum_grassmannian(n, r, k), reference_enum_grassmannian(n, r, k)
        assert got == want, (n, r, k)
        # the unchecked functions equal checked ones field by field
        assert [(g.entries, g._map) for g in got] == [(w.entries, w._map) for w in want]
        counts.append(len(got))
    assert counts == [146, 375, 1190, 131, 131, 1, 31, 17702]


def test_search_steps_and_refusals_match_the_former_search():
    # a relation whose sum is decided from the memo still counts a step
    for n, r, k in [(3, 2, 2), (4, 2, 2), (5, 2, 1), (5, 3, 1), (3, 1, 4), (4, 1, 3), (4, 3, 2)]:
        steps = _search_steps(n, r, k)
        assert steps == _search_steps(n, r, k, reference_enum_grassmannian), (n, r, k)
        for cap in (steps - 1, _min_search_steps(n, r, k) - 1):
            with pytest.raises(SizeCapExceededError) as got:
                enum_grassmannian(n, r, k, cap=cap)
            with pytest.raises(SizeCapExceededError) as want:
                reference_enum_grassmannian(n, r, k, cap=cap)
            assert str(got.value) == str(want.value), (n, r, k, cap)


def test_each_sweep_makes_its_own_zero_test_and_drops_it(monkeypatch):
    made = []

    def recording(h):
        zero_in = hyperfield.zero_test(h)
        made.append(weakref.ref(zero_in))
        return zero_in

    monkeypatch.setattr(models, "zero_test", recording)
    monkeypatch.setattr(phased, "zero_test", recording)
    vs = [(ONE, unit(1, 2), ZERO)]
    for _ in range(2):
        phi = enum_grassmannian(4, 2, 2)[-1]
        assert gp_verify_all(phi).ok
        assert perp_enumerate(vs, 4)
        assert build_perp_poset(vs, 2)
    assert len(made) == 8 and all(ref() is None for ref in made)


def test_grassmannian_pinned_counts_and_step_cap():
    # counts pinned from the output of the exhaustive loop
    assert len(enum_grassmannian(4, 2, 4)) == 1190
    assert len(enum_grassmannian(4, 2, 6)) == 5442
    assert len(enum_grassmannian(5, 2, 2)) == 1802
    # refused before the relation table is built
    for n, r in ((40, 20), (13, 6), (70, 2)):
        with pytest.raises(SizeCapExceededError, match="at least"):
            enum_grassmannian(n, r, 1)
    for n, r in ((2, 2), (3, 1)):
        with pytest.raises(ValueError, match="k must be positive"):
            enum_grassmannian(n, r, 0)


def _search_steps(n, r, k, search=enum_grassmannian):
    """The least cap under which search(n, r, k) finishes."""
    lo, hi = 0, 1 << 20
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            search(n, r, k, cap=mid)
            hi = mid
        except SizeCapExceededError:
            lo = mid + 1
    return lo


def test_min_search_steps_is_a_lower_bound():
    # The closed form equals the bound with the relations packed as early
    # as their tuples allow (c_0 = 0, c_q at most the relations that hold
    # a tuple); that lies under the bound from the relations that really
    # close at each tuple, which lies under the steps taken.
    for n, r, k in [(3, 2, 2), (4, 2, 2), (5, 2, 1), (5, 3, 1), (3, 1, 4), (4, 1, 3)]:
        rows = _gp_relations_by_last_tuple(n, r)
        count = len(rows)
        closing = [len(row) for row in rows]
        holding = [0] * count
        for terms in itertools.chain.from_iterable(rows):
            for t in {t for a, b, _ in terms for t in (a, b)}:
                holding[t] += 1
        degree, relations = max(holding), sum(closing)
        packed = [0] + [
            max(0, min(degree, relations - degree * (q - 1))) for q in range(1, count)
        ]
        assert min(holding) == degree and sum(packed) == relations
        bound = (k + 1) * sum(q * (1 + c) for q, c in enumerate(packed))
        exact = (k + 1) * sum(q * (1 + c) for q, c in enumerate(closing))
        steps = _search_steps(n, r, k)
        assert 0 < _min_search_steps(n, r, k) == bound <= exact <= steps, (n, r, k)
        with pytest.raises(SizeCapExceededError, match="^search steps"):
            enum_grassmannian(n, r, k, cap=steps - 1)
    assert _min_search_steps(4, 4, 2) == 0


def test_grassmannian_output_is_normalized_and_verified():
    for phi in enum_grassmannian(3, 2, 2):
        assert gp_verify_all(phi).ok
        assert gp_normalize(phi) == phi
    assert enum_grassmannian(3, 2, 2) == enum_grassmannian(3, 2, 2)


def test_grassmannian_errors():
    with pytest.raises(BadArityError):
        enum_grassmannian(3, 4, 2)
    with pytest.raises(SizeCapExceededError):
        enum_grassmannian(5, 2, 2, cap=1000)


def test_power_needs_positive_sizes():
    for n, k in ((0, 2), (2, 0), (-1, 1)):
        with pytest.raises(ValueError, match="^n and k must be positive$"):
            build_tphi_power(n, k)


def test_caveat_text():
    assert "finite snapshot" in DISCRETIZATION_CAVEAT
    assert "circle" in DISCRETIZATION_CAVEAT
