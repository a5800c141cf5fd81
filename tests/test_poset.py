"""Poset construction, upsets, mirrors, and the discrete geometry checks."""

import itertools
import random
import sys
import tracemalloc
from collections import defaultdict

import pytest

from test_models import _label_pair_perp, _label_pair_power
from tphi.errors import CycleDetectedError, UnknownElementError
from tphi.homology import homology_groups
from tphi.hyperfield import ONE, unit
from tphi.models import build_perp_poset, build_tphi_power
from tphi.poset import (
    FinitePoset,
    GeometricReport,
    MirroredPoset,
    MirrorReport,
    _chains_by_minimum,
    build_poset,
    chain_count,
    discrete_type_classes,
    format_poset_file,
    geometric_discrete_check,
    mirror_check,
    mirrored,
    parse_poset_file,
)
from tphi.simplicial import order_complex


def _diamond():
    return build_poset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def test_build_and_closure():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.less("a", "c")  # transitive closure
    assert not p.less("c", "a")
    assert not p.less("a", "a")  # strict
    assert p.strict_pairs() == [("a", "b"), ("a", "c"), ("b", "c")]
    assert p.covers() == [("a", "b"), ("b", "c")]
    assert p.minimal_elements() == ["a"]
    assert p.maximal_elements() == ["c"]
    assert len(p) == 3


def test_build_validation():
    with pytest.raises(CycleDetectedError):
        build_poset("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(CycleDetectedError):
        build_poset("a", [("a", "a")])
    with pytest.raises(CycleDetectedError):
        build_poset("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(UnknownElementError):
        build_poset("ab", [("a", "x")])
    with pytest.raises(ValueError):
        build_poset(["a", "a"], [])


def test_upset():
    p = _diamond()
    assert p.upset(["a"]) == {"a", "b", "c", "d"}
    assert p.upset(["b"]) == {"b", "d"}
    assert p.upset(["d"]) == {"d"}
    assert p.upset(["b", "c"]) == {"b", "c", "d"}
    assert p.upset([]) == frozenset()
    with pytest.raises(UnknownElementError):
        p.upset(["z"])


def test_upset_laws_on_small_battery():
    battery = [
        _diamond(),
        build_poset("abc", []),
        build_poset("abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
        build_poset("abcd", [("a", "b"), ("c", "b"), ("c", "d")]),
    ]
    for p in battery:
        labels = p.labels
        for size in range(len(labels) + 1):
            for seed in itertools.combinations(labels, size):
                up = p.upset(seed)
                assert set(seed) <= up  # extensive
                assert p.upset(up) == up  # idempotent
        for a, b in itertools.combinations(labels, 2):
            union = p.upset([a]) | p.upset([b])
            assert p.upset([a, b]) == union  # unions of generators


def test_covers_vs_relation():
    p = build_poset("abcde", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("b", "e")])
    assert ("a", "c") not in p.covers()
    assert ("a", "b") in p.covers()
    assert set(p.covers()) <= set(p.strict_pairs())


def test_opposite():
    p = _diamond()
    q = p.opposite()
    assert q.less("d", "a")
    assert q.upset(["d"]) == {"a", "b", "c", "d"}
    assert q.opposite() == p


def test_induced():
    p = _diamond()
    sub = p.induced(["a", "b", "d"])
    assert sub.strict_pairs() == [("a", "b"), ("a", "d"), ("b", "d")]
    assert p.induced(p.labels) == p


def test_chain_count_hand_values():
    chain = build_poset("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert chain_count(chain) == 2**4 - 1  # subsets of a 4-chain
    antichain = build_poset("abc", [])
    assert chain_count(antichain) == 3
    # diamond: 4 singletons, 5 comparable pairs, 2 triples
    assert chain_count(_diamond()) == 11


def test_discrete_type_classes():
    p = build_poset("abcxy", [("a", "b"), ("b", "c"), ("x", "y")])
    assert discrete_type_classes(p) == (
        frozenset({"a", "b", "c"}),
        frozenset({"x", "y"}),
    )
    lone = build_poset("a", [])
    assert discrete_type_classes(lone) == (frozenset({"a"}),)


def _graded_diamond():
    p = _diamond()
    idx = build_poset(["1", "2", "3"], [("1", "2"), ("2", "3")])
    return mirrored(p, idx, {"a": "1", "b": "2", "c": "2", "d": "3"})


def test_mirror_check_passes():
    assert mirror_check(_graded_diamond()) == MirrorReport(True)


def test_mirror_check_monotonicity_violation():
    p = _diamond()
    idx = build_poset(["1", "2"], [("1", "2")])
    mp = mirrored(p, idx, {"a": "1", "b": "1", "c": "2", "d": "2"})
    report = mirror_check(mp)
    assert not report.ok
    assert report.violation == "map not strictly monotone on a < b"


def test_mirror_check_empty_fiber():
    p = build_poset("ab", [("a", "b")])
    idx = build_poset(["1", "2", "3"], [("1", "2"), ("2", "3")])
    mp = mirrored(p, idx, {"a": "1", "b": "2"})
    report = mirror_check(mp)
    assert not report.ok
    assert report.violation == "empty stratum 3"


def test_mirrored_construction_validation():
    p = build_poset("ab", [("a", "b")])
    idx = build_poset(["1", "2"], [("1", "2")])
    with pytest.raises(UnknownElementError):
        mirrored(p, idx, {"a": "1"})  # b unassigned
    with pytest.raises(UnknownElementError):
        mirrored(p, idx, {"a": "1", "b": "7"})
    assert mirrored(p, idx, {"a": "1", "b": "2"}).fibers() == {
        "1": ("a",),
        "2": ("b",),
    }


def test_geometric_check_passes_on_graded_diamond():
    report = geometric_discrete_check(_graded_diamond())
    assert report.ok
    assert report.a1_violations == ()
    assert len(report.notes) == 3


def test_geometric_check_reports_stranded_element():
    p = build_poset("abc", [("a", "b")])
    idx = build_poset(["1", "2"], [("1", "2")])
    mp = mirrored(p, idx, {"a": "1", "c": "1", "b": "2"})
    report = geometric_discrete_check(mp)
    assert not report.ok
    assert report.a1_violations == ("nothing above c in stratum 2",)


def test_poset_file_round_trip():
    p = _diamond()
    text = format_poset_file(p)
    assert text.splitlines()[0] == "elem a"
    assert "rel a < b" in text.splitlines()
    assert parse_poset_file(text) == p


def test_mirrored_file_round_trip():
    mp = _graded_diamond()
    text = format_poset_file(mp)
    parsed = parse_poset_file(text)
    assert isinstance(parsed, MirroredPoset)
    assert parsed.poset == mp.poset
    assert parsed.index_poset == mp.index_poset
    assert parsed.mirror == mp.mirror


def test_poset_file_errors_and_comments():
    text = "# chain\nelem a\nelem b\nrel a < b\n"
    assert parse_poset_file(text) == build_poset("ab", [("a", "b")])
    with pytest.raises(ValueError):
        parse_poset_file("elem a\nrel a\n")
    with pytest.raises(ValueError):
        parse_poset_file("elem a\nmirror a -> 1\n")  # mirror without index block
    with pytest.raises(UnknownElementError):
        parse_poset_file("elem a\nrel a < b\n")
    with pytest.raises(ValueError):
        format_poset_file(build_poset(["a b"], []))


def reference_closure(elements, pairs):
    """The set-based closure the id core replaced: labels, above and below
    as tuples of sorted tuples of label positions."""
    labels = tuple(sorted(elements))
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate element labels")
    pos = {lab: i for i, lab in enumerate(labels)}
    direct = [set() for _ in labels]
    indegree = [0] * len(labels)
    for a, b in pairs:
        if a not in pos:
            raise UnknownElementError(f"unknown element {a!r}")
        if b not in pos:
            raise UnknownElementError(f"unknown element {b!r}")
        if a == b:
            raise CycleDetectedError(f"{a!r} < {a!r}")
        ia, ib = pos[a], pos[b]
        if ib not in direct[ia]:
            direct[ia].add(ib)
            indegree[ib] += 1
    queue = [i for i in range(len(labels)) if indegree[i] == 0]
    topo = []
    while queue:
        nxt = queue.pop()
        topo.append(nxt)
        for j in direct[nxt]:
            indegree[j] -= 1
            if indegree[j] == 0:
                queue.append(j)
    if len(topo) != len(labels):
        raise CycleDetectedError("cycle")
    above = [set() for _ in labels]
    for i in reversed(topo):
        for j in direct[i]:
            above[i].add(j)
            above[i] |= above[j]
    below = [set() for _ in labels]
    for i, ups in enumerate(above):
        for j in ups:
            below[j].add(i)
    return labels, tuple(tuple(sorted(s)) for s in above), tuple(tuple(sorted(s)) for s in below)


def reference_chain_counts(above):
    counts = [0] * len(above)
    for i in sorted(range(len(above)), key=lambda i: len(above[i])):
        counts[i] = 1 + sum(counts[j] for j in above[i])
    return tuple(counts)


def assert_matches_reference(p, elements, pairs):
    labels, above, below = reference_closure(elements, pairs)
    assert p.labels == labels
    assert p.above == above
    assert p.below == below
    for ids in p.above + p.below:
        assert all(a < b for a, b in zip(ids, ids[1:]))
    ups = [
        frozenset(j for j in above[i] if set(above[i]).isdisjoint(below[j]))
        for i in range(len(labels))
    ]
    assert [frozenset(c) for c in p.up_covers] == ups
    assert all(len(set(c)) == len(c) for c in p.up_covers)
    assert p.covers() == sorted((labels[i], labels[j]) for i in range(len(labels)) for j in ups[i])
    assert _chains_by_minimum(p) == reference_chain_counts(above)
    assert chain_count(p) == sum(reference_chain_counts(above))


def random_pair_posets(count, seed):
    """Seeded random posets with shuffled labels; every pair list repeats
    some pairs and adds some implied by transitivity."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(0, 12)
        labels = [f"v{rng.randrange(10**6):06d}" for _ in range(n)]
        labels = list(dict.fromkeys(labels))
        rng.shuffle(labels)
        density = rng.choice((0.1, 0.25, 0.5))
        pairs = [
            (labels[i], labels[j])
            for i in range(len(labels))
            for j in range(i + 1, len(labels))
            if rng.random() < density
        ]
        pairs += rng.sample(pairs, len(pairs) // 3)
        given = set(pairs)
        implied = [ab for ab in FinitePoset(labels, pairs).strict_pairs() if ab not in given]
        pairs += rng.sample(implied, len(implied) // 2)
        rng.shuffle(pairs)
        out.append((labels, pairs))
    return out


def test_id_core_matches_reference_closure():
    battery = [
        ("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
        ("abc", []),
        ("", []),
        ("abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
        ("abcd", [("a", "b"), ("c", "b"), ("c", "d")]),
        ("abcde", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("b", "e")]),
    ]
    checked = 0
    for elements, pairs in battery + random_pair_posets(200, 20260901):
        p = build_poset(elements, pairs)
        assert_matches_reference(p, elements, pairs)
        q = p.opposite()
        assert_matches_reference(q, p.labels, [(b, a) for a, b in p.strict_pairs()])
        assert q.opposite() == p
        rng = random.Random(checked)
        keep = [lab for lab in p.labels if rng.random() < 0.6]
        sub = p.induced(keep)
        kept = set(keep)
        sub_pairs = [(a, b) for a, b in p.strict_pairs() if a in kept and b in kept]
        assert_matches_reference(sub, keep, sub_pairs)
        checked += 1
    assert checked == 206


def test_id_core_raises_like_reference_closure():
    cases = [
        ("ab", [("a", "b"), ("b", "a")]),
        ("a", [("a", "a")]),
        ("abc", [("a", "b"), ("b", "c"), ("c", "a")]),
        ("abcd", [("a", "b"), ("c", "d"), ("d", "c")]),
        ("ab", [("a", "x")]),
        ("ab", [("x", "a")]),
        (["a", "a"], []),
        (["b", "a", "b"], [("a", "b")]),
    ]
    for elements, pairs in cases:
        with pytest.raises(Exception) as want:
            reference_closure(elements, pairs)
        with pytest.raises(want.type):
            build_poset(elements, pairs)
    with pytest.raises(CycleDetectedError, match=r"cycle through \['c', 'd'\]"):
        build_poset("abcd", [("a", "b"), ("c", "d"), ("d", "c")])


POWER_SPECS = [(1, 1), (1, 7), (2, 3), (3, 2), (3, 4), (4, 2), (5, 1)]
PERP_SPECS = [
    ([(ONE, ONE, ONE)], 2),
    ([(ONE, ONE, ONE, ONE)], 2),
    ([(ONE, ONE, ONE), (ONE, unit(1, 2), ONE)], 4),
]


def test_model_posets_match_reference_closure():
    for n, k in POWER_SPECS:
        built = build_tphi_power(n, k)
        assignment, pairs = _label_pair_power(n, k)
        elements = list(assignment)
        assert built.poset == build_poset(elements, pairs)
        assert_matches_reference(built.poset, elements, pairs)
    for vs, k in PERP_SPECS:
        built = build_perp_poset(vs, k)
        assignment, pairs = _label_pair_perp(vs, k)
        elements = list(assignment)
        assert built.poset == build_poset(elements, pairs)
        assert_matches_reference(built.poset, elements, pairs)


def former_on_ids(labels, direct):
    """FinitePoset._on_ids before _of_ids replaced it."""
    p = FinitePoset.__new__(FinitePoset)
    p._close(labels, direct)
    return p


def former_from_ids(labels, pairs):
    """poset._from_ids before _of_ids replaced it."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    new = dict(zip(order, range(len(order))))
    direct = defaultdict(list)
    for a, b in pairs:
        direct[new[a]].append(new[b])
    return former_on_ids(tuple(map(labels.__getitem__, order)), direct)


def former_opposite(p):
    """FinitePoset.opposite before it went through _of_ids."""
    downs = defaultdict(list)
    for i, ups in enumerate(p.up_covers):
        for j in ups:
            downs[j].append(i)
    return former_on_ids(p.labels, downs)


def former_induced(p, subset):
    """FinitePoset.induced before it went through _of_ids."""
    ids = sorted({p.index_of(lab) for lab in subset})
    new = {i: r for r, i in enumerate(ids)}
    labels = tuple(p.labels[i] for i in ids)
    direct = {}
    for r, i in enumerate(ids):
        ds = [new[j] for j in p.above[i] if j in new]
        if ds:
            direct[r] = ds
    return former_on_ids(labels, direct)


def assert_same_internals(p, q):
    """The same ids, covers, and every above and below tuple: what core,
    the Hasse order and the matching read."""
    assert p.labels == q.labels
    assert list(p._pos.items()) == list(q._pos.items())
    assert p.up_covers == q.up_covers
    assert [list(s) for s in p.above] == [list(s) for s in q.above]
    assert [list(s) for s in p.below] == [list(s) for s in q.below]


def test_construction_routes_keep_the_former_internals(monkeypatch):
    # the builders' calls to _of_ids, recorded and replayed through the
    # former _from_ids
    calls = []
    of_ids = FinitePoset._of_ids

    def recorded(cls, labels, pairs):
        pairs = list(pairs)
        calls.append((labels, pairs))
        return of_ids(labels, pairs)

    monkeypatch.setattr(FinitePoset, "_of_ids", classmethod(recorded))
    built = [build_tphi_power(n, k) for n, k in POWER_SPECS]
    built += [build_perp_poset(vs, k) for vs, k in PERP_SPECS]
    monkeypatch.undo()
    assert len(calls) == len(built)
    posets = []
    for mp, (labels, pairs) in zip(built, calls):
        # _of_ids takes the builders' ids as they are: labels strictly sorted
        assert all(a < b for a, b in zip(labels, labels[1:]))
        assert_same_internals(mp.poset, former_from_ids(labels, pairs))
        posets.append(mp.poset)
    # seeded random posets, each pair once by id: the former path renumbers
    # the shuffled labels, _of_ids is handed them sorted with the pairs
    # remapped to match
    for labels, label_pairs in random_pair_posets(150, 20261020):
        ids = {lab: i for i, lab in enumerate(labels)}
        pairs = list(dict.fromkeys((ids[a], ids[b]) for a, b in label_pairs))
        ordered = sorted(labels)
        new = {ids[lab]: r for r, lab in enumerate(ordered)}
        p = FinitePoset._of_ids(ordered, [(new[a], new[b]) for a, b in pairs])
        assert_same_internals(p, former_from_ids(labels, pairs))
        posets.append(p)
    rng = random.Random(20261020)
    for p in posets:
        q = p.opposite()
        assert_same_internals(q, former_opposite(p))
        assert_same_internals(q.opposite(), former_opposite(former_opposite(p)))
        for share in (0.0, 0.3, 0.7, 1.0):
            keep = [lab for lab in p.labels if rng.random() < share]
            rng.shuffle(keep)
            assert_same_internals(p.induced(keep), former_induced(p, keep))
            assert_same_internals(q.induced(keep), former_induced(q, keep))


def test_label_dicts_wait_for_their_first_use():
    # the model pipeline reads ids only: build, order complex and homology
    # leave both label-to-id dicts unbuilt, and the first look-up builds each
    mp = build_tphi_power(1, 2000)
    c = order_complex(mp.poset)
    assert homology_groups(c).betti(0) == 2000
    p = mp.poset
    assert (p._ids, c._ids) == (None, None)
    assert p.index_of("7/2000") == p.labels.index("7/2000")
    assert p._ids == {lab: i for i, lab in enumerate(p.labels)}
    assert c.has_face(["7/2000"]) and not c.has_face(["7/2000", "0/1"])
    assert c._ids == {lab: i for i, lab in enumerate(c.labels)}


def test_closure_store_costs_eight_bytes_a_side_per_pair():
    # sorted tuples: 8 bytes per id, about 40 per tuple header; frozensets
    # took about 60 bytes a side per pair, 1.7 MB here against 0.3 MB
    p = build_tphi_power(4, 5).poset
    pairs = sum(map(len, p.above))
    assert (len(p), pairs) == (1295, 12050)
    assert all(type(ids) is tuple for ids in p.above + p.below)
    assert sum(map(sys.getsizeof, p.above + p.below)) <= 16 * pairs + 96 * len(p)


def test_power_build_peaks_near_what_it_keeps():
    # the builder streams its id pairs and the closure pass frees each
    # direct-successor list once used; with the pair list and every such
    # list alive through the pass, the peak was 1.9 times what is kept
    tracemalloc.start()
    try:
        mp = build_tphi_power(5, 5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mp.poset) == 7775
    assert peak <= 1.5 * held


def test_chain_counts_are_cached():
    p = _diamond()
    counts = _chains_by_minimum(p)
    assert counts == (6, 2, 2, 1)  # a: {a}, ab, ac, ad, abd, acd
    assert _chains_by_minimum(p) is counts
    order_complex(p)
    assert _chains_by_minimum(p) is counts


def test_mirrored_validation_keeps_its_errors():
    p = build_poset("abc", [("a", "b")])
    idx = build_poset(["1", "2"], [("1", "2")])
    with pytest.raises(UnknownElementError):
        MirroredPoset(p, idx, (("a", "1"), ("z", "1"), ("b", "2"), ("c", "1")))
    with pytest.raises(UnknownElementError):
        MirroredPoset(p, idx, (("a", "1"), ("b", "9"), ("c", "1")))
    with pytest.raises(ValueError, match="assigned twice"):
        MirroredPoset(p, idx, (("a", "1"), ("b", "2"), ("a", "2"), ("c", "1")))
    with pytest.raises(UnknownElementError, match=r"no stratum for \['c'\]"):
        MirroredPoset(p, idx, (("b", "2"), ("a", "1")))
    mp = MirroredPoset(p, idx, (("c", "1"), ("b", "2"), ("a", "1")))
    assert mp.assignments == (("a", "1"), ("b", "2"), ("c", "1"))
