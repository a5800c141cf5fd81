"""Order complexes, joins, collapsing, subdivision.

Frozen values were computed by hand: chain posets give full simplices,
the diamond gives two triangles glued along an edge, joins of point pairs
give circles, and the octahedron shows up as a triple join.
"""

import gc
import itertools
import operator
import random
from collections import defaultdict

import pytest

import tphi.simplicial
from test_acceptance import _model_battery
from test_homology import oracle_posets, projective_plane, relabeled_poset, unchecked_complex
from test_mccord import cell_test_complexes, dunce_hat, icosahedron_disk, random_posets
from test_poset import reference_chain_counts
from tphi.errors import SizeCapExceededError
from tphi.homology import homology_groups
from tphi.mccord import cw_type_report
from tphi.models import build_tphi_power
from tphi.poset import (
    FinitePoset,
    _chains_by_top,
    build_poset,
    chain_count,
    core,
    format_poset_file,
    mirrored,
    parse_poset_file,
)
from tphi.simplicial import (
    DEFAULT_SIMPLEX_CAP,
    CollapseResult,
    SimplicialComplex,
    barycentric_subdivision,
    collapse_certify,
    complex_to_lines,
    cone_apexes,
    euler_characteristic,
    face_poset,
    join,
    order_complex,
    parse_complex_lines,
)


def two_points(x, y):
    return SimplicialComplex.from_simplices([[x], [y]])


def cycle_complex(n):
    verts = [f"c{i}" for i in range(n)]
    return SimplicialComplex.from_simplices(
        [[verts[i], verts[(i + 1) % n]] for i in range(n)]
    )


def vertex_probe_maximal_faces(c):
    """The former `maximal_faces`: probe every face with every vertex it
    lacks, O(faces x vertices x dim)."""
    out = []
    for f in c.faces:
        if not any(
            tuple(sorted(f + (v,))) in c.faces
            for v in range(len(c.labels))
            if v not in f
        ):
            out.append(f)
    return sorted(out)


def test_maximal_faces_equals_vertex_probe():
    spaces = []
    for _, p in _model_battery():
        spaces += [order_complex(p), order_complex(p.opposite())]
    tri = SimplicialComplex.from_simplices([["a", "b", "c"]])
    spaces += [projective_plane(), dunce_hat(), cycle_complex(3), cycle_complex(8)]
    spaces += [join(cycle_complex(5), two_points("u", "v")), barycentric_subdivision(tri)]
    # A face set that is not closed downward, taken as given.  Both
    # versions look only at codimension-1 cofaces: (0,) lies in (0, 1, 2)
    # but in no edge, so it stays maximal; (1, 2) is the one facet of
    # (0, 1, 2) present.
    unclosed = [(0,), (3,), (1, 2), (0, 1, 2), (2, 3)]
    spaces.append(unchecked_complex(tuple("abcd"), unclosed))
    for c in spaces:
        assert c.maximal_faces() == vertex_probe_maximal_faces(c)
    assert spaces[-1].maximal_faces() == [(0,), (0, 1, 2), (2, 3)]


def test_closure_of_triangle_generator():
    c = SimplicialComplex.from_simplices([["a", "b", "c"]])
    assert c.labels == ("a", "b", "c")
    assert c.dim == 2
    assert c.f_vector() == (3, 3, 1)
    assert len(c.faces) == 7
    assert c.has_face(["a", "c"])
    assert not c.has_face(["a", "d"])
    assert c.maximal_faces() == [(0, 1, 2)]
    assert euler_characteristic(c) == 1


def test_closure_idempotent_and_order_free():
    gens = [["b", "a"], ["c", "b"], ["a", "b", "c"]]
    assert SimplicialComplex.from_simplices(gens) == SimplicialComplex.from_simplices(
        reversed(gens)
    )


def test_order_complex_of_chain_is_full_simplex():
    p = build_poset(["1", "2", "3"], [("1", "2"), ("2", "3")])
    c = order_complex(p)
    assert c.f_vector() == (3, 3, 1)
    assert c.faces == SimplicialComplex.from_simplices([["1", "2", "3"]]).faces


def test_order_complex_of_antichain_is_points():
    p = build_poset(["x", "y", "z"], [])
    c = order_complex(p)
    assert c.f_vector() == (3,)
    assert c.dim == 0


def test_order_complex_of_diamond():
    # bottom < m1, m2 < top: chains are 4 + 5 + 2, two triangles sharing
    # the bottom-top edge
    p = build_poset(
        ["b", "m1", "m2", "t"],
        [("b", "m1"), ("b", "m2"), ("m1", "t"), ("m2", "t")],
    )
    c = order_complex(p)
    assert c.f_vector() == (4, 5, 2)
    assert len(c.faces) == chain_count(p) == 11
    assert euler_characteristic(c) == 1
    assert c.has_face(["b", "m1", "t"])
    assert not c.has_face(["m1", "m2"])


def test_generator_closure_is_capped_before_building():
    # 2^22 - 1 faces are under the cap, 2^23 - 1 are over it
    labels = [f"v{i:02d}" for i in range(23)]
    with pytest.raises(SizeCapExceededError, match="cap"):
        SimplicialComplex.from_simplices([labels])
    with pytest.raises(SizeCapExceededError):
        SimplicialComplex(labels, [tuple(range(23))])
    assert 2**22 - 1 <= DEFAULT_SIMPLEX_CAP < 2**23 - 1


def test_closure_stops_at_the_cap(monkeypatch):
    # each 10-label line closes to 1,023 faces, far under the cap, but
    # together they pass it; the closure is counted as it grows
    monkeypatch.setattr(tphi.simplicial, "DEFAULT_SIMPLEX_CAP", 5_000)
    rng = random.Random(5)
    labels = [f"v{i:02d}" for i in range(40)]
    lines = [rng.sample(labels, 10) for _ in range(12)]
    with pytest.raises(SizeCapExceededError, match="closure"):
        SimplicialComplex.from_simplices(lines)
    assert len(SimplicialComplex.from_simplices(lines[:4])) <= 5_000


def test_faces_are_checked_when_built():
    # repeated vertices: test_boundary_rows_keep_failure_modes
    with pytest.raises(ValueError, match="unknown"):
        SimplicialComplex(["a", "b"], [(0, 2)])
    with pytest.raises(ValueError, match="unknown"):
        SimplicialComplex(["a", "b"], [(-1, 0)])
    with pytest.raises(ValueError, match="non-empty"):
        SimplicialComplex(["a"], [(0,), ()])
    with pytest.raises(ValueError, match="duplicate"):
        SimplicialComplex(["a", "a"], [(0,)])
    closed = SimplicialComplex(["a", "b"], [(0,), (1,), (0, 1)])
    assert closed == SimplicialComplex.from_simplices([["a", "b"]])


def test_order_complex_leaves_no_garbage():
    p = build_tphi_power(4, 2).poset
    gc.collect()
    gc.disable()
    try:
        c = order_complex(p)
        assert len(c) == chain_count(p)
        del c
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_order_complex_numbers_vertices_from_the_poset():
    # maximal elements first, the one with the most below leading; the
    # numbering takes no part in equality
    p = build_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "d")])
    c = order_complex(p)
    assert c.labels == ("c", "d", "b", "a")
    assert c == SimplicialComplex.from_simplices([["a", "b", "c"], ["a", "d"]])
    assert SimplicialComplex.from_simplices([["b", "a"]]).labels == ("a", "b")
    antichain = order_complex(build_poset(["z", "y", "x"], []))
    assert antichain.labels == ("x", "y", "z")
    # numbered b, c, a: same labels and face count, another edge
    edge = order_complex(build_poset(["a", "b", "c"], [("a", "b")]))
    assert edge.labels == ("b", "c", "a")
    assert edge != SimplicialComplex.from_simplices([["a"], ["b", "c"]])
    # and numbered alike
    assert SimplicialComplex.from_simplices([["a", "b"], ["c"]]) != SimplicialComplex.from_simplices(
        [["a"], ["b", "c"]]
    )


def test_order_complex_numbering_survives_the_file_format():
    # order_complex numbers vertices in matching order, the file parser in
    # label order; both give increasing faces and compare equal
    posets = [p for _, p in _model_battery()]
    posets += [p.opposite() for p in posets] + random_posets(20, 20261018)
    for p in posets:
        c = order_complex(p)
        assert all(list(f) == sorted(set(f)) for f in c.faces)
        back = parse_complex_lines(complex_to_lines(c))
        assert back.labels == tuple(sorted(c.labels))
        assert c == back and back == c
        assert hash(c) == hash(back)
        assert all(list(c.face_labels(f)) == sorted(c.face_labels(f)) for f in c.faces)


def reference_from_simplices(simplices):
    """The former `from_simplices`: each face's labels sorted, the mapped
    indices sorted again, and the constructor sorting a third time."""
    gens = [tuple(sorted(set(s))) for s in simplices]
    labels = sorted({lab for g in gens for lab in g})
    pos = {lab: i for i, lab in enumerate(labels)}
    return SimplicialComplex(labels, [tuple(sorted(pos[lab] for lab in g)) for g in gens])


def test_from_simplices_matches_the_label_sorting_reference():
    # every face, or the maximal faces alone, shuffled and with a repeated
    # label, on the battery, its opposites and 20 seeded random posets
    rng = random.Random(20261020)
    posets = [p for _, p in _model_battery()]
    posets += [p.opposite() for p in posets] + random_posets(20, 20261020)
    for p in posets:
        c = order_complex(p)
        every = [line.split() for line in complex_to_lines(c)]
        maximal = [list(c.face_labels(f)) for f in c.maximal_faces()]
        for gens in (every, maximal):
            gens = [g + g[:1] for g in gens]
            rng.shuffle(gens)
            built, ref = SimplicialComplex.from_simplices(gens), reference_from_simplices(gens)
            assert (built.labels, built.faces, built.dim) == (ref.labels, ref.faces, ref.dim)
            assert built == c
    for build in (SimplicialComplex.from_simplices, reference_from_simplices):
        with pytest.raises(ValueError, match="non-empty"):
            build([["a"], []])


def reference_order_complex(p):
    """The former `order_complex` body: one depth-first stack down the
    chains with each maximum, one new tuple per face."""
    order = tphi.simplicial._hasse_order(p)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    below = p.below
    faces = [(r,) for r in range(len(order))]
    for r, i in enumerate(order):
        if not below[i]:
            continue
        chain = [r]
        downs = [iter(below[i])]
        while downs:
            j = next(downs[-1], None)
            if j is None:
                downs.pop()
                chain.pop()
                continue
            chain.append(rank[j])
            faces.append(tuple(chain))
            downs.append(iter(below[j]))
    assert len(set(faces)) == len(faces)
    return unchecked_complex(tuple(map(p.labels.__getitem__, order)), faces)


def test_order_complex_matches_the_depth_first_reference():
    # the same labels in the same numbering, the same faces and dim
    for p in oracle_posets() + [build_poset([], []), build_poset(["x"], [])]:
        c, ref = order_complex(p), reference_order_complex(p)
        assert (c.labels, c.faces, c.dim) == (ref.labels, ref.faces, ref.dim)
        assert len(c) == chain_count(p)


def test_order_complex_keeps_the_layout_of_its_lists():
    # an order complex keeps its layout (order, below, size), which the
    # element matching reads and the lists are built from: lists[r] holds,
    # for each j of below[order[r]] in sorted id order, (r,) joined to
    # every face of the list of j's rank, and then (r,) alone, size[i]
    # faces for the rank of i.  Every other way in keeps none
    for p in oracle_posets():
        c = order_complex(p)
        order, below, size = c._layout
        assert below is p.below and sorted(order) == list(range(len(p)))
        assert sum(size) == len(c) and len(size) == len(p)
        rank = {i: r for r, i in enumerate(order)}
        for r, faces in enumerate(c._lists):
            laid = [(r,) + g for j in below[order[r]] for g in c._lists[rank[j]]]
            assert list(faces) == laid + [(r,)]
            assert len(faces) == size[order[r]]
        back = parse_complex_lines(complex_to_lines(c))
        assert back._layout is None
    assert join(cycle_complex(4), two_points("p", "q"))._layout is None


def reference_hasse_order(p):
    """The former `_hasse_order`: a defaultdict of undirected cover lists,
    a BFS over them from the first element of least height, and two
    stable sorts, by layer and then by height."""
    n = len(p.labels)
    if n == 0:
        return []
    height = list(zip(map(len, p.above), map(operator.neg, map(len, p.below))))
    covers = defaultdict(list)
    for i, ups in enumerate(p.up_covers):
        for j in ups:
            covers[i].append(j)
            covers[j].append(i)
    first = min(range(n), key=height.__getitem__)
    layer = [n] * n
    layer[first] = 0
    frontier = [first]
    while frontier:
        nxt = []
        for i in frontier:
            for j in covers[i]:
                if layer[j] == n:
                    layer[j] = layer[i] + 1
                    nxt.append(j)
        frontier = nxt
    order = sorted(range(n), key=layer.__getitem__)
    order.sort(key=height.__getitem__)
    return order


def brute_chains_by_top(p):
    """Every chain listed once, as the run a < b < ... that grows upward
    through above from its least element, and counted by its top; with the
    length of the longest, less one."""
    size = [0] * len(p)
    longest = 0
    stack = [(i, 1) for i in range(len(p))]
    while stack:
        i, length = stack.pop()
        size[i] += 1
        longest = max(longest, length)
        stack += [(j, length + 1) for j in p.above[i]]
    return size, longest - 1


def layout_test_posets():
    """The posets the order-complex layout is checked on: oracle_posets,
    each also as its opposite; seeded random posets with shuffled labels,
    so that ids and the order disagree, from antichains (density 0) and
    sparse, mostly disconnected, ones to dense ones, the empty poset among
    them; a poset whose first element alone has no cover; and the
    pipeline-large power models, relabeled."""
    rng = random.Random(20261021)
    posets = oracle_posets()
    posets += [build_poset([], []), build_poset(["a", "b", "c"], [("b", "c")])]
    for _ in range(200):
        n = rng.randint(0, 14)
        labels = [f"u{i:02d}" for i in range(n)]
        rng.shuffle(labels)
        density = rng.choice((0.0, 0.05, 0.15, 0.3, 0.6))
        pairs = [
            (labels[i], labels[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        p = build_poset(labels, pairs)
        posets += [p, p.opposite()]
    for n, k in ((7, 1), (4, 5), (5, 2), (3, 11)):
        base = build_tphi_power(n, k).poset
        posets += [relabeled_poset(base, rng) for _ in range(2)]
    return posets


def criterion_03_posets(most_faces=10_000):
    """Every criterion-03 power model of at most most_faces chains, one at
    a time: the n = 1 row alone holds about two million elements."""
    for n in range(1, 11):
        for k in range(1, 2001):
            if (k + 1) ** n - 1 > 2000:
                break
            p = build_tphi_power(n, k).poset
            if chain_count(p) <= most_faces:
                yield p


def test_hasse_order_matches_the_former_order():
    # the antichain exit, the flat cover lists and the one integer sort
    # give the order of the defaultdict, BFS and two sorts
    for p in layout_test_posets():
        assert tphi.simplicial._hasse_order(p) == reference_hasse_order(p)


def test_chains_by_top_matches_a_brute_force_count():
    # size[i] counts the chains with top i and dim is the longest chain
    # less one, as listing every chain finds; chain_count, their sum,
    # still agrees with the count by minimum
    for p in layout_test_posets():
        size, dim = _chains_by_top(p)
        assert (list(size), dim) == brute_chains_by_top(p)
        assert chain_count(p) == sum(reference_chain_counts(p.above))


def test_layout_matches_its_references_on_criterion_03_models():
    seen = 0
    for p in criterion_03_posets():
        assert tphi.simplicial._hasse_order(p) == reference_hasse_order(p)
        size, dim = _chains_by_top(p)
        assert (list(size), dim) == brute_chains_by_top(p)
        seen += 1
    assert seen == 2056


def test_order_complex_shares_the_count_by_top():
    # the layout keeps the cached count itself, so nothing may change it:
    # a second complex of the same poset has the same layout and homology
    for p in oracle_posets()[::3] + [build_tphi_power(3, 4).poset]:
        c = order_complex(p)
        assert c._layout[2] is _chains_by_top(p)[0]
        assert c.dim == _chains_by_top(p)[1]
        h = homology_groups(c)
        again = order_complex(p)
        assert again._layout == c._layout and again.labels == c.labels
        assert homology_groups(again) == h


def eager_order_complex_lists(p):
    """The former `order_complex` list builder, which built every face
    when the complex was made: the faces by least vertex."""
    order = tphi.simplicial._hasse_order(p)
    below = p.below
    chains = [None] * len(order)
    for r in range(len(order) - 1, -1, -1):
        i = order[r]
        head = (r,)
        if below[i]:
            chains[i] = own = [head + g for j in below[i] for g in chains[j]]
            own.append(head)
        else:
            chains[i] = (head,)
    return list(map(chains.__getitem__, order))


def test_order_complex_face_lists_wait_for_their_first_read():
    # order_complex computes only its layout, and homology_groups matches
    # runs of ids on it with no Morse boundary to build on power(7,1), so
    # no face list is made; the first read builds the lists, in the order
    # and with the faces the former eager builder gave
    c = order_complex(build_tphi_power(7, 1).poset)
    assert homology_groups(c, reduced=True).critical == (1, 0, 0, 0, 0, 0, 0)
    assert c._store is None and c._faces is None
    for p in oracle_posets() + [build_poset([], []), build_poset(["x"], [])]:
        c = order_complex(p)
        assert c._store is None
        want = eager_order_complex_lists(p)
        assert list(c) == list(itertools.chain.from_iterable(want))
        assert c._lists == want and c._lists is c._store


def test_order_complex_builds_its_face_set_when_asked():
    # the faces stay in the lists they were built in, one per least
    # vertex, while homology is taken; the face set is built from them on
    # first use, is the reference's and is kept.  Every other constructor
    # keeps its faces in the same store
    for p in oracle_posets():
        c = order_complex(p)
        homology_groups(c)
        assert c._faces is None
        assert len(c) == chain_count(p) == sum(map(len, c._lists))
        assert repr(c).endswith(f" {len(c)} faces, dim {c.dim})")
        assert len(c._lists) == len(c.labels)
        assert all(f[0] == r for r, faces in enumerate(c._lists) for f in faces)
        back = parse_complex_lines(complex_to_lines(order_complex(p)))
        assert hash(c) == hash(back)
        assert c._faces is None
        faces = c.faces
        assert faces is c.faces
        # as many distinct faces as listed ones: each sits once, in list f[0]
        assert len(faces) == len(c)
        assert faces == reference_order_complex(p).faces
        assert c == back and back == c
    square = [(0, 1), (1, 2), (2, 3), (0, 3)]
    closed = square + [(0,), (1,), (2,), (3,)]
    tri = SimplicialComplex.from_simplices([["a", "b", "c"]])
    others = [
        SimplicialComplex("dcba", square),
        SimplicialComplex("dcba", closed),
        SimplicialComplex([], []),
        tri,
        projective_plane(),
        parse_complex_lines(complex_to_lines(order_complex(build_tphi_power(3, 2).poset))),
        join(cycle_complex(4), two_points("p", "q")),
        join(tri, tri),
        barycentric_subdivision(tri),
        barycentric_subdivision(dunce_hat()),
    ]
    for c in others:
        assert len(c._lists) == len(c.labels)
        assert all(f[0] == r for r, faces in enumerate(c._lists) for f in faces)
        assert len(c) == sum(map(len, c._lists))
        assert set(c) == c.faces
    assert [len(c) for c in others[:4]] == [8, 8, 0, 7]


def test_readers_leave_an_order_complex_face_set_unbuilt():
    # the readers walk the lists; only membership builds the face set
    c = order_complex(dict(_model_battery())["power(3,2)"])
    lines = complex_to_lines(c)
    f = c.f_vector()
    chi = euler_characteristic(c)
    maximal = c.maximal_faces()
    assert len(face_poset(c)) == len(c) == len(lines) == sum(f)
    assert [len(c.faces_of_dim(d)) for d in range(c.dim + 1)] == list(f)
    h = homology_groups(c)
    assert c._faces is None
    assert c.has_face(lines[0].split())
    assert c._faces is not None and c._faces == set(c)
    assert chi == sum((-1) ** d * h.betti(d) for d in range(c.dim + 1))
    assert maximal == vertex_probe_maximal_faces(c)


def test_order_complex_cap():
    p = build_poset(
        ["b", "m1", "m2", "t"],
        [("b", "m1"), ("b", "m2"), ("m1", "t"), ("m2", "t")],
    )
    with pytest.raises(SizeCapExceededError):
        order_complex(p, cap=10)
    assert len(order_complex(p, cap=11).faces) == 11


def test_join_of_point_pairs_is_circle():
    c = join(two_points("p", "q"), two_points("r", "s"))
    assert c.f_vector() == (4, 4)
    assert euler_characteristic(c) == 0
    # every vertex lies on exactly two edges: a 4-cycle
    for v in range(4):
        assert sum(v in e for e in c.faces_of_dim(1)) == 2


def test_triple_join_is_octahedron():
    c = join(
        join(two_points("a0", "a1"), two_points("b0", "b1")),
        two_points("c0", "c1"),
    )
    assert c.f_vector() == (6, 12, 8)
    assert euler_characteristic(c) == 2
    # antipodal vertices never share a face
    for x, y in (("a0", "a1"), ("b0", "b1"), ("c0", "c1")):
        assert not c.has_face([x, y])


def test_join_label_clash_gets_prefixes():
    a = two_points("p", "q")
    c = join(a, a)
    assert c.labels == ("A:p", "A:q", "B:p", "B:q")
    assert c.f_vector() == (4, 4)


def test_join_associative_on_disjoint_labels():
    a = two_points("a0", "a1")
    b = cycle_complex(4)
    c = SimplicialComplex.from_simplices([["z0", "z1"]])
    assert join(join(a, b), c) == join(a, join(b, c))


def test_join_euler_identity():
    # 1 - chi multiplies under join
    a = cycle_complex(5)
    b = two_points("u", "v")
    ab = join(a, b)
    assert 1 - euler_characteristic(ab) == (1 - euler_characteristic(a)) * (
        1 - euler_characteristic(b)
    )


def test_join_faces_are_distinct_and_closed():
    # the faces join builds from disjoint vertex sets are kept in a list;
    # none repeats, and the complex equals the one closed from its facets
    pair = two_points("p", "q")
    for a, b in (
        (cycle_complex(3), cycle_complex(4)),
        (projective_plane(), pair),
        (pair, pair),
        (SimplicialComplex.from_simplices([]), cycle_complex(3)),
    ):
        c = join(a, b)
        assert len(c) == len(c.faces) == (len(a) + 1) * (len(b) + 1) - 1
        assert c == SimplicialComplex.from_simplices(map(c.face_labels, c.maximal_faces()))
    # a label in no face is kept, which closing the faces alone would drop
    c = join(SimplicialComplex(["x", "y"], [(0,)]), pair)
    assert c.labels == ("p", "q", "x", "y")
    assert c.f_vector() == (3, 2)


def test_join_cap():
    # the full simplex on 12 vertices has 4,095 faces; its join with itself
    # would hold 4,096^2 - 1, past the default cap, and is refused before
    # any closure runs
    a = SimplicialComplex.from_simplices([[f"v{i}" for i in range(12)]])
    with pytest.raises(SizeCapExceededError, match="join would hold 16777215 faces"):
        join(a, a)


def test_cone_detection():
    c = SimplicialComplex.from_simplices([["a", "b", "c"]])
    assert cone_apexes(c) == ["a", "b", "c"]
    res = collapse_certify(c)
    assert res == CollapseResult(True, "cone", "a")
    fan = SimplicialComplex.from_simplices([["hub", "x"], ["hub", "y"], ["hub", "z"]])
    assert cone_apexes(fan) == ["hub"]
    assert collapse_certify(fan).method == "cone"


def test_collapse_of_path():
    # a-b-c-d path: no cone apex, three elementary collapses reach a point
    c = SimplicialComplex.from_simplices([["a", "b"], ["b", "c"], ["c", "d"]])
    assert cone_apexes(c) == []
    res = collapse_certify(c)
    assert res.collapsible
    assert res.method == "collapse"
    assert res.steps == (
        (("a",), ("a", "b")),
        (("b",), ("b", "c")),
        (("c",), ("c", "d")),
    )


def test_collapse_two_triangles():
    c = SimplicialComplex.from_simplices([["a", "b", "c"], ["b", "c", "d"]])
    res = collapse_certify(c)
    assert res.collapsible
    # deterministic: rerun gives identical steps
    assert collapse_certify(c) == res


def test_cycle_is_inconclusive():
    res = collapse_certify(cycle_complex(8))
    assert res == CollapseResult(False, None, None, ())


def test_single_vertex_and_empty():
    v = SimplicialComplex.from_simplices([["solo"]])
    assert collapse_certify(v) == CollapseResult(True, "cone", "solo")
    empty = SimplicialComplex([], [])
    assert collapse_certify(empty) == CollapseResult(False)
    assert empty.dim == -1


def test_dim_and_f_vector_for_every_constructor():
    # dim is stored when a complex is built (order_complex passes its
    # longest chain); it and the f-vector must equal a count of the faces
    tri = [(0, 1, 2), (2, 3)]
    posets = [p for _, p in _model_battery()] + random_posets(10, 20261101)
    posets += [p.opposite() for p in posets] + [build_poset([], []), build_poset("xyz", [])]
    complexes = [
        SimplicialComplex("abcd", tri),
        SimplicialComplex("abcd", [(0, 1, 2), (0, 1), (0, 2), (1, 2), (0,), (1,), (2,), (3,)]),
        SimplicialComplex([], []),
        SimplicialComplex.from_simplices([["a", "b"], ["c"]]),
        SimplicialComplex.from_simplices([]),
        parse_complex_lines("a b c\nc d\n"),
        parse_complex_lines(""),
        projective_plane(),
        join(cycle_complex(4), two_points("p", "q")),
        join(cycle_complex(3), SimplicialComplex([], [])),
        join(SimplicialComplex([], []), SimplicialComplex([], [])),
        barycentric_subdivision(cycle_complex(5)),
        barycentric_subdivision(SimplicialComplex([], [])),
    ] + [order_complex(p) for p in posets]
    for c in complexes:
        dim = max((len(f) for f in c.faces), default=0) - 1
        assert c.dim == dim
        assert c.f_vector() == tuple(
            sum(len(f) == d + 1 for f in c.faces) for d in range(dim + 1)
        )
    assert [c.dim for c in complexes[:3]] == [2, 2, -1]
    assert complexes[-1].dim == 0 and complexes[-2].dim == -1


def test_face_poset_of_triangle():
    c = SimplicialComplex.from_simplices([["a", "b", "c"]])
    p = face_poset(c)
    assert len(p.labels) == 7
    assert p.less("a", "a|b")
    assert p.less("a", "a|b|c")
    assert not p.less("a|b", "a|c")
    # covers: 6 vertex-edge + 3 edge-triangle
    assert len(p.covers()) == 9
    assert chain_count(p) == 25


def reference_face_poset(c):
    """The former `face_poset`: every face above each of its proper
    non-empty subsets, all pairs passed to FinitePoset."""

    def name(f):
        return "|".join(c.face_labels(f))

    elements = [name(f) for f in c]
    pairs = []
    for f in c:
        if len(f) > 1:
            nf = name(f)
            for size in range(1, len(f)):
                for sub in itertools.combinations(f, size):
                    pairs.append((name(sub), nf))
    return FinitePoset(elements, pairs)


def test_face_poset_from_covers_matches_all_subsets():
    # the closure pass derives from the covers the order that every
    # inclusion spells out; cores and the cw-report, which read the
    # stored covers in their order, agree too
    complexes = cell_test_complexes() + [dunce_hat(), projective_plane()]
    complexes += [
        barycentric_subdivision(c)
        for c in (projective_plane(), dunce_hat(), icosahedron_disk())
    ]
    for c in complexes:
        got, want = face_poset(c), reference_face_poset(c)
        assert got == want and hash(got) == hash(want)
        assert got.covers() == want.covers()
        for q, r in ((got, want), (got.opposite(), want.opposite())):
            assert core(q) == core(r)
            assert cw_type_report(q) == cw_type_report(r)


def test_barycentric_subdivision():
    tri = SimplicialComplex.from_simplices([["a", "b", "c"]])
    sd = barycentric_subdivision(tri)
    assert sd.f_vector() == (7, 12, 6)
    assert euler_characteristic(sd) == 1
    circle = cycle_complex(4)
    sd_circle = barycentric_subdivision(circle)
    assert sd_circle.f_vector() == (8, 8)
    assert euler_characteristic(sd_circle) == 0


def test_export_round_trip():
    c = SimplicialComplex.from_simplices([["a", "b", "c"], ["c", "d"]])
    lines = complex_to_lines(c)
    assert lines == sorted(lines)
    assert "a b c" in lines
    assert parse_complex_lines("\n".join(lines)) == c
    # generators only, closure restored by the parser
    assert parse_complex_lines("a b c\nc d\n# comment\n") == c


# labels a text file can carry, and ones it cannot: empty, with whitespace,
# or led by '#', which makes a comment line
FILE_LABELS = ("a", "b", "é", "x,y", "d#", "<", "#x", "", "a b", "\t", "\x1c")


def test_file_formats_read_back_or_refuse():
    # seeded posets, mirrored posets and complexes on labels from the pool:
    # each is written and read back equal, or its writer raises ValueError;
    # a label led by '#' or an empty one once came back silently dropped
    rng = random.Random(20261019)
    kept = refused = 0

    def round_trip(write, read, obj):
        nonlocal kept, refused
        try:
            text = write(obj)
        except ValueError:
            refused += 1
            return
        assert read(text) == obj, (obj, text)
        kept += 1

    for _ in range(300):
        labels = rng.sample(FILE_LABELS, rng.randint(0, 6))
        pairs = [ab for ab in itertools.combinations(labels, 2) if rng.random() < 0.4]
        p = build_poset(labels, pairs)
        index = build_poset(rng.sample(FILE_LABELS, rng.randint(1, 3)), [])
        m = mirrored(p, index, {lab: rng.choice(index.labels) for lab in labels})
        for obj in (p, m):
            round_trip(format_poset_file, parse_poset_file, obj)
        gens = [rng.sample(labels, rng.randint(1, len(labels))) for _ in range(rng.randint(0, 3)) if labels]
        with_isolated = SimplicialComplex(labels, [(0,)] if labels else [])
        for c in (order_complex(p), SimplicialComplex.from_simplices(gens), with_isolated):
            round_trip(complex_to_lines, parse_complex_lines, c)
    assert kept > 300 and refused > 300


def test_export_rejects_whitespace_labels():
    c = SimplicialComplex.from_simplices([["bad label"]])
    with pytest.raises(ValueError):
        complex_to_lines(c)
