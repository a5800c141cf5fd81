"""Order complexes, joins, collapsing, subdivision.

Frozen values were computed by hand: chain posets give full simplices,
the diamond gives two triangles glued along an edge, joins of point pairs
give circles, and the octahedron shows up as a triple join.
"""

import gc
import itertools
import random

import pytest

import tphi.simplicial
from test_acceptance import _model_battery
from test_homology import oracle_posets, projective_plane
from test_mccord import cell_test_complexes, dunce_hat, icosahedron_disk, random_posets
from tphi.errors import SizeCapExceededError
from tphi.homology import homology_groups
from tphi.mccord import cw_type_report
from tphi.models import build_tphi_power
from tphi.poset import FinitePoset, build_poset, chain_count, core
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
    # A face set that is not closed downward: closed=True refuses it, the
    # unchecked builder takes it as given.  Both versions look only at
    # codimension-1 cofaces: (0,) lies in (0, 1, 2) but in no edge, so it
    # stays maximal; (1, 2) is the one facet of (0, 1, 2) present.
    unclosed = [(0,), (3,), (1, 2), (0, 1, 2), (2, 3)]
    with pytest.raises(KeyError):
        SimplicialComplex("abcd", unclosed, closed=True)
    spaces.append(SimplicialComplex._closed(tuple("abcd"), unclosed))
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
    # repeated vertices and missing facets: test_boundary_rows_keep_failure_modes
    with pytest.raises(ValueError, match="unknown"):
        SimplicialComplex(["a", "b"], [(0, 2)])
    with pytest.raises(ValueError, match="non-empty"):
        SimplicialComplex(["a"], [(0,), ()], closed=True)
    closed = SimplicialComplex(["a", "b"], [(0,), (1,), (0, 1)], closed=True)
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
    return SimplicialComplex._closed(tuple(map(p.labels.__getitem__, order)), faces)


def test_order_complex_matches_the_depth_first_reference():
    # the same labels in the same numbering, the same faces and dim
    for p in oracle_posets() + [build_poset([], []), build_poset(["x"], [])]:
        c, ref = order_complex(p), reference_order_complex(p)
        assert (c.labels, c.faces, c.dim) == (ref.labels, ref.faces, ref.dim)
        assert len(c) == chain_count(p)


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
        SimplicialComplex("dcba", closed, closed=True),
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


def test_join_cap():
    a = cycle_complex(4)
    with pytest.raises(SizeCapExceededError):
        join(a, a, cap=10)


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
    empty = SimplicialComplex([], [], closed=True)
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
        SimplicialComplex("abcd", [(0, 1, 2), (0, 1), (0, 2), (1, 2), (0,), (1,), (2,), (3,)], closed=True),
        SimplicialComplex([], []),
        SimplicialComplex([], [], closed=True),
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
    assert [c.dim for c in complexes[:4]] == [2, 2, -1, -1]
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


def test_export_rejects_whitespace_labels():
    c = SimplicialComplex.from_simplices([["bad label"]])
    with pytest.raises(ValueError):
        complex_to_lines(c)
