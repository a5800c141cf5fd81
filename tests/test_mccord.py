"""Basis certificates, finite-space homology, cores and CW-type reports.

The homology-only rung of the certificate ladder needs a complex that is
neither a cone nor collapsible yet has trivial reduced homology.  A
triangulated dunce hat is built below from a subdivided 9-triangle fan
whose boundary word glues three edge classes; the construction verifies
itself (Euler characteristic, no free faces) before being used.  Its face
poset has no beat points, and the face poset of a collapsible disk (the
icosahedron less one vertex's open star) has only five, so both finite
spaces are weakly contractible but not contractible.
"""

import random
import time

import pytest

from test_acceptance import _model_battery
from test_homology import cycle_complex, octahedron, oracle_posets, projective_plane
from test_phased import reference_perp_membership
from tphi.errors import SizeCapExceededError, UnknownElementError
from tphi.homology import homology_groups
from tphi.hyperfield import ONE, scalars
import tphi.homology
import tphi.simplicial
from tphi.mccord import (
    COLLAPSE,
    CONE,
    HOMOLOGY_ONLY,
    OBSTRUCTION,
    Certificate,
    basis_certificates,
    contractibility_certificate,
    _complex_faces,
    cw_type_report,
    finite_space_homology,
)
from tphi.models import build_perp_poset, build_tphi_power, expected_join_betti
from tphi.poset import build_poset, core, discrete_type_classes
from tphi.simplicial import (
    DEFAULT_SIMPLEX_CAP,
    SimplicialComplex,
    barycentric_subdivision,
    cone_apexes,
    collapse_certify,
    face_poset,
    join,
    order_complex,
)

P = ONE

CHAIN = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
CROWN = build_poset(["a", "b", "x", "y"], [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])


def comparison_fiber_complex(p, x, cap=DEFAULT_SIMPLEX_CAP):
    """Order complex of the upset of x: the retract of the comparison
    map's fiber over the basic open at x."""
    return order_complex(p.induced(p.upset([x])), cap)


def two_cone_ladder(c):
    """The former `contractibility_certificate`: its own cone test, then
    `collapse_certify`, which tests for a cone again."""
    apexes = cone_apexes(c)
    if apexes:
        return Certificate(CONE, apex=apexes[0])
    res = collapse_certify(c)
    if res.collapsible:
        return Certificate(COLLAPSE, steps=res.steps)
    h = homology_groups(c, reduced=True)
    if h.groups == ():
        return Certificate(HOMOLOGY_ONLY, homology=h)
    return Certificate(OBSTRUCTION, homology=h)


def random_posets(count, seed, largest=9):
    """Seeded random posets on up to `largest` elements: each pair i < j
    is related with a random density, so components and cones vary."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, largest)
        density = rng.choice((0.15, 0.3, 0.5))
        labels = [f"e{i}" for i in range(n)]
        pairs = [
            (labels[i], labels[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        out.append(build_poset(labels, pairs))
    return out


def dunce_hat() -> SimplicialComplex:
    # subdivide the fan first: gluing raw fan triangles would send two
    # triangles to the same vertex set
    fan = SimplicialComplex.from_simplices(
        [("hub", f"w{i}", f"w{(i + 1) % 9}") for i in range(9)]
    )
    sd = barycentric_subdivision(fan)
    letter = "vpqvpqvqp"

    def image(lab):
        vs = lab.split("|")
        if all(v[0] == "w" for v in vs):
            cls = sorted({letter[int(v[1:])] for v in vs})
            return cls[0] if len(vs) == 1 else "m" + "".join(cls)
        return lab

    return SimplicialComplex.from_simplices(
        [[image(x) for x in sd.face_labels(f)] for f in sd.maximal_faces()]
    )


def icosahedron_disk() -> SimplicialComplex:
    """The icosahedron less the open star of its top vertex: a disk with
    11 vertices, 25 edges and 15 triangles, and no dominated vertex
    (Barmak-Minian, "Strong homotopy types, nerves and collapses", DCG 47,
    2012)."""
    u = [f"u{i}" for i in range(5)]
    low = [f"l{i}" for i in range(5)]
    triangles = []
    for i in range(5):
        j = (i + 1) % 5
        triangles += [(u[i], u[j], low[i]), (low[i], low[j], u[j]), ("b", low[i], low[j])]
    return SimplicialComplex.from_simplices(triangles)


def cover_counts(q) -> list:
    """(upper covers, lower covers) of each element of q, in id order."""
    downs = [0] * len(q)
    for ups in q.up_covers:
        for b in ups:
            downs[b] += 1
    return [(len(ups), d) for ups, d in zip(q.up_covers, downs)]


def beat_free(p, labels) -> bool:
    """No element of the induced poset on labels has exactly one upper or
    exactly one lower cover."""
    return all(1 not in counts for counts in cover_counts(p.induced(labels)))


def naive_core(p) -> tuple:
    """Reference for `core`: rebuild the induced poset after each removal
    and scan it from scratch for the first beat point."""
    keep = list(p.labels)
    while True:
        beat = [i for i, counts in enumerate(cover_counts(p.induced(keep))) if 1 in counts]
        if not beat:
            return tuple(keep)
        del keep[beat[0]]


def core_shape(p, labels) -> list:
    """Invariants of the induced poset on labels up to isomorphism: per
    component its size and its sorted cover counts."""
    q = p.induced(labels)
    counts = dict(zip(q.labels, cover_counts(q)))
    return sorted((len(cls), sorted(map(counts.get, cls))) for cls in discrete_type_classes(q))


def test_dunce_hat_is_what_it_claims():
    d = dunce_hat()
    assert d.f_vector() == (25, 78, 54)
    assert all(len(f) == 3 for f in d.maximal_faces())
    assert cone_apexes(d) == []
    assert not collapse_certify(d).collapsible
    assert homology_groups(d, reduced=True).groups == ()


def test_fiber_of_chain_bottom_is_full_simplex():
    c = comparison_fiber_complex(CHAIN, "a")
    assert c.f_vector() == (3, 3, 1)
    assert len(c) == 7


def test_fiber_of_maximal_is_vertex():
    c = comparison_fiber_complex(CHAIN, "c")
    assert c.f_vector() == (1,)


def test_fiber_unknown_element():
    with pytest.raises(UnknownElementError):
        comparison_fiber_complex(CHAIN, "zz")


def test_fiber_in_power_model_is_cone_path():
    mp = build_tphi_power(2, 2)
    c = comparison_fiber_complex(mp.poset, "0/1,0")
    assert c.f_vector() == (3, 2)
    assert cone_apexes(c) == ["0/1,0"]


def test_ladder_cone():
    cert = contractibility_certificate(order_complex(CHAIN))
    assert cert.kind == CONE
    assert cert.proves_contractible


def test_ladder_collapse():
    path = SimplicialComplex.from_simplices([("a", "b"), ("b", "c"), ("c", "d")])
    cert = contractibility_certificate(path)
    assert cert.kind == COLLAPSE
    assert cert.proves_contractible
    assert len(cert.steps) == 3


def test_ladder_obstruction():
    cycle = SimplicialComplex.from_simplices(
        [(f"v{i}", f"v{(i + 1) % 8}") for i in range(8)]
    )
    cert = contractibility_certificate(cycle)
    assert cert.kind == OBSTRUCTION
    assert not cert.proves_contractible
    assert cert.homology.betti(1) == 1


def test_ladder_homology_only():
    cert = contractibility_certificate(dunce_hat())
    assert cert.kind == HOMOLOGY_ONLY
    assert not cert.proves_contractible
    assert cert.homology.groups == ()


def test_ladder_rejects_empty():
    with pytest.raises(ValueError):
        contractibility_certificate(SimplicialComplex([], []))


def test_basis_certificates_power_model():
    mp = build_tphi_power(2, 2)
    rep = basis_certificates(mp.poset)
    assert [c.element for c in rep.certificates] == list(mp.poset.labels)
    assert all(c.kind == CONE for c in rep.certificates)
    assert all(c.apex == c.element for c in rep.certificates)
    assert rep.verdict == "all basic opens certified contractible"
    assert rep.homology.groups == ((0, (1, ())), (1, (1, ())))


def test_basis_certificate_sizes_match_fibers():
    for p in (CHAIN, CROWN, build_tphi_power(2, 2).poset):
        rep = basis_certificates(p)
        assert rep.homology == finite_space_homology(p)
        for cert in rep.certificates:
            assert cert.size == len(comparison_fiber_complex(p, cert.element))


def test_basis_certificates_chain_sizes():
    rep = basis_certificates(CHAIN)
    assert [(c.element, c.size) for c in rep.certificates] == [
        ("a", 7),
        ("b", 3),
        ("c", 1),
    ]


def test_all_cone_across_model_families():
    posets = [
        CHAIN,
        CROWN,
        build_tphi_power(3, 2).poset,
        build_perp_poset([(P, P, P)], 2).poset,
    ]
    for p in posets:
        rep = basis_certificates(p)
        assert all(c.kind == CONE and c.apex == c.element for c in rep.certificates)


def test_finite_space_homology_antichain():
    p = build_poset(["a", "b", "c", "d"], [])
    s = finite_space_homology(p)
    assert s.groups == ((0, (4, ())),)


def test_finite_space_homology_power_and_perp_circles():
    s = finite_space_homology(build_tphi_power(2, 2).poset)
    assert s.groups == ((0, (1, ())), (1, (1, ())))
    s = finite_space_homology(build_perp_poset([(P, P, P)], 2).poset)
    assert s.groups == ((0, (1, ())), (1, (1, ())))


def test_finite_space_homology_duality():
    for p in (CHAIN, CROWN, build_tphi_power(2, 2).poset,
              build_perp_poset([(P, P, P)], 2).poset):
        assert finite_space_homology(p) == finite_space_homology(p.opposite())


def test_face_poset_space_recovers_complex_homology():
    circle = SimplicialComplex.from_simplices([("a", "b"), ("b", "c"), ("a", "c")])
    s = finite_space_homology(face_poset(circle))
    assert s.groups == ((0, (1, ())), (1, (1, ())))

    octa = SimplicialComplex.from_simplices(
        [
            (a, b, c)
            for a in ("x0", "x1")
            for b in ("y0", "y1")
            for c in ("z0", "z1")
        ]
    )
    s = finite_space_homology(face_poset(octa))
    assert s.groups == ((0, (1, ())), (2, (1, ())))


def seeded_perps(count, seed) -> list:
    """Perp posets of seeded constraint sets with n <= 5 and k in {2, 4},
    zeros allowed: each set has a common non-zero orthogonal vector, so
    no perp is empty.  About half of them are face posets."""
    rng = random.Random(seed)

    def nonzero(pool, n):
        while True:
            v = tuple(rng.choice(pool) for _ in range(n))
            if any(not e.is_zero for e in v):
                return v

    out = []
    for _ in range(count):
        n, k, m = rng.randint(2, 5), rng.choice((2, 4)), rng.randint(1, 2)
        pool = scalars(k)
        x = nonzero(pool, n)
        vs = []
        while len(vs) < m:
            v = nonzero(pool, n)
            if reference_perp_membership([v], x):
                vs.append(v)
        out.append(build_perp_poset(vs, k).poset)
    return out


def cell_test_complexes() -> list:
    """Complexes whose face posets are simplicial: RP^2, the dunce hat,
    joins, a subdivision and a few small ones, each numbered in label
    order (an order complex numbers its vertices from the poset)."""
    rp2 = projective_plane()
    sd = barycentric_subdivision(rp2)
    return [
        rp2,
        dunce_hat(),
        icosahedron_disk(),
        octahedron(),
        cycle_complex(5),
        join(cycle_complex(3), cycle_complex(4)),
        join(rp2, SimplicialComplex.from_simplices([("p",), ("q",)])),
        SimplicialComplex.from_simplices(map(sd.face_labels, sd.maximal_faces())),
        SimplicialComplex.from_simplices([("a", "b", "c"), ("c", "d"), ("e",)]),
    ]


def test_cell_path_matches_the_order_complex():
    # every face poset takes the face path and agrees with the order
    # complex, reduced or not, in the groups and in the top dimension
    posets = [p for _, p in _model_battery()] + random_posets(400, 20261020, largest=10)
    posets += [face_poset(c) for c in cell_test_complexes()] + seeded_perps(40, 20261020)
    posets += [p.opposite() for p in posets]
    simplicial = [(p, faces) for p in posets if (faces := _complex_faces(p)) is not None]
    assert len(simplicial) > 150
    solid = 0
    for p, faces in simplicial:
        for reduced in (False, True):
            cells = finite_space_homology(p, reduced=reduced)
            chains = homology_groups(order_complex(p), reduced)
            assert (cells, cells.top_dim) == (chains, chains.top_dim), p
            # matched pairs cancel in the Euler characteristic of K
            euler = sum((-1) ** (len(f) - 1) for f in faces)
            assert sum((-1) ** d * n for d, n in enumerate(cells.critical)) == euler
        solid += cells.top_dim >= 2
    assert solid >= 10
    assert finite_space_homology(face_poset(projective_plane())).groups == (
        (0, (1, ())),
        (1, (0, (2,))),
    )


def test_face_poset_faces_are_the_complex_faces():
    # on a face poset the atoms are the complex's vertices in label order,
    # so each element's face is the face it stands for
    for c in cell_test_complexes():
        p = face_poset(c)
        assert dict(zip(p.labels, _complex_faces(p))) == {
            "|".join(c.face_labels(f)): f for f in c.faces
        }


def test_non_simplicial_posets_are_refused():
    # a chain's second element has one atom and one element below it
    assert _complex_faces(CHAIN) is None
    # RP^2's opposite: a vertex's star is no Boolean lattice
    assert _complex_faces(face_poset(projective_plane()).opposite()) is None
    # Every count matches here: two triangles t0 and t1, each over its own
    # edge from v0 to v2 (e0, e1) and both over the two edges from v0 to v1
    # (e2, e3), so each triangle's down-set holds 2^3 - 1 elements.  But
    # e2 and e3 lie over the same atoms, and taking the atom sets as faces
    # anyway would lose H_1 and H_2.
    pairs = [("v0", "e0"), ("v2", "e0"), ("v0", "e1"), ("v2", "e1")]
    pairs += [(v, e) for v in ("v0", "v1") for e in ("e2", "e3")]
    pairs += [(e, "t0") for e in ("e0", "e2", "e3")] + [(e, "t1") for e in ("e1", "e2", "e3")]
    twins = build_poset(["v0", "v1", "v2", "e0", "e1", "e2", "e3", "t0", "t1"], pairs)
    assert [len(twins.below[twins.index_of(t)]) for t in ("t0", "t1")] == [6, 6]
    assert _complex_faces(twins) is None
    assert finite_space_homology(twins).groups == ((0, (1, ())), (1, (1, ())), (2, (1, ())))


def test_two_edges_over_two_vertices_are_refused():
    # a 2-gon: every down-set is Boolean, but the two edges lie over the
    # same two vertices with no cell above both, so no complex has this
    # face poset; its order complex is a circle
    gon = build_poset(["a", "b", "e", "f"], [(v, e) for v in "ab" for e in "ef"])
    assert _complex_faces(gon) is None
    assert finite_space_homology(gon).groups == ((0, (1, ())), (1, (1, ())))
    assert finite_space_homology(gon) == homology_groups(order_complex(gon))


def test_cell_path_cap_bounds_cells_plus_pairs():
    # power(4,4): 624 cells and 5,312 strict pairs, but 22,832 chains
    p = build_tphi_power(4, 4).poset
    cells_and_pairs = len(p) + sum(map(len, p.below))
    assert cells_and_pairs < 10_000 < len(order_complex(p))
    assert finite_space_homology(p, cap=cells_and_pairs, reduced=True) == expected_join_betti(4, 4)
    # one less and it is refused, by the order complex's chain cap
    with pytest.raises(SizeCapExceededError, match="chains, cap is"):
        finite_space_homology(p, cap=cells_and_pairs - 1)
    with pytest.raises(SizeCapExceededError):
        order_complex(p, cap=cells_and_pairs)


def test_cell_path_on_power_5_3_within_budget():
    # 1,023 faces against 165,633 chains: about 5 ms on a 2-core host
    p = build_tphi_power(5, 3).poset
    start = time.perf_counter()
    h = finite_space_homology(p, reduced=True)
    assert time.perf_counter() - start < 1
    assert h == expected_join_betti(5, 3)
    assert h.critical == (1, 0, 0, 0, 32)


def test_cell_path_on_power_5_6_within_budget():
    # 16,806 faces, of which the matching leaves Betti + 1 critical: about
    # 0.12 s on a 2-core host
    p = build_tphi_power(5, 6).poset
    want = expected_join_betti(5, 6)
    start = time.perf_counter()
    h = finite_space_homology(p, reduced=True)
    assert time.perf_counter() - start < 2
    assert h == want
    assert sum(h.critical) == sum(b for _, (b, _) in want.groups) + 1


def test_ladder_equals_two_cone_ladder():
    posets = [p for _, p in _model_battery()] + random_posets(20, 20261018)
    posets += [p.opposite() for p in posets] + [face_poset(dunce_hat())]
    complexes = [order_complex(p) for p in posets] + [projective_plane(), dunce_hat()]
    for c in complexes:
        assert contractibility_certificate(c) == two_cone_ladder(c)
    # a cone is contractible on the poset too, and non-trivial homology
    # obstructs it; the collapse and homology-only rungs may go either way
    kinds = set()
    for p in posets:
        for comp in cw_type_report(p).components:
            kind = two_cone_ladder(order_complex(p.induced(comp.elements))).kind
            kinds.add(kind)
            if kind == CONE:
                assert comp.status == "contractible"
            if kind == OBSTRUCTION:
                assert comp.status == "obstructed"
    assert kinds == {CONE, COLLAPSE, HOMOLOGY_ONLY, OBSTRUCTION}


def core_test_posets() -> list:
    posets = [p for _, p in _model_battery()] + random_posets(300, 20261019, largest=16)
    complexes = [dunce_hat(), icosahedron_disk(), projective_plane(), octahedron(), cycle_complex(5)]
    complexes.append(SimplicialComplex.from_simplices([("a", "b", "c"), ("c", "d"), ("e",)]))
    posets += [face_poset(c) for c in complexes]
    return posets + [p.opposite() for p in posets]


def test_core_matches_naive_removal():
    for p in core_test_posets():
        kept = core(p)
        assert list(kept) == sorted(kept)
        assert set(kept) <= set(p.labels)
        assert beat_free(p, kept), p
        assert core_shape(p, kept) == core_shape(p, naive_core(p)), p


def reference_core(p) -> tuple:
    """The former `core`, on the former store: above as frozensets, and
    "no live lower cover of b lies above a" as one isdisjoint."""
    above = [frozenset(ids) for ids in p.above]
    ups = [dict.fromkeys(cs) for cs in p.up_covers]
    downs = [{} for _ in ups]
    for a, cs in enumerate(p.up_covers):
        for b in cs:
            downs[b][a] = None
    live = [True] * len(ups)
    queue = list(range(len(ups)))
    while queue:
        x = queue.pop()
        if not live[x] or (len(ups[x]) != 1 and len(downs[x]) != 1):
            continue
        live[x] = False
        for b in ups[x]:
            del downs[b][x]
        for a in downs[x]:
            del ups[a][x]
            for b in ups[x]:
                if above[a].isdisjoint(downs[b]):
                    ups[a][b] = None
                    downs[b][a] = None
        queue += downs[x]
        queue += ups[x]
    return tuple(lab for lab, keep in zip(p.labels, live) if keep)


def reference_less(p, a, b) -> bool:
    """The former `FinitePoset.less`: membership in a frozenset."""
    return p.index_of(b) in frozenset(p.above[p.index_of(a)])


def test_core_and_less_match_the_frozenset_store():
    # the oracle posets, 150 seeded random posets and the face posets, each
    # with its opposite; less on every ordered pair
    posets = random_posets(150, 20261021, largest=14)
    posets += [face_poset(c) for c in cell_test_complexes()]
    posets += [p.opposite() for p in posets]
    posets += oracle_posets()
    shrunk = related = 0
    for p in posets:
        kept = core(p)
        assert kept == reference_core(p), p
        shrunk += len(kept) < len(p)
        for a in p.labels:
            for b in p.labels:
                assert p.less(a, b) == reference_less(p, a, b), (p, a, b)
                related += p.less(a, b)
    assert shrunk > 300 and related > 20000


def reference_type_classes(p):
    """The former `discrete_type_classes`: a walk over every strict pair,
    above and below, with a new set per element."""
    seen = [False] * len(p)
    comps = []
    for start in range(len(p)):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(p.labels[i])
            for j in set(p.above[i]).union(p.below[i]):
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        comps.append(frozenset(comp))
    comps.sort(key=lambda c: min(c))
    return tuple(comps)


def test_type_classes_match_the_strict_pair_walk():
    # battery, 300 seeded random posets, six face posets, and all opposites
    sizes = set()
    for p in core_test_posets():
        classes = discrete_type_classes(p)
        assert classes == reference_type_classes(p), p
        sizes.add(len(classes))
    assert {1, 2, 3} <= sizes


def test_core_of_small_posets():
    assert len(core(CHAIN)) == 1
    assert core(build_poset([], [])) == ()
    assert core(build_poset(["a", "b"], [])) == ("a", "b")
    assert core(CROWN) == ("a", "b", "x", "y")
    # x covers a and b, and y covers x alone: both collapse onto y
    p = build_poset(["a", "b", "x", "y"], [("a", "x"), ("b", "x"), ("x", "y")])
    assert len(core(p)) == 1


def test_core_links_the_covers_of_a_removed_point():
    # a seeded random poset with neither maximum nor minimum that retracts
    # to a point only if each removal links its covers exactly: a cover pair
    # added where another element lies between leaves five points
    covers = [(0, 2), (0, 3), (1, 3), (1, 5), (2, 4), (2, 5), (3, 4), (3, 6), (5, 6)]
    p = build_poset([f"e{i}" for i in range(7)], [(f"e{a}", f"e{b}") for a, b in covers])
    assert len(p.maximal_elements()) == len(p.minimal_elements()) == 2
    assert len(core(p)) == len(naive_core(p)) == 1


def test_core_of_large_perp():
    # the single full-support constraint over n=6, k=4: 12,964 members,
    # 4,564 of them in the core
    p = build_perp_poset([(P,) * 6], 4).poset
    start = time.perf_counter()
    kept = core(p)
    assert time.perf_counter() - start < 10
    assert len(p) == 12964 and len(kept) == 4564
    assert beat_free(p, kept)


def test_cw_report_builds_no_complex(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cw_type_report built an order complex")

    # mccord imports these where it calls them, so patching their home
    # modules reaches it
    monkeypatch.setattr(tphi.simplicial, "order_complex", refuse)
    monkeypatch.setattr(tphi.simplicial, "collapse_certify", refuse)
    monkeypatch.setattr(tphi.homology, "homology_groups", refuse)
    with pytest.raises(AssertionError, match="built an order complex"):
        finite_space_homology(CHAIN)
    assert cw_type_report(build_tphi_power(3, 2).poset).verdict == "obstructed"
    assert cw_type_report(CHAIN).verdict == "CW type"


def test_cw_report_power_5_3_within_budget():
    # 1,023 elements.  Power models with k >= 2 have no beat points, so the
    # core is the whole poset; the pass takes milliseconds, where the
    # order complex's 165,633 chains and their collapse took about 5 s.
    p = build_tphi_power(5, 3).poset
    start = time.perf_counter()
    rep = cw_type_report(p)
    assert time.perf_counter() - start < 3
    assert rep.verdict == "obstructed"
    assert [c.status for c in rep.components] == ["obstructed"]
    assert rep.components[0].core == p.labels


def test_cw_report_chain():
    rep = cw_type_report(CHAIN)
    assert rep.verdict == "CW type"
    assert len(rep.components) == 1
    assert rep.components[0].status == "contractible"
    assert len(rep.components[0].core) == 1


def test_cw_report_antichain():
    p = build_poset(["a", "b", "c"], [])
    rep = cw_type_report(p)
    assert rep.verdict == "CW type"
    assert [c.elements for c in rep.components] == [("a",), ("b",), ("c",)]
    assert [c.core for c in rep.components] == [("a",), ("b",), ("c",)]


def test_cw_report_obstructed():
    p = build_tphi_power(2, 2).poset
    rep = cw_type_report(p)
    assert rep.verdict == "obstructed"
    assert len(rep.components[0].core) > 1
    # soundness: this obstruction also shows in the weak homotopy type
    assert finite_space_homology(p, reduced=True).groups != ()


def test_cw_report_mixed_components():
    p = build_poset(
        ["a", "b", "x", "y", "q1", "q2"],
        [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("q1", "q2")],
    )
    rep = cw_type_report(p)
    assert rep.verdict == "obstructed"
    assert [c.status for c in rep.components] == ["obstructed", "contractible"]
    assert [len(c.core) for c in rep.components] == [4, 1]


def test_cw_report_dunce_space_is_obstructed():
    # no edge of the dunce hat is free, so its face poset has no beat point
    # at all, though its order complex has trivial homology
    p = face_poset(dunce_hat())
    rep = cw_type_report(p)
    assert rep.verdict == "obstructed"
    assert rep.components[0].status == "obstructed"
    assert len(rep.components[0].core) == len(p) == 157


def test_cw_report_collapsible_disk_is_obstructed():
    # the disk collapses, so its order complex is contractible, but only its
    # five boundary edges are beat points: the finite space is not
    p = face_poset(icosahedron_disk())
    assert len(p) == 51
    assert collapse_certify(order_complex(p)).collapsible
    rep = cw_type_report(p)
    assert rep.verdict == "obstructed"
    assert len(rep.components[0].core) == 46
