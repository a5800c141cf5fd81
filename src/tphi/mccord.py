"""Contractibility certificates for the basic opens of a finite poset.

A finite poset carries the up-topology, whose minimal basis is the family
of upsets of single elements.  The comparison map from the order complex
sends each point to the top of its supporting chain, and its fiber over
the basic open at x deformation-retracts to the full subcomplex on the
upset of x.  Everything that makes such a map a weak equivalence is
checkable here: each basic fiber complex is a cone with apex x.
Homotopy type itself is decided on the poset, by `cw_type_report`, which
needs neither the order complex nor its homology.  The homology reported
with the certificates, `finite_space_homology`, comes from the faces of a
simplicial complex when the poset is that complex's face poset, one face
per element, and from the order complex, one face per chain, otherwise;
either way through the one element matching of `homology`.

Certificates come in decreasing strength.  A cone or a collapse sequence
proves contractibility outright; trivial reduced homology (which includes
the abelianized edge-path group through dimension one) is only evidence,
and is labeled as such.  Collapse failure never certifies anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import DEFAULT_SIMPLEX_CAP, Frozen
from .poset import FinitePoset, _chains_by_minimum, core, discrete_type_classes

# simplicial and homology are imported inside the functions that use them,
# so `cw_type_report`, which decides on the poset, loads neither, and
# `finite_space_homology` on a face poset loads homology alone.
if TYPE_CHECKING:
    from .homology import HomologySummary
    from .simplicial import SimplicialComplex

CONE = "cone-apex"
COLLAPSE = "collapse-sequence"
HOMOLOGY_ONLY = "homology-only"
OBSTRUCTION = "obstruction"


class Certificate(Frozen):
    """Outcome of the contractibility ladder for one complex."""

    __slots__ = _fields = ("kind", "apex", "steps", "homology")

    def __init__(
        self,
        kind: str,
        apex: str | None = None,
        steps: tuple = (),
        homology: HomologySummary | None = None,
    ):
        Frozen.__init__(self, kind, apex, steps, homology)

    @property
    def proves_contractible(self) -> bool:
        return self.kind in (CONE, COLLAPSE)


def contractibility_certificate(c: SimplicialComplex) -> Certificate:
    """Strongest available certificate: cone, else collapse sequence,
    else trivial reduced homology, else the non-trivial homology itself.

    The cone and the collapse both come from one `collapse_certify` call,
    which tests for a cone first.  Only these two prove contractibility.
    An obstruction disproves it; homology-only settles nothing either way.
    """
    from .homology import homology_groups
    from .simplicial import collapse_certify

    if len(c) == 0:
        raise ValueError("empty complex has no contractibility certificate")
    res = collapse_certify(c)
    if res.method == "cone":
        return Certificate(CONE, apex=res.apex)
    if res.collapsible:
        return Certificate(COLLAPSE, steps=res.steps)
    h = homology_groups(c, reduced=True)
    if h.groups == ():
        return Certificate(HOMOLOGY_ONLY, homology=h)
    return Certificate(OBSTRUCTION, homology=h)


class BasisCertificate(Frozen):
    """Contractibility certificate for one basic open, with the size of
    its fiber complex (simplex count)."""

    __slots__ = _fields = ("element", "kind", "apex", "size")

    def __init__(self, element: str, kind: str, apex: str | None, size: int):
        Frozen.__init__(self, element, kind, apex, size)


class McCordReport(Frozen):
    """Per-element basis certificates plus the homology of the whole
    order complex.  Every certificate is a cone, so the verdict is one
    string."""

    __slots__ = _fields = ("certificates", "homology")
    verdict = "all basic opens certified contractible"

    def __init__(self, certificates: tuple, homology: HomologySummary):
        Frozen.__init__(self, certificates, homology)


def basis_certificates(p: FinitePoset, cap: int = DEFAULT_SIMPLEX_CAP) -> McCordReport:
    """Certify every basic open of the finite space, one certificate per
    element in label order.

    x is the minimum of its own upset, so the fiber complex is a cone
    with apex x; that is decided at the poset level and the complex is
    never built.  The upset's chains are the c(x) with minimum x and the
    c(x) - 1 that miss x (each of those but {x}, with x removed), so its
    size is 2c(x) - 1.
    """
    counts = _chains_by_minimum(p)
    certs = tuple(BasisCertificate(x, CONE, x, 2 * c - 1) for x, c in zip(p.labels, counts))
    return McCordReport(certs, finite_space_homology(p, cap))


def finite_space_homology(
    p: FinitePoset, cap: int = DEFAULT_SIMPLEX_CAP, reduced: bool = False
) -> HomologySummary:
    """Weak homotopy invariants of the finite space: the homology of its
    order complex.

    When p is the face poset of a simplicial complex K (`_complex_faces`),
    its order complex is the barycentric subdivision of K (Bjorner,
    "Posets, regular CW complexes and Bruhat order", European J. Combin. 5,
    1984), so the element matching of `homology` runs on K's faces, one
    per element, in place of p's chains: bucketed here by least vertex, as
    a complex keeps them, with no complex built, and numbered by the
    matching's dict, since they have no order complex's layout.  There
    the cap bounds the elements plus the strict pairs, the work of the
    check.  Any other poset, or one beyond the cap, goes to the order
    complex, whose chain cap refuses everything the face path would: each
    element and each strict pair is a chain.
    """
    if len(p) + sum(map(len, p.below)) <= cap:
        faces = _complex_faces(p)
        if faces is not None:
            from .homology import _face_homology

            sizes = list(map(len, faces))
            lists = [[] for _ in range(sizes.count(1))]
            for face in faces:
                lists[face[0]].append(face)
            return _face_homology(lists, max(sizes, default=0) - 1, reduced)
    from .homology import homology_groups
    from .simplicial import order_complex

    return homology_groups(order_complex(p, cap), reduced)


def _complex_faces(p: FinitePoset) -> list | None:
    """The complex K whose face poset p is, as one face per element, the
    increasing tuple A(x) of the numbers of the atoms at or below x, when
    there is one; None otherwise.  The atoms, the minimal elements, are
    numbered in id order.

    The exact check: every down-set D(x), x included, holds 2^|A(x)| - 1
    elements, and no two elements have the same A.  Each A(z) with z in
    D(x) is a non-empty subset of A(x), so A maps D(x) one-to-one onto the
    non-empty subsets of A(x), and the A(x) are closed under taking
    non-empty subsets: they are the faces of a complex K.  And z <= y
    exactly when A(z) is a subset of A(y): if it is, D(y) holds some w with
    A(w) = A(z), and w = z, so z <= y.  So A is an isomorphism from p onto
    the face poset of K.
    """
    below = p.below
    number = {x: i for i, x in enumerate(x for x, down in enumerate(below) if not down)}
    faces = []
    for x, down in enumerate(below):
        # down is sorted and atoms are numbered in id order: face is increasing
        face = tuple([number[z] for z in down if z in number]) if down else (number[x],)
        if len(down) + 2 != 1 << len(face):
            return None
        faces.append(face)
    return faces if len(set(faces)) == len(faces) else None


class ComponentReport(Frozen):
    """One comparability component: its elements, the sorted labels of
    its core, and the resulting status, "contractible" or "obstructed"."""

    __slots__ = _fields = ("elements", "status", "core")

    def __init__(self, elements: tuple, status: str, core: tuple):
        Frozen.__init__(self, elements, status, core)


class CWTypeReport(Frozen):
    """The components in label order and the verdict, "CW type" or
    "obstructed"."""

    __slots__ = _fields = ("components", "verdict")

    def __init__(self, components: tuple, verdict: str):
        Frozen.__init__(self, components, verdict)


def cw_type_report(p: FinitePoset) -> CWTypeReport:
    """Does the finite space have the homotopy type of a CW complex?

    Exactly when each component's core is one point (Stong), since a map
    from a connected finite T0 space to a T1 space is constant (its fibres
    are finitely many closed sets covering it, so each is open too): X
    equivalent to a CW complex makes id_X homotopic to a constant.  A
    larger core is a minimal finite space, the obstruction.
    """
    kept = set(core(p))
    comps = []
    for cls in discrete_type_classes(p):
        rest = tuple(sorted(cls & kept))
        status = "contractible" if len(rest) == 1 else "obstructed"
        comps.append(ComponentReport(tuple(sorted(cls)), status, rest))
    verdict = "CW type" if all(c.status == "contractible" for c in comps) else "obstructed"
    return CWTypeReport(tuple(comps), verdict)
