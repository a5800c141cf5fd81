"""Contractibility certificates for the basic opens of a finite poset.

A finite poset carries the up-topology, whose minimal basis is the family
of upsets of single elements.  The comparison map from the order complex
sends each point to the top of its supporting chain, and its fiber over
the basic open at x deformation-retracts to the full subcomplex on the
upset of x.  Everything that makes such a map a weak equivalence is
checkable here: each basic fiber complex is a cone with apex x.
Homotopy type itself is decided on the poset, by `cw_type_report`, which
needs neither the order complex nor its homology.  The homology reported
with the certificates, `finite_space_homology`, comes from the poset's own
cells when it is a simplicial poset, one cell per element, and from the
order complex, one cell per chain, otherwise.

Certificates come in decreasing strength.  A cone or a collapse sequence
proves contractibility outright; trivial reduced homology (which includes
the abelianized edge-path group through dimension one) is only evidence,
and is labeled as such.  Collapse failure never certifies anything.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

from .errors import DEFAULT_SIMPLEX_CAP, Frozen
from .poset import FinitePoset, _chains_by_minimum, core, discrete_type_classes

# simplicial and homology are imported inside the functions that use them,
# so `cw_type_report`, which decides on the poset, loads neither, and the
# cell path of `finite_space_homology` loads homology alone.
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
    order complex."""

    __slots__ = _fields = ("certificates", "all_cone", "homology")

    def __init__(self, certificates: tuple, all_cone: bool, homology: HomologySummary):
        Frozen.__init__(self, certificates, all_cone, homology)

    @property
    def verdict(self) -> str:
        if all(c.kind in (CONE, COLLAPSE) for c in self.certificates):
            return "all basic opens certified contractible"
        return "contractibility not certified for every basic open"


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
    certs = [BasisCertificate(x, CONE, x, 2 * c - 1) for x, c in zip(p.labels, counts)]
    all_cone = all(c.kind == CONE for c in certs)
    return McCordReport(tuple(certs), all_cone, finite_space_homology(p, cap))


def finite_space_homology(
    p: FinitePoset, cap: int = DEFAULT_SIMPLEX_CAP, reduced: bool = False
) -> HomologySummary:
    """Weak homotopy invariants of the finite space: the homology of its
    order complex.

    A simplicial poset, one whose every down-set is a Boolean lattice
    (`_simplex_atoms`), takes the cell path: its order complex subdivides
    a complex of simplices with one cell per element, whose homology
    `_cell_homology` takes from the poset (Stanley, "f-vectors and
    h-vectors of simplicial posets", J. Pure Appl. Algebra 71, 1991;
    Bjorner, "Posets, regular CW complexes and Bruhat order", European J.
    Combin. 5, 1984).  There the cap bounds the cells plus the strict
    pairs, the work of the check, and the summary's critical counts every
    cell.  Any other poset, or one beyond the cap, goes to the order
    complex, whose chain cap refuses everything the cell path would: each
    element and each strict pair is a chain.
    """
    if len(p) + sum(map(len, p.below)) <= cap:
        atoms = _simplex_atoms(p)
        if atoms is not None:
            return _cell_homology(p, atoms, reduced)
    from .homology import homology_groups
    from .simplicial import order_complex

    return homology_groups(order_complex(p, cap), reduced)


def _simplex_atoms(p: FinitePoset) -> list | None:
    """Each element's atoms, the minimal elements at or below it, as an
    increasing tuple of ids, when p is a simplicial poset; None otherwise.

    The exact check: at every x with a(x) atoms, the down-set of x holds
    2^a(x) - 1 elements, x included, and no two of them lie over the same
    atoms.  Then atom sets map that down-set one-to-one onto the non-empty
    subsets of x's atoms, and it is the Boolean lattice on them with
    inclusion as order: if A(z) is a subset of A(y), the down-set of y
    already holds an element w with A(w) = A(z), so w = z and z <= y.
    Elements are met by down-set size, so the first failure stops the pass.
    """
    below = p.below
    sizes = list(map(len, below))
    minimal = frozenset(i for i, size in enumerate(sizes) if not size)
    atoms = [()] * len(sizes)
    # the atom sets met so far, numbered, so the distinctness test hashes ints
    number = {}
    code = [0] * len(sizes)
    for x in sorted(range(len(sizes)), key=sizes.__getitem__):
        own = tuple(sorted(below[x] & minimal)) if sizes[x] else (x,)
        if sizes[x] + 2 != 1 << len(own):
            return None
        atoms[x] = own
        code[x] = number.setdefault(own, len(number))
        seen = set(map(code.__getitem__, below[x]))
        seen.add(code[x])
        if len(seen) != sizes[x] + 1:
            return None
    return atoms


def _cell_boundaries(p: FinitePoset, atoms: list) -> list:
    """The boundary d -> d-1 of the simplicial poset's cells for each
    d = 1..top, as (rows, col_index) for `homology._eliminate`, keyed by
    element ids.

    Cell x has dimension a(x) - 1.  Its boundary runs over its down-covers
    y, which miss one atom each: y enters with sign (-1)^i, where i is the
    place of the missing atom in x's increasing atom tuple.  That is the
    boundary of the simplex on x's atoms, so it squares to zero.
    """
    top = max(map(len, atoms), default=0) - 1
    boundaries = [({}, {}) for _ in range(top + 1)]
    total = list(map(sum, atoms))
    for y, ups in enumerate(p.up_covers):
        if ups:
            low = atoms[y]
            rows, col_index = boundaries[len(low)]
            row = rows[y] = {}
            for x in ups:
                # the missing atom goes where it sorts into y's atoms
                row[x] = -1 if bisect_left(low, total[x] - total[y]) % 2 else 1
                col_index.setdefault(x, set()).add(y)
    return boundaries[1:]


def _cell_homology(p: FinitePoset, atoms: list, reduced: bool) -> HomologySummary:
    """Homology of the simplicial poset's cell complex, each boundary
    reduced by the one eliminator."""
    from .homology import _assemble, _eliminate

    counts = [0] * max(map(len, atoms), default=0)
    for own in atoms:
        counts[len(own) - 1] += 1
    factors = {d: _eliminate(*b) for d, b in enumerate(_cell_boundaries(p, atoms), 1)}
    return _assemble(tuple(counts), factors, reduced)


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
