"""Finite model families: powers of the discretized phase hyperfield,
perp subposets, and exhaustive enumeration of strong alternating functions.

The power poset on nonzero vectors uses the coordinatewise order where
zero sits below every unit and distinct units are incomparable, so x < y
exactly when x arises from y by zeroing some coordinates.  Its order
complex is the barycentric subdivision of a join of antichains, which
pins the expected homology used as a test oracle.

The power and perp builders run on integer residues: residue 0 is zero and
residue j+1 is j/k turns, the positions of ``scalars(k)``.  Labels are joined
from one ``format_scalars(k)`` table, so no scalar object is made per
element; the order is read off the non-zero residues.  Perp members arrive
as such residue rows from the perp search, so no scalar is made at all.

Both builders make their elements in label order, which ``_of_ids`` takes
as the ids: "," sorts below "/" and every digit, so a joined label compares
like its tuple of scalar labels, of which "0" is the least.  The power
builder takes its vectors over ``sorted(format_scalars(k))``, and the perp
search is handed the residues in label order.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .errors import (
    DEFAULT_SIMPLEX_CAP,
    BadArityError,
    EmptyPerpError,
    SizeCapExceededError,
    capped_comb,
    capped_product,
)
from .hyperfield import format_scalars, unit, zero_test
from .phased import (
    DISCRETIZATION_CAVEAT,
    GPFunction,
    _gp_relations_by_last_tuple,
    _perp_rows,
    _relation_count,
)
from .poset import FinitePoset, MirroredPoset, build_poset


def _chain_poset(labels) -> FinitePoset:
    labels = list(labels)
    return build_poset(labels, list(zip(labels, labels[1:])))


def _power_pair_count(n: int, k: int, cap: int) -> int:
    """The strict order pairs of build_tphi_power(n, k), or cap + 1 as soon
    as the running sum passes cap: an element with s non-zero coordinates
    has 2^s - 2 elements below it.  Called once the (k+1)^n - 1 elements
    are known to be at most cap, so no term exceeds (cap + 1)^3."""
    pairs = 0
    for s in range(2, n + 1):
        pairs += math.comb(n, s) * k**s * (2**s - 2)
        if pairs > cap:
            return cap + 1
    return pairs


def build_tphi_power(n: int, k: int, cap: int = DEFAULT_SIMPLEX_CAP) -> MirroredPoset:
    """All nonzero length-n vectors over the k-point discretization,
    ordered by zeroing coordinates, mirrored onto 1..n by support size.

    The elements and then the strict order pairs are counted first, and
    either count above cap is refused: pairs cost far more memory than
    elements."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if capped_product(itertools.repeat(k + 1, n), cap + 1) > cap + 1:
        raise SizeCapExceededError(f"power poset has more elements than the cap {cap}")
    if _power_pair_count(n, k, cap) > cap:
        raise SizeCapExceededError(f"power poset has more order pairs than the cap {cap}")
    # a vector with z zero coordinates lies in stratum n - z
    stratum = [str(n - z) for z in range(n + 1)]
    # the coordinates are positions in the sorted scalar labels, position
    # 0 being "0"; zeroing position e at coordinate i moves a vector
    # e * weight[i] places back in lexicographic order
    weight = [(k + 1) ** (n - 1 - i) for i in range(n)]

    def vectors(values):
        # length-n vectors in lexicographic order, less the first (zero)
        # one, so vector number x + 1 gets id x
        return itertools.islice(itertools.product(values, repeat=n), 1, None)

    # in label order (see the module docstring), as _of_ids takes them
    labels = list(map(",".join, vectors(sorted(format_scalars(k)))))
    zeros = list(map(operator.countOf, vectors(range(k + 1)), itertools.repeat(0)))
    # only vectors with two or more non-zero coordinates have a vector below
    upper = itertools.compress(enumerate(vectors(range(k + 1))), map((n - 1).__gt__, zeros))
    # a generator, so the pairs go straight into _of_ids's lists
    pairs = ((x - e * w, x) for x, v in upper for e, w in zip(v, weight) if e)
    poset = FinitePoset._of_ids(labels, pairs)
    index = _chain_poset(str(s) for s in range(1, n + 1))
    return MirroredPoset._of_strata(poset, index, map(stratum.__getitem__, zeros))


def build_perp_poset(vs, k: int, cap: int = DEFAULT_SIMPLEX_CAP) -> MirroredPoset:
    """The subposet of the power model orthogonal to every constraint.

    The members below y are the vectors that zero a non-empty proper subset
    of y's support and are members themselves; the perp set is not closed
    under zeroing, so every subset is looked up, not only single
    coordinates.  The support-size mirror is kept, with empty strata
    dropped from the index chain (perp_pruned_strata reports which).

    A member with s non-zero entries looks up 2^s - 2 vectors below it;
    the sum of these lookups bounds the order pairs and is refused above
    cap before any is made.
    """
    table = []

    def label_order(k):
        # the residues in label order, so the rows, and the ids, are sorted;
        # the one label table is made here, once k has passed its checks
        table[:] = format_scalars(k)
        return sorted(range(k + 1), key=table.__getitem__)

    rows = _perp_rows(vs, k, cap, label_order)
    if not rows:
        raise EmptyPerpError("no nonzero vector is orthogonal to the constraints")
    lookups = 0
    for r in rows:
        lookups += 2 ** (len(r) - r.count(0)) - 2
        if lookups > cap:
            raise SizeCapExceededError(
                f"perp poset has more order-pair lookups than the cap {cap}"
            )
    id_of = {r: x for x, r in enumerate(rows)}
    labels, stratum, pairs = [], [], []
    for x, r in enumerate(rows):
        labels.append(",".join(table[e] for e in r))
        stratum.append(str(len(r) - r.count(0)))
        # each way of zeroing some of r's entries: r itself is skipped, and
        # the zero vector is no member
        for below in itertools.product(*[(0, e) if e else (0,) for e in r]):
            y = id_of.get(below)
            if y is not None and y != x:
                pairs.append((y, x))
    poset = FinitePoset._of_ids(labels, pairs)
    index = _chain_poset(sorted(set(stratum), key=int))
    return MirroredPoset._of_strata(poset, index, stratum)


def perp_pruned_strata(mp: MirroredPoset, n: int) -> tuple:
    """Support sizes 1..n missing from the index chain of a perp model
    built by build_perp_poset on length-n constraints."""
    occupied = set(mp.index_poset.labels)
    return tuple(s for s in range(1, n + 1) if str(s) not in occupied)


def _min_search_steps(n: int, r: int, k: int, cap: int = DEFAULT_SIMPLEX_CAP) -> int:
    """A lower bound on the steps of the enum_grassmannian search, taken
    from its shape alone.

    A function with one nonzero value passes every exchange relation, so
    for every tuple p the branch with zeros before p and 1 at p tries all
    k + 1 values at every later tuple q and checks every relation that
    closes at q, at 1 + c_q steps each.  No relation closes at the first
    tuple, and every tuple T is in degree relations: T is xs less one entry
    x not in ys, or ys is T less one entry y in xs, or both (T inside xs,
    ys inside T).  So at least relations - p * degree of them close after
    p.

    Once the tuples or the relations alone pass cap, so does the bound,
    and cap + 1 is returned without forming either count.
    """
    count = capped_comb(n, r, cap)
    relations = _relation_count(n, r, False, cap)
    if relations == 0:
        return 0  # r == n: a single tuple
    if count > cap or relations > cap:
        return cap + 1
    degree = (
        (n - r) * math.comb(n - 1, r - 1) + r * math.comb(n - 1, r) - r * (n - r)
    )
    m = min(count - 1, (relations - 1) // degree)
    closing_after = (m + 1) * relations - degree * m * (m + 1) // 2
    return (k + 1) * (count * (count - 1) // 2 + closing_after)


def enum_grassmannian(
    n: int, r: int, k: int, cap: int = DEFAULT_SIMPLEX_CAP
) -> list:
    """Every strong alternating function of rank r on 1..n with values in
    the k-point discretization, one normalized representative per scalar
    class, sorted by value vector.

    A depth-first search assigns the increasing r-tuples their values in
    lexicographic order, zero first and then the units by angle.
    Normalization is built into the search: until the first nonzero value
    the only choices are zero and 1, so each scalar orbit appears once.
    Once tuple p has its value, every exchange relation whose last tuple
    is p is checked (none needs checking before a second nonzero value),
    so the leaves are exactly the functions gp_verify_all passes, in
    sorted order, made unchecked by GPFunction._of_entries.  Each distinct
    sum is decided once, by a zero_test made for this search.

    The cap counts search steps: one per value tried and one per relation
    checked, stopping at the first that fails; a relation whose sum was
    decided before counts as checked.  A search whose lower bound
    _min_search_steps exceeds cap is refused before anything is built; any
    other raises once its steps go over cap.
    """
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
    # value[p]: the residue of chosen[p] mod 2k; choice e > 0 is (e-1)/k
    # turns, and the unit angles put over their lcm k give residue 2(e-1)
    value = [None] * count
    # the scalars of the functions found, one object per choice
    scalar = functools.cache(lambda e: unit(e - 1, k))
    zero_in = zero_test(k)
    # options[p]: the values still to try at p; started[p]: some value
    # before p is nonzero
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
            residues = [
                value[a] + value[b] + k * q
                for a, b, q in terms
                if value[a] is not None and value[b] is not None
            ]
            if not zero_in(tuple(residues)):
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
                found.append(GPFunction._of_entries(n, r, entries))
    return found


def expected_join_betti(n: int, k: int):
    """Reduced homology forced by the join structure of the power model:
    rank (k-1)^n concentrated in dimension n-1, as a HomologySummary."""
    from .homology import HomologySummary

    rank = (k - 1) ** n
    groups = ((n - 1, (rank, ())),) if rank else ()
    return HomologySummary(groups, n - 1, reduced=True)

