"""Phased vectors and their matroid data.

A phased vector is a fixed-length tuple of hyperfield scalars.  This module
answers orthogonality questions (is zero in the multivalued dot product),
enumerates discretized orthogonal sets, evaluates and verifies strong
Grassmann-Plucker functions, and builds the transposition transversal used
to coordinatize spaces of such functions.

Ground-set indices are 1-based.  Vector positions are 0-based.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Mapping, Sequence

from .errors import (
    DEFAULT_SIMPLEX_CAP,
    BadArityError,
    Frozen,
    IdenticallyZeroError,
    IndexOutOfRangeError,
    LengthMismatchError,
    OddDiscretizationError,
    SizeCapExceededError,
    ZeroVectorError,
    capped_comb,
    capped_product,
    file_lines,
    parse_int,
)
from .hyperfield import (
    TPhi,
    ZERO,
    angle_residues,
    contains_zero,
    format_value,
    in_tphi_k,
    parse_value,
    scalars,
    unit,
    zero_in_residue_sum,
    zero_test,
)

PhasedVector = tuple

HALF_TURN = unit(1, 2)

DISCRETIZATION_CAVEAT = (
    "caveat: a perp poset over k-th roots of unity is a finite snapshot; "
    "its order complex need not have the homotopy type of the continuum "
    "perp set (one constraint in two variables gives k points, not a circle)"
)


def support(x: PhasedVector) -> frozenset:
    """0-based positions of the non-zero entries."""
    return frozenset(i for i, e in enumerate(x) if not e.is_zero)


def format_vector(x: PhasedVector) -> str:
    return ",".join(format_value(e) for e in x)


def parse_vector(text: str) -> PhasedVector:
    return tuple(parse_value(c) for c in text.strip().split(","))


def perp_membership(vs: Sequence[PhasedVector], x: PhasedVector) -> bool:
    """Whether x is orthogonal to every vector in vs.

    Orthogonality to v means zero lies in the multivalued sum of the
    entrywise products v_i * x_i.  The sum is decided on integer residues,
    with no product scalar made: x's angles are read once as integer
    ratios, and for each v the entries non-zero in both are put over the
    lcm h of their denominators, so that each product is the sum of its
    two residues mod 2h.  A zero x is refused before any v is looked at;
    the vectors are then taken in order, and a v of another length is
    refused only when reached.
    """
    ratios = [None if e.angle is None else e.angle.as_integer_ratio() for e in x]
    if ratios.count(None) == len(ratios):
        raise ZeroVectorError("membership is defined for non-zero vectors only")
    for v in vs:
        if len(v) != len(ratios):
            raise LengthMismatchError(f"vector lengths differ: {len(v)} vs {len(x)}")
        pairs = [
            (a, b.angle.as_integer_ratio())
            for a, b in zip(ratios, v)
            if a is not None and b.angle is not None
        ]
        h = math.lcm(*(q for (_, q), _ in pairs), *(t for _, (_, t) in pairs))
        m = 2 * h
        if not zero_in_residue_sum([p * (m // q) + s * (m // t) for (p, q), (s, t) in pairs], h):
            return False
    return True


def perp_enumerate(vs: Sequence[PhasedVector], k: int) -> list:
    """All non-zero vectors with entries in the k-point discretization that
    are orthogonal to every vector of vs, in lexicographic order (zero
    before units, units by angle).

    k must be even so that the discretization is closed under negation.
    The (k+1)^n - 1 candidates are counted first and refused above
    DEFAULT_SIMPLEX_CAP.  The search runs on residues (_perp_rows); only
    its members are made into scalars.
    """
    rows = _perp_rows(vs, k, DEFAULT_SIMPLEX_CAP, lambda k: range(k + 1))
    pool = scalars(k)
    return [tuple(map(pool.__getitem__, row)) for row in rows]


def _perp_rows(
    vs: Sequence[PhasedVector], k: int, cap: int, alphabet: Callable[[int], Sequence[int]]
) -> list:
    """perp_enumerate as rows of positions in scalars(k): 0 is zero and
    j + 1 is j/k turns.  alphabet(k) lists the k + 1 positions, 0 first,
    and the rows come in lexicographic order over it: perp_enumerate
    passes range(k + 1), for the residue order, and build_perp_poset the
    residues in label order, so its rows arrive sorted by label.  The
    (k+1)^n - 1 candidates are refused above cap: DEFAULT_SIMPLEX_CAP
    from perp_enumerate, the caller's cap from build_perp_poset.
    alphabet is called only once k and the candidate count have passed
    their checks, so a refused k builds nothing of size k.

    k is even, so the products of a constraint with a candidate are
    decided mod k with h = k/2: a constraint entry at i/k turns is residue
    i, and the product with entry j + 1 is residue i + j.  Each distinct
    sum is decided once, by a zero_test made for this search.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not vs:
        raise ZeroVectorError("need at least one constraint vector")
    if k % 2 != 0:
        raise OddDiscretizationError(f"k must be even, got {k}")
    n = len(vs[0])
    for v in vs:
        if len(v) != n:
            raise LengthMismatchError("constraint vectors must share one length")
        for e in v:
            if not in_tphi_k(e, k):
                raise ValueError(
                    f"constraint entry {format_value(e)} is not a {k}-th root of unity"
                )
    if capped_product(itertools.repeat(k + 1, n), cap + 1) > cap + 1:
        raise SizeCapExceededError(f"perp has more candidates than the cap {cap}")
    # (position, residue less one) of each non-zero constraint entry, so
    # that adding the candidate's row entry gives the product's residue
    constraints = [
        [(i, int(e.angle * k) - 1) for i, e in enumerate(v) if not e.is_zero]
        for v in vs
    ]
    zero_in = zero_test(k // 2)
    candidates = itertools.product(alphabet(k), repeat=n)
    next(candidates)  # the zero vector
    return [
        row
        for row in candidates
        if all(zero_in(tuple([r + row[i] for i, r in c if row[i]])) for c in constraints)
    ]


class GPFunction(Frozen):
    """A function on r-tuples from the ground set 1..n, alternating by
    construction: only values on strictly increasing tuples are stored
    (zero values are dropped), and evaluation extends by permutation sign.
    """

    _fields = ("n", "r", "entries")
    __slots__ = _fields + ("_map",)

    def __init__(self, n: int, r: int, entries: tuple = ()):
        if n < 1:
            raise BadArityError("ground set must be non-empty")
        if not 1 <= r <= n:
            raise BadArityError(f"arity r={r} outside 1..{n}")
        seen = {}
        for key, val in entries:
            key = _indices(key, n)
            if len(key) != r:
                raise BadArityError(f"key {key} is not an {r}-tuple")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise BadArityError(f"key {key} must be strictly increasing")
            if key in seen:
                raise ValueError(f"duplicate key {key}")
            seen[key] = val
        kept = tuple(sorted((k, v) for k, v in seen.items() if not v.is_zero))
        Frozen.__init__(self, n, r, kept, dict(kept))

    @classmethod
    def _of_entries(cls, n: int, r: int, entries: tuple) -> "GPFunction":
        """The function with these entries, unchecked: for enum_grassmannian,
        whose entries are sorted, keyed in range and non-zero by construction."""
        phi = cls.__new__(cls)
        Frozen.__init__(phi, n, r, entries, dict(entries))
        return phi

    @classmethod
    def from_values(cls, n: int, r: int, mapping: Mapping) -> "GPFunction":
        return cls(n, r, tuple(mapping.items()))

    @property
    def values(self) -> dict:
        return dict(self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries


def _indices(tup, n: int) -> tuple:
    """tup as a tuple of ground-set indices in 1..n, each an int or a
    string by parse_int.  A float or a bool is refused, not read as the
    int it equals or truncated to, and so is any other type."""
    out = []
    for i in tup:
        if isinstance(i, bool) or not isinstance(i, (int, str)):
            raise ValueError(f"index {i!r} is a {type(i).__name__}; give an int")
        i = i if isinstance(i, int) else parse_int(i)
        if not 1 <= i <= n:
            raise IndexOutOfRangeError(f"index {i} outside 1..{n}")
        out.append(i)
    return tuple(out)


def gp_eval(phi: GPFunction, tup: Sequence[int]) -> TPhi:
    """Evaluate on an arbitrary r-tuple of indices, taken as GPFunction
    takes them: zero on repeats, otherwise the stored value times the
    sign of the sorting permutation (a half-turn when odd)."""
    tup = tuple(tup)
    if len(tup) != phi.r:
        raise BadArityError(f"expected an {phi.r}-tuple, got {tup}")
    tup = _indices(tup, phi.n)
    if len(set(tup)) < len(tup):
        return ZERO
    val = phi._map.get(tuple(sorted(tup)), ZERO)
    if _inversions(tup) % 2:
        return HALF_TURN * val
    return val


def _inversions(tup) -> int:
    return sum(a > b for a, b in itertools.combinations(tup, 2))


def gp_relation_terms(phi: GPFunction, xs: Sequence[int], ys: Sequence[int]) -> list:
    """The r+1 terms of one exchange relation, signs applied."""
    xs = tuple(xs)
    ys = tuple(ys)
    terms = []
    for k in range(1, len(xs) + 1):
        dropped = xs[: k - 1] + xs[k:]
        factor = gp_eval(phi, dropped) * gp_eval(phi, (xs[k - 1],) + ys)
        if k % 2:
            factor = HALF_TURN * factor
        terms.append(factor)
    return terms


def gp_relation_check(phi: GPFunction, xs: Sequence[int], ys: Sequence[int]) -> bool:
    """Whether zero lies in the multivalued sum of the exchange terms for
    the given sorted index tuples (xs of size r+1, ys of size r-1), with
    indices taken as GPFunction takes them."""
    xs = tuple(xs)
    ys = tuple(ys)
    if len(xs) != phi.r + 1:
        raise BadArityError(f"xs must have size {phi.r + 1}")
    if len(ys) != phi.r - 1:
        raise BadArityError(f"ys must have size {phi.r - 1}")
    xs, ys = _indices(xs, phi.n), _indices(ys, phi.n)
    for t in (xs, ys):
        if any(a >= b for a, b in zip(t, t[1:])):
            raise BadArityError(f"{t} must be strictly increasing")
    return contains_zero(gp_relation_terms(phi, xs, ys))


class GPReport(Frozen):
    __slots__ = _fields = ("ok", "reason", "xs", "ys")

    def __init__(self, ok: bool, reason: str | None = None, xs: tuple = (), ys: tuple = ()):
        Frozen.__init__(self, ok, reason, xs, ys)


def gp_verify_all(phi: GPFunction, all_tuples: bool = False) -> GPReport:
    """Check every exchange relation; report the first failure.

    The default sweep runs over strictly increasing index tuples.  With
    all_tuples the sweep runs over arbitrary tuples (repeats included);
    relations with repeated or permuted indices are forced by the
    alternating rule, so the verdict must coincide.  The relations are
    counted first and refused above DEFAULT_SIMPLEX_CAP.

    The values are taken as their angle_residues, and each relation is
    tested as _gp_sweep yields it: the cap allows millions of relations,
    so no table of them is held.  The sweep makes each look-up that does
    not depend on ys once, but keeps the order of the relations and tests
    each one, so the report is the one a term-by-term sweep gives.  Each
    distinct sum is decided once, by a zero_test made for this sweep.
    """
    if phi.is_zero:
        return GPReport(False, "not identically zero")
    n, r = phi.n, phi.r
    if _relation_count(n, r, all_tuples, DEFAULT_SIMPLEX_CAP) > DEFAULT_SIMPLEX_CAP:
        raise SizeCapExceededError(
            f"exchange relations exceed cap {DEFAULT_SIMPLEX_CAP}"
        )
    keys = [key for key, _ in phi.entries]
    residues, h = angle_residues([v for _, v in phi.entries])
    residue = dict(zip(keys, residues))
    value = [residue.get(t) for t in itertools.combinations(range(1, n + 1), r)]

    def weigh(i, p):
        return None if value[i] is None else value[i] + h * p

    zero_in = zero_test(h)
    for xs, ys, terms in _gp_sweep(n, r, all_tuples, weigh):
        if not zero_in(terms):
            return GPReport(False, "exchange relation failed", xs, ys)
    return GPReport(True)


def _relation_count(n: int, r: int, all_tuples: bool, cap: int) -> int:
    """The number of exchange relations in the gp_verify_all sweep, or
    cap + 1 as soon as it is known to pass cap."""
    if all_tuples:
        return capped_product(itertools.repeat(n, 2 * r), cap)
    # C(n, r+1) is 0 only for r = n, and then it comes first
    return capped_product((capped_comb(n, r + 1, cap), capped_comb(n, r - 1, cap)), cap)


def _gp_sweep(n: int, r: int, all_tuples: bool, weigh):
    """Yield (xs, ys, terms) for each exchange relation of the
    gp_verify_all sweep that has a non-zero term, xs outer and ys inner.

    weigh(i, p) is the caller's entry for phi on the i-th increasing
    r-tuple times a half turn when p is odd, None where that is zero.
    terms is the tuple of the non-zero terms of gp_relation_terms in
    order, each a + b: a for xs less x_k with the relation's sign for k, b
    for (x_k,) + ys.  The a entries are weighed once per xs, the b entries
    once per call as one column over the ys sweep for each x.  Each
    relation keeps its place and its own sum, so every verdict and the
    first failure are those of the term-by-term sweep; one left out has an
    empty sum, which holds.
    """
    ground = range(1, n + 1)
    index = {t: i for i, t in enumerate(itertools.combinations(ground, r))}
    if all_tuples:
        xs_sweep = itertools.product(ground, repeat=r + 1)
        ys_sweep = list(itertools.product(ground, repeat=r - 1))
        candidates = itertools.permutations(ground, r)
    else:
        xs_sweep = itertools.combinations(ground, r + 1)
        ys_sweep = list(itertools.combinations(ground, r - 1))
        # the tuples a relation on increasing xs, ys can reach: one entry
        # moved in front of an increasing (r-1)-tuple
        candidates = ((x,) + ys for ys in ys_sweep for x in ground if x not in ys)
    # tuple -> (index of its sorted form, parity of the sort); tuples with
    # repeated entries are missing, since phi vanishes on them
    signed = {t: (index[tuple(sorted(t))], _inversions(t) % 2) for t in candidates}

    def entry(t, sign=0):
        s = signed.get(t)
        return None if s is None else weigh(s[0], s[1] + sign)

    columns = {x: [entry((x,) + ys) for ys in ys_sweep] for x in ground}
    for xs in xs_sweep:
        heads, tails = [], []
        for k, x in enumerate(xs):
            # gp_relation_terms puts a half turn on its odd 1-based k
            a = entry(xs[:k] + xs[k + 1 :], k + 1)
            if a is not None:
                heads.append(a)
                tails.append(columns[x])
        # with no a entry there are no rows of b entries: every sum is empty
        for ys, bs in zip(ys_sweep, zip(*tails)):
            terms = tuple([a + b for a, b in zip(heads, bs) if b is not None])
            if terms:
                yield xs, ys, terms


def _gp_relations_by_last_tuple(n: int, r: int) -> list:
    """The exchange relations on increasing tuples, filed by their last
    tuple: entry q lists the terms of every relation whose largest tuple
    index is q, so it can be checked once tuples 0..q have values.  A
    term (a, b, p) is phi(A) * phi(B) times a half turn when p is 1, A
    and B the a-th and b-th increasing r-tuples.  The sweep weighs each
    entry as (i, p), so each of its terms reads (a, p, b, q)."""
    closing = [[] for _ in range(math.comb(n, r))]
    for _, _, sums in _gp_sweep(n, r, False, lambda i, p: (i, p)):
        terms = tuple((a, b, (p + q) % 2) for a, p, b, q in sums)
        closing[max(max(a, b) for a, b, _ in terms)].append(terms)
    return closing


def scalar_multiply(t: TPhi, phi: GPFunction) -> GPFunction:
    """The function t * phi (zero scalar gives the zero function)."""
    return GPFunction(phi.n, phi.r, tuple((k, t * v) for k, v in phi.entries))


def gp_normalize(phi: GPFunction) -> GPFunction:
    """Divide by the value at the least stored tuple, making it one.

    Scalar-equivalent functions normalize to the same representative.
    """
    if phi.is_zero:
        raise IdenticallyZeroError("the zero function cannot be normalized")
    lead = phi.entries[0][1]
    return scalar_multiply(lead.inverse(), phi)


class Transversal(Frozen):
    """Greedy transversal of the transposition pairing on distinct-entry
    r-tuples: no member repeats an entry, every distinct-entry tuple is a
    member or one transposition away from one, and no two members are a
    single transposition apart."""

    __slots__ = _fields = ("n", "r", "tuples")

    def __init__(self, n: int, r: int, tuples: tuple):
        Frozen.__init__(self, n, r, tuples)

    @property
    def d(self) -> int:
        return len(self.tuples)


def transpositions(tup: Sequence[int]) -> list:
    """All tuples obtained by swapping two positions."""
    tup = tuple(tup)
    out = []
    for i in range(len(tup)):
        for j in range(i + 1, len(tup)):
            lst = list(tup)
            lst[i], lst[j] = lst[j], lst[i]
            out.append(tuple(lst))
    return out


def transversal(n: int, r: int) -> Transversal:
    """Greedy construction in lexicographic order: keep the least remaining
    tuple, discard everything one transposition away from it, repeat.  The
    pass keeps exactly the tuples with an even number of inversions, in
    lexicographic order, so those are listed directly.

    Proof: a transposition flips the parity of the inversions, so every
    neighbour of an even tuple is odd.  An odd tuple (r >= 2) is not
    sorted, so it has an adjacent descent; swapping it gives an even
    neighbour that comes earlier in lexicographic order.  By induction
    along that order, an even tuple has no kept neighbour before it, so it
    is still there when reached and is kept, and an odd tuple was discarded
    by the even neighbour before it.

    The even tuples are found with no per-tuple parity test.  Arranging an
    increasing r-subset by a permutation of its r positions gives a tuple
    with that permutation's inversions, so each subset is arranged by the
    even permutations of range(r), found once, and the result is sorted.

    The n!/(n-r)! tuples are counted first and refused above
    DEFAULT_SIMPLEX_CAP."""
    if not 1 <= r <= n:
        raise BadArityError(f"need 1 <= r <= n, got r={r}, n={n}")
    if capped_product(range(n - r + 1, n + 1), DEFAULT_SIMPLEX_CAP) > DEFAULT_SIMPLEX_CAP:
        raise SizeCapExceededError(f"r-permutations exceed cap {DEFAULT_SIMPLEX_CAP}")
    even = [p for p in itertools.permutations(range(r)) if not _inversions(p) % 2]
    # itemgetter of one index returns the item, not a 1-tuple
    arrange = [operator.itemgetter(*p) for p in even] if r > 1 else [tuple]
    tuples = [a(s) for s in itertools.combinations(range(1, n + 1), r) for a in arrange]
    tuples.sort()
    return Transversal(n, r, tuple(tuples))


def format_gp(phi: GPFunction) -> str:
    """File form: 'n r' header, then one 'i1 i2 .. ir : value' line per
    stored tuple."""
    lines = [f"{phi.n} {phi.r}"]
    for key, val in phi.entries:
        lines.append(f"{' '.join(str(i) for i in key)} : {format_value(val)}")
    return "\n".join(lines) + "\n"


def parse_gp_file(text: str) -> GPFunction:
    """Parse the file form; tuples not listed get the value zero.  The
    header and the tuple indices are integers by parse_int."""
    lines = list(file_lines(text))
    if not lines:
        raise ValueError("empty function file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header {lines[0]!r}: expected 'n r'")
    try:
        n, r = parse_int(header[0]), parse_int(header[1])
    except ValueError:
        raise ValueError(f"bad header {lines[0]!r}: expected 'n r'") from None
    values = {}
    for ln in lines[1:]:
        if ":" not in ln:
            raise ValueError(f"bad line {ln!r}: expected 'i1 .. ir : value'")
        left, right = ln.rsplit(":", 1)
        try:
            key = tuple(parse_int(tok) for tok in left.split())
        except ValueError:
            raise ValueError(
                f"bad tuple {left.strip()!r} in line {ln!r}: expected integers"
            ) from None
        if key in values:
            raise ValueError(f"duplicate tuple {key}")
        values[key] = parse_value(right)
    return GPFunction.from_values(n, r, values)
