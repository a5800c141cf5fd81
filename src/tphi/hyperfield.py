"""Exact arithmetic in the tropical phase hyperfield.

A scalar is either zero or a point of the unit circle, stored as a rational
number of turns in ``[0, 1)``.  Multiplication adds angles.  Addition is
multivalued: the sum of two circle points is the smallest closed arc joining
them, the sum of a point with its antipode is the whole hyperfield, and zero
is the neutral element.  A sum is therefore zero, one closed arc or
everything; ``ArcSet`` holds it, and any finite union of closed arcs.

Angles are ``fractions.Fraction`` values, so every membership and equality
question is decided exactly.  Sums are decided on integer residues: the
angle of each non-zero term is read once as its integer ratio p/q, put
over the lcm h of the denominators as the residue p * (2h // q) mod 2h,
and one scan of the gaps between the sorted distinct residues settles the
sum.  Zero lies in it exactly when no gap is wider than half a turn;
otherwise the sum is the arc that the one wider gap leaves.  Every caller
with residues of its own, such as the exchange relations and the perp
tests of ``phased``, reaches the same scan through ``zero_in_residue_sum``,
or through a ``zero_test`` that decides each distinct sum of a sweep once.
No ``Fraction`` arithmetic is done on the way; ``Fraction`` appears only at
the endpoints of ``boxplus_fold``'s arc, and a float is refused
everywhere.  All values are immutable.  The only state is a ``zero_test``
memo, which lives for one sweep and holds at most 2^16 residue tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import isqrt, lcm
from typing import Sequence

from .errors import EmptySumError, Frozen, parse_int

HALF = Fraction(1, 2)


_GIVE = "give an int, a Fraction or a string such as '1/10'"


def _rational(x) -> Fraction:
    """x as a Fraction.  Every refusal is a ValueError that names x: a
    float, as 0.1 is not 1/10; a bool, which is no angle; and anything
    that Fraction refuses, whatever it raises."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (float, bool)):
        raise ValueError(f"{x!r} is a {type(x).__name__}; {_GIVE}")
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{x!r} is not a rational number; {_GIVE}") from None


class TPhi(Frozen):
    """Hyperfield scalar: zero (``angle is None``) or ``exp(2*pi*i*angle)``."""

    __slots__ = _fields = ("angle",)

    def __init__(self, angle: Fraction | None):
        if angle is not None:
            angle = _rational(angle) % 1
        object.__setattr__(self, "angle", angle)

    @property
    def is_zero(self) -> bool:
        return self.angle is None

    def __mul__(self, other: "TPhi") -> "TPhi":
        if not isinstance(other, TPhi):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        return TPhi(self.angle + other.angle)

    def __neg__(self) -> "TPhi":
        if self.is_zero:
            return self
        return TPhi(self.angle + HALF)

    def inverse(self) -> "TPhi":
        if self.is_zero:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return TPhi(-self.angle)

    def __repr__(self) -> str:
        return f"TPhi({format_value(self)!r})"


ZERO = TPhi(None)
ONE = TPhi(Fraction(0))


def unit(numerator, denominator=None) -> TPhi:
    """Circle point at ``numerator/denominator`` turns (one arg: any rational)."""
    if denominator is None:
        return TPhi(numerator)
    num, den = _rational(numerator), _rational(denominator)
    if not den:
        raise ValueError(f"unit({numerator!r}, {denominator!r}) has a zero denominator")
    return TPhi(num / den)


def neg(v: TPhi) -> TPhi:
    return -v


def units(k: int) -> list[TPhi]:
    """The k circle points at angles j/k, in angle order."""
    if k < 1:
        raise ValueError("k must be positive")
    return [TPhi(Fraction(j, k)) for j in range(k)]


def scalars(k: int) -> list[TPhi]:
    """Zero followed by the k-th roots of unity in angle order."""
    return [ZERO] + units(k)


def in_tphi_k(v: TPhi, k: int) -> bool:
    """Whether v is zero or a k-th root of unity."""
    return v.is_zero or (v.angle * k).denominator == 1


class ArcSet(Frozen):
    """Finite union of closed circle arcs, optionally together with zero.

    Canonical form, enforced on construction: ``full`` implies no listed
    arcs; otherwise ``arcs`` holds ``(start, length)`` pairs with
    ``0 <= start < 1`` and ``0 <= length < 1``, pairwise disjoint, not even
    touching at endpoints, sorted by start.  A ``length`` of zero is a
    single circle point.  Arcs run counterclockwise and may wrap past zero
    turns.  Structural equality therefore decides set equality.  Every arc
    is checked, also under ``full``: a negative length or a float is a
    ValueError.
    """

    __slots__ = _fields = ("has_zero", "full", "arcs")

    def __init__(
        self,
        has_zero: bool = False,
        full: bool = False,
        arcs: tuple[tuple[Fraction, Fraction], ...] = (),
    ):
        arcs = _canonical_arcs(arcs)
        if full or arcs is None:
            full, arcs = True, ()
        Frozen.__init__(self, has_zero, full, arcs)

    @classmethod
    def _one_arc(cls, start: Fraction, length: Fraction) -> "ArcSet":
        """The single arc (start, length) without zero, with no check; for
        boxplus_fold, whose arcs satisfy 0 <= start < 1 and
        0 <= length < 1/2 by construction."""
        s = cls.__new__(cls)
        object.__setattr__(s, "has_zero", False)
        object.__setattr__(s, "full", False)
        object.__setattr__(s, "arcs", ((start, length),))
        return s

    @property
    def is_empty(self) -> bool:
        return not (self.has_zero or self.full or self.arcs)

    def contains(self, v: TPhi) -> bool:
        if v.is_zero:
            return self.has_zero
        if self.full:
            return True
        return any(_on_arc(s, l, v.angle) for s, l in self.arcs)

    def __str__(self) -> str:
        return format_arcset(self)


def _canonical_arcs(arcs):
    """The canonical arcs of the union of the (start, length) arcs, or None
    for the whole circle.  One sorted sweep over the intervals
    [start mod 1, start mod 1 + length]: those that meet merge, then the
    last, which alone may pass 1, takes in the first ones it reaches a full
    turn on.  An interval a turn long or more is the whole circle."""
    spans = []
    for start, length in arcs:
        start, length = _rational(start) % 1, _rational(length)
        if length < 0:
            raise ValueError("arc length must be non-negative")
        spans.append([start, start + length])
    merged = []
    for span in sorted(spans):
        if merged and span[0] <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], span[1])
        else:
            merged.append(span)
    while len(merged) > 1 and merged[-1][1] >= merged[0][0] + 1:
        first = merged.pop(0)
        merged[-1][1] = max(merged[-1][1], first[1] + 1)
    if merged and merged[-1][1] - merged[-1][0] >= 1:
        return None
    return tuple((s, e - s) for s, e in merged)


def _on_arc(start: Fraction, length: Fraction, angle: Fraction) -> bool:
    return (angle - start) % 1 <= length


EMPTY = ArcSet()
ZERO_ONLY = ArcSet(has_zero=True)
FULL_WITH_ZERO = ArcSet(has_zero=True, full=True)


def arcset_of(v: TPhi) -> ArcSet:
    """The singleton {v} as an ArcSet."""
    if v.is_zero:
        return ZERO_ONLY
    return ArcSet(arcs=((v.angle, Fraction(0)),))


def boxplus_pair(a: TPhi, b: TPhi) -> ArcSet:
    """Multivalued sum of two scalars: ``boxplus_fold((a, b))``.

    Zero is neutral, a point plus its antipode is everything, and otherwise
    the sum is the smallest closed arc joining the two points (a single
    point when they coincide).
    """
    return boxplus_fold((a, b))


def boxplus_fold(terms: Sequence[TPhi]) -> ArcSet:
    """Multivalued sum of the terms.

    Zero terms are neutral; zero alone sums to zero.  The sum of circle
    points holds zero and the whole circle when no open semicircle holds
    them all (an antipodal pair included); otherwise it is the smallest
    closed arc holding them, which runs from the end of the one gap wider
    than half a turn round to its start.  The result does not depend on
    the order of the terms.
    """
    points, h = _sum_points(terms)
    if not points:
        return ZERO_ONLY
    wide = _wide_gap(points, h)
    if wide is None:
        return FULL_WITH_ZERO
    gap, end = wide
    m = 2 * h
    return ArcSet._one_arc(Fraction(end, m), Fraction(m - gap, m))


def _sum_points(terms) -> tuple[list[int], int]:
    """The non-zero terms as (points, h): the distinct residues mod 2h of
    their angles, sorted, where h is the lcm of the angle denominators.

    Each angle p/q is read once as its integer ratio and becomes
    p * (2h // q), which lies in [0, 2h) since the angle lies in [0, 1).
    A sum of no terms raises EmptySumError; one of zeros has no points.
    """
    angles = [t.angle for t in terms]
    if not angles:
        raise EmptySumError("cannot sum an empty sequence of scalars")
    ratios = [a.as_integer_ratio() for a in angles if a is not None]
    h = lcm(*(q for _, q in ratios))
    m = 2 * h
    return sorted({p * (m // q) for p, q in ratios}), h


def _wide_gap(points: list[int], h: int):
    """The gap wider than h between consecutive points, given as distinct
    residues in [0, 2h) in increasing order, as (width, end) where end is
    the point that closes it going counterclockwise, or None when no gap
    is that wide.

    The gaps add up to 2h, so at most one is wider than h.  One point
    leaves a gap of 2h; no points at all give None.
    """
    if not points:
        return None
    prev = points[-1] - 2 * h
    for x in points:
        if x - prev > h:
            return x - prev, x
        prev = x
    return None


def zero_in_residue_sum(residues, h: int) -> bool:
    """Whether zero lies in the multivalued sum of the circle points with
    the given integer residues mod 2h (h residues make half a turn).

    Zero terms are left out by the caller; no residues at all means the
    sum is zero.  Zero is in the sum exactly when two points are antipodal
    or no open semicircle holds them all, i.e. the largest circular gap
    between consecutive distinct points is under h.  A gap of exactly h
    has antipodal end points, so the two tests together say that no gap
    exceeds h.
    """
    m = 2 * h
    return _wide_gap(sorted({x % m for x in residues}), h) is None


def zero_test(h: int):
    """zero_in_residue_sum(residues, h) for this h, taking the residues as
    a tuple and deciding each distinct tuple once, for a sweep whose sums
    repeat.  A sweep makes its own test and drops it when it returns; the
    memo keeps the 2^16 tuples asked most recently."""
    return lru_cache(maxsize=1 << 16)(partial(zero_in_residue_sum, h=h))


def angle_residues(values: Sequence[TPhi]) -> tuple[list[int], int]:
    """The non-zero values as (residues, h): each angle put over the lcm h
    of the angle denominators, as an integer residue mod 2h, so that h
    residues make half a turn."""
    ratios = [v.angle.as_integer_ratio() for v in values]
    h = lcm(*(q for _, q in ratios))
    m = 2 * h
    return [p * (m // q) for p, q in ratios], h


def contains_zero(terms: Sequence[TPhi]) -> bool:
    """Whether zero lies in the multivalued sum of the terms.

    Decided without folding, by the gap scan of boxplus_fold on the same
    points.
    """
    return _wide_gap(*_sum_points(terms)) is None


def scale_arcset(a: TPhi, s: ArcSet) -> ArcSet:
    """Pointwise product {a * x : x in s}."""
    if s.is_empty:
        return EMPTY
    if a.is_zero:
        return ZERO_ONLY
    return ArcSet(s.has_zero, s.full, tuple((start + a.angle, l) for start, l in s.arcs))


def neg_arcset(s: ArcSet) -> ArcSet:
    """Pointwise negation, i.e. rotation by half a turn."""
    return scale_arcset(TPhi(HALF), s)


def format_value(v: TPhi) -> str:
    if v.is_zero:
        return "0"
    return f"{v.angle.numerator}/{v.angle.denominator}"


def format_scalars(k: int) -> list[str]:
    """``[format_value(s) for s in scalars(k)]``, computed from the residues
    alone: position 0 is zero and position j+1 is j/k turns in lowest terms.

    The table is filled one divisor q of k at a time, in increasing order:
    p/q turns is position p*(k/q) + 1, and the first q to reach a position
    is the denominator of its lowest terms, so no position needs a gcd.
    The divisors are found by trial up to isqrt(k), each with its cofactor.
    """
    if k < 1:
        raise ValueError("k must be positive")
    small = [q for q in range(1, isqrt(k) + 1) if not k % q]
    large = [k // q for q in reversed(small) if q * q != k]
    out = ["0"] + [None] * k
    for q in small + large:
        tail = "/" + str(q)
        for p, j in enumerate(range(1, k + 1, k // q)):
            if out[j] is None:
                out[j] = str(p) + tail
    return out


def parse_value(text: str) -> TPhi:
    """Parse '0' (zero) or 'p/q' (p/q turns), p and q by parse_int."""
    text = text.strip()
    if text == "0":
        return ZERO
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"bad scalar {text!r}: expected '0' or 'p/q'")
    try:
        num, den = parse_int(parts[0]), parse_int(parts[1])
    except ValueError:
        raise ValueError(f"bad scalar {text!r}: expected '0' or 'p/q'") from None
    if den <= 0:
        raise ValueError(f"bad scalar {text!r}: denominator must be positive")
    return TPhi(Fraction(num, den))


def format_arcset(s: ArcSet) -> str:
    """Render arcs as '[p/q,p'/q']' joined by commas, with FULL / +0 markers."""
    parts = []
    if s.full:
        parts.append("FULL")
    elif s.arcs:
        rendered = []
        for start, length in s.arcs:
            lo = TPhi(start)
            hi = TPhi((start + length) % 1)
            rendered.append(f"[{format_value(lo)},{format_value(hi)}]")
        parts.append(",".join(rendered))
    if s.has_zero:
        parts.append("+0")
    if not parts:
        return "EMPTY"
    return " ".join(parts)


def parse_terms(expr: str) -> list[TPhi]:
    """Parse an expression like '0/1 + 1/2 + 0' into scalars."""
    chunks = [c.strip() for c in expr.split("+")]
    if any(not c for c in chunks):
        raise ValueError(f"bad sum expression {expr!r}")
    return [parse_value(c) for c in chunks]
