"""Exact arithmetic in the tropical phase hyperfield.

A scalar is either zero or a point of the unit circle, stored as a rational
number of turns in ``[0, 1)``.  Multiplication adds angles.  Addition is
multivalued: the sum of two circle points is the smallest closed arc joining
them, the sum of a point with its antipode is the whole hyperfield, and zero
is the neutral element.  Sums of several terms are therefore finite unions
of closed arcs, represented by ``ArcSet``.

Angles are ``fractions.Fraction`` values, so every membership and equality
question is decided exactly.  Sums are decided on integer residues: the
angles of the non-zero terms are put over the lcm h of their denominators,
as residues mod 2h, and one scan of the gaps between the sorted residues
settles the sum.  Zero lies in it exactly when no gap is wider than half a
turn; otherwise the sum is the arc that the one wider gap leaves.
``Fraction`` appears only at that arc's endpoints.  All values are
immutable; nothing here keeps hidden state.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import EmptySumError, Frozen

HALF = Fraction(1, 2)


class TPhi(Frozen):
    """Hyperfield scalar: zero (``angle is None``) or ``exp(2*pi*i*angle)``."""

    __slots__ = _fields = ("angle",)

    def __init__(self, angle: Fraction | None):
        if angle is not None:
            angle = Fraction(angle) % 1
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
        return TPhi(Fraction(numerator))
    return TPhi(Fraction(numerator, denominator))


def neg(v: TPhi) -> TPhi:
    return -v


def phase_key(v: TPhi):
    """Sort key: zero first, then units by increasing angle."""
    if v.is_zero:
        return (0, Fraction(0))
    return (1, v.angle)


def units(k: int) -> list[TPhi]:
    """The k circle points at angles j/k, in angle order."""
    if k < 1:
        raise ValueError("k must be positive")
    return [TPhi(Fraction(j, k)) for j in range(k)]


def scalars(k: int) -> list[TPhi]:
    """Zero followed by the k-th roots of unity; the order matches phase_key."""
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
    turns.  Structural equality therefore decides set equality.
    """

    __slots__ = _fields = ("has_zero", "full", "arcs")

    def __init__(
        self,
        has_zero: bool = False,
        full: bool = False,
        arcs: tuple[tuple[Fraction, Fraction], ...] = (),
    ):
        arcs = _canonical_arcs(arcs, full)
        if arcs == FULL_MARK:
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

    def rotated(self, turns: Fraction) -> "ArcSet":
        """The set multiplied pointwise by the unit at ``turns`` angles."""
        return ArcSet(
            self.has_zero,
            self.full,
            tuple(((s + turns) % 1, l) for s, l in self.arcs),
        )

    def __str__(self) -> str:
        return format_arcset(self)


# Sentinel returned by _canonical_arcs when the listed arcs cover the circle.
FULL_MARK = ((Fraction(0), Fraction(1)),)


def _canonical_arcs(arcs, full: bool):
    if full:
        return ()
    segments = []
    for start, length in arcs:
        start = Fraction(start)
        length = Fraction(length)
        if length < 0:
            raise ValueError("arc length must be non-negative")
        if length >= 1:
            return FULL_MARK
        start %= 1
        end = start + length
        if end > 1:
            segments.append((start, Fraction(1)))
            segments.append((Fraction(0), end - 1))
        else:
            segments.append((start, end))
    if not segments:
        return ()
    segments.sort()
    merged = [segments[0]]
    for start, end in segments[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            if end > last_end:
                merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    if len(merged) == 1 and merged[0] == (0, 1):
        return FULL_MARK
    if len(merged) > 1 and merged[0][0] == 0 and merged[-1][1] == 1:
        # Touching across the wrap point: fold the last segment around.
        first = merged.pop(0)
        start = merged[-1][0]
        length = 1 - start + first[1]
        if length >= 1:
            return FULL_MARK
        merged[-1] = (start, start + length)
    out = tuple((s, e - s) for s, e in merged)
    return tuple(sorted(out))


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
    terms = list(terms)
    if not terms:
        raise EmptySumError("cannot sum an empty sequence of scalars")
    points = [t for t in terms if not t.is_zero]
    if not points:
        return ZERO_ONLY
    residues, h = angle_residues(points)
    wide = _wide_gap(residues, h)
    if wide is None:
        return FULL_WITH_ZERO
    gap, end = wide
    m = 2 * h
    return ArcSet._one_arc(Fraction(end, m), Fraction(m - gap, m))


def _wide_gap(residues, h: int):
    """The gap wider than h between consecutive distinct points of the
    residues mod 2h, as (width, end) where end is the point that closes it
    going counterclockwise, or None when no gap is that wide.

    The gaps add up to 2h, so at most one is wider than h.  One point
    leaves a gap of 2h; no points at all give None.
    """
    m = 2 * h
    points = sorted({x % m for x in residues})
    if not points:
        return None
    prev = points[-1] - m
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
    return _wide_gap(residues, h) is None


def angle_residues(values: Sequence[TPhi]) -> tuple[list[int], int]:
    """The non-zero values as (residues, h): each angle put over the lcm h
    of the angle denominators, as an integer residue mod 2h, so that h
    residues make half a turn."""
    angles = [v.angle for v in values]
    h = lcm(*(a.denominator for a in angles))
    return [a.numerator * (2 * h // a.denominator) for a in angles], h


def contains_zero(terms: Sequence[TPhi]) -> bool:
    """Whether zero lies in the multivalued sum of the terms.

    Decided without folding, by ``zero_in_residue_sum`` on the
    ``angle_residues`` of the non-zero terms.
    """
    terms = list(terms)
    if not terms:
        raise EmptySumError("cannot sum an empty sequence of scalars")
    return zero_in_residue_sum(*angle_residues([t for t in terms if not t.is_zero]))


def scale_arcset(a: TPhi, s: ArcSet) -> ArcSet:
    """Pointwise product {a * x : x in s}."""
    if s.is_empty:
        return EMPTY
    if a.is_zero:
        return ZERO_ONLY
    return s.rotated(a.angle)


def neg_arcset(s: ArcSet) -> ArcSet:
    """Pointwise negation, i.e. rotation by half a turn."""
    return scale_arcset(TPhi(HALF), s)


def format_value(v: TPhi) -> str:
    if v.is_zero:
        return "0"
    return f"{v.angle.numerator}/{v.angle.denominator}"


def format_scalars(k: int) -> list[str]:
    """``[format_value(s) for s in scalars(k)]``, computed from the residues
    alone: position 0 is zero and position j+1 is j/k turns in lowest terms."""
    if k < 1:
        raise ValueError("k must be positive")
    out = ["0"]
    for j in range(k):
        g = gcd(j, k)
        out.append(f"{j // g}/{k // g}")
    return out


def parse_value(text: str) -> TPhi:
    """Parse '0' (zero) or 'p/q' (p/q turns)."""
    text = text.strip()
    if text == "0":
        return ZERO
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"bad scalar {text!r}: expected '0' or 'p/q'")
    try:
        num, den = int(parts[0]), int(parts[1])
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
