"""Exception types and size guards shared across the package.

Everything raised on purpose derives from ``TphiError`` so the command line
driver can map library failures to a single exit code.  The default size
cap and the capped counts that guard every builder live here too, next to
``SizeCapExceededError``, so a module that only needs a guard imports no
other tphi module.
"""

from typing import Iterable

DEFAULT_SIMPLEX_CAP = 5_000_000


def capped_product(factors: Iterable[int], cap: int) -> int:
    """The product of factors, each at least 1, or cap + 1 as soon as the
    running product passes cap.  The product never shrinks, so a count far
    beyond the cap is refused without being formed."""
    out = 1
    for f in factors:
        out *= f
        if out > cap:
            return cap + 1
    return out


def capped_comb(n: int, r: int, cap: int) -> int:
    """math.comb(n, r), or cap + 1 as soon as a partial count passes cap:
    C(n, i) grows with i up to min(r, n - r)."""
    if not 0 <= r <= n:
        return 0
    out = 1
    for i in range(min(r, n - r)):
        out = out * (n - i) // (i + 1)
        if out > cap:
            return cap + 1
    return out


class TphiError(Exception):
    """Base class for package-specific errors."""


class EmptySumError(TphiError):
    """A multivalued sum needs at least one term."""


class LengthMismatchError(TphiError):
    """Vectors of different lengths were combined."""


class ZeroVectorError(TphiError):
    """An operation required a vector with non-empty support."""


class OddDiscretizationError(TphiError):
    """Discretized enumeration needs an even number of circle points."""


class IndexOutOfRangeError(TphiError):
    """A ground-set index fell outside 1..n."""


class BadArityError(TphiError):
    """A tuple argument had the wrong shape for the requested relation."""


class IdenticallyZeroError(TphiError):
    """The function vanishes everywhere, so it cannot be normalized."""


class CycleDetectedError(TphiError):
    """The strict relation of a poset must be acyclic."""


class UnknownElementError(TphiError):
    """A label does not belong to the poset or complex at hand."""


class SizeCapExceededError(TphiError):
    """A construction would exceed the configured size cap."""


class DimOutOfRangeError(TphiError):
    """A chain-group dimension outside the valid range was requested."""


class EmptyPerpError(TphiError):
    """The requested orthogonal set contains no non-zero vectors."""
