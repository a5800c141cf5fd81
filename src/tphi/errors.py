"""Exception types, size guards and the value-class base shared across
the package.

Everything raised on purpose derives from ``TphiError`` so the command line
driver can map library failures to a single exit code.  The default size
cap and the capped counts that guard every builder live here too, next to
``SizeCapExceededError``, so a module that only needs a guard imports no
other tphi module.  So do the two halves of the text formats' line rule:
``file_lines``, the one way the three file readers split their text, and
``check_file_labels``, the label rule of both file writers, which refuses
every label those lines could not carry, and ``parse_int``, the integer
rule of every number a text format carries.  So does ``Frozen``, the base of
the immutable value classes: every module loads this one, and none of
them needs the standard library's data-class generator, whose import
pulls in ``inspect`` and ``ast``.
"""

from typing import Iterable, Iterator

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


def file_lines(text: str) -> Iterator[str]:
    """The lines of a text file as its reader takes them: one leading
    byte-order mark (U+FEFF) dropped, each line stripped, and blank lines
    and lines that start with '#' skipped."""
    for raw in text.removeprefix("\ufeff").splitlines():
        line = raw.strip()
        if line and line[0] != "#":
            yield line


def parse_int(text: str) -> int:
    """text as an int: ASCII digits, with one optional leading '-'.  What
    else int() takes, such as '+', '_' between digits, whitespace or the
    digits of other scripts, is a ValueError that names the text."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer in ASCII digits")
    return int(text)


def check_file_labels(labels: Iterable[str]) -> None:
    """Refuse, with ValueError, a label the text formats cannot carry:
    file_lines drops a leading byte-order mark and skips blank and '#'
    lines, and the readers split each line at whitespace."""
    for lab in labels:
        # str.split() breaks at exactly the characters str.isspace() accepts
        if lab.split() != [lab] or lab[0] in "#\ufeff":
            raise ValueError(f"label {lab!r} cannot be written: it is empty, holds whitespace or starts with '#' or U+FEFF")


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


class Frozen:
    """Base of the immutable value classes.

    A subclass names its slots in ``__slots__`` and the ones that make up
    its value, in order, in ``_fields``; its ``__init__`` normalises the
    arguments and sets the slots once, in ``__slots__`` order, through
    ``Frozen.__init__``.  An instance equals only an instance of the same
    class with the same ``_key()``, which is the tuple of ``_fields``
    values unless the class says otherwise, and hashes as that tuple.  The
    repr is ``Name(field=value, ...)`` over ``_fields``.  Assigning or
    deleting an attribute afterwards raises AttributeError; copy and pickle
    go through ``__getstate__`` and ``__setstate__``.
    """

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, s) for s in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        Frozen.__init__(self, *state)
