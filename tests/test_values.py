"""The sixteen value classes: immutable, compared and hashed by value, with
their defaults, normalisations and refusals.

They were frozen data classes; they are now slotted classes on
``errors.Frozen`` (and ``TPhi`` and ``ArcSet`` compare on their own), so
no module needs the standard data-class generator.  The repr strings
below are the ones the data classes printed.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from tphi.errors import BadArityError, IndexOutOfRangeError, UnknownElementError
from tphi.homology import HomologySummary, IntegerMatrix
from tphi.hyperfield import ArcSet, TPhi, boxplus_fold, contains_zero, unit
from tphi.mccord import (
    BasisCertificate,
    Certificate,
    ComponentReport,
    CWTypeReport,
    McCordReport,
)
from tphi.phased import GPFunction, GPReport, Transversal
from tphi.poset import GeometricReport, MirroredPoset, MirrorReport, build_poset
from tphi.simplicial import CollapseResult

H = HomologySummary(((0, (1, ())), (1, (0, (2,)))), 2, False, (1, 2, 1))
H_REPR = (
    "HomologySummary(groups=((0, (1, ())), (1, (0, (2,)))), top_dim=2, "
    "reduced=False, critical=(1, 2, 1))"
)
P = build_poset(["a", "b"], [("a", "b")])
Q = build_poset(["0", "1"], [("0", "1")])
F = "FinitePoset(2 elements, 1 strict pairs)"

# (value, its repr); every class appears at least once
PINNED = [
    (TPhi(Fraction(5, 4)), "TPhi('1/4')"),
    (TPhi(None), "TPhi('0')"),
    (ArcSet(), "ArcSet(has_zero=False, full=False, arcs=())"),
    (
        boxplus_fold([unit(0), unit(1, 4)]),
        "ArcSet(has_zero=False, full=False, arcs=((Fraction(0, 1), Fraction(1, 4)),))",
    ),
    (
        ArcSet(True, False, ((Fraction(3, 4), Fraction(1, 2)),)),
        "ArcSet(has_zero=True, full=False, arcs=((Fraction(3, 4), Fraction(1, 2)),))",
    ),
    (ArcSet(has_zero=True, full=True), "ArcSet(has_zero=True, full=True, arcs=())"),
    (
        GPFunction(2, 1, (((2,), unit(1, 2)), ((1,), unit(0)))),
        "GPFunction(n=2, r=1, entries=(((1,), TPhi('0/1')), ((2,), TPhi('1/2'))))",
    ),
    (GPReport(True), "GPReport(ok=True, reason=None, xs=(), ys=())"),
    (
        GPReport(False, "exchange relation failed", (1, 2, 3), (1,)),
        "GPReport(ok=False, reason='exchange relation failed', xs=(1, 2, 3), ys=(1,))",
    ),
    (Transversal(3, 2, ((1, 2), (2, 1))), "Transversal(n=3, r=2, tuples=((1, 2), (2, 1)))"),
    (
        MirroredPoset(P, Q, (("b", "1"), ("a", "0"))),
        f"MirroredPoset(poset={F}, index_poset={F}, assignments=(('a', '0'), ('b', '1')))",
    ),
    (MirrorReport(True), "MirrorReport(ok=True, violation=None)"),
    (MirrorReport(False, "empty stratum 1"), "MirrorReport(ok=False, violation='empty stratum 1')"),
    (GeometricReport(True), "GeometricReport(ok=True, a1_violations=(), notes=())"),
    (
        GeometricReport(False, ("nothing above a in stratum 1",), ("note",)),
        "GeometricReport(ok=False, a1_violations=('nothing above a in stratum 1',), "
        "notes=('note',))",
    ),
    (CollapseResult(False), "CollapseResult(collapsible=False, method=None, apex=None, steps=())"),
    (
        CollapseResult(True, "cone", "a"),
        "CollapseResult(collapsible=True, method='cone', apex='a', steps=())",
    ),
    (
        CollapseResult(True, "collapse", None, ((("a",), ("a", "b")),)),
        "CollapseResult(collapsible=True, method='collapse', apex=None, "
        "steps=((('a',), ('a', 'b')),))",
    ),
    (
        IntegerMatrix(2, 2, ((1, 0, -1), (0, 1, 2))),
        "IntegerMatrix(rows=2, cols=2, entries=((0, 1, 2), (1, 0, -1)))",
    ),
    (H, H_REPR),
    (
        Certificate("cone-apex", apex="a"),
        "Certificate(kind='cone-apex', apex='a', steps=(), homology=None)",
    ),
    (
        Certificate("homology-only", homology=H),
        f"Certificate(kind='homology-only', apex=None, steps=(), homology={H_REPR})",
    ),
    (
        BasisCertificate("a", "cone-apex", "a", 3),
        "BasisCertificate(element='a', kind='cone-apex', apex='a', size=3)",
    ),
    (
        McCordReport((BasisCertificate("a", "cone-apex", "a", 1),), H),
        "McCordReport(certificates=(BasisCertificate(element='a', kind='cone-apex', "
        f"apex='a', size=1),), homology={H_REPR})",
    ),
    (
        ComponentReport(("a", "b"), "contractible", ("b",)),
        "ComponentReport(elements=('a', 'b'), status='contractible', core=('b',))",
    ),
    (
        CWTypeReport((ComponentReport(("a",), "contractible", ("a",)),), "CW type"),
        "CWTypeReport(components=(ComponentReport(elements=('a',), status='contractible', "
        "core=('a',)),), verdict='CW type')",
    ),
]

# each class's fields in order, and the ones equality and hash compare
FIELDS = {
    TPhi: ("angle",),
    ArcSet: ("has_zero", "full", "arcs"),
    GPFunction: ("n", "r", "entries"),
    GPReport: ("ok", "reason", "xs", "ys"),
    Transversal: ("n", "r", "tuples"),
    MirroredPoset: ("poset", "index_poset", "assignments"),
    MirrorReport: ("ok", "violation"),
    GeometricReport: ("ok", "a1_violations", "notes"),
    CollapseResult: ("collapsible", "method", "apex", "steps"),
    IntegerMatrix: ("rows", "cols", "entries"),
    HomologySummary: ("groups", "top_dim", "reduced", "critical"),
    Certificate: ("kind", "apex", "steps", "homology"),
    BasisCertificate: ("element", "kind", "apex", "size"),
    McCordReport: ("certificates", "homology"),
    ComponentReport: ("elements", "status", "core"),
    CWTypeReport: ("components", "verdict"),
}
COMPARED = {**FIELDS, HomologySummary: ("groups", "reduced")}
IDS = [type(v).__name__ for v, _ in PINNED]


def test_every_value_class_is_pinned():
    assert len(FIELDS) == 16
    assert {type(v) for v, _ in PINNED} == set(FIELDS)


@pytest.mark.parametrize("value, text", PINNED, ids=IDS)
def test_repr_is_the_data_class_form(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, text", PINNED, ids=IDS)
def test_equality_and_hash_by_value(value, text):
    twin = copy.copy(value)
    assert twin is not value
    assert twin == value and not twin != value
    key = tuple(getattr(value, f) for f in COMPARED[type(value)])
    assert hash(value) == hash(twin) == hash(key)
    # only the same class compares; anything else falls back to identity
    assert value.__eq__(key) is NotImplemented
    assert value != key and value != object()
    for other, _ in PINNED:
        if type(other) is not type(value):
            assert value != other


@pytest.mark.parametrize("value, text", PINNED, ids=IDS)
def test_assignment_and_deletion_raise(value, text):
    for name in FIELDS[type(value)]:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, before)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, text", PINNED, ids=IDS)
def test_copies_and_pickles_keep_the_value(value, text):
    for back in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(back) is type(value)
        assert back == value and repr(back) == text


def test_same_values_in_another_class_are_not_equal():
    cert, res = Certificate("k", None, (), None), CollapseResult("k", None, (), None)
    assert cert._key() == res._key()
    assert cert != res and not cert == res


def test_homology_summary_ignores_top_dim_and_critical():
    other = HomologySummary(H.groups, 7)
    assert other == H and hash(other) == hash(H) == hash((H.groups, False))
    assert other.critical == () and other.reduced is False
    assert H != HomologySummary(H.groups, 2, True, H.critical)
    assert H != HomologySummary((), 2, False, H.critical)
    with pytest.raises(TypeError):
        HomologySummary(H.groups)


def test_defaults_and_keyword_arguments():
    assert ArcSet() == ArcSet(False, False, ()) == ArcSet(has_zero=False, arcs=())
    assert GPReport(ok=True) == GPReport(True, None, (), ())
    assert MirrorReport(ok=False).violation is None
    assert GeometricReport(ok=True, notes=("n",)).a1_violations == ()
    assert CollapseResult(collapsible=True, apex="x") == CollapseResult(True, None, "x", ())
    assert IntegerMatrix(rows=1, cols=2).entries == ()
    assert Certificate(kind="obstruction", homology=H).steps == ()
    assert GPFunction(n=2, r=2).entries == ()
    assert Transversal(n=1, r=1, tuples=((1,),)).d == 1
    assert TPhi(angle=Fraction(3, 2)) == TPhi(Fraction(1, 2))
    assert BasisCertificate(element="a", kind="k", apex=None, size=1).apex is None
    assert ComponentReport(elements=(), status="s", core=()).core == ()
    assert CWTypeReport(components=(), verdict="CW type").verdict == "CW type"
    assert McCordReport(certificates=(), homology=H).homology == H


def test_tphi_angles_are_taken_mod_one():
    assert TPhi(Fraction(5, 4)).angle == Fraction(1, 4)
    assert TPhi(Fraction(-1, 3)).angle == Fraction(2, 3)
    assert TPhi(-1).angle == 0 and type(TPhi(-1).angle) is Fraction
    assert TPhi("3/2") == TPhi(Fraction(1, 2))
    assert TPhi(None).angle is None and TPhi(None).is_zero
    assert hash(TPhi(Fraction(7, 4))) == hash(TPhi(Fraction(3, 4))) == hash((Fraction(3, 4),))
    # a float is refused: 0.1 is 3602879701896397/36028797018963968, not 1/10,
    # and 1/10 + 3/5 holds zero where the float sum would not
    assert unit("1/10") == unit(1, 10) == unit(Fraction(1, 10)) == TPhi(Fraction(11, 10))
    assert contains_zero([unit(1, 10), unit(3, 5)])
    for make, message in [
        (lambda: TPhi(0.1), "0.1 is a float"),
        (lambda: TPhi(-0.5), "-0.5 is a float"),
        (lambda: unit(0.1), "0.1 is a float"),
        (lambda: unit(0.5, 2), "0.5 is a float"),
        (lambda: unit(1, 10.0), "10.0 is a float"),
        # every other refusal is a ValueError that names the value too,
        # not Fraction's TypeError or ZeroDivisionError
        (lambda: TPhi([1]), r"\[1\] is not a rational number"),
        (lambda: TPhi(1j), r"1j is not a rational number"),
        (lambda: TPhi("x"), "'x' is not a rational number"),
        (lambda: TPhi("1/0"), "'1/0' is not a rational number"),
        (lambda: unit(1, 0), r"unit\(1, 0\) has a zero denominator"),
        (lambda: unit("1", "0/3"), r"unit\('1', '0/3'\) has a zero denominator"),
        (lambda: unit(1, "y"), "'y' is not a rational number"),
        (lambda: TPhi(True), "True is a bool"),
        (lambda: unit(False, 3), "False is a bool"),
    ]:
        with pytest.raises(ValueError, match=message):
            make()


def test_arcsets_are_canonical():
    q = Fraction(1, 4)
    # a wrapping arc folds back into one arc; overlapping arcs merge
    assert ArcSet(arcs=((3 * q, 2 * q),)).arcs == ((3 * q, 2 * q),)
    assert ArcSet(arcs=((0, q), (q / 2, q))).arcs == ((0, q + q / 2),)
    assert ArcSet(arcs=((q, q), (5 * q, 0))).arcs == ((q, q),)
    assert ArcSet(arcs=((2 * q, q), (0, q))).arcs == ((0, q), (2 * q, q))
    # arcs that cover the circle make the set full, and full drops its arcs
    full = ArcSet(has_zero=True, full=True)
    assert ArcSet(True, False, ((0, 1),)) == full
    assert ArcSet(True, False, ((0, 2 * q), (2 * q, 2 * q))) == full
    assert ArcSet(True, True, ((0, q),)) == full and full.arcs == ()
    # every arc is checked, wherever it sits and also under full=True
    for kwargs, message in [
        ({"arcs": ((0, -q),)}, "arc length must be non-negative"),
        ({"arcs": ((0, 1), (0, -q))}, "arc length must be non-negative"),
        ({"full": True, "arcs": ((0, -q),)}, "arc length must be non-negative"),
        ({"arcs": ((0.5, q),)}, "0.5 is a float"),
        ({"arcs": ((0, q), (q, 0.25))}, "0.25 is a float"),
        ({"full": True, "arcs": ((0, 1.0),)}, "1.0 is a float"),
    ]:
        with pytest.raises(ValueError, match=message):
            ArcSet(**kwargs)
    one = ArcSet._one_arc(q, q / 2)
    assert type(one) is ArcSet and one == ArcSet(arcs=((q, q / 2),))
    assert (one.has_zero, one.full) == (False, False)


def test_gp_function_normalises_and_checks_its_entries():
    phi = GPFunction(3, 2, ((("2", 3), unit(1, 2)), ((1, 2), unit(0)), ((1, 3), TPhi(None))))
    assert phi.entries == (((1, 2), unit(0)), ((2, 3), unit(1, 2)))
    assert phi._map == dict(phi.entries) == phi.values
    cases = [
        ((0, 1, ()), BadArityError, "ground set must be non-empty"),
        ((2, 3, ()), BadArityError, r"arity r=3 outside 1\.\.2"),
        ((2, 2, (((1,), unit(0)),)), BadArityError, r"key \(1,\) is not an 2-tuple"),
        ((2, 1, (((3,), unit(0)),)), IndexOutOfRangeError, r"index 3 outside 1\.\.2"),
        ((2, 2, (((2, 1), unit(0)),)), BadArityError, r"key \(2, 1\) must be strictly increasing"),
        ((2, 1, (((1,), unit(0)), (("1",), unit(0)))), ValueError, r"duplicate key \(1,\)"),
        ((3, 1, (((1.7,), unit(0)),)), ValueError, r"^index 1\.7 is a float; give an int$"),
        ((3, 1, (((True,), unit(0)),)), ValueError, r"^index True is a bool; give an int$"),
        ((3, 1, (((Fraction(3, 2),), unit(0)),)), ValueError, r"^index Fraction\(3, 2\) is a Fraction"),
        # a string index takes ASCII digits only, as the file format does
        ((3, 1, ((("\u0662",), unit(0)),)), ValueError, r"^'\u0662' is not an integer in ASCII digits$"),
        ((3, 1, ((("1_0",), unit(0)),)), ValueError, r"^'1_0' is not an integer in ASCII digits$"),
    ]
    for args, error, message in cases:
        with pytest.raises(error, match=message):
            GPFunction(*args)


def test_mirrored_poset_orders_and_checks_its_assignments():
    mp = MirroredPoset(P, Q, (("b", "1"), ("a", "0")))
    assert mp.assignments == (("a", "0"), ("b", "1"))
    assert mp == MirroredPoset(P, Q, (("a", "0"), ("b", "1")))
    cases = [
        ((("a", "0"), ("c", "1")), UnknownElementError, "unknown element 'c'"),
        ((("a", "0"), ("b", "2")), UnknownElementError, "unknown element '2'"),
        ((("a", "0"), ("a", "1")), ValueError, "element 'a' assigned twice"),
        ((("a", "0"),), UnknownElementError, r"no stratum for \['b'\]"),
    ]
    for assignments, error, message in cases:
        with pytest.raises(error, match=message):
            MirroredPoset(P, Q, assignments)


def test_integer_matrix_sorts_and_checks_its_entries():
    m = IntegerMatrix(2, 3, [(1, 2, 5), (0, 1, -1)])
    assert m.entries == ((0, 1, -1), (1, 2, 5))
    assert m == IntegerMatrix.from_dense(m.to_dense())
    cases = [
        ((2, 2, ((2, 0, 1),)), r"entry \(2,0\) outside 2x2"),
        ((2, 2, ((0, -1, 1),)), r"entry \(0,-1\) outside 2x2"),
        ((2, 2, ((0, 0, 0),)), "explicit zero entry"),
        ((2, 2, ((0, 0, 1), (0, 0, 2))), r"duplicate entry at \(0,0\)"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            IntegerMatrix(*args)


def test_value_classes_are_slotted():
    for value, _ in PINNED:
        assert not hasattr(value, "__dict__"), type(value)
