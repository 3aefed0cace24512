"""The contract of the package's value classes: equality, hashing, immutability, pickling and copying."""

import copy
import pickle

import pytest

from spectraclass.classify import BatchResult, Classification, MembershipVector
from spectraclass.errors import DomainError
from spectraclass.fuzzy import And, MembershipFn, Not, Or, Term
from spectraclass.rulebase import ClassRule, Diagnostic, Options, builtin_basalt
from spectraclass.spatial import ClassificationMap, MapCell
from spectraclass.spectrum import IonTarget, Spectrum
from spectraclass.stats import ReportRow, StatBin, StatDB

FE = ("Fe", 55.954)

# name -> (a function building an instance, frozen, hashable)
CASES = {
    "MembershipVector": (lambda: MembershipVector({"A": 0.25, "B": 0.5}), True, False),
    "Classification": (lambda: Classification("A", 0.5), True, True),
    "BatchResult": (lambda: BatchResult("s", MembershipVector({"A": 0.5}), Classification("A", 0.5)),
                    False, False),
    "BatchResult-error": (lambda: BatchResult("s", None, None, error="bad"), False, False),
    "MembershipFn": (lambda: MembershipFn("low", 1.0, 5.0), True, True),
    "Term": (lambda: Term("fe"), True, True),
    "And": (lambda: And((Term("a"), Not(Term("b")))), True, True),
    "Or": (lambda: Or((Term("a"), Term("b"), Term("c"))), True, True),
    "Not": (lambda: Not(Term("a")), True, True),
    "Options": (lambda: Options(0.1, 0.6, ("K",)), True, True),
    "ClassRule": (lambda: ClassRule("X", "X-phase", {"fe": (IonTarget(*FE), MembershipFn("high", 1, 40))},
                                    Term("fe")), False, False),
    "RuleBase": (builtin_basalt, False, False),
    "Diagnostic": (lambda: Diagnostic("warning", "unused term"), True, True),
    "MapCell": (lambda: MapCell("A", 0.75, True), False, False),
    "ClassificationMap": (lambda: ClassificationMap([MapCell("A", 0.75), MapCell("UNK", 0.5)]), False, False),
    "IonTarget": (lambda: IonTarget(*FE), True, True),
    "Spectrum": (lambda: Spectrum(((10.0, 2.0), (55.954, 40.0)), id="s1"), True, True),
    "StatBin": (lambda: StatBin(26.98, 2, 12.0, 74.0, 7.0, 5.0), False, False),
    "StatDB": (lambda: StatDB([StatBin(26.98, 2, 12.0, 74.0, 7.0, 5.0)], 2, 0.05), False, False),
    "ReportRow": (lambda: ReportRow(26.98, 6.0, 3.0, 2.0, 2, 2, "key-candidate"), False, False),
}


@pytest.mark.parametrize("name", CASES)
def test_value_class_contract(name):
    make, frozen, hashable = CASES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != object()
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    fields = [getattr(a, field) for field in a._fields]
    if frozen:
        for field in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, field, None)
            with pytest.raises(AttributeError):
                delattr(a, field)
        with pytest.raises(AttributeError):
            a.unknown_field = None
        assert [getattr(a, field) for field in a._fields] == fields and a == b
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is type(a) and clone == a


def test_a_field_that_differs_breaks_equality():
    assert Classification("A", 0.5) != Classification("A", 0.25)
    assert MapCell("A", 0.5) != MapCell("A", 0.5, True)
    assert And((Term("a"), Term("b"))) != Or((Term("a"), Term("b")))  # same fields, other class


def test_repr_names_each_field():
    assert repr(Classification("A", 0.5)) == "Classification(label='A', confidence=0.5)"
    assert repr(Not(Term("a"))) == "Not(child=Term(name='a'))"


def test_options_replace_checks_again():
    options = Options(0.1, 0.6, ("K",))
    assert options.replace(nu=0.9) == Options(0.1, 0.9, ("K",))
    assert options == Options(0.1, 0.6, ("K",))
    with pytest.raises(TypeError):
        options.replace(mu=0.9)
    with pytest.raises(DomainError, match=r"^nu out of range \[0,1\]: 1\.5$"):
        options.replace(nu=1.5)


def test_unpickled_spectrum_is_checked_and_works():
    s = pickle.loads(pickle.dumps(Spectrum(((10, 2), (55.954, 40)), id="s1")))
    assert s.points == ((10.0, 2.0), (55.954, 40.0)) and s.mzs == [10.0, 55.954] and s.max_abundance == 40.0
    assert s.abundances == [2.0, 40.0] and s.id == "s1"
