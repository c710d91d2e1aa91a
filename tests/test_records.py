"""The record classes keep the contract of the frozen dataclasses they
replace: the same positional and keyword signatures and defaults,
field-wise ==, hash and repr, and read-only fields.
"""

import copy
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest

from singcalc import curves, cyclo, monodromy, qres2d, quotient, weightfilt, wlys
from singcalc.cyclo import CycloProduct, DensePoly
from singcalc.qres2d import BivarPoly, QResolutionGraph, SmoothResolutionGraph
from singcalc.wlys import TrivarPoly

README = Path(__file__).resolve().parent.parent / "README.md"

CUSP = BivarPoly({(2, 0): 1, (0, 3): -1})
CUSP_DELTA = CycloProduct({6: 1, 1: 1, 2: -1, 3: -1})  # t^2 - t + 1


def _frozen():
    return [
        CUSP_DELTA,
        DensePoly((1, -1, 1)),
        CUSP,
        qres2d.Chart((1, 0, 0), CUSP),
        QResolutionGraph({"S1": {"id": "S1"}}, [], ["S1"]),
        SmoothResolutionGraph({}, [("E1", "S1")], []),
        weightfilt.WeightFiltration(0, ((0, ()),)),
        TrivarPoly({(1, 0, 0): 1}),
    ]


FROZEN = _frozen()


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(record):
    for name in type(record).__slots__:
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.undeclared = 1


def _declared():
    modules = (curves, cyclo, monodromy, qres2d, quotient, weightfilt, wlys)
    return {
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and "__slots__" in vars(cls)
    }


def test_every_record_class_is_covered():
    frozen = {type(r) for r in FROZEN}
    assert _declared() == frozen
    assert len(frozen) == 8


def test_readme_counts_and_names_every_record():
    # the Start-up section's sentence "The package's N records are ...",
    # up to its full stop, gives the count and names each class
    text = " ".join(README.read_text().split())
    match = re.search(r"The package's (\d+) records are (.*?)\. ", text)
    assert match, "README has no sentence 'The package's N records are ...'"
    declared = _declared()
    assert int(match.group(1)) == len(declared)
    named = set(re.findall(r"`(\w+)`", match.group(2)))
    assert {cls.__name__ for cls in declared} <= named


@pytest.mark.parametrize(
    "make, same, other",
    [
        (lambda: CycloProduct({1: 1, 2: 0}), CycloProduct({1: 1}), CycloProduct({2: 1})),
        (lambda: DensePoly([1, 2, 0]), DensePoly((1, 2)), DensePoly((2, 1))),
        (
            lambda: BivarPoly({(0, 2): Fraction(1, 2), (3, 0): "-3/4"}),
            BivarPoly({(0, 2): 2, (3, 0): -3}),
            BivarPoly({(0, 2): 2, (3, 0): 3}),
        ),
        (
            lambda: TrivarPoly({(1, 0, 0): 3, (0, 1, 0): Fraction(1, 2)}),
            TrivarPoly({(0, 1, 0): "1/2", (1, 0, 0): Fraction(3)}),
            TrivarPoly({(1, 0, 0): 3}),
        ),
    ],
    ids=["CycloProduct", "DensePoly", "BivarPoly", "TrivarPoly"],
)
def test_equality_and_hash_by_fields(make, same, other):
    record = make()
    assert record is not same
    assert record == same and not record != same
    assert record != other
    assert hash(record) == hash(same)
    # the hash a dataclass gives: that of the tuple of fields
    assert hash(record) == hash(tuple(getattr(record, n) for n in type(record).__slots__))
    assert len({record, same, other}) == 2
    assert record != tuple(getattr(record, n) for n in type(record).__slots__)


def test_records_of_different_classes_differ():
    assert QResolutionGraph({}, [], []) != SmoothResolutionGraph({}, [], [])
    assert CycloProduct({1: 1}) != DensePoly((1,))


def test_repr_lists_the_fields():
    assert repr(TrivarPoly({(1, 2, 3): 1})) == "TrivarPoly(terms=(((1, 2, 3), 1),))"
    assert repr(QResolutionGraph({}, [], ["S1"])) == (
        "QResolutionGraph(vertices={}, edges=[], strict_vertices=['S1'])"
    )
    assert repr(qres2d.Chart((2, 1, 1), CUSP, x=("E1", 3))) == (
        f"Chart(group=(2, 1, 1), equation={CUSP!r}, x=('E1', 3), y=None)"
    )


def test_defaults_and_keywords():
    chart = qres2d.Chart((1, 0, 0), equation=CUSP)
    assert (chart.x, chart.y) == (None, None)
    assert (CycloProduct().factors, DensePoly().coeffs) == ((), (0,))


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_records_copy_and_pickle(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin is not record
        assert type(twin) is type(record)
        assert twin == record and repr(twin) == repr(record)
