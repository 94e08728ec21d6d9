"""The input value types are immutable once built, and stay hashable by value."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import wph
from wph import (
    HypersurfaceFamily,
    JordanEntry,
    JordanTable,
    PolynomialSupport,
    WeightedPolynomial,
    WeightSystem,
)

KLEIN = HypersurfaceFamily([1, 1, 1], 4)
KLEIN_ROWS = [[1, 3, 0], [0, 1, 3], [3, 0, 1]]


def test_reprs_name_the_value():
    support = PolynomialSupport(KLEIN, KLEIN_ROWS)
    assert repr(WeightSystem([3, 2, 1])) == "WeightSystem([3, 2, 1])"
    assert repr(support) == "PolynomialSupport(HypersurfaceFamily([1, 1, 1], degree=4), 3 rows)"
    assert repr(WeightedPolynomial.from_support(support)) == (
        "WeightedPolynomial(weights=[1, 1, 1], degree=4, 3 terms)"
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: WeightSystem([3, 2, 1]),
        lambda: HypersurfaceFamily([3, 1, 1], 6),
        lambda: PolynomialSupport(KLEIN, KLEIN_ROWS),
        lambda: WeightedPolynomial.from_support(PolynomialSupport(KLEIN, KLEIN_ROWS)),
    ],
    ids=["WeightSystem", "HypersurfaceFamily", "PolynomialSupport", "WeightedPolynomial"],
)
def test_fields_cannot_be_assigned(build):
    value = build()
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))


def test_mutation_examples_are_refused():
    w = WeightSystem([3, 2, 1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.original = (9, 9)
    assert w.original == w.canonical == (3, 2, 1)
    fam = HypersurfaceFamily([3, 1, 1], 6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.degree = -4
    assert fam.degree == 6


def test_equal_instances_find_each_other_in_sets():
    systems = {WeightSystem([3, 2, 1])}
    assert WeightSystem((3, 2, 1)) in systems
    assert WeightSystem([1, 2, 3]) not in systems
    families = {HypersurfaceFamily(WeightSystem([3, 1, 1]), 6)}
    assert HypersurfaceFamily([3, 1, 1], 6) in families
    assert HypersurfaceFamily([3, 1, 1], 7) not in families


def test_exported_dataclasses_are_frozen():
    classes = [obj for _, obj in inspect.getmembers(wph, inspect.isclass)]
    value_types = [c for c in classes if dataclasses.is_dataclass(c)]
    assert {
        WeightSystem,
        HypersurfaceFamily,
        PolynomialSupport,
        WeightedPolynomial,
        JordanTable,
        JordanEntry,
    } <= set(value_types)
    mutable = [c.__name__ for c in value_types if not c.__dataclass_params__.frozen]
    assert not mutable, mutable


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: JordanTable({3: 360}), "entry for N=3"),
        (lambda: JordanTable({3: JordanEntry(360, None)}), "provenance for N=3"),
        (lambda: JordanTable([(3, JordanEntry(360, "fixture"))]), "entries"),
        (lambda: PolynomialSupport([1, 1, 1], KLEIN_ROWS), "family"),
        (lambda: wph.IntMatrix(2, 2, 5), "matrix entries"),
        (lambda: WeightedPolynomial([1, 1], 2, 5), "terms"),
        (lambda: PolynomialSupport(KLEIN, 5), "support rows"),
    ],
    ids=[
        "table-value", "table-provenance", "table-list", "support-family", "matrix-entries",
        "polynomial-terms", "support-rows",
    ],
)
def test_wrong_container_types_raise_validation_error(build, field):
    with pytest.raises(wph.ValidationError, match=field):
        build()


def test_polynomial_wraps_plain_weights():
    terms = [(1, (2, 0)), (3, (1, 1))]
    f = WeightedPolynomial([1, 1], 2, terms)
    assert f.weights == WeightSystem([1, 1])
    assert f.terms == WeightedPolynomial(WeightSystem([1, 1]), 2, terms).terms
    with pytest.raises(wph.ValidationError, match="weight"):
        WeightedPolynomial([1, 0], 2, terms)
