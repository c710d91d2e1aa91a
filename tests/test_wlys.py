"""Tests for weighted-homogeneous decomposition and admissibility."""

import random
from fractions import Fraction

import pytest

from singcalc.errors import INDETERMINATE, InputError
from singcalc.wlys import (
    TrivarPoly,
    WeightedPoint,
    WeightVector,
    point_from_json,
    trivar_from_json,
    trivar_to_json,
    wdecompose,
    wlys_admissibility,
)

# y^2 z^4 - x^5 z^2 + y^8 + x^9 + z^6
SUSPENSION_GERM = TrivarPoly(
    {
        (0, 2, 4): 1,
        (5, 0, 2): -1,
        (0, 8, 0): 1,
        (9, 0, 0): 1,
        (0, 0, 6): 1,
    }
)

# x^5 + y^3 z + z^11 + x^2 y^2
QUINTIC_GERM = TrivarPoly(
    {
        (5, 0, 0): 1,
        (0, 3, 1): 1,
        (0, 0, 11): 1,
        (2, 2, 0): 1,
    }
)


# --------------------------------------------------------------- wdecompose


def test_decompose_suspension_germ():
    out = wdecompose(SUSPENSION_GERM, WeightVector(2, 2, 3))
    assert out.d == 16
    assert out.k == 2
    assert [m for m, _ in out.parts] == [16, 18]
    assert out.part(16) == TrivarPoly({(0, 2, 4): 1, (5, 0, 2): -1, (0, 8, 0): 1})
    assert out.part(18) == TrivarPoly({(9, 0, 0): 1, (0, 0, 6): 1})


def test_decompose_quintic_heavy_weights():
    out = wdecompose(QUINTIC_GERM, WeightVector(33, 50, 15))
    assert out.d == 165
    assert out.k == 1
    # the x^2 y^2 term sits at weight 166
    assert out.part(166) == TrivarPoly({(2, 2, 0): 1})


def test_decompose_quintic_light_weights():
    out = wdecompose(QUINTIC_GERM, WeightVector(2, 3, 1))
    assert out.d == 10
    assert out.k == 1
    # z^11 is the only weight-11 monomial
    assert out.part(11) == TrivarPoly({(0, 0, 11): 1})


def test_decompose_homogeneous_reports_none():
    f = TrivarPoly({(3, 0, 0): 1, (0, 3, 0): -2})
    out = wdecompose(f, WeightVector(1, 1, 1))
    assert out.d == 3
    assert out.k is None


def test_decompose_rejects_zero_and_units():
    with pytest.raises(InputError, match="nonzero"):
        wdecompose(TrivarPoly({}), WeightVector(1, 1, 1))
    with pytest.raises(InputError, match="origin"):
        wdecompose(TrivarPoly({(0, 0, 0): 1, (1, 0, 0): 1}), WeightVector(1, 1, 1))


def test_decompose_parts_resum_and_homogeneous():
    rng = random.Random(20)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 10)):
            key = (rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6))
            if key == (0, 0, 0):
                continue
            terms[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        terms = {k: c for k, c in terms.items() if c != 0}
        if not terms:
            continue
        f = TrivarPoly(terms)
        w = WeightVector(*rng.choice([(1, 1, 1), (2, 2, 3), (2, 3, 1), (5, 3, 1)]))
        out = wdecompose(f, w)
        total = {}
        for m, part in out.parts:
            assert not part.is_zero()
            for key, c in part.terms:
                assert w.degree_of(key) == m
                assert key not in total, f"monomial {key} in two parts"
                total[key] = c
        assert TrivarPoly(total) == f
        degrees = [m for m, _ in out.parts]
        assert out.d == degrees[0]
        if out.k is not None:
            assert out.k == degrees[1] - degrees[0]
        else:
            assert len(degrees) == 1


# -------------------------------------------------------------- admissibility


def test_admissibility_suspension_example():
    points = [
        WeightedPoint(coords=(0, 0, 1), clause="ii"),
        WeightedPoint(coords=(1, 0, 0), clause="ii"),
    ]
    out = wlys_admissibility(SUSPENSION_GERM, WeightVector(2, 2, 3), points)
    assert out.pop("parts") == wdecompose(SUSPENSION_GERM, WeightVector(2, 2, 3)).parts
    assert out == {"admissible": True, "d": 16, "k": 2, "failures": []}


def test_admissibility_fails_without_z6():
    f = TrivarPoly({k: c for k, c in SUSPENSION_GERM.as_dict().items() if k != (0, 0, 6)})
    points = [WeightedPoint(coords=(0, 0, 1), clause="ii")]
    out = wlys_admissibility(f, WeightVector(2, 2, 3), points)
    assert out["admissible"] is False
    assert out["d"] == 16 and out["k"] == 2
    assert out["failures"] == ["point [0:0:1] (clause ii) lies on C_18"]


def test_admissibility_vacuous():
    out = wlys_admissibility(QUINTIC_GERM, WeightVector(2, 3, 1), [])
    assert out.pop("parts") == wdecompose(QUINTIC_GERM, WeightVector(2, 3, 1)).parts
    assert out == {"admissible": True, "d": 10, "k": 1, "failures": []}


def test_admissibility_homogeneous_indeterminate():
    f = TrivarPoly({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    out = wlys_admissibility(f, WeightVector(1, 1, 1), [WeightedPoint(coords=(1, -1, 0))])
    assert out["admissible"] is INDETERMINATE
    assert out["k"] is None


def test_admissibility_reduces_to_sis_criterion():
    # Unit weights, k=1: the check is exactly "no singular point of the
    # cone lies on the next form".  The cuspidal cubic cone x^3 - y^2 z
    # has its singular point at [0:0:1].
    cusp_cone = {(3, 0, 0): 1, (0, 2, 1): -1}
    good = TrivarPoly({**cusp_cone, (0, 0, 4): 1})  # z^4 misses the point
    bad = TrivarPoly({**cusp_cone, (4, 0, 0): 1})  # x^4 vanishes there
    p = WeightedPoint(coords=(0, 0, 1), clause="i")
    w = WeightVector(1, 1, 1)
    assert wlys_admissibility(good, w, [p])["admissible"] is True
    out = wlys_admissibility(bad, w, [p])
    assert out["admissible"] is False
    assert out["failures"] == ["point [0:0:1] (clause i) lies on C_4"]


def test_weighted_point_validation():
    with pytest.raises(InputError, match="nonzero"):
        WeightedPoint(coords=(0, 0, 0))
    with pytest.raises(InputError, match="clause"):
        WeightedPoint(coords=(1, 0, 0), clause="iv")
    with pytest.raises(InputError, match="3 coordinates"):
        WeightedPoint(coords=(1, 0))


def test_weight_vector_validation():
    with pytest.raises(InputError, match="gcd"):
        WeightVector(2, 2, 4)
    with pytest.raises(InputError, match="positive"):
        WeightVector(0, 1, 1)


# -------------------------------------------------------------- serialization


def test_trivar_json_round_trip():
    data = trivar_to_json(SUSPENSION_GERM)
    assert trivar_from_json(data) == SUSPENSION_GERM
    assert data[0] == {"i": 0, "j": 0, "l": 6, "c": "1"}


def test_trivar_json_merges_duplicates():
    out = trivar_from_json(
        [
            {"i": 1, "j": 0, "l": 0, "c": "1/2"},
            {"i": 1, "j": 0, "l": 0, "c": "1/2"},
        ]
    )
    assert out == TrivarPoly({(1, 0, 0): 1})


def test_trivar_json_malformed():
    with pytest.raises(InputError):
        trivar_from_json([{"i": 1, "j": 0, "c": "1"}])
    with pytest.raises(InputError):
        trivar_from_json({"i": 1})


def test_point_json():
    p = point_from_json({"coords": ["0", "0", "1"], "clause": "ii", "flags": ["transversal"]})
    assert p.coords == (0, 0, 1)
    assert p.clause == "ii"
    assert p.flags == (("transversal", True),)
    with pytest.raises(InputError):
        point_from_json({"coords": ["1", "2"]})


def test_poly_str():
    assert str(TrivarPoly({(0, 2, 4): 1, (5, 0, 2): -1})) == "y^2z^4 - x^5z^2"
    assert str(TrivarPoly({})) == "0"
