"""Tests for weighted-homogeneous decomposition and admissibility."""

import json
import random
from fractions import Fraction

import pytest

from singcalc import cli
from singcalc.errors import INDETERMINATE, InputError
from singcalc.schema import rational, validate
from singcalc.wlys import (
    degree_of,
    evaluate,
    trivar_from_json,
    trivar_to_json,
    wdecompose,
    wlys_admissibility,
)

# y^2 z^4 - x^5 z^2 + y^8 + x^9 + z^6
SUSPENSION_GERM = {
    (0, 2, 4): 1,
    (5, 0, 2): -1,
    (0, 8, 0): 1,
    (9, 0, 0): 1,
    (0, 0, 6): 1,
}

# x^5 + y^3 z + z^11 + x^2 y^2
QUINTIC_GERM = {
    (5, 0, 0): 1,
    (0, 3, 1): 1,
    (0, 0, 11): 1,
    (2, 2, 0): 1,
}


# --------------------------------------------------------------- wdecompose


def test_decompose_suspension_germ():
    out = wdecompose(SUSPENSION_GERM, [2, 2, 3])
    assert out == {
        "d": 16,
        "k": 2,
        "parts": (
            (16, {(0, 2, 4): 1, (5, 0, 2): -1, (0, 8, 0): 1}),
            (18, {(9, 0, 0): 1, (0, 0, 6): 1}),
        ),
    }


def test_decompose_quintic_heavy_weights():
    out = wdecompose(QUINTIC_GERM, [33, 50, 15])
    assert (out["d"], out["k"]) == (165, 1)
    # the x^2 y^2 term sits at weight 166
    assert out["parts"][1] == (166, {(2, 2, 0): 1})


def test_decompose_quintic_light_weights():
    out = wdecompose(QUINTIC_GERM, [2, 3, 1])
    assert (out["d"], out["k"]) == (10, 1)
    # z^11 is the only weight-11 monomial
    assert out["parts"][1] == (11, {(0, 0, 11): 1})


def test_decompose_homogeneous_reports_none():
    f = {(3, 0, 0): 1, (0, 3, 0): -2}
    out = wdecompose(f, [1, 1, 1])
    assert out == {"d": 3, "k": None, "parts": ((3, f),)}


def test_decompose_rejects_zero_and_units():
    with pytest.raises(InputError, match="nonzero"):
        wdecompose({}, [1, 1, 1])
    with pytest.raises(InputError, match="origin"):
        wdecompose({(0, 0, 0): 1, (1, 0, 0): 1}, [1, 1, 1])


def test_decompose_reads_the_terms_first():
    # an int coefficient stays an int, any other becomes a Fraction, a zero
    # one is dropped, and the forms list their monomials sorted
    f = {(1, 0, 0): 3, (0, 1, 0): "1/2", (0, 0, 1): Fraction(3), (1, 1, 0): 0, (0, 2, 0): "0/5"}
    parts = wdecompose(f, [1, 1, 1])["parts"]
    assert parts == ((1, {(0, 0, 1): 3, (0, 1, 0): Fraction(1, 2), (1, 0, 0): 3}),)
    assert [(key, type(c)) for key, c in parts[0][1].items()] == [
        ((0, 0, 1), Fraction), ((0, 1, 0), Fraction), ((1, 0, 0), int)
    ]
    # a zero sum leaves no germ, and a cancelled constant term no constant
    with pytest.raises(InputError, match="nonzero"):
        wdecompose({(1, 0, 0): 0, (0, 1, 0): Fraction(0)}, [1, 1, 1])
    assert wdecompose({(0, 0, 0): 0, (2, 0, 0): 1}, [1, 1, 1])["d"] == 2
    # a negative exponent is rejected before the weights are looked at
    with pytest.raises(InputError, match=r"negative exponent in monomial \(1, -1, 0\)"):
        wdecompose({(1, -1, 0): 1}, [2, 2, 4])


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
        f = terms
        w = rng.choice([(1, 1, 1), (2, 2, 3), (2, 3, 1), (5, 3, 1)])
        out = wdecompose(f, w)
        total = {}
        for m, part in out["parts"]:
            assert part and list(part) == sorted(part)
            for key, c in part.items():
                assert degree_of(w, key) == m
                assert key not in total, f"monomial {key} in two parts"
                total[key] = c
        assert total == f
        degrees = [m for m, _ in out["parts"]]
        assert out["d"] == degrees[0]
        if out["k"] is not None:
            assert out["k"] == degrees[1] - degrees[0]
        else:
            assert len(degrees) == 1


# -------------------------------------------------------------- admissibility


def test_admissibility_suspension_example():
    points = [((0, 0, 1), "ii"), ((1, 0, 0), "ii")]
    out = wlys_admissibility(SUSPENSION_GERM, [2, 2, 3], points)
    assert out.pop("parts") == wdecompose(SUSPENSION_GERM, [2, 2, 3])["parts"]
    assert out == {"admissible": True, "d": 16, "k": 2, "failures": []}


def test_admissibility_fails_without_z6():
    f = {k: c for k, c in SUSPENSION_GERM.items() if k != (0, 0, 6)}
    points = [((0, 0, 1), "ii")]
    out = wlys_admissibility(f, [2, 2, 3], points)
    assert out["admissible"] is False
    assert out["d"] == 16 and out["k"] == 2
    assert out["failures"] == ["point [0:0:1] (clause ii) lies on C_18"]


def test_admissibility_vacuous():
    out = wlys_admissibility(QUINTIC_GERM, [2, 3, 1], [])
    assert out.pop("parts") == wdecompose(QUINTIC_GERM, [2, 3, 1])["parts"]
    assert out == {"admissible": True, "d": 10, "k": 1, "failures": []}


def test_admissibility_homogeneous_indeterminate():
    f = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
    out = wlys_admissibility(f, [1, 1, 1], [((1, -1, 0), "i")])
    assert out["admissible"] is INDETERMINATE
    assert out["k"] is None


def test_admissibility_reduces_to_sis_criterion():
    # Unit weights, k=1: the check is exactly "no singular point of the
    # cone lies on the next form".  The cuspidal cubic cone x^3 - y^2 z
    # has its singular point at [0:0:1].
    cusp_cone = {(3, 0, 0): 1, (0, 2, 1): -1}
    good = {**cusp_cone, (0, 0, 4): 1}  # z^4 misses the point
    bad = {**cusp_cone, (4, 0, 0): 1}  # x^4 vanishes there
    p = ((0, 0, 1), "i")
    w = [1, 1, 1]
    assert wlys_admissibility(good, w, [p])["admissible"] is True
    out = wlys_admissibility(bad, w, [p])
    assert out["admissible"] is False
    assert out["failures"] == ["point [0:0:1] (clause i) lies on C_4"]


def test_weighted_point_validation(capsys, tmp_path):
    # the schema rejects a clause other than i, ii, iii and a point without
    # 3 coordinates; `wlys` rejects the all-zero point
    point = "wlys-input.schema.json#/properties/points/items"
    with pytest.raises(InputError, match=r'bad \$\.clause: expected one of "i", "ii", "iii"'):
        validate({"coords": [1, 0, 0], "clause": "iv"}, point)
    with pytest.raises(InputError, match=r"bad \$\.coords: expected 3 or more entries"):
        validate({"coords": [1, 0]}, point)
    doc = {"poly": trivar_to_json(SUSPENSION_GERM), "weights": [2, 2, 3]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({**doc, "points": [{"coords": [0, "0", "0/3"]}]}))
    assert cli.main(["wlys", "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: point must have a nonzero coordinate\n"


def test_weight_vector_validation():
    with pytest.raises(InputError, match="gcd"):
        wdecompose(SUSPENSION_GERM, [2, 2, 4])
    with pytest.raises(InputError, match="positive"):
        wdecompose(SUSPENSION_GERM, [0, 1, 1])


# -------------------------------------------------------------- serialization


def test_trivar_json_round_trip():
    data = trivar_to_json(SUSPENSION_GERM)
    assert trivar_from_json(data) == SUSPENSION_GERM
    assert data[0] == {"i": 0, "j": 0, "l": 6, "c": "1"}


def test_integer_coefficients_stay_ints():
    f = trivar_from_json(
        [
            {"i": 2, "j": 0, "l": 0, "c": 3},
            {"i": 0, "j": 3, "l": 0, "c": "-5"},
            {"i": 0, "j": 0, "l": 7, "c": "1/2"},
        ]
    )
    assert [type(c) for _, c in sorted(f.items())] == [Fraction, int, int]
    parts = wdecompose(f, [3, 2, 1])["parts"]
    assert [(m, [type(c) for c in part.values()]) for m, part in parts] == [
        (6, [int, int]),
        (7, [Fraction]),
    ]
    as_fractions = {key: Fraction(c) for key, c in f.items()}
    assert as_fractions == f
    assert trivar_to_json(as_fractions) == trivar_to_json(f)
    assert evaluate(as_fractions, 1, "1/2", 2) == evaluate(f, 1, "1/2", 2) == Fraction(531, 8)


def test_trivar_json_merges_duplicates():
    out = trivar_from_json(
        [
            {"i": 1, "j": 0, "l": 0, "c": "1/2"},
            {"i": 1, "j": 0, "l": 0, "c": "1/2"},
        ]
    )
    assert out == {(1, 0, 0): 1}


def test_trivar_json_malformed():
    # the schema rejects what the converter would not know how to read
    poly = "wlys-input.schema.json#/properties/poly"
    with pytest.raises(InputError, match=r"no l in \$\[0\]"):
        trivar_from_json(validate([{"i": 1, "j": 0, "c": "1"}], poly))
    with pytest.raises(InputError, match="expected a JSON array"):
        trivar_from_json(validate({"i": 1}, poly))
    # a converter locates its errors in the whole wlys input
    terms = [{"i": 1, "j": 0, "l": 0, "c": 1}, {"i": 0, "j": 1, "l": 0, "c": "1/0"}]
    with pytest.raises(InputError, match=r'bad \$\.poly\[1\]\.c: zero denominator in "1/0"'):
        trivar_from_json(validate(terms, poly))


def test_point_json():
    # clause and flags take the schema's defaults
    point = "wlys-input.schema.json#/properties/points/items"
    p = validate({"coords": [1, "1/2", 0]}, point)
    assert p == {"coords": [1, "1/2", 0], "clause": "i", "flags": []}
    # a point of a report is (coords, clause), coords read as exact rationals;
    # its label writes each as its str()
    coords = tuple(rational(x) for x in p["coords"])
    assert coords == (1, Fraction(1, 2), 0)
    f = {(0, 0, 2): 1, (3, 0, 0): 1, (0, 3, 0): -8}  # z^2 + x^3 - 8y^3
    out = wlys_admissibility(f, [1, 1, 1], [(coords, p["clause"])])
    assert out["failures"] == ["point [1:1/2:0] (clause i) lies on C_3"]


def _evaluate_term_by_term(f, a, b, c):
    """The value of f at (a, b, c) as a sum of Fraction terms."""
    total = Fraction(0)
    for (i, j, l), coeff in f.items():
        total += coeff * Fraction(a) ** i * Fraction(b) ** j * Fraction(c) ** l
    return total


def test_evaluate_matches_term_by_term_fractions():
    rng = random.Random(23)
    coordinates = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), "3/4"]
    for _ in range(400):
        f = {
            tuple(rng.randint(0, 7) for _ in range(3)): Fraction(
                rng.randint(-20, 20), rng.randint(1, 6)
            )
            for _ in range(rng.randint(0, 8))
        }
        point = [rng.choice(coordinates) for _ in range(3)]
        value = evaluate(f, *point)
        assert type(value) is Fraction
        assert value == _evaluate_term_by_term(f, *point), (f, point)
    assert evaluate(SUSPENSION_GERM, 0, 0, 0) == 0
    assert evaluate({(0, 0, 0): 3}, 0, 0, 0) == 3
