"""Tests for quotient-singularity normal forms and HJ chains.

normalize_type is checked against an invariant-monomial oracle: two
diagonal quotient symbols are isomorphic as germs exactly when their
algebras of invariant monomials match after factoring out the
pseudo-reflection powers, which the oracle compares directly on a box
of exponents.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singcalc.errors import InputError, NonIntegralMultiplicity, Unsupported
from singcalc.quotient import (
    chain_multiplicities,
    continued_fraction,
    hj_resolve,
    normalize_type,
    symbol,
    wblowup2,
)


def test_continued_fraction_examples():
    assert continued_fraction(Fraction(4, 3)) == [2, 2, 2]
    assert continued_fraction(Fraction(5)) == [5]
    assert continued_fraction(Fraction(7, 5)) == [2, 2, 3]
    with pytest.raises(InputError):
        continued_fraction(Fraction(1))
    with pytest.raises(InputError):
        continued_fraction(Fraction(2, 3))


def test_continued_fraction_of_n_plus_1_over_n():
    for n in range(1, 31):
        assert continued_fraction(Fraction(n + 1, n)) == [2] * n


def _evaluate_cf(b):
    val = Fraction(b[-1])
    for c in reversed(b[:-1]):
        val = c - 1 / val
    return val


@given(st.integers(min_value=2, max_value=400), st.integers(min_value=1, max_value=399))
def test_continued_fraction_round_trip(d, beta):
    if beta >= d:
        return
    q = Fraction(d, beta)
    b = continued_fraction(q)
    assert all(c >= 2 for c in b)
    assert _evaluate_cf(b) == q


def _fraction_continued_fraction(q):
    """The ceiling expansion by its definition, stepping on Fractions."""
    out = []
    while True:
        c = math.ceil(q)
        out.append(c)
        if c == q:
            return out
        q = 1 / (c - q)


def test_continued_fraction_matches_fraction_definition():
    for d in range(2, 201):
        for beta in range(1, d):
            if math.gcd(d, beta) == 1:
                q = Fraction(d, beta)
                assert continued_fraction(q) == _fraction_continued_fraction(q), (d, beta)


def test_far_correction_is_the_correction_of_the_inverse():
    # 1/d(1, beta) and 1/d(1, beta^-1) are one point with the coordinates
    # swapped: the same chain read from the other end
    for d in range(2, 61):
        for beta in range(1, d):
            if math.gcd(d, beta) == 1:
                b, _, far_correction = hj_resolve(d, beta)
                inverse_b, inverse_correction, _ = hj_resolve(d, pow(beta, -1, d))
                assert far_correction == inverse_correction, (d, beta)
                assert b == inverse_b[::-1], (d, beta)


def test_hj_resolve_examples():
    b, correction, far_correction = hj_resolve(7, 5)
    assert b == (2, 2, 3)
    assert correction == Fraction(-5, 7)
    assert far_correction == Fraction(-3, 7)
    assert hj_resolve(2, 1)[0] == (2,)
    assert hj_resolve(2, 1)[1] == Fraction(-1, 2)
    assert hj_resolve(5, 1)[0] == (5,)
    with pytest.raises(InputError):
        hj_resolve(6, 4)
    with pytest.raises(InputError):
        hj_resolve(5, 5)


def _tridiagonal_det(b):
    """Determinant of the intersection matrix (diag -b_i, off-diag 1)."""
    prev2, prev1 = Fraction(1), Fraction(-b[0])
    for c in b[1:]:
        prev2, prev1 = prev1, -c * prev1 - prev2
    return prev1


def test_hj_determinant_is_plus_minus_d():
    rng = random.Random(7)
    seen = 0
    while seen < 100:
        d = rng.randint(2, 50)
        beta = rng.randint(1, d - 1)
        if math.gcd(d, beta) != 1:
            continue
        seen += 1
        b = hj_resolve(d, beta)[0]
        assert abs(_tridiagonal_det(b)) == d, (d, beta, b)


def test_chain_multiplicities_solvable_cases():
    # the A4 chain 1/5(1,2): b=(3,2), host multiplicity 10, free far end
    assert chain_multiplicities((3, 2), 10, 0) == (4, 2)
    # cusp points: single -2 with host 6, single -3 with host 6
    assert chain_multiplicities((2,), 6, 0) == (3,)
    assert chain_multiplicities((3,), 6, 0) == (2,)
    with pytest.raises(NonIntegralMultiplicity):
        chain_multiplicities((2,), 3, 0)


@pytest.mark.parametrize(
    "args,shown",
    [
        (((2, 2), 1, 5), "[Fraction(7, 3), Fraction(11, 3)]"),
        (((2,), -4, 0), "[Fraction(-2, 1)]"),
    ],
    ids=["fractional", "negative"],
)
def test_chain_multiplicities_error_text(args, shown):
    # the message lists the rational solution, also for an integral one
    b, m_left, m_right = args
    with pytest.raises(NonIntegralMultiplicity) as err:
        chain_multiplicities(*args)
    assert str(err.value) == (
        f"chain multiplicities {shown} are not positive integers for b={b}, "
        f"ends=({m_left},{m_right})"
    )


# ------------------------------------------------------- normalize_type


def _invariant_exponents(q, box: int) -> frozenset:
    """Exponent pairs of invariant monomials of 1/d(a, b), q = (d, a, b),
    in the reflection-reduced coordinates, up to the given box size.
    Characterizes the germ."""
    d, a, b = q
    elements = {(k * a % d, k * b % d) for k in range(d)}
    hx = len({e[0] for e in elements if e[1] == 0})
    hy = len({e[1] for e in elements if e[0] == 0})
    inv = set()
    for i in range(box + 1):
        for j in range(box + 1):
            # monomial in reduced coordinates (x^hx, y^hy)
            if all((i * hx * u + j * hy * v) % d == 0 for u, v in elements):
                inv.add((i, j))
    return frozenset(inv)


def test_normalize_examples():
    assert normalize_type(4, 2, 3) == (2, 1)
    assert normalize_type(7, 0, 1) == (1, 0)
    assert normalize_type(3, 2, -1) == (3, 1)
    assert normalize_type(5, -1, 2) == (5, 2)
    assert normalize_type(5, 2, -1) == (5, 2)
    assert normalize_type(1, 0, 0) == (1, 0)
    # weights are read mod d
    assert normalize_type(3, 5, -1) == normalize_type(3, 2, 2)
    assert symbol(normalize_type(5, -1, 2)) == "1/5(1,2)"
    assert symbol(normalize_type(7, 0, 1)) == "smooth"
    with pytest.raises(InputError, match="group orders must be >= 1"):
        normalize_type(0, 1, 1)


def test_normalize_is_idempotent_and_column_invariant():
    rng = random.Random(11)
    symbols = []
    for _ in range(60):
        d = rng.randint(1, 12)
        a, b = rng.randint(0, d), rng.randint(0, d)
        symbols.append((d, a, b))
    for d, a, b in symbols:
        n1 = normalize_type(d, a, b)
        e, beta = n1
        assert normalize_type(e, 1, beta) == n1
        assert normalize_type(d, b, a) == n1
        assert e <= d
        if e == 1:
            assert n1 == (1, 0)
        else:
            assert math.gcd(e, beta) == 1
            assert beta <= pow(beta, -1, e)


def test_normalize_matches_invariant_oracle():
    # coordinate swap is an isomorphism, so the normal form may match
    # the input's invariants only after transposing exponents
    def matches(q, n):
        e, beta = n
        a, b = _invariant_exponents(q, 12), _invariant_exponents((e, 1, beta), 12)
        return a == b or a == frozenset((j, i) for i, j in b)

    rng = random.Random(13)
    symbols = []
    for _ in range(40):
        d = rng.randint(2, 10)
        a, b = rng.randint(0, d - 1), rng.randint(0, d - 1)
        symbols.append((d, a, b))
    # and every symbol of order up to 12
    symbols += [(d, a, b) for d in range(2, 13) for a in range(d) for b in range(d)]
    for q in symbols:
        assert matches(q, normalize_type(*q)), (q, normalize_type(*q))
    # and the example with a reflection subgroup
    assert matches((4, 2, 3), (2, 1))


def test_wblowup2_examples():
    def chart_symbols(charts):
        return [symbol(normalize_type(*g)) for g in charts]

    self_int, charts = wblowup2((1, 0, 0), (2, 3))
    assert self_int == Fraction(-1, 6)
    assert chart_symbols(charts) == ["1/2(1,1)", "1/3(1,1)"]
    self_int, charts = wblowup2((1, 0, 0), (1, 1))
    assert self_int == Fraction(-1)
    assert chart_symbols(charts) == ["smooth", "smooth"]
    self_int, charts = wblowup2((1, 0, 0), (5, 2))
    assert self_int == Fraction(-1, 10)
    assert chart_symbols(charts) == ["1/5(1,2)", "1/2(1,1)"]


def test_wblowup2_on_quotient_point():
    # 1/5(2,3)-point blown up with weights (2,3)
    self_int, _ = wblowup2((5, 2, 3), (2, 3))
    assert self_int == Fraction(-5, 6)
    # 1/5(4,1) is the same germ written with lambda=2, still presentable
    self_int2, _ = wblowup2((5, 4, 6), (2, 3))
    assert self_int2 == Fraction(-5, 6)
    with pytest.raises(Unsupported):
        wblowup2((5, 2, 2), (2, 3))
    with pytest.raises(Unsupported):
        wblowup2((4, 1, 3), (2, 3))  # gcd(d, p) > 1


def test_wblowup2_smooth_property():
    rng = random.Random(3)
    for _ in range(50):
        p = rng.randint(1, 9)
        q = rng.randint(1, 9)
        if math.gcd(p, q) != 1:
            continue
        self_int, _ = wblowup2((1, 0, 0), (p, q))
        assert -self_int * p * q == 1


def test_wblowup2_rejects_bad_weights():
    with pytest.raises(InputError):
        wblowup2((1, 0, 0), (2, 4))
    with pytest.raises(InputError):
        wblowup2((1, 0, 0), (0, 1))
