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
    HJChain,
    QuotientType,
    chain_multiplicities,
    continued_fraction,
    cyclic,
    hj_resolve,
    normalize_type,
    suspension_normalize,
    wblowup2,
    wblowup3_smooth,
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
                chain, inverse = hj_resolve(d, beta), hj_resolve(d, pow(beta, -1, d))
                assert chain.far_correction == inverse.correction, (d, beta)
                assert chain.b == inverse.b[::-1], (d, beta)


def test_hj_resolve_examples():
    c = hj_resolve(7, 5)
    assert c.b == (2, 2, 3)
    assert c.correction == Fraction(-5, 7)
    assert c.far_correction == Fraction(-3, 7)
    assert hj_resolve(2, 1).b == (2,)
    assert hj_resolve(2, 1).correction == Fraction(-1, 2)
    assert hj_resolve(5, 1).b == (5,)
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
        chain = hj_resolve(d, beta)
        assert abs(_tridiagonal_det(chain.b)) == d, (d, beta, chain.b)


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


def _invariant_exponents(q: QuotientType, box: int) -> frozenset:
    """Exponent pairs of invariant monomials in the reflection-reduced
    coordinates, up to the given box size.  Characterizes the germ."""
    L = math.lcm(*q.orders)
    gens = [
        tuple((a * (L // d)) % L for a in row) for d, row in zip(q.orders, q.weights)
    ]
    elements = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        e = frontier.pop()
        for g in gens:
            nxt = ((e[0] + g[0]) % L, (e[1] + g[1]) % L)
            if nxt not in elements:
                elements.add(nxt)
                frontier.append(nxt)
    hx = len({e[0] for e in elements if e[1] == 0})
    hy = len({e[1] for e in elements if e[0] == 0})
    inv = set()
    for i in range(box + 1):
        for j in range(box + 1):
            # monomial in reduced coordinates (x^hx, y^hy)
            if all((i * hx * u + j * hy * v) % L == 0 for u, v in elements):
                inv.add((i, j))
    return frozenset(inv)


def test_normalize_examples():
    assert normalize_type(QuotientType((4,), ((2, 3),))) == cyclic(2, 1, 1)
    assert normalize_type(cyclic(7, 0, 1)).is_smooth_symbol()
    assert normalize_type(cyclic(3, 2, -1)) == cyclic(3, 1, 1)
    assert normalize_type(cyclic(5, -1, 2)) == cyclic(5, 1, 2)
    assert normalize_type(cyclic(5, 2, -1)) == cyclic(5, 1, 2)
    assert normalize_type(cyclic(1, 0, 0)).is_smooth_symbol()
    # curves are always smooth
    assert normalize_type(QuotientType((6,), ((1,),))).is_smooth_symbol()


def _multi_row_symbols(rng, count, max_order):
    """Random surface symbols with 2 or 3 rows of orders 1..max_order."""
    out = []
    for _ in range(count):
        orders = [rng.randint(1, max_order) for _ in range(rng.randint(2, 3))]
        out.append(QuotientType(orders, [(rng.randint(0, d), rng.randint(0, d)) for d in orders]))
    return out


def test_normalize_is_idempotent_and_column_invariant():
    rng = random.Random(11)
    symbols = []
    for _ in range(60):
        d = rng.randint(1, 12)
        a, b = rng.randint(0, d), rng.randint(0, d)
        symbols.append(cyclic(d, a, b))
    for q in symbols + _multi_row_symbols(random.Random(12), 60, 12):
        n1 = normalize_type(q)
        assert normalize_type(n1) == n1
        assert normalize_type(QuotientType(q.orders, [(b, a) for a, b in q.weights])) == n1
        assert n1.group_order <= q.group_order
        if not n1.is_smooth_symbol():
            dd = n1.orders[0]
            beta = n1.weights[0][1]
            assert n1.weights[0][0] == 1
            assert math.gcd(dd, beta) == 1
            assert beta <= pow(beta, -1, dd)


def test_normalize_matches_invariant_oracle():
    # coordinate swap is an isomorphism, so the normal form may match
    # the input's invariants only after transposing exponents
    def matches(q, n):
        a, b = _invariant_exponents(q, 12), _invariant_exponents(n, 12)
        return a == b or a == frozenset((j, i) for i, j in b)

    rng = random.Random(13)
    symbols = []
    for _ in range(40):
        d = rng.randint(2, 10)
        a, b = rng.randint(0, d - 1), rng.randint(0, d - 1)
        symbols.append(cyclic(d, a, b))
    for q in symbols + _multi_row_symbols(random.Random(14), 40, 10):
        assert matches(q, normalize_type(q)), (q, normalize_type(q))
    # and the two-generator example
    assert matches(QuotientType((4,), ((2, 3),)), cyclic(2, 1, 1))


def test_suspension_examples():
    assert [str(t) for t in suspension_normalize(5, 1, 2)] == ["1/5(1,3)"]
    assert [t.is_smooth_symbol() for t in suspension_normalize(6, 2, 3)] == [True]
    assert [t.is_smooth_symbol() for t in suspension_normalize(2, 2, 2)] == [True, True]
    # z^k = u^a with v free: gcd(k,a) smooth sheets
    assert len(suspension_normalize(6, 3, 0)) == 3
    assert all(t.is_smooth_symbol() for t in suspension_normalize(6, 3, 0))


def test_suspension_k1c_form():
    for k in range(2, 12):
        for c in range(1, k):
            if math.gcd(k, c) != 1:
                continue
            out = suspension_normalize(k, 1, c)
            assert len(out) == 1
            expected = normalize_type(cyclic(k, 1, k - c))
            assert normalize_type(out[0]) == expected


def test_wblowup2_examples():
    d = wblowup2(None, (2, 3))
    assert d.self_int == Fraction(-1, 6)
    assert [(lbl, str(t)) for lbl, t in d.sing_points] == [
        ("origin-x", "1/2(1,1)"),
        ("origin-y", "1/3(1,1)"),
    ]
    d = wblowup2(None, (1, 1))
    assert d.self_int == Fraction(-1)
    assert d.sing_points == ()
    d = wblowup2(None, (5, 2))
    assert d.self_int == Fraction(-1, 10)
    assert sorted(str(t) for _, t in d.sing_points) == ["1/2(1,1)", "1/5(1,2)"]


def test_wblowup2_on_quotient_point():
    # 1/5(2,3)-point blown up with weights (2,3)
    d = wblowup2((5, 2, 3), (2, 3))
    assert d.self_int == Fraction(-5, 6)
    # 1/5(4,1) is the same germ written with lambda=2, still presentable
    d2 = wblowup2((5, 4, 6), (2, 3))
    assert d2.self_int == Fraction(-5, 6)
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
        d = wblowup2(None, (p, q))
        assert -d.self_int * p * q == 1


def test_wblowup2_rejects_bad_weights():
    with pytest.raises(InputError):
        wblowup2(None, (2, 4))
    with pytest.raises(InputError):
        wblowup2(None, (0, 1))


def test_wblowup3_examples():
    out = wblowup3_smooth((2, 3, 5))
    labels = [lbl for lbl, _ in out]
    assert labels == ["vertex-x", "vertex-y", "vertex-z"]
    types = {lbl: t for lbl, t in out}
    assert types["vertex-x"] == QuotientType((2,), ((-1, 3, 5),))
    assert types["vertex-y"] == QuotientType((3,), ((2, -1, 5),))
    assert types["vertex-z"] == QuotientType((5,), ((2, 3, -1),))

    assert wblowup3_smooth((1, 1, 1)) == []

    out = wblowup3_smooth((2, 2, 3))
    labels = [lbl for lbl, _ in out]
    assert labels == ["vertex-x", "vertex-y", "vertex-z", "edge-z"]
    edge = dict(out)["edge-z"]
    assert edge.orders == (2,)

    with pytest.raises(InputError):
        wblowup3_smooth((2, 4, 6))
    with pytest.raises(InputError):
        wblowup3_smooth((0, 1, 1))


def test_quotient_type_validation():
    with pytest.raises(InputError):
        QuotientType((), ())
    with pytest.raises(InputError):
        QuotientType((2, 3), ((1, 1),))
    with pytest.raises(InputError):
        QuotientType((2,), ((1, 1, 1, 1),))
    assert cyclic(3, 5, -1).weights == ((2, 2),)
