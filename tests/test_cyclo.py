"""Tests for the formal (t^m - 1)-product arithmetic.

The power_char tests are backed by an independent numeric oracle that
expands both sides from root multisets with cmath, so the gcd-based
factor rule is checked against first principles rather than itself.
"""

import cmath
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcalc import cyclo
from singcalc.cyclo import (
    CycloProduct,
    DensePoly,
    _exquo,
    _phi,
    _times,
    combine,
    cyclotomic,
    divisors,
    exact_divide,
    expand,
    gcd_cyclo,
    negative_order,
    power_char,
    product_to_divisor,
    root_multiplicity,
    substitute_power,
)
from singcalc.errors import InputError, InternalError, NonDivisible, NotPolynomial


def evaluate(p: DensePoly, x):
    """p(x), by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def multiply(p: DensePoly, q: DensePoly) -> DensePoly:
    """The product p * q, by the schoolbook convolution of the coefficients."""
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return DensePoly(out)


def mu(n: int) -> int:
    """Moebius function, by trial division: 0 when a square divides n,
    else (-1)^(number of prime factors)."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def test_moebius_small_values():
    assert [mu(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(49) == [1, 7, 49]


def test_number_theory_against_definitions():
    primes = [p for p in range(2, 2001) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for n in range(1, 2001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
        factors = [p for p in primes if n % p == 0]
        squarefree = all(n % (p * p) for p in factors)
        assert mu(n) == ((-1) ** len(factors) if squarefree else 0)
        assert _phi(n) == sum(math.gcd(k, n) == 1 for k in range(1, n + 1))


def _long_divide(num: list, den: list) -> list:
    """num / den for a monic den, coefficients low first; no remainder."""
    num, quotient = list(num), []
    for top in range(len(num) - 1, len(den) - 2, -1):
        q = num[top]
        quotient.append(q)
        for i, c in enumerate(den):
            num[top - len(den) + 1 + i] -= q * c
    assert not any(num), "remainder"
    return quotient[::-1]


def test_cyclotomic_against_division():
    # Phi_n = (t^n - 1) / prod of Phi_d over the proper divisors d of n
    phi = {}
    for n in range(1, 301):
        quotient = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                quotient = _long_divide(quotient, phi[d])
        phi[n] = quotient
        assert list(expand(cyclotomic({n: 1})).coeffs) == quotient, n


def test_cyclotomic_against_moebius_product():
    # Phi_n = prod_{d|n} (t^d - 1)^{mu(n/d)}
    for n in range(1, 301):
        moebius = {d: mu(n // d) for d in range(1, n + 1) if n % d == 0}
        assert cyclotomic({n: 1}) == CycloProduct(moebius), n


def test_product_to_divisor_of_a_smooth_index_is_fast():
    n = 2**50 * 3**20
    start = time.perf_counter()
    orders = product_to_divisor(CycloProduct({n: 1}))
    assert time.perf_counter() - start < 1
    assert orders == {2**a * 3**b: 1 for a in range(51) for b in range(21)}


def test_combine_examples():
    a = CycloProduct({6: 1})
    b = CycloProduct({2: 1, 3: 1})
    assert combine(a, b, -1).as_dict() == {6: 1, 2: -1, 3: -1}
    assert combine(a, b, +1).as_dict() == {6: 1, 2: 1, 3: 1}
    # exponent cancellation drops factors entirely
    assert combine(a, a, -1).as_dict() == {}


def test_substitute_power_example():
    a = CycloProduct({6: 1, 1: -1})
    assert substitute_power(a, 7).as_dict() == {42: 1, 7: -1}
    assert substitute_power(a, 1) == a


def test_root_multiplicity_examples():
    a = CycloProduct({6: 1, 2: -1})
    assert root_multiplicity(a, 6) == 1
    assert root_multiplicity(a, 2) == 0
    assert root_multiplicity(a, 1) == 0
    assert root_multiplicity(a, 3) == 1
    b = CycloProduct({4: 2, 2: 1})
    assert root_multiplicity(b, 4) == 2
    assert root_multiplicity(b, 2) == 3
    assert root_multiplicity(b, 1) == 3


def test_expand_monodromy_of_the_cusp():
    a = CycloProduct({6: 1, 1: 1, 2: -1, 3: -1})
    assert expand(a).coeffs == (1, -1, 1)  # t^2 - t + 1


def test_expand_phi10():
    a = CycloProduct({10: 1, 1: 1, 2: -1, 5: -1})
    assert expand(a).coeffs == (1, -1, 1, -1, 1)


def test_expand_rejects_non_polynomial_with_witness():
    a = CycloProduct({2: 1, 3: -1})
    with pytest.raises(NotPolynomial) as err:
        expand(a)
    assert err.value.witness == 3


def test_power_char_examples():
    assert power_char(CycloProduct({6: 1}), 2).as_dict() == {3: 2}
    assert power_char(CycloProduct({2: 1}), 2).as_dict() == {1: 2}
    # cusp characteristic polynomial squared-operator: Phi_3 content
    cusp = CycloProduct({6: 1, 1: 1, 2: -1, 3: -1})
    assert power_char(cusp, 2).as_dict() == {3: 1, 1: -1}
    # sixth power of the cusp monodromy is the identity on a 2-dim space
    assert power_char(cusp, 6).as_dict() == {1: 2}


def test_power_char_rejects_non_polynomial():
    with pytest.raises(NotPolynomial):
        power_char(CycloProduct({1: -1}), 2)


def _poly_gcd_oracle(a: CycloProduct, b: CycloProduct) -> tuple:
    """Monic Euclidean gcd of the expanded polynomials, over Fractions."""
    from fractions import Fraction

    def to_frac(p):
        return [Fraction(c) for c in expand(p).coeffs]

    def trim(p):
        while len(p) > 1 and p[-1] == 0:
            p.pop()
        return p

    def mod(num, den):
        num = num[:]
        while len(num) >= len(den) and any(num):
            shift = len(num) - len(den)
            factor = num[-1] / den[-1]
            for i, c in enumerate(den):
                num[shift + i] -= factor * c
            trim(num)
            if num == [0]:
                break
        return num

    x, y = to_frac(a), to_frac(b)
    while y != [0]:
        x, y = y, mod(x, y)
    lead = x[-1]
    return tuple(c / lead for c in x)


def test_gcd_examples():
    # gcd((t-1)^2, t^2-1) = t-1: the factors share only Phi_1
    assert gcd_cyclo(CycloProduct({1: 2}), CycloProduct({2: 1})).as_dict() == {1: 1}
    assert gcd_cyclo(CycloProduct({6: 1}), CycloProduct({6: 1})).as_dict() == {6: 1}
    # gcd((t-1)^5, (t^2-1)(t-1)) = (t-1)^2, cross-checked below by Euclid
    a, b = CycloProduct({1: 5}), CycloProduct({2: 1, 1: 1})
    assert gcd_cyclo(a, b).as_dict() == {1: 2}
    assert tuple(expand(gcd_cyclo(a, b)).coeffs) == _poly_gcd_oracle(a, b)
    a = CycloProduct({6: 2, 1: 2, 2: -2, 3: -2})  # (t^2-t+1)^2
    b = CycloProduct({6: 1, 1: 1, 2: -1, 3: -1})  # t^2-t+1
    assert gcd_cyclo(a, b) == b
    assert gcd_cyclo(b, CycloProduct({1: 3})).as_dict() == {}


def test_gcd_rejects_non_polynomial():
    with pytest.raises(NotPolynomial):
        gcd_cyclo(CycloProduct({1: -1}), CycloProduct({1: 1}))


def test_exact_divide():
    num = CycloProduct({6: 1, 1: 1})
    den = CycloProduct({2: 1, 3: 1})
    assert exact_divide(num, den).as_dict() == {6: 1, 1: 1, 2: -1, 3: -1}
    with pytest.raises(NonDivisible) as err:
        exact_divide(CycloProduct({2: 1}), CycloProduct({3: 1}))
    assert err.value.witness == 3


@pytest.mark.parametrize(
    "check,a",
    [
        (expand, CycloProduct({2: 1, 3: -1})),
        (lambda a: power_char(a, 2), CycloProduct({1: -1})),
        (lambda a: gcd_cyclo(a, CycloProduct({1: 1})), CycloProduct({1: -1})),
    ],
    ids=["expand", "power_char", "gcd_cyclo"],
)
def test_negative_order_matches_not_polynomial_witness(check, a):
    with pytest.raises(NotPolynomial) as err:
        check(a)
    assert negative_order(a) == err.value.witness


def test_negative_order_matches_exact_divide_witness():
    a, b = CycloProduct({2: 1}), CycloProduct({3: 1})
    with pytest.raises(NonDivisible) as err:
        exact_divide(a, b)
    assert negative_order(combine(a, b, -1)) == err.value.witness == 3


def test_negative_order_of_polynomials_is_none():
    assert negative_order(CycloProduct({})) is None
    assert negative_order(CycloProduct({6: 1, 1: 1, 2: -1, 3: -1})) is None


def test_polynomiality_from_the_gcd_closure_agrees_with_the_divisor_map():
    rng = random.Random(20261019)
    verdicts = []
    for _ in range(5000):
        a = CycloProduct({rng.randint(1, 200): rng.randint(-4, 4) for _ in range(rng.randint(1, 6))})
        verdicts.append(negative_order(a) is None)
        assert verdicts[-1] == all(c >= 0 for c in product_to_divisor(a).values()), a
    assert 500 < sum(verdicts) < 4500


def _random_polynomial_product(rng):
    """A seeded polynomial product: a cyclotomic content, or a product of
    t^m - 1 with some negative exponents that happens to be a polynomial."""
    while True:
        if rng.random() < 0.5:
            orders = {rng.randint(1, 24): rng.randint(0, 3) for _ in range(rng.randint(0, 4))}
            return cyclotomic(orders)
        exps = {rng.randint(1, 60): rng.randint(-2, 4) for _ in range(rng.randint(1, 6))}
        a = CycloProduct(exps)
        if negative_order(a) is None:
            return a


def test_gcd_from_the_gcd_closure_agrees_with_the_divisor_map():
    rng = random.Random(20261020)
    proper = 0
    for _ in range(5000):
        common = _random_polynomial_product(rng)
        a = common * _random_polynomial_product(rng)
        b = common * _random_polynomial_product(rng)
        adict, bdict = product_to_divisor(a), product_to_divisor(b)
        expected = cyclotomic({n: min(adict[n], bdict[n]) for n in adict.keys() & bdict.keys()})
        assert gcd_cyclo(a, b) == expected, (a, b)
        proper += expected not in (CycloProduct({}), a, b)
    assert proper > 2000


def test_divisor_round_trip_known_value():
    cusp = CycloProduct({6: 1, 1: 1, 2: -1, 3: -1})
    assert product_to_divisor(cusp) == {6: 1}
    assert cyclotomic({6: 1}) == cusp


def test_dense_poly_str_and_eval():
    p = DensePoly((1, -1, 1))
    assert str(p) == "t^2 - t + 1"
    assert evaluate(p, 2) == 3
    assert DensePoly((0, 0, 0)).is_zero()
    assert DensePoly((-1, 0, 1)).degree == 2


def test_dense_poly_of_no_coefficients_is_zero():
    p = DensePoly(())
    assert p.coeffs == (0,)
    assert p.is_zero() and p.degree == -1 and str(p) == "0"
    assert p == DensePoly()


def test_dense_poly_strips_long_run_of_trailing_zeros():
    assert DensePoly([1] + [0] * 40000).degree == 0
    assert DensePoly([0] * 40000).is_zero()


def test_constructor_validation():
    with pytest.raises(InputError):
        CycloProduct({0: 1})
    with pytest.raises(InputError):
        CycloProduct({-2: 1})
    with pytest.raises(InputError):
        substitute_power(CycloProduct({1: 1}), 0)
    with pytest.raises(InputError):
        power_char(CycloProduct({1: 1}), 0)
    with pytest.raises(InputError, match="bad cyclotomic order entry"):
        cyclotomic({0: 1})
    with pytest.raises(InputError, match="bad cyclotomic order entry"):
        cyclotomic({4: "1"})


# ---------------------------------------------------------------- oracles


def _roots_with_multiplicity(a: CycloProduct) -> list[complex]:
    """Multiset of complex roots of a polynomial-valued product."""
    roots: list[complex] = []
    for n, c in product_to_divisor(a).items():
        assert c >= 0
        prim = [
            cmath.exp(2j * cmath.pi * j / n) for j in range(n) if math.gcd(j, n) == 1
        ]
        roots.extend(prim * c)
    return roots


def _poly_from_roots(roots: list[complex]) -> list[complex]:
    coeffs = [1.0 + 0j]
    for r in roots:
        coeffs = [0j] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return coeffs


def _assert_matches_oracle(result: CycloProduct, roots: list[complex], tol=1e-9):
    dense = expand(result)
    oracle = _poly_from_roots(roots)
    assert dense.degree == len(roots)
    scale = max(1.0, max(abs(c) for c in oracle))
    for i, c in enumerate(oracle):
        assert abs(dense.coeffs[i] - c) <= tol * scale, (i, dense.coeffs[i], c)


def test_power_char_against_numeric_root_oracle_fixed_cases():
    cases = [
        ({6: 1}, 2),
        ({6: 1, 1: 1, 2: -1, 3: -1}, 2),
        ({6: 1, 1: 1, 2: -1, 3: -1}, 3),
        ({10: 1, 1: 1, 2: -1, 5: -1}, 5),
        ({12: 1, 4: -1}, 4),
        ({8: 2, 4: -1, 1: 1}, 6),
    ]
    for factors, k in cases:
        a = CycloProduct(factors)
        roots = [r**k for r in _roots_with_multiplicity(a)]
        _assert_matches_oracle(power_char(a, k), roots)


def test_power_char_against_numeric_root_oracle_randomized():
    rng = random.Random(20260816)
    for _ in range(300):
        orders = {}
        for n in rng.sample(range(1, 13), rng.randint(1, 4)):
            orders[n] = rng.randint(0, 2)
        a = cyclotomic(orders)
        if a.degree() > 24 or a.degree() == 0:
            continue
        k = rng.randint(1, 6)
        roots = [r**k for r in _roots_with_multiplicity(a)]
        _assert_matches_oracle(power_char(a, k), roots)


# ------------------------------------------------------------- properties

effective_products = st.dictionaries(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=3),
    max_size=5,
).map(cyclotomic)

any_products = st.dictionaries(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=-4, max_value=4),
    max_size=6,
).map(CycloProduct)


@given(any_products)
def test_divisor_round_trip(a):
    orders = product_to_divisor(a)
    assert cyclotomic(orders) == a
    assert 0 not in orders.values()
    assert sum(_phi(n) * c for n, c in orders.items()) == a.degree()


@given(effective_products, st.integers(min_value=1, max_value=8))
def test_power_char_preserves_degree(a, k):
    assert power_char(a, k).degree() == a.degree()


@settings(deadline=None)
@given(effective_products, st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_power_char_composes(a, j, k):
    assert power_char(power_char(a, j), k) == power_char(a, j * k)


@given(any_products, any_products)
def test_combine_degree_additivity(a, b):
    assert combine(a, b, +1).degree() == a.degree() + b.degree()
    assert combine(a, b, -1).degree() == a.degree() - b.degree()


@given(any_products, st.integers(min_value=1, max_value=6))
def test_substitution_scales_degree(a, s):
    assert substitute_power(a, s).degree() == s * a.degree()
    assert root_multiplicity(substitute_power(a, s), 1) == root_multiplicity(a, 1)


@given(effective_products, effective_products)
def test_gcd_divides_both(a, b):
    g = gcd_cyclo(a, b)
    for other in (a, b):
        q = product_to_divisor(combine(other, g, -1))
        assert all(c > 0 for c in q.values())


@settings(deadline=None, max_examples=40)
@given(effective_products, effective_products)
def test_gcd_matches_euclid(a, b):
    if a.degree() > 40 or b.degree() > 40:
        return
    assert tuple(expand(gcd_cyclo(a, b)).coeffs) == _poly_gcd_oracle(a, b)


# ---------------------------------------------------------- expand oracles


def _expand_by_repeated_passes(a: CycloProduct) -> tuple:
    """Reference expansion: one dense pass per factor (t^m - 1), exponent times."""
    coeffs = [1]
    for m, e in a.factors:
        for _ in range(e):
            out = [0] * (len(coeffs) + m)
            for i, c in enumerate(coeffs):
                out[i + m] += c
                out[i] -= c
            coeffs = out
    for m, e in a.factors:
        for _ in range(-e):
            out = [0] * (len(coeffs) - m)
            rem = list(coeffs)
            for i in range(len(out) - 1, -1, -1):
                q = rem[i + m]
                out[i] = q
                rem[i + m] -= q
                rem[i] += q
            assert not any(rem)
            coeffs = out
    return tuple(coeffs)


def _exact_value(a: CycloProduct, t: int) -> Fraction:
    value = Fraction(1)
    for m, e in a.factors:
        value *= Fraction(t**m - 1) ** e
    return value


def _assert_expands_exactly(a: CycloProduct) -> None:
    dense = expand(a)
    assert dense.coeffs == _expand_by_repeated_passes(a)
    for t in (2, 3):
        assert evaluate(dense, t) == _exact_value(a, t)


@st.composite
def dominated_products(draw):
    """Polynomial-valued products led by one (t^m - 1)^e with e <= 60.

    Denominators (t^d - 1)^f take d | m and sum f <= e, so each Phi_n they
    remove is a factor of the leading power.
    """
    m = draw(st.integers(min_value=1, max_value=12))
    e = draw(st.integers(min_value=0, max_value=60))
    exps = {m: e}
    budget = e
    for d in draw(st.lists(st.sampled_from(divisors(m)), max_size=3)):
        f = draw(st.integers(min_value=0, max_value=budget))
        budget -= f
        exps[d] = exps.get(d, 0) - f
    return combine(CycloProduct(exps), draw(effective_products), +1)


@settings(deadline=None, max_examples=60)
@given(dominated_products())
def test_expand_matches_repeated_passes_and_exact_values(a):
    _assert_expands_exactly(a)


def test_expand_cone_shaped_product():
    # the monodromy of a degree-26 cone: (t^26 - 1)^571 carries most of the degree
    a = CycloProduct(
        {1: -1, 26: 571, 27: 8, 54: -5, 81: -4, 108: -2, 135: -2, 162: 3, 270: 2, 324: 2}
    )
    dense = expand(a)
    assert dense.degree == 15655
    assert dense.coeffs == _expand_by_repeated_passes(a)
    assert evaluate(dense, 2) == _exact_value(a, 2)


@st.composite
def cone_products(draw):
    """(t^d - 1)^E / (t - 1) times point factors Q(t^s) of positive
    degree, s = d + k.

    E exceeds every exponent Q(t^s) can have (effective_products gives
    at most 5 * 3), so t^d - 1 is the first factor tried as t^m0 - 1, and
    its complement Q(t^s) is a polynomial in t^s.
    """
    d = draw(st.integers(min_value=2, max_value=12))
    k = draw(st.integers(min_value=1, max_value=4))
    e = draw(st.integers(min_value=16, max_value=60))
    points = substitute_power(draw(effective_products.filter(CycloProduct.degree)), d + k)
    return combine(CycloProduct({1: -1, d: e}), points, +1), d


def _expand_by_dense_poly(a: CycloProduct) -> tuple:
    """Reference expansion: the DensePoly product of the numerator factors
    t^m - 1, divided exactly by each denominator factor with _exquo."""
    numerator = DensePoly((1,))
    for m, e in a.factors:
        for _ in range(e):
            numerator = multiply(DensePoly((-1,) + (0,) * (m - 1) + (1,)), numerator)
    coeffs = list(numerator.coeffs)
    for m, e in a.factors:
        for _ in range(-e):
            coeffs = _exquo(coeffs, [-1] + [0] * (m - 1) + [1])
    return tuple(coeffs)


@settings(deadline=None, max_examples=80)
@given(st.one_of(effective_products, dominated_products(), cone_products().map(lambda case: case[0])))
def test_expand_matches_dense_poly_products_and_exact_division(a):
    assert expand(a).coeffs == _expand_by_dense_poly(a)


def _series_calls(a: CycloProduct) -> list:
    """The (factors, n) of each _series call expanding a, outermost first."""
    with mock.patch.object(cyclo, "_series", wraps=cyclo._series) as spy:
        _assert_expands_exactly(a)
    return [call.args for call in spy.call_args_list]


@settings(deadline=None, max_examples=60)
@given(cone_products())
def test_expand_cone_products_on_the_stride_path(case):
    a, d = case
    calls = _series_calls(a)
    h = a.degree() // 2
    points = {m: e for m, e in a.factors if m not in (1, d) and m <= h}
    if points:  # (t^d - 1)^E splits off, and R is expanded up to h // g
        g = math.gcd(*points)
        assert calls[1] == ({m // g: e for m, e in points.items()}, h // g)
    else:  # every point factor is 1 modulo t^(h+1)
        assert len(calls) == 1


@pytest.mark.parametrize(
    "factors,split",
    [
        # (t^13-1)^40 and (t^78-1)^40 leave complements of gcd 1; t^12 - 1
        # leaves (t^13-1)^40 (t^78-1)^40 / ((t^26-1)(t^39-1))^40 = Phi_6(t^13)^40
        ({1: -1, 12: 31, 13: 40, 78: 40, 26: -40, 39: -40}, (12, 31, 13)),
        ({1: 2, 4: 3, 6: 1}, (4, 3, 6)),
        ({2: 2, 3: 1}, (2, 2, 3)),
        # (t^4-1)^3 / (t^2-1)^2 splits with R(u) = (u - 1)^-2, a power series
        ({2: -2, 4: 3}, (4, 3, 2)),
    ],
    ids=["scaled-down-d60-cone", "t-1-in-numerator", "no-t-1", "R-not-a-polynomial"],
)
def test_expand_takes_the_first_factor_whose_complement_has_a_stride(factors, split):
    a = CycloProduct(factors)
    m0, _, g = split
    h = a.degree() // 2
    r = {m // g: e for m, e in a.factors if m not in (1, m0) and m <= h}
    assert _series_calls(a)[1:2] == [(r, h // g)]


@pytest.mark.parametrize(
    "factors",
    [{1: -1, 2: 3, 3: 1, 5: 1}, {1: 3, 6: 2}],
    ids=["no-common-stride", "nothing-besides-t^m0-1"],
)
def test_expand_falls_back_to_dense_passes(factors):
    assert len(_series_calls(CycloProduct(factors))) == 1


@settings(deadline=None, max_examples=200)
@given(any_products, st.integers(min_value=0, max_value=80))
def test_series_matches_one_pass_per_unit_of_each_exponent(a, n):
    # any product, polynomial or not, split or not
    coeffs = [1] + [0] * n
    for m, e in a.factors:
        _times(coeffs, m, e)
    assert cyclo._series(a.as_dict(), n) == coeffs


@pytest.mark.parametrize("m", [1, 2, 3])
def test_division_by_tm_minus_1_inverts_multiplication(m):
    # lengths on both sides of m^2: a running sum per residue class, and
    # one per m-wide block
    for n in sorted({m + 1, m * m, m * m + 1, 50} - {m}):
        q = list(range(1, n + 1))
        coeffs = list(q)
        _times(coeffs, m, 2)
        assert coeffs != q
        _times(coeffs, m, -2)
        assert coeffs == q


# by the parities of (sum of exponents, degree): a small product and a cone's
VALUE_CHECK_CLASSES = {
    (0, 0): ({1: -1, 2: 2, 3: 1}, {1: -1, 6: 40, 9: 1}),
    (0, 1): ({1: 1, 4: 1}, {1: -1, 6: 41, 9: 2}),
    (1, 0): ({2: 3}, {1: -1, 6: 40, 9: -1, 18: 1}),
    (1, 1): ({1: 2, 5: 1}, {1: -1, 6: 40, 9: 2}),
}


def _corrupting_series(at: int, by: int):
    """A _series that adds by to coefficient at of the outermost series."""
    real = cyclo._series
    calls = []

    def corrupt(factors, n):
        outermost = not calls
        calls.append(n)
        coeffs = real(factors, n)
        if outermost:
            coeffs[at] += by
        return coeffs

    return corrupt


@pytest.mark.parametrize(
    "parities",
    VALUE_CHECK_CLASSES,
    ids=lambda p: "{}-sum-{}-degree".format(*("odd" if x else "even" for x in p)),
)
def test_value_check_catches_any_corrupted_low_coefficient(parities):
    for factors in VALUE_CHECK_CLASSES[parities]:
        a = CycloProduct(factors)
        assert (sum(factors.values()) % 2, a.degree() % 2) == parities
        for at in range(a.degree() // 2 + 1):
            for by in (1, -1, 7):
                with mock.patch.object(cyclo, "_series", _corrupting_series(at, by)):
                    with pytest.raises(InternalError, match="does not take the values"):
                        expand(a)


def test_value_check_catches_seeded_mutants():
    rng = random.Random(20261019)
    for _ in range(300):
        a = cyclotomic({n: rng.randint(1, 3) for n in rng.sample(range(1, 40), 3)})
        at, by = rng.randint(0, a.degree() // 2), rng.choice([-3, -1, 1, 2, 10**20])
        with mock.patch.object(cyclo, "_series", _corrupting_series(at, by)):
            with pytest.raises(InternalError, match="does not take the values"):
                expand(a)
