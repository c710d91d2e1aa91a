"""Exact arithmetic with formal products of the polynomials t^m - 1.

Characteristic polynomials of monodromy operators, zeta functions of
the Milnor fibration, and Alexander-type invariants of curve and
surface singularities are all quotients of products

    prod_m (t^m - 1)^{e_m},        e_m in Z.

Keeping them in that shape (a finitely supported map m -> e_m) makes
every operation needed here exact and cheap: multiplication adds
exponents, substitution t -> t^s rescales indices, and the exponents
in the basis of cyclotomic polynomials Phi_n are a plain map n -> c_n:
`product_to_divisor` computes it and `cyclotomic` (Moebius inversion)
turns it back into a product.  Dense integer coefficient lists are
produced only at the edges, for display and for comparing against
numerically expanded oracles.

Such a product reads the same from both ends up to sign, so `expand`
computes the coefficients up to half the degree, as a truncated power
series, and mirrors them.  It writes the product as (t - 1)^e1
(t^m0 - 1)^e0 R(t^g) whenever the factors besides t - 1 and t^m0 - 1
have a common index g > 1: the shape of a cone's (t^d - 1)^E against
point factors in t^(d+k).  It then costs about (e0 + 1) * nnz(R)
coefficient products and one pass per unit of e1, instead of one pass
per unit of every exponent.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add, neg, sub

from ._record import FrozenRecord, setfield
from .errors import InputError, InternalError, NonDivisible, NotPolynomial

__all__ = [
    "CycloProduct",
    "DensePoly",
    "combine",
    "cyclotomic",
    "product_to_divisor",
    "substitute_power",
    "power_char",
    "root_multiplicity",
    "expand",
    "negative_order",
    "require_polynomial",
    "gcd_cyclo",
    "exact_divide",
    "divisors",
]


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """The pairs (p, e) with n = prod p^e, p ascending, for n >= 1: trial
    division up to the square root of the cofactor still left."""
    powers = []
    p, step = 2, 1
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            powers.append((p, e))
        p += step
        step = 2  # after 2, only odd trial divisors
    if n > 1:
        powers.append((n, 1))
    return powers


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    divs = [1]
    for p, e in _prime_powers(n):
        for d in divs[:]:
            for _ in range(e):
                d *= p
                divs.append(d)
    divs.sort()
    return divs


class CycloProduct(FrozenRecord):
    """A formal product prod_m (t^m - 1)^{e_m} with integer exponents.

    ``factors`` holds the pairs (m, e_m), m >= 1 ascending; zero
    exponents are dropped on construction, so equality of the records is
    equality of the rational functions.

    >>> CycloProduct({6: 1, 1: 1, 2: -1, 3: -1}).degree()
    2
    """

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        items = dict(factors)
        for m, e in items.items():
            if not (isinstance(m, int) and m >= 1):
                raise InputError(f"factor index must be a positive integer, got {m!r}")
            if not isinstance(e, int):
                raise InputError(f"exponent of (t^{m}-1) must be an integer, got {e!r}")
        setfield(self, "factors", tuple(sorted((m, e) for m, e in items.items() if e != 0)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def degree(self) -> int:
        """Degree as a rational function: sum m * e_m."""
        return sum(m * e for m, e in self.factors)

    def __mul__(self, other: "CycloProduct") -> "CycloProduct":
        return combine(self, other, +1)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for m, e in self.factors:
            base = f"(t^{m}-1)" if m > 1 else "(t-1)"
            parts.append(base if e == 1 else f"{base}^{e}")
        return "*".join(parts)


def _phi(n: int) -> int:
    for p, _ in _prime_powers(n):
        n -= n // p
    return n


def cyclotomic(orders: dict[int, int]) -> CycloProduct:
    """prod_n Phi_n^{c_n} for the map n -> c_n, by Moebius inversion:
    Phi_n = prod_{d|n} (t^d-1)^{mu(n/d)}.

    >>> cyclotomic({6: 1}).as_dict()
    {1: 1, 2: -1, 3: -1, 6: 1}
    """
    exps: dict[int, int] = {}
    for n, c in orders.items():
        if not (isinstance(n, int) and n >= 1 and isinstance(c, int)):
            raise InputError(f"bad cyclotomic order entry {n!r}: {c!r}")
        # mu(n/d) is nonzero only at d = n / prod S for a set S of primes of n
        signed = [(n, c)]
        for p, _ in _prime_powers(n):
            signed += [(d // p, -s) for d, s in signed]
        for d, s in signed:
            exps[d] = exps.get(d, 0) + s
    return CycloProduct(exps)


def product_to_divisor(a: CycloProduct) -> dict[int, int]:
    """The map n -> c_n with a = prod_n Phi_n^{c_n}, zero entries left out:
    each t^m - 1 = prod_{n|m} Phi_n, and the exponents are collected.

    >>> product_to_divisor(CycloProduct({1: 1, 2: -1, 3: -1, 6: 1}))
    {6: 1}
    """
    orders: dict[int, int] = {}
    for m, e in a.factors:
        for n in divisors(m):
            orders[n] = orders.get(n, 0) + e
    return {n: c for n, c in orders.items() if c}


def _gcd_closure(indices) -> set[int]:
    """The indices together with the gcd of every nonempty subset of them."""
    closure: set[int] = set()
    for m in indices:
        closure |= {math.gcd(m, g) for g in closure}
        closure.add(m)
    return closure


def _order_multiplicity(a: CycloProduct, n: int) -> int:
    """c_n = sum of e_m over the indices m that n divides: the exponent of
    Phi_n in a."""
    return sum(e for m, e in a.factors if m % n == 0)


def negative_order(a: CycloProduct) -> int | None:
    """None if a is a polynomial, else the smallest n with Phi_n^{-1} in a.

    c_n = sum_{m: n | m} e_m depends only on the indices m that n divides,
    and their gcd g divides the same ones; so a is a polynomial exactly
    when c_g >= 0 for every g in the gcd closure of the indices.  Only a
    product that is not one is factored, for its witness."""
    if all(_order_multiplicity(a, g) >= 0 for g in _gcd_closure(m for m, _ in a.factors)):
        return None
    return min(n for n, c in product_to_divisor(a).items() if c < 0)


def require_polynomial(a: CycloProduct) -> CycloProduct:
    """a itself; raises NotPolynomial with the witness of negative_order."""
    bad = negative_order(a)
    if bad is not None:
        raise NotPolynomial(bad)
    return a


def combine(a: CycloProduct, b: CycloProduct, sign: int) -> CycloProduct:
    """a * b (sign=+1) or a / b (sign=-1), exactly, in the formal basis.

    >>> combine(CycloProduct({6: 1}), CycloProduct({2: 1, 3: 1}), -1).as_dict()
    {2: -1, 3: -1, 6: 1}
    """
    if sign not in (+1, -1):
        raise InputError(f"sign must be +1 or -1, got {sign!r}")
    exps = a.as_dict()
    for m, e in b.factors:
        exps[m] = exps.get(m, 0) + sign * e
    return CycloProduct(exps)


def substitute_power(a: CycloProduct, s: int) -> CycloProduct:
    """The substitution t -> t^s:  (t^m-1)^e  becomes  (t^{sm}-1)^e.

    >>> substitute_power(CycloProduct({6: 1, 1: -1}), 7).as_dict()
    {7: -1, 42: 1}
    """
    if not (isinstance(s, int) and s >= 1):
        raise InputError(f"substitution exponent must be a positive integer, got {s!r}")
    return CycloProduct({m * s: e for m, e in a.factors})


def root_multiplicity(a: CycloProduct, n: int) -> int:
    """Multiplicity of the primitive n-th roots of unity as roots of a.

    A primitive n-th root is a root of t^m - 1 exactly when n | m, so
    the answer is sum of e_m over the multiples of n present.
    """
    if not (isinstance(n, int) and n >= 1):
        raise InputError(f"root order must be a positive integer, got {n!r}")
    return _order_multiplicity(a, n)


def power_char(a: CycloProduct, k: int) -> CycloProduct:
    """Characteristic polynomial of the k-th power of an operator.

    If a is the characteristic polynomial of a finite-order-plus-
    unipotent operator in the shape prod (t^m-1)^{e_m} with all
    cyclotomic multiplicities nonnegative, the k-th power of the
    operator has characteristic polynomial obtained factorwise by

        (t^m - 1)^e   ->   (t^{m/g} - 1)^{g e},      g = gcd(m, k),

    because the k-th powers of the m-th roots of unity run g times
    over the (m/g)-th roots of unity.

    >>> power_char(CycloProduct({6: 1}), 2).as_dict()
    {3: 2}
    """
    if not (isinstance(k, int) and k >= 1):
        raise InputError(f"power must be a positive integer, got {k!r}")
    bad = negative_order(a)
    if bad is not None:
        raise NotPolynomial(bad, f"power_char input is not a polynomial: Phi_{bad} is denominator content")
    exps: dict[int, int] = {}
    for m, e in a.factors:
        g = math.gcd(m, k)
        key = m // g
        exps[key] = exps.get(key, 0) + g * e
    return CycloProduct(exps)


def gcd_cyclo(a: CycloProduct, b: CycloProduct) -> CycloProduct:
    """Greatest common divisor of two polynomial-valued products.

    The exponent of Phi_n in the gcd is v_n = min(c_a(n), c_b(n)), and c_n
    of either input depends only on the indices of both that n divides;
    their gcd g lies in the gcd closure G of both index sets and divides
    the same ones, so v_n = v_g.  The gcd is then prod_{g in G} (t^g-1)^f_g
    with f_g = v_g - sum f_m over the m in G above g that g divides, solved
    from the top of G down.  Both inputs must be polynomials.

    >>> gcd_cyclo(CycloProduct({1: 5}), CycloProduct({2: 1, 1: 1})).as_dict()
    {1: 2}
    """
    for name, p in (("first", a), ("second", b)):
        bad = negative_order(p)
        if bad is not None:
            raise NotPolynomial(bad, f"gcd_cyclo {name} argument is not a polynomial (Phi_{bad})")
    exps: dict[int, int] = {}
    for g in sorted(_gcd_closure(m for p in (a, b) for m, _ in p.factors), reverse=True):
        common = min(_order_multiplicity(a, g), _order_multiplicity(b, g))
        exps[g] = common - sum(f for m, f in exps.items() if m % g == 0)
    return CycloProduct(exps)


class DensePoly(FrozenRecord):
    """A polynomial with integer coefficients ``coeffs``, constant term first.

    >>> print(DensePoly((1, -1, 1)))
    t^2 - t + 1
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(0,)):
        # tuple(list) takes its tuple from CPython's free list for that length
        # and gives it back there; tuple(map(...)) builds one by resizing, so
        # each call would leave one more tuple on the free list
        coeffs = tuple([int(c) for c in coeffs]) or (0,)
        top = len(coeffs) - 1
        while top > 0 and coeffs[top] == 0:
            top -= 1
        setfield(self, "coeffs", coeffs[: top + 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs != (0,) else -1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        if self.is_zero() or other.is_zero():
            return DensePoly((0,))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return DensePoly(out)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                term = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _utrim(a: list[int]) -> list[int]:
    """Drop the zero top coefficients of a in place, keeping at least one."""
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _exquo(a: list[int], b: list[int]) -> list[int] | None:
    """a / b for integer polynomials (constant term first, b trimmed and
    nonzero), or None when the quotient is not in Z[z].

    >>> _exquo([-2, 0, 2], [1, 1]), _exquo([1, 1], [0, 2])
    ([-2, 2], None)
    """
    a = list(a)
    top = len(b) - 1
    out = [0] * max(1, len(a) - top)
    for shift in range(len(a) - 1 - top, -1, -1):
        c, r = divmod(a[shift + top], b[top])
        if r:
            return None
        if c:
            out[shift] = c
            for i, y in enumerate(b):
                a[shift + i] -= c * y
    return None if any(a) else _utrim(out)


def _series(factors: dict[int, int], n: int) -> list[int]:
    """Coefficients 0..n of the power series prod (1 - t^m)^{e_m}, split
    and applied as `expand` describes."""
    factors = {m: e for m, e in factors.items() if m <= n}  # the others are 1 mod t^(n+1)
    numerator = sorted(((m, e) for m, e in factors.items() if e > 0), key=lambda f: (-f[1], f[0]))
    m0, e0 = numerator[0] if numerator else (1, 0)
    r, g = [1], 1  # R(u) = 1 unless a factor splits off
    for m, e in numerator:
        others = {k: c for k, c in factors.items() if k not in (1, m)}
        if m > 1 and (stride := math.gcd(*others)) > 1:
            m0, e0, g = m, e, stride
            r = _series({k // g: c for k, c in others.items()}, n // g)
            break
    row = [1]  # (1 - t^m0)^e0 up to t^n
    for j in range(min(e0, n // m0)):
        row.append(-row[j] * (e0 - j) // (j + 1))
    coeffs = [0] * (n + 1)
    for i, c in enumerate(r):
        if c:
            s = slice(g * i, min(g * i + m0 * len(row), n + 1), m0)
            coeffs[s] = map(add, coeffs[s], map(c.__mul__, row))
    for m, e in factors.items():  # those not in the rows: all others, or after a split t - 1
        if (m, e) != (m0, e0) and (g == 1 or m == 1):
            _times(coeffs, m, e)
    return coeffs


def _times(coeffs: list[int], m: int, e: int) -> None:
    """coeffs times (1 - t^m)^e, in place, as a power series to its length:
    one shifted subtraction per unit of e > 0, and for e < 0 one running
    sum along each residue class mod m per unit."""
    n = len(coeffs)
    for _ in range(e):
        coeffs[m:] = map(sub, coeffs[m:], coeffs[: n - m])
    for _ in range(-e):
        if m * m < n:  # m classes are fewer than n / m blocks
            for i in range(m):
                coeffs[i::m] = accumulate(coeffs[i::m])
        else:
            for i in range(m, n, m):
                coeffs[i : i + m] = map(add, coeffs[i : i + m], coeffs[i - m : i])


def _is_product(value: int, powers) -> bool:
    """value == prod b^e over the pairs (b, e), a collection, exactly."""
    return value * math.prod(b**-e for b, e in powers if e < 0) == math.prod(b**e for b, e in powers if e > 0)


def _takes_its_values(exps: dict[int, int], low: list[int], deg: int, sign: int = 1) -> bool:
    """Whether sign * P, for P = prod (t^m - 1)^{e_m} of degree deg with
    coefficients low up to deg // 2, has P(1) = prod m^{e_m} if sum e_m = 0,
    else 0, and P(-1) = prod_{m odd} (-2)^{e_m} prod_{m even} (-m)^{e_m} if
    sum_{m even} e_m = 0, else 0.  As P[deg - i] = (-1)^(sum e_m) P[i], both
    come from two slice sums of low.  With sum e_m odd and deg even, both
    are 0 whatever low holds: then its middle entry must be 0, and
    P / (t^2 - 1), from the running sums of low along each parity, is
    checked in its place."""
    total = sum(exps.values())
    mid = 0 if deg % 2 else low[-1]
    if total % 2 and not deg % 2:
        quotient = low[:-1]  # P / (t^2 - 1) = -P / (1 - t^2)
        quotient[::2] = accumulate(quotient[::2])
        quotient[1::2] = accumulate(quotient[1::2])
        return not mid and _takes_its_values({**exps, 2: exps.get(2, 0) - 1}, quotient, deg - 2, -sign)
    evens, odds = sum(low[::2]), sum(low[1::2])
    # the low half counts twice and its middle entry once, at -1 as (-1)^(deg/2) mid
    at_one = 0 if total % 2 else 2 * (evens + odds) - mid
    at_minus_one = 0 if deg % 2 and not total % 2 else 2 * (evens - odds) - (-mid if deg // 2 % 2 else mid)
    right_at_one = not at_one if total else _is_product(sign * at_one, exps.items())
    if sum(e for m, e in exps.items() if m % 2 == 0):
        return right_at_one and not at_minus_one
    at_minus_one_factors = [(-2 if m % 2 else -m, e) for m, e in exps.items()]
    return right_at_one and _is_product(sign * at_minus_one, at_minus_one_factors)


def _dense(coeffs: tuple[int, ...]) -> DensePoly:
    """A DensePoly of a tuple of ints with a nonzero last entry, as it is."""
    poly = object.__new__(DensePoly)
    setfield(poly, "coeffs", coeffs)
    return poly


def expand(a: CycloProduct) -> DensePoly:
    """Expand a formal product into integer coefficients.

    P = prod (t^m - 1)^{e_m} of degree D has t^D P(1/t) = prod (1 - t^m)^{e_m}
    = (-1)^(sum e_m) P, so P[D - i] = (-1)^(sum e_m) P[i]: only the
    coefficients up to h = D // 2 are computed, as the power series
    (-1)^(sum e_m) prod (1 - t^m)^{e_m} modulo t^(h+1), and the others are
    their mirror.  In a series, a factor with m > h is 1, multiplying by
    1 - t^m is one shifted subtraction, and dividing by it is a running sum
    along each residue class mod m: no division order is needed.

    The series is split as (1 - t)^e1 (1 - t^m0)^e0 R(t^g) when the
    factors other than t - 1 and t^m0 - 1 have indices of gcd g > 1, as a
    cone's (t^d - 1)^E against point factors in t^(d+k) do.  The series of
    R(u) is taken, in the same way, up to u^(h // g); each nonzero
    coefficient r_i adds r_i times the binomial row of (1 - t^m0)^e0 into
    every m0-th slot from t^(g i) up to t^h, and (1 - t)^e1 takes one pass
    per unit.  The numerator factors are tried as t^m0 - 1 by largest
    exponent, then smallest m0.  When no factor splits off so, the
    numerator factor with the largest exponent is written down from its
    binomial row and every other factor takes one pass per unit.

    Raises NotPolynomial (with the smallest offending cyclotomic index
    as witness) when some Phi_n occurs with negative total exponent, and
    InternalError unless the coefficients up to h give the values at
    t = 1 and t = -1 that the factors do.

    >>> print(expand(CycloProduct({6: 1, 1: 1, 2: -1, 3: -1})))
    t^2 - t + 1
    >>> expand(CycloProduct({2: 3})).coeffs
    (-1, 0, 3, 0, -3, 0, 1)

    (t^2 - 1)^2 (t^3 - 1) / (t - 1) splits with m0 = 2, g = 3, R = u - 1:

    >>> expand(CycloProduct({1: -1, 2: 2, 3: 1})).coeffs
    (1, 1, -1, -2, -1, 1, 1)
    """
    require_polynomial(a)
    exps, deg = a.as_dict(), a.degree()
    low = _series(exps, deg // 2)
    high = low[::-1] if deg % 2 else low[-2::-1]
    if sum(exps.values()) % 2:
        low = list(map(neg, low))
    if not _takes_its_values(exps, low, deg):
        raise InternalError(f"expansion of {a} does not take the values at t = 1 and t = -1 its factors give")
    low += high
    return _dense(tuple(low))


def exact_divide(a: CycloProduct, b: CycloProduct) -> CycloProduct:
    """a / b, insisting that the quotient is again a polynomial.

    Raises NonDivisible with the smallest deficient cyclotomic index.
    """
    q = combine(a, b, -1)
    bad = negative_order(q)
    if bad is not None:
        raise NonDivisible(bad)
    return q
