"""Exact arithmetic with formal products of the polynomials t^m - 1.

Characteristic polynomials of monodromy operators, zeta functions of
the Milnor fibration, and Alexander-type invariants of curve and
surface singularities are all quotients of products

    prod_m (t^m - 1)^{e_m},        e_m in Z.

Keeping them in that shape (a finitely supported map m -> e_m) makes
every operation needed here exact and cheap: multiplication adds
exponents, substitution t -> t^s rescales indices, and the passage to
the basis of cyclotomic polynomials Phi_n is Moebius inversion.  Dense
integer coefficient lists are produced only at the edges, for display
and for comparing against numerically expanded oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InputError, InternalError, NonDivisible, NotPolynomial

__all__ = [
    "CycloProduct",
    "CycloDivisor",
    "DensePoly",
    "combine",
    "substitute_power",
    "power_char",
    "root_multiplicity",
    "expand",
    "gcd_cyclo",
    "mu",
    "divisors",
]


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mu(n: int) -> int:
    """Moebius function."""
    if n < 1:
        raise InputError(f"mu({n}) undefined")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


@dataclass(frozen=True)
class CycloProduct:
    """A formal product prod_m (t^m - 1)^{e_m} with integer exponents.

    ``factors`` maps m >= 1 to the exponent e_m; zero exponents are
    dropped on construction, so equality of the dataclass is equality
    of the rational functions.

    >>> CycloProduct({6: 1, 1: 1, 2: -1, 3: -1}).degree()
    2
    """

    factors: tuple[tuple[int, int], ...]

    def __init__(self, factors=()):
        items = dict(factors)
        for m, e in items.items():
            if not (isinstance(m, int) and m >= 1):
                raise InputError(f"factor index must be a positive integer, got {m!r}")
            if not isinstance(e, int):
                raise InputError(f"exponent of (t^{m}-1) must be an integer, got {e!r}")
        object.__setattr__(
            self, "factors", tuple(sorted((m, e) for m, e in items.items() if e != 0))
        )

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def exponent(self, m: int) -> int:
        return self.as_dict().get(m, 0)

    def degree(self) -> int:
        """Degree as a rational function: sum m * e_m."""
        return sum(m * e for m, e in self.factors)

    def __mul__(self, other: "CycloProduct") -> "CycloProduct":
        return combine(self, other, +1)

    def __truediv__(self, other: "CycloProduct") -> "CycloProduct":
        return combine(self, other, -1)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for m, e in self.factors:
            base = f"(t^{m}-1)" if m > 1 else "(t-1)"
            parts.append(base if e == 1 else f"{base}^{e}")
        return "*".join(parts)


@dataclass(frozen=True)
class CycloDivisor:
    """The same data in the basis of cyclotomic polynomials Phi_n.

    ``orders`` maps n -> c_n for the product prod_n Phi_n^{c_n}.
    """

    orders: tuple[tuple[int, int], ...]

    def __init__(self, orders=()):
        items = dict(orders)
        for n, c in items.items():
            if not (isinstance(n, int) and n >= 1 and isinstance(c, int)):
                raise InputError(f"bad cyclotomic order entry {n!r}: {c!r}")
        object.__setattr__(
            self, "orders", tuple(sorted((n, c) for n, c in items.items() if c != 0))
        )

    def as_dict(self) -> dict[int, int]:
        return dict(self.orders)

    def degree(self) -> int:
        """sum phi(n) * c_n  (phi = Euler totient)."""
        return sum(_phi(n) * c for n, c in self.orders)

    def is_effective(self) -> bool:
        return all(c >= 0 for _, c in self.orders)

    def to_product(self) -> CycloProduct:
        """Moebius inversion: Phi_n = prod_{d|n} (t^d-1)^{mu(n/d)}."""
        exps: dict[int, int] = {}
        for n, c in self.orders:
            for d in divisors(n):
                exps[d] = exps.get(d, 0) + c * mu(n // d)
        return CycloProduct(exps)


def _phi(n: int) -> int:
    result = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def product_to_divisor(a: CycloProduct) -> CycloDivisor:
    """Expand each t^m - 1 = prod_{n|m} Phi_n and collect exponents."""
    orders: dict[int, int] = {}
    for m, e in a.factors:
        for n in divisors(m):
            orders[n] = orders.get(n, 0) + e
    return CycloDivisor(orders)


def combine(a: CycloProduct, b: CycloProduct, sign: int) -> CycloProduct:
    """a * b (sign=+1) or a / b (sign=-1), exactly, in the formal basis.

    >>> combine(CycloProduct({6: 1}), CycloProduct({2: 1, 3: 1}), -1).as_dict()
    {6: 1, 2: -1, 3: -1}
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
    {42: 1, 7: -1}
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
    return sum(e for m, e in a.factors if m % n == 0)


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
    div = product_to_divisor(a)
    if not div.is_effective():
        bad = min(n for n, c in div.orders if c < 0)
        raise NotPolynomial(bad, f"power_char input is not a polynomial: Phi_{bad} is denominator content")
    exps: dict[int, int] = {}
    for m, e in a.factors:
        g = math.gcd(m, k)
        key = m // g
        exps[key] = exps.get(key, 0) + g * e
    return CycloProduct(exps)


def gcd_cyclo(a: CycloProduct, b: CycloProduct) -> CycloProduct:
    """Greatest common divisor of two polynomial-valued products.

    Computed in the cyclotomic basis by taking the minimum
    multiplicity of each Phi_n.  Both inputs must be polynomials.

    >>> gcd_cyclo(CycloProduct({1: 5}), CycloProduct({2: 1, 1: 1})).as_dict()
    {1: 2}
    """
    da, db = product_to_divisor(a), product_to_divisor(b)
    for name, d in (("first", da), ("second", db)):
        if not d.is_effective():
            bad = min(n for n, c in d.orders if c < 0)
            raise NotPolynomial(bad, f"gcd_cyclo {name} argument is not a polynomial (Phi_{bad})")
    adict, bdict = da.as_dict(), db.as_dict()
    common = {n: min(adict[n], bdict[n]) for n in adict.keys() & bdict.keys()}
    return CycloDivisor(common).to_product()


@dataclass(frozen=True)
class DensePoly:
    """A polynomial with integer coefficients, constant term first.

    >>> print(DensePoly((1, -1, 1)))
    t^2 - t + 1
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=(0,)):
        coeffs = tuple(int(c) for c in coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

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


def _mul_by_tm_minus_1(coeffs: list[int], m: int) -> list[int]:
    out = [0] * (len(coeffs) + m)
    for i, c in enumerate(coeffs):
        out[i + m] += c
        out[i] -= c
    return out


def _div_by_tm_minus_1(coeffs: list[int], m: int) -> list[int]:
    """Exact division by t^m - 1; raises InternalError on a remainder."""
    if len(coeffs) - 1 < m:
        raise InternalError(f"cannot divide degree {len(coeffs)-1} polynomial by t^{m}-1")
    out = [0] * (len(coeffs) - m)
    rem = list(coeffs)
    for i in range(len(out) - 1, -1, -1):
        q = rem[i + m]
        out[i] = q
        rem[i + m] -= q
        rem[i] += q
    if any(rem):
        raise InternalError(f"division by t^{m}-1 left a remainder")
    return out


def expand(a: CycloProduct) -> DensePoly:
    """Expand a formal product into integer coefficients.

    Raises NotPolynomial (with the smallest offending cyclotomic index
    as witness) when some Phi_n occurs with negative total exponent.

    >>> print(expand(CycloProduct({6: 1, 1: 1, 2: -1, 3: -1})))
    t^2 - t + 1
    """
    div = product_to_divisor(a)
    if not div.is_effective():
        raise NotPolynomial(min(n for n, c in div.orders if c < 0))
    coeffs = [1]
    for m, e in a.factors:
        for _ in range(e):
            coeffs = _mul_by_tm_minus_1(coeffs, m)
    for m, e in a.factors:
        for _ in range(-e):
            coeffs = _div_by_tm_minus_1(coeffs, m)
    poly = DensePoly(coeffs)
    if poly.degree != a.degree():
        raise InternalError("expansion degree mismatch")
    return poly


def exact_divide(a: CycloProduct, b: CycloProduct) -> CycloProduct:
    """a / b, insisting that the quotient is again a polynomial.

    Raises NonDivisible with the smallest deficient cyclotomic index.
    """
    q = combine(a, b, -1)
    div = product_to_divisor(q)
    if not div.is_effective():
        raise NonDivisible(min(n for n, c in div.orders if c < 0))
    return q
