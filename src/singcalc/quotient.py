"""Cyclic quotient singularities, Hirzebruch-Jung chains, and weighted
blow-up bookkeeping.

A cyclic quotient point 1/d(a, b) is C^2 divided by the group of order
d whose generator acts by

    (x, y)  ->  (zeta^a x, zeta^b y),

zeta a primitive d-th root of unity, and is written as the ints
(d, a, b).  Its normal form 1/e(1, beta) is the int pair (e, beta),
(1, 0) for a smooth point; its minimal resolution is the
Hirzebruch-Jung chain read off the ceiling continued-fraction expansion
of e/beta.  `hj_resolve` builds every such chain, the ones the
curve-resolution engine inserts included.

Weighted blow-ups with coprime weights (p, q) produce exactly these
quotient points on the two charts, which is what ties this module to
the curve-resolution engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, NonIntegralMultiplicity, Unsupported

__all__ = [
    "HJChain",
    "BlowupData",
    "normalize_type",
    "symbol",
    "continued_fraction",
    "hj_resolve",
    "wblowup2",
    "chain_multiplicities",
]


def normalize_type(d: int, a: int, b: int) -> tuple[int, int]:
    """Normal form (e, beta) of the cyclic quotient point 1/d(a, b).

    The result is 1/e(1, beta) with gcd(e, beta) = 1, or (1, 0) when the
    point is smooth: reflections are factored out (they only
    re-coordinatize the quotient), and beta is the smaller of the two
    candidates beta_0, beta_0^{-1} mod e, making the normal form
    invariant under swapping the coordinates (Brieskorn 1968).  Both
    1/5(-1,2) and 1/5(2,-1) normalize to 1/5(1,2).

    The group is never listed: dividing by gcd(d, a, b) makes it act
    faithfully, and two gcds divide out the reflections.

    >>> normalize_type(5, -1, 2)
    (5, 2)
    >>> symbol(normalize_type(4, 2, 3))
    '1/2(1,1)'
    """
    if d < 1:
        raise InputError("group orders must be >= 1")
    g = math.gcd(d, a, b)
    d, a, b = d // g, a // g, b // g
    # The elements that leave x alone form the subgroup of order
    # gcd(a, d), all reflections; dividing it out replaces y by
    # y^gcd(a, d) and leaves 1/(d/gcd(a, d))(a/gcd(a, d), b).  The same
    # for y leaves a group whose two weights are units, so it is small.
    ga = math.gcd(a, d)
    d, a = d // ga, a // ga
    gb = math.gcd(b, d)
    e = d // gb
    beta = pow(a, -1, e) * (b // gb) % e  # e = 1 gives (1, 0): mod 1 all is 0
    return e, min(beta, pow(beta, -1, e))


def symbol(normal: tuple[int, int]) -> str:
    """The normal form (e, beta) written 1/e(1,beta), or smooth for (1, 0)."""
    e, beta = normal
    return "smooth" if e == 1 else f"1/{e}(1,{beta})"


def continued_fraction(q: Fraction) -> list[int]:
    """Ceiling (Hirzebruch-Jung) continued fraction of a rational > 1.

    d/beta = b_1 - 1/(b_2 - 1/(..)) with all b_i >= 2.  Each step takes
    b = ceil(d/beta) and goes on with beta/(b*beta - d), on the integers.

    >>> continued_fraction(Fraction(7, 5))
    [2, 2, 3]
    """
    d, beta = q.numerator, q.denominator
    if d <= beta:
        raise InputError(f"continued_fraction needs a rational > 1, got {q}")
    out = []
    while beta:
        c = -(-d // beta)  # ceiling
        out.append(c)
        d, beta = beta, c * beta - d
    return out


@dataclass(frozen=True)
class HJChain:
    """A Hirzebruch-Jung resolution chain of 1/d(1, beta).

    ``b`` are the chain self-intersections (-b_1, .., -b_s) read from
    the continued fraction of d/beta.  A curve through the singular
    point that meets the chain at b_1 has its self-intersection drop by
    ``correction`` = -beta/d on the resolution, and one meeting it at
    b_s by ``far_correction`` = -beta'/d, beta' = beta^-1 mod d.
    """

    b: tuple[int, ...]
    correction: Fraction
    far_correction: Fraction


def hj_resolve(d: int, beta: int) -> HJChain:
    """Resolution chain of the cyclic quotient singularity 1/d(1, beta).

    >>> chain = hj_resolve(7, 5)
    >>> chain.b, chain.correction, chain.far_correction
    ((2, 2, 3), Fraction(-5, 7), Fraction(-3, 7))
    """
    if not (0 < beta < d):
        raise InputError(f"need 0 < beta < d, got beta={beta}, d={d}")
    if math.gcd(d, beta) != 1:
        raise InputError(f"1/{d}(1,{beta}) is not a quotient singularity symbol: gcd > 1")
    b = continued_fraction(Fraction(d, beta))
    return HJChain(tuple(b), Fraction(-beta, d), Fraction(-pow(beta, -1, d), d))


def chain_multiplicities(b: tuple[int, ...], m_left: int, m_right: int) -> tuple[int, ...]:
    """Solve m_{i-1} - b_i m_i + m_{i+1} = 0 along a chain.

    m_left and m_right are the known multiplicities of the curves
    attached at the two ends (0 for a free end).  All interior values
    must come out as positive integers.
    """
    s = len(b)
    # m_i = p_i + q_i * m_1 with m_0 = m_left
    p, q = [m_left, 0], [0, 1]
    for i in range(1, s + 1):
        p.append(b[i - 1] * p[i] - p[i - 1])
        q.append(b[i - 1] * q[i] - q[i - 1])
    # p[s+1] + q[s+1] * m_1 = m_right
    if q[s + 1] == 0:
        raise NonIntegralMultiplicity("degenerate chain system")
    m1, rest = divmod(m_right - p[s + 1], q[s + 1])
    ms = tuple(p[i] + q[i] * m1 for i in range(1, s + 1))
    if rest or any(m <= 0 for m in ms):
        m1 = Fraction(m_right - p[s + 1], q[s + 1])
        shown = [p[i] + q[i] * m1 for i in range(1, s + 1)]
        raise NonIntegralMultiplicity(
            f"chain multiplicities {shown} are not positive integers for b={b}, ends=({m_left},{m_right})"
        )
    return ms


@dataclass(frozen=True)
class BlowupData:
    """Numerical outcome of one weighted blow-up.

    ``self_int`` is E^2 of the new exceptional curve.  ``charts`` holds
    the groups (d, a, b) of the origin-x and origin-y charts as written
    on the chart coordinates, weights reduced mod d and (1, 0, 0) for a
    smooth chart; at the origin-x chart the first coordinate is local
    to E, at origin-y the second.  ``normalize_type(*group)`` gives the
    normal form of a chart origin.
    """

    weights: tuple[int, int]
    self_int: Fraction
    charts: tuple[tuple[int, int, int], tuple[int, int, int]]


def _presentable(d: int, a: int, b: int, p: int, q: int) -> bool:
    """Can 1/d(a,b) be written with weights (p, q), i.e. (a,b) = l(p,q) mod d
    for a unit l?  Needs gcd(p, d) = 1."""
    lam = (a * pow(p, -1, d)) % d
    return (lam * q - b) % d == 0 and math.gcd(lam, d) == 1


def wblowup2(ambient: tuple[int, int, int] | None, weights: tuple[int, int]) -> BlowupData:
    """(p, q)-weighted blow-up of the origin of C^2 or of a point 1/d(a, b).

    ``ambient`` is the group (d, a, b) of the point, None or d = 1 for
    a smooth point.  Requires d, p, q pairwise coprime and (a, b) a
    unit multiple of (p, q) mod d.  The new exceptional curve E has
    E^2 = -d/(pq); the two chart origins carry the groups 1/p(-d, q)
    and 1/q(p, -d).

    >>> data = wblowup2(None, (2, 3))
    >>> data.self_int, data.charts
    (Fraction(-1, 6), ((2, 1, 1), (3, 2, 2)))
    >>> [symbol(normalize_type(*g)) for g in data.charts]
    ['1/2(1,1)', '1/3(1,1)']
    """
    p, q = weights
    if p < 1 or q < 1 or math.gcd(p, q) != 1:
        raise InputError(f"blow-up weights must be coprime positive integers, got {weights}")
    d, a, b = ambient or (1, 0, 0)
    if d > 1:
        # presentability is a statement about the written coordinates,
        # so it is checked on the raw row, not the normal form
        if math.gcd(d, p) != 1 or math.gcd(d, q) != 1:
            raise Unsupported(f"weights {weights} share a factor with the group order {d}")
        if not _presentable(d, a, b, p, q):
            raise Unsupported(f"ambient 1/{d}({a},{b}) is not presentable as 1/{d}({p},{q})")
    return BlowupData((p, q), Fraction(-d, p * q), ((p, -d % p, q % p), (q, p % q, -d % q)))
