"""Cyclic quotient singularities, Hirzebruch-Jung chains, and weighted
blow-up bookkeeping.

A diagonal quotient of C^n (n <= 3) by a product of cyclic groups is
recorded as orders (d_1, .., d_r) together with an r x n matrix of
weights: the generator of the i-th factor acts by

    (x_1, .., x_n)  ->  (zeta^{a_{i1}} x_1, .., zeta^{a_{in}} x_n),

zeta a primitive d_i-th root of unity.  For surfaces (n = 2) every
such quotient is a cyclic quotient singularity and has a normal form
1/d(1, beta); its minimal resolution is the Hirzebruch-Jung chain read
off the ceiling continued-fraction expansion of d/beta.  `hj_resolve`
builds every such chain, the ones the curve-resolution engine inserts
included.

Weighted blow-ups with coprime weights (p, q) produce exactly these
quotient points on the two charts, which is what ties this module to
the curve-resolution engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalError, NonIntegralMultiplicity, Unsupported

__all__ = [
    "QuotientType",
    "HJChain",
    "BlowupData",
    "normalize_type",
    "continued_fraction",
    "hj_resolve",
    "suspension_normalize",
    "wblowup2",
    "wblowup3_smooth",
    "cyclic",
    "chain_multiplicities",
]


@dataclass(frozen=True)
class QuotientType:
    """A diagonal quotient C^n / (Z/d_1 x .. x Z/d_r), n <= 3.

    ``orders`` holds (d_1, .., d_r); ``weights`` holds the r x n
    exponent matrix, each row reduced modulo its order.
    """

    orders: tuple[int, ...]
    weights: tuple[tuple[int, ...], ...]

    def __init__(self, orders, weights):
        orders = tuple(int(d) for d in orders)
        weights = tuple(tuple(int(a) for a in row) for row in weights)
        if len(orders) != len(weights) or not orders:
            raise InputError("need one weight row per group order")
        n = len(weights[0])
        if n not in (1, 2, 3) or any(len(row) != n for row in weights):
            raise InputError("weights must be rows of equal length 1, 2 or 3")
        if any(d < 1 for d in orders):
            raise InputError("group orders must be >= 1")
        weights = tuple(
            tuple(a % d for a in row) for d, row in zip(orders, weights)
        )
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return len(self.weights[0])

    @property
    def group_order(self) -> int:
        return math.prod(self.orders)

    def is_smooth_symbol(self) -> bool:
        """True when the written symbol is visibly trivial (all d_i = 1).

        Use normalize_type to decide smoothness of an arbitrary symbol.
        """
        return all(d == 1 for d in self.orders)

    def __str__(self) -> str:
        if self.is_smooth_symbol():
            return "smooth"
        parts = [
            f"1/{d}({','.join(map(str, row))})"
            for d, row in zip(self.orders, self.weights)
            if d > 1
        ]
        return " x ".join(parts)


def cyclic(d: int, *weights: int) -> QuotientType:
    return QuotientType((d,), (tuple(weights),))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a > 0 and b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        k, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - k * s1
        t0, t1 = t1, t0 - k * t1
    return a, s0, t0


def normalize_type(q: QuotientType) -> QuotientType:
    """Normal form of a diagonal quotient symbol.

    For surfaces (n = 2) the result is either the smooth symbol or the
    cyclic form 1/d(1, beta) with gcd(d, beta) = 1: pseudo-reflections
    are factored out (they only re-coordinatize the quotient), the
    remaining small diagonal abelian group is cyclic, and beta is the
    smaller of the two candidates beta_0, beta_0^{-1} mod d, making the
    normal form invariant under swapping the coordinates (Brieskorn
    1968).  Both 1/5(-1,2) and 1/5(2,-1) normalize to 1/5(1,2).

    The group is never listed.  With L = lcm(d_i), its elements are the
    lattice spanned by the generator rows, scaled to exponents mod L,
    and by L*Z^2, taken mod L.  An extended gcd per row reduces that
    lattice to a Hermite basis (e, f), (0, c).  The reflections along
    the axes form subgroups of orders hx = L / (e*c / gcd(f, c)) and
    hy = L / c, and the small group left after replacing x, y by x^hx,
    y^hy is generated by (hx*e, hy*f) mod L.

    Curves (n = 1) are always smooth.  For n = 3 only row reduction
    and dropping of trivial factors is performed.

    >>> print(normalize_type(cyclic(5, -1, 2)))
    1/5(1,2)
    >>> print(normalize_type(QuotientType((4, 2), ((1, 3), (1, 0)))))
    1/2(1,1)
    """
    if q.dim == 1:
        return QuotientType((1,), ((0,),))
    if q.dim == 3:
        rows = [(d, row) for d, row in zip(q.orders, q.weights) if d > 1]
        if not rows:
            return QuotientType((1,), ((0, 0, 0),))
        return QuotientType(tuple(r[0] for r in rows), tuple(r[1] for r in rows))

    L = math.lcm(*q.orders)
    e, f, c = L, 0, L  # Hermite basis (e, f), (0, c) of L*Z^2
    for d, (x, y) in zip(q.orders, q.weights):
        x, y = x * (L // d), y * (L // d)
        g, s, t = _xgcd(e, x)
        # (e, f), (x, y) -> (g, s*f + t*y), (0, (x/g)*f - (e/g)*y) is unimodular
        c = math.gcd(c, (x // g) * f - (e // g) * y)
        e, f = g, (s * f + t * y) % c
    hx = L // (e * c // math.gcd(f, c))
    hy = L // c
    u, v = hx * e % L, hy * f % L
    order = L // math.gcd(u, v, L)
    if order == 1:
        return QuotientType((1,), ((0, 0),))
    step = L // order
    a, b = u // step, v // step
    if math.gcd(a, order) != 1 or math.gcd(b, order) != 1:
        # some power of the generator is a pseudo-reflection, contradiction
        raise InternalError("normalized group is not small")
    beta = pow(a, -1, order) * b % order
    return cyclic(order, 1, min(beta, pow(beta, -1, order)))


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


def suspension_normalize(k: int, a: int, b: int) -> list[QuotientType]:
    """Singularities of the normalization of the surface z^k = u^a v^b.

    Splits into gcd(k, a, b) identical components; each reduces, after
    cancelling gcd(a,k) and then gcd(b,k), to a cyclic quotient
    1/k'(1, k'-c) where a'c = b' mod k' (smooth if k' = 1).  When one
    of a, b vanishes the component is smooth.

    >>> [str(t) for t in suspension_normalize(5, 1, 2)]
    ['1/5(1,3)']
    """
    if k < 1 or a < 0 or b < 0:
        raise InputError(f"need k >= 1 and a, b >= 0, got ({k},{a},{b})")
    g = math.gcd(k, a, b)  # gcd(k, 0, 0) = k: z^k - 1 is k smooth sheets
    k1, a1, b1 = k // g, a // g, b // g
    ga = math.gcd(a1, k1)
    k2, a2 = k1 // ga, a1 // ga
    gb = math.gcd(b1, k2)
    k3, b3 = k2 // gb, b1 // gb
    if k3 == 1:
        comp = QuotientType((1,), ((0, 0),))
    else:
        c = (pow(a2, -1, k3) * b3) % k3
        if c == 0:
            raise InternalError("suspension reduction left a reflection")
        comp = cyclic(k3, 1, k3 - c)
    return [comp] * g


@dataclass(frozen=True)
class BlowupData:
    """Numerical outcome of one weighted blow-up.

    ``self_int`` is E^2 of the new exceptional curve.  ``charts`` holds
    the groups (d, a, b) of the origin-x and origin-y charts as written
    on the chart coordinates, weights reduced mod d and (1, 0, 0) for a
    smooth chart; at the origin-x chart the first coordinate is local
    to E, at origin-y the second.  ``sing_points`` lists (chart label,
    normal form) for the chart origins that are quotient points.
    """

    weights: tuple[int, int]
    self_int: Fraction
    charts: tuple[tuple[int, int, int], tuple[int, int, int]]

    @property
    def sing_points(self) -> tuple[tuple[str, QuotientType], ...]:
        return tuple(
            (label, normalize_type(cyclic(*group)))
            for label, group in zip(("origin-x", "origin-y"), self.charts)
            if group[0] > 1
        )


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
    >>> [f"{lbl}: {t}" for lbl, t in data.sing_points]
    ['origin-x: 1/2(1,1)', 'origin-y: 1/3(1,1)']
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


def wblowup3_smooth(omega: tuple[int, int, int]) -> list[tuple[str, QuotientType]]:
    """Singular loci of the omega-weighted blow-up of the origin of C^3.

    Vertices of the exceptional P^2_omega give quotient points
    1/p(-1,q,r), 1/q(p,-1,r), 1/r(p,q,-1) (weight-1 vertices being
    smooth are omitted); the coordinate edges {x=0}, {y=0}, {z=0} are
    singular exactly when gcd(q,r), gcd(p,r), gcd(p,q) > 1.  Edge
    entries record the isotropy order together with the weight of the
    one coordinate it moves.
    """
    p, q, r = omega
    if min(p, q, r) < 1:
        raise InputError(f"weights must be positive, got {omega}")
    if math.gcd(p, math.gcd(q, r)) != 1:
        raise InputError(f"weights must have gcd 1, got {omega}")
    out: list[tuple[str, QuotientType]] = []
    if p > 1:
        out.append(("vertex-x", QuotientType((p,), ((-1, q, r),))))
    if q > 1:
        out.append(("vertex-y", QuotientType((q,), ((p, -1, r),))))
    if r > 1:
        out.append(("vertex-z", QuotientType((r,), ((p, q, -1),))))
    for label, g, moved in (
        ("edge-x", math.gcd(q, r), p),
        ("edge-y", math.gcd(p, r), q),
        ("edge-z", math.gcd(p, q), r),
    ):
        if g > 1:
            out.append((label, QuotientType((g,), ((moved % g,),))))
    return out
