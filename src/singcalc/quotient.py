"""Cyclic quotient singularities, Hirzebruch-Jung chains, and weighted
blow-up bookkeeping.

A diagonal quotient of C^n (n <= 3) by a product of cyclic groups is
recorded as orders (d_1, .., d_r) together with an r x n matrix of
weights: the generator of the i-th factor acts by

    (x_1, .., x_n)  ->  (zeta^{a_{i1}} x_1, .., zeta^{a_{in}} x_n),

zeta a primitive d_i-th root of unity.  For surfaces (n = 2) every
such quotient is a cyclic quotient singularity and has a normal form
1/d(1, beta); its minimal resolution is the Hirzebruch-Jung chain read
off the ceiling continued-fraction expansion of d/beta.

Weighted blow-ups with coprime weights (p, q) produce exactly these
quotient points on the two charts, which is what ties this module to
the curve-resolution engine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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
    "SMOOTH",
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


SMOOTH = cyclic(1, 0, 0)


def _group_elements(q: QuotientType) -> tuple[int, set[tuple[int, ...]]]:
    """All elements of the acting group as exponent vectors mod L = lcm(d_i)."""
    L = math.lcm(*q.orders)
    gens = [
        tuple((a * (L // d)) % L for a in row)
        for d, row in zip(q.orders, q.weights)
    ]
    n = q.dim
    elements = {tuple([0] * n)}
    frontier = [tuple([0] * n)]
    while frontier:
        e = frontier.pop()
        for g in gens:
            nxt = tuple((x + y) % L for x, y in zip(e, g))
            if nxt not in elements:
                elements.add(nxt)
                frontier.append(nxt)
    return L, elements


def normalize_type(q: QuotientType) -> QuotientType:
    """Normal form of a diagonal quotient symbol.

    For surfaces (n = 2) the result is either the smooth symbol or the
    cyclic form 1/d(1, beta) with gcd(d, beta) = 1: pseudo-reflections
    are factored out (they only re-coordinatize the quotient), the
    remaining small diagonal abelian group is cyclic, and beta is the
    smaller of the two candidates beta_0, beta_0^{-1} mod d, making the
    normal form invariant under swapping the coordinates.  Both
    1/5(-1,2) and 1/5(2,-1) normalize to 1/5(1,2).

    Curves (n = 1) are always smooth.  For n = 3 only row reduction
    and dropping of trivial factors is performed.
    """
    if q.dim == 1:
        return QuotientType((1,), ((0,),))
    if q.dim == 3:
        rows = [(d, row) for d, row in zip(q.orders, q.weights) if d > 1]
        if not rows:
            return QuotientType((1,), ((0, 0, 0),))
        return QuotientType(tuple(r[0] for r in rows), tuple(r[1] for r in rows))

    L, elements = _group_elements(q)
    # Pseudo-reflection subgroups act on one coordinate only; quotienting
    # by them replaces that coordinate by its invariant power.
    hx = len({e[0] for e in elements if e[1] == 0})
    hy = len({e[1] for e in elements if e[0] == 0})
    small = {((u * hx) % L, (v * hy) % L) for u, v in elements}
    order = len(small)
    if order == 1:
        return QuotientType((1,), ((0, 0),))
    gen = None
    for e in small:
        powers = {tuple((k * x) % L for x in e) for k in range(order)}
        if len(powers) == order:
            gen = e
            break
    if gen is None:
        raise InternalError("small diagonal abelian surface group is not cyclic")
    # translate exponents mod L into weights mod the group order
    step = L // order
    if any(x % step for x in gen):
        raise InternalError("generator exponents not on the lattice of the cyclic group")
    a, b = gen[0] // step, gen[1] // step
    if math.gcd(a, order) != 1:
        # some power of gen is a pseudo-reflection, contradiction
        raise InternalError("normalized group is not small")
    inv = pow(a, -1, order)
    beta = (inv * b) % order
    return cyclic(order, 1, min(beta, pow(beta, -1, order)))


def continued_fraction(q: Fraction) -> list[int]:
    """Ceiling (Hirzebruch-Jung) continued fraction of a rational > 1.

    d/beta = b_1 - 1/(b_2 - 1/(..)) with all b_i >= 2.

    >>> continued_fraction(Fraction(7, 5))
    [2, 2, 3]
    """
    q = Fraction(q)
    if q <= 1:
        raise InputError(f"continued_fraction needs a rational > 1, got {q}")
    out = []
    while True:
        c = -((-q.numerator) // q.denominator)  # ceiling
        out.append(c)
        rem = c - q
        if rem == 0:
            return out
        q = 1 / rem


@dataclass(frozen=True)
class HJChain:
    """A Hirzebruch-Jung resolution chain.

    ``b`` are the chain self-intersections (-b_1, .., -b_s) read from
    the continued fraction of d/beta; ``correction`` is the amount
    -beta/d by which the self-intersection of a curve through the
    singular point drops on the resolution; ``attach_end`` names the
    end (index into b) where that curve meets the chain.
    """

    b: tuple[int, ...]
    correction: Fraction
    attach_end: int = 0


def hj_resolve(d: int, beta: int) -> HJChain:
    """Resolution chain of the cyclic quotient singularity 1/d(1, beta).

    >>> hj_resolve(7, 5).b
    (2, 2, 3)
    """
    if not (0 < beta < d):
        raise InputError(f"need 0 < beta < d, got beta={beta}, d={d}")
    if math.gcd(d, beta) != 1:
        raise InputError(f"1/{d}(1,{beta}) is not a quotient singularity symbol: gcd > 1")
    b = continued_fraction(Fraction(d, beta))
    return HJChain(tuple(b), Fraction(-beta, d))


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

    ``self_int`` is E^2 of the new exceptional curve; ``sing_points``
    lists (chart label, normalized quotient type) for the at most two
    quotient points sitting on E at the chart origins; at the
    origin-x chart the first coordinate is local to E, at origin-y the
    second.
    """

    weights: tuple[int, int]
    self_int: Fraction
    sing_points: tuple[tuple[str, QuotientType], ...]


def _presentable(d: int, a: int, b: int, p: int, q: int) -> bool:
    """Can 1/d(a,b) be written with weights (p, q), i.e. (a,b) = l(p,q) mod d?"""
    if d == 1:
        return True
    if math.gcd(p, d) != 1 or math.gcd(q, d) != 1:
        return False
    lam = (a * pow(p, -1, d)) % d
    return (lam * q - b) % d == 0 and math.gcd(lam, d) == 1


def wblowup2(ambient: QuotientType | None, weights: tuple[int, int]) -> BlowupData:
    """(p, q)-weighted blow-up of the origin of C^2 or of 1/d(p, q).

    Requires d, p, q pairwise coprime.  The new exceptional curve E
    has E^2 = -d/(pq); the two chart origins are quotient points of
    types 1/p(-d, q) and 1/q(p, -d), listed after normalization and
    omitting smooth ones.

    >>> data = wblowup2(None, (2, 3))
    >>> data.self_int
    Fraction(-1, 6)
    >>> [f"{lbl}: {t}" for lbl, t in data.sing_points]
    ['origin-x: 1/2(1,1)', 'origin-y: 1/3(1,1)']
    """
    p, q = weights
    if p < 1 or q < 1 or math.gcd(p, q) != 1:
        raise InputError(f"blow-up weights must be coprime positive integers, got {weights}")
    if ambient is None or ambient.is_smooth_symbol():
        d = 1
    else:
        if ambient.dim != 2 or len(ambient.orders) != 1:
            raise Unsupported(f"cannot blow up ambient {ambient}")
        d = ambient.orders[0]
        if d > 1:
            # presentability is a statement about the written coordinates,
            # so it is checked on the raw row, not the normal form
            a, b = ambient.weights[0]
            if math.gcd(d, p) != 1 or math.gcd(d, q) != 1:
                raise Unsupported(f"weights {weights} share a factor with the group order {d}")
            if not _presentable(d, a, b, p, q):
                raise Unsupported(f"ambient {ambient} is not presentable as 1/{d}({p},{q})")
    points = []
    if p > 1:
        points.append(("origin-x", normalize_type(cyclic(p, -d, q))))
    if q > 1:
        points.append(("origin-y", normalize_type(cyclic(q, p, -d))))
    return BlowupData((p, q), Fraction(-d, p * q), tuple(points))


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
