"""Embedded Q-resolution of plane-curve germs by weighted blow-ups.

A germ f(x,y) = 0 is resolved by a walk over charts.  Each blow-up
with coprime weights (p, q) at a (possibly quotient) chart origin
creates one exceptional curve E with

    N_E  = (p,q)-weighted order of the invariant local equation / d,
    E^2  = -d / (pq),

and two new charts with cyclic ambient groups 1/p(-d, q) and
1/q(p, -d); strict transforms are computed monomially.  The walk stops
at a chart origin once the local picture is a normal crossing of at
most two components (exceptional curves, strict branches), possibly at
a cyclic quotient point.  Points of E away from the chart origins are
read off the face polynomial restricted to E; transversal crossings
become strict branches, non-transversal ones are re-centered by an
affine translation when the chart is smooth and the position rational.

The resulting graph of exceptional curves with multiplicities,
self-intersections and quotient points converts to a smooth resolution
graph by replacing every quotient point with its Hirzebruch-Jung chain
and solving the pullback relation m_{i-1} - b_i m_i + m_{i+1} = 0 for
the chain multiplicities.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclo import divisors
from .errors import (
    InputError,
    InternalError,
    NonIntegralMultiplicity,
    NotReduced,
    Unsupported,
)
from .quotient import (
    QuotientType,
    chain_multiplicities,
    continued_fraction,
    cyclic,
)

__all__ = [
    "BivarPoly",
    "Chart",
    "QVertex",
    "QEdge",
    "QResolutionGraph",
    "SmoothVertex",
    "SmoothResolutionGraph",
    "newton_weights",
    "qblowup_step",
    "qresolve",
    "smoothen",
    "local_invariants",
]


# ----------------------------------------------------------------- BivarPoly


@dataclass(frozen=True)
class BivarPoly:
    """Sparse polynomial in two variables with rational coefficients."""

    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    def __init__(self, terms=()):
        data: dict[tuple[int, int], Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (i, j), c in items:
            c = Fraction(c)
            if c == 0:
                continue
            if i < 0 or j < 0:
                raise InputError(f"negative exponent ({i},{j})")
            key = (int(i), int(j))
            data[key] = data.get(key, Fraction(0)) + c
        object.__setattr__(
            self, "terms", tuple(sorted((k, v) for k, v in data.items() if v != 0))
        )

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[tuple[int, int]]:
        return [k for k, _ in self.terms]

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.as_dict().get((i, j), Fraction(0))

    def is_unit_at_origin(self) -> bool:
        return self.coefficient(0, 0) != 0

    def weighted_order(self, p: int, q: int) -> int:
        if self.is_zero():
            raise InputError("weighted order of the zero polynomial")
        return min(p * i + q * j for (i, j), _ in self.terms)

    def axis_powers(self) -> tuple[int, int]:
        """Largest (a, b) with x^a y^b dividing the polynomial."""
        if self.is_zero():
            raise InputError("axis powers of the zero polynomial")
        return (
            min(i for (i, _), _ in self.terms),
            min(j for (_, j), _ in self.terms),
        )

    def strip_axes(self) -> tuple[int, int, "BivarPoly"]:
        a, b = self.axis_powers()
        return a, b, BivarPoly({(i - a, j - b): c for (i, j), c in self.terms})

    def translate_y(self, y0: Fraction) -> "BivarPoly":
        """Substitute y -> y + y0."""
        y0 = Fraction(y0)
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms:
            for k in range(j + 1):
                coef = c * math.comb(j, k) * y0 ** (j - k)
                if coef:
                    out[(i, k)] = out.get((i, k), Fraction(0)) + coef
        return BivarPoly(out)

    def translate_x(self, x0: Fraction) -> "BivarPoly":
        x0 = Fraction(x0)
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms:
            for k in range(i + 1):
                coef = c * math.comb(i, k) * x0 ** (i - k)
                if coef:
                    out[(k, j)] = out.get((k, j), Fraction(0)) + coef
        return BivarPoly(out)

    def restrict_x0(self) -> dict[int, Fraction]:
        """Coefficients of f(0, y) as a map j -> c."""
        return {j: c for (i, j), c in self.terms if i == 0}

    def evaluate(self, x: Fraction, y: Fraction) -> Fraction:
        return sum((c * x**i * y**j for (i, j), c in self.terms), Fraction(0))

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms:
            for (k, l), d in other.terms:
                key = (i + k, j + l)
                out[key] = out.get(key, Fraction(0)) + c * d
        return BivarPoly(out)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for (i, j), c in self.terms:
            mono = "".join(
                (f"x^{i}" if i > 1 else "x" if i == 1 else "",
                 f"y^{j}" if j > 1 else "y" if j == 1 else "")
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


# ------------------------------------------------- univariate helpers (QQ[z])


def _utrim(a: list[Fraction]) -> list[Fraction]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _uderiv(a: list[Fraction]) -> list[Fraction]:
    if len(a) == 1:
        return [Fraction(0)]
    return _utrim([a[k] * k for k in range(1, len(a))])


def _udivmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = a[:]
    if b == [0]:
        raise InternalError("univariate division by zero")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and a != [0]:
        shift = len(a) - len(b)
        f = a[-1] / b[-1]
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        _utrim(a)
        if a == [0]:
            break
    return _utrim(q), a


def _ugcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = a[:], b[:]
    while b != [0]:
        a, b = b, _udivmod(a, b)[1]
    if a != [0]:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _urational_roots(a: list[Fraction]) -> list[Fraction]:
    """Distinct rational roots, sorted."""
    if len(a) == 1:
        return []
    denlcm = math.lcm(*(c.denominator for c in a))
    ints = [int(c * denlcm) for c in a]
    k = 0
    while ints[k] == 0:
        k += 1
    roots = set()
    if k > 0:
        roots.add(Fraction(0))
    a0, an = abs(ints[k]), abs(ints[-1])
    for pn in divisors(a0):
        for qd in divisors(an):
            for cand in (Fraction(pn, qd), Fraction(-pn, qd)):
                if _ueval(a, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _ueval(a: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


# ------------------------------------------------------------ Newton polygon


def _compact_faces(support: list[tuple[int, int]]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Compact faces of the Newton polygon, as vertex pairs with
    increasing i and decreasing j."""
    pts = sorted(set(support))
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    faces = []
    for a, b in zip(hull, hull[1:]):
        if b[1] < a[1]:  # negative slope = compact face of the germ polygon
            faces.append((a, b))
    return faces


@dataclass(frozen=True)
class NewtonData:
    weights: tuple[int, int]
    order: int
    axis_powers: tuple[int, int]


def newton_weights(f: BivarPoly) -> NewtonData:
    """Blow-up weights from the Newton polygon of a germ.

    Coordinate factors x^a y^b are stripped first and reported in
    ``axis_powers``; a monomial germ (empty polygon after stripping) is
    rejected.  Among the compact faces, the primitive inner normal
    (p, q) maximizing the weighted order of f is selected, ties broken
    by smaller p.  ``order`` is the (p,q)-weighted order of f itself,
    coordinate factors included.
    """
    if f.is_zero():
        raise InputError("zero polynomial has no Newton polygon")
    if f.is_unit_at_origin():
        raise InputError("unit germ: no singularity at the origin")
    ax, ay, core = f.strip_axes()
    if core.is_unit_at_origin() and len(core.terms) == 1:
        raise InputError("monomial germ has an empty Newton polygon")
    faces = _compact_faces(core.support())
    if not faces:
        raise InputError("monomial germ has an empty Newton polygon")
    candidates = []
    for (i1, j1), (i2, j2) in faces:
        p, q = j1 - j2, i2 - i1
        g = math.gcd(p, q)
        p, q = p // g, q // g
        m = f.weighted_order(p, q)
        candidates.append((-m, p, q))
    candidates.sort()
    neg_m, p, q = candidates[0]
    return NewtonData((p, q), -neg_m, (ax, ay))


# ------------------------------------------------------------------- charts


@dataclass(frozen=True)
class Chart:
    """Working state of the resolution walk at one chart.

    ``ambient`` is None for a smooth chart, otherwise a cyclic type
    1/d(a, b) acting diagonally on the chart coordinates.  ``pending``
    lists exceptional components through the chart origin as
    (component id, coordinate axis whose zero set the component is,
    multiplicity).  The equation is the strict transform: exceptional
    factors removed, axis-shaped strict branches kept.
    """

    ambient: QuotientType | None
    equation: BivarPoly
    pending: tuple[tuple[str, str, int], ...] = ()

    def group(self) -> tuple[int, int, int]:
        if self.ambient is None or self.ambient.is_smooth_symbol():
            return (1, 0, 0)
        if self.ambient.dim != 2 or len(self.ambient.orders) != 1:
            raise Unsupported(f"ambient {self.ambient} is not a cyclic surface chart")
        d = self.ambient.orders[0]
        a, b = self.ambient.weights[0]
        return (d, a % d, b % d)


def _check_uniform_character(poly: BivarPoly, d: int, a: int, b: int) -> int:
    """All monomials of a semi-invariant share one character mod d."""
    if d == 1 or poly.is_zero():
        return 0
    chars = {(a * i + b * j) % d for (i, j), _ in poly.terms}
    if len(chars) != 1:
        raise InternalError(
            f"equation is not semi-invariant under 1/{d}({a},{b}): characters {sorted(chars)}"
        )
    return chars.pop()


def qblowup_step(c: Chart, weights: tuple[int, int], exc_id: str = "E"):
    """One weighted blow-up at the chart origin.

    Returns (exceptional record, [origin-x chart, origin-y chart]).
    The record is a dict with the new component's multiplicity,
    self-intersection, quotient points, and the self-intersection
    corrections owed to the pending components through the center; the
    new component enters both charts' pending lists under ``exc_id``.
    """
    from .quotient import wblowup2

    p, q = weights
    d, a, b = c.group()
    _check_uniform_character(c.equation, d, a, b)
    amb = None if d == 1 else cyclic(d, a, b)
    base = wblowup2(amb, (p, q))

    axes = {axis: (cid, mult) for cid, axis, mult in c.pending}
    if len(axes) != len(c.pending):
        raise InputError("two pending components on one axis")
    ax_mult = axes.get("x", (None, 0))[1]
    ay_mult = axes.get("y", (None, 0))[1]
    m = c.equation.weighted_order(p, q)
    n_up = p * ax_mult + q * ay_mult + m
    if n_up % d:
        raise InternalError(f"upstairs multiplicity {n_up} not divisible by the group order {d}")
    n_exc = n_up // d

    def transform(chart_one: bool) -> BivarPoly:
        out = {}
        for (i, j), coef in c.equation.terms:
            s = p * i + q * j - m
            if s % d:
                raise InternalError("monomial transform produced a fractional exponent")
            key = (s // d, j) if chart_one else (i, s // d)
            out[key] = out.get(key, Fraction(0)) + coef
        return BivarPoly(out)

    pending1 = [(exc_id, "x", n_exc)]
    if "y" in axes:  # the old component along {y=0} survives into chart 1
        pending1.append((axes["y"][0], "y", ay_mult))
    pending2 = [(exc_id, "y", n_exc)]
    if "x" in axes:
        pending2.append((axes["x"][0], "x", ax_mult))
    chart1 = Chart(
        ambient=None if p == 1 else cyclic(p, -d, q),
        equation=transform(True),
        pending=tuple(pending1),
    )
    chart2 = Chart(
        ambient=None if q == 1 else cyclic(q, p, -d),
        equation=transform(False),
        pending=tuple(pending2),
    )
    record = {
        "id": exc_id,
        "multiplicity": n_exc,
        "self_int": base.self_int,
        "sing_points": base.sing_points,
        "weights": (p, q),
        "corrections": {
            cid: (Fraction(-p, d * q) if axis == "x" else Fraction(-q, d * p))
            for cid, axis, _ in c.pending
        },
    }
    return record, [chart1, chart2]


# -------------------------------------------------------------- graph types


@dataclass
class QVertex:
    id: str
    multiplicity: int
    self_int: Fraction | None
    genus: int = 0
    # oriented quotient points (d, beta): the HJ chain of 1/d(1,beta)
    # attaches this vertex at its first curve
    quotient_points: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class QEdge:
    u: str
    v: str
    # (d, beta): crossing at a 1/d(1,beta)-point whose chain attaches v
    # first and u last; None for a plain transversal crossing
    quotient: tuple[int, int] | None = None


@dataclass
class QResolutionGraph:
    vertices: dict[str, QVertex]
    edges: list[QEdge]
    strict_vertices: list[str]
    blowups: int

    def exceptional_ids(self) -> list[str]:
        return [v for v in self.vertices if v not in set(self.strict_vertices)]


@dataclass
class SmoothVertex:
    id: str
    multiplicity: int
    self_int: int | None
    genus: int
    chi_open: int


@dataclass
class SmoothResolutionGraph:
    vertices: dict[str, SmoothVertex]
    edges: list[tuple[str, str]]
    strict_vertices: list[str]

    def exceptional_ids(self) -> list[str]:
        return [v for v in self.vertices if v not in set(self.strict_vertices)]


# ----------------------------------------------------------------- qresolve


_MAX_CHARTS = 400


class _Walk:
    def __init__(self):
        self.vertices: dict[str, QVertex] = {}
        self.edges: list[QEdge] = []
        self.strict: list[str] = []
        self.blowups = 0
        self._strict_count = 0

    def next_exceptional_id(self) -> str:
        return f"E{self.blowups + 1}"

    def add_exceptional(self, vid: str, mult: int, self_int: Fraction):
        self.blowups += 1
        self.vertices[vid] = QVertex(vid, mult, self_int)

    def new_strict(self) -> str:
        self._strict_count += 1
        vid = f"S{self._strict_count}"
        self.vertices[vid] = QVertex(vid, 1, None)
        self.strict.append(vid)
        return vid


def _analyze_origin(walk: _Walk, chart: Chart) -> bool:
    """Emit final graph data for an NC chart origin; return False when
    the origin still needs a blow-up."""
    d, a, b = chart.group()
    _check_uniform_character(chart.equation, d, a, b)
    axes = {axis: (cid, mult) for cid, axis, mult in chart.pending}
    if chart.equation.is_zero():
        raise InputError("zero equation in chart")
    ax, ay, core = chart.equation.strip_axes()
    if ax >= 2 or ay >= 2:
        raise NotReduced(f"repeated coordinate factor x^{ax} y^{ay} in a chart equation")
    if (ax and "x" in axes) or (ay and "y" in axes):
        raise NotReduced("strict transform contains an exceptional component")

    comps: list[tuple[str, str]] = []  # (kind in exc|branch, axis)
    for axis in ("x", "y"):
        if axis in axes:
            comps.append(("exc", axis))
        elif (axis == "x" and ax) or (axis == "y" and ay):
            comps.append(("branch", axis))

    core_through = not core.is_unit_at_origin()
    total = len(comps) + (1 if core_through else 0)
    if total > 2:
        return False
    if core_through:
        if core.weighted_order(1, 1) != 1:
            return False
        cx, cy = core.coefficient(1, 0), core.coefficient(0, 1)
        if comps:
            (_, other_axis), = comps
            transversal = (cy != 0) if other_axis == "x" else (cx != 0)
            if not transversal:
                return False

    # the origin is final: emit vertices, edges, quotient points
    def comp_id(kind: str, axis: str) -> str:
        if kind == "exc":
            return axes[axis][0]
        return walk.new_strict()

    ids = {axis: comp_id(kind, axis) for kind, axis in comps}
    if core_through:
        sid = walk.new_strict()
    if total == 2:
        if core_through:
            (_, other_axis), = comps
            other_id = ids[other_axis]
            # the strict branch is transversal, so it plays the role of
            # the remaining coordinate axis in the 1/d(a,b) chart
            if other_axis == "x":
                u, v = other_id, sid
            else:
                u, v = sid, other_id
        else:
            u = ids.get("x")
            v = ids.get("y")
            if u is None or v is None:
                raise InternalError("two components on one axis at a final origin")
        quotient = None
        if d > 1:
            beta = (pow(a, -1, d) * b) % d
            quotient = (d, beta)
        walk.edges.append(QEdge(u, v, quotient))
    elif total == 1:
        if core_through:
            host_axis = None  # isolated smooth branch through a chart origin
            host_id = sid
        else:
            (kind, host_axis), = comps
            host_id = ids[host_axis]
        if d > 1:
            if host_axis == "x" or host_axis is None:
                w_host, w_other = a, b
            else:
                w_host, w_other = b, a
            beta = (pow(w_other, -1, d) * w_host) % d
            hv = walk.vertices[host_id]
            hv.quotient_points.append((d, beta))
    else:
        raise InternalError("chart origin with no components after a blow-up")
    return True


def _scan_exceptional(walk: _Walk, record, chart1: Chart, chart2: Chart, exc_id: str):
    """Handle the points of the new exceptional curve away from the two
    chart origins: transversal crossings become strict branches, worse
    points are translated to fresh smooth charts (returned for the
    worklist) or rejected."""
    p, q = record["weights"]
    face = chart1.equation.restrict_x0()
    if not face:
        raise InternalError("strict transform does not meet the new exceptional curve")
    jmin = min(face)
    rest = sorted(j - jmin for j in face)
    if any(r % p for r in rest):
        raise InternalError("face polynomial is not a polynomial in y^p")
    G = [Fraction(0)] * (rest[-1] // p + 1)
    for j, c in face.items():
        G[(j - jmin) // p] = c
    G = _utrim(G)

    out_charts: list[Chart] = []
    if len(G) == 1:
        return out_charts
    T = _ugcd(G, _uderiv(G))
    S, r0 = _udivmod(G, T)
    if r0 != [0]:
        raise InternalError("squarefree division left a remainder")
    distinct = len(S) - 1
    t_square, _ = _udivmod(T, _ugcd(T, _uderiv(T)))
    multiple_distinct = len(t_square) - 1
    simple = distinct - multiple_distinct
    for _ in range(simple):
        sid = walk.new_strict()
        walk.edges.append(QEdge(exc_id, sid, None))
    if multiple_distinct == 0:
        return out_charts
    rational = _urational_roots(T)
    if len(rational) < multiple_distinct:
        raise Unsupported(
            "non-transversal point of the exceptional curve at an irrational position"
        )
    for z0 in rational:
        if p == 1:
            moved = chart1.equation.translate_y(z0)
            out_charts.append(
                Chart(None, moved, ((exc_id, "x", record["multiplicity"]),))
            )
        elif q == 1:
            moved = chart2.equation.translate_x(1 / z0)
            out_charts.append(
                Chart(None, moved, ((exc_id, "y", record["multiplicity"]),))
            )
        else:
            raise Unsupported(
                "non-transversal point of the exceptional curve inside a chart "
                f"with nontrivial isotropy (weights {p},{q})"
            )
    return out_charts


def qresolve(f: BivarPoly) -> QResolutionGraph:
    """Resolve a reduced plane-curve germ to Q-normal crossings."""
    if f.is_zero():
        raise InputError("the zero polynomial does not define a curve germ")
    if f.is_unit_at_origin():
        raise InputError("the germ is a unit: no curve through the origin")
    walk = _Walk()
    worklist: deque[tuple[Chart, bool]] = deque()
    worklist.append((Chart(None, f, ()), True))
    processed = 0
    while worklist:
        chart, force = worklist.popleft()
        processed += 1
        if processed > _MAX_CHARTS:
            raise InternalError("resolution walk did not terminate")
        if not force and _analyze_origin(walk, chart):
            continue
        if force:
            # run the reducedness checks that _analyze_origin would do
            ax, ay, _core = chart.equation.strip_axes()
            if ax >= 2 or ay >= 2:
                raise NotReduced(
                    f"repeated coordinate factor x^{ax} y^{ay} in the input germ"
                )
        d, a, b = chart.group()
        _ax, _ay, core = chart.equation.strip_axes()
        if core.is_unit_at_origin():
            weights = (1, 1)
        else:
            weights = newton_weights(chart.equation).weights
        p, q = weights
        if d > 1:
            if math.gcd(p, d) != 1 or math.gcd(q, d) != 1:
                raise Unsupported(
                    f"blow-up weights ({p},{q}) collide with the chart group order {d}"
                )
            lam = (a * pow(p, -1, d)) % d
            if (lam * q - b) % d or math.gcd(lam, d) != 1:
                raise Unsupported(
                    f"chart group 1/{d}({a},{b}) is not presentable with weights ({p},{q})"
                )
        exc_id = walk.next_exceptional_id()
        record, (chart1, chart2) = qblowup_step(chart, weights, exc_id)
        walk.add_exceptional(exc_id, record["multiplicity"], record["self_int"])
        for cid, corr in record["corrections"].items():
            walk.vertices[cid].self_int += corr
        for moved in _scan_exceptional(walk, record, chart1, chart2, exc_id):
            worklist.append((moved, False))
        worklist.append((chart1, False))
        worklist.append((chart2, False))
    graph = QResolutionGraph(walk.vertices, walk.edges, walk.strict, walk.blowups)
    _assert_connected(graph)
    return graph


def _assert_connected(g: QResolutionGraph):
    if not g.vertices:
        raise InternalError("empty resolution graph")
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    for e in g.edges:
        adj[e.u].add(e.v)
        adj[e.v].add(e.u)
    seen = set()
    stack = [next(iter(g.vertices))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    if seen != set(g.vertices):
        raise InternalError("resolution graph is disconnected")


# ----------------------------------------------------------------- smoothen


def smoothen(g: QResolutionGraph) -> SmoothResolutionGraph:
    """Replace quotient points by Hirzebruch-Jung chains.

    Chain multiplicities solve the pullback relation with the adjacent
    components as boundary values; original self-intersections drop by
    beta/d at each chain per the minimal-resolution rule.
    """
    self_int: dict[str, Fraction | None] = {
        vid: (None if v.self_int is None else Fraction(v.self_int))
        for vid, v in g.vertices.items()
    }
    mult = {vid: v.multiplicity for vid, v in g.vertices.items()}
    genus = {vid: v.genus for vid, v in g.vertices.items()}
    new_edges: list[tuple[str, str]] = []
    chain_vertices: dict[str, tuple[int, int]] = {}  # id -> (m_i, b_i)
    counter = 0

    def add_chain(d: int, beta: int, first_id: str, last_id: str | None):
        nonlocal counter
        bs = continued_fraction(Fraction(d, beta))
        m_left = mult[first_id]
        m_right = mult[last_id] if last_id is not None else 0
        ms = chain_multiplicities(tuple(bs), m_left, m_right)
        ids = []
        for b_i, m_i in zip(bs, ms):
            counter += 1
            cid = f"C{counter}"
            chain_vertices[cid] = (m_i, b_i)
            ids.append(cid)
        new_edges.append((first_id, ids[0]))
        for x, y in zip(ids, ids[1:]):
            new_edges.append((x, y))
        if last_id is not None:
            new_edges.append((ids[-1], last_id))
        if self_int[first_id] is not None:
            self_int[first_id] -= Fraction(beta, d)
        if last_id is not None and self_int[last_id] is not None:
            beta_bar = pow(beta, -1, d)
            self_int[last_id] -= Fraction(beta_bar, d)

    for vid, v in g.vertices.items():
        for d, beta in v.quotient_points:
            add_chain(d, beta, vid, None)
    for e in g.edges:
        if e.quotient is None:
            new_edges.append((e.u, e.v))
        else:
            d, beta = e.quotient
            add_chain(d, beta, e.v, e.u)

    vertices: dict[str, SmoothVertex] = {}
    strict_set = set(g.strict_vertices)
    adj_count: dict[str, int] = {}
    for u, v in new_edges:
        adj_count[u] = adj_count.get(u, 0) + 1
        adj_count[v] = adj_count.get(v, 0) + 1
    for vid in g.vertices:
        e2 = self_int[vid]
        if vid in strict_set:
            final_e2 = None
        else:
            if e2 is None or e2.denominator != 1:
                raise NonIntegralMultiplicity(
                    f"self-intersection of {vid} is {e2}, not an integer after smoothing"
                )
            final_e2 = int(e2)
        chi = 2 - 2 * genus[vid] - adj_count.get(vid, 0)
        vertices[vid] = SmoothVertex(vid, mult[vid], final_e2, genus[vid], chi)
    for cid, (m_i, b_i) in chain_vertices.items():
        chi = 2 - adj_count.get(cid, 0)
        vertices[cid] = SmoothVertex(cid, m_i, -b_i, 0, chi)

    out = SmoothResolutionGraph(vertices, new_edges, list(g.strict_vertices))
    _assert_adjunction(out)
    return out


def _assert_adjunction(g: SmoothResolutionGraph):
    """The total transform meets every exceptional component trivially:
    N_j E_j^2 + sum over neighbors of N = 0."""
    nb: dict[str, list[str]] = {v: [] for v in g.vertices}
    for u, v in g.edges:
        nb[u].append(v)
        nb[v].append(u)
    for vid in g.exceptional_ids():
        v = g.vertices[vid]
        total = v.multiplicity * v.self_int + sum(
            g.vertices[w].multiplicity for w in nb[vid]
        )
        if total != 0:
            raise InternalError(
                f"pullback relation fails at {vid}: N*E^2 + sum(neighbor N) = {total}"
            )


# ---------------------------------------------------------- local invariants


@dataclass(frozen=True)
class LocalInvariants:
    mu: int
    branches: int
    delta: "CycloProduct"
    graph: QResolutionGraph
    smooth_graph: SmoothResolutionGraph


def local_invariants(f: BivarPoly) -> LocalInvariants:
    """Milnor number, branch count and monodromy characteristic
    polynomial of a plane-curve germ, via the resolution pipeline."""
    from .cyclo import CycloProduct
    from .monodromy import acampo_zeta, zeta_to_char

    graph = qresolve(f)
    smooth = smoothen(graph)
    zeta = acampo_zeta(smooth)
    delta = zeta_to_char(zeta, 1)
    mu = delta.degree()
    r = len(graph.strict_vertices)
    if (mu - r + 1) % 2:
        raise InternalError(f"mu - r + 1 = {mu - r + 1} is odd; delta invariant broken")
    return LocalInvariants(mu, r, delta, graph, smooth)
