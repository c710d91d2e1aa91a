"""Embedded Q-resolution of plane-curve germs by weighted blow-ups.

A germ f(x,y) = 0 is resolved by a walk over charts.  Each blow-up
with coprime weights (p, q) at a (possibly quotient) chart origin
creates one exceptional curve E with

    N_E  = (p,q)-weighted order of the invariant local equation / d,
    E^2  = -d / (pq),

and two new charts with cyclic groups 1/p(-d, q) and 1/q(p, -d), whose
formula `quotient.wblowup2` owns; strict transforms are computed
monomially.  A chart is the tuple (group, equation, x, y): its group as
the integers (d, a, b) of 1/d(a, b) acting diagonally, weights reduced
mod d, and (1, 0, 0) when it is smooth; its equation, the strict
transform with exceptional factors removed and axis-shaped strict
branches kept; and the exceptional curves through its origin, x the one
on {x = 0} and y the one on {y = 0}, each as (id, multiplicity), or
None where the axis carries none.  Each chart a blow-up creates is
checked once, there, to have a semi-invariant equation.  The walk stops
at a chart origin once the local picture is a normal crossing of at
most two components (exceptional curves, strict branches), possibly at
a cyclic quotient point.  Points of E away from the chart origins are
read off the face polynomial restricted to E; transversal crossings
become strict branches, non-transversal ones are re-centered by an
affine translation when the chart is smooth and the position rational.

A germ is defined only up to a unit, so every chart equation is a
primitive polynomial over Z: rational input is cleared of denominators
once, and a translation by p/q is multiplied through by a power of q.
Face polynomials are split by primitive remainder sequences over Z.
Fractions remain only in the reported self-intersections and
corrections, and in the rational positions that charts are moved to.

The resulting `ResolutionGraph` of exceptional curves with
multiplicities, self-intersections and quotient points converts to a
smooth one by replacing every quotient point with its Hirzebruch-Jung
chain, taken with the self-intersection corrections at its two ends from
`quotient.hj_resolve`, and solving the pullback relation
m_{i-1} - b_i m_i + m_{i+1} = 0 for the chain multiplicities.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from ._record import FrozenRecord, setfield
from .cyclo import _exquo, _utrim, divisors
from .errors import (
    InputError,
    InternalError,
    NonIntegralMultiplicity,
    NotReduced,
    Unsupported,
)
from .monodromy import acampo_zeta, zeta_to_char
from .quotient import chain_multiplicities, hj_resolve, wblowup2

__all__ = [
    "BivarPoly",
    "ResolutionGraph",
    "newton_weights",
    "qblowup_step",
    "qresolve",
    "smoothen",
    "local_invariants",
]


# ----------------------------------------------------------------- BivarPoly


class BivarPoly(FrozenRecord):
    """Sparse primitive polynomial in two variables over Z.

    A curve germ is defined only up to a unit, so rational input is
    scaled by the lcm of its denominators and divided by its positive
    content; the sign is kept.

    >>> BivarPoly({(0, 2): Fraction(1, 2), (3, 0): "-3/4"}).terms
    (((0, 2), 2), ((3, 0), -3))
    """

    __slots__ = ("terms",)  # the sorted ((i, j), c) with c a nonzero int

    def __init__(self, terms=()):
        data: dict[tuple[int, int], int | Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (i, j), c in items:
            if type(c) is not int:
                c = Fraction(c)
            if c == 0:
                continue
            if i < 0 or j < 0:
                raise InputError(f"negative exponent ({i},{j})")
            key = (int(i), int(j))
            data[key] = data[key] + c if key in data else c
        den = math.lcm(*(c.denominator for c in data.values()))
        ints = {k: c.numerator * (den // c.denominator) for k, c in data.items()}
        setfield(self, "terms", BivarPoly._primitive(ints).terms)

    @staticmethod
    def _primitive(data: dict[tuple[int, int], int]) -> "BivarPoly":
        """The polynomial sum c x^i y^j over data, divided by its positive content."""
        g = math.gcd(*data.values()) or 1
        poly = object.__new__(BivarPoly)
        setfield(poly, "terms", tuple(sorted((k, c // g) for k, c in data.items() if c)))
        return poly

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[tuple[int, int]]:
        return [k for k, _ in self.terms]

    def coefficient(self, i: int, j: int) -> int:
        return next((c for k, c in self.terms if k == (i, j)), 0)

    def is_unit_at_origin(self) -> bool:
        return bool(self.terms) and self.terms[0][0] == (0, 0)

    def weighted_order(self, p: int, q: int) -> int:
        if self.is_zero():
            raise InputError("weighted order of the zero polynomial")
        return min(p * i + q * j for (i, j), _ in self.terms)

    def strip_axes(self) -> tuple[int, int, "BivarPoly"]:
        """(a, b, g) with the nonzero polynomial equal to x^a y^b g, a and b largest."""
        a = min(i for (i, _), _ in self.terms)
        b = min(j for (_, j), _ in self.terms)
        return a, b, BivarPoly._primitive({(i - a, j - b): c for (i, j), c in self.terms})

    def translate(self, shift: Fraction, axis: int) -> "BivarPoly":
        """Substitute x -> x + shift (axis 0) or y -> y + shift (axis 1),
        up to a positive constant.

        >>> BivarPoly({(0, 2): 4, (1, 0): -1}).translate(Fraction(-1, 2), 1).terms
        (((0, 0), 1), ((0, 1), -4), ((0, 2), 4), ((1, 0), -1))
        """
        # with shift = p/q, q**top * (z + p/q)**e = sum_k C(e,k) z^k p^(e-k) q^(top-e+k)
        p, q = shift.numerator, shift.denominator
        top = max((key[axis] for key, _ in self.terms), default=0)
        p_pow = [p**e for e in range(top + 1)]
        q_pow = [q**e for e in range(top + 1)]
        out: dict[tuple[int, int], int] = {}
        for key, c in self.terms:
            e = key[axis]
            for k in range(e + 1):
                coef = c * math.comb(e, k) * p_pow[e - k] * q_pow[top - e + k]
                if coef:
                    new = (key[0], k) if axis else (k, key[1])
                    out[new] = out.get(new, 0) + coef
        return BivarPoly._primitive(out)

    def restrict_x0(self) -> dict[int, int]:
        """Coefficients of f(0, y) as a map j -> c."""
        return {j: c for (i, j), c in self.terms if i == 0}


# ------------------------------------------------- univariate helpers (Z[z])
# Polynomials are coefficient lists, constant term first.  A remainder
# sequence over Z swells unless each remainder is made primitive (Collins
# 1967; Brown 1971), and by Gauss's lemma a primitive divisor of an
# integer polynomial divides it in Z[z].


def _uderiv(a: list[int]) -> list[int]:
    if len(a) == 1:
        return [0]
    return _utrim([a[k] * k for k in range(1, len(a))])


def _uprimitive(a: list[int]) -> list[int]:
    """a divided by its content, with a positive leading coefficient.

    >>> _uprimitive([4, -6, -2])
    [-2, 3, 1]
    """
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a] if g else [0]


def _uprem(a: list[int], b: list[int]) -> list[int]:
    """A remainder of c*a by b in Z[z], for some nonzero integer c.

    >>> _uprem([1, 0, 1], [1, 2])  # 4(z^2 + 1) = (2z - 1)(2z + 1) + 5
    [5]
    """
    a = a[:]
    lead = b[-1]
    while len(a) >= len(b) and a != [0]:
        if a[-1] % lead:
            a = [lead * x for x in a]
        c = a[-1] // lead
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        _utrim(a)
    return a


def _ugcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd in Z[z] with a positive leading coefficient.

    >>> _ugcd([-1, 0, 1], [2, -2])  # gcd(z^2 - 1, 2 - 2z)
    [-1, 1]
    """
    a, b = _uprimitive(a), _uprimitive(b)
    while b != [0]:
        a, b = b, _uprimitive(_uprem(a, b))
    return a


def _uexquo(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[z]; InternalError when b does not divide a.

    >>> _uexquo([-2, 0, 2], [1, 1])
    [-2, 2]
    """
    out = _exquo(a, b)
    if out is None:
        raise InternalError("squarefree division left a remainder")
    return out


def _urational_roots(a: list[int]) -> list[Fraction]:
    """Distinct rational roots, sorted.

    A candidate p/q in lowest terms is a root when sum a_i p^i q^(n-i) = 0.

    >>> _urational_roots([0, -6, 5, 6])  # z(2z + 3)(3z - 2)
    [Fraction(-3, 2), Fraction(0, 1), Fraction(2, 3)]
    """
    if len(a) == 1:
        return []
    k = 0
    while a[k] == 0:
        k += 1
    roots = [Fraction(0)] if k else []
    leading = divisors(abs(a[-1]))
    for pn in divisors(abs(a[k])):
        for qd in leading:
            if math.gcd(pn, qd) != 1:
                continue
            for p in (pn, -pn):
                acc, q_pow = a[-1], 1
                for c in reversed(a[:-1]):
                    q_pow *= qd
                    acc = acc * p + c * q_pow
                if acc == 0:
                    roots.append(Fraction(p, qd))
    return sorted(roots)


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


def newton_weights(f: BivarPoly) -> tuple[int, int]:
    """Blow-up weights (p, q) from the Newton polygon of a germ.

    Coordinate factors x^a y^b are stripped first; a monomial germ
    (empty polygon after stripping) is rejected.  Among the compact
    faces, the primitive inner normal (p, q) maximizing the weighted
    order of f, coordinate factors included, is selected, ties broken
    by smaller p.
    """
    if f.is_zero():
        raise InputError("zero polynomial has no Newton polygon")
    if f.is_unit_at_origin():
        raise InputError("unit germ: no singularity at the origin")
    _, _, core = f.strip_axes()
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
    _, p, q = min(candidates)
    return p, q


# ------------------------------------------------------------------- charts


def _check_uniform_character(chart: tuple):
    """All monomials of the chart equation share one character of its group."""
    (d, a, b), equation, _, _ = chart
    if d == 1 or equation.is_zero():
        return
    chars = {(a * i + b * j) % d for (i, j), _ in equation.terms}
    if len(chars) != 1:
        raise InternalError(
            f"equation is not semi-invariant under 1/{d}({a},{b}): characters {sorted(chars)}"
        )


def qblowup_step(chart: tuple, weights: tuple[int, int], exc_id: str):
    """One weighted blow-up at the origin of the chart (group, equation, x, y).

    Returns (exceptional record, [origin-x chart, origin-y chart]), each
    chart a tuple of the same form.  The record is a dict with the new
    component's multiplicity, self-intersection and weights, and the
    self-intersection corrections owed to the components through the
    center.  The new component, which the caller names ``exc_id``, is
    {x = 0} in the first chart and {y = 0} in the second; ``y`` survives
    into the first, ``x`` into the second.  The charts take their groups
    from `wblowup2`, and each is checked to have a semi-invariant equation.
    """
    group, equation, x, y = chart
    p, q = weights
    d = group[0]
    self_int, (group_x, group_y) = wblowup2(group, (p, q))

    m = equation.weighted_order(p, q)
    n_up = p * (x[1] if x else 0) + q * (y[1] if y else 0) + m
    if n_up % d:
        raise InternalError(f"upstairs multiplicity {n_up} not divisible by the group order {d}")
    n_exc = n_up // d

    def transform(chart_one: bool) -> BivarPoly:
        out = {}  # the monomial map is injective: no two terms meet
        for (i, j), coef in equation.terms:
            s = p * i + q * j - m
            if s % d:
                raise InternalError("monomial transform produced a fractional exponent")
            out[(s // d, j) if chart_one else (i, s // d)] = coef
        return BivarPoly._primitive(out)

    exc = (exc_id, n_exc)
    charts = [(group_x, transform(True), exc, y), (group_y, transform(False), x, exc)]
    for new in charts:
        _check_uniform_character(new)
    corrections = {}
    if x:
        corrections[x[0]] = Fraction(-p, d * q)
    if y:
        corrections[y[0]] = Fraction(-q, d * p)
    record = {
        "multiplicity": n_exc,
        "self_int": self_int,
        "weights": (p, q),
        "corrections": corrections,
    }
    return record, charts


# --------------------------------------------------------------- graph type


class ResolutionGraph(FrozenRecord):
    """Vertices keyed by id, edges, and the ids of the strict branches.

    A vertex is the dict the report writes.  On the graph `qresolve`
    builds, exceptional curves E1, E2, ... come in blow-up order and strict
    branches S1, S2, ... in the order the walk meets them; a vertex has id,
    multiplicity, self_int (a Fraction; None on a strict branch), genus and
    quotient_points, the points (d, beta) whose HJ chain of 1/d(1,beta)
    attaches it at its first curve.  An edge {u, v, quotient} has quotient
    (d, beta) at a 1/d(1,beta)-point whose chain attaches v first and u
    last, None at a transversal crossing.  On the graph `smoothen` builds,
    a vertex has id, multiplicity, self_int (an int; None on a strict
    branch), genus and chi_open, the Euler characteristic of the curve
    minus its points on other curves; edges are (u, v) pairs."""

    __slots__ = ("vertices", "edges", "strict_vertices")

    def __init__(self, vertices: dict[str, dict], edges: list, strict_vertices: list[str]):
        setfield(self, "vertices", vertices)
        setfield(self, "edges", edges)
        setfield(self, "strict_vertices", strict_vertices)

    def exceptional_ids(self) -> list[str]:
        strict = set(self.strict_vertices)
        return [v for v in self.vertices if v not in strict]

    @property
    def blowups(self) -> int:
        """The exceptional vertices, one for each blow-up: weighted ones on
        the walk's graph, point blow-ups on the smooth graph."""
        return len(self.vertices) - len(self.strict_vertices)


# ----------------------------------------------------------------- qresolve


# The chart budget of one resolution walk: a germ whose walk would visit
# more charts exits 2 (Unsupported) rather than run on.
_MAX_CHARTS = 400


def _new_strict(graph: ResolutionGraph) -> str:
    """Add the next strict branch to the graph and return its id."""
    vid = f"S{len(graph.strict_vertices) + 1}"
    graph.vertices[vid] = {"id": vid, "multiplicity": 1, "self_int": None, "genus": 0,
                           "quotient_points": []}
    graph.strict_vertices.append(vid)
    return vid


def _prepare_origin(chart: tuple) -> tuple:
    """(ax, ay, core) with the chart equation x^ax y^ay core, checked to be reduced."""
    _, equation, x, y = chart
    if equation.is_zero():
        raise InputError("zero equation in chart")
    ax, ay, core = equation.strip_axes()
    if ax >= 2 or ay >= 2:
        raise NotReduced(f"repeated coordinate factor x^{ax} y^{ay} in a chart equation")
    if (ax and x) or (ay and y):
        raise NotReduced("strict transform contains an exceptional component")
    return ax, ay, core


def _analyze_origin(graph: ResolutionGraph, chart: tuple, ax: int, ay: int, core: BivarPoly) -> bool:
    """Emit final graph data for an NC chart origin, from `_prepare_origin`'s
    (ax, ay, core); return False when the origin still needs a blow-up."""
    (d, a, b), _, x, y = chart
    on_x, on_y = bool(x or ax), bool(y or ay)
    core_through = not core.is_unit_at_origin()
    if on_x + on_y + core_through > 2:
        return False
    if core_through:
        if core.weighted_order(1, 1) != 1:
            return False
        # the strict branch must cross the occupied axis transversally
        if (on_x and not core.coefficient(0, 1)) or (on_y and not core.coefficient(1, 0)):
            return False

    # the origin is final: emit vertices, edges, quotient points
    u = x[0] if x else _new_strict(graph) if ax else None
    v = y[0] if y else _new_strict(graph) if ay else None
    if core_through:
        # the transversal strict branch plays the role of the free
        # coordinate axis in the 1/d(a,b) chart
        if u is None:
            u = _new_strict(graph)
        else:
            v = _new_strict(graph)
    if u is not None and v is not None:
        quotient = (d, (pow(a, -1, d) * b) % d) if d > 1 else None
        graph.edges.append({"u": u, "v": v, "quotient": quotient})
    elif u is None and v is None:
        raise InternalError("chart origin with no components after a blow-up")
    elif d > 1:
        host, w_host, w_other = (u, a, b) if v is None else (v, b, a)
        graph.vertices[host]["quotient_points"].append((d, (pow(w_other, -1, d) * w_host) % d))
    return True


def _scan_exceptional(graph: ResolutionGraph, record, chart1: tuple, chart2: tuple, exc_id: str):
    """Handle the points of the new exceptional curve away from the two
    chart origins: transversal crossings become strict branches, worse
    points are translated to fresh smooth charts (returned for the
    worklist) or rejected."""
    p, q = record["weights"]
    (_, equation1, _, _), (_, equation2, _, _) = chart1, chart2
    face = equation1.restrict_x0()
    if not face:
        raise InternalError("strict transform does not meet the new exceptional curve")
    jmin = min(face)
    rest = sorted(j - jmin for j in face)
    if any(r % p for r in rest):
        raise InternalError("face polynomial is not a polynomial in y^p")
    G = [0] * (rest[-1] // p + 1)
    for j, c in face.items():
        G[(j - jmin) // p] = c
    G = _utrim(G)

    out_charts: list[tuple] = []
    if len(G) == 1:
        return out_charts
    T = _ugcd(G, _uderiv(G))
    distinct = len(_uexquo(G, T)) - 1
    multiple_distinct = len(_uexquo(T, _ugcd(T, _uderiv(T)))) - 1
    simple = distinct - multiple_distinct
    for _ in range(simple):
        graph.edges.append({"u": exc_id, "v": _new_strict(graph), "quotient": None})
    if multiple_distinct == 0:
        return out_charts
    rational = _urational_roots(T)
    if len(rational) < multiple_distinct:
        raise Unsupported(
            "non-transversal point of the exceptional curve at an irrational position"
        )
    for z0 in rational:
        if p == 1:
            moved = equation1.translate(z0, 1)
            out_charts.append(((1, 0, 0), moved, (exc_id, record["multiplicity"]), None))
        elif q == 1:
            moved = equation2.translate(1 / z0, 0)
            out_charts.append(((1, 0, 0), moved, None, (exc_id, record["multiplicity"])))
        else:
            raise Unsupported(
                "non-transversal point of the exceptional curve inside a chart "
                f"with nontrivial isotropy (weights {p},{q})"
            )
    return out_charts


def qresolve(f: BivarPoly) -> ResolutionGraph:
    """Resolve a reduced plane-curve germ to Q-normal crossings."""
    if f.is_zero():
        raise InputError("the zero polynomial does not define a curve germ")
    if f.is_unit_at_origin():
        raise InputError("the germ is a unit: no curve through the origin")
    graph = ResolutionGraph({}, [], [])
    worklist = deque([((1, 0, 0), f, None, None)])
    processed = 0
    while worklist:
        chart = worklist.popleft()
        processed += 1
        if processed > _MAX_CHARTS:
            raise Unsupported(
                f"the resolution walk needs more than its budget of {_MAX_CHARTS} charts"
            )
        ax, ay, core = _prepare_origin(chart)
        # the germ's own origin is blown up even where it is a normal crossing
        if graph.blowups and _analyze_origin(graph, chart, ax, ay, core):
            continue
        weights = (1, 1) if core.is_unit_at_origin() else newton_weights(chart[1])
        # qblowup_step raises Unsupported when (p, q) cannot present the chart group
        exc_id = f"E{graph.blowups + 1}"
        record, (chart1, chart2) = qblowup_step(chart, weights, exc_id)
        graph.vertices[exc_id] = {"id": exc_id, "multiplicity": record["multiplicity"],
                                  "self_int": record["self_int"], "genus": 0, "quotient_points": []}
        for cid, corr in record["corrections"].items():
            graph.vertices[cid]["self_int"] += corr
        worklist.extend(_scan_exceptional(graph, record, chart1, chart2, exc_id))
        worklist.extend((chart1, chart2))
    _assert_connected(graph)
    return graph


def _neighbours(ids, edges) -> dict:
    """id -> list of the ids it shares an edge with, once per edge."""
    adj = {i: [] for i in ids}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _connected(ids, adjacency) -> bool:
    seen = set()
    stack = [next(iter(ids))]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(adjacency[x])
    return seen == set(ids)


def _assert_connected(g: ResolutionGraph):
    if not g.vertices:
        raise InternalError("empty resolution graph")
    if not _connected(g.vertices, _neighbours(g.vertices, [(e["u"], e["v"]) for e in g.edges])):
        raise InternalError("resolution graph is disconnected")


# ----------------------------------------------------------------- smoothen


def smoothen(g: ResolutionGraph) -> ResolutionGraph:
    """Replace quotient points by Hirzebruch-Jung chains.

    Each chain and the self-intersection corrections at its two ends
    come from `hj_resolve`.  Chain multiplicities solve the pullback
    relation with the adjacent components as boundary values.
    """
    self_int = {vid: v["self_int"] for vid, v in g.vertices.items()}
    mult = {vid: v["multiplicity"] for vid, v in g.vertices.items()}
    new_edges: list[tuple[str, str]] = []
    chain_vertices: dict[str, tuple[int, int]] = {}  # id -> (m_i, b_i)
    counter = 0

    def add_chain(d: int, beta: int, first_id: str, last_id: str | None):
        nonlocal counter
        b, correction, far_correction = hj_resolve(d, beta)
        m_right = mult[last_id] if last_id is not None else 0
        ms = chain_multiplicities(b, mult[first_id], m_right)
        ids = []
        for b_i, m_i in zip(b, ms):
            counter += 1
            cid = f"C{counter}"
            chain_vertices[cid] = (m_i, b_i)
            ids.append(cid)
        path = [first_id, *ids] + ([] if last_id is None else [last_id])
        new_edges.extend(zip(path, path[1:]))
        if self_int[first_id] is not None:
            self_int[first_id] += correction
        if last_id is not None and self_int[last_id] is not None:
            self_int[last_id] += far_correction

    for vid, v in g.vertices.items():
        for d, beta in v["quotient_points"]:
            add_chain(d, beta, vid, None)
    for e in g.edges:
        if e["quotient"] is None:
            new_edges.append((e["u"], e["v"]))
        else:
            d, beta = e["quotient"]
            add_chain(d, beta, e["v"], e["u"])

    vertices: dict[str, dict] = {}
    strict_set = set(g.strict_vertices)
    nb = _neighbours([*g.vertices, *chain_vertices], new_edges)
    for vid, v in g.vertices.items():
        e2 = self_int[vid]
        if vid not in strict_set and (e2 is None or e2.denominator != 1):
            raise NonIntegralMultiplicity(
                f"self-intersection of {vid} is {e2}, not an integer after smoothing"
            )
        vertices[vid] = {"id": vid, "multiplicity": v["multiplicity"],
                         "self_int": None if vid in strict_set else int(e2), "genus": v["genus"],
                         "chi_open": 2 - 2 * v["genus"] - len(nb[vid])}
    for cid, (m_i, b_i) in chain_vertices.items():
        vertices[cid] = {"id": cid, "multiplicity": m_i, "self_int": -b_i, "genus": 0,
                         "chi_open": 2 - len(nb[cid])}

    out = ResolutionGraph(vertices, new_edges, list(g.strict_vertices))
    _assert_adjunction(out, nb)
    return out


def _assert_adjunction(g: ResolutionGraph, nb: dict):
    """The total transform meets every exceptional component trivially:
    N_j E_j^2 + sum over neighbors of N = 0; ``nb`` is the adjacency of g."""
    for vid in g.exceptional_ids():
        v = g.vertices[vid]
        total = v["multiplicity"] * v["self_int"] + sum(
            g.vertices[w]["multiplicity"] for w in nb[vid]
        )
        if total != 0:
            raise InternalError(
                f"pullback relation fails at {vid}: N*E^2 + sum(neighbor N) = {total}"
            )


# ---------------------------------------------------------- local invariants


def local_invariants(f: BivarPoly) -> dict:
    """Milnor number, branch count and monodromy characteristic
    polynomial of a plane-curve germ, via the resolution pipeline.

    Returns the dict {"mu", "r", "char_poly", "graph", "smooth_graph"}
    under the keys of the `local` report: ``char_poly`` is Delta(t) as a
    CycloProduct, ``graph`` the walk's ResolutionGraph from `qresolve` and
    ``smooth_graph`` the smooth ResolutionGraph from `smoothen`.
    """
    graph = qresolve(f)
    smooth = smoothen(graph)
    char_poly = zeta_to_char(acampo_zeta(smooth.vertices, smooth.strict_vertices), 1)
    mu = char_poly.degree()
    r = len(graph.strict_vertices)
    if (mu - r + 1) % 2:
        raise InternalError(f"mu - r + 1 = {mu - r + 1} is odd; delta invariant broken")
    return {"mu": mu, "r": r, "char_poly": char_poly, "graph": graph, "smooth_graph": smooth}
