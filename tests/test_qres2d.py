"""Resolution of plane-curve germs: frozen graphs, a numeric root
oracle for torus germs, and structural invariants of the output."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcalc.cyclo import CycloProduct, expand
from singcalc.errors import (
    InputError,
    InternalError,
    NonIntegralMultiplicity,
    NotReduced,
    Unsupported,
)
from singcalc.qres2d import (
    BivarPoly,
    Chart,
    QResolutionGraph,
    QVertex,
    _check_uniform_character,
    _uderiv,
    _uexquo,
    _ugcd,
    _urational_roots,
    local_invariants,
    newton_weights,
    qblowup_step,
    qresolve,
    smoothen,
)


def P(d):
    return BivarPoly(d)


CUSP = {(0, 2): 1, (3, 0): -1}
NODE = {(1, 1): 1}
A4 = {(0, 2): 1, (5, 0): -1}
TACNODE = {(0, 2): 1, (4, 0): -1}
E6 = {(0, 3): 1, (4, 0): 1}
E7 = {(3, 0): 1, (1, 3): 1}
E8 = {(0, 3): 1, (5, 0): 1}
SHIFTED_A4 = {(0, 2): 1, (1, 1): -2, (2, 0): 1, (5, 0): -1}  # (y-x)^2 - x^5


# ------------------------------------------------------------ newton weights


def test_newton_weights_examples():
    nd = newton_weights(P(CUSP))
    assert nd.weights == (2, 3) and nd.order == 6 and nd.axis_powers == (0, 0)
    nd = newton_weights(P(A4))
    assert nd.weights == (2, 5) and nd.order == 10
    nd = newton_weights(P({(0, 1): 1, (1, 0): -1}))  # y - x
    assert nd.weights == (1, 1) and nd.order == 1
    # coordinate factors stripped and reported
    nd = newton_weights(P({(1, 2): 1, (4, 0): -1}))  # x(y^2 - x^3)
    assert nd.axis_powers == (1, 0)
    assert nd.weights == (2, 3)
    assert nd.order == 8  # 2*1 + weighted order 6 of the cofactor


def test_newton_weights_tie_breaks_by_smaller_p():
    # x^3 + xy + y^3 has faces with normals (2,1) and (1,2), both of
    # weighted order 3; the smaller first weight wins
    nd = newton_weights(P({(3, 0): 1, (1, 1): 1, (0, 3): 1}))
    assert nd.order == 3
    assert nd.weights == (1, 2)


def test_newton_weights_rejections():
    with pytest.raises(InputError):
        newton_weights(P({(2, 1): 1}))  # monomial
    with pytest.raises(InputError):
        newton_weights(P({(0, 0): 3, (1, 0): 1}))  # unit
    with pytest.raises(InputError):
        newton_weights(P({}))  # zero


# ------------------------------------------------------------- qblowup_step


def test_qblowup_step_cusp():
    record, (c1, c2) = qblowup_step(Chart((1, 0, 0), P(CUSP)), (2, 3), "E1")
    assert record["multiplicity"] == 6
    assert record["self_int"] == Fraction(-1, 6)
    assert c1.group == (2, 1, 1)
    assert c2.group == (3, 2, 2)
    assert c1.equation.as_dict() == {(0, 2): 1, (0, 0): -1}  # y^2 - 1
    assert c2.equation.as_dict() == {(3, 0): -1, (0, 0): 1}  # 1 - x^3
    assert (c1.x, c1.y) == (("E1", 6), None)
    assert (c2.x, c2.y) == (None, ("E1", 6))


def test_qblowup_step_node():
    record, (c1, c2) = qblowup_step(Chart((1, 0, 0), P(NODE)), (1, 1), "E1")
    assert record["multiplicity"] == 2
    assert record["self_int"] == -1
    # both charts are smooth and keep one transversal strict axis
    assert c1.group == (1, 0, 0) and c2.group == (1, 0, 0)
    assert c1.equation.as_dict() == {(0, 1): 1}
    assert c2.equation.as_dict() == {(1, 0): 1}


def test_qblowup_step_corrections():
    # center lying on a previous component of multiplicity 2 along {x=0}
    record, (c1, c2) = qblowup_step(
        Chart((1, 0, 0), P({(0, 2): 1, (3, 0): -1}), x=("E1", 2)), (2, 3), "E2"
    )
    assert record["multiplicity"] == 2 * 2 + 6
    assert record["corrections"] == {"E1": Fraction(-2, 3)}
    # the old {x=0} component leaves chart 1 and survives as chart 2's x
    assert (c1.x, c1.y) == (("E2", 10), None)
    assert (c2.x, c2.y) == (("E1", 2), ("E2", 10))
    # center at the crossing of E1 = {x=0} and E2 = {y=0}: both are owed
    record, (c1, c2) = qblowup_step(
        Chart((1, 0, 0), P({(0, 2): 1, (3, 0): -1}), x=("E1", 2), y=("E2", 3)), (2, 3), "E3"
    )
    assert record["multiplicity"] == 2 * 2 + 3 * 3 + 6
    assert record["corrections"] == {"E1": Fraction(-2, 3), "E2": Fraction(-3, 2)}
    assert (c1.x, c1.y) == (("E3", 19), ("E2", 3))
    assert (c2.x, c2.y) == (("E1", 2), ("E3", 19))


def test_check_uniform_character_rejects_two_characters():
    # under 1/2(1,1) the monomials y^2 and x have characters 0 and 1
    with pytest.raises(InternalError, match="not semi-invariant"):
        _check_uniform_character(Chart((2, 1, 1), P({(0, 2): 1, (1, 0): -1})))
    _check_uniform_character(Chart((2, 1, 1), P({(0, 2): 1, (2, 0): -1})))


# ----------------------------------------------------------------- qresolve


def test_qresolve_cusp_graph():
    g = qresolve(P(CUSP))
    assert g.blowups == 1
    assert g.strict_vertices == ["S1"]
    e1 = g.vertices["E1"]
    assert e1.multiplicity == 6
    assert e1.self_int == Fraction(-1, 6)
    assert e1.quotient_points == [(2, 1), (3, 1)]
    assert len(g.edges) == 1
    edge = g.edges[0]
    assert {edge.u, edge.v} == {"E1", "S1"} and edge.quotient is None


def test_qresolve_node_graph():
    g = qresolve(P(NODE))
    assert g.blowups == 1
    e1 = g.vertices["E1"]
    assert e1.multiplicity == 2 and e1.self_int == -1
    assert e1.quotient_points == []
    assert len(g.strict_vertices) == 2
    assert all(e.quotient is None for e in g.edges)


def test_qresolve_a4_graph():
    g = qresolve(P(A4))
    e1 = g.vertices["E1"]
    assert e1.multiplicity == 10
    assert e1.self_int == Fraction(-1, 10)
    assert e1.quotient_points == [(2, 1), (5, 2)]
    assert g.strict_vertices == ["S1"]


def test_qresolve_shifted_a4_graph():
    # (y-x)^2 - x^5 needs a translation along the first exceptional
    # curve before the second blow-up
    g = qresolve(P(SHIFTED_A4))
    assert g.blowups == 2
    assert g.vertices["E1"].multiplicity == 2
    assert g.vertices["E2"].multiplicity == 10
    assert g.vertices["E2"].quotient_points == [(2, 1)]
    (edge,) = [e for e in g.edges if e.quotient is not None]
    assert {edge.u, edge.v} == {"E1", "E2"}
    assert edge.quotient == (3, 1)


# ----------------------------------------------------------------- smoothen


def test_smoothen_cusp():
    s = smoothen(qresolve(P(CUSP)))
    data = {
        v.id: (v.multiplicity, v.self_int, v.chi_open)
        for v in s.vertices.values()
        if v.id != "S1"
    }
    assert data == {
        "E1": (6, -1, -1),
        "C1": (3, -2, 1),
        "C2": (2, -3, 1),
    }
    assert s.vertices["S1"].multiplicity == 1
    assert s.vertices["S1"].self_int is None


def test_smoothen_a4():
    s = smoothen(qresolve(P(A4)))
    data = {
        v.id: (v.multiplicity, v.self_int, v.chi_open)
        for v in s.vertices.values()
        if v.id not in ("S1",)
    }
    assert data == {
        "E1": (10, -1, -1),
        "C1": (5, -2, 1),
        "C2": (4, -3, 0),
        "C3": (2, -2, 1),
    }


def test_smoothen_shifted_a4():
    s = smoothen(qresolve(P(SHIFTED_A4)))
    assert s.vertices["E1"].self_int == -2
    assert s.vertices["E2"].self_int == -1
    chain = sorted(
        (v.multiplicity, v.self_int)
        for v in s.vertices.values()
        if v.id.startswith("C")
    )
    assert chain == [(4, -3), (5, -2)]


def test_smoothen_rejects_inconsistent_multiplicity():
    g = QResolutionGraph(
        vertices={"E1": QVertex("E1", 3, Fraction(-1, 2), 0, [(2, 1)])},
        edges=[],
        strict_vertices=[],
        blowups=1,
    )
    with pytest.raises(NonIntegralMultiplicity):
        smoothen(g)


# --------------------------------------------------------- local invariants


# germ -> (mu, branches, characteristic polynomial factors)
CATALOG = {
    "cusp": (CUSP, 2, 1, {6: 1, 1: 1, 2: -1, 3: -1}),
    "node": (NODE, 1, 2, {1: 1}),
    "tacnode": (TACNODE, 3, 2, {4: 1, 1: 1, 2: -1}),
    "A4": (A4, 4, 1, {10: 1, 1: 1, 2: -1, 5: -1}),
    "E6": (E6, 6, 1, {12: 1, 1: 1, 3: -1, 4: -1}),
    "E7": (E7, 7, 2, {9: 1, 1: 1, 3: -1}),
    "E8": (E8, 8, 1, {15: 1, 1: 1, 3: -1, 5: -1}),
    "shifted A4": (SHIFTED_A4, 4, 1, {10: 1, 1: 1, 2: -1, 5: -1}),
    "triple point": ({(0, 3): 1, (2, 1): -1}, 4, 3, {3: 1, 1: 1}),
    "two tangent lines": ({(0, 2): 1, (6, 0): -1}, 5, 2, {6: 1, 1: 1, 2: -1}),
    "line through cusp": ({(1, 2): 1, (4, 0): -1}, 5, 2, {8: 1, 1: 1, 4: -1}),
    "two cusps": (
        {(0, 4): 1, (3, 2): -5, (6, 0): 4},  # (y^2-x^3)(y^2-4x^3)
        15,
        2,
        {12: 2, 1: 1, 4: -1, 6: -1},
    ),
    "smooth": ({(0, 1): 1, (1, 0): -1}, 0, 1, {}),
    "smooth tangent": ({(0, 1): 1, (3, 0): 1}, 0, 1, {}),
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_local_invariants_catalog(name):
    germ, mu, r, delta = CATALOG[name]
    inv = local_invariants(P(germ))
    assert inv.mu == mu
    assert inv.branches == r
    assert inv.delta.as_dict() == delta


def _horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


@pytest.mark.parametrize(
    "p,q",
    [(p, q) for p in range(2, 7) for q in range(p + 1, 8) if math.gcd(p, q) == 1],
)
def test_torus_germ_root_oracle(p, q):
    """The monodromy eigenvalues of x^p + y^q are exactly
    exp(2*pi*i*(a/p + b/q)), 1 <= a < p, 1 <= b < q."""
    inv = local_invariants(P({(p, 0): 1, (0, q): 1}))
    assert inv.mu == (p - 1) * (q - 1)
    assert inv.branches == 1
    coeffs = expand(inv.delta).coeffs
    assert len(coeffs) - 1 == inv.mu
    roots = [
        cmath.exp(2j * cmath.pi * (a / p + b / q))
        for a in range(1, p)
        for b in range(1, q)
    ]
    scale = sum(abs(c) for c in coeffs)
    assert all(abs(_horner(coeffs, z)) <= 1e-9 * scale for z in roots)


def _det(rows):
    """Determinant by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_structural_invariants(name):
    germ, _, _, _ = CATALOG[name]
    inv = local_invariants(P(germ))
    s = inv.smooth_graph
    nb = {v: [] for v in s.vertices}
    for u, v in s.edges:
        nb[u].append(v)
        nb[v].append(u)
    # a rational tree: |E| = |V| - 1, connected, genus 0 everywhere
    assert len(s.edges) == len(s.vertices) - 1
    seen, stack = set(), [next(iter(s.vertices))]
    while stack:
        vid = stack.pop()
        if vid not in seen:
            seen.add(vid)
            stack.extend(nb[vid])
    assert seen == set(s.vertices)
    assert all(v.genus == 0 for v in s.vertices.values())
    # the exceptional intersection matrix is unimodular and negative definite
    exc = s.exceptional_ids()
    m = [
        [s.vertices[u].self_int if u == v else nb[u].count(v) for v in exc]
        for u in exc
    ]
    assert _det(m) == (-1) ** len(exc)
    for k in range(1, len(exc) + 1):
        assert _det([[-x for x in row[:k]] for row in m[:k]]) > 0
    strict = set(s.strict_vertices)
    for vid in s.vertices:
        if vid in strict:
            continue
        v = s.vertices[vid]
        # pullback relation per exceptional component
        assert v.multiplicity * v.self_int + sum(
            s.vertices[w].multiplicity for w in nb[vid]
        ) == 0
        assert v.self_int <= -1
        assert v.chi_open == 2 - len(nb[vid])
    # the dual graph is a tree: chi adds up to 2 - #branches
    assert sum(s.vertices[v].chi_open for v in s.exceptional_ids()) == 2 - len(strict)
    # delta invariant is a nonnegative integer
    assert (inv.mu - inv.branches + 1) % 2 == 0
    assert inv.mu - inv.branches + 1 >= 0


def test_pipeline_determinism():
    a = local_invariants(P(SHIFTED_A4))
    b = local_invariants(P(SHIFTED_A4))
    assert a.delta == b.delta
    assert [(v.id, v.multiplicity, v.self_int) for v in a.graph.vertices.values()] == [
        (v.id, v.multiplicity, v.self_int) for v in b.graph.vertices.values()
    ]
    assert [(e.u, e.v, e.quotient) for e in a.graph.edges] == [
        (e.u, e.v, e.quotient) for e in b.graph.edges
    ]


# ------------------------------------------- integer helpers against Q[z]
# The resolution walk takes gcds, square-free parts and rational roots of
# face polynomials in Z[z].  The reference below works over Q with
# Fraction arithmetic: monic Euclid and the rational-root test by
# evaluation.  Polynomials are coefficient lists, constant term first.


def _ref_trim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _ref_divmod(a, b):
    a = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and a != [0]:
        shift = len(a) - len(b)
        f = a[-1] / b[-1]
        quo[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = _ref_trim(a)
    return _ref_trim(quo), a


def _ref_monic(a):
    return [Fraction(c) / a[-1] for c in a]


def _ref_gcd(a, b):
    a, b = _ref_trim(a), _ref_trim(b)
    while b != [0]:
        a, b = b, _ref_divmod(a, b)[1]
    return _ref_monic(a)


def _ref_rational_roots(a):
    def value(x):
        acc = Fraction(0)
        for c in reversed(a):
            acc = acc * x + c
        return acc

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    k = next(i for i, c in enumerate(a) if c)
    roots = {Fraction(0)} if k else set()
    for p in divisors(a[k]):
        for q in divisors(a[-1]):
            roots |= {x for x in (Fraction(p, q), Fraction(-p, q)) if value(x) == 0}
    return sorted(roots)


def _ref_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_face_polynomial(rng):
    """(content * prod (q z - p)^e * an irreducible quadratic, roots {p/q: e})."""
    poly, roots = [rng.choice([1, -1, 2, -6, 15])], {}
    for _ in range(rng.randint(1, 3)):
        root = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        e = rng.randint(1, 3)
        roots[root] = roots.get(root, 0) + e
        for _ in range(e):
            poly = _ref_mul(poly, [-root.numerator, root.denominator])
    quadratic = rng.choice([None, [1, 0, 1], [-2, 0, 1], [1, 1, 1], [3, 0, -4]])
    if quadratic:
        poly = _ref_mul(poly, quadratic)
    return poly, roots


def test_integer_univariate_helpers_match_fraction_reference():
    rng = random.Random(20241)
    repeated_seen = 0
    for _ in range(200):
        G, roots = _random_face_polynomial(rng)
        T = _ugcd(G, _uderiv(G))
        assert math.gcd(*T) == 1 and T[-1] > 0  # primitive, positive leading coefficient
        assert _ref_monic(T) == _ref_gcd(G, _uderiv(G))
        squarefree = _uexquo(G, T)
        ref_quo, ref_rem = _ref_divmod(G, _ref_gcd(G, _uderiv(G)))
        assert ref_rem == [0] and _ref_monic(squarefree) == _ref_monic(ref_quo)
        assert _urational_roots(G) == _ref_rational_roots(G) == sorted(roots)
        repeated = sorted(r for r, e in roots.items() if e > 1)
        assert _urational_roots(T) == repeated
        assert len(_uexquo(T, _ugcd(T, _uderiv(T)))) - 1 == len(repeated)
        repeated_seen += bool(repeated)
    assert repeated_seen > 60, repeated_seen


def test_exact_division_reports_a_remainder():
    with pytest.raises(InternalError, match="squarefree division left a remainder"):
        _uexquo([-1, 0, 1], [1, 2])  # 2z + 1 does not divide z^2 - 1
    with pytest.raises(InternalError, match="squarefree division left a remainder"):
        _uexquo([1, 1], [0, 2])  # the quotient 1/2 is not in Z[z]


# germ -> (mu, r, translated axis, shift): each has a repeated root p/q with
# q > 1 on the first exceptional curve, so the walk translates by a fraction
TRANSLATED = {
    "(3y-2x)^2-x^3": ({(0, 2): 9, (1, 1): -12, (2, 0): 4, (3, 0): -1}, 2, 1, "y", Fraction(2, 3)),
    "(2y-3x^2)^2-x^7": ({(0, 2): 4, (2, 1): -12, (4, 0): 9, (7, 0): -1}, 6, 1, "y", Fraction(3, 2)),
    "(2x-3y^2)^2-y^7": ({(2, 0): 4, (1, 2): -12, (0, 4): 9, (0, 7): -1}, 6, 1, "x", Fraction(3, 2)),
}


@pytest.mark.parametrize("name", sorted(TRANSLATED))
def test_translation_by_a_fraction(monkeypatch, name):
    # (a y - b x^k)^2 - x^n is A_{n-1} in the coordinate Y = a y - b x^k
    germ, mu, r, axis, shift = TRANSLATED[name]
    method = f"translate_{axis}"
    original = getattr(BivarPoly, method)
    shifts = []
    monkeypatch.setattr(BivarPoly, method, lambda self, v: shifts.append(v) or original(self, v))
    inv = local_invariants(P(germ))
    assert (inv.mu, inv.branches) == (mu, r)
    assert shifts == [shift]


def test_rational_input_is_stored_primitive():
    # denominators cleared, positive content divided out, sign kept
    assert P({(0, 2): Fraction(-1, 2), (3, 0): "3/4"}).as_dict() == {(0, 2): -2, (3, 0): 3}
    assert P({(0, 2): 6, (3, 0): -4, (1, 1): 0}).as_dict() == {(0, 2): 3, (3, 0): -2}
    assert P([((0, 2), Fraction(1, 3)), ((0, 2), Fraction(-1, 3))]).is_zero()


# ------------------------------------------------------------------- errors


def test_non_reduced_rejected():
    with pytest.raises(NotReduced):
        qresolve(P({(2, 0): 1}))  # x^2
    with pytest.raises(NotReduced):
        qresolve(P({(0, 2): 1, (2, 1): -2, (4, 0): 1}))  # (y - x^2)^2
    with pytest.raises(NotReduced):
        qresolve(P({(2, 1): 1, (3, 0): 1}))  # x^2 (y + x)


def test_irrational_tangential_position_unsupported():
    # (y^2 - 2x^2)^2 - x^5: tangential branches at y/x = +-sqrt(2)
    with pytest.raises(Unsupported):
        qresolve(P({(0, 4): 1, (2, 2): -4, (4, 0): 4, (5, 0): -1}))


def test_invalid_germs_rejected():
    with pytest.raises(InputError):
        qresolve(P({}))
    with pytest.raises(InputError):
        qresolve(P({(0, 0): 1, (1, 0): 1}))  # unit
    with pytest.raises(InputError):
        local_invariants(P({(0, 0): 2}))


# --------------------------------------------------------------- properties


@given(
    p=st.integers(2, 5),
    q=st.integers(2, 7),
    a=st.integers(-6, 6).filter(lambda n: n != 0),
    b=st.integers(-6, 6).filter(lambda n: n != 0),
)
@settings(max_examples=40, deadline=None)
def test_property_torus_milnor_number(p, q, a, b):
    """Coefficients do not change the topology of a x^p + b y^q."""
    if math.gcd(p, q) != 1:
        return
    inv = local_invariants(P({(p, 0): a, (0, q): b}))
    assert inv.mu == (p - 1) * (q - 1)
    assert inv.branches == 1


def test_kouchnirenko_newton_number():
    """x^a + y^b + x^i y^j with (i, j) strictly below the Newton diagonal.

    The germ is convenient and each edge of its Newton polygon is a
    binomial, so it is Newton nondegenerate and Kouchnirenko's formula
    mu = 2V - a - b + 1 holds, V the area under the polygon.
    """
    checked = 0
    for a in range(2, 7):
        for b in range(a, 8):
            for i in range(1, a):
                for j in range(1, b):
                    if i * b + j * a >= a * b:
                        continue
                    try:
                        inv = local_invariants(P({(a, 0): 1, (0, b): 1, (i, j): 1}))
                    except Unsupported:
                        continue  # outside what the resolution supports
                    two_v = a * j + i * b
                    assert inv.mu == two_v - a - b + 1, (a, b, i, j)
                    checked += 1
    assert checked >= 20


@given(
    slopes=st.lists(st.integers(-5, 5), min_size=2, max_size=5, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_property_ordinary_multiple_point(slopes):
    """prod (y - a_i x) with distinct slopes: mu = (m-1)^2, r = m,
    characteristic polynomial (t-1)(t^m-1)^{m-2}."""
    m = len(slopes)
    germ = {(0, 0): 1}
    for a in slopes:  # multiply by y - a x
        out = {}
        for (i, j), c in germ.items():
            out[(i, j + 1)] = out.get((i, j + 1), 0) + c
            out[(i + 1, j)] = out.get((i + 1, j), 0) - a * c
        germ = out
    inv = local_invariants(P(germ))
    assert inv.mu == (m - 1) ** 2
    assert inv.branches == m
    expected = CycloProduct({1: 1} if m == 2 else {1: 1, m: m - 2})
    assert inv.delta == expected
