"""Monodromy zeta functions, characteristic polynomials and Jordan
data: frozen examples plus the degree and eigenvalue-1 bookkeeping
identities on randomized tangent-cone data."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcalc.cyclo import CycloProduct, DensePoly, expand, root_multiplicity
from singcalc.errors import InputError, NonDivisible, NotPolynomial
from singcalc.monodromy import (
    LYSInput,
    LYSPoint,
    acampo_zeta,
    char_poly_lys,
    jordan1_quotient,
    jordan2_sis,
    milnor_number,
    render_report,
    yau_pair_report,
    zeta_to_char,
)
from singcalc.qres2d import BivarPoly, local_invariants, qresolve, smoothen

C = CycloProduct

CUSP_DELTA = C({6: 1, 1: 1, 2: -1, 3: -1})  # t^2 - t + 1

# local characteristic polynomials with (mu, r), all verified through
# the resolution pipeline in test_qres2d
LOCAL_CATALOG = {
    "cusp": (2, 1, CUSP_DELTA),
    "node": (1, 2, C({1: 1})),
    "tacnode": (3, 2, C({4: 1, 1: 1, 2: -1})),
    "A4": (4, 1, C({10: 1, 1: 1, 2: -1, 5: -1})),
    "E6": (6, 1, C({12: 1, 1: 1, 3: -1, 4: -1})),
    "E7": (7, 2, C({9: 1, 1: 1, 3: -1})),
    "E8": (8, 1, C({15: 1, 1: 1, 3: -1, 5: -1})),
}


def point(name, jordan1=None):
    mu, r, delta = LOCAL_CATALOG[name]
    return LYSPoint(mu, r, delta, jordan1)


# ------------------------------------------------------------------- zeta


def test_acampo_zeta_examples():
    cusp = smoothen(qresolve(BivarPoly({(0, 2): 1, (3, 0): -1})))
    assert acampo_zeta(cusp) == C({2: 1, 3: 1, 6: -1})
    node = smoothen(qresolve(BivarPoly({(1, 1): 1})))
    assert acampo_zeta(node) == C({})
    a4 = smoothen(qresolve(BivarPoly({(0, 2): 1, (5, 0): -1})))
    assert acampo_zeta(a4) == C({5: 1, 2: 1, 10: -1})


def test_zeta_to_char_examples():
    assert zeta_to_char(C({2: 1, 3: 1, 6: -1}), 1) == CUSP_DELTA
    assert zeta_to_char(C({}), 1) == C({1: 1})
    assert zeta_to_char(CUSP_DELTA * C({1: 1}), 2) == CUSP_DELTA
    assert zeta_to_char(C({2: 1}), 2) == C({2: 1, 1: -1})
    with pytest.raises(InputError):
        zeta_to_char(C({}), 3)
    with pytest.raises(NotPolynomial):
        zeta_to_char(C({1: 2}), 1)


def test_pipeline_coherence():
    for germ in ({(0, 2): 1, (3, 0): -1}, {(0, 2): 1, (5, 0): -1}):
        f = BivarPoly(germ)
        inv = local_invariants(f)
        assert zeta_to_char(acampo_zeta(smoothen(qresolve(f))), 1) == inv.delta


def test_acampo_rejects_bad_multiplicity():
    g = smoothen(qresolve(BivarPoly({(1, 1): 1})))
    g.vertices["E1"].multiplicity = 0
    with pytest.raises(InputError):
        acampo_zeta(g)


# ---------------------------------------------------------- milnor numbers


def test_milnor_number_examples():
    assert milnor_number(6, 1, 19) == 144
    assert milnor_number(4, 1, 0) == 27
    assert milnor_number(6, 1, 12) == 137
    assert milnor_number(6, 2, 2) == 129
    with pytest.raises(InputError):
        milnor_number(1, 1, 0)
    with pytest.raises(InputError):
        milnor_number(3, 0, 0)


# ------------------------------------------------------------ char_poly_lys


def test_char_poly_six_cuspidal_sextic():
    inp = LYSInput(6, 1, tuple(point("cusp") for _ in range(6)))
    out = char_poly_lys(inp)
    assert out == C({6: 9, 1: -1, 42: 6, 7: 6, 14: -6, 21: -6})
    assert out.degree() == 137


def test_char_poly_smooth_cubic_cone():
    out = char_poly_lys(LYSInput(3, 1, ()))
    assert out == C({3: 3, 1: -1})
    assert out.degree() == 8
    # dense-expansion oracle: result * (t-1) == (t^3-1)^3
    lhs = expand(out) * DensePoly((-1, 1))
    assert lhs.coeffs == expand(C({3: 3})).coeffs


def test_char_poly_order_two_offset():
    # degree-8 germ over a sextic cone with one cusp: the local factor
    # is the square of the cusp monodromy, substituted at t^8
    inp = LYSInput(6, 2, (point("cusp"),))
    out = char_poly_lys(inp)
    assert out == C({6: 19, 1: -1, 24: 1, 8: -1})
    assert out.degree() == 129 == milnor_number(6, 2, 2)


def test_char_poly_regime_guard():
    # nine cusps push mu(C) past d^2-3d+3 = 12 for d = 4... use d=4:
    # d^2-3d+3 = 7, four cusps give mu = 8 > 7
    inp = LYSInput(4, 1, tuple(point("cusp") for _ in range(4)))
    with pytest.raises(InputError):
        char_poly_lys(inp)


def join_divisor(*exponents):
    """Divisor of the monodromy of x_1^a_1 + ... + x_n^a_n as
    {m: exponent of (t^m - 1)}: the product of the (Lambda_a - 1), where
    Lambda_a is the divisor of t^a - 1, 1 = Lambda_1 and
    Lambda_a Lambda_b = gcd(a, b) Lambda_lcm(a, b) (Milnor-Orlik 1970)."""
    out = {1: 1}
    for a in exponents:
        step = {}
        for m, e in out.items():
            lcm = math.lcm(m, a)
            step[lcm] = step.get(lcm, 0) + math.gcd(m, a) * e
            step[m] = step.get(m, 0) - e
        out = step
    return out


@pytest.mark.parametrize("d", range(2, 13))
def test_char_poly_lys_thom_sebastiani(d):
    # x^d + y^d + z^(d+k) is a Le-Yomdin germ whose tangent cone is d
    # concurrent lines, one ordinary d-fold point with mu = (d-1)^2 > d^2-3d+3
    # for d >= 3; its monodromy is the Thom-Sebastiani join of x^d + y^d
    # and z^(d+k)
    germ = local_invariants(BivarPoly({(d, 0): 1, (0, d): 1}))
    assert germ.delta == C(join_divisor(d, d))
    cone = (LYSPoint(germ.mu, germ.branches, germ.delta),)
    for k in range(1, 9):
        assert char_poly_lys(LYSInput(d, k, cone)) == C(join_divisor(d, d, d + k)), k


def test_char_poly_genus_bound():
    # four general lines meet in six nodes, the most a reduced quartic has;
    # with 2 delta = mu + r - 1 = 2 per node, seven nodes exceed
    # (d-1)(d-2)/2 + min(d-1, sum(r-1)) = 3 + 3 although mu = 7 = d^2-3d+3
    six = LYSInput(4, 1, tuple(point("node") for _ in range(6)))
    assert char_poly_lys(six).degree() == milnor_number(4, 1, 6)
    seven = LYSInput(4, 1, tuple(point("node") for _ in range(7)))
    with pytest.raises(InputError, match="no reduced curve of degree 4"):
        char_poly_lys(seven)


def test_lys_input_validation():
    with pytest.raises(InputError):
        LYSPoint(3, 1, CUSP_DELTA)  # degree 2 != mu 3
    with pytest.raises(InputError):
        LYSInput(1, 1, ())
    with pytest.raises(InputError):
        LYSInput(3, 0, ())


@st.composite
def cone_data(draw):
    d = draw(st.integers(3, 12))
    k = draw(st.integers(1, 4))
    names = draw(
        st.lists(st.sampled_from(sorted(LOCAL_CATALOG)), min_size=0, max_size=6)
    )
    budget = d * d - 3 * d + 3
    points = []
    for name in names:
        mu = LOCAL_CATALOG[name][0]
        if sum(p.mu_p for p in points) + mu > budget:
            continue
        points.append(point(name))
    return LYSInput(d, k, tuple(points))


@given(inp=cone_data())
@settings(max_examples=60, deadline=None)
def test_property_degree_equals_milnor_number(inp):
    out = char_poly_lys(inp)
    assert out.degree() == milnor_number(inp.d, inp.k, inp.mu_cone())
    # the eigenvalues are roots of unity with nonnegative multiplicity,
    # so the product expands to an honest integer polynomial
    dense = expand(out)
    assert dense.degree == out.degree()


@given(inp=cone_data())
@settings(max_examples=60, deadline=None)
def test_property_eigenvalue_one_bookkeeping(inp):
    from singcalc.cyclo import power_char

    out = char_poly_lys(inp)
    e0 = inp.d**2 - 3 * inp.d + 3 - inp.mu_cone()
    locals_at_one = sum(
        root_multiplicity(power_char(p.delta_p_charpoly, inp.k), 1)
        for p in inp.points
    )
    assert root_multiplicity(out, 1) == e0 - 1 + locals_at_one
    if not inp.points:
        assert root_multiplicity(out, 1) == inp.d**2 - 3 * inp.d + 2


# -------------------------------------------------------------- jordan data


def test_jordan2_sis_examples():
    cusps = LYSInput(6, 1, tuple(point("cusp", C({})) for _ in range(6)))
    assert jordan2_sis(cusps) == C({})

    one = LYSInput(6, 1, (LYSPoint(2, 1, CUSP_DELTA, C({2: 1})),))
    assert jordan2_sis(one, 5) == C({1: 1})

    two = LYSInput(
        6, 1,
        (LYSPoint(2, 1, CUSP_DELTA, C({1: 1})), LYSPoint(2, 1, CUSP_DELTA, C({1: 1}))),
    )
    assert jordan2_sis(two, 1) == C({1: 1})
    # default m sits above the total degree and keeps the full power
    assert jordan2_sis(two) == C({1: 2})


def test_jordan2_sis_requires_jordan_data():
    inp = LYSInput(6, 1, (point("cusp"),))
    with pytest.raises(InputError):
        jordan2_sis(inp)


def test_jordan1_quotient_examples():
    assert jordan1_quotient(C({6: 2, 1: 2, 2: -2, 3: -2}), CUSP_DELTA) == CUSP_DELTA
    assert jordan1_quotient(CUSP_DELTA, CUSP_DELTA) == C({})
    with pytest.raises(NonDivisible):
        jordan1_quotient(C({1: 1}), C({2: 1}))


# ------------------------------------------------------------------ reports


def _sextic(alexander, delta_cmb_k=None):
    return LYSInput(
        6, 1,
        tuple(point("cusp") for _ in range(6)),
        alexander=alexander,
        delta_cmb_k=delta_cmb_k,
    )


def test_yau_pair_distinguished():
    a = _sextic(CUSP_DELTA, delta_cmb_k=C({6: 2, 1: 2, 2: -2, 3: -2}))
    b = _sextic(C({}))
    report = yau_pair_report(a, b)
    assert report["milnor_number"] == 137
    assert report["char_poly_equal"] is True
    assert report["alexander_equal"] is False
    assert "differs" in report["verdict"]
    assert report["jordan1_a"] == CUSP_DELTA.as_dict()
    text = render_report(report)
    assert "137" in text and "verdict" in text


def test_yau_pair_indistinguishable():
    report = yau_pair_report(_sextic(C({})), _sextic(C({})))
    assert report["alexander_equal"] is True
    assert report["verdict"] == "indistinguishable by these invariants"


def test_yau_pair_requires_matching_combinatorics():
    with pytest.raises(InputError):
        yau_pair_report(_sextic(C({})), LYSInput(5, 1, ()))
    with pytest.raises(InputError):
        yau_pair_report(
            _sextic(C({})),
            LYSInput(6, 1, tuple(point("cusp") for _ in range(5)) + (point("node"),)),
        )


def test_yau_pair_without_alexander_data():
    report = yau_pair_report(_sextic(None), _sextic(None))
    assert report["verdict"] == "Alexander polynomials not supplied for both germs"
