"""Monodromy zeta functions and characteristic polynomials.

For a curve germ with an embedded resolution, A'Campo's formula gives
the monodromy zeta function from the multiplicities N_j and the Euler
characteristics of the open exceptional pieces,

    zeta(t) = prod_j (1 - t^{N_j})^{chi(E_j^o)}   (exceptional j only).

The characteristic polynomial on the middle cohomology follows by the
dimension convention: Delta = (1-t)/zeta for curves, Delta = zeta/(1-t)
for surfaces; in the (t^m - 1) basis both come out monic, which fixes
the sign.

For a hypersurface of degree d+k whose degree-d tangent cone C_d has
isolated singular points P with local characteristic polynomials
Delta_P, the characteristic polynomial of the monodromy is

    Delta(t) = (t^d-1)^{d^2-3d+3-mu(C_d)} / (t-1)
               * prod_P Delta_P^{(k)}(t^{d+k}),

where Delta_P^{(k)} is the characteristic polynomial of the k-th power
of the local monodromy, and the Milnor number is
(d-1)^3 + k*mu(C_d).  Jordan-block data for eigenvalue parts comes
from the size-two block polynomials Delta^{[1]} of the points.
"""

from __future__ import annotations

from .cyclo import (
    CycloProduct,
    combine,
    exact_divide,
    expand,  # noqa: F401  unused; perfbench/selftest.py checks the tracer patches this binding
    gcd_cyclo,
    power_char,
    require_polynomial,
    substitute_power,
)
from .errors import InputError, InternalError

__all__ = [
    "acampo_zeta",
    "zeta_to_char",
    "milnor_number",
    "char_poly_lys",
    "jordan2_sis",
    "jordan1_quotient",
    "yau_pair_report",
    "render_report",
]

_ONE_MINUS_T = CycloProduct({1: 1})


# ------------------------------------------------------------------- zeta


def acampo_zeta(vertices: dict, strict) -> CycloProduct:
    """Monodromy zeta function of a smooth resolution graph, as a formal
    product over its exceptional vertices.  ``vertices`` maps each id to
    its vertex dict, read for its ``multiplicity`` and ``chi_open`` keys;
    ``strict`` lists the ids of the strict-transform vertices, which carry
    no factor."""
    strict = set(strict)
    acc: dict[int, int] = {}
    for vid, v in vertices.items():
        if vid in strict:
            continue
        m, chi = v["multiplicity"], v["chi_open"]
        if m <= 0:
            raise InputError(f"vertex {vid} has non-positive multiplicity")
        if chi:
            acc[m] = acc.get(m, 0) + chi
    return CycloProduct(acc)


def zeta_to_char(z: CycloProduct, n: int) -> CycloProduct:
    """Characteristic polynomial of the monodromy on H^n from the zeta
    function: Delta = (1-t)/zeta for n=1, Delta = zeta/(1-t) for n=2.
    NotPolynomial signals inconsistent input."""
    if n == 1:
        delta = combine(_ONE_MINUS_T, z, -1)
    elif n == 2:
        delta = combine(z, _ONE_MINUS_T, -1)
    else:
        raise InputError(f"cohomology degree n={n}; only 1 and 2 occur here")
    return require_polynomial(delta)


# ------------------------------------------------------- global invariants


def milnor_number(d: int, k: int, mu_cd: int) -> int:
    if d < 2 or k < 1 or mu_cd < 0:
        raise InputError(f"milnor_number({d}, {k}, {mu_cd}) out of range")
    return (d - 1) ** 3 + k * mu_cd


def char_poly_lys(cone: dict) -> CycloProduct:
    """Characteristic polynomial of the monodromy on H^2 of the Milnor
    fiber, from the tangent-cone data.

    ``cone`` is a dict: the degree ``d`` of the tangent cone C_d, the
    offset ``k`` (the germ has degree d + k), and ``points``, one dict
    per singular point of C_d with its Milnor number ``mu``, its number
    of branches ``r`` and its local characteristic polynomial
    ``charpoly``, a CycloProduct.  `jordan2_sis` also reads a point's
    ``jordan1``, and `yau_pair_report` the cone's ``alexander`` and
    ``delta_cmb_k``, each a CycloProduct or None.

    Raises InputError, in this order, unless deg charpoly = mu at each
    point, d >= 2 and k >= 1, and unless the points fit on a reduced curve
    of degree d: by the genus formula, sum delta_p <= (d-1)(d-2)/2 +
    min(d-1, sum (r_p - 1)), where 2 delta_p = mu_p + r_p - 1 (Milnor).
    d concurrent lines meet the bound with equality.
    """
    d, k, points = cone["d"], cone["k"], cone["points"]
    for p in points:
        deg = p["charpoly"].degree()
        if deg != p["mu"]:
            raise InputError(f"deg Delta_p = {deg} does not match mu_p = {p['mu']}")
    if d < 2:
        raise InputError(f"cone degree d = {d}; need d >= 2")
    if k < 1:
        raise InputError(f"offset k = {k}; need k >= 1")
    mu_cd = sum(p["mu"] for p in points)
    twice_delta = sum(p["mu"] + p["r"] - 1 for p in points)
    twice_bound = (d - 1) * (d - 2) + 2 * min(d - 1, sum(p["r"] - 1 for p in points))
    if twice_delta > twice_bound:
        raise InputError(
            f"2 sum(delta_p) = {twice_delta} exceeds (d-1)(d-2) + "
            f"2 min(d-1, sum(r_p-1)) = {twice_bound}: "
            f"no reduced curve of degree {d} has these singular points"
        )
    acc = CycloProduct({d: d**2 - 3 * d + 3 - mu_cd, 1: -1})
    for p in points:
        acc = acc * substitute_power(power_char(p["charpoly"], k), d + k)
    expected = milnor_number(d, k, mu_cd)
    if acc.degree() != expected:
        raise InternalError(
            f"characteristic polynomial has degree {acc.degree()}, "
            f"Milnor number is {expected}"
        )
    return acc


def jordan2_sis(cone: dict) -> CycloProduct:
    """Polynomial of the size-three Jordan blocks for k=1, from the
    ``jordan1`` of each point of a cone as `char_poly_lys` takes it:
    gcd((t-1)^m, prod_P Delta_P^{[1]}) with m = 1 + deg prod_P Delta_P^{[1]},
    more than the multiplicity of t-1 in the product."""
    prod = CycloProduct({})
    for idx, p in enumerate(cone["points"]):
        if p.get("jordan1") is None:
            raise InputError(f"point {idx} supplies no Delta_P^[1]")
        prod = prod * p["jordan1"]
    m = 1 + prod.degree()
    if m < 1:
        raise InputError(f"m = {m}; need a positive exponent")
    return gcd_cyclo(CycloProduct({1: m}), prod)


def jordan1_quotient(delta_cmb_k: CycloProduct, alexander: CycloProduct) -> CycloProduct:
    """Delta^[1] = Delta^{cmb,k} / Delta_{C_d} (Alexander polynomial of
    the cone curve); NonDivisible signals inconsistent inputs."""
    return exact_divide(delta_cmb_k, alexander)


# ------------------------------------------------------------------ reports


def yau_pair_report(a: dict, b: dict) -> dict:
    """Compare two germs with the same tangent-cone combinatorics, each
    a cone as `char_poly_lys` takes it.

    Their Milnor numbers and characteristic polynomials agree by
    construction; if their Alexander polynomials differ, the Jordan
    structures of the monodromy differ, hence so do the embedded
    topologies."""
    if (a["d"], a["k"]) != (b["d"], b["k"]):
        raise InputError(f"(d,k) mismatch: ({a['d']},{a['k']}) vs ({b['d']},{b['k']})")
    key = lambda cone: sorted((p["mu"], p["r"], p["charpoly"].factors) for p in cone["points"])  # noqa: E731
    if key(a) != key(b):
        raise InputError("tangent-cone singular points differ: not a comparable pair")

    char_a = char_poly_lys(a)
    char_b = char_poly_lys(b)
    if char_a != char_b:
        raise InternalError("equal combinatorics produced different char polys")

    report: dict = {
        "d": a["d"],
        "k": a["k"],
        "milnor_number": milnor_number(a["d"], a["k"], sum(p["mu"] for p in a["points"])),
        "milnor_equal": True,
        "char_poly": char_a.as_dict(),
        "char_poly_equal": True,
    }
    for label, cone in (("a", a), ("b", b)):
        alexander = cone.get("alexander")
        if alexander is not None:
            report[f"alexander_{label}"] = alexander.as_dict()
            if cone.get("delta_cmb_k") is not None:
                report[f"jordan1_{label}"] = jordan1_quotient(
                    cone["delta_cmb_k"], alexander
                ).as_dict()
    if a.get("alexander") is not None and b.get("alexander") is not None:
        same = a["alexander"] == b["alexander"]
        report["alexander_equal"] = same
        report["verdict"] = (
            "indistinguishable by these invariants"
            if same
            else "Jordan structure differs => embedded topology differs"
        )
    else:
        report["verdict"] = "Alexander polynomials not supplied for both germs"
    return report


def render_report(report: dict) -> str:
    lines = [
        f"degrees: tangent cone d={report['d']}, germ d+k={report['d'] + report['k']}",
        f"Milnor number: {report['milnor_number']} (equal)",
        f"characteristic polynomial: {CycloProduct(report['char_poly'])} (equal)",
    ]
    for label in ("a", "b"):
        if f"alexander_{label}" in report:
            lines.append(
                f"Alexander polynomial ({label}): "
                f"{CycloProduct(report[f'alexander_{label}'])}"
            )
        if f"jordan1_{label}" in report:
            lines.append(
                f"Delta^[1] ({label}): {CycloProduct(report[f'jordan1_{label}'])}"
            )
    if "alexander_equal" in report:
        lines.append(f"Alexander polynomials equal: {report['alexander_equal']}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines)
