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

from dataclasses import dataclass
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:  # qres2d imports this module
    from .qres2d import SmoothResolutionGraph

__all__ = [
    "LYSPoint",
    "LYSInput",
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


def acampo_zeta(g: SmoothResolutionGraph) -> CycloProduct:
    """Monodromy zeta function of a smooth resolution graph, as a
    formal product over the exceptional vertices; strict-transform
    vertices carry no factor."""
    acc: dict[int, int] = {}
    for vid in g.exceptional_ids():
        v = g.vertices[vid]
        if v.multiplicity <= 0:
            raise InputError(f"vertex {vid} has non-positive multiplicity")
        if v.chi_open:
            acc[v.multiplicity] = acc.get(v.multiplicity, 0) + v.chi_open
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


# ----------------------------------------------------------------- inputs


@dataclass(frozen=True)
class LYSPoint:
    """One singular point of the tangent cone."""

    mu_p: int
    r_p: int
    delta_p_charpoly: CycloProduct
    jordan1_p: CycloProduct | None = None

    def __post_init__(self):
        if self.mu_p < 0 or self.r_p < 1:
            raise InputError(f"point with mu={self.mu_p}, r={self.r_p}")
        deg = self.delta_p_charpoly.degree()
        if deg != self.mu_p:
            raise InputError(
                f"deg Delta_p = {deg} does not match mu_p = {self.mu_p}"
            )


@dataclass(frozen=True)
class LYSInput:
    """Tangent-cone data of a Le-Yomdin hypersurface germ: degree-d
    projective curve with isolated singular points, plus the offset k
    (the germ has degree d + k)."""

    d: int
    k: int
    points: tuple[LYSPoint, ...] = ()
    alexander: CycloProduct | None = None
    delta_cmb_k: CycloProduct | None = None

    def __post_init__(self):
        if self.d < 2:
            raise InputError(f"cone degree d = {self.d}; need d >= 2")
        if self.k < 1:
            raise InputError(f"offset k = {self.k}; need k >= 1")
        object.__setattr__(self, "points", tuple(self.points))

    def mu_cone(self) -> int:
        return sum(p.mu_p for p in self.points)


# ------------------------------------------------------- global invariants


def milnor_number(d: int, k: int, mu_cd: int) -> int:
    if d < 2 or k < 1 or mu_cd < 0:
        raise InputError(f"milnor_number({d}, {k}, {mu_cd}) out of range")
    return (d - 1) ** 3 + k * mu_cd


def char_poly_lys(inp: LYSInput) -> CycloProduct:
    """Characteristic polynomial of the monodromy on H^2 of the Milnor
    fiber, from the tangent-cone data.

    The points must fit on a reduced curve of degree d: by the genus
    formula, sum delta_p <= (d-1)(d-2)/2 + min(d-1, sum (r_p - 1)), where
    2 delta_p = mu_p + r_p - 1 (Milnor).  d concurrent lines meet the
    bound with equality.
    """
    d = inp.d
    mu_cd = inp.mu_cone()
    twice_delta = sum(p.mu_p + p.r_p - 1 for p in inp.points)
    twice_bound = (d - 1) * (d - 2) + 2 * min(d - 1, sum(p.r_p - 1 for p in inp.points))
    if twice_delta > twice_bound:
        raise InputError(
            f"2 sum(delta_p) = {twice_delta} exceeds (d-1)(d-2) + "
            f"2 min(d-1, sum(r_p-1)) = {twice_bound}: "
            f"no reduced curve of degree {d} has these singular points"
        )
    acc = CycloProduct({d: d**2 - 3 * d + 3 - mu_cd, 1: -1})
    for p in inp.points:
        local = power_char(p.delta_p_charpoly, inp.k)
        acc = acc * substitute_power(local, d + inp.k)
    expected = milnor_number(d, inp.k, mu_cd)
    if acc.degree() != expected:
        raise InternalError(
            f"characteristic polynomial has degree {acc.degree()}, "
            f"Milnor number is {expected}"
        )
    return acc


def jordan2_sis(inp: LYSInput, m: int | None = None) -> CycloProduct:
    """Polynomial of the size-three Jordan blocks for k=1:
    gcd((t-1)^m, prod_P Delta_P^{[1]}), with m large by default."""
    prod = CycloProduct({})
    total_deg = 0
    for idx, p in enumerate(inp.points):
        if p.jordan1_p is None:
            raise InputError(f"point {idx} supplies no Delta_P^[1]")
        prod = prod * p.jordan1_p
        total_deg += p.jordan1_p.degree()
    if m is None:
        m = 1 + total_deg
    if m < 1:
        raise InputError(f"m = {m}; need a positive exponent")
    return gcd_cyclo(CycloProduct({1: m}), prod)


def jordan1_quotient(delta_cmb_k: CycloProduct, alexander: CycloProduct) -> CycloProduct:
    """Delta^[1] = Delta^{cmb,k} / Delta_{C_d} (Alexander polynomial of
    the cone curve); NonDivisible signals inconsistent inputs."""
    return exact_divide(delta_cmb_k, alexander)


# ------------------------------------------------------------------ reports


def _point_key(p: LYSPoint):
    return (p.mu_p, p.r_p, p.delta_p_charpoly.factors)


def yau_pair_report(a: LYSInput, b: LYSInput) -> dict:
    """Compare two germs with the same tangent-cone combinatorics.

    Their Milnor numbers and characteristic polynomials agree by
    construction; if their Alexander polynomials differ, the Jordan
    structures of the monodromy differ, hence so do the embedded
    topologies."""
    if a.d != b.d or a.k != b.k:
        raise InputError(f"(d,k) mismatch: ({a.d},{a.k}) vs ({b.d},{b.k})")
    if sorted(map(_point_key, a.points)) != sorted(map(_point_key, b.points)):
        raise InputError("tangent-cone singular points differ: not a comparable pair")

    mu = milnor_number(a.d, a.k, a.mu_cone())
    char_a = char_poly_lys(a)
    char_b = char_poly_lys(b)
    if char_a != char_b:
        raise InternalError("equal combinatorics produced different char polys")

    report: dict = {
        "d": a.d,
        "k": a.k,
        "milnor_number": mu,
        "milnor_equal": True,
        "char_poly": char_a.as_dict(),
        "char_poly_equal": True,
    }
    for label, inp in (("a", a), ("b", b)):
        if inp.alexander is not None:
            report[f"alexander_{label}"] = inp.alexander.as_dict()
        if inp.delta_cmb_k is not None and inp.alexander is not None:
            report[f"jordan1_{label}"] = jordan1_quotient(
                inp.delta_cmb_k, inp.alexander
            ).as_dict()
    if a.alexander is not None and b.alexander is not None:
        same = a.alexander == b.alexander
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
