"""Weighted-homogeneous decomposition and admissibility of trivariate germs.

A germ F in three variables decomposes, for a weight vector w = (p,q,r),
into w-homogeneous forms.  The lowest form has some w-degree d; the gap k
to the next nonzero form, together with non-membership conditions for
declared singular points on the next form's zero set, decides whether F
defines a weighted Le-Yomdin singularity for (w, k).

Coefficients are exact rationals throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import INDETERMINATE, InputError, InternalError
from .schema import field, keyed, monomials

__all__ = [
    "TrivarPoly",
    "WeightVector",
    "WDecomposition",
    "wdecompose",
    "WeightedPoint",
    "wlys_admissibility",
    "trivar_from_json",
    "trivar_to_json",
    "point_from_json",
]

# ---------------------------------------------------------------------------
# polynomials and weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrivarPoly:
    """Sparse trivariate polynomial {(i, j, l): coefficient}."""

    terms: tuple  # tuple of ((i, j, l), Fraction), sorted, coefficients nonzero

    def __init__(self, data):
        cleaned = {}
        for key, c in dict(data).items():
            i, j, l = key
            if i < 0 or j < 0 or l < 0:
                raise InputError(f"negative exponent in monomial {key}")
            c = Fraction(c)
            if c != 0:
                cleaned[(int(i), int(j), int(l))] = c
        object.__setattr__(self, "terms", tuple(sorted(cleaned.items())))

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, a, b, c) -> Fraction:
        total = Fraction(0)
        for (i, j, l), coeff in self.terms:
            total += coeff * Fraction(a) ** i * Fraction(b) ** j * Fraction(c) ** l
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (i, j, l), c in self.terms:
            mono = "".join(
                f"{name}^{e}" if e > 1 else name
                for name, e in (("x", i), ("y", j), ("z", l))
                if e
            )
            if not mono:
                pieces.append(str(c))
            elif c == 1:
                pieces.append(mono)
            elif c == -1:
                pieces.append(f"-{mono}")
            else:
                pieces.append(f"{c}*{mono}")
        out = " + ".join(pieces)
        return out.replace("+ -", "- ")


@dataclass(frozen=True)
class WeightVector:
    """Positive integer weights (p, q, r) with gcd 1."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        if min(self.p, self.q, self.r) < 1:
            raise InputError(f"weights must be positive, got {(self.p, self.q, self.r)}")
        if math.gcd(math.gcd(self.p, self.q), self.r) != 1:
            raise InputError(
                f"weights {(self.p, self.q, self.r)} must have gcd 1"
            )

    def degree_of(self, monomial) -> int:
        i, j, l = monomial
        return self.p * i + self.q * j + self.r * l

    def as_tuple(self) -> tuple:
        return (self.p, self.q, self.r)


@dataclass(frozen=True)
class WDecomposition:
    """Decomposition of a germ into weighted-homogeneous forms.

    ``d`` is the lowest weighted degree; ``k`` the gap to the next nonzero
    form, or None when the germ is weighted-homogeneous (reported
    distinctly, not as an error).
    """

    d: int
    k: object  # int, or None for a homogeneous germ
    parts: tuple  # tuple of (degree, TrivarPoly), ascending

    def part(self, degree: int) -> TrivarPoly:
        for m, poly in self.parts:
            if m == degree:
                return poly
        return TrivarPoly({})


def wdecompose(f: TrivarPoly, w: WeightVector) -> WDecomposition:
    """Bucket the monomials of f by weighted degree.

    Requires f nonzero with f(0,0,0) = 0.  The gap k is the difference
    between the two lowest weighted degrees present, None if only one is.
    """
    if f.is_zero():
        raise InputError("germ must be nonzero")
    if (0, 0, 0) in f.as_dict():
        raise InputError("germ must vanish at the origin (no constant term)")
    buckets = {}
    for key, c in f.terms:
        m = w.degree_of(key)
        buckets.setdefault(m, {})[key] = c
    degrees = sorted(buckets)
    d = degrees[0]
    k = degrees[1] - d if len(degrees) > 1 else None
    parts = tuple((m, TrivarPoly(buckets[m])) for m in degrees)
    return WDecomposition(d=d, k=k, parts=parts)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedPoint:
    """A point of the weighted projective plane, with its clause tag.

    ``clause`` records which condition of the weighted Le-Yomdin
    definition the point instantiates ("i", "ii", or "iii"); ``flags``
    carries any user-supplied local conditions (e.g. transversality),
    which are recorded but not re-derived.
    """

    coords: tuple  # (a, b, c) Fractions, not all zero
    clause: str = "i"
    flags: tuple = ()

    def __post_init__(self):
        coords = tuple(Fraction(x) for x in self.coords)
        if len(coords) != 3:
            raise InputError(f"point needs 3 coordinates, got {len(coords)}")
        if all(x == 0 for x in coords):
            raise InputError("point must have a nonzero coordinate")
        if self.clause not in ("i", "ii", "iii"):
            raise InputError(f"clause must be i, ii or iii, got {self.clause!r}")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "flags", tuple(sorted(dict(self.flags).items())))

    def label(self) -> str:
        return "[" + ":".join(str(x) for x in self.coords) + "]"


def _scaled(point: tuple, w: WeightVector, lam: Fraction) -> tuple:
    a, b, c = point
    return (lam**w.p * a, lam**w.q * b, lam**w.r * c)


def wlys_admissibility(f: TrivarPoly, w: WeightVector, declared_sing) -> dict:
    """Check the declared singular points, a sequence of
    :class:`WeightedPoint`, against the comparison form.

    Computes (d, k) by decomposition, then requires that no declared point
    lies on the zero set of the degree-(d+k) form.  Vanishing on the
    weighted projective plane is representative-independent for a
    weighted-homogeneous form; this is re-asserted by evaluating a second,
    scaled representative of each point.

    Returns {"admissible": True | False | INDETERMINATE, "d", "k",
    "failures", "parts"}, where "parts" are the (degree, form) pairs of
    the decomposition; a weighted-homogeneous germ (k = None) has no
    comparison form, so the verdict is INDETERMINATE.
    """
    decomp = wdecompose(f, w)
    out = {"d": decomp.d, "k": decomp.k, "parts": decomp.parts}
    if decomp.k is None:
        failures = ["germ is weighted-homogeneous: no comparison form to evaluate"]
        return {"admissible": INDETERMINATE, "failures": failures, **out}
    form = decomp.part(decomp.d + decomp.k)
    failures = []
    for point in declared_sing:
        value = form.evaluate(*point.coords)
        scaled_value = form.evaluate(*_scaled(point.coords, w, Fraction(2)))
        if (value == 0) != (scaled_value == 0):
            raise InternalError(
                f"vanishing at {point.label()} depends on the representative"
            )
        if value == 0:
            failures.append(
                f"point {point.label()} (clause {point.clause}) lies on "
                f"C_{decomp.d + decomp.k}"
            )
    return {"admissible": not failures, "failures": failures, **out}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def trivar_from_json(data) -> TrivarPoly:
    """Parse [{"i": .., "j": .., "l": .., "c": "p/q"}, ...]."""
    return TrivarPoly(monomials(data, "ijl", "poly"))


def trivar_to_json(f: TrivarPoly) -> list:
    return [
        {"i": i, "j": j, "l": l, "c": str(c)} for (i, j, l), c in f.terms
    ]


def point_from_json(data, where: str = "point") -> WeightedPoint:
    """Parse {"coords": ["a","b","c"], "clause": "i", "flags": [name, ...]};
    each flag is kept as (name, True)."""
    data = keyed(data, "coords clause flags", where)
    coords = field(data, "coords", ("array", "rational"), where)
    clause = field(data, "clause", "string", where, "i")
    flags = field(data, "flags", ("array", "string"), where, [])
    return WeightedPoint(coords=tuple(coords), clause=clause, flags=tuple((f, True) for f in flags))
