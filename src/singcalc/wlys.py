"""Weighted-homogeneous decomposition and admissibility of trivariate germs.

A germ F in three variables decomposes, for a weight vector w = (p,q,r),
into w-homogeneous forms.  The lowest form has some w-degree d; the gap k
to the next nonzero form, together with non-membership conditions for
declared singular points on the next form's zero set, decides whether F
defines a weighted Le-Yomdin singularity for (w, k).

Coefficients are exact rationals throughout: ints, and Fractions where
the input gives them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import FrozenRecord, setfield
from .errors import INDETERMINATE, InputError, InternalError
from .schema import rational

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


class TrivarPoly(FrozenRecord):
    """Sparse trivariate polynomial {(i, j, l): coefficient}.

    ``terms`` is the sorted tuple of ((i, j, l), c) with c nonzero: an int
    as given, any other value as a Fraction.
    """

    __slots__ = ("terms",)

    def __init__(self, data):
        cleaned = {}
        for key, c in dict(data).items():
            i, j, l = key
            if i < 0 or j < 0 or l < 0:
                raise InputError(f"negative exponent in monomial {key}")
            if type(c) is not int:
                c = Fraction(c)
            if c != 0:
                cleaned[(int(i), int(j), int(l))] = c
        setfield(self, "terms", tuple(sorted(cleaned.items())))

    @staticmethod
    def _clean(terms) -> TrivarPoly:
        """A TrivarPoly of terms as they are: sorted, each coefficient a
        nonzero int or Fraction."""
        poly = object.__new__(TrivarPoly)
        setfield(poly, "terms", tuple(terms))
        return poly

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, a, b, c) -> Fraction:
        """The value at (a, b, c), summed over ints: with D the lcm of the
        coefficients' denominators and top_v the largest exponent of each
        variable v, every term is scaled by D * prod den(v)^top_v."""
        lcd = math.lcm(*(coeff.denominator for _, coeff in self.terms))
        scale = lcd
        powers = []  # per variable, {e: num^e * den^(top_v - e)} over its exponents e
        for v, x in enumerate(map(Fraction, (a, b, c))):
            exponents = {key[v] for key, _ in self.terms}
            top = max(exponents, default=0)
            num, den = x.numerator, x.denominator
            powers.append({e: num**e * den ** (top - e) for e in exponents})
            scale *= den**top
        pa, pb, pc = powers
        total = sum(
            coeff.numerator * (lcd // coeff.denominator) * pa[i] * pb[j] * pc[l]
            for (i, j, l), coeff in self.terms
        )
        return Fraction(total, scale)


class WeightVector(FrozenRecord):
    """Positive integer weights (p, q, r) with gcd 1."""

    __slots__ = ("p", "q", "r")

    def __init__(self, p: int, q: int, r: int):
        if min(p, q, r) < 1:
            raise InputError(f"weights must be positive, got {(p, q, r)}")
        if math.gcd(math.gcd(p, q), r) != 1:
            raise InputError(f"weights {(p, q, r)} must have gcd 1")
        setfield(self, "p", p)
        setfield(self, "q", q)
        setfield(self, "r", r)

    def degree_of(self, monomial) -> int:
        i, j, l = monomial
        return self.p * i + self.q * j + self.r * l

    def as_tuple(self) -> tuple:
        return (self.p, self.q, self.r)


class WDecomposition(FrozenRecord):
    """Decomposition of a germ into weighted-homogeneous forms.

    ``d`` is the lowest weighted degree; ``k`` the gap to the next nonzero
    form, or None when the germ is weighted-homogeneous (reported
    distinctly, not as an error).
    """

    __slots__ = ("d", "k", "parts")

    def __init__(self, d: int, k: int | None, parts: tuple):
        # parts: the (degree, TrivarPoly) pairs, degrees ascending
        setfield(self, "d", d)
        setfield(self, "k", k)
        setfield(self, "parts", parts)

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
    buckets = {}  # each bucket's terms keep the order of f.terms
    for term in f.terms:
        buckets.setdefault(w.degree_of(term[0]), []).append(term)
    degrees = sorted(buckets)
    d = degrees[0]
    k = degrees[1] - d if len(degrees) > 1 else None
    parts = tuple((m, TrivarPoly._clean(buckets[m])) for m in degrees)
    return WDecomposition(d=d, k=k, parts=parts)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


class WeightedPoint(FrozenRecord):
    """A point of the weighted projective plane, with its clause tag.

    ``clause`` records which condition of the weighted Le-Yomdin
    definition the point instantiates ("i", "ii", or "iii"); ``flags``
    carries any user-supplied local conditions (e.g. transversality),
    which are recorded but not re-derived.
    """

    __slots__ = ("coords", "clause", "flags")

    def __init__(self, coords: tuple, clause: str = "i", flags: tuple = ()):
        coords = tuple(Fraction(x) for x in coords)  # (a, b, c), not all zero
        if len(coords) != 3:
            raise InputError(f"point needs 3 coordinates, got {len(coords)}")
        if all(x == 0 for x in coords):
            raise InputError("point must have a nonzero coordinate")
        if clause not in ("i", "ii", "iii"):
            raise InputError(f"clause must be i, ii or iii, got {clause!r}")
        setfield(self, "coords", coords)
        setfield(self, "clause", clause)
        setfield(self, "flags", tuple(sorted(dict(flags).items())))

    def label(self) -> str:
        return "[" + ":".join(str(x) for x in self.coords) + "]"


def wlys_admissibility(f: TrivarPoly, w: WeightVector, declared_sing) -> dict:
    """Check the declared singular points, a sequence of
    :class:`WeightedPoint`, against the comparison form.

    Computes (d, k) by decomposition, then requires that no declared point
    lies on the zero set of the degree-(d+k) form.  Vanishing on the
    weighted projective plane is representative-independent for a
    weighted-homogeneous form; this is re-asserted by checking that every
    term of the form has w-degree d + k.

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
    degree = decomp.d + decomp.k
    form = decomp.part(degree)
    if any(w.degree_of(monomial) != degree for monomial, _ in form.terms):
        raise InternalError(f"C_{degree} is not w-homogeneous: vanishing on it depends on the representative")
    failures = []
    for point in declared_sing:
        if form.evaluate(*point.coords) == 0:
            failures.append(f"point {point.label()} (clause {point.clause}) lies on C_{degree}")
    return {"admissible": not failures, "failures": failures, **out}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def trivar_from_json(data) -> TrivarPoly:
    """The germ of the "poly" array of a document that `schema.validate`
    accepted against schemas/wlys-input.schema.json; the coefficients of
    equal monomials add up."""
    terms = {}
    for n, m in enumerate(data):
        key, c = (m["i"], m["j"], m["l"]), rational(m["c"], "poly", n, "c")
        terms[key] = terms[key] + c if key in terms else c
    return TrivarPoly(terms)


def trivar_to_json(f: TrivarPoly) -> list:
    return [
        {"i": i, "j": j, "l": l, "c": str(c)} for (i, j, l), c in f.terms
    ]


def point_from_json(data, n: int = 0) -> WeightedPoint:
    """The point of entry n of the "points" of a document that
    `schema.validate` accepted against schemas/wlys-input.schema.json;
    each flag is kept as (name, True)."""
    coords = tuple(rational(x, "points", n, "coords", i) for i, x in enumerate(data["coords"]))
    return WeightedPoint(coords, data["clause"], tuple((flag, True) for flag in data["flags"]))
