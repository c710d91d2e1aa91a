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
from operator import mul

from ._record import FrozenRecord, setfield
from .errors import INDETERMINATE, InputError, InternalError
from .schema import rational

__all__ = [
    "TrivarPoly",
    "degree_of",
    "wdecompose",
    "wlys_admissibility",
    "trivar_from_json",
    "trivar_to_json",
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


def degree_of(w, monomial) -> int:
    """The w-degree of a monomial (i, j, l)."""
    return sum(map(mul, w, monomial))


def wdecompose(f: TrivarPoly, w) -> dict:
    """Bucket the monomials of f by weighted degree.

    Requires positive integer weights w = [p, q, r] with gcd 1, and f
    nonzero with f(0,0,0) = 0.  Returns {"d", "k", "parts"}:
    ``parts`` are the (degree, TrivarPoly) pairs of the w-homogeneous
    forms, degrees ascending; ``d`` is the lowest degree and ``k`` the gap
    to the next, None when the germ is weighted-homogeneous (reported
    distinctly, not as an error).
    """
    if min(w) < 1:
        raise InputError(f"weights must be positive, got {tuple(w)}")
    if math.gcd(*w) != 1:
        raise InputError(f"weights {tuple(w)} must have gcd 1")
    if f.is_zero():
        raise InputError("germ must be nonzero")
    if (0, 0, 0) in f.as_dict():
        raise InputError("germ must vanish at the origin (no constant term)")
    buckets = {}  # each bucket's terms keep the order of f.terms
    for term in f.terms:
        buckets.setdefault(degree_of(w, term[0]), []).append(term)
    degrees = sorted(buckets)
    d = degrees[0]
    k = degrees[1] - d if len(degrees) > 1 else None
    parts = tuple((m, TrivarPoly._clean(buckets[m])) for m in degrees)
    return {"d": d, "k": k, "parts": parts}


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def wlys_admissibility(f: TrivarPoly, w, declared_sing) -> dict:
    """Check the declared singular points against the comparison form.

    Each point is a (coords, clause) pair: coords (a, b, c), exact
    rationals not all zero, represent a point of the weighted projective
    plane, and clause names the condition of the weighted Le-Yomdin
    definition it instantiates ("i", "ii" or "iii").  Computes (d, k) by
    decomposition, then requires that no declared point lies on the zero
    set of the degree-(d+k) form.  Vanishing on the weighted projective
    plane is representative-independent for a weighted-homogeneous form;
    this is re-asserted by checking that every term of the form has
    w-degree d + k.

    Returns the dict of `wdecompose` with "admissible": True | False |
    INDETERMINATE and "failures" added; a weighted-homogeneous germ
    (k = None) has no comparison form, so the verdict is INDETERMINATE.
    """
    out = wdecompose(f, w)
    if out["k"] is None:
        failures = ["germ is weighted-homogeneous: no comparison form to evaluate"]
        out.update(admissible=INDETERMINATE, failures=failures)
        return out
    degree, form = out["parts"][1]
    if any(degree_of(w, monomial) != degree for monomial, _ in form.terms):
        raise InternalError(f"C_{degree} is not w-homogeneous: vanishing on it depends on the representative")
    failures = []
    for coords, clause in declared_sing:
        if form.evaluate(*coords) == 0:
            label = "[" + ":".join(map(str, coords)) + "]"
            failures.append(f"point {label} (clause {clause}) lies on C_{degree}")
    out.update(admissible=not failures, failures=failures)
    return out


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
