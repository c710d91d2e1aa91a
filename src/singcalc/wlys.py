"""Weighted-homogeneous decomposition and admissibility of trivariate germs.

A germ F in three variables decomposes, for a weight vector w = (p,q,r),
into w-homogeneous forms.  The lowest form has some w-degree d; the gap k
to the next nonzero form, together with non-membership conditions for
declared singular points on the next form's zero set, decides whether F
defines a weighted Le-Yomdin singularity for (w, k).

A germ, and each of its forms, is the dict {(i, j, l): coefficient} of
its monomials x^i y^j z^l.  Coefficients are exact rationals throughout:
ints, and Fractions where the input gives them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import INDETERMINATE, InputError, InternalError
from .schema import rational

__all__ = [
    "degree_of",
    "evaluate",
    "wdecompose",
    "wlys_admissibility",
    "trivar_from_json",
    "trivar_to_json",
]

# ---------------------------------------------------------------------------
# polynomials and weights
# ---------------------------------------------------------------------------


def evaluate(terms: dict, a, b, c) -> Fraction:
    """The value at (a, b, c) of the terms {(i, j, l): coefficient}, ints
    or Fractions, summed over ints: with D the lcm of the coefficients'
    denominators and top_v the largest exponent of each variable v, every
    term is scaled by D * prod den(v)^top_v."""
    lcd = math.lcm(*(coeff.denominator for coeff in terms.values()))
    scale = lcd
    powers = []  # per variable, {e: num^e * den^(top_v - e)} over its exponents e
    for v, x in enumerate(map(Fraction, (a, b, c))):
        exponents = {key[v] for key in terms}
        top = max(exponents, default=0)
        num, den = x.numerator, x.denominator
        powers.append({e: num**e * den ** (top - e) for e in exponents})
        scale *= den**top
    pa, pb, pc = powers
    total = sum(
        coeff.numerator * (lcd // coeff.denominator) * pa[i] * pb[j] * pc[l]
        for (i, j, l), coeff in terms.items()
    )
    return Fraction(total, scale)


def degree_of(w, monomial) -> int:
    """The w-degree of a monomial (i, j, l)."""
    return sum(map(mul, w, monomial))


def wdecompose(f: dict, w) -> dict:
    """Bucket the monomials of the germ f = {(i, j, l): coefficient} by
    weighted degree.

    The terms are read first: a negative exponent is rejected, an int
    coefficient kept, any other read as a Fraction, and a zero one
    dropped.  Requires positive integer weights w = [p, q, r] with gcd 1,
    and f nonzero with f(0,0,0) = 0.  Returns {"d", "k", "parts"}:
    ``parts`` are the (degree, terms) pairs of the w-homogeneous forms,
    degrees ascending, each form's terms a dict in sorted monomial order;
    ``d`` is the lowest degree and ``k`` the gap to the next, None when
    the germ is weighted-homogeneous (reported distinctly, not as an
    error).
    """
    cleaned = {}
    for key, c in f.items():
        i, j, l = key
        if i < 0 or j < 0 or l < 0:
            raise InputError(f"negative exponent in monomial {key}")
        if type(c) is not int:
            c = Fraction(c)
        if c != 0:
            cleaned[(int(i), int(j), int(l))] = c
    if min(w) < 1:
        raise InputError(f"weights must be positive, got {tuple(w)}")
    if math.gcd(*w) != 1:
        raise InputError(f"weights {tuple(w)} must have gcd 1")
    if not cleaned:
        raise InputError("germ must be nonzero")
    if (0, 0, 0) in cleaned:
        raise InputError("germ must vanish at the origin (no constant term)")
    buckets = {}  # each bucket's terms keep the sorted order
    for key, c in sorted(cleaned.items()):
        buckets.setdefault(degree_of(w, key), {})[key] = c
    degrees = sorted(buckets)
    d = degrees[0]
    k = degrees[1] - d if len(degrees) > 1 else None
    parts = tuple((m, buckets[m]) for m in degrees)
    return {"d": d, "k": k, "parts": parts}


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def wlys_admissibility(f: dict, w, declared_sing) -> dict:
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
    if any(degree_of(w, monomial) != degree for monomial in form):
        raise InternalError(f"C_{degree} is not w-homogeneous: vanishing on it depends on the representative")
    failures = []
    for coords, clause in declared_sing:
        if evaluate(form, *coords) == 0:
            label = "[" + ":".join(map(str, coords)) + "]"
            failures.append(f"point {label} (clause {clause}) lies on C_{degree}")
    out.update(admissible=not failures, failures=failures)
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def trivar_from_json(data) -> dict:
    """The germ {(i, j, l): coefficient} of the "poly" array of a document
    that `schema.validate` accepted against schemas/wlys-input.schema.json;
    the coefficients of equal monomials add up, and a zero sum stays."""
    terms = {}
    for n, m in enumerate(data):
        key, c = (m["i"], m["j"], m["l"]), rational(m["c"], "poly", n, "c")
        terms[key] = terms[key] + c if key in terms else c
    return terms


def trivar_to_json(f: dict) -> list:
    """The terms of f as a "poly" array, in sorted monomial order."""
    return [{"i": i, "j": j, "l": l, "c": str(c)} for (i, j, l), c in sorted(f.items())]
