"""Jordan structure of quasi-unipotent automorphisms, over exact rationals.

For a quasi-unipotent automorphism h, `analyze` factors charpoly(h) into
cyclotomic polynomials Phi_o and counts Jordan blocks from the rank
sequence of each Phi_o(h): the blocks of size >= j at a primitive o-th
root of unity number (rank Phi_o(h)^{j-1} - rank Phi_o(h)^j) / phi(o).
From that census it returns the values of the `weightfilt` report, as
one dict: the level polynomials Delta^[k] (the product of Phi_o over the
blocks of size k+1, so deg Delta^[k] counts those blocks and its roots
are their eigenvalues), the Jordan blocks of N = I - h^m and the graded
dimensions of N's weight filtration.

The weight filtration itself, centered at 0, is the unique increasing
filtration W with N(W_k) contained in W_{k-2} such that N^k induces
isomorphisms gr_k -> gr_{-k}; `weight_filtration` builds explicit bases
for it top down, s the nilpotency index: W_j = V for j >= s-1 and
W_k = Ker N^{k+1} + N W_{k+2}, or N W_{k+2} alone for k < 0.  Unrolled,
W_k sums N^b Ker N^{k+2b+1} = Im N^b ∩ Ker N^{k+b+1} over b >= max(0, -k):
the b = 0 term is Ker N^{k+1}, the rest are N W_{k+2}, and for k <= -2
the one extra term N^{-k-1} Ker N^{-k-1} is 0.  It scales N to integers
once; the levels are primitive integer rows, the post-hoc checks run on
them, and Fractions appear only in the canonical echelon bases.

Matrices are tuples of row tuples.  `mat` gives Fraction entries,
`matrix_from_json` ints and, for "p/q" strings, Fractions, and the
arithmetic helpers take int and Fraction entries alike.  `analyze`
clears denominators once, h = H / d with H an integer matrix, and from
there computes on Python ints only; a rank does not change under a
nonzero scale factor.  It builds one table of
powers H^0, H^1, ... and takes the rest from it.  The characteristic
polynomial comes from the traces tr H^k = tr(H^floor(k/2) H^ceil(k/2))
by Newton's identities, ceil(n/2) - 1 matrix products for dimension n;
Phi_o(h) up to the scale d^deg is a sum of table powers, which grows
the table past H^ceil(n/2) only when deg Phi_o needs it.  Each rank
sequence walks the row spaces, row(A^(j+1)) = row(A^j) A, multiplying
and eliminating only the rank A^j rows of the step before.  h^m, as
(integer matrix, denominator), comes from the same table: an entry, a
product of two, or for a larger m the square of h^floor(m/2).  Every
rank, echelon form, kernel and solution comes from one fraction-free
Gauss-Jordan (Bareiss) loop over integer rows, `_eliminate`; `rref`
divides by its last pivot once at the end.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction
from operator import mul

from ._record import FrozenRecord, setfield
from .cyclo import CycloProduct, DensePoly, _exquo, _phi, _utrim, cyclotomic, expand
from .errors import InputError, InternalError
from .schema import rational

__all__ = [
    "mat",
    "mat_identity",
    "mat_mul",
    "rref",
    "mat_rank",
    "kernel",
    "solve_coordinates",
    "charpoly",
    "cyclotomic_content",
    "WeightFiltration",
    "weight_filtration",
    "jordan_blocks",
    "default_power",
    "analyze",
    "delta_k",
    "matrix_from_json",
]

# ---------------------------------------------------------------------------
# exact matrices
# ---------------------------------------------------------------------------


def _check_square(rows) -> None:
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise InputError(f"matrix must be square, got row of length {len(row)} in {n} rows")


def mat(rows) -> tuple:
    """Normalize to an immutable square matrix of Fractions.

    Accepts ints, Fractions, or "p/q" strings as entries.
    """
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    _check_square(out)
    return out


def _integer_form(a) -> tuple:
    """(H, d) with a = H / d: H a square matrix of ints, d >= 1 the least
    common denominator of the entries, which are those `mat` accepts."""
    rows = tuple(
        tuple(x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row) for row in a
    )
    _check_square(rows)
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in rows), d


def mat_identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: tuple, b: tuple) -> tuple:
    n = len(a)
    bt = tuple(zip(*b)) if n else ()
    return tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in a)


def _cancel(a: tuple, d: int) -> tuple:
    """The rational matrix a / d with its entries and d divided by their gcd."""
    g = math.gcd(d, *(x for row in a for x in row))
    if g == 1:
        return a, d
    return tuple(tuple(x // g for x in row) for row in a), d // g


def _scaled_pow(powers: list, d: int, e: int) -> tuple:
    """(h / d)^e for an integer matrix h, as (integer matrix, denominator),
    from the table [h^0, h^1, ...] of h.

    A power the table holds is read off it, one below h^(2 len(powers) - 1)
    is the product of two entries, and a higher one is the square of the
    power at e // 2, taken the same way, times h when e is odd.  Each
    result is cancelled by its gcd, so the denominator stays that of the
    power itself, not d^e.
    """
    top = len(powers) - 1
    if e <= top:
        return _cancel(powers[e], d ** e)
    if e <= 2 * top:
        return _cancel(mat_mul(powers[top], powers[e - top]), d ** e)
    half, half_d = _scaled_pow(powers, d, e // 2)
    result, result_d = _cancel(mat_mul(half, half), half_d * half_d)
    if e & 1:
        result, result_d = _cancel(mat_mul(result, powers[1]), result_d * d)
    return result, result_d


def _add_scalar(a: tuple, c) -> tuple:
    """a + c I."""
    return tuple(
        tuple(x + c if i == j else x for j, x in enumerate(row)) for i, row in enumerate(a)
    )


def _integer_row(row) -> list:
    """The row times the lcm of its denominators: integer entries, same line."""
    d = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row]


def _primitive(row) -> list:
    """An integer row divided by the gcd of its entries.

    Rows that come out of an elimination carry minors of its input; the
    explicit bases below divide them out before they are reduced again.
    """
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(rows) -> tuple:
    """Fraction-free Gauss-Jordan (Bareiss) elimination of integer rows.

    Returns (reduced, pivots, last): the nonzero reduced rows, their pivot
    columns and the last pivot (1 if there is none).  Each reduced row
    holds ``last`` at its own pivot column and 0 at the other pivot
    columns, so dividing by ``last`` gives the reduced row echelon form.
    Every division is exact: after each step the entries are minors of the
    input and the previous pivot divides them (Sylvester's identity;
    Bareiss 1968).  The entry points that take Fractions, `rref`,
    `mat_rank` and `_kernel_rows`, scale each row to integers first.
    """
    work = list(rows)
    pivots = []
    last = 1
    for col in range(len(work[0]) if work else 0):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        top = work[rank]
        p = top[col]
        for r, row in enumerate(work):
            if r != rank:
                c = row[col]
                work[r] = [(p * x - c * y) // last for x, y in zip(row, top)]
        pivots.append(col)
        last = p
        if rank + 1 == len(work):
            break
    return work[: len(pivots)], tuple(pivots), last


def rref(rows) -> tuple:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    reduced, pivots, last = _eliminate([_integer_row(row) for row in rows])
    return tuple(tuple(Fraction(x, last) for x in row) for row in reduced), pivots


def mat_rank(a: tuple) -> int:
    return len(_eliminate([_integer_row(row) for row in a])[1])


def _kernel_rows(a) -> list:
    """Integer basis of {v : a v = 0} for a matrix with at least one row.

    The vector of a free column j holds the last pivot at j, 0 at the other
    free columns and -row[j] at the pivot column of each reduced row.
    """
    reduced, pivots, last = _eliminate([_integer_row(row) for row in a])
    ncols = len(a[0])
    out = []
    for j in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[j] = last
        for row, p in zip(reduced, pivots):
            v[p] = -row[j]
        out.append(_primitive(v))
    return out


def kernel(a: tuple) -> tuple:
    """Canonical basis of the right null space {v : a v = 0}.

    Works for rectangular matrices; vectors have length = column count.

    >>> kernel(((1, 2),))
    ((Fraction(1, 1), Fraction(-1, 2)),)
    """
    return rref(_kernel_rows(a))[0] if a else ()


def solve_coordinates(basis: tuple, v: tuple):
    """Coordinates of v in the given (independent) basis rows, or None."""
    if not basis:
        return () if all(x == 0 for x in v) else None
    k = len(basis)
    # Reduce the augmented system (basis^T | v): it is solvable iff the
    # last column holds no pivot.
    rows, pivots = rref(tuple(col + (x,) for col, x in zip(zip(*basis), v)))
    if pivots and pivots[-1] == k:
        return None
    coords = [Fraction(0)] * k
    for row, col in zip(rows, pivots):
        coords[col] = row[k]
    return tuple(coords)


# ---------------------------------------------------------------------------
# the power table and the characteristic polynomial (Newton's identities)
# ---------------------------------------------------------------------------


def _power_table(h: tuple) -> list:
    """[h^0, h^1] for an integer matrix h, the start of the table that
    `_grow` extends."""
    return [mat_identity(len(h)), h]


def _grow(powers: list, k: int) -> None:
    """Extend the table [h^0, h^1, ...] in place up to h^k, one product
    h^j = h^(j-1) h per missing power."""
    while len(powers) <= k:
        powers.append(mat_mul(powers[-1], powers[1]))


def _trace_of_product(a: tuple, b: tuple) -> int:
    """tr(a b), from the n^2 products of a's rows with b's columns."""
    return sum(sum(map(mul, row, col)) for row, col in zip(a, zip(*b)))


def _int_charpoly(powers: list) -> list:
    """det(tI - h) of an integer matrix h, integer coefficients low-first.

    ``powers`` is the table [h^0, h^1, ...] of h; it is extended to
    h^ceil(n/2), which takes ceil(n/2) - 1 matrix products at most.
    Newton's identities give the coefficients from the power traces
    p_k = tr h^k: with c_n = 1, k c_{n-k} = -(c_{n-k+1} p_1 + ... + c_n p_k).
    Each p_k is tr(h^floor(k/2) h^ceil(k/2)), n^2 products of entries.  The
    coefficients of an integer matrix are integers, so each division by k
    is exact; a remainder raises InternalError.
    """
    n = len(powers[0])
    _grow(powers, (n + 1) // 2)
    coeffs = [0] * n + [1]
    traces = []
    for k in range(1, n + 1):
        traces.append(_trace_of_product(powers[k // 2], powers[k - k // 2]))
        total = -sum(map(mul, coeffs[n - k + 1 :], traces))
        coeffs[n - k], remainder = divmod(total, k)
        if remainder:
            raise InternalError(
                f"Newton's identity at k = {k} leaves remainder {remainder}: "
                "the power traces do not fit an integer characteristic polynomial"
            )
    return coeffs


def charpoly(a: tuple) -> list:
    """Characteristic polynomial det(tI - a), coefficients low-first.

    With a = H / d and H integral, the coefficient of t^k is
    c_k(H) / d^(n-k).  Returns a monic list of n+1 Fractions.
    """
    h, d = _integer_form(a)
    n = len(h)
    return [Fraction(c, d ** (n - k)) for k, c in enumerate(_int_charpoly(_power_table(h)))]


# ---------------------------------------------------------------------------
# cyclotomic factorization of integer polynomials
# ---------------------------------------------------------------------------


@functools.cache
def _cyclo_coeffs(n: int) -> tuple:
    """Integer coefficients (low-first) of the n-th cyclotomic polynomial."""
    return expand(cyclotomic({n: 1})).coeffs


@functools.cache
def _orders_up_to(deg: int) -> tuple:
    """(n, phi(n)) for every order n with phi(n) <= deg, n ascending.

    phi(n) >= sqrt(n/2), so no order beyond 2*deg^2 qualifies.
    """
    return tuple((n, phi_n) for n in range(1, 2 * deg * deg + 1) if (phi_n := _phi(n)) <= deg)


def cyclotomic_content(coeffs: list):
    """Factor a monic integer polynomial as a product of cyclotomics.

    Returns (content dict {order: multiplicity}, remainder coefficients).
    The remainder is [1] exactly when the polynomial is a product of
    cyclotomic polynomials.  A coefficient is an int or an integral
    Fraction; a bool, a float or a non-integral Fraction raises InputError.
    """
    work = [c.numerator if type(c) is Fraction and c.denominator == 1 else c for c in coeffs]
    if any(type(c) is not int for c in work):
        raise InputError(f"cyclotomic content needs integer coefficients, got {coeffs}")
    work = _utrim(work)
    if not work or work[-1] != 1:
        raise InputError("cyclotomic content needs a monic integer polynomial")
    content = {}
    for n, phi_n in _orders_up_to(len(work) - 1):
        if len(work) == 1:
            break
        if phi_n <= len(work) - 1:
            cyc = _cyclo_coeffs(n)
            while True:
                quot = _exquo(work, cyc)
                if quot is None:
                    break
                work = quot
                content[n] = content.get(n, 0) + 1
    return content, work


# ---------------------------------------------------------------------------
# the weight filtration
# ---------------------------------------------------------------------------


def _nilpotent_powers(n_mat) -> list:
    """[N^0, ..., N^s] of N scaled to an integer matrix, where N^s is the
    first zero power (s is the nilpotency index), or reject N.

    A nonzero scale changes no image, kernel or nilpotency.
    """
    n_mat, _ = _integer_form(n_mat)
    powers = [mat_identity(len(n_mat))]
    while any(x for row in powers[-1] for x in row):
        if len(powers) > len(n_mat):
            raise InputError("matrix is not nilpotent")
        powers.append(mat_mul(powers[-1], n_mat))
    return powers


class WeightFiltration(FrozenRecord):
    """Increasing filtration W_k, stored as canonical echelon bases.

    ``center`` is the level the filtration is symmetric about.  ``steps``
    lists (level, basis) for every level from one below the first jump up
    to the top, where the basis spans the whole space; bases are
    reduced-echelon row tuples, so filtrations compare by equality.
    """

    __slots__ = ("center", "steps")

    def __init__(self, center: int, steps: tuple):
        setfield(self, "center", center)
        setfield(self, "steps", steps)

    def level_basis(self, k: int) -> tuple:
        """Basis of W_k (levels below the range give the zero space)."""
        result = ()
        for level, basis in self.steps:
            if level <= k:
                result = basis
            else:
                break
        return result

    def gr_dims(self) -> dict:
        """Dimensions of the graded pieces, omitting zero ones."""
        out = {}
        prev = 0
        for level, basis in self.steps:
            d = len(basis) - prev
            if d:
                out[level] = d
            prev = len(basis)
        return out


def weight_filtration(n_mat, center: int = 0) -> WeightFiltration:
    """Weight filtration of a nilpotent matrix, centered as requested.

    With s the nilpotency index, W_j = V for j >= s-1 and, top down,
    W_k = Ker N^{k+1} + N W_{k+2} for k >= 0, N W_{k+2} for k < 0.  That
    is the span of N^b Ker N^{k+2b+1} over max(0, -k) <= b < s: b = 0 gives
    Ker N^{k+1} and b >= 1 gives N W_{k+2}, whose one extra term for
    k <= -2, N^{-k-1} Ker N^{-k-1}, is 0.  The levels run from W_{-s} = 0
    to W_{s-1} = V, the center moves level k to k + center, and they are
    checked post-hoc against N(W_k) ⊆ W_{k-2} and N^k: gr_k ≅ gr_{-k}.
    """
    powers = _nilpotent_powers(n_mat)
    s = len(powers) - 1
    if s == 0:  # only the empty matrix has N^0 = 0
        return WeightFiltration(center, ((center, ()),))
    n_t = tuple(zip(*powers[1]))
    levels = {s - 1: powers[0], s: powers[0]}  # W_j = V as the identity rows
    for k in range(s - 2, -s - 1, -1):
        pieces = (*(_kernel_rows(powers[k + 1]) if k >= 0 else ()), *mat_mul(levels[k + 2], n_t))
        levels[k] = list(map(_primitive, _eliminate(pieces)[0]))
    steps = tuple((k + center, levels[k]) for k in range(-s, s))
    _assert_weight_properties(powers, WeightFiltration(center, steps))
    return WeightFiltration(center, tuple((k, rref(rows)[0]) for k, rows in steps))


def _assert_weight_properties(powers: list, filt: WeightFiltration):
    """Check N(W_k) ⊆ W_{k-2} and that N^k: gr_k -> gr_{-k} is bijective.

    ``powers`` are those of a nonzero multiple of N, and the steps of
    ``filt`` may hold any independent rows spanning each level.  Each
    inclusion U ⊆ W is one rank: that of W's rows stacked on U's.
    N^k(W_k) ⊆ W_{-k} needs no check of its own: it is the composite of
    the k inclusions N(W_j) ⊆ W_{j-2} checked first.
    """
    c = filt.center
    n_t = tuple(zip(*powers[1]))
    for level, basis in filt.steps:
        lower = filt.level_basis(level - 2)
        if mat_rank((*lower, *mat_mul(basis, n_t))) != len(lower):
            raise InternalError(
                f"filtration property N(W_{level}) ⊆ W_{level - 2} fails"
            )
    dims = filt.gr_dims()
    for level, d in dims.items():
        k = level - c
        if dims.get(c - k, 0) != d:
            raise InternalError(f"gr dimensions asymmetric at level {level}")
        if k <= 0:
            continue
        mapped = mat_mul(filt.level_basis(level), tuple(zip(*powers[k])))
        low_below = filt.level_basis(c - k - 1)
        # rank of the induced map gr_k -> gr_{-k}
        induced_rank = mat_rank((*mapped, *low_below)) - len(low_below)
        if induced_rank != d:
            raise InternalError(
                f"N^{k} does not induce an isomorphism gr_{k} -> gr_{-k}"
            )


def _rank_sequence(a: tuple, floor: int) -> tuple:
    """rank a^0, rank a^1, ... of an integer matrix a, until the rank
    reaches floor or stops dropping.

    The row space of a^(j+1) is that of a^j times a.  So each step takes
    the r_j primitive echelon rows spanning row(a^j), multiplies them by a
    and eliminates them: r_j n^2 products of entries and r_j rows, where
    a^(j+1) itself would cost n^3 and an n-row elimination.
    """
    ranks = [len(a)]
    reduced = None
    while ranks[-1] > floor and (len(ranks) < 2 or ranks[-1] < ranks[-2]):
        rows = a if reduced is None else mat_mul([_primitive(row) for row in reduced], a)
        reduced = _eliminate(rows)[0]
        ranks.append(len(reduced))
    return tuple(ranks)


def _block_counts(ranks: tuple, width: int) -> dict:
    """{s: number of Jordan blocks of size s} from a rank sequence.

    Each block of size >= j drops rank a^{j-1} - rank a^j by ``width``.
    """
    at_least = [(r - s) // width for r, s in zip(ranks, ranks[1:])] + [0]
    return {
        size: at_least[size - 1] - at_least[size]
        for size in range(1, len(at_least))
        if at_least[size - 1] != at_least[size]
    }


def jordan_blocks(n_mat) -> tuple:
    """Jordan block sizes of a nilpotent matrix, descending.

    The number of blocks of size >= j is rank(N^{j-1}) - rank(N^j).
    """
    return _nilpotent_blocks(_integer_form(n_mat)[0])  # the same ranks, scaled to integers


def _nilpotent_blocks(n_mat: tuple) -> tuple:
    """`jordan_blocks` of a nilpotent integer matrix."""
    dim = len(n_mat)
    ranks = _rank_sequence(n_mat, 0)
    if ranks[-1]:
        raise InputError("matrix is not nilpotent")
    counts = _block_counts(ranks, 1)
    out = tuple(sorted((s for s, c in counts.items() for _ in range(c)), reverse=True))
    if sum(out) != dim:
        raise InternalError(f"block sizes {out} do not sum to dimension {dim}")
    return out


# ---------------------------------------------------------------------------
# level polynomials of a quasi-unipotent automorphism
# ---------------------------------------------------------------------------


def _scaled_poly_at(coeffs, powers: list, d: int) -> tuple:
    """d^deg p(h / d) for an integer matrix h and p given by low-first
    integer coefficients c_i: the integer matrix sum_i c_i d^(deg-i) h^i.

    It combines the powers in the table [h^0, h^1, ...] of h, extended to
    h^deg if it is shorter; the sum itself takes no matrix product.
    """
    deg = len(coeffs) - 1
    _grow(powers, deg)
    weights, terms = zip(*((c * d ** (deg - i), powers[i]) for i, c in enumerate(coeffs) if c))
    return tuple(
        tuple([sum(map(mul, weights, entries)) for entries in zip(*rows)]) for rows in zip(*terms)
    )


def _quasi_unipotent_content(powers: list, d: int) -> tuple:
    """Cyclotomic content of charpoly(h / d) and the lcm of its orders, or
    reject h / d; ``powers`` is the table [h^0, h^1, ...] of the integer
    matrix h.  Its charpoly is integral when d^(n-k) divides c_k(h)."""
    n = len(powers[0])
    scales = [d ** (n - k) for k in range(n + 1)]
    coeffs = _int_charpoly(powers)
    if any(c % s for c, s in zip(coeffs, scales)):
        raise InputError(
            "matrix is not quasi-unipotent: characteristic polynomial is not integral"
        )
    content, remainder = cyclotomic_content([c // s for c, s in zip(coeffs, scales)])
    if len(remainder) > 1:
        raise InputError(
            f"matrix is not quasi-unipotent: non-cyclotomic factor {DensePoly(remainder)}"
        )
    return content, math.lcm(*content)


def default_power(h) -> int:
    """The default power m for delta_k: lcm of the cyclotomic orders."""
    h, d = _integer_form(h)
    return _quasi_unipotent_content(_power_table(h), d)[1]


def analyze(h, m: int = None) -> dict:
    """Jordan census of a quasi-unipotent automorphism h, as the values of
    the `weightfilt` report, {"m", "jordan_blocks", "gr_dims", "delta"}:
    ``m`` is the power with h^m unipotent, by default the lcm of the
    cyclotomic orders in charpoly(h); ``jordan_blocks`` the Jordan block
    sizes of h over C, which are those of N = I - h^m, descending;
    ``gr_dims`` the graded dimensions {level: dim} of N's weight
    filtration centered at 0, where a block of size s fills levels
    -(s-1), -(s-3), ..., s-1; ``delta`` the nonzero level polynomials
    {k: Delta^[k]}, k ascending.

    Factors charpoly(h) into cyclotomics once, checks that charpoly(h^m)
    is a power of t-1 -- it is prod (t - lambda^m), so exactly when every
    order divides m -- and for each order o counts Jordan blocks from the
    rank sequence of Phi_o(h): the blocks of size >= j at a primitive o-th
    root number (rank Phi_o(h)^{j-1} - rank Phi_o(h)^j) / phi(o).
    Galois-conjugate roots carry the same blocks, so each stands for
    phi(o) blocks over C, and Delta^[k] is the product of Phi_o over the
    blocks of size k+1 at one root.
    """
    h, d = _integer_form(h)  # h / d is the automorphism
    n = len(h)
    powers = _power_table(h)
    content, default_m = _quasi_unipotent_content(powers, d)
    if m is None:
        m = default_m
    elif m < 1:
        raise InputError(f"power m must be >= 1, got {m}")
    if any(m % order for order in content):
        raise InputError(
            f"m = {m} does not work: characteristic polynomial of h^{m} "
            "is not a power of t-1"
        )
    ranks, blocks, sizes, levels = {}, {}, [], {}
    for order, mult in content.items():
        width = _phi(order)
        phi_h = _scaled_poly_at(_cyclo_coeffs(order), powers, d)
        ranks[order] = _rank_sequence(phi_h, n - mult * width)
        blocks[order] = _block_counts(ranks[order], width)
        for size, count in blocks[order].items():
            sizes += [size] * (count * width)
            levels.setdefault(size - 1, {})[order] = count
    sizes = tuple(sorted(sizes, reverse=True))
    power, power_d = _scaled_pow(powers, d, m)
    # power_d (I - h^m) has the Jordan blocks of I - h^m
    _assert_census(content, ranks, blocks, sizes,
                   _add_scalar(tuple(tuple(-x for x in row) for row in power), power_d))
    gr_dims = Counter(level for size in sizes for level in range(1 - size, size, 2))
    return {
        "m": m,
        "jordan_blocks": sizes,
        "gr_dims": dict(sorted(gr_dims.items())),
        "delta": {k: cyclotomic(levels[k]) for k in sorted(levels)},
    }


def _assert_census(content: dict, ranks: dict, blocks: dict, sizes: tuple, n_mat: tuple):
    """Check the rank sequences against the content and the pooled block
    sizes against the integer matrix n_mat, a nonzero multiple of
    N = I - h^m."""
    for order, seq in ranks.items():
        width = _phi(order)
        drops = [r - s for r, s in zip(seq, seq[1:])]
        if any(d < 0 or d % width for d in drops) or any(
            d < e for d, e in zip(drops, drops[1:])
        ):
            raise InternalError(
                f"rank sequence {seq} of Phi_{order}(h) is not a block census"
            )
        filled = sum(size * count for size, count in blocks[order].items())
        if filled != content[order]:
            raise InternalError(
                f"blocks at order {order} fill {filled}, "
                f"but Phi_{order} has multiplicity {content[order]}"
            )
    if sizes != _nilpotent_blocks(n_mat):
        raise InternalError(
            f"census blocks {sizes} differ from the Jordan blocks of I - h^m"
        )


def delta_k(h, k: int, m: int = None) -> CycloProduct:
    """The level-k polynomial of a quasi-unipotent automorphism h.

    Delta^[k] = prod_o Phi_o^{c(o, k+1)}, where c(o, s) is the number of
    Jordan blocks of size s at a primitive o-th root of unity, read off
    the rank sequences of Phi_o(h) by `analyze`.  Its degree is the
    number of Jordan blocks of h of size k+1, and its roots are those
    blocks' eigenvalues; equivalently it is the characteristic
    polynomial of h on the level-k primitive subquotient of the weight
    filtration of N = I - h^m.  m defaults to the lcm of the cyclotomic
    orders in the characteristic polynomial; a supplied m must make the
    characteristic polynomial of h^m a power of t-1.
    """
    if k < 0:
        raise InputError(f"level k must be >= 0, got {k}")
    return analyze(h, m)["delta"].get(k, CycloProduct({}))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def matrix_from_json(data) -> tuple:
    """The square matrix of a document that `schema.validate` accepted
    against schemas/matrix.schema.json: rows of JSON integers and strings
    "p" or "p/q" of decimal digits, read as ints or, for "p/q", Fractions.
    """
    rows = tuple(tuple(rational(x, i, j) for j, x in enumerate(row)) for i, row in enumerate(data))
    _check_square(rows)
    return rows

