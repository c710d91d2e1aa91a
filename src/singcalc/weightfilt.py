"""Jordan structure of quasi-unipotent automorphisms, over exact rationals.

For a quasi-unipotent automorphism h, `analyze` factors charpoly(h) into
cyclotomic polynomials Phi_o and counts Jordan blocks from the rank
sequence of each Phi_o(h): the blocks of size >= j at a primitive o-th
root of unity number (rank Phi_o(h)^{j-1} - rank Phi_o(h)^j) / phi(o).
From that census come the level polynomials Delta^[k] (the product of
Phi_o over the blocks of size k+1, so deg Delta^[k] counts those blocks
and its roots are their eigenvalues), the Jordan blocks of N = I - h^m
and the graded dimensions of N's weight filtration.

The weight filtration itself, centered at 0, is the unique increasing
filtration W with N(W_k) contained in W_{k-2} such that N^k induces
isomorphisms gr_k -> gr_{-k}; `weight_filtration` builds explicit bases
for it by exact row reduction.

All matrices are tuples of tuples of Fraction; all arithmetic is exact,
and `rref` is the one elimination loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycloDivisor, CycloProduct, DensePoly, _phi, expand, root_multiplicity
from .errors import InputError, InternalError

# ---------------------------------------------------------------------------
# exact matrices
# ---------------------------------------------------------------------------


def mat(rows) -> tuple:
    """Normalize to an immutable square matrix of Fractions.

    Accepts ints, Fractions, or "p/q" strings as entries.
    """
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    n = len(out)
    for row in out:
        if len(row) != n:
            raise InputError(f"matrix must be square, got row of length {len(row)} in {n} rows")
    return out


def mat_identity(n: int) -> tuple:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: tuple, b: tuple) -> tuple:
    n = len(a)
    bt = tuple(zip(*b)) if n else ()
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_sub(a: tuple, b: tuple) -> tuple:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_pow(a: tuple, e: int) -> tuple:
    n = len(a)
    result = mat_identity(n)
    base = a
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


def _add_scalar(a: tuple, c) -> tuple:
    """a + c I."""
    return tuple(
        tuple(x + c if i == j else x for j, x in enumerate(row)) for i, row in enumerate(a)
    )


def mat_vec(a: tuple, v: tuple) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def rref(rows) -> tuple:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = work[rank][col]
        work[rank] = [x / inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
    return tuple(tuple(r) for r in work[:rank]), tuple(pivots)


def span(rows) -> tuple:
    """Canonical (echelon) basis of the row span."""
    return rref(rows)[0]


def mat_rank(a: tuple) -> int:
    return len(span(a))


def kernel(a: tuple) -> tuple:
    """Canonical basis of the right null space {v : a v = 0}.

    Works for rectangular matrices; vectors have length = column count.
    """
    if not a:
        return ()
    ncols = len(a[0])
    basis_rows, pivots = rref(a)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    out = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for row, p in zip(basis_rows, pivots):
            v[p] = -row[j]
        out.append(tuple(v))
    return span(out)


def image(a: tuple) -> tuple:
    """Canonical basis of the column space, as row vectors."""
    return span(tuple(zip(*a))) if a else ()


def subspace_intersect(u: tuple, v: tuple) -> tuple:
    """Intersection of two row spans."""
    if not u or not v:
        return ()
    stacked = tuple(u) + tuple(v)
    # (a, b) with a*u + b*v = 0  <=>  (a, b) in the left null space of the
    # stacked matrix; then a*u runs over the intersection.
    left_null = kernel(tuple(zip(*stacked)))
    out = []
    nu = len(u)
    dim = len(u[0])
    for coeffs in left_null:
        w = [Fraction(0)] * dim
        for c, row in zip(coeffs[:nu], u):
            for i, x in enumerate(row):
                w[i] += c * x
        out.append(tuple(w))
    return span(out)


def in_span(v: tuple, basis: tuple) -> bool:
    """Whether v lies in the span of the (independent) basis rows."""
    return len(span(tuple(basis) + (tuple(v),))) == len(basis)


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
# characteristic polynomial (exact, Faddeev-LeVerrier)
# ---------------------------------------------------------------------------


def charpoly(a: tuple) -> list:
    """Characteristic polynomial det(tI - a), coefficients low-first.

    Faddeev-LeVerrier: with M_0 = 0 and c_n = 1, M_k = a M_{k-1} + c_{n-k+1} I
    and c_{n-k} = -tr(a M_k) / k.  Exact over Fraction; returns a monic
    list of length n+1.
    """
    n = len(a)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    am = tuple((Fraction(0),) * n for _ in range(n))  # a M_0
    for k in range(1, n + 1):
        am = mat_mul(a, _add_scalar(am, coeffs[n - k + 1]))
        coeffs[n - k] = -Fraction(sum(am[i][i] for i in range(n)), k)
    return coeffs


# ---------------------------------------------------------------------------
# cyclotomic factorization of integer polynomials
# ---------------------------------------------------------------------------


def _int_poly_divide(num: list, den: list):
    """Exact division of integer polynomials (low-first), or None."""
    num = list(num)
    dn = len(den) - 1
    if den[-1] != 1:
        raise InternalError("cyclotomic divisor must be monic")
    if len(num) - 1 < dn:
        return None
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dn] = c
        for j, d in enumerate(den):
            num[i - dn + j] -= c * d
    if any(x != 0 for x in num):
        return None
    return quot


def _cyclo_coeffs(n: int) -> list:
    """Integer coefficients (low-first) of the n-th cyclotomic polynomial."""
    poly = expand(CycloDivisor({n: 1}).to_product())
    return list(poly.coeffs)


def cyclotomic_content(coeffs: list):
    """Factor a monic integer polynomial as a product of cyclotomics.

    Returns (content dict {order: multiplicity}, remainder coefficients).
    The remainder is [1] exactly when the polynomial is a product of
    cyclotomic polynomials.
    """
    work = [int(c) for c in coeffs]
    while len(work) > 1 and work[-1] == 0:
        work.pop()
    if not work or work[-1] != 1:
        raise InputError("cyclotomic content needs a monic integer polynomial")
    content = {}
    deg0 = len(work) - 1
    n = 1
    # phi(n) >= sqrt(n/2), so orders beyond 2*deg^2 cannot divide.
    while len(work) > 1 and n <= 2 * deg0 * deg0 + 2:
        if _phi(n) <= len(work) - 1:
            cyc = _cyclo_coeffs(n)
            while True:
                quot = _int_poly_divide(work, cyc)
                if quot is None:
                    break
                work = quot
                content[n] = content.get(n, 0) + 1
        n += 1
    return content, work


# ---------------------------------------------------------------------------
# vector weights and the filtration
# ---------------------------------------------------------------------------

NEG_INFINITY = None  # distinguished weight of the zero vector


def _check_nilpotent(n_mat: tuple):
    n = len(n_mat)
    if any(x != 0 for row in mat_pow(n_mat, n) for x in row):
        raise InputError("matrix is not nilpotent")


@dataclass(frozen=True)
class VectorWeights:
    alpha: object  # int, or None for the zero vector
    beta: object
    gamma: object


def vector_weights(n_mat: tuple, v) -> VectorWeights:
    """The (alpha, beta, gamma) weights of v under a nilpotent N.

    alpha is the largest a with N^a v != 0; beta is minus the largest b
    with v in the image of N^b; gamma = alpha + beta.  The zero vector
    gets the distinguished value None (standing for minus infinity) in
    all three slots.
    """
    n_mat = mat(n_mat)
    _check_nilpotent(n_mat)
    dim = len(n_mat)
    v = tuple(Fraction(x) for x in v)
    if len(v) != dim:
        raise InputError(f"vector length {len(v)} does not match dimension {dim}")
    if all(x == 0 for x in v):
        return VectorWeights(NEG_INFINITY, NEG_INFINITY, NEG_INFINITY)
    alpha = 0
    w = v
    while True:
        w = mat_vec(n_mat, w)
        if all(x == 0 for x in w):
            break
        alpha += 1
    beta = 0
    for b in range(dim, 0, -1):
        if in_span(v, image(mat_pow(n_mat, b))):
            beta = -b
            break
    return VectorWeights(alpha, beta, alpha + beta)


@dataclass(frozen=True)
class WeightFiltration:
    """Increasing filtration W_k, stored as canonical echelon bases.

    ``steps`` lists (level, basis) for every level from one below the
    first jump up to the top; bases are reduced-echelon row tuples, so
    filtrations compare by equality.
    """

    center: int
    dimension: int
    steps: tuple  # tuple of (level, basis rows)

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

    W_k (centered at 0) is the span of the subspaces
    Im(N^b) ∩ Ker(N^{k+b+1}) over b >= max(0, -k); shifting by the center
    moves level k to k + center.  The construction is validated post-hoc
    against its two defining properties: N(W_k) ⊆ W_{k-2} and N^k
    inducing isomorphisms gr_k -> gr_{-k}.
    """
    n_mat = mat(n_mat)
    _check_nilpotent(n_mat)
    dim = len(n_mat)
    if dim == 0:
        return WeightFiltration(center, 0, ((center, ()),))

    powers = [mat_identity(dim)]
    for _ in range(dim + 1):
        powers.append(mat_mul(powers[-1], n_mat))
    images = [image(p) for p in powers]
    kernels = [kernel(p) for p in powers]

    def w_level(k: int) -> tuple:
        if k < -dim:
            return ()
        pieces = []
        for b in range(max(0, -k), dim + 1):
            depth = k + b + 1
            if depth <= 0:
                continue
            pieces.append(subspace_intersect(images[b], kernels[min(depth, dim + 1)]))
        return span([row for piece in pieces for row in piece])

    levels = {}
    for k in range(-dim, dim + 1):
        levels[k] = w_level(k)
    lo = -dim
    while lo < dim and not levels[lo]:
        lo += 1
    hi = dim
    while hi > lo and len(levels[hi - 1]) == dim:
        hi -= 1
    steps = tuple((k + center, levels[k]) for k in range(lo - 1, hi + 1))

    filt = WeightFiltration(center, dim, steps)
    _assert_weight_properties(n_mat, filt)
    return filt


def _assert_weight_properties(n_mat: tuple, filt: WeightFiltration):
    """Check N(W_k) ⊆ W_{k-2} and that N^k: gr_k -> gr_{-k} is bijective."""
    c = filt.center
    dim = filt.dimension
    for level, basis in filt.steps:
        lower = filt.level_basis(level - 2)
        for row in basis:
            if not in_span(mat_vec(n_mat, row), lower):
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
        upper = filt.level_basis(level)
        nk = mat_pow(n_mat, k)
        mapped = [mat_vec(nk, row) for row in upper]
        low_in = filt.level_basis(c - k)
        low_below = filt.level_basis(c - k - 1)
        # rank of the induced map gr_k -> gr_{-k}
        combined = span(tuple(mapped) + low_below)
        induced_rank = len(combined) - len(low_below)
        if induced_rank != d:
            raise InternalError(
                f"N^{k} does not induce an isomorphism gr_{k} -> gr_{-k}"
            )
        for row in mapped:
            if not in_span(row, low_in):
                raise InternalError(f"N^{k} image escapes W_{c - k}")


def _rank_sequence(a: tuple, floor: int) -> tuple:
    """rank a^0, rank a^1, ... until the rank reaches floor or stops dropping."""
    ranks = [len(a)]
    power = mat_identity(len(a))
    while ranks[-1] > floor and (len(ranks) < 2 or ranks[-1] < ranks[-2]):
        power = mat_mul(power, a)
        ranks.append(mat_rank(power))
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
    n_mat = mat(n_mat)
    _check_nilpotent(n_mat)
    dim = len(n_mat)
    counts = _block_counts(_rank_sequence(n_mat, 0), 1)
    out = tuple(sorted((s for s, c in counts.items() for _ in range(c)), reverse=True))
    if sum(out) != dim:
        raise InternalError(f"block sizes {out} do not sum to dimension {dim}")
    return out


# ---------------------------------------------------------------------------
# level polynomials of a quasi-unipotent automorphism
# ---------------------------------------------------------------------------


def _poly_at(coeffs, a: tuple) -> tuple:
    """The matrix p(a) for p given by low-first coefficients (Horner)."""
    n = len(a)
    out = tuple((Fraction(0),) * n for _ in range(n))
    for c in reversed(coeffs):
        out = _add_scalar(mat_mul(out, a), c)
    return out


def _quasi_unipotent_content(h: tuple) -> tuple:
    """Cyclotomic content of charpoly(h) and the lcm of its orders, or reject h."""
    coeffs = charpoly(h)
    if any(c.denominator != 1 for c in coeffs):
        raise InputError(
            "matrix is not quasi-unipotent: characteristic polynomial is not integral"
        )
    content, remainder = cyclotomic_content([int(c) for c in coeffs])
    if len(remainder) > 1:
        raise InputError(
            f"matrix is not quasi-unipotent: non-cyclotomic factor {DensePoly(remainder)}"
        )
    return content, math.lcm(*content)


def default_power(h) -> int:
    """The default power m for delta_k: lcm of the cyclotomic orders."""
    return _quasi_unipotent_content(mat(h))[1]


def _binomial_power_coeffs(n: int) -> list:
    """Coefficients of (t-1)^n, low-first."""
    return [Fraction((-1) ** (n - i) * math.comb(n, i)) for i in range(n + 1)]


@dataclass(frozen=True)
class Census:
    """Jordan census of a quasi-unipotent automorphism h, from rank sequences.

    ``content`` maps each order o to the multiplicity of Phi_o in
    charpoly(h); ``m`` is the power with h^m unipotent; ``ranks`` maps o
    to (rank Phi_o(h)^0, rank Phi_o(h)^1, ...); ``blocks`` maps o to
    {s: number of Jordan blocks of size s at one primitive o-th root of
    unity}.  Galois-conjugate roots carry the same blocks, so each one
    stands for phi(o) blocks over the complex numbers.
    """

    content: dict
    m: int
    ranks: dict
    blocks: dict

    def deltas(self) -> dict:
        """All nonzero level polynomials, {k: Delta^[k]} with k ascending."""
        levels = {}
        for order, counts in self.blocks.items():
            for size, count in counts.items():
                levels.setdefault(size - 1, {})[order] = count
        return {k: CycloDivisor(levels[k]).to_product() for k in sorted(levels)}

    def jordan_blocks(self) -> tuple:
        """Jordan block sizes of h over C, which are those of I - h^m, descending."""
        sizes = (
            size
            for order, counts in self.blocks.items()
            for size, count in counts.items()
            for _ in range(count * _phi(order))
        )
        return tuple(sorted(sizes, reverse=True))

    def gr_dims(self, center: int) -> dict:
        """Graded dimensions of the weight filtration of I - h^m.

        A block of size s fills levels center-(s-1), center-(s-3), ...,
        center+(s-1).
        """
        out = {}
        for size in self.jordan_blocks():
            for level in range(center - size + 1, center + size, 2):
                out[level] = out.get(level, 0) + 1
        return dict(sorted(out.items()))


def analyze(h, m: int = None) -> Census:
    """Jordan census of a quasi-unipotent automorphism h.

    Factors charpoly(h) into cyclotomics once, picks m (default: the lcm
    of the orders found), checks that charpoly(h^m) is a power of t-1,
    and for each order o counts Jordan blocks from the rank sequence of
    Phi_o(h): the blocks of size >= j at a primitive o-th root number
    (rank Phi_o(h)^{j-1} - rank Phi_o(h)^j) / phi(o).
    """
    h = mat(h)
    n = len(h)
    content, default_m = _quasi_unipotent_content(h)
    if m is None:
        m = default_m
    elif m < 1:
        raise InputError(f"power m must be >= 1, got {m}")
    hm = mat_pow(h, m)
    if charpoly(hm) != _binomial_power_coeffs(n):
        raise InputError(
            f"m = {m} does not work: characteristic polynomial of h^{m} "
            "is not a power of t-1"
        )
    ranks = {}
    blocks = {}
    for order, mult in content.items():
        phi_h = _poly_at(_cyclo_coeffs(order), h)
        ranks[order] = _rank_sequence(phi_h, n - mult * _phi(order))
        blocks[order] = _block_counts(ranks[order], _phi(order))
    census = Census(content, m, ranks, blocks)
    _assert_census(census, mat_sub(mat_identity(n), hm))
    return census


def _assert_census(census: Census, n_mat: tuple):
    """Check the rank sequences against the content and against N = I - h^m."""
    for order, ranks in census.ranks.items():
        width = _phi(order)
        drops = [r - s for r, s in zip(ranks, ranks[1:])]
        if any(d < 0 or d % width for d in drops) or any(
            d < e for d, e in zip(drops, drops[1:])
        ):
            raise InternalError(
                f"rank sequence {ranks} of Phi_{order}(h) is not a block census"
            )
        filled = sum(size * count for size, count in census.blocks[order].items())
        if filled != census.content[order]:
            raise InternalError(
                f"blocks at order {order} fill {filled}, "
                f"but Phi_{order} has multiplicity {census.content[order]}"
            )
    pooled = census.jordan_blocks()
    if pooled != jordan_blocks(n_mat):
        raise InternalError(
            f"census blocks {pooled} differ from the Jordan blocks of I - h^m"
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
    return delta_k_all(h, m).get(k, CycloProduct({}))


def delta_k_all(h, m: int = None) -> dict:
    """All nonzero level polynomials, {k: CycloProduct}."""
    return analyze(h, m).deltas()


def monodromy_theorem_check(h, ambient_dim: int, m: int = None) -> dict:
    """Check the bounds the monodromy theorem imposes on the levels.

    For a monodromy acting on the cohomology of an n-dimensional Milnor
    fiber: Delta^[k] = 1 for k > n, and 1 is not a root of Delta^[n].
    Returns {"ok": bool, "violations": [...]} without raising.
    """
    if ambient_dim < 0:
        raise InputError(f"ambient dimension must be >= 0, got {ambient_dim}")
    deltas = analyze(h, m).deltas()
    violations = []
    top = deltas.get(ambient_dim, CycloProduct({}))
    if root_multiplicity(top, 1) != 0:
        violations.append(
            f"1 is a root of Delta^[{ambient_dim}] "
            f"(multiplicity {root_multiplicity(top, 1)})"
        )
    for k, poly in deltas.items():
        if k > ambient_dim:
            violations.append(
                f"level {k} exceeds ambient dimension {ambient_dim} "
                f"but Delta^[{k}] = {poly} != 1"
            )
    return {"ok": not violations, "violations": violations}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def matrix_from_json(data) -> tuple:
    """Parse a JSON array of arrays of "p/q" strings (or numbers)."""
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise InputError("matrix JSON must be an array of arrays")
    try:
        return mat(data)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad matrix entry: {exc}") from exc


def matrix_to_json(a: tuple) -> list:
    return [[str(x) for x in row] for row in a]
