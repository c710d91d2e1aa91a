"""Tests for exact weight filtrations, Jordan blocks, and level polynomials."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from singcalc import weightfilt
from singcalc.cyclo import CycloProduct, cyclotomic, expand, root_multiplicity
from singcalc.errors import InputError, InternalError
from singcalc.schema import validate
from singcalc.weightfilt import (
    _assert_weight_properties,
    _cancel,
    _grow,
    _int_charpoly,
    _integer_form,
    _nilpotent_powers,
    _power_table,
    _rank_sequence,
    _scaled_poly_at,
    _scaled_pow,
    analyze,
    charpoly,
    cyclotomic_content,
    default_power,
    delta_k,
    gr_dims,
    jordan_blocks,
    kernel,
    mat,
    mat_identity,
    mat_mul,
    mat_rank,
    matrix_from_json,
    rref,
    solve_coordinates,
    weight_filtration,
)


def jordan_nilpotent(sizes):
    """Nilpotent matrix with prescribed block sizes (superdiagonal form)."""
    n = sum(sizes)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for s in sizes:
        for i in range(s - 1):
            rows[offset + i][offset + i + 1] = Fraction(1)
        offset += s
    return mat(rows)


def random_unimodular(n, rng, steps=12):
    """Integer matrix with determinant +-1, from random row operations."""
    work = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for col in range(n):
            work[i][col] += c * work[j][col]
    return mat(work)


def mat_inverse(a):
    n = len(a)
    aug = [list(a[i]) + [Fraction(1) if j == i else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return mat([row[n:] for row in aug])


def conjugate(a, p):
    return mat_mul(mat_mul(p, a), mat_inverse(p))


def identity_minus(a):
    """I - a."""
    return tuple(tuple(int(i == j) - x for j, x in enumerate(row)) for i, row in enumerate(a))


def expected_gr_dims(sizes):
    """Each size-s block fills levels s-1, s-3, ..., -(s-1)."""
    out = {}
    for s in sizes:
        for level in range(-(s - 1), s, 2):
            out[level] = out.get(level, 0) + 1
    return out


def power_by_products(a, e):
    """a^e over Fractions, as e matrix products from the identity."""
    a = mat(a)
    power = mat_identity(len(a))
    for _ in range(e):
        power = mat_mul(power, a)
    return power


def assert_census_matches_filtration(h):
    """The rank census agrees with the explicit filtration of N = I - h^m."""
    census = analyze(h)
    n_mat = identity_minus(power_by_products(h, census["m"]))
    for center in (0, 2):
        shifted = {level + center: dim for level, dim in census["gr_dims"].items()}
        assert shifted == gr_dims(weight_filtration(n_mat, center))
    assert census["jordan_blocks"] == jordan_blocks(n_mat)


def leibniz_det(a):
    """Determinant as the signed sum over all permutations."""
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def rref_by_fractions(rows):
    """Reduced row echelon form by Fraction pivoting, the reference for `rref`."""
    work = [[Fraction(x) for x in r] for r in rows]
    if not work:
        return (), ()
    pivots = []
    rank = 0
    for col in range(len(work[0])):
        pivot_row = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
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


def kernel_by_fractions(a):
    """Null-space basis from `rref_by_fractions`, one vector per free column."""
    rows, pivots = rref_by_fractions(a)
    out = []
    for j in (j for j in range(len(a[0])) if j not in pivots):
        v = [Fraction(0)] * len(a[0])
        v[j] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[j]
        out.append(tuple(v))
    return tuple(out)


def intersect_by_left_null(u, v):
    """Intersection of two row spans in Fraction arithmetic."""
    if not u or not v:
        return ()
    stacked = tuple(u) + tuple(v)
    # (a, b) with a*u + b*v = 0  <=>  (a, b) in the left null space of the
    # stacked matrix; then a*u runs over the intersection.
    left_null = kernel_by_fractions(tuple(zip(*stacked)))
    out = []
    for coeffs in left_null:
        w = [Fraction(0)] * len(u[0])
        for c, row in zip(coeffs[: len(u)], u):
            for i, x in enumerate(row):
                w[i] += c * x
        out.append(tuple(w))
    return rref_by_fractions(out)[0]


def weight_filtration_by_intersections(n_mat, center):
    """(center, steps) of the weight filtration in Fractions, the reference
    for `weight_filtration`: W_k is the span of Im N^b ∩ Ker N^{k+b+1} over
    b >= max(0, -k), and the steps run from the last zero level below the
    first jump to the first level that is the whole space."""
    dim = len(n_mat)
    if dim == 0:
        return center, ((center, ()),)
    powers = [mat_identity(dim)]
    for _ in range(dim):
        powers.append(mat_mul(powers[-1], n_mat))
    images = [rref_by_fractions(tuple(zip(*p)))[0] for p in powers]
    kernels = [kernel_by_fractions(p) for p in powers]
    levels = {}
    for k in range(-dim - 1, dim + 1):
        pieces = ()
        for b in range(max(0, -k), dim + 1):
            pieces += intersect_by_left_null(images[b], kernels[min(k + b + 1, dim)])
        levels[k] = rref_by_fractions(pieces)[0]
    lo = min(k for k, basis in levels.items() if basis)
    hi = min(k for k, basis in levels.items() if len(basis) == dim)
    return center, tuple((k + center, levels[k]) for k in range(lo - 1, hi + 1))


def random_low_rank(rng, rational, cols=None):
    """A rows x cols matrix of rank <= min(rows, cols), some rows zeroed."""
    rows = rng.randint(1, 8)
    if cols is None:
        cols = rng.randint(1, 8)
    rank = rng.randint(0, min(rows, cols))

    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4) if rational else 1)

    left = [[entry() for _ in range(rank)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(rank)]
    return tuple(
        tuple(sum((row[k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(cols))
        if rng.random() > 0.1
        else (Fraction(0),) * cols
        for row in left
    )


J3 = jordan_nilpotent([3])


# ------------------------------------------------------------- linear algebra


def test_rref_canonical():
    rows, pivots = rref(mat([[2, 4], [1, 2]]))
    assert rows == ((Fraction(1), Fraction(2)),)
    assert pivots == (0,)


def test_fraction_free_kernel_matches_fraction_pivoting():
    # rref, rank, kernel and solve_coordinates all run on the
    # fraction-free elimination; Fraction pivoting is the reference
    rng = random.Random(5)
    for case in range(600):
        a = random_low_rank(rng, rational=case % 2 == 1)
        rows, pivots = rref_by_fractions(a)
        assert rref(a) == (rows, pivots)
        assert mat_rank(a) == len(rows)
        # the null space: annihilated by a, of the right dimension, canonical
        null = kernel(a)
        assert len(null) == len(a[0]) - len(rows)
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a for v in null)
        assert rref_by_fractions(null)[0] == null
        # coordinates in an independent, non-echelon basis of the row span
        basis = ()
        for row in a:
            if len(rref_by_fractions(basis + (row,))[0]) > len(basis):
                basis += (row,)
        coords = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in basis)
        v = tuple(
            sum((c * row[j] for c, row in zip(coords, basis)), Fraction(0)) for j in range(len(a[0]))
        )
        assert solve_coordinates(basis, v) == coords
        w = tuple(Fraction(rng.randint(-3, 3)) for _ in v)
        inside = len(rref_by_fractions(basis + (w,))[0]) == len(basis)
        assert (solve_coordinates(basis, w) is not None) == inside


def test_integer_kernel_matches_fraction_reference():
    # kernel builds an integer null space on the fraction-free elimination;
    # the free-column construction in Fractions is the reference
    rng = random.Random(17)
    for case in range(600):
        a = random_low_rank(rng, rational=case % 2 == 1)
        null = kernel(a)
        assert null == rref_by_fractions(kernel_by_fractions(a))[0]
        assert rref_by_fractions(null)[0] == null
        assert all(sum(x * y for x, y in zip(row, w)) == 0 for row in a for w in null)
    assert kernel(()) == ()


def test_kernel_rectangular():
    # x + y + z = 0 has a 2-dimensional solution space.
    a = ((Fraction(1), Fraction(1), Fraction(1)),)
    k = kernel(a)
    assert len(k) == 2
    for v in k:
        assert sum(v) == 0


def test_solve_coordinates():
    basis = rref([(Fraction(1), Fraction(1), Fraction(0)), (Fraction(0), Fraction(1), Fraction(1))])[0]
    v = tuple(2 * x - 3 * y for x, y in zip(*basis))
    assert solve_coordinates(basis, v) == (Fraction(2), Fraction(-3))
    assert solve_coordinates(basis, (Fraction(0), Fraction(0), Fraction(1))) is None
    assert solve_coordinates((), (Fraction(0), Fraction(0))) == ()


def test_charpoly_2x2():
    assert charpoly(mat([[2, 1], [1, 2]])) == [Fraction(3), Fraction(-4), Fraction(1)]


def test_charpoly_empty():
    assert charpoly(()) == [Fraction(1)]


def test_charpoly_companion_random():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(n)] + [Fraction(1)]
        comp = [[Fraction(0)] * n for _ in range(n)]
        for i in range(1, n):
            comp[i][i - 1] = Fraction(1)
        for i in range(n):
            comp[i][n - 1] = -coeffs[i]
        assert charpoly(mat(comp)) == coeffs


def test_charpoly_dense_random_vs_leibniz():
    # det(xI - a) at n+1 integer nodes pins a degree-n polynomial.
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = mat(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        )
        coeffs = charpoly(a)
        assert len(coeffs) == n + 1 and coeffs[-1] == 1
        for x in range(n + 1):
            shifted = [[(x if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
            assert sum(c * x**i for i, c in enumerate(coeffs)) == leibniz_det(shifted)


def faddeev_leverrier(h):
    """det(tI - h) of an integer matrix, low-first: with M_0 = 0 and c_n = 1,
    M_k = h M_{k-1} + c_{n-k+1} I and c_{n-k} = -tr(h M_k) / k."""
    n = len(h)
    coeffs = [0] * n + [1]
    hm = [[0] * n for _ in range(n)]  # h M_0
    for k in range(1, n + 1):
        shifted = [[x + (coeffs[n - k + 1] if i == j else 0) for j, x in enumerate(row)]
                   for i, row in enumerate(hm)]
        hm = mat_mul(h, shifted)
        trace = sum(hm[i][i] for i in range(n))
        assert trace % k == 0
        coeffs[n - k] = -trace // k
    return coeffs


def seeded_integer_matrices(rng):
    """Integer matrices of dimension 0-10: dense ones, singular ones (one row
    a combination of two others) and nilpotent ones (strictly upper
    triangular, conjugated by a unimodular matrix)."""
    for n in range(11):
        for kind in ("dense", "singular", "nilpotent"):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if kind == "singular" and n >= 3:
                rows[0] = [2 * x - y for x, y in zip(rows[1], rows[2])]
            if kind == "nilpotent":
                rows = [[x * (j > i) for j, x in enumerate(row)] for i, row in enumerate(rows)]
                rows = conjugate(mat(rows), random_unimodular(n, rng)) if n else ()
            yield kind, tuple(tuple(int(x) for x in row) for row in rows)


def test_charpoly_by_newton_matches_faddeev_leverrier():
    rng = random.Random(22)
    for kind, h in seeded_integer_matrices(rng):
        powers = _power_table(h)
        coeffs = _int_charpoly(powers)
        assert coeffs == faddeev_leverrier(h), (kind, h)
        # the table stops at h^ceil(n/2): ceil(n/2) - 1 products
        assert len(powers) == max(2, (len(h) + 1) // 2 + 1)
        if kind == "nilpotent":
            assert coeffs == [0] * len(h) + [1]
        if kind == "singular" and len(h) >= 3:
            assert coeffs[0] == 0


def test_newton_remainder_raises_internal_error(monkeypatch):
    real = weightfilt._trace_of_product
    calls = []

    def corrupt(a, b):
        calls.append(None)
        return real(a, b) + (len(calls) == 2)  # p_2 one off: 2 c_{n-2} is odd

    monkeypatch.setattr(weightfilt, "_trace_of_product", corrupt)
    with pytest.raises(InternalError, match="Newton's identity at k = 2"):
        _int_charpoly(_power_table(((1, 1), (0, 1))))


def horner(coeffs, h, d):
    """d^deg p(h / d) by Horner's rule: out = out h + c_i d^(deg-i) I."""
    n = len(h)
    deg = len(coeffs) - 1
    out = tuple((0,) * n for _ in range(n))
    for i in range(deg, -1, -1):
        out = tuple(
            tuple(x + (coeffs[i] * d ** (deg - i) if r == c else 0) for c, x in enumerate(row))
            for r, row in enumerate(mat_mul(out, h))
        )
    return out


def test_scaled_poly_at_matches_horner():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(0, 7)
        h = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        d = rng.randint(1, 4)
        coeffs = [rng.choice([0, 0, 1, -1, rng.randint(-5, 5)]) for _ in range(rng.randint(0, 6))]
        coeffs.append(rng.choice([1, -1, 2]))
        powers = _power_table(h)
        assert _scaled_poly_at(coeffs, powers, d) == horner(coeffs, h, d)
        assert len(powers) == max(2, len(coeffs))  # only the powers it combines


def direct_sum(blocks):
    """The block diagonal matrix of the given square blocks."""
    n = sum(len(b) for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[offset + i][offset : offset + len(b)] = row
        offset += len(b)
    return mat(rows)


def ranks_of_powers(a, floor):
    """rank a^0, rank a^1, ... from explicit powers, with `_rank_sequence`'s
    stopping rule: until the rank reaches floor or stops dropping."""
    ranks = [len(a)]
    power = mat_identity(len(a))
    while ranks[-1] > floor and (len(ranks) < 2 or ranks[-1] < ranks[-2]):
        power = mat_mul(power, a)
        ranks.append(mat_rank(power))
    return tuple(ranks)


def test_rank_sequence_matches_ranks_of_explicit_powers():
    # nilpotent Jordan blocks beside an invertible block, conjugated by a
    # matrix of determinant +-2 or +-3: rational entries, d > 1
    rng = random.Random(24)
    rational = 0
    for n in range(1, 13):
        for _ in range(3):
            sizes, left = [], rng.randint(1, n)
            while left:
                sizes.append(rng.randint(1, left))
                left -= sizes[-1]
            invertible = n - sum(sizes)
            unit = random_unimodular(invertible, rng) if invertible else ()
            blocks = (jordan_nilpotent(sizes), unit)
            p = [list(row) for row in random_unimodular(n, rng)]
            row = rng.randrange(n)
            p[row] = [rng.choice([2, -2, 3, -3]) * x for x in p[row]]
            a = conjugate(direct_sum(blocks), mat(p))
            h, d = _integer_form(a)
            rational += d > 1
            for floor in {0, invertible}:
                assert _rank_sequence(h, floor) == ranks_of_powers(a, floor), (sizes, invertible)
    assert rational >= 25  # the rest conjugate to integers, the zero matrix among them


def test_matrix_json_round_trip():
    a = mat([["1/2", 3], [0, "-7/3"]])
    assert matrix_from_json([[str(x) for x in row] for row in a]) == a
    with pytest.raises(InputError):
        matrix_from_json([[1, 2], [3]])
    with pytest.raises(InputError):
        matrix_from_json([["1/0"]])
    with pytest.raises(InputError):
        matrix_from_json(validate("nope", "matrix.schema.json"))


def test_matrix_json_reads_integers_as_ints():
    # JSON integers and "p" strings are ints, "p/q" strings Fractions,
    # whether a row is all ints or mixed
    rows = matrix_from_json([[1, -2, 0], ["3", "-4", "8/2"], [5, "6/4", 7]])
    assert rows == ((1, -2, 0), (3, -4, 4), (5, Fraction(3, 2), 7))
    assert [[type(x) for x in row] for row in rows] == [
        [int, int, int],
        [int, int, Fraction],
        [int, Fraction, int],
    ]
    with pytest.raises(InputError, match=r"\$\[0\]\[1\]"):
        matrix_from_json(validate([[1, True], [0, 1]], "matrix.schema.json"))
    with pytest.raises(InputError, match=r"\$\[1\]\[0\]"):
        matrix_from_json(validate([[1, 0], [1.0, 1]], "matrix.schema.json"))


def test_integer_form_of_int_rows_is_that_of_their_fractions():
    rng = random.Random(23)
    for n in range(1, 7):
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        h, d = _integer_form([[Fraction(x) for x in row] for row in a])
        assert _integer_form(a) == (h, d) == (tuple(map(tuple, a)), 1)
        assert all(type(x) is int for row in h for x in row)
    assert _integer_form([[Fraction(1, 2), 1], [0, Fraction(-2, 3)]]) == (((3, 6), (0, -4)), 6)
    with pytest.raises(InputError):
        _integer_form([[1, 2], [3]])


# ---------------------------------------------------------- weight filtration


def test_filtration_single_block():
    assert gr_dims(weight_filtration(J3, 0)) == {-2: 1, 0: 1, 2: 1}


def test_filtration_zero_matrix():
    f = weight_filtration(mat([[0, 0], [0, 0]]), 0)
    assert gr_dims(f) == {0: 2}
    assert f.get(0, ()) == rref([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))])[0]
    assert f.get(-1, ()) == ()


def test_filtration_blocks_2_1():
    f = weight_filtration(jordan_nilpotent([2, 1]), 0)
    assert gr_dims(f) == {-1: 1, 0: 1, 1: 1}


def test_filtration_center_shift():
    f = weight_filtration(J3, 5)
    assert gr_dims(f) == {3: 1, 5: 1, 7: 1}
    # levels center - s ... center + s - 1, with s = 3 for J3
    assert list(f) == [2, 3, 4, 5, 6, 7]


def test_filtration_monotone():
    f = weight_filtration(jordan_nilpotent([3, 2, 2, 1]), 0)
    prev = -1
    for basis in f.values():
        assert len(basis) >= prev
        prev = len(basis)
    assert prev == 8


def test_filtration_census_random_conjugates():
    # The graded dimensions must reproduce the block structure: a size-s
    # block contributes one dimension at each level s-1, s-3, ..., -(s-1).
    # Conjugation hides the block form; the filtration recovers it.  The
    # internal checks also re-assert N(W_k) <= W_{k-2} and the gr_k/gr_{-k}
    # isomorphisms on every one of these matrices.
    rng = random.Random(42)
    for _ in range(40):
        sizes = []
        remaining = rng.randint(1, 7)
        while remaining:
            s = rng.randint(1, remaining)
            sizes.append(s)
            remaining -= s
        n = jordan_nilpotent(sizes)
        p = random_unimodular(len(n), rng)
        conj = conjugate(n, p)
        f = weight_filtration(conj, 0)
        assert gr_dims(f) == expected_gr_dims(sizes), sizes
        assert jordan_blocks(conj) == tuple(sorted(sizes, reverse=True))
        assert_census_matches_filtration(identity_minus(conj))


def test_filtration_matches_intersection_oracle():
    # the reference's intersections, checked on one known case: a*(0,1,1) +
    # b*(1,0,-1) lies in the plane z = 0 iff a = b
    u = rref([(1, 0, 0), (0, 1, 0)])[0]
    v = rref([(0, 1, 1), (1, 0, -1)])[0]
    assert intersect_by_left_null(u, v) == ((1, 1, 0),)
    # N = 0, dimension 0, then conjugates of random Jordan forms by
    # rational matrices, at centers -2..2
    rng = random.Random(23)
    cases = [(mat([[0, 0], [0, 0]]), 1), ((), -1)]
    for case in range(200):
        sizes = []
        remaining = rng.randint(1, 6)
        while remaining:
            sizes.append(rng.randint(1, remaining))
            remaining -= sizes[-1]
        p = [list(row) for row in random_unimodular(sum(sizes), rng)]
        row, factor = rng.randrange(len(p)), Fraction(rng.choice([1, -1, 2, -3]), rng.randint(1, 3))
        p[row] = [x * factor for x in p[row]]
        cases.append((conjugate(jordan_nilpotent(sizes), mat(p)), case % 5 - 2))
    for n_mat, center in cases:
        f = weight_filtration(n_mat, center)
        assert (center, tuple(f.items())) == weight_filtration_by_intersections(n_mat, center)


def test_filtration_levels_are_consecutive_and_canonical():
    # what a `.get(k, ())` lookup relies on: the levels run center - s ...
    # center + s - 1 with no gap, s the nilpotency index, so any level
    # below them is the zero space; the first basis is empty, the last
    # spans V, and each is in reduced echelon form.  The graded dimensions
    # are the census of the Jordan blocks, shifted by the center.
    rng = random.Random(34)
    cases = [(), mat([[0, 0], [0, 0]]), J3]
    for _ in range(30):
        sizes = []
        remaining = rng.randint(1, 6)
        while remaining:
            sizes.append(rng.randint(1, remaining))
            remaining -= sizes[-1]
        cases.append(conjugate(jordan_nilpotent(sizes), random_unimodular(sum(sizes), rng)))
    for n_mat in cases:
        blocks = jordan_blocks(n_mat)
        s = max(blocks, default=0)
        for center in (-3, 0, 2, 5):
            f = weight_filtration(n_mat, center)
            assert list(f) == (list(range(center - s, center + s)) or [center])
            bases = list(f.values())
            assert len(bases[0]) == (0 if s else len(n_mat)) and len(bases[-1]) == len(n_mat)
            for basis in bases:
                assert rref(basis)[0] == basis and all(type(x) is Fraction for row in basis for x in row)
            assert f.get(center - s - 1, ()) == ()
            census = {}
            for size in blocks:
                for level in range(center + 1 - size, center + size, 2):
                    census[level] = census.get(level, 0) + 1
            assert list(gr_dims(f).items()) == sorted(census.items())


E1, E2, E3 = ((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),)
ZERO2 = mat([[0, 0], [0, 0]])


@pytest.mark.parametrize(
    "n_mat, steps, message",
    [
        # N e3 = e2 leaves W_0 = <e1, e3> for e2, outside W_-2 = <e1>
        (J3, [(-3, ()), (-2, E1), (-1, E1), (0, E1 + E3), (1, E1 + E3), (2, E1 + E2 + E3)],
         "filtration property N(W_0) ⊆ W_-2 fails"),
        (ZERO2, [(-2, ()), (-1, ((1, 0),)), (0, ((1, 0), (0, 1)))],
         "gr dimensions asymmetric at level -1"),
        (ZERO2, [(-2, ()), (-1, ((1, 0),)), (0, ((1, 0),)), (1, ((1, 0), (0, 1)))],
         "N^1 does not induce an isomorphism gr_1 -> gr_-1"),
    ],
)
def test_filtration_self_check_fires(n_mat, steps, message):
    filt = dict(steps)
    with pytest.raises(InternalError) as err:
        _assert_weight_properties(_nilpotent_powers(n_mat), filt)
    assert str(err.value) == message


# one J2 block at eigenvalue 1: Phi_1 = t - 1 twice in charpoly, rank
# sequence (2, 1, 0) of h - I, and I - h^m a nonzero nilpotent
J2_CENSUS = ({1: 2}, {1: (2, 1, 0)}, {1: {2: 1}}, (2,), ((0, 1), (0, 0)))


@pytest.mark.parametrize(
    "changes, message",
    [
        ({1: {1: (2, 0, 1)}}, "rank sequence (2, 0, 1) of Phi_1(h) is not a block census"),
        ({1: {1: (3, 2, 0)}}, "rank sequence (3, 2, 0) of Phi_1(h) is not a block census"),
        ({0: {1: 3}}, "blocks at order 1 fill 2, but Phi_1 has multiplicity 3"),
        ({3: (1, 1)}, "census blocks (1, 1) differ from the Jordan blocks of I - h^m"),
        # two faults: the rank sequence is checked before the content
        ({0: {1: 3}, 1: {1: (2, 0, 1)}}, "rank sequence (2, 0, 1) of Phi_1(h) is not a block census"),
        # the content before the pooled sizes
        ({0: {1: 3}, 3: (1, 1)}, "blocks at order 1 fill 2, but Phi_1 has multiplicity 3"),
    ],
)
def test_census_self_check_fires(changes, message):
    args = list(J2_CENSUS)
    weightfilt._assert_census(*args)  # the census itself passes
    for index, value in changes.items():
        args[index] = value
    with pytest.raises(InternalError) as err:
        weightfilt._assert_census(*args)
    assert str(err.value) == message


def test_filtration_rejects_non_nilpotent():
    with pytest.raises(InputError, match="nilpotent"):
        weight_filtration(mat([[0, 1], [1, 0]]), 0)


# -------------------------------------------------------------- jordan blocks


def test_blocks_single():
    assert jordan_blocks(J3) == (3,)


def test_blocks_zero():
    assert jordan_blocks(mat([[0] * 4] * 4)) == (1, 1, 1, 1)


def test_blocks_2_1():
    assert jordan_blocks(jordan_nilpotent([2, 1])) == (2, 1)


def test_blocks_empty():
    assert jordan_blocks(()) == ()


@pytest.mark.parametrize("rows", [[[0, 1], [1, 0]], [[1]]], ids=["swap", "identity-1"])
def test_blocks_rejects_non_nilpotent(rows):
    with pytest.raises(InputError, match="nilpotent"):
        jordan_blocks(mat(rows))


# ------------------------------------------------------ cyclotomic content


def test_content_phi6():
    content, rem = cyclotomic_content([1, -1, 1])
    assert content == {6: 1}
    assert rem == [1]


def test_content_mixed():
    # (t-1)^2 (t+1) = t^3 - t^2 - t + 1
    content, rem = cyclotomic_content([1, -1, -1, 1])
    assert content == {1: 2, 2: 1}
    assert rem == [1]


def test_content_non_cyclotomic():
    content, rem = cyclotomic_content([-2, 0, 1])  # t^2 - 2
    assert content == {}
    assert rem == [-2, 0, 1]


def test_content_takes_integral_fractions():
    # charpoly returns Fractions
    content, rem = cyclotomic_content([Fraction(1), Fraction(-1), Fraction(1)])
    assert (content, rem) == ({6: 1}, [1])
    assert all(type(c) is int for c in cyclotomic_content([Fraction(-2), 0, 1])[1])


@pytest.mark.parametrize(
    "coeffs", [[Fraction(-3, 2), 1], [True, 1], [-1.0, 1]], ids=["fraction", "bool", "float"]
)
def test_content_rejects_non_integers(coeffs):
    # t - 3/2 was once read as t - 1, True as 1 and -1.0 as -1
    with pytest.raises(InputError, match="integer coefficients"):
        cyclotomic_content(coeffs)


# ------------------------------------------------------------------ delta_k


def companion(coeffs):
    """Companion matrix of a monic polynomial given low-first."""
    n = len(coeffs) - 1
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Fraction(1)
    for i in range(n):
        rows[i][n - 1] = -Fraction(coeffs[i])
    return mat(rows)


def int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_delta_k_order6_companion():
    h = companion([1, -1, 1])  # t^2 - t + 1
    assert default_power(h) == 6
    big, d = _integer_form(h)
    assert _scaled_pow(_power_table(big), d, 6) == (mat_identity(2), 1)
    out = analyze(h)["delta"]
    assert out == {0: cyclotomic({6: 1})}
    assert list(expand(out[0]).coeffs) == [1, -1, 1]


def test_delta_k_unipotent_2x2():
    h = mat([[1, 1], [0, 1]])
    out = analyze(h)["delta"]
    assert out == {1: CycloProduct({1: 1})}
    assert delta_k(h, 0).factors == ()


def test_delta_k_identity():
    h = mat_identity(3)
    assert delta_k(h, 0) == CycloProduct({1: 3})
    assert delta_k(h, 1).factors == ()


def test_delta_k_eigenvalue_minus_one():
    h = mat([[-1, 1], [0, -1]])
    out = analyze(h)["delta"]
    assert out == {1: cyclotomic({2: 1})}


def test_delta_k_overlapping_blocks():
    # J3(1) + J1(1): one block of size 3, one of size 1; the level-0
    # polynomial sees only the size-1 block even though gr_0 is
    # 2-dimensional.
    h = mat([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    out = analyze(h)["delta"]
    assert out == {0: CycloProduct({1: 1}), 2: CycloProduct({1: 1})}


def census_matrices():
    """(h, expected) for 12 conjugated direct sums of companion(Phi_o^s).

    Over the complex numbers companion(Phi_o^s) carries phi(o) Jordan
    blocks of size s with the primitive o-th roots of unity as
    eigenvalues, so Delta^[s-1] collects exactly Phi_o; ``expected`` maps
    each level to {o: multiplicity}.
    """
    rng = random.Random(3)
    for _ in range(12):
        pieces = []
        expected = {}
        dim = 0
        while dim < 6:
            o = rng.choice([1, 2, 3, 4, 6])
            s = rng.randint(1, 2)
            phi_o = list(expand(cyclotomic({o: 1})).coeffs)
            poly = [1]
            for _ in range(s):
                poly = int_poly_mul(poly, phi_o)
            pieces.append(companion(poly))
            level = s - 1
            expected[level] = expected.get(level, {})
            expected[level][o] = expected[level].get(o, 0) + 1
            dim += len(poly) - 1
        yield conjugate(direct_sum(pieces), random_unimodular(dim, rng)), expected


def test_delta_k_census_random():
    for h, expected in census_matrices():
        n = len(h)
        out = analyze(h)["delta"]
        assert_census_matches_filtration(h)
        assert out == {level: cyclotomic(orders) for level, orders in expected.items()}
        # degree bookkeeping: sum over levels of (k+1) * deg = dimension
        assert sum((k + 1) * expand(p).degree for k, p in out.items()) == n
        assert sum(expand(p).degree for p in out.values()) <= n


def test_analyze_rational_conjugates():
    # conjugating by P with det P = +-2 or +-3 puts denominators into h, which
    # analyze clears once; the census is a similarity invariant
    rng = random.Random(8)
    for h, _ in census_matrices():
        n = len(h)
        p = [list(row) for row in random_unimodular(n, rng)]
        scale = rng.choice([2, -2, 3, -3])
        row = rng.randrange(n)
        p[row] = [scale * x for x in p[row]]
        rational = conjugate(h, mat(p))
        assert any(x.denominator != 1 for r in rational for x in r)
        assert analyze(rational) == analyze(h)


def test_analyze_rational_huge_power():
    # h = -(I - N) with N = h + I and N^2 = 0, so h^m = (-1)^m (I - m N): with
    # m = 10^8 the entries of m N are integers and the power's denominator
    # cancels to 1, where scaling h^m by d^m = 2^m would not
    h = mat([["-1/2", "-1/2"], ["1/2", "-3/2"]])
    m = 10**8
    half = m // 2
    big, d = _integer_form(h)
    assert _scaled_pow(_power_table(big), d, m) == (((1 - half, half), (-half, 1 + half)), 1)
    assert analyze(h, m) == {
        "m": m, "jordan_blocks": (2,), "gr_dims": {-1: 1, 1: 1}, "delta": {1: cyclotomic({2: 1})}
    }
    # the rank sequence of Phi_2(h) = h + I, scaled to the integer matrix H + 2I
    assert _rank_sequence(_scaled_poly_at([1, 1], _power_table(big), d), 0) == (2, 1, 0)


# an integer matrix, and two rational ones with d = 2 and d = 6; the first
# rational one is quasi-unipotent, so its powers cancel to denominator 1 or 2
SCALED_POW_MATRICES = [
    [[1, 2, 0], [-1, 0, 3], [2, 1, -1]],
    [["-1/2", "-1/2"], ["1/2", "-3/2"]],
    [["1/2", 1, 0], ["-1/3", 2, "1/6"], [0, "5/3", -1]],
]


@pytest.mark.parametrize("a", SCALED_POW_MATRICES)
def test_scaled_pow_matches_repeated_products(a):
    # tables grown to H^1 .. H^4 send e = 0..40 through each branch: a
    # table entry, a product of two entries, and the square of a smaller power
    big, d = _integer_form(a)
    expected = [(mat_identity(len(big)), 1)]
    for _ in range(40):
        power, power_d = expected[-1]
        expected.append(_cancel(mat_mul(power, big), power_d * d))
    for e, (power, power_d) in enumerate(expected):
        assert power_by_products(a, e) == mat([[Fraction(x, power_d) for x in row] for row in power])
    for top in range(1, 5):
        powers = _power_table(big)
        _grow(powers, top)
        for e in range(41):
            assert _scaled_pow(powers, d, e) == expected[e], (top, e)


def test_scaled_pow_reads_a_table_power_without_a_product(monkeypatch):
    big, d = _integer_form(SCALED_POW_MATRICES[2])
    powers = _power_table(big)
    _grow(powers, 4)
    products = []

    def counting_mat_mul(a, b):
        products.append(1)
        return mat_mul(a, b)

    monkeypatch.setattr(weightfilt, "mat_mul", counting_mat_mul)
    for e, cost in [(0, 0), (1, 0), (3, 0), (4, 0), (5, 1), (8, 1), (9, 2), (10, 2), (21, 4)]:
        products.clear()
        _scaled_pow(powers, d, e)
        assert len(products) == cost, e


def test_delta_k_rejects_non_quasi_unipotent():
    with pytest.raises(InputError, match="t\\^2 -2|t\\^2-2|non-cyclotomic"):
        delta_k(mat([[0, 2], [1, 0]]), 0)  # charpoly t^2 - 2
    with pytest.raises(InputError, match="not integral"):
        delta_k(mat([["1/2"]]), 0)


def test_delta_k_rejects_bad_m():
    h = companion([1, -1, 1])  # order 6
    with pytest.raises(InputError, match="power of t-1"):
        delta_k(h, 0, m=4)
    # any multiple of 6 is fine
    assert delta_k(h, 0, m=12) == cyclotomic({6: 1})


def test_analyze_accepts_m_exactly_when_h_power_is_unipotent():
    # The independent oracle: charpoly(h^m) computed densely.
    for h, _ in census_matrices():
        n = len(h)
        t_minus_1_to_n = [Fraction((-1) ** (n - i) * math.comb(n, i)) for i in range(n + 1)]
        lcm = default_power(h)
        h_m = mat_identity(n)
        for m in range(1, 2 * lcm + 1):
            h_m = mat_mul(h_m, h)
            unipotent = charpoly(h_m) == t_minus_1_to_n
            try:
                accepted = analyze(h, m)["m"] == m
            except InputError as exc:
                assert "power of t-1" in str(exc)
                accepted = False
            assert accepted == unipotent, (m, lcm)


def test_delta_k_rejects_negative_level():
    with pytest.raises(InputError):
        delta_k(mat_identity(2), -1)


def test_monodromy_theorem_check():
    # On the cohomology of an n-dimensional Milnor fiber, Delta^[k] = 1 for
    # k > n and 1 is not a root of Delta^[n]; the levels of J_2(1) meet both
    # bounds for n = 2 only.
    deltas = analyze(mat([[1, 1], [0, 1]]))["delta"]
    assert deltas == {1: CycloProduct({1: 1})}

    def bounds_hold(n):
        return max(deltas) <= n and root_multiplicity(deltas.get(n, CycloProduct({})), 1) == 0

    assert bounds_hold(2)
    assert not bounds_hold(0)  # level 1 exceeds n = 0
    assert not bounds_hold(1)  # 1 is a root of Delta^[1]


def test_root_multiplicity_of_levels():
    # the level polynomial of the identity has eigenvalue 1 with full
    # multiplicity; cross-check root_multiplicity sees it
    assert root_multiplicity(delta_k(mat_identity(4), 0), 1) == 4
