"""Tests for exact weight filtrations, Jordan blocks, and level polynomials."""

import itertools
import random
from fractions import Fraction

import pytest

from singcalc.cyclo import CycloDivisor, CycloProduct, expand, root_multiplicity
from singcalc.errors import InputError
from singcalc.weightfilt import (
    analyze,
    charpoly,
    cyclotomic_content,
    default_power,
    delta_k,
    delta_k_all,
    jordan_blocks,
    kernel,
    mat,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_sub,
    matrix_from_json,
    matrix_to_json,
    monodromy_theorem_check,
    rref,
    solve_coordinates,
    span,
    subspace_intersect,
    vector_weights,
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


def expected_gr_dims(sizes):
    """Each size-s block fills levels s-1, s-3, ..., -(s-1)."""
    out = {}
    for s in sizes:
        for level in range(-(s - 1), s, 2):
            out[level] = out.get(level, 0) + 1
    return out


def assert_census_matches_filtration(h):
    """The rank census agrees with the explicit filtration of N = I - h^m."""
    census = analyze(h)
    n_mat = mat_sub(mat_identity(len(h)), mat_pow(h, census.m))
    for center in (0, 2):
        assert census.gr_dims(center) == weight_filtration(n_mat, center).gr_dims()
    assert census.jordan_blocks() == jordan_blocks(n_mat)


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


J3 = jordan_nilpotent([3])


# ------------------------------------------------------------- linear algebra


def test_rref_canonical():
    rows, pivots = rref(mat([[2, 4], [1, 2]]))
    assert rows == ((Fraction(1), Fraction(2)),)
    assert pivots == (0,)


def test_kernel_rectangular():
    # x + y + z = 0 has a 2-dimensional solution space.
    a = ((Fraction(1), Fraction(1), Fraction(1)),)
    k = kernel(a)
    assert len(k) == 2
    for v in k:
        assert sum(v) == 0


def test_subspace_intersect():
    u = span([(Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))])
    v = span([(Fraction(0), Fraction(1), Fraction(1)), (Fraction(1), Fraction(0), Fraction(-1))])
    # a*(0,1,1) + b*(1,0,-1) has last coordinate 0 iff a = b
    w = subspace_intersect(u, v)
    assert w == ((Fraction(1), Fraction(1), Fraction(0)),)


def test_solve_coordinates():
    basis = span([(Fraction(1), Fraction(1), Fraction(0)), (Fraction(0), Fraction(1), Fraction(1))])
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


def test_matrix_json_round_trip():
    a = mat([["1/2", 3], [0, "-7/3"]])
    assert matrix_from_json(matrix_to_json(a)) == a
    with pytest.raises(InputError):
        matrix_from_json([[1, 2], [3]])
    with pytest.raises(InputError):
        matrix_from_json([["1/0"]])
    with pytest.raises(InputError):
        matrix_from_json("nope")


# ------------------------------------------------------------ vector weights


def test_weights_generator():
    w = vector_weights(J3, (0, 0, 1))
    assert (w.alpha, w.beta, w.gamma) == (2, 0, 2)


def test_weights_deep_vector():
    w = vector_weights(J3, (1, 0, 0))
    assert (w.alpha, w.beta, w.gamma) == (0, -2, -2)


def test_weights_zero_vector():
    w = vector_weights(J3, (0, 0, 0))
    assert (w.alpha, w.beta, w.gamma) == (None, None, None)


def test_weights_single_block_formula():
    # In a single size-r block, the i-th basis vector has gamma = 2i - (r+1).
    for r in range(1, 6):
        n = jordan_nilpotent([r])
        for i in range(1, r + 1):
            v = tuple(Fraction(1) if j == i - 1 else Fraction(0) for j in range(r))
            assert vector_weights(n, v).gamma == 2 * i - (r + 1)


def test_weights_rejects_non_nilpotent():
    with pytest.raises(InputError, match="nilpotent"):
        vector_weights(mat([[1, 0], [0, 1]]), (1, 0))


# ---------------------------------------------------------- weight filtration


def test_filtration_single_block():
    assert weight_filtration(J3, 0).gr_dims() == {-2: 1, 0: 1, 2: 1}


def test_filtration_zero_matrix():
    f = weight_filtration(mat([[0, 0], [0, 0]]), 0)
    assert f.gr_dims() == {0: 2}
    assert f.level_basis(0) == span([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))])
    assert f.level_basis(-1) == ()


def test_filtration_blocks_2_1():
    f = weight_filtration(jordan_nilpotent([2, 1]), 0)
    assert f.gr_dims() == {-1: 1, 0: 1, 1: 1}


def test_filtration_center_shift():
    f = weight_filtration(J3, 5)
    assert f.gr_dims() == {3: 1, 5: 1, 7: 1}
    assert f.center == 5


def test_filtration_monotone():
    f = weight_filtration(jordan_nilpotent([3, 2, 2, 1]), 0)
    prev = -1
    for _, basis in f.steps:
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
        assert f.gr_dims() == expected_gr_dims(sizes), sizes
        assert jordan_blocks(conj) == tuple(sorted(sizes, reverse=True))
        assert_census_matches_filtration(mat_sub(mat_identity(len(conj)), conj))


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
    assert mat_pow(h, 6) == mat_identity(2)
    out = delta_k_all(h)
    assert out == {0: CycloDivisor({6: 1}).to_product()}
    assert list(expand(out[0]).coeffs) == [1, -1, 1]


def test_delta_k_unipotent_2x2():
    h = mat([[1, 1], [0, 1]])
    out = delta_k_all(h)
    assert out == {1: CycloProduct({1: 1})}
    assert delta_k(h, 0).factors == ()


def test_delta_k_identity():
    h = mat_identity(3)
    assert delta_k(h, 0) == CycloProduct({1: 3})
    assert delta_k(h, 1).factors == ()


def test_delta_k_eigenvalue_minus_one():
    h = mat([[-1, 1], [0, -1]])
    out = delta_k_all(h)
    assert out == {1: CycloDivisor({2: 1}).to_product()}


def test_delta_k_overlapping_blocks():
    # J3(1) + J1(1): one block of size 3, one of size 1; the level-0
    # polynomial sees only the size-1 block even though gr_0 is
    # 2-dimensional.
    h = mat([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    out = delta_k_all(h)
    assert out == {0: CycloProduct({1: 1}), 2: CycloProduct({1: 1})}


def test_delta_k_census_random():
    # h = direct sum of companion(Phi_o^s): over the complex numbers this
    # carries phi(o) Jordan blocks of size s with the primitive o-th roots
    # of unity as eigenvalues, so Delta^[s-1] collects exactly Phi_o.
    rng = random.Random(3)
    for _ in range(12):
        pieces = []
        expected = {}
        dim = 0
        while dim < 6:
            o = rng.choice([1, 2, 3, 4, 6])
            s = rng.randint(1, 2)
            phi_o = list(expand(CycloDivisor({o: 1}).to_product()).coeffs)
            poly = [1]
            for _ in range(s):
                poly = int_poly_mul(poly, phi_o)
            pieces.append(companion(poly))
            level = s - 1
            expected[level] = expected.get(level, {})
            expected[level][o] = expected[level].get(o, 0) + 1
            dim += len(poly) - 1
        n = sum(len(p) for p in pieces)
        rows = [[Fraction(0)] * n for _ in range(n)]
        off = 0
        for p in pieces:
            for i in range(len(p)):
                for j in range(len(p)):
                    rows[off + i][off + j] = p[i][j]
            off += len(p)
        h = conjugate(mat(rows), random_unimodular(n, rng))
        out = delta_k_all(h)
        assert_census_matches_filtration(h)
        want = {
            level: CycloDivisor(orders).to_product() for level, orders in expected.items()
        }
        assert out == want
        # degree bookkeeping: sum over levels of (k+1) * deg = dimension
        assert sum((k + 1) * expand(p).degree for k, p in out.items()) == n
        assert sum(expand(p).degree for p in out.values()) <= n


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
    assert delta_k(h, 0, m=12) == CycloDivisor({6: 1}).to_product()


def test_delta_k_rejects_negative_level():
    with pytest.raises(InputError):
        delta_k(mat_identity(2), -1)


def test_monodromy_theorem_check():
    h = mat([[1, 1], [0, 1]])
    assert monodromy_theorem_check(h, 2) == {"ok": True, "violations": []}
    out = monodromy_theorem_check(h, 0)
    assert out["ok"] is False
    assert any("exceeds ambient dimension" in v for v in out["violations"])
    # eigenvalue 1 at the top level n is itself a violation
    out2 = monodromy_theorem_check(h, 1)
    assert out2["ok"] is False
    assert any("1 is a root" in v for v in out2["violations"])


def test_root_multiplicity_of_levels():
    # the level polynomial of the identity has eigenvalue 1 with full
    # multiplicity; cross-check root_multiplicity sees it
    assert root_multiplicity(delta_k(mat_identity(4), 0), 1) == 4
