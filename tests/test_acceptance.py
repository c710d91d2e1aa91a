"""Acceptance gate: the nine headline checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test states its tolerance and time budget inline;
numeric oracles here are built independently of the library (complex
arithmetic from the standard library only).
"""

import cmath
import random
import time
from fractions import Fraction
from math import gcd

from singcalc.cyclo import CycloProduct, expand, power_char
from singcalc.monodromy import (
    char_poly_lys,
    milnor_number,
    render_report,
    yau_pair_report,
)
from singcalc.qres2d import BivarPoly, local_invariants
from singcalc.quotient import continued_fraction, hj_resolve
from singcalc.weightfilt import jordan_blocks, mat_mul, weight_filtration
from singcalc.wlys import TrivarPoly, wdecompose, wlys_admissibility

# (mu, r, characteristic polynomial) of the standard plane-curve germs
CATALOG = {
    "node": (1, 2, CycloProduct({1: 1})),
    "cusp": (2, 1, CycloProduct({6: 1, 1: 1, 2: -1, 3: -1})),
    "tacnode": (3, 2, CycloProduct({4: 1, 1: 1, 2: -1})),
    "A4": (4, 1, CycloProduct({10: 1, 1: 1, 2: -1, 5: -1})),
    "E6": (6, 1, CycloProduct({12: 1, 1: 1, 3: -1, 4: -1})),
    "E7": (7, 2, CycloProduct({9: 1, 1: 1, 3: -1})),
    "E8": (8, 1, CycloProduct({15: 1, 1: 1, 3: -1, 5: -1})),
}


def _poly_mul(a, b):
    out = [complex(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_from_roots(roots):
    """Monic complex polynomial with the given roots, low-first coefficients.

    Multiplies linear factors as a balanced tree so rounding error stays
    well under the 1e-9 tolerance even for degree-24 worst cases.
    """
    layer = [[-root, complex(1)] for root in roots] or [[complex(1)]]
    while len(layer) > 1:
        nxt = [
            _poly_mul(layer[i], layer[i + 1]) if i + 1 < len(layer) else layer[i]
            for i in range(0, len(layer), 2)
        ]
        layer = nxt
    return layer[0]


def _report(num, message):
    print(f"PASS criterion {num}/9: {message}")


# ---------------------------------------------------------------------------
# 1. mu = 144 for the sextic with E8 + E7 + A4 tangent cone  (< 1 s)
# ---------------------------------------------------------------------------


def test_criterion_1_milnor_number_144():
    t0 = time.perf_counter()
    e8 = local_invariants(BivarPoly({(0, 3): 1, (5, 0): 1}))  # v^3 + u^5
    a4 = local_invariants(BivarPoly({(0, 2): 1, (5, 0): 1}))  # v^2 + u^5
    assert e8["mu"] == 8 and e8["r"] == 1
    assert a4["mu"] == 4 and a4["r"] == 1
    e7_mu, e7_r, _ = CATALOG["E7"]
    assert (e7_mu, e7_r) == (7, 2)
    mu_cone = e8["mu"] + e7_mu + a4["mu"]
    assert mu_cone == 19
    assert milnor_number(6, 1, mu_cone) == 144
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    _report(1, f"milnor_number(6,1,19) = 144 from local data (8,7,4), {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. degree identity on 200 random inputs  (< 10 s)
# ---------------------------------------------------------------------------


def test_criterion_2_degree_identity_200_cases():
    rng = random.Random(20260816)
    names = sorted(CATALOG)
    t0 = time.perf_counter()
    checked = 0
    while checked < 200:
        d = rng.randint(2, 12)
        k = rng.randint(1, 4)
        budget = d * d - 3 * d + 3
        picked = []
        for _ in range(rng.randint(0, 6)):
            name = rng.choice(names)
            if CATALOG[name][0] <= budget:
                picked.append(name)
                budget -= CATALOG[name][0]
        points = [dict(zip(("mu", "r", "charpoly"), CATALOG[n])) for n in picked]
        char = char_poly_lys({"d": d, "k": k, "points": points})
        mu_sum = sum(CATALOG[n][0] for n in picked)
        expected = (d - 1) ** 3 + k * mu_sum
        assert expand(char).degree == expected, (d, k, picked)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.3f}s, budget 10s"
    _report(2, f"degree = (d-1)^3 + k*sum(mu) on 200 random inputs, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 3. cusp / A4 / node pipeline values  (< 100 ms each)
# ---------------------------------------------------------------------------


def test_criterion_3_cusp_a4_node_pipeline():
    cases = [
        ("cusp", {(0, 2): 1, (3, 0): -1}, 2, 1, (1, -1, 1)),
        ("A4", {(0, 2): 1, (5, 0): 1}, 4, 1, (1, -1, 1, -1, 1)),
        ("node", {(1, 1): 1}, 1, 2, (-1, 1)),
    ]
    times = []
    for name, germ, mu, r, coeffs in cases:
        t0 = time.perf_counter()
        inv = local_invariants(BivarPoly(germ))
        elapsed = time.perf_counter() - t0
        assert inv["mu"] == mu, name
        assert inv["r"] == r, name
        assert expand(inv["char_poly"]).coeffs == coeffs, name
        assert elapsed < 0.1, f"{name} took {elapsed:.4f}s, budget 0.1s"
        times.append(elapsed)
    _report(3, "cusp (2,1,t^2-t+1), A4 (4,1,Phi_10), node (1,2,t-1); "
               f"max {max(times) * 1000:.1f} ms")


# ---------------------------------------------------------------------------
# 4. torus germs x^p + y^q against the numeric root-set oracle  (1e-9/root)
# ---------------------------------------------------------------------------


def test_criterion_4_torus_germ_numeric_oracle():
    pairs = 0
    for p in range(2, 8):
        for q in range(p + 1, 8):
            if gcd(p, q) != 1:
                continue
            inv = local_invariants(BivarPoly({(p, 0): 1, (0, q): 1}))
            assert inv["mu"] == (p - 1) * (q - 1)
            roots = [
                cmath.exp(2j * cmath.pi * (a / p + b / q))
                for a in range(1, p)
                for b in range(1, q)
            ]
            oracle = _poly_from_roots(roots)
            got = expand(inv["char_poly"]).coeffs
            assert len(oracle) == len(got)
            for c_num, c_exact in zip(oracle, got):
                assert abs(c_num - c_exact) < 1e-9, (p, q)
            pairs += 1
    assert pairs == 11
    _report(4, "all 11 coprime pairs 2 <= p < q <= 7 match the root-set oracle")


# ---------------------------------------------------------------------------
# 5. power_char against numerically reconstructed k-th-power roots
# ---------------------------------------------------------------------------


def test_criterion_5_power_char_brute_force():
    rng = random.Random(9157)
    cases = 0
    while cases < 1000:
        factors = {}
        total = 0
        for m in rng.sample(range(1, 13), rng.randint(1, 3)):
            cap = (24 - total) // m
            if cap < 1:
                continue
            e = rng.randint(1, min(cap, 3))
            factors[m] = e
            total += m * e
        if not factors:
            continue
        k = rng.randint(1, 6)
        exact = expand(power_char(CycloProduct(factors), k)).coeffs
        # angles reduced mod 1 exactly so repeated roots land on the
        # same float and unit roots are exact
        roots = [
            cmath.exp(2j * cmath.pi * float(Fraction(j * k, m) % 1))
            for m, e in factors.items()
            for j in range(m)
            for _ in range(e)
        ]
        numeric = _poly_from_roots(roots)
        assert len(numeric) == len(exact), factors
        for c_num, c_exact in zip(numeric, exact):
            assert abs(c_num - c_exact) < 1e-9, (factors, k)
            assert round(c_num.real) == c_exact, (factors, k)
        cases += 1
    _report(5, "1000 random products, keys <= 12, degree <= 24, k <= 6; 0 failures")


# ---------------------------------------------------------------------------
# 6. Hirzebruch-Jung continued fractions and chain determinants
# ---------------------------------------------------------------------------


def _tridiag_det(diagonal):
    """Determinant of the tridiagonal matrix with this diagonal and 1 off it."""
    prev, cur = 0, 1  # D_{-1}, D_0
    for a in diagonal:
        prev, cur = cur, a * cur - prev
    return cur


def test_criterion_6_hirzebruch_jung():
    for n in range(1, 31):
        assert continued_fraction(Fraction(n + 1, n)) == [2] * n
    rng = random.Random(4242)
    checked = 0
    while checked < 100:
        d = rng.randint(2, 50)
        beta = rng.randint(1, d - 1)
        if gcd(d, beta) != 1:
            continue
        b = hj_resolve(d, beta)[0]
        det = _tridiag_det([-b_i for b_i in b])
        assert abs(det) == d, (d, beta, b)
        checked += 1
    _report(6, "CF((n+1)/n) = [2]*n for n <= 30; 100 chain determinants = +/-d")


# ---------------------------------------------------------------------------
# 7. weight filtration vs the Jordan block census on conjugated nilpotents
# ---------------------------------------------------------------------------


def _jordan_nilpotent(sizes):
    dim = sum(sizes)
    n = [[Fraction(0)] * dim for _ in range(dim)]
    pos = 0
    for s in sizes:
        for i in range(s - 1):
            n[pos + i][pos + i + 1] = Fraction(1)
        pos += s
    return tuple(tuple(row) for row in n)


def _random_invertible(dim, rng):
    g = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for _ in range(3 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:  # scale row i by one nonzero factor
            factor = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
            g[i] = [x * factor for x in g[i]]
        else:
            lam = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
            g[i] = [x + lam * y for x, y in zip(g[i], g[j])]
    return tuple(tuple(row) for row in g)


def _inverse(a):
    dim = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(dim)] for i, row in enumerate(a)]
    for col in range(dim):
        pivot = next(r for r in range(col, dim) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(dim):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[dim:]) for row in aug)


def _census(sizes):
    """Graded dimensions implied by the block sizes: a size-(k+1) block
    contributes to levels k, k-2, ..., -k."""
    dims = {}
    for s in sizes:
        for level in range(s - 1, -s, -2):
            dims[level] = dims.get(level, 0) + 1
    return dims


def test_criterion_7_weight_filtration_vs_jordan():
    rng = random.Random(31337)
    for _ in range(100):
        dim = rng.randint(1, 8)
        sizes, left = [], dim
        while left:
            s = rng.randint(1, left)
            sizes.append(s)
            left -= s
        g = _random_invertible(dim, rng)
        n = mat_mul(mat_mul(g, _jordan_nilpotent(sizes)), _inverse(g))
        # weight_filtration internally asserts N.W_k <= W_{k-2} and that
        # N^k induces an isomorphism gr_k -> gr_{-k}
        filt = weight_filtration(n)
        assert filt.gr_dims() == _census(sizes), sizes
        assert sorted(jordan_blocks(n)) == sorted(sizes), sizes
    _report(7, "100 conjugated nilpotents, dim <= 8: graded dims = block census")


# ---------------------------------------------------------------------------
# 8. weighted decomposition: suspension example and both Luengo readings
# ---------------------------------------------------------------------------


def test_criterion_8_weighted_decomposition():
    suspension = TrivarPoly(
        {(0, 2, 4): 1, (5, 0, 2): -1, (0, 8, 0): 1, (9, 0, 0): 1, (0, 0, 6): 1}
    )
    w = [2, 2, 3]
    dec = wdecompose(suspension, w)
    assert (dec["d"], dec["k"]) == (16, 2)
    points = [((0, 0, 1), "ii")]
    verdict = wlys_admissibility(suspension, w, points)
    assert verdict["admissible"] is True
    assert (verdict["d"], verdict["k"]) == (16, 2)

    without_z6 = TrivarPoly({(0, 2, 4): 1, (5, 0, 2): -1, (0, 8, 0): 1, (9, 0, 0): 1})
    broken = wlys_admissibility(without_z6, w, points)
    assert broken["admissible"] is False
    assert broken["failures"] == ["point [0:0:1] (clause ii) lies on C_18"]

    luengo = TrivarPoly({(5, 0, 0): 1, (0, 3, 1): 1, (0, 0, 11): 1, (2, 2, 0): 1})
    first = wdecompose(luengo, [33, 50, 15])
    assert (first["d"], first["k"]) == (165, 1)
    second = wdecompose(luengo, [2, 3, 1])
    assert (second["d"], second["k"]) == (10, 1)
    _report(8, "d=16/k=2 admissible, inadmissible without z^6; "
               "Luengo readings (165,1) and (10,1)")


# ---------------------------------------------------------------------------
# 9. two sextics, equal mu and char poly, distinguished by Jordan data
# ---------------------------------------------------------------------------


def test_criterion_9_yau_pair_report():
    cusp_delta = CATALOG["cusp"][2]
    points = [dict(zip(("mu", "r", "charpoly"), CATALOG["cusp"])) for _ in range(6)]
    on_conic = {
        "d": 6,
        "k": 1,
        "points": points,
        "alexander": cusp_delta,  # t^2 - t + 1
        "delta_cmb_k": CycloProduct({6: 2, 1: 2, 2: -2, 3: -2}),
    }
    off_conic = {"d": 6, "k": 1, "points": points, "alexander": CycloProduct({})}  # 1

    assert milnor_number(6, 1, sum(p["mu"] for p in on_conic["points"])) == 137
    assert char_poly_lys(on_conic) == char_poly_lys(off_conic)  # exact

    report = yau_pair_report(on_conic, off_conic)
    assert report["milnor_number"] == 137
    assert report["char_poly_equal"] is True
    assert report["alexander_equal"] is False
    assert report["jordan1_a"] == cusp_delta.as_dict()
    assert report["verdict"] == "Jordan structure differs => embedded topology differs"
    text = render_report(report)
    assert "137" in text and "differs" in text
    _report(9, "equal mu=137 and char poly; report flags differing Jordan structure")
