"""Seeded input generators and per-report oracles for the three workloads.

Each generator writes JSON input files into a directory and returns a
list of cases.  A case is the argv of one `singcalc` report (paths
relative to the input directory are made absolute by the caller) plus an
oracle: a function of (exit code, stdout) that returns None when the
report is right and a one-line reason when it is not.  The oracles know
the answers from the construction of the inputs, not from singcalc; the
small polynomial helpers below are written here for that reason.

Only the standard library is used.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

# ---------------------------------------------------------------------------
# independent polynomial helpers (integer coefficients, constant term first)
# ---------------------------------------------------------------------------


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _moebius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _cyclotomic(n):
    """Coefficients of Phi_n, by dividing t^n - 1 by Phi_d for d | n, d < n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        den = _cyclotomic(d)
        quot = [0] * (len(num) - len(den) + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = num[i + len(den) - 1]
            quot[i] = c
            for j, y in enumerate(den):
                num[i + j] -= c * y
        num = quot
    return num


def _factor_map(orders):
    """{m: e} with prod (t^m-1)^e equal to prod Phi_o^c over {o: c}."""
    exps = {}
    for o, c in orders.items():
        for d in _divisors(o):
            exps[d] = exps.get(d, 0) + c * _moebius(o // d)
    return {str(m): e for m, e in sorted(exps.items()) if e}


def _dense(orders):
    poly = [1]
    for o, c in sorted(orders.items()):
        for _ in range(c):
            poly = _pmul(poly, _cyclotomic(o))
    return poly


def _at_two(factors):
    """prod (2^m - 1)^e as an exact rational, from a {"m": e} map."""
    num, den = 1, 1
    for m, e in factors.items():
        base = (1 << int(m)) - 1
        if e > 0:
            num *= base**e
        else:
            den *= base ** (-e)
    return Fraction(num, den)


def _check_poly_block(block, factors, degree, label):
    """A report's {factors, expansion, degree} against the expected data.

    The expansion must be monic of the expected degree and take the value
    prod (2^m - 1)^e at t = 2.  This costs one pass over the coefficients,
    so it stays cheap for the degree-25000 cone reports.
    """
    if block["factors"] != factors:
        return f"{label}: factors {block['factors']} != {factors}"
    coeffs = block["expansion"]
    if block["degree"] != degree or len(coeffs) != degree + 1:
        return f"{label}: degree {block['degree']} / {len(coeffs) - 1} != {degree}"
    if coeffs[-1] != 1:
        return f"{label}: expansion is not monic"
    value = 0
    for i, c in enumerate(coeffs):
        if c:
            value += c << i
    if value != _at_two(factors):
        return f"{label}: expansion at t=2 disagrees with the factors"
    return None


def _json_report(code, out):
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def _write(directory: Path, name: str, data) -> str:
    path = directory / name
    path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
    return name


# ---------------------------------------------------------------------------
# filtration: weightfilt on conjugated quasi-unipotent matrices
# ---------------------------------------------------------------------------

_ORDERS = (1, 2, 3, 4, 6)
# Thirty-four matrices per set, as (dimension, census key, copies): five
# block structures, each conjugated by a fixed census and then by a seeded
# signed permutation per copy.  On a 2.1 GHz Xeon a report takes about
# 0.065 s at dimension 4, 0.15 s at 5, 0.3 s at 6, 0.6 s at 7 and 6 s at
# 10.  The copies of a structure cost the same to within a few per cent,
# so they form one group (see groups()): each input's time is the median
# of the calls on all copies of its structure, some 50 calls at dimension
# 4 and 10 at dimension 6 in a 40 s run instead of 5 per input.  The
# median falls inside the twenty matrices of dimension 4 and the tail
# percentile (ten inputs beyond it, p70.6) inside the twelve of
# dimension 5.
FILTRATION_SETS = ((4, 1, 10), (4, 2, 10), (5, 0, 6), (5, 8, 6), (6, 3, 2))


def _companion(poly):
    n = len(poly) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -poly[i]
    return rows


def _random_blocks(rng, dim):
    while True:
        blocks, size = [], 0
        while size < dim:
            o, s = rng.choice(_ORDERS), rng.randint(1, 3)
            blocks.append((o, s))
            size += _totient(o) * s
        if size == dim:
            return blocks


def _conjugate(rng, h):
    """E h E^-1 for `n` random elementary operations E = I + c e_ij, c = +-1."""
    n = len(h)
    h = [row[:] for row in h]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # left: row_i += c row_j ; right (by E^-1): col_j -= c col_i
        h[i] = [x + c * y for x, y in zip(h[i], h[j])]
        for row in h:
            row[j] -= c * row[i]
    return h


def _signed_permutation(rng, h):
    """P h P^-1 for a random signed permutation matrix P."""
    n = len(h)
    perm = rng.sample(range(n), n)
    sign = [rng.choice((-1, 1)) for _ in range(n)]
    return [[sign[i] * sign[j] * h[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _filtration_case(rng, key, dim):
    # The block structures and a first unimodular conjugation form one fixed
    # census; the seed draws a signed permutation on top.
    # The cost of a report follows its structure and the size of its
    # entries, which the seed leaves alone, so the work per set is alike.
    census = random.Random(f"census:{key}")
    blocks = _random_blocks(census, dim)
    h = [[0] * dim for _ in range(dim)]
    offset = 0
    for o, s in blocks:
        block = _companion(_dense({o: s}))
        for i, row in enumerate(block):
            h[offset + i][offset : offset + len(row)] = row
        offset += len(block)
    h = _signed_permutation(rng, _conjugate(census, h))

    # Census: companion(Phi_o^s) has one Jordan block of size s at each of
    # the phi(o) primitive o-th roots, and so does I - h^m at eigenvalue 0.
    sizes = sorted((s for o, s in blocks for _ in range(_totient(o))), reverse=True)
    gr = {}
    for s in sizes:
        for level in range(-(s - 1), s, 2):
            gr[str(level)] = gr.get(str(level), 0) + 1
    levels = {}
    for o, s in blocks:
        levels.setdefault(s - 1, {})
        levels[s - 1][o] = levels[s - 1].get(o, 0) + 1
    expected = {
        "dimension": dim,
        "m": math.lcm(*(o for o, _ in blocks)),
        "center": 0,
        "gr_dims": gr,
        "jordan_blocks": sizes,
    }

    def oracle(code, out):
        report, err = _json_report(code, out)
        if err:
            return err
        for key, value in expected.items():
            if report.get(key) != value:
                return f"{key} = {report.get(key)!r}, expected {value!r}"
        reported = sorted(int(k) for k in report["delta"])
        if reported != sorted(levels):
            return f"Delta levels {reported} != {sorted(levels)}"
        for k, orders in levels.items():
            block = report["delta"][str(k)]
            degree = sum(_totient(o) * c for o, c in orders.items())
            msg = _check_poly_block(block, _factor_map(orders), degree, f"Delta^[{k}]")
            if msg:
                return msg
            if block["expansion"] != _dense(orders):
                return f"Delta^[{k}] expansion differs from the product of Phi_o"
        return None

    return [[str(x) for x in row] for row in h], oracle


def filtration(rng: random.Random, directory: Path):
    cases = []
    for dim, key, copies in FILTRATION_SETS:
        for _ in range(copies):
            matrix, oracle = _filtration_case(rng, key, dim)
            name = _write(directory, f"matrix{len(cases):02d}.json", matrix)
            cases.append((["weightfilt", "--input", name], oracle))
    return cases


# ---------------------------------------------------------------------------
# cone: lys on synthetic tangent cones
# ---------------------------------------------------------------------------

# Degrees of the cone curves in one set, with the share of the admissible
# Milnor-number budget d^2 - 3d + 3 their singular points use.  Six large
# cones, d = 19 to 26, carry the dense expansion cost (degree
# (d-1)^3 + k*mu); a low share keeps most of that cost in
# (t^d - 1)^(d^2-3d+3-mu), which the seed does not change, rather than in
# the seeded point mix.  The 11th largest report
# (the tail, ten inputs beyond it) is the middle one of nine d = 14 cones,
# and the median falls among 25 small cones of a few milliseconds; an order
# statistic inside a group of alike inputs moves less between runs than the
# time of one input.  The seed draws the point mix of every cone up to
# d = 14; the six large ones, which set the peak memory of a run, take
# theirs from a fixed census, like the filtration matrices.  k and the
# optional parts follow the slot.  A d = 30 cone takes 1.4 s, d = 26 0.6 s
# and d = 20 0.16 s on a 2.1 GHz Xeon; larger cones would leave too few
# calls per input in a run for a steady median.
CONE_SLOTS = (
    tuple((d, 0.05) for d in (26, 24, 22, 21, 20, 19))
    + ((14, 0.05),) * 9
    + tuple((d, share) for d in (6, 7, 8, 7, 6) for share in (0.2, 0.3, 0.4, 0.5, 0.6))
)


def _a_n(n):
    """(charpoly factor map, r, delta) of A_n: y^2 = x^(n+1)."""
    if n % 2 == 0:
        return {2 * (n + 1): 1, 1: 1, 2: -1, n + 1: -1}, 1, n // 2
    return {n + 1: 1, 1: 1, 2: -1}, 2, (n - 1) // 2


_E6 = ({12: 1, 1: 1, 3: -1, 4: -1}, 1, 3)


def _power_subst(factors, k, s):
    """Delta_P^(k)(t^s): k-th power of the monodromy, then t -> t^s."""
    out = {}
    for m, e in factors.items():
        g = math.gcd(m, k)
        key = (m // g) * s
        out[key] = out.get(key, 0) + g * e
    return out


def _cone_case(rng, idx, d, share):
    if d > 14:
        rng = random.Random(f"cone-census:{idx}")
    budget = round(share * (d * d - 3 * d + 3))
    genus_room = (d - 1) * (d - 2) // 2
    k = 1 + (idx // 2) % 3
    points, mu_cone, delta_sum = [], 0, 0
    while mu_cone < budget:
        kind = rng.choice(("A", "A", "E6", "node"))
        if kind == "node":
            factors, mu, r, delta = {1: 1}, 1, 2, 0
        elif kind == "E6":
            (factors, r, delta), mu = _E6, 6
        else:
            mu = rng.randint(2, min(12, d))
            factors, r, delta = _a_n(mu)
        if mu_cone + mu > budget or delta_sum + delta > genus_room:
            # fill the rest of the budget with nodes, which cost no genus
            factors, mu, r, delta = {1: 1}, 1, 2, 0
        points.append((factors, mu, r))
        mu_cone += mu
        delta_sum += delta

    with_jordan = idx % 3 == 0
    entries = []
    for i, (factors, mu, r) in enumerate(points):
        entry = {
            "id": f"p{i}",
            "mu": mu,
            "r": r,
            "charpoly": {str(m): e for m, e in factors.items()},
        }
        if with_jordan:
            entry["jordan1"] = {}
        entries.append(entry)
    data = {
        "curve": {
            "degree": d,
            "components": [{"id": "c", "degree": d}],
            "singular_points": [
                {"id": e["id"], "mu": e["mu"], "r": e["r"], "branches_on": {"c": e["r"]}}
                for e in entries
            ],
        },
        "points": entries,
        "k": k,
    }
    alexander = None
    if idx % 4 == 1:
        alexander = {6: rng.randint(1, 3)}  # a power of t^2 - t + 1
        data["alexander"] = _factor_map(alexander)
    self_int = None
    if idx % 5 == 2:
        genus = genus_room - delta_sum
        self_int = d * d
        data["graph"] = {
            "vertices": [{"id": "c", "self_int": self_int, "marked": True, "genus": genus}],
            "edges": [],
        }

    expected = {d: d * d - 3 * d + 3 - mu_cone, 1: -1}
    for factors, _, _ in points:
        for m, e in _power_subst(factors, k, d + k).items():
            expected[m] = expected.get(m, 0) + e
    char_factors = {str(m): e for m, e in sorted(expected.items()) if e}
    milnor = (d - 1) ** 3 + k * mu_cone

    def oracle(code, out):
        report, err = _json_report(code, out)
        if err:
            return err
        if report["d"] != d or report["k"] != k:
            return f"(d, k) = ({report['d']}, {report['k']}), expected ({d}, {k})"
        if report["milnor_number"] != milnor:
            return f"mu = {report['milnor_number']}, expected {milnor}"
        msg = _check_poly_block(report["char_poly"], char_factors, milnor, "char_poly")
        if msg:
            return msg
        if with_jordan:
            if report["jordan2"] is None or report["jordan2"]["expansion"] != [1]:
                return "jordan2 should be the constant 1 (simple points have no blocks)"
        elif report["jordan2"] is not None:
            return "jordan2 reported without jordan1 data"
        if alexander is None:
            if report["alexander"] is not None:
                return "alexander reported but not supplied"
        else:
            block = report["alexander"]
            if block["expansion"] != _dense(alexander):
                return "alexander expansion differs from (t^2-t+1)^e"
        if self_int is None:
            if report["link_graph"] is not None:
                return "link graph reported but not supplied"
        elif report["link_graph"]["vertices"][0]["self_int"] != self_int - d * (d + 1):
            return "link graph self-intersection not shifted by d(d+1)"
        return None

    return data, oracle


def cone(rng: random.Random, directory: Path):
    cases = []
    for idx, (d, share) in enumerate(CONE_SLOTS):
        data, oracle = _cone_case(rng, idx, d, share)
        name = _write(directory, f"cone{idx:02d}.json", data)
        cases.append((["lys", "--input", name, "--format", "json"], oracle))
    return cases


# ---------------------------------------------------------------------------
# small_mix: goldens, local germs, zeta, quotient and wlys
# ---------------------------------------------------------------------------

# Every golden invocation pinned in tests/test_cli.py, as (argv, golden).
GOLDENS = (
    (("local", "--input", "cusp_germ.json"), "cusp_local.golden.json"),
    (("local", "--input", "a4_germ.json"), "a4_local.golden.json"),
    (("lys", "--input", "sextic6_lys.json", "--k", "1"), "sextic6_lys.golden.json"),
    (("lys", "--input", "sextic144_lys.json", "--k", "1"), "sextic144_lys.golden.json"),
    (("wlys", "--input", "wlys_s10.json"), "wlys_s10.golden.json"),
    (("quotient", "--d", "7", "--beta", "5"), "quotient_7_5.golden.json"),
    (("weightfilt", "--input", "unipotent2.json"), "unipotent2.golden.json"),
    (("zeta", "--input", "zeta_cusp.json"), "zeta_cusp.golden.json"),
)

SMALL_MIX_COUNTS = {"golden": 3, "local": 160, "zeta": 50, "quotient": 80, "wlys": 50}


def _golden_cases(data_dir: Path, directory: Path):
    cases = []
    for argv, golden in GOLDENS:
        argv = list(argv)
        if "--input" in argv:
            name = argv[argv.index("--input") + 1]
            (directory / name).write_bytes((data_dir / name).read_bytes())
        expected = (data_dir / golden).read_text(encoding="utf-8")

        def oracle(code, out, expected=expected):
            if code != 0:
                return f"exit code {code}"
            return None if out == expected else "output differs from the golden file"

        cases.append((argv, oracle))
    return cases


def _germ_terms(terms):
    return {"germ": [{"i": i, "j": j, "c": str(c)} for (i, j), c in sorted(terms.items())]}


def _add(terms, key, c):
    terms[key] = terms.get(key, 0) + c
    if terms[key] == 0:
        del terms[key]


def _linear_product(factors):
    """Expand prod (y - a x^p) over (a, p) pairs into {(i, j): c}."""
    terms = {(0, 0): Fraction(1)}
    for a, p in factors:
        out = {}
        for (i, j), c in terms.items():
            _add(out, (i, j + 1), c)
            _add(out, (i + p, j), -a * c)
        terms = out
    return terms


def _nonzero(rng, lo=-5, hi=5):
    while True:
        c = rng.randint(lo, hi)
        if c:
            return c


def _local_germ(rng):
    """A germ whose mu and branch count have a closed form."""
    family = rng.choice(("torus", "mfold", "cusps", "shifted"))
    if family == "torus":
        while True:
            p, q = rng.randint(2, 13), rng.randint(2, 13)
            if math.gcd(p, q) == 1:
                break
        terms = {(p, 0): Fraction(_nonzero(rng)), (0, q): Fraction(_nonzero(rng))}
        mu, r = (p - 1) * (q - 1), 1
    elif family == "mfold":
        m = rng.randint(2, 6)
        pool = sorted({Fraction(a, b) for a in range(-6, 7) for b in (1, 2, 3)})
        terms = _linear_product([(a, 1) for a in rng.sample(pool, m)])
        mu, r = (m - 1) ** 2, m
    elif family == "cusps":
        c = rng.randint(2, 3)
        coeffs = rng.sample([a for a in range(-7, 8) if a], c)
        terms = {(0, 0): Fraction(1)}
        for a in coeffs:  # multiply by y^2 - a x^3
            out = {}
            for (i, j), v in terms.items():
                _add(out, (i, j + 2), v)
                _add(out, (i + 3, j), -a * v)
            terms = out
        mu, r = (2 * c - 1) * (3 * c - 1), c
    else:
        n, s = rng.randint(1, 10), _nonzero(rng, -4, 4)
        terms = _linear_product([(Fraction(s), 1), (Fraction(s), 1)])
        _add(terms, (n + 1, 0), Fraction(-1))
        mu, r = n, (1 if n % 2 == 0 else 2)

    def oracle(code, out):
        report, err = _json_report(code, out)
        if err:
            return err
        if report["mu"] != mu or report["r"] != r:
            return f"{family}: (mu, r) = ({report['mu']}, {report['r']}), expected ({mu}, {r})"
        if report["delta"] != (mu - r + 1) // 2:
            return f"{family}: delta = {report['delta']}"
        block = report["char_poly"]
        return _check_poly_block(block, block["factors"], mu, f"{family} char_poly")

    return _germ_terms(terms), oracle


def _torus_graph(rng):
    while True:
        p, q = rng.randint(2, 15), rng.randint(2, 15)
        if math.gcd(p, q) == 1:
            break
    vertices = [
        {"id": "E1", "multiplicity": p * q, "chi_open": -1},
        {"id": "A1", "multiplicity": q, "chi_open": 1},
        {"id": "B1", "multiplicity": p, "chi_open": 1},
        {"id": "S1", "multiplicity": 1, "chi_open": 1},
    ]
    rng.shuffle(vertices)
    data = {"vertices": vertices, "strict": ["S1"]}
    zeta = {str(m): e for m, e in sorted({p * q: -1, p: 1, q: 1}.items())}
    char = {str(m): e for m, e in sorted({1: 1, p * q: 1, p: -1, q: -1}.items())}

    def oracle(code, out):
        report, err = _json_report(code, out)
        if err:
            return err
        if report["zeta"]["factors"] != zeta:
            return f"zeta factors {report['zeta']['factors']} != {zeta}"
        return _check_poly_block(report["char_poly"], char, (p - 1) * (q - 1), "zeta char_poly")

    return data, oracle


def _quotient_case(rng):
    while True:
        d = rng.randint(2, 120)
        beta = rng.randint(1, d - 1)
        if math.gcd(d, beta) == 1:
            break
    normal = min(beta, pow(beta, -1, d))

    def oracle(code, out):
        report, err = _json_report(code, out)
        if err:
            return err
        b = [-x for x in report["chain_self_intersections"]]
        # determinant of the chain's intersection matrix, by its recurrence
        prev, det = 1, b[0]
        for bi in b[1:]:
            prev, det = det, bi * det - prev
        if det != d:
            return f"chain determinant {det} != d = {d}"
        # b_1 - 1/(b_2 - 1/(...)) must be d/beta, which also fixes the order
        value = Fraction(b[-1])
        for bi in reversed(b[:-1]):
            value = bi - 1 / value
        if value != Fraction(d, beta):
            return f"chain {b} is not the continued fraction of {d}/{beta}"
        if report["type"] != f"1/{d}(1,{normal})":
            return f"type {report['type']} != 1/{d}(1,{normal})"
        return None

    return ["quotient", "--d", str(d), "--beta", str(beta)], oracle


def _wlys_case(rng):
    """F = F_d + F_(d+k) + higher, with vertices declared on or off C_(d+k)."""
    while True:
        w = [rng.randint(1, 4) for _ in range(3)]
        if math.gcd(*w) == 1:
            break

    def monomials(degree):
        return [
            (i, j, l)
            for i in range(degree // w[0] + 1)
            for j in range((degree - w[0] * i) // w[1] + 1)
            for l in [(degree - w[0] * i - w[1] * j) // w[2]]
            if w[0] * i + w[1] * j + w[2] * l == degree and (i, j, l) != (0, 0, 0)
        ]

    while True:
        d, k = rng.randint(4, 14), rng.randint(1, 4)
        low, comp = monomials(d), monomials(d + k)
        if low and comp:
            break
    chosen_low = rng.sample(low, min(len(low), rng.randint(1, 3)))
    chosen_comp = rng.sample(comp, min(len(comp), rng.randint(1, 3)))
    higher = monomials(d + k + rng.randint(1, 3))
    chosen_high = rng.sample(higher, min(len(higher), 1))
    poly = [
        {"i": i, "j": j, "l": l, "c": str(_nonzero(rng))}
        for (i, j, l) in chosen_low + chosen_comp + chosen_high
    ]
    declared = rng.sample(range(3), rng.randint(1, 3))
    points, failures = [], 0
    for axis in declared:
        coords = ["0", "0", "0"]
        coords[axis] = "1"
        points.append({"coords": coords, "clause": rng.choice(("i", "ii", "iii")), "flags": []})
        # C_(d+k) misses the vertex exactly when it has that pure power
        if not any(m[axis] > 0 and sum(m) == m[axis] for m in chosen_comp):
            failures += 1
    data = {"poly": poly, "weights": w, "points": points}
    degrees = sorted({d, d + k} | {sum(a * b for a, b in zip(w, m)) for m in chosen_high})

    def oracle(code, out):
        report, err = _json_report(code, out)
        if err:
            return err
        if (report["d"], report["k"]) != (d, k):
            return f"(d, k) = ({report['d']}, {report['k']}), expected ({d}, {k})"
        if report["admissible"] != (failures == 0) or len(report["failures"]) != failures:
            return f"admissible = {report['admissible']}, expected {failures} failures"
        if [p["degree"] for p in report["parts"]] != degrees:
            return f"part degrees {[p['degree'] for p in report['parts']]} != {degrees}"
        return None

    return data, oracle


def small_mix(rng: random.Random, directory: Path, data_dir: Path):
    counts = SMALL_MIX_COUNTS
    cases = []
    for _ in range(counts["golden"]):
        cases.extend(_golden_cases(data_dir, directory))
    for idx in range(counts["local"]):
        germ, oracle = _local_germ(rng)
        name = _write(directory, f"germ{idx:03d}.json", germ)
        cases.append((["local", "--input", name], oracle))
    for idx in range(counts["zeta"]):
        graph, oracle = _torus_graph(rng)
        name = _write(directory, f"graph{idx:03d}.json", graph)
        cases.append((["zeta", "--input", name], oracle))
    for _ in range(counts["quotient"]):
        cases.append(_quotient_case(rng))
    for idx in range(counts["wlys"]):
        data, oracle = _wlys_case(rng)
        name = _write(directory, f"wlys{idx:03d}.json", data)
        cases.append((["wlys", "--input", name], oracle))
    return cases


WORKLOADS = ("filtration", "cone", "small_mix")


def groups(workload: str, count: int):
    """Group label of each of the `count` cases of `workload`, in run order.

    Cases of one group are the same computation up to a reordering of the
    input, and are timed together; every other case is a group of its own.
    """
    if workload == "filtration":
        return [key for _, key, copies in FILTRATION_SETS for _ in range(copies)]
    return list(range(count))


def generate(workload: str, seed: int, directory: Path, data_dir: Path):
    """Write the inputs of one workload and return its cases in run order.

    The order is that of the generators, the same for every seed: with a
    seeded order, the peak memory of a `cone` run (cones up to d = 30)
    moved by 9% with the order of its two largest reports.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "filtration":
        cases = filtration(rng, directory)
    elif workload == "cone":
        cases = cone(rng, directory)
    elif workload == "small_mix":
        cases = small_mix(rng, directory, data_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cases
