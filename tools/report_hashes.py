"""Hash every report of a fixed corpus, to show that a change keeps them.

    python3 tools/report_hashes.py CHECKOUT_ROOT

runs `singcalc.cli.main` from CHECKOUT_ROOT/src on each argv of the
corpus, in this process, and prints one line per argv: the sha256 of
(exit code, stdout, stderr) and the argv.  The last line is the sha256
of all the lines before it.  Two checkouts that print the same last
line wrote the same bytes and exit codes for every argv.

The corpus comes from the repository this script sits in, so that it is
the same whichever checkout is hashed:

- every case of the perfbench workloads (perfbench/workloads.py) at seeds
  1-3, as generated, then with --format text, then for `local` and `lys`
  with --format dot;
- every input in tests/data under each subcommand that reads a file, in
  each of its formats;
- seeded convenient germs x^a + y^b, 2 <= a, b <= 14, each with up to
  three small monomials near its Newton polygon, in each `local` format;
- a few argvs that `cli.main` leaves to argparse rather than read from
  its option table: an abbreviated option, `--option=value`, a repeated
  option, a negative number and an abbreviated `quotient` option;
- three `zeta` graphs that the schema accepts but `zeta` must reject;
- `lys` link graphs that the schema accepts but `lys` must reject, one of
  them with two faults, to pin which line wins;
- `lys` curves and points that the schema accepts but `lys` must reject,
  one for each line of the curve and cone checks, and two with two
  faults each, to pin which line wins;
- two `local` inputs off the germ schema: one without a germ, one with a
  coefficient of a type no alternative of the schema takes;
- `wlys` inputs with an all-zero point, on a germ with a comparison form,
  on a weighted-homogeneous one, and next to a point whose coordinate has
  a zero denominator, in both orders; with weights of gcd 2 or with a
  zero weight; and with a zero germ or a constant term;
- inputs of their own (INPUTS) and options on the files of tests/data
  (OPTIONS) for the classes the rest leaves out: `--m`, `--center` and
  `--n 2`; a `weightfilt` matrix with a denominator, whose powers h^m
  cancel; a `zeta` graph whose Delta = t^2 - 1 has an odd exponent sum
  and an even degree; a reducible `lys` curve, with the `indeterminate`
  verdict; a weighted-homogeneous `wlys` germ; `wlys` germs whose
  coefficients need reading: zero ones, equal monomials that cancel (part
  of a form, a whole form, a constant term, the whole germ) or add up,
  and "p/q" ones in both forms; and the input errors of `local`,
  `quotient` and `weightfilt`.  Each gives the exit code it must have.

Inputs are written to a temporary directory, which is the working
directory while the reports run, so paths in messages are relative.
Only the standard library is used.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"
SEEDS = (1, 2, 3)
FORMATS = {"local": ("json", "text", "dot"), "lys": ("json", "text", "dot"),
           "weightfilt": ("json", "text"), "wlys": ("json", "text"), "zeta": ("json", "text")}
BAD_ZETA = {
    "zeta_duplicate_id.json": {"vertices": [{"id": "E1", "multiplicity": 2, "chi_open": -1},
                                            {"id": "E1", "multiplicity": 3, "chi_open": 1}]},
    "zeta_unknown_strict.json": {"vertices": [{"id": "E1", "multiplicity": 2, "chi_open": 1}],
                                 "strict": ["S1"]},
    "zeta_not_polynomial.json": {"vertices": [{"id": "E1", "multiplicity": 1, "chi_open": 2}]},
}
# link graphs put into tests/data/sextic6_lys.json, whose curve has one component
_MARKED = {"id": "c", "self_int": 36, "marked": True, "genus": 4}
_EXCEPTIONAL = {"id": "e", "self_int": -2}
BAD_LYS = {
    "lys_duplicate_id.json": {"vertices": [_MARKED, _EXCEPTIONAL, _EXCEPTIONAL]},
    "lys_unknown_edge_end.json": {"vertices": [_MARKED, _EXCEPTIONAL],
                                  "edges": [["c", "e"], ["e", "x"]]},
    "lys_loop.json": {"vertices": [_MARKED, _EXCEPTIONAL], "edges": [["c", "e"], ["e", "e"]]},
    "lys_unmarked_genus.json": {"vertices": [_MARKED, {**_EXCEPTIONAL, "genus": 1}]},
    "lys_marked_count.json": {"vertices": [_MARKED, {**_MARKED, "id": "d"}], "edges": [["c", "d"]]},
    # the genus of the last vertex is checked before the duplicate ids
    "lys_duplicate_id_and_unmarked_genus.json": {
        "vertices": [_MARKED, _MARKED, {**_EXCEPTIONAL, "genus": 2}]},
}
# (key path, value) changes made to tests/data/sextic6_lys.json, and the
# options after the input
_P0 = ("curve", "singular_points", 0)
_NODES = [{"id": f"n{i}", "mu": 1, "r": 2} for i in range(16)]
BAD_CURVE = {
    "curve_branch_sum.json": ([(_P0 + ("branches_on",), {"c": 2})], []),
    "curve_delta_parity.json": ([(_P0 + ("mu",), 3)], []),
    "curve_delta_sign.json": (
        [(_P0 + ("mu",), 1), (_P0 + ("r",), 4), (_P0 + ("branches_on",), {"c": 4})], []),
    "curve_duplicate_component.json": (
        [(("curve", "components"), [{"id": "c", "degree": 3}] * 2)], []),
    "curve_degree_sum.json": ([(("curve", "components", 0, "degree"), 5)], []),
    "curve_duplicate_point.json": ([(("curve", "singular_points", 1, "id"), "p1")], []),
    "curve_unknown_component.json": ([(_P0 + ("branches_on",), {"z": 1})], []),
    # a node on two unknown components: the first in sorted order is named
    "curve_unknown_components.json": (
        [(_P0, {"id": "p1", "mu": 1, "r": 2, "branches_on": {"z": 1, "a": 1}})], []),
    "curve_negative_genus.json": (
        [(("curve", "degree"), 3), (("curve", "components", 0, "degree"), 3)], []),
    "curve_unknown_genera.json": ([(("genera",), {"z": 0})], []),
    "curve_point_id.json": ([(("points", 0, "id"), "p9")], []),
    "curve_points_mismatch.json": ([(("points",), [])], []),
    "curve_charpoly_degree.json": ([(("points", 0, "charpoly"), {"1": 1})], []),
    "curve_degree_1.json": (
        [(("curve",), {"degree": 1, "components": [{"id": "c", "degree": 1}]}), (("points",), [])],
        []),
    "curve_k_0.json": ([], ["--k", "0"]),
    # 16 nodes: 2 sum(delta_p) = 32 > (d-1)(d-2) + 2 min(d-1, 16) = 30
    "curve_genus_bound.json": (
        [(("curve", "singular_points"), [{**n, "branches_on": {"c": 2}} for n in _NODES]),
         (("points",), [{**n, "charpoly": {"1": 1}} for n in _NODES])], []),
    "curve_unknown_flag.json": ([(("suspension_flags",), {"p66": False})], []),
    # deg Delta_p != mu_p at point 0 is reported, not the id of point 1
    "curve_charpoly_degree_and_point_id.json": (
        [(("points", 0, "charpoly"), {"1": 1}), (("points", 1, "id"), "p9")], []),
    # the branch sum is reported, not the duplicate component ids
    "curve_branch_sum_and_duplicate_component.json": (
        [(_P0 + ("branches_on",), {"c": 2}),
         (("curve", "components"), [{"id": "c", "degree": 3}] * 2)], []),
    # Phi_2 divides (t - 1)(t^3 - 1)/(t^2 - 1) only as a denominator
    "curve_power_char.json": ([(("points", 0, "charpoly"), {"1": 1, "2": -1, "3": 1})], []),
    "curve_jordan1_negative.json": ([(("points", n, "jordan1"), {"1": -1}) for n in range(6)], []),
}
# keys put into tests/data/wlys_s10.json; the weighted-homogeneous Fermat
# cubic replaces its germ and weights
_FERMAT = {"poly": [{"i": 3, "j": 0, "l": 0, "c": 1}, {"i": 0, "j": 3, "l": 0, "c": 1},
                    {"i": 0, "j": 0, "l": 3, "c": 1}], "weights": [1, 1, 1]}
_ZERO = {"coords": ["0", 0, "0/7"], "clause": "iii"}
_ZERO_DENOMINATOR = {"coords": ["1/0", 1, 1]}
BAD_WLYS = {
    "wlys_zero_point.json": {"points": [{"coords": ["0", "0", "1"]}, _ZERO]},
    "wlys_zero_point_homogeneous.json": {**_FERMAT, "points": [_ZERO]},
    "wlys_zero_point_first.json": {"points": [_ZERO, _ZERO_DENOMINATOR]},
    "wlys_zero_denominator_first.json": {"points": [_ZERO_DENOMINATOR, _ZERO]},
    "wlys_weights_gcd.json": {"weights": [2, 2, 4]},
    "wlys_weight_zero.json": {"weights": [0, 1, 1]},
    "wlys_zero_germ.json": {"poly": [{"i": 1, "j": 0, "l": 0, "c": 0}]},
    "wlys_constant_term.json": {"poly": [{"i": 0, "j": 0, "l": 0, "c": 1},
                                         {"i": 2, "j": 0, "l": 0, "c": 1}]},
}

# local inputs off germ.schema.json: a required key missing, and a type
# that neither alternative of the coefficient's anyOf takes
BAD_LOCAL = {
    "local_no_germ.json": {},
    "local_float_coefficient.json": {"germ": [{"i": 2, "j": 0, "c": 1.5}, {"i": 0, "j": 3, "c": 1}]},
}


def _germ(*terms):
    """A `local` input with the monomials c x^i y^j given as (i, j, c)."""
    return {"germ": [{"i": i, "j": j, "c": c} for i, j, c in terms]}


# a conic c and its tangent line l, which meet in a tacnode
_TANGENT = {
    "curve": {"degree": 3, "components": [{"id": "c", "degree": 2}, {"id": "l", "degree": 1}],
              "singular_points": [{"id": "p1", "mu": 3, "r": 2, "branches_on": {"c": 1, "l": 1}}]},
    "points": [{"id": "p1", "mu": 3, "r": 2, "charpoly": {"1": 1, "2": -1, "4": 1}}],
}
_RATIONAL = {"genera": {"c": 0, "l": 0}}


def _term(i, j, l, c):
    return {"i": i, "j": j, "l": l, "c": c}


# tests/data/wlys_s10.json: y^2 z^4 - x^5 z^2 + y^8 + x^9 + z^6, whose
# forms for the weights (2, 2, 3) are C_16 and C_18
_S10_POLY = [_term(0, 2, 4, 1), _term(5, 0, 2, -1), _term(0, 8, 0, 1), _term(9, 0, 0, 1),
             _term(0, 0, 6, 1)]
_S10 = {"poly": _S10_POLY, "weights": [2, 2, 3],
        "points": [{"coords": ["0", "0", "1"], "clause": "ii", "flags": []}]}
_BOTH = (([], 0), (["--format", "text"], 0))
# inputs of their own:
# name -> (command, document, ((options after the input, exit code), ...))
INPUTS = {
    "matrix_rotation.json": ("weightfilt", [[0, -1], [1, 0]], ((["--m", "2"], 1), (["--m", "8"], 0))),
    "matrix_not_square.json": ("weightfilt", [[1, 2]], (([], 1),)),
    "matrix_not_cyclotomic.json": ("weightfilt", [[2]], (([], 1),)),
    "matrix_not_integral.json": ("weightfilt", [["1/2"]], (([], 1),)),
    # d = 2: h^2 is a power table entry, h^1000003 a square of cancelled powers
    "matrix_rational_unipotent.json": ("weightfilt", [[1, "1/2"], [0, 1]],
                                       ((["--m", "2"], 0), (["--m", "1000003"], 0))),
    # Delta = t^2 - 1: odd exponent sum, even degree
    "zeta_odd_sum_even_degree.json": ("zeta", {"vertices": [
        {"id": "E1", "multiplicity": 1, "chi_open": 1}, {"id": "E2", "multiplicity": 2, "chi_open": -1}]},
        (([], 0), (["--format", "text"], 0))),
    "zeta_one_vertex.json": ("zeta", {"vertices": [{"id": "E1", "multiplicity": 2, "chi_open": 1}]},
                             ((["--n", "2"], 0),)),
    "lys_tangent_line.json": ("lys", _TANGENT, (([], 0), (["--format", "text"], 0))),
    "lys_tangent_line_rational.json": ("lys", {**_TANGENT, **_RATIONAL},
                                       (([], 0), (["--k", "2", "--format", "text"], 0))),
    "lys_tangent_line_suspension.json": ("lys", {**_TANGENT, **_RATIONAL,
                                                 "suspension_flags": {"p1": True}},
                                         ((["--k", "2", "--format", "text"], 0),)),
    "wlys_fermat.json": ("wlys", _FERMAT, (([], 0), (["--format", "text"], 0))),
    # the germ of tests/data/wlys_s10.json with zero coefficients between its terms
    "wlys_zero_coefficient.json": ("wlys", {**_S10, "poly": [
        *_S10_POLY[:2], _term(1, 1, 1, 0), *_S10_POLY[2:], _term(2, 0, 0, "0/4")]}, _BOTH),
    # duplicates that cancel: x^3 y^3 z below C_16 and x^4 y^4 in it
    "wlys_duplicates_cancel.json": ("wlys", {**_S10, "poly": [
        _term(3, 3, 1, 2), *_S10_POLY, _term(4, 4, 0, "1/3"), _term(3, 3, 1, "-2"),
        _term(4, 4, 0, "-1/3")]}, _BOTH),
    # duplicates that cancel all of C_18: the germ is weighted-homogeneous
    "wlys_duplicates_cancel_c18.json": ("wlys", {**_S10, "poly": [
        *_S10_POLY, _term(9, 0, 0, -1), _term(0, 0, 6, "-1")]}, _BOTH),
    # duplicates that add up: int + int, "p/q" + "p/q" to an integer, int + "p/q"
    "wlys_duplicates_sum.json": ("wlys", {**_S10, "poly": [
        *_S10_POLY, _term(0, 8, 0, 2), _term(9, 0, 0, "1/2"), _term(9, 0, 0, "3/2"),
        _term(0, 2, 4, "1/3")]}, _BOTH),
    # duplicates that cancel a constant term, or the whole germ
    "wlys_constant_term_cancels.json": ("wlys", {**_S10, "poly": [
        _term(0, 0, 0, 1), *_S10_POLY, _term(0, 0, 0, -1)]}, _BOTH),
    "wlys_germ_cancels.json": ("wlys", {**_S10, "poly": [
        _term(1, 0, 0, "1/2"), _term(1, 0, 0, "-1/2")]}, (([], 1),)),
    # "p/q" coefficients in both parts, C_18 = 2/3 (x^9 - z^6), at points
    # with "p/q" coordinates; [1:-7/5:1] lies on C_18
    "wlys_fractions.json": ("wlys", {
        "poly": [_term(0, 2, 4, "1/2"), _term(5, 0, 2, "-3/4"), _term(0, 8, 0, "6/4"),
                 _term(9, 0, 0, "2/3"), _term(0, 0, 6, "-5/7"), _term(0, 0, 6, "1/21")],
        "weights": [2, 2, 3],
        "points": [{"coords": ["0", "0", "1"], "clause": "ii"},
                   {"coords": ["1/2", -1, "2/3"], "clause": "i"},
                   {"coords": [1, "-7/5", 1], "clause": "iii"}]}, _BOTH),
    "local_unit.json": ("local", _germ((0, 0, 1), (1, 0, 1)), (([], 1),)),
    "local_zero.json": ("local", _germ((1, 0, 0)), (([], 1),)),
    # (y - x)^2
    "local_not_reduced.json": ("local", _germ((0, 2, 1), (1, 1, -2), (2, 0, 1)), (([], 2),)),
    # (y^2 - 2x^2)^2 + y^5
    "local_irrational_point.json": ("local", _germ((0, 4, 1), (2, 2, -4), (4, 0, 4), (0, 5, 1)),
                                    (([], 2),)),
    # (y^2 - x^3)^2 + y^5
    "local_isotropy.json": ("local", _germ((0, 4, 1), (3, 2, -2), (6, 0, 1), (0, 5, 1)), (([], 2),)),
}


def convenient_germs() -> list[dict]:
    """150 seeded `local` inputs x^a + y^b, 2 <= a, b <= 14, each with up to
    three monomials c x^i y^j, 0 < |c| <= 3, i <= a, j <= b and i + j >= 2,
    whose i/a + j/b lies within 1/4 of 1: on, just under or just over the
    Newton polygon of x^a + y^b."""
    rng = random.Random(1)
    germs = []
    for _ in range(150):
        a, b = rng.randint(2, 14), rng.randint(2, 14)
        terms = {(a, 0): 1, (0, b): 1}
        near = [(i, j) for i in range(a + 1) for j in range(b + 1)
                if (i, j) not in terms and i + j >= 2 and 4 * abs(i * b + j * a - a * b) <= a * b]
        for key in rng.sample(near, min(len(near), rng.randint(0, 3))):
            terms[key] = rng.choice((-3, -2, -1, 1, 2, 3))
        germs.append(_germ(*((i, j, c) for (i, j), c in terms.items())))
    return germs


# argvs on the files of tests/data with options no other argv gives, and their exit codes
OPTIONS = [
    (["weightfilt", "--input", "data/unipotent2.json", "--m", "2"], 0),
    (["weightfilt", "--input", "data/unipotent2.json", "--m", "0"], 1),
    (["weightfilt", "--input", "data/unipotent2.json", "--center", "3", "--format", "text"], 0),
    (["zeta", "--input", "data/zeta_cusp.json", "--n", "2"], 1),
    (["quotient", "--d", "7", "--beta", "7"], 1),
    (["quotient", "--d", "6", "--beta", "4"], 1),
    (["quotient", "--d", "0", "--beta", "1"], 1),
]


# argvs on the files of tests/data that are not of the plain form
# `command (--option value)*` with every option spelled in full and given once
FALLBACK = [
    ["local", "--inp", "data/cusp_germ.json"],
    ["lys", "--input=data/sextic6_lys.json", "--format", "text"],
    ["zeta", "--input", "data/zeta_cusp.json", "--format", "json", "--format", "text"],
    ["weightfilt", "--input", "data/unipotent2.json", "--center", "-1"],
    ["quotient", "--d", "7", "--b", "5"],
]


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus(directory: Path) -> list[list[str]]:
    """The argvs, with their inputs written under directory."""
    workloads = _workloads()
    argvs = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            sub = f"{workload}-{seed}"
            (directory / sub).mkdir()
            for argv, _ in workloads.generate(workload, seed, directory / sub, DATA):
                argv = list(argv)
                if "--input" in argv:
                    i = argv.index("--input") + 1
                    argv[i] = f"{sub}/{argv[i]}"
                argvs += [argv, argv + ["--format", "text"]]
                if argv[0] in ("local", "lys"):
                    argvs.append(argv + ["--format", "dot"])
    (directory / "data").mkdir()
    for path in sorted(DATA.glob("*.json")):
        if path.name.endswith(".golden.json"):
            continue
        (directory / "data" / path.name).write_bytes(path.read_bytes())
        for command, formats in FORMATS.items():
            argvs += [[command, "--input", f"data/{path.name}", "--format", f] for f in formats]
    (directory / "convenient").mkdir()
    for n, germ in enumerate(convenient_germs()):
        name = f"convenient/germ{n:03}.json"
        (directory / name).write_text(json.dumps(germ))
        argvs += [["local", "--input", name, "--format", f] for f in FORMATS["local"]]
    argvs += FALLBACK
    for name, graph in BAD_ZETA.items():
        (directory / "data" / name).write_text(json.dumps(graph))
        argvs.append(["zeta", "--input", f"data/{name}"])
    lys = json.loads((DATA / "sextic6_lys.json").read_text())
    for name, graph in BAD_LYS.items():
        (directory / "data" / name).write_text(json.dumps({**lys, "graph": graph}))
        argvs.append(["lys", "--input", f"data/{name}"])
    for name, (changes, options) in BAD_CURVE.items():
        doc = json.loads(json.dumps(lys))
        for path, value in changes:
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        (directory / "data" / name).write_text(json.dumps(doc))
        argvs.append(["lys", "--input", f"data/{name}", *options])
    for name, doc in BAD_LOCAL.items():
        (directory / "data" / name).write_text(json.dumps(doc))
        argvs.append(["local", "--input", f"data/{name}"])
    s10 = json.loads((DATA / "wlys_s10.json").read_text())
    for name, keys in BAD_WLYS.items():
        (directory / "data" / name).write_text(json.dumps({**s10, **keys}))
        argvs.append(["wlys", "--input", f"data/{name}"])
    for name, (command, doc, runs) in INPUTS.items():
        (directory / "data" / name).write_text(json.dumps(doc))
        argvs += [[command, "--input", f"data/{name}", *options] for options, _ in runs]
    return argvs + [argv for argv, _ in OPTIONS]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(args[0]).resolve() / "src"
    sys.path.insert(0, str(src))
    from singcalc import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"singcalc was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for report_argv in corpus(Path(tmp)):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(report_argv)
                blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode("utf-8", "surrogatepass")
                line = f"{hashlib.sha256(blob).hexdigest()}  {' '.join(report_argv)}\n"
                total.update(line.encode())
                sys.stdout.write(line)
        finally:
            os.chdir(cwd)
    print(f"digest {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
