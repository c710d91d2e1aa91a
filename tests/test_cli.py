"""End-to-end tests of the command-line interface.

Reports are pinned byte-for-byte against golden files in tests/data/, and
the error paths are checked for the documented exit codes: 1 for bad
input, 2 for valid-but-unsupported input, 3 for internal inconsistencies.
"""

import enum
import importlib.util
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from singcalc import cli, cyclo, weightfilt, wlys
from singcalc.errors import InputError, NotPolynomial, SingcalcError

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# golden reports
# ---------------------------------------------------------------------------

GOLDEN_CASES = [
    (("local", "--input", str(DATA / "cusp_germ.json")), "cusp_local.golden.json"),
    (("local", "--input", str(DATA / "a4_germ.json")), "a4_local.golden.json"),
    (
        ("lys", "--input", str(DATA / "sextic6_lys.json"), "--k", "1"),
        "sextic6_lys.golden.json",
    ),
    (
        ("lys", "--input", str(DATA / "sextic144_lys.json"), "--k", "1"),
        "sextic144_lys.golden.json",
    ),
    (("wlys", "--input", str(DATA / "wlys_s10.json")), "wlys_s10.golden.json"),
    (("quotient", "--d", "7", "--beta", "5"), "quotient_7_5.golden.json"),
    (("weightfilt", "--input", str(DATA / "unipotent2.json")), "unipotent2.golden.json"),
    (("zeta", "--input", str(DATA / "zeta_cusp.json")), "zeta_cusp.golden.json"),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES, ids=lambda x: x if isinstance(x, str) else x[0])
def test_golden(capsys, argv, golden):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out == (DATA / golden).read_text()


def test_translated_germ_golden(capsys):
    # (2y - 3x^2)^2 - x^7 is resolved through a translation y -> y + 3/2
    # of the chart after the first blow-up.  Kept apart from GOLDEN_CASES,
    # whose list the benchmark replays.
    argv = ("local", "--input", str(DATA / "a6_translated_germ.json"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out == (DATA / "a6_translated_local.golden.json").read_text()
    report = json.loads(out)
    assert (report["mu"], report["r"], report["graph"]["blowups"]) == (6, 1, 2)


@pytest.mark.parametrize(
    "name, mu, r, char_poly",
    [
        # y^4 + 2xy^2 + 2x^3, an ordinary triple point (D4): its walk blows
        # up the quotient point 1/2(1,1) of the first chart with weights
        # (1, 1).  Kouchnirenko: the polygon (0,4), (1,2), (3,0) bounds area
        # 5 with the axes, so mu = 2*5 - 3 - 4 + 1 = 4, and Delta =
        # (t - 1)(t^3 - 1) as for any ordinary triple point.  Its "delta" is that
        # of today's formula, (mu - r + 1)/2 = 1; Noether's is 3.
        ("d4_quotient_point", 4, 3, {"1": 1, "3": 1}),
        # (x - y^3)^2 + y^7, A6 with Delta = Phi_14: resolved through a
        # translation along x, the q == 1 branch of qres2d._scan_exceptional
        ("a6_translated_x", 6, 1, {"1": 1, "14": 1, "2": -1, "7": -1}),
    ],
)
def test_germ_golden_reaching_a_branch_of_the_walk(capsys, name, mu, r, char_poly):
    # kept apart from GOLDEN_CASES, whose list the benchmark replays
    code, out, err = run_cli(capsys, "local", "--input", str(DATA / f"{name}_germ.json"))
    assert code == 0, err
    assert out == (DATA / f"{name}_local.golden.json").read_text()
    report = json.loads(out)
    assert (report["mu"], report["r"], report["char_poly"]["factors"]) == (mu, r, char_poly)


SCALED_GERMS = {
    "cusp": {(0, 2): 1, (3, 0): -1},
    "two cusps": {(0, 4): 1, (3, 2): -5, (6, 0): 4},
    "(3y-2x)^2-x^3": {(0, 2): 9, (1, 1): -12, (2, 0): 4, (3, 0): -1},
    "(2y-3x^2)^2-x^7": {(0, 2): 4, (2, 1): -12, (4, 0): 9, (7, 0): -1},
    "(2x-3y^2)^2-y^7": {(2, 0): 4, (1, 2): -12, (0, 4): 9, (0, 7): -1},
}


@pytest.mark.parametrize("name", sorted(SCALED_GERMS))
def test_local_report_ignores_rational_scaling(capsys, tmp_path, name):
    # a germ is defined up to a unit: scaling its equation leaves the report
    reports = set()
    for scale in (Fraction(1), Fraction(1, 2), Fraction(-3, 7), Fraction(6)):
        germ = [{"i": i, "j": j, "c": str(c * scale)} for (i, j), c in SCALED_GERMS[name].items()]
        path = tmp_path / "germ.json"
        path.write_text(json.dumps({"germ": germ}))
        code, out, err = run_cli(capsys, "local", "--input", str(path))
        assert (code, err) == (0, "")
        reports.add(out)
    assert len(reports) == 1


def test_output_is_deterministic(capsys):
    argv = ("lys", "--input", str(DATA / "sextic6_lys.json"), "--k", "1")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def _products(report) -> int:
    """The number of expanded products, {"factors", "expansion", ...}, in a report."""
    if isinstance(report, dict):
        return ("expansion" in report) + sum(_products(v) for v in report.values())
    if isinstance(report, list):
        return sum(_products(v) for v in report)
    return 0


@pytest.mark.parametrize("name", ["sextic144_lys.json", "sextic6_lys.json"])
def test_lys_enters_expand_once_per_product(capsys, monkeypatch, name):
    # perfbench counts cyclo.expand.calls through these two bindings
    calls = []
    inner = cyclo.expand

    def counting(a):
        calls.append(a)
        return inner(a)

    monkeypatch.setattr(cyclo, "expand", counting)
    monkeypatch.setattr(cli, "expand", counting)
    code, out, _ = run_cli(capsys, "lys", "--input", str(DATA / name), "--format", "json")
    assert code == 0
    assert len(calls) == _products(json.loads(out)) > 0


# spot checks of the pinned numbers, so a regenerated golden file cannot
# silently drift


def test_sextic6_pinned_values():
    report = json.loads((DATA / "sextic6_lys.golden.json").read_text())
    assert report["milnor_number"] == 137
    assert report["char_poly"]["degree"] == 137
    assert report["char_poly"]["factors"] == {
        "1": -1,
        "6": 9,
        "7": 6,
        "14": -6,
        "21": -6,
        "42": 6,
    }
    assert report["qhs"]["is_qhs"] is False
    assert report["link_graph"]["vertices"][0]["self_int"] == -6


def test_sextic144_pinned_values():
    report = json.loads((DATA / "sextic144_lys.golden.json").read_text())
    assert report["milnor_number"] == 144
    assert report["char_poly"]["degree"] == 144


def test_cusp_pinned_values():
    report = json.loads((DATA / "cusp_local.golden.json").read_text())
    assert report["mu"] == 2
    assert report["r"] == 1
    assert report["delta"] == 1
    assert report["char_poly"]["expansion"] == [1, -1, 1]


def test_a4_pinned_values():
    report = json.loads((DATA / "a4_local.golden.json").read_text())
    assert report["mu"] == 4
    assert report["delta"] == 2
    assert report["char_poly"]["factors"] == {"1": 1, "2": -1, "5": -1, "10": 1}


def test_node_local(capsys, tmp_path):
    path = tmp_path / "node.json"
    path.write_text('{"germ": [{"i": 1, "j": 1, "c": 1}]}')
    code, out, _ = run_cli(capsys, "local", "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["mu"] == 1
    assert report["r"] == 2
    assert report["delta"] == 0
    assert report["char_poly"]["expansion"] == [-1, 1]


def test_smooth_cubic_cone(capsys, tmp_path):
    # empty singular set: mu = (3-1)^3 = 8, Delta = (t^3-1)^3 / (t-1)
    path = tmp_path / "cubic.json"
    path.write_text(
        '{"curve": {"degree": 3, "components": [{"id": "c", "degree": 3}],'
        ' "singular_points": []}, "points": []}'
    )
    code, out, _ = run_cli(capsys, "lys", "--input", str(path), "--k", "1")
    assert code == 0
    report = json.loads(out)
    assert report["milnor_number"] == 8
    assert report["char_poly"]["factors"] == {"1": -1, "3": 3}
    assert report["char_poly"]["degree"] == 8
    # singular_points and points are optional, each defaulting to []
    path.write_text('{"curve": {"degree": 3, "components": [{"id": "c", "degree": 3}]}}')
    assert run_cli(capsys, "lys", "--input", str(path), "--k", "1") == (0, out, "")


def test_wlys_pinned_values():
    report = json.loads((DATA / "wlys_s10.golden.json").read_text())
    assert report["d"] == 16
    assert report["k"] == 2
    assert report["admissible"] is True


def test_quotient_pinned_values(capsys):
    report = json.loads((DATA / "quotient_7_5.golden.json").read_text())
    assert report["chain_self_intersections"] == [-2, -2, -3]
    assert report["type"] == "1/7(1,3)"
    # a large prime order: the normal form comes from gcds, not from the group
    code, out, err = run_cli(capsys, "quotient", "--d", "1000003", "--beta", "2")
    assert code == 0, err
    report = json.loads(out)
    assert report["type"] == "1/1000003(1,2)"
    assert report["chain_self_intersections"] == [-500002, -2]


def test_weightfilt_pinned_values():
    report = json.loads((DATA / "unipotent2.golden.json").read_text())
    assert report["delta"] == {
        "1": {
            "degree": 1,
            "expansion": [-1, 1],
            "factors": {"1": 1},
            "text": "t - 1",
        }
    }
    assert report["jordan_blocks"] == [2]


# ---------------------------------------------------------------------------
# text and dot formats
# ---------------------------------------------------------------------------


def test_local_text(capsys):
    code, out, _ = run_cli(
        capsys, "local", "--input", str(DATA / "cusp_germ.json"), "--format", "text"
    )
    assert code == 0
    assert "mu     = 2" in out
    assert "t^2 - t + 1" in out


def test_lys_text(capsys):
    code, out, _ = run_cli(
        capsys, "lys", "--input", str(DATA / "sextic6_lys.json"), "--format", "text"
    )
    assert code == 0
    assert "mu    = 137" in out
    assert "QHS link: False" in out


def test_weightfilt_text(capsys):
    code, out, err = run_cli(
        capsys, "weightfilt", "--input", str(DATA / "unipotent2.json"), "--format", "text"
    )
    assert (code, err) == (0, "")
    assert out == (
        "dimension = 2, m = 1, center = 0\n"
        "gr dims: -1: 1, 1: 1\n"
        "jordan blocks of I - h^m: [2]\n"
        "Delta^[1] = t - 1\n"
    )


def _s10_with_point_on_c18():
    # C_18 = x^9 + z^6 of the s10 germ vanishes at [0:1:0]
    data = json.loads((DATA / "wlys_s10.json").read_text())
    data["points"].append({"coords": ["0", "1", "0"], "clause": "i"})
    return data


def _fermat_cubic():
    monomials = [{"i": 3, "j": 0, "l": 0, "c": 1}, {"i": 0, "j": 3, "l": 0, "c": 1}]
    return {"poly": monomials + [{"i": 0, "j": 0, "l": 3, "c": 1}], "weights": [1, 1, 1]}


@pytest.mark.parametrize(
    "make,text",
    [
        (
            _s10_with_point_on_c18,
            "weights = (2, 2, 3)\n"
            "d = 16, k = 2\n"
            "admissible: False\n"
            "  - point [0:1:0] (clause i) lies on C_18\n",
        ),
        (
            _fermat_cubic,
            "weights = (1, 1, 1)\n"
            "d = 3, k = infinity (weighted-homogeneous)\n"
            "admissible: indeterminate\n"
            "  - germ is weighted-homogeneous: no comparison form to evaluate\n",
        ),
    ],
    ids=["point-on-c18", "weighted-homogeneous"],
)
def test_wlys_text(capsys, tmp_path, make, text):
    path = tmp_path / "wlys.json"
    path.write_text(json.dumps(make()))
    assert run_cli(capsys, "wlys", "--input", str(path), "--format", "text") == (0, text, "")


def test_wlys_with_a_huge_weight(capsys, tmp_path):
    # the same verdict as weights (2, 2, 3), without raising 2 to any weight
    data = json.loads((DATA / "wlys_s10.json").read_text())
    data["weights"] = [2, 2**40, 3]
    path = tmp_path / "wlys.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "wlys", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert json.loads(out)["admissible"] is True


def test_non_homogeneous_comparison_form_exits_3(capsys, monkeypatch):
    real = wlys.wdecompose

    def mixed(f, w):
        # a term of w-degree 2 in the degree-18 form; it vanishes at [0:0:1]
        decomp = real(f, w)
        lowest, (degree, form), *rest = decomp["parts"]
        stray = {**form, (1, 0, 0): 1}
        return {**decomp, "parts": (lowest, (degree, stray), *rest)}

    monkeypatch.setattr(wlys, "wdecompose", mixed)
    code, out, err = run_cli(capsys, "wlys", "--input", str(DATA / "wlys_s10.json"))
    assert (code, out) == (3, "")
    assert err == "error: C_18 is not w-homogeneous: vanishing on it depends on the representative\n"


def test_local_dot(capsys):
    code, out, _ = run_cli(
        capsys, "local", "--input", str(DATA / "cusp_germ.json"), "--format", "dot"
    )
    assert code == 0
    assert out.startswith("graph resolution {")
    assert "doublecircle" in out  # strict transform is highlighted


def test_lys_dot_uses_link_graph(capsys):
    code, out, _ = run_cli(
        capsys, "lys", "--input", str(DATA / "sextic6_lys.json"), "--format", "dot"
    )
    assert code == 0
    assert '"c"' in out and "-6" in out


def test_lys_link_graph_is_graph_input(capsys, tmp_path):
    # the report's link graph, given back as the input's graph, is adjusted
    # once more: each marked self-intersection drops by d(d+1) again
    data = json.loads((DATA / "sextic6_lys.json").read_text())
    code, out, err = run_cli(capsys, "lys", "--input", str(DATA / "sextic6_lys.json"))
    assert (code, err) == (0, "")
    data["graph"] = json.loads(out)["link_graph"]
    assert data["graph"] == {
        "vertices": [{"id": "c", "self_int": -6, "marked": True, "genus": 4}],
        "edges": [],
    }
    path = tmp_path / "again.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "lys", "--input", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["link_graph"]["vertices"][0]["self_int"] == -48


def test_lys_dot_without_graph_fails(capsys, tmp_path):
    data = json.loads((DATA / "sextic6_lys.json").read_text())
    del data["graph"]
    path = tmp_path / "nograph.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "lys", "--input", str(path), "--format", "dot")
    assert code == 1
    assert "link graph" in err


def test_dot_rejected_for_quotient(capsys):
    code, *_ = run_cli(capsys, "quotient", "--d", "7", "--beta", "5", "--format", "dot")
    assert code == 1


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_non_reduced_germ_exits_2(capsys, tmp_path):
    path = tmp_path / "square.json"
    path.write_text('{"germ": [{"i": 2, "j": 0, "c": 1}]}')
    code, _, err = run_cli(capsys, "local", "--input", str(path))
    assert code == 2
    assert "repeated" in err


def _a_2k_germ(k):
    """(y - x - x^2 - ... - x^k)^2 + x^(2k+1), an A_2k singularity whose
    resolution walk visits 3k + 3 charts."""
    root = {(0, 1): 1, **{(i, 0): -1 for i in range(1, k + 1)}}
    square = {(2 * k + 1, 0): 1}
    for (a, b), c in root.items():
        for (d, e), f in root.items():
            square[a + d, b + e] = square.get((a + d, b + e), 0) + c * f
    return {"germ": [{"i": i, "j": j, "c": c} for (i, j), c in square.items() if c]}


def test_germ_within_the_chart_budget(capsys, tmp_path):
    k = 130
    path = tmp_path / "a260.json"
    path.write_text(json.dumps(_a_2k_germ(k)))
    code, out, err = run_cli(capsys, "local", "--input", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["mu"], report["r"], report["delta"]) == (2 * k, 1, k)
    # Delta = (t^(2(2k+1)) - 1)(t - 1) / ((t^2 - 1)(t^(2k+1) - 1))
    factors = {"1": 1, "2": -1, str(2 * k + 1): -1, str(2 * (2 * k + 1)): 1}
    assert report["char_poly"]["factors"] == factors


def test_germ_past_the_chart_budget_exits_2(capsys, tmp_path):
    path = tmp_path / "a280.json"
    path.write_text(json.dumps(_a_2k_germ(140)))
    code, out, err = run_cli(capsys, "local", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: the resolution walk needs more than its budget of 400 charts\n"


def test_zeta_text_with_a_smooth_huge_multiplicity(capsys, tmp_path):
    # the factored text needs the divisors of 2^50, 51 of them, which
    # trial division up to the square root of the cofactor left finds at once
    data = {
        "vertices": [
            {"id": "E1", "multiplicity": 2**50, "chi_open": -1},
            {"id": "S1", "multiplicity": 1, "chi_open": 1},
        ],
        "strict": ["S1"],
    }
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "zeta", "--input", str(path), "--format", "text")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out.endswith(f"Delta (n=1) = (t-1)*(t^{2**50}-1)\n")


def test_zeta_text_with_a_prime_huge_multiplicity(capsys, tmp_path):
    # polynomiality is read off the gcd closure {1, 10^15 + 37}: no factoring
    data = {
        "vertices": [
            {"id": "E1", "multiplicity": 10**15 + 37, "chi_open": -1},
            {"id": "S1", "multiplicity": 1, "chi_open": 1},
        ],
        "strict": ["S1"],
    }
    path = tmp_path / "prime.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "zeta", "--input", str(path), "--format", "text")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out.endswith(f"Delta (n=1) = (t-1)*(t^{10**15 + 37}-1)\n")


def test_malformed_json_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run_cli(capsys, "local", "--input", str(path))
    assert code == 1
    assert "not valid JSON" in err


# what a rational past the digit limit reads as, in place of the
# interpreter's advice to raise the limit, which a CLI user cannot follow
_PAST_THE_DIGIT_LIMIT = (
    f"more than {sys.get_int_max_str_digits()} digits, "
    "the interpreter's limit for reading an integer in decimal"
)


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"[1" + b"0" * 5000 + b"]", f"an integer of {_PAST_THE_DIGIT_LIMIT}"),
        (b"[" * 100000 + b"]" * 100000, None),
        (b"\xff\xfe", None),
    ],
    ids=["integer-past-digit-limit", "nested-past-recursion-limit", "not-utf8"],
)
def test_unparsable_json_exits_1(capsys, tmp_path, content, reason):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "local", "--input", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "not valid JSON" in err
    if reason:
        assert err == f"error: input file {path} is not valid JSON: {reason}\n"


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "local", "--input", "/no/such/file.json")
    assert code == 1
    assert "not found" in err


@pytest.mark.parametrize("suffix", ["", "/cusp_germ.json/"], ids=["directory", "file-as-directory"])
def test_unreadable_input_path_exits_1(capsys, tmp_path, suffix):
    shutil.copy(DATA / "cusp_germ.json", tmp_path)
    path = str(tmp_path) + suffix
    code, out, err = run_cli(capsys, "local", "--input", path)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read input file {path}: ")
    assert len(err.splitlines()) == 1


def _lf_germ():
    """The cusp germ written over several lines, each ended by LF."""
    return json.dumps(json.loads((DATA / "cusp_germ.json").read_text()), indent=2) + "\n"


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_ends_give_the_report_of_the_lf_file(capsys, tmp_path, newline):
    path = tmp_path / "germ.json"
    (tmp_path / "lf.json").write_text(_lf_germ())
    path.write_bytes(_lf_germ().replace("\n", newline).encode())
    twin = run_cli(capsys, "local", "--input", str(tmp_path / "lf.json"))
    assert run_cli(capsys, "local", "--input", str(path)) == twin
    assert twin[0] == 0


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_malformed_file_error_reads_as_a_text_mode_load(capsys, tmp_path, newline):
    # the offsets in the message count characters of the text-mode text,
    # in which each line end is one "\n"
    path = tmp_path / "germ.json"
    path.write_bytes(_lf_germ().replace("}", "", 1).replace("\n", newline).encode())
    with pytest.raises(json.JSONDecodeError) as exc:
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    assert exc.value.lineno > 1
    code, out, err = run_cli(capsys, "local", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: input file {path} is not valid JSON: {exc.value}\n"


@pytest.mark.parametrize(
    "encode",
    [
        lambda s: s.encode("utf-16"),
        lambda s: s.encode("utf-16-le"),
        lambda s: s.encode("utf-32"),
        lambda s: s.encode("utf-8-sig"),
        lambda s: s.encode()[:9] + b"\xc3\x28" + s.encode()[9:],
    ],
    ids=["utf-16", "utf-16-le", "utf-32", "utf-8-bom", "invalid-utf-8"],
)
def test_files_that_are_not_plain_utf8_exit_1(capsys, tmp_path, encode):
    path = tmp_path / "germ.json"
    path.write_bytes(encode(_lf_germ()))
    with pytest.raises(ValueError) as exc:
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    code, out, err = run_cli(capsys, "local", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: input file {path} is not valid JSON: {exc.value}\n"


def _reference_main(argv):
    """main as it was when every argv went through the full parser: the
    top-level parser, which hands the subcommand's arguments on to the
    subcommand's parser, then the handler."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if "input" in vars(args) and not args.input:
            raise InputError(f"{args.command} needs --input FILE")
        sys.stdout.write(args.handler(args))
        return 0
    except SingcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


# GERM, MATRIX, GRAPH, CONE and TRIVAR stand for input files of tests/data
_GERM, _MATRIX, _GRAPH, _CONE, _TRIVAR = "GERM", "MATRIX", "GRAPH", "CONE", "TRIVAR"
_FILES = {"GERM": "cusp_germ.json", "MATRIX": "unipotent2.json", "GRAPH": "zeta_cusp.json",
          "CONE": "sextic6_lys.json", "TRIVAR": "wlys_s10.json"}
_QUOT = ["quotient", "--d", "7", "--beta", "5"]
# every option of every subcommand in its plain form, `--option value`
PLAIN_ARGVS = [
    _QUOT, ["quotient", "--beta", "5", "--d", "7"], [*_QUOT, "--format", "text"],
    ["local", "--input", _GERM], ["local", "--input", _GERM, "--format", "dot"],
    ["lys", "--input", _CONE, "--k", "2", "--format", "text"],
    ["weightfilt", "--input", _MATRIX, "--m", "2", "--center", "1", "--format", "text"],
    ["zeta", "--input", _GRAPH, "--n", "2", "--format", "text"],
    ["wlys", "--input", _TRIVAR, "--format", "text"],
    # spellings int() takes
    ["zeta", "--input", _GRAPH, "--n", "01"], ["quotient", "--d", "\u0667", "--beta", "+5"],
    ["quotient", "--d", "7_0", "--beta", " 1"],
]
ARGV_CORPUS = PLAIN_ARGVS + [
    # help, before and after a command
    [], ["--help"], ["-h"], ["--he"], ["-h", "local"], ["--help", "quotient"],
    ["local", "--help"], ["local", "-h"], ["lys", "--help"], ["weightfilt", "-h"],
    ["wlys", "-h"], ["zeta", "--help"], ["quotient", "--he"], [*_QUOT, "-h"],
    ["local", "--input", _GERM, "--help", "--bogus"],
    # unknown commands and flags
    ["bogus"], ["bogus", "--input", _GERM], ["LOCAL"], ["loc", "--input", _GERM],
    ["--bogus"], ["--bogus", "local", "--input", _GERM], ["local", "--bogus"],
    ["local", "--input", _GERM, "--bogus"], ["local", "--input", _GERM, "extra"],
    ["local", "--input", _GERM, "-x", "y", "--z=1"], [*_QUOT, "--bogus"],
    ["quotient", "x", "--d", "7", "--beta", "5"], ["local", "-i", _GERM], ["local", "-hx"],
    ["--input", _GERM, "local"], ["--format", "text", *_QUOT],
    # abbreviations and --flag=value
    ["local", "--inp", _GERM], ["local", "--i", _GERM], ["local", "--in=" + _GERM],
    ["quotient", "--d", "7", "--be", "5"], ["quotient", "--d=7", "--be=5", "--f", "text"],
    ["quotient", "--d", "7", "--b", "5"], ["weightfilt", "--input", _MATRIX, "--ce", "1"],
    ["weightfilt", "--input", _MATRIX, "--c=2"], ["local", "--format=dot", "--input", _GERM],
    # "--" and repeated flags
    ["local", "--", "--input", _GERM], ["local", "--input", _GERM, "--"],
    ["local", "--input", _GERM, "--", "x"], ["--", "local", "--input", _GERM],
    [*_QUOT, "--"], ["quotient", "--", "--d", "7"], [*_QUOT, "--d", "9"],
    ["local", "--input", _GRAPH, "--input", _GERM],
    ["local", "--input", _GERM, "--format", "text", "--format", "dot"],
    ["local", "--input=" + _GERM, "--format=text"],
    # missing values, bad choices and bad types
    ["local", "--input"], ["local", "--format"], ["quotient", "--d", "--beta", "5"],
    ["quotient", "--beta", "5"], ["quotient"], ["local"], ["local", "--input", ""],
    [*_QUOT, "--d"], ["local", "--input", _GERM, "--format", "xml"], [*_QUOT, "--format", "dot"],
    ["zeta", "--input", _GRAPH, "--n", "3"], ["zeta", "--input", _GRAPH, "--n", "x"],
    ["zeta", "--input", _GRAPH, "--n=2"], ["quotient", "--d", "x", "--beta", "5"],
    ["quotient", "--d", "-7", "--beta", "5"], ["quotient", "--d", " 7", "--beta", "5"],
    ["local", "--input", "-5"], ["local", "--input", "--format"],
    ["weightfilt", "--input", _MATRIX, "--m", "-2"], [*_QUOT, "-"],
    ["zeta", "--input", _GRAPH, "--n", "+3"], ["zeta", "--input", _GRAPH, "--n", "\u0667"],
    ["zeta", "--input", _GRAPH, "--n", "7_0"], [*_QUOT, "--format", "JSON"],
    ["quotient", "--d", "7_", "--beta", "5"],
]


def _with_files(argv) -> list:
    """argv with each stand-in replaced by the path of its tests/data file."""
    for name, file in _FILES.items():
        argv = [a.replace(name, str(DATA / file)) for a in argv]
    return argv


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=lambda argv: " ".join(argv) or "empty")
def test_main_parses_as_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    argv = _with_files(argv)
    expected = (_reference_main(list(argv)), *capsys.readouterr())
    assert run_cli(capsys, *argv) == expected


def test_plain_reader_gives_the_parsers_namespace():
    # main reads a plain argv from the option table, without argparse: it
    # takes every argv of PLAIN_ARGVS, and wherever it takes an argv its
    # namespace is the one the full parser gives
    parser = cli.build_parser()
    taken = []
    for argv in map(_with_files, ARGV_CORPUS):
        args = cli._plain_args(argv)
        if args is not None:
            assert vars(args) == vars(parser.parse_args(argv)), argv
            taken.append(argv)
    assert all(_with_files(argv) in taken for argv in PLAIN_ARGVS)
    assert len(taken) < len(ARGV_CORPUS)


@pytest.mark.parametrize("workload", ["filtration", "cone", "small_mix"])
def test_plain_reader_takes_every_benchmark_argv(tmp_path, workload):
    # a benchmark argv that fell back to argparse would read the same
    # reports, only slower
    parser = cli.build_parser()
    argvs = [list(argv) for argv in _seed_1_cases(workload, tmp_path)]
    assert argvs
    for argv in argvs:
        args = cli._plain_args(argv)
        assert args is not None, argv
        assert vars(args) == vars(parser.parse_args(argv)), argv


def test_missing_input_flag_exits_1(capsys):
    code, _, err = run_cli(capsys, "wlys")
    assert code == 1
    assert "--input" in err


def test_unknown_flag_exits_1(capsys):
    code, *_ = run_cli(capsys, "quotient", "--d", "7")
    assert code == 1


def test_help_exits_0(capsys):
    code, *_ = run_cli(capsys, "--help")
    assert code == 0


def test_parity_violation_exits_1_and_names_clause(capsys, tmp_path):
    data = json.loads((DATA / "sextic6_lys.json").read_text())
    data["curve"]["singular_points"][0]["mu"] = 3  # mu - r + 1 now odd
    data["points"][0]["mu"] = 3
    path = tmp_path / "parity.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "lys", "--input", str(path))
    assert code == 1
    assert "delta_invariant parity" in err


@pytest.mark.parametrize("d", [3, 4, 5])
def test_lys_concurrent_lines(capsys, tmp_path, d):
    # x^d + y^d + z^(d+1): the cone is d concurrent lines through one
    # ordinary d-fold point, and the monodromy the Thom-Sebastiani join
    # (Lambda_d - 1)^2 (Lambda_(d+1) - 1) with Lambda_d Lambda_(d+1) =
    # Lambda_(d(d+1)); it has finite order, so no size-three Jordan blocks
    lines = [{"id": f"l{i}", "degree": 1} for i in range(d)]
    point = {"id": "p", "mu": (d - 1) ** 2, "r": d}
    data = {
        "curve": {
            "degree": d,
            "components": lines,
            "singular_points": [{**point, "branches_on": {c["id"]: 1 for c in lines}}],
        },
        "points": [{**point, "charpoly": {"1": 1, str(d): d - 2}, "jordan1": {}}],
    }
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "lys", "--input", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["milnor_number"] == (d - 1) ** 2 * d
    want = {str(d * (d + 1)): d - 2, str(d): 2 - d, str(d + 1): 1, "1": -1}
    assert report["char_poly"]["factors"] == want
    assert report["jordan2"]["factors"] == {} and report["jordan2"]["expansion"] == [1]


def test_lys_points_mismatch_exits_1(capsys, tmp_path):
    data = json.loads((DATA / "sextic144_lys.json").read_text())
    data["points"] = data["points"][:2]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "lys", "--input", str(path))
    assert code == 1
    assert "does not match" in err


def _drop_first_charpoly(data):
    del data["points"][0]["charpoly"]


@pytest.mark.parametrize(
    "mutate,field",
    [
        (_drop_first_charpoly, "charpoly"),
        (lambda data: data.update(k="x"), "k"),
        (lambda data: data.update(genera={"c": "x"}), "genera"),
        (lambda data: data.update(suspension_flags=["a"]), "suspension_flags"),
        (lambda data: data.update(points=5), "points"),
    ],
    ids=["point-without-charpoly", "k-not-int", "genus-not-int", "flags-not-map", "points-not-list"],
)
def test_lys_malformed_field_exits_1(capsys, tmp_path, mutate, field):
    data = json.loads((DATA / "sextic6_lys.json").read_text())
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "lys", "--input", str(path))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert field in lines[0]


def _set(path, value):
    """Mutation that puts value at the key path inside the input data."""

    def mutate(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


def _as_text(data):
    # json.dumps writes float("inf") as Infinity; 1e400 is the JSON number
    # that Python parses to it.
    return json.dumps(data).replace("Infinity", "1e400")


@pytest.mark.parametrize(
    "command,source,mutate,field",
    [
        ("weightfilt", "unipotent2.json", _set((0, 0), None), "$[0][0]"),
        ("weightfilt", "unipotent2.json", _set((0, 0), float("inf")), "$[0][0]"),
        ("wlys", "wlys_s10.json", _set(("points",), 5), "points"),
        ("wlys", "wlys_s10.json", _set(("poly", 0, "c"), float("inf")), "$.poly[0].c"),
        ("zeta", "zeta_cusp.json", _set(("strict",), 5), "strict"),
        ("zeta", "zeta_cusp.json", _set(("vertices", 0, "multiplicity"), float("inf")), "$.vertices[0]"),
        ("lys", "sextic6_lys.json", _set(("curve", "singular_points", 0, "branches_on"), []), "curve"),
    ],
    ids=[
        "weightfilt-null-entry",
        "weightfilt-huge-entry",
        "wlys-points-not-list",
        "wlys-huge-coefficient",
        "zeta-strict-not-list",
        "zeta-huge-multiplicity",
        "lys-branches-on-list",
    ],
)
def test_malformed_field_exits_1(capsys, tmp_path, command, source, mutate, field):
    data = json.loads((DATA / source).read_text())
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(_as_text(data))
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert field in lines[0]


@pytest.mark.parametrize("where", [("points", 1, "charpoly"), ("alexander",)],
                         ids=["charpoly", "alexander"])
def test_factor_map_key_past_the_digit_limit_is_located_at_the_key(capsys, tmp_path, where):
    # more digits than the interpreter converts: the message names the key,
    # cut to the first 40 characters of its JSON text
    data = json.loads((DATA / "sextic6_lys.json").read_text())
    _set(where, {"1" * 5000: 1})(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "lys", "--input", str(path))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 300, err
    map_at = "$" + "".join(f"[{s}]" if type(s) is int else f".{s}" for s in where)
    assert lines[0].startswith(f'error: bad {map_at}["{"1" * 39}]: '), err
    assert lines[0].endswith(f"]: {_PAST_THE_DIGIT_LIMIT}"), err


def test_germ_coefficient_past_the_digit_limit_exits_1(capsys, tmp_path):
    path = tmp_path / "germ.json"
    path.write_text(json.dumps({"germ": [{"i": 2, "j": 0, "c": "1" * 5000}, {"i": 0, "j": 3, "c": 1}]}))
    code, out, err = run_cli(capsys, "local", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: bad $.germ[0].c: {_PAST_THE_DIGIT_LIMIT}\n"


def _renamed(path, key, new_key):
    """Mutation that renames the key of the object at the key path."""

    def mutate(data):
        node = data
        for step in path:
            node = node[step]
        node[new_key] = node.pop(key)

    return mutate


@pytest.mark.parametrize(
    "mutate,line",
    [
        (
            _renamed(("points", 2), "jordan1", "jordan"),
            'undeclared key "jordan" in $.points[2]; declared: id mu r charpoly jordan1',
        ),
        (
            _set(("sufspension_flags",), {"p1": True}),
            'undeclared key "sufspension_flags" in $; '
            "declared: curve k points alexander graph genera suspension_flags",
        ),
        (
            _set(("curve", "degre"), 6),
            'undeclared key "degre" in $.curve; declared: degree components singular_points',
        ),
    ],
    ids=["jordan", "sufspension-flags", "degre"],
)
def test_undeclared_key_exits_1(capsys, tmp_path, mutate, line):
    # every object of the schemas has additionalProperties false: a
    # misspelt key would otherwise drop the data under it unnoticed
    data = json.loads((DATA / "sextic6_lys.json").read_text())
    mutate(data)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "lys", "--input", str(path)) == (1, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "mutate,line",
    [
        (
            _set(("points", 0, "id"), "p9"),
            "point 0 has id 'p9', which names no curve singular point with mu = 2, r = 1",
        ),
        (
            _set(("suspension_flags",), {**{f"p{n}": True for n in range(1, 7)}, "p66": False}),
            "suspension flags given for unknown points: ['p66']",
        ),
    ],
    ids=["point-id", "suspension-flag"],
)
def test_unknown_point_id_exits_1(capsys, tmp_path, mutate, line):
    # data hanging on an id that names no singular point of the curve
    # would otherwise be matched by (mu, r) or dropped unnoticed
    data = json.loads((DATA / "sextic6_lys.json").read_text())
    mutate(data)
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "lys", "--k", "2", "--input", str(path)) == (1, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "mutate,line",
    [
        (_set(("genera",), {"c": -1}), "bad $.genera.c: expected >= 0, got -1"),
        (_set(("k",), 0), "bad $.k: expected >= 1, got 0"),
        (
            _set(("curve", "singular_points", 0, "mu"), 0),
            "bad $.curve.singular_points[0].mu: expected >= 1, got 0",
        ),
    ],
    ids=["negative-genus", "k-0", "mu-0"],
)
def test_below_schema_minimum_exits_1(capsys, tmp_path, mutate, line):
    # lys-input.schema.json gives genera a minimum of 0, and k and a curve
    # singular point's mu a minimum of 1; no sample input has genera or k
    data = json.loads((DATA / "sextic6_lys.json").read_text())
    mutate(data)
    path = tmp_path / "minimum.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "lys", "--input", str(path)) == (1, "", f"error: {line}\n")


_LINK_VERTEX = {"id": "c", "self_int": 36, "marked": True, "genus": 4}
# 16 nodes on a sextic: 2 sum(delta_p) = 32 > (d-1)(d-2) + 2 min(d-1, 16) = 30
_NODES = [{"id": f"n{i}", "mu": 1, "r": 2} for i in range(16)]


def _sixteen_nodes(data):
    data["curve"]["singular_points"] = [{**n, "branches_on": {"c": 2}} for n in _NODES]
    data["points"] = [{**n, "charpoly": {"1": 1}} for n in _NODES]


@pytest.mark.parametrize(
    "mutate,line",
    [
        (
            _set(("curve", "components"), [{"id": "c", "degree": 3}, {"id": "c", "degree": 3}]),
            "duplicate component ids: ['c', 'c']",
        ),
        (
            _set(("curve", "components", 0, "degree"), 0),
            "bad $.curve.components[0].degree: expected >= 1, got 0",
        ),
        (_set(("curve", "degree"), 0), "bad $.curve.degree: expected >= 1, got 0"),
        (
            _set(("curve", "singular_points", 1, "id"), "p1"),
            "duplicate singular point ids: ['p1', 'p1', 'p3', 'p4', 'p5', 'p6']",
        ),
        (
            _set(("curve", "singular_points", 0, "branches_on"), {"c": 0}),
            "bad $.curve.singular_points[0].branches_on.c: expected >= 1, got 0",
        ),
        (
            _set(("graph", "vertices", 0, "genus"), -1),
            "bad $.graph.vertices[0].genus: expected >= 0, got -1",
        ),
        (_set(("graph", "vertices"), [_LINK_VERTEX] * 2), "duplicate vertex ids: ['c', 'c']"),
        (_set(("graph", "edges"), [["c", "x"]]), "edge ('c', 'x') references unknown vertex"),
        (_set(("graph", "edges"), [["c", "c"]]), "loop edge at 'c' not allowed"),
        (
            _set(("graph", "edges"), [["c"] * 3]),
            'bad $.graph.edges[0]: expected 2 or fewer entries, got ["c", "c", "c"]',
        ),
        (_set(("genera",), {"z": 0}), "genera given for unknown components: ['z']"),
        (
            _set(("graph", "vertices"), [_LINK_VERTEX, {"id": "e", "self_int": -2, "genus": 1}]),
            "vertex 'e': unmarked vertices have genus 0, got 1",
        ),
        (
            _set(("graph", "vertices"), [_LINK_VERTEX, {**_LINK_VERTEX, "id": "d"}]),
            "2 marked vertices but 1 component degrees",
        ),
        (
            _set(("curve", "singular_points", 0, "branches_on"), {"c": 2}),
            "point 'p1': branch counts [2] sum to 2, expected r = 1",
        ),
        (
            _set(("curve", "components", 0, "degree"), 5),
            "component degrees sum to 5, curve degree is 6",
        ),
        (
            _set(("curve", "singular_points", 0, "branches_on"), {"z": 1}),
            "point 'p1' references unknown component 'z'",
        ),
        (
            lambda data: data["curve"].update(degree=3, components=[{"id": "c", "degree": 3}]),
            "degree-3 component with delta sum 6 would have negative genus -5",
        ),
        (
            _set(("points",), []),
            "points list does not match the curve's singular points (curve has 6, got 0)",
        ),
        (_set(("points", 0, "charpoly"), {"1": 1}), "deg Delta_p = 1 does not match mu_p = 2"),
        (
            lambda data: data.update(
                curve={"degree": 1, "components": [{"id": "c", "degree": 1}]}, points=[]
            ),
            "cone degree d = 1; need d >= 2",
        ),
        (
            _sixteen_nodes,
            "2 sum(delta_p) = 32 exceeds (d-1)(d-2) + 2 min(d-1, sum(r_p-1)) = 30: "
            "no reduced curve of degree 6 has these singular points",
        ),
    ],
    ids=[
        "duplicate-component",
        "component-degree-0",
        "curve-degree-0",
        "duplicate-point",
        "branch-count-0",
        "vertex-genus-negative",
        "duplicate-vertex",
        "edge-to-unknown-vertex",
        "loop-edge",
        "edge-of-three-ids",
        "genus-of-unknown-component",
        "unmarked-vertex-of-genus-1",
        "marked-count-mismatch",
        "branch-sum",
        "degree-sum",
        "unknown-component",
        "negative-genus-from-curve",
        "points-mismatch",
        "charpoly-degree",
        "cone-degree-1",
        "genus-bound",
    ],
)
def test_lys_broken_curve_or_graph_invariant_exits_1(capsys, tmp_path, mutate, line):
    data = json.loads((DATA / "sextic6_lys.json").read_text())
    mutate(data)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "lys", "--input", str(path)) == (1, "", f"error: {line}\n")


def test_lys_k_0_exits_1(capsys):
    # --k overrides the input's k, past the schema's minimum of 1
    argv = ("lys", "--input", str(DATA / "sextic6_lys.json"), "--k", "0")
    assert run_cli(capsys, *argv) == (1, "", "error: offset k = 0; need k >= 1\n")


def _s10_with_weights_of_gcd_2():
    return {**json.loads((DATA / "wlys_s10.json").read_text()), "weights": [2, 2, 4]}


@pytest.mark.parametrize(
    "make",
    [lambda: json.loads((DATA / "wlys_s10.json").read_text()), _fermat_cubic,
     _s10_with_weights_of_gcd_2],
    ids=["wlys_s10", "weighted-homogeneous", "weights-gcd-2"],
)
def test_wlys_broken_point_invariant_exits_1(capsys, tmp_path, make):
    # the points are read before the decomposition, so a weighted-homogeneous
    # germ, which has no comparison form, rejects the point too, and so do
    # weights that the decomposition rejects
    data = make()
    data["points"] = [{"coords": ["0", "0", "0"]}]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "wlys", "--input", str(path)) == (
        1, "", "error: point must have a nonzero coordinate\n"
    )


@pytest.mark.parametrize(
    "weights, line",
    [
        ([2, 2, 4], "weights (2, 2, 4) must have gcd 1"),
        ([0, 1, 1], "bad $.weights[0]: expected >= 1, got 0"),
    ],
    ids=["gcd-2", "zero-weight"],
)
def test_wlys_bad_weights_exit_1(capsys, tmp_path, weights, line):
    data = json.loads((DATA / "wlys_s10.json").read_text())
    data["weights"] = weights
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "wlys", "--input", str(path)) == (1, "", f"error: {line}\n")


def test_lys_names_components_that_miss_the_common_point(capsys, tmp_path):
    # three lines, of which only l0 and l1 pass through the one singular point
    lines = [{"id": f"l{i}", "degree": 1} for i in range(3)]
    point = {"id": "p", "mu": 1, "r": 2}
    data = {
        "curve": {
            "degree": 3,
            "components": lines,
            "singular_points": [{**point, "branches_on": {"l0": 1, "l1": 1}}],
        },
        "points": [{**point, "charpoly": {"1": 1}}],
        "genera": {"l0": 0, "l1": 0},
    }
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "lys", "--input", str(path))
    assert (code, err) == (0, "")
    reasons = ["components ['l2'] miss the common point 'p'"]
    assert json.loads(out)["qhs"] == {"is_qhs": False, "reasons": reasons}


# Matrices that matrix.schema.json rejects, with the part of
# the one error line that locates the fault.
OFF_SCHEMA_MATRICES = [
    ([[True, True], [False, True]], "[0][0]"),
    ([[1, 0.1], [0, 1]], "[0][1]"),
    ([[1, 0], [" 1 ", 1]], "[1][0]"),
    ([[1, 0], [0, "1.5"]], "[1][1]"),
    ([["1e2"]], "[0][0]"),
    ([], "1 or more entries"),
]
OFF_SCHEMA_IDS = ["boolean", "float", "padded-string", "decimal-string", "exponent-string", "empty"]


def test_weightfilt_zero_denominator_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[["1", "0"], ["0", "1/0"]]')
    code, out, err = run_cli(capsys, "weightfilt", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == 'error: bad $[1][1]: zero denominator in "1/0"\n'


@pytest.mark.parametrize("matrix,field", OFF_SCHEMA_MATRICES, ids=OFF_SCHEMA_IDS)
def test_weightfilt_off_schema_matrix_exits_1(capsys, tmp_path, matrix, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(matrix))
    code, out, err = run_cli(capsys, "weightfilt", "--input", str(path))
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert field in lines[0]


# Each input in tests/data with the argv that reports on it.
INPUT_CASES = [
    (argv, Path(argv[argv.index("--input") + 1]).name) for argv, _ in GOLDEN_CASES if "--input" in argv
]
MUTANTS = (None, float("inf"), [], {}, 5, "x", True)
SCHEMAS = Path(cli.__file__).parent / "schemas"
SCHEMA_OF = {
    "local": "germ", "lys": "lys-input", "weightfilt": "matrix", "wlys": "wlys-input", "zeta": "zeta-graph"
}


def _declared_objects(node, schema, root, prefix=()):
    """Key paths of the nodes of a document that its schema makes objects
    with declared keys only (additionalProperties false)."""
    ref = schema.get("$ref")
    if ref and ref.startswith("#/"):
        schema = root
        for part in ref[2:].split("/"):
            schema = schema[part]
    elif ref:
        root = schema = json.loads((SCHEMAS / ref).read_text())
    if isinstance(node, dict) and schema.get("additionalProperties") is False:
        yield prefix
        for key, child in node.items():
            yield from _declared_objects(child, schema["properties"][key], root, prefix + (key,))
    elif isinstance(node, list) and "items" in schema:
        for n, child in enumerate(node):
            yield from _declared_objects(child, schema["items"], root, prefix + (n,))


def _node_paths(node, prefix=()):
    """Key paths of every node of a JSON document, the root first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _node_paths(child, prefix + (key,))


def _dropped(data, path):
    """A copy of the input data without the key at the end of the path."""
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return data


def _misshapen_matrices(rows):
    """Non-square and ragged variants of a square matrix."""
    n = len(rows)
    yield rows[:-1]  # a row short
    yield rows + [rows[0]]  # a row too many
    yield [row + ["0"] for row in rows]  # a column too many
    for i in range(n):
        yield rows[:i] + [rows[i][:-1]] + rows[i + 1 :]  # one row short of an entry
        yield rows[:i] + [rows[i] + ["0"]] + rows[i + 1 :]  # one row with an extra entry


@pytest.mark.parametrize("argv,source", INPUT_CASES, ids=[source for _, source in INPUT_CASES])
def test_every_node_mutation_keeps_exit_contract(capsys, tmp_path, argv, source):
    # each node of the input in turn replaced by each mutant, and each key
    # of each object in turn dropped: exit 0, 1 or 2, and a failure says so
    # in one stderr line; a weightfilt matrix that is not square, and an
    # object of the schema with a key it does not declare, exit 1
    original = json.loads((DATA / source).read_text())
    path = tmp_path / source
    argv = [str(path) if arg.endswith(source) else arg for arg in argv]
    variants = []  # (description, data, allowed exit codes)
    for key_path in _node_paths(original):
        for value in MUTANTS:
            data = json.loads(json.dumps(original))
            if key_path:
                _set(key_path, value)(data)
            else:
                data = value
            variants.append(((key_path, value), data, (0, 1, 2)))
    for key_path in _node_paths(original):
        if key_path and isinstance(key_path[-1], str):  # a key of an object
            variants.append((("drop",) + key_path, _dropped(original, key_path), (0, 1, 2)))
    schema = json.loads((SCHEMAS / f"{SCHEMA_OF[argv[0]]}.schema.json").read_text())
    for key_path in _declared_objects(original, schema, schema):
        data = json.loads(json.dumps(original))
        _set(key_path + ("undeclared",), 1)(data)
        variants.append((("add",) + key_path, data, (1,)))
    if argv[0] == "weightfilt":
        for rows in _misshapen_matrices(original):
            variants.append((rows, rows, (1,)))
    broken = []
    for described, data, allowed in variants:
        path.write_text(_as_text(data))
        code, _, err = run_cli(capsys, *argv)
        if code not in allowed or (code != 0 and len(err.splitlines()) != 1):
            broken.append((described, code, err))
    assert not broken, broken[:5]


def test_weightfilt_bad_power_exits_1(capsys, tmp_path):
    path = tmp_path / "order6.json"
    # companion matrix of t^2 - t + 1: order 6, so m=4 cannot work
    path.write_text('[["0", "-1"], ["1", "1"]]')
    code, _, err = run_cli(capsys, "weightfilt", "--input", str(path), "--m", "4")
    assert code == 1
    assert "power of t-1" in err


def test_weightfilt_non_quasiunipotent_exits_1(capsys, tmp_path):
    path = tmp_path / "stretch.json"
    path.write_text('[["2", "0"], ["0", "1"]]')
    code, _, err = run_cli(capsys, "weightfilt", "--input", str(path))
    assert code == 1
    assert "cyclotomic" in err


def test_zeta_n2_impossible_exits_1(capsys):
    # the cusp zeta function is not a degree-2 characteristic polynomial
    code, _, err = run_cli(capsys, "zeta", "--input", str(DATA / "zeta_cusp.json"), "--n", "2")
    assert code == 1


def _repeat_vertex(data):
    data["vertices"].append(dict(data["vertices"][0]))


@pytest.mark.parametrize(
    "mutate,named",
    [
        (_repeat_vertex, '"E1"'),
        (_set(("strict",), ["S1", "X9"]), '"X9"'),
        (_set(("vertices", 3, "multiplicity"), -7), "$.vertices[3].multiplicity"),
        (_set(("vertices", 3, "multiplicity"), 0), "$.vertices[3].multiplicity"),
        (_set(("vertices", 0, "multiplicity"), 0), "$.vertices[0].multiplicity"),
        (_set(("vertices", 1, "genus"), -1), "$.vertices[1].genus"),
        (_set(("edges",), [["E1", "S1", "C1"]]), "$.edges[0]"),
        (_set(("vertices", 0, "self_int"), "-1"), "$.vertices[0].self_int"),
    ],
    ids=[
        "repeated-id",
        "unknown-strict-id",
        "strict-negative",
        "strict-zero",
        "exceptional-zero",
        "negative-genus",
        "edge-of-three-ids",
        "self-int-string",
    ],
)
def test_zeta_bad_vertex_data_exits_1(capsys, tmp_path, mutate, named):
    # of the first six, each but the exceptional multiplicity used to exit 0:
    # a repeated id replaced the earlier vertex, strict vertices and genera
    # were never checked; the edges and self-intersections that zeta ignores
    # must still have their schema's shape
    data = json.loads((DATA / "zeta_cusp.json").read_text())
    mutate(data)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "zeta", "--input", str(path))
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0], err


# ---------------------------------------------------------------------------
# local and zeta agree: the smooth graph of a local report as zeta input
# ---------------------------------------------------------------------------


def _quiet_main(argv) -> str:
    """stdout of a report that must exit 0 with nothing on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue()


def _seed_1_cases(workload, root):
    """The argvs of a perfbench workload at seed 1, inputs written under root."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [argv for argv, _ in workloads.generate(workload, 1, root, DATA)]


@pytest.fixture(scope="module")
def local_zeta_pairs(tmp_path_factory):
    """(local report, zeta input) for each tests/data germ and each `local`
    input of perfbench's small_mix workload at seed 1; the zeta input is
    the report's smooth graph as it is."""
    root = tmp_path_factory.mktemp("small_mix")
    cases = _seed_1_cases("small_mix", root)
    germs = sorted(DATA.glob("*_germ.json")) + [root / a[2] for a in cases if a[0] == "local"]
    pairs = []
    for germ in germs:
        report = json.loads(_quiet_main(["local", "--input", str(germ)]))
        pairs.append((report, report["smooth_graph"]))
    return pairs


def _zeta(graph, path) -> str:
    path.write_text(json.dumps(graph))
    return _quiet_main(["zeta", "--input", str(path), "--n", "1"])


def test_zeta_of_the_local_graph_gives_its_char_poly(local_zeta_pairs, tmp_path):
    assert len(local_zeta_pairs) == 171
    for report, graph in local_zeta_pairs:
        assert json.loads(_zeta(graph, tmp_path / "graph.json"))["char_poly"] == report["char_poly"]


def test_zeta_of_the_local_graph_of_each_convenient_germ(capsys, tmp_path):
    # the seeded family of tools/report_hashes.py, whose walks blow up
    # quotient points and meet polygons of several faces
    spec = importlib.util.spec_from_file_location(
        "report_hashes", Path(__file__).resolve().parent.parent / "tools" / "report_hashes.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    path = tmp_path / "germ.json"
    codes = []
    for germ in tool.convenient_germs():
        path.write_text(json.dumps(germ))
        code, out, _ = run_cli(capsys, "local", "--input", str(path))
        codes.append(code)
        if code == 0:
            report = json.loads(out)
            zeta = json.loads(_zeta(report["smooth_graph"], tmp_path / "graph.json"))
            assert zeta["char_poly"] == report["char_poly"], germ
    assert (codes.count(0), codes.count(2)) == (138, 12)


def test_zeta_ignores_the_vertex_order(local_zeta_pairs, tmp_path):
    rng = random.Random(12)
    for _, graph in local_zeta_pairs:
        before = _zeta(graph, tmp_path / "graph.json")
        shuffled = dict(graph, vertices=rng.sample(graph["vertices"], len(graph["vertices"])))
        assert _zeta(shuffled, tmp_path / "shuffled.json") == before


def test_lys_ignores_the_order_of_the_points(tmp_path_factory, tmp_path):
    # the same cone with its local data and its singular points listed in
    # another order: every report field is the same, except that the QHS
    # reasons follow the order of the singular points
    root = tmp_path_factory.mktemp("cone")
    inputs = sorted(DATA.glob("*_lys.json")) + [root / a[2] for a in _seed_1_cases("cone", root)]
    rng = random.Random(27)
    reordered = 0
    for path in inputs:
        data = json.loads(path.read_text())
        curve = data["curve"]
        data["points"] = rng.sample(data["points"], len(data["points"]))
        curve["singular_points"] = rng.sample(curve["singular_points"], len(curve["singular_points"]))
        shuffled = tmp_path / "shuffled.json"
        shuffled.write_text(json.dumps(data))
        before = json.loads(_quiet_main(["lys", "--input", str(path)]))
        after = json.loads(_quiet_main(["lys", "--input", str(shuffled)]))
        reasons, shuffled_reasons = before["qhs"].pop("reasons"), after["qhs"].pop("reasons")
        assert sorted(shuffled_reasons) == sorted(reasons), path.name
        assert after == before, path.name
        reordered += shuffled_reasons != reasons
    assert len(inputs) == 42 and reordered > 0


def test_weightfilt_report_is_that_of_the_transpose_and_of_conjugates(tmp_path_factory, tmp_path):
    # h, its transpose and P h P^-1 for unimodular P have one Jordan form,
    # so one report, byte for byte
    helpers = _test_module("test_weightfilt")
    root = tmp_path_factory.mktemp("filtration")
    inputs = [root / a[2] for a in _seed_1_cases("filtration", root)]
    rng = random.Random(29)
    for path in inputs:
        h = helpers.matrix_from_json(json.loads(path.read_text()))
        report = _quiet_main(["weightfilt", "--input", str(path)])
        n = len(h)
        others = [[list(col) for col in zip(*h)]]
        others += [helpers.conjugate(h, helpers.random_unimodular(n, rng)) for _ in range(2)]
        for other in others:
            moved = tmp_path / "moved.json"
            moved.write_text(json.dumps([[str(x) for x in row] for row in other]))
            assert _quiet_main(["weightfilt", "--input", str(moved)]) == report, path.name
    assert len(inputs) == 34


# (i, j) -> c for c u^i v^j: the normal forms of the germs that the
# catalogs of tests/test_acceptance.py and tests/test_monodromy.py name
NORMAL_FORMS = {
    "node": {(1, 1): 1},
    "cusp": {(0, 2): 1, (3, 0): -1},
    "tacnode": {(0, 2): 1, (4, 0): -1},
    "A4": {(0, 2): 1, (5, 0): -1},
    "E6": {(3, 0): 1, (0, 4): 1},
    "E7": {(3, 0): 1, (1, 3): 1},
    "E8": {(3, 0): 1, (0, 5): 1},
}


def _test_module(name):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_local_normal_forms_match_the_catalogs(capsys, tmp_path):
    # (mu, r, Delta) that `local` finds for each normal form is the row the
    # catalogs state, and the local data each tests/data lys input gives
    found = {}
    for name, germ in NORMAL_FORMS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"germ": [{"i": i, "j": j, "c": c} for (i, j), c in germ.items()]}))
        code, out, err = run_cli(capsys, "local", "--input", str(path))
        assert (code, err) == (0, ""), name
        report = json.loads(out)
        found[name] = (report["mu"], report["r"], report["char_poly"]["factors"])
    for catalog in (_test_module("test_acceptance").CATALOG, _test_module("test_monodromy").LOCAL_CATALOG):
        stated = {n: (mu, r, {str(m): e for m, e in delta.factors}) for n, (mu, r, delta) in catalog.items()}
        assert stated == found
    by_mu_r = {(mu, r): factors for mu, r, factors in found.values()}
    points = [p for path in sorted(DATA.glob("sextic*_lys.json")) for p in json.loads(path.read_text())["points"]]
    assert len(points) == 9
    for p in points:
        assert p["charpoly"] == by_mu_r[p["mu"], p["r"]], p


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


@pytest.mark.skipif(shutil.which("singcalc") is None, reason="package not installed")
def test_console_script():
    out = subprocess.run(
        ["singcalc", "quotient", "--d", "7", "--beta", "5"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["chain_self_intersections"] == [-2, -2, -3]


def test_reused_parser_reports_as_fresh_parsers(capsys):
    # main builds its parser once per process; a run of calls on it gives
    # the exit codes, stdout and stderr of calls that each build their own.
    # None of these argvs is plain, so each goes to the parser.
    runs = [
        ("quotient", "--d", "7", "--beta", "5", "--bogus"),
        ("--help",),
        ("quotient", "--d", "7", "--beta", "5", "--format=text"),
        ("weightfilt", "--input", str(DATA / "unipotent2.json"), "--cent", "2"),
    ]
    assert all(cli._plain_args(list(argv)) is None for argv in runs)
    cli._parser.cache_clear()
    reused = [run_cli(capsys, *argv) for argv in runs]
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, 0, 0, 0]
    assert "--bogus" in reused[0][2] and "usage: singcalc" in reused[1][1]


def test_module_invocation():
    # run the package under test, also from a checkout that is not installed
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "singcalc.cli", "quotient", "--d", "7", "--beta", "5"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["type"] == "1/7(1,3)"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("quotient", "--d", "7", "--beta", "5"), 0, None),
        (("local", "--input", "{tmp}/absent.json"), 1, "input file not found"),
        (("quotient", "--d", "7", "--beta", "5", "--bogus"), 1, "--bogus"),
        (("local", "--input", "{tmp}/germ.json"), 2, "repeated coordinate factor"),
    ],
    ids=["ok", "missing-input", "bogus-flag", "unsupported-germ"],
)
def test_module_exit_codes(tmp_path, argv, code, message):
    # the exit-code contract holds for the process, not only for main()
    germ = {"germ": [{"i": 2, "j": 2, "c": 1}, {"i": 5, "j": 0, "c": 1}]}  # x^2 y^2 + x^5
    (tmp_path / "germ.json").write_text(json.dumps(germ))
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "singcalc.cli", *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == code, out.stderr
    if code == 0:
        assert out.stderr == ""
        assert json.loads(out.stdout)["chain_self_intersections"] == [-2, -2, -3]
    else:
        assert out.stdout == "" and message in out.stderr


# ---------------------------------------------------------------------------
# published schemas describe the shipped inputs
# ---------------------------------------------------------------------------

SCHEMAS = Path(cli.__file__).parent / "schemas"

SCHEMA_CASES = [
    ("germ.schema.json", "cusp_germ.json"),
    ("germ.schema.json", "a4_germ.json"),
    ("lys-input.schema.json", "sextic6_lys.json"),
    ("lys-input.schema.json", "sextic144_lys.json"),
    ("matrix.schema.json", "unipotent2.json"),
    ("wlys-input.schema.json", "wlys_s10.json"),
    ("zeta-graph.schema.json", "zeta_cusp.json"),
]


@pytest.mark.parametrize("schema,sample", SCHEMA_CASES)
def test_schema_validates_sample(schema, sample):
    jsonschema = pytest.importorskip("jsonschema")
    referencing = pytest.importorskip("referencing")
    schema_doc = json.loads((SCHEMAS / schema).read_text())
    instance = json.loads((DATA / sample).read_text())
    registry = referencing.Registry().with_resources(
        (path.name, referencing.Resource.from_contents(json.loads(path.read_text())))
        for path in SCHEMAS.glob("*.schema.json")
    )
    validator_cls = jsonschema.validators.validator_for(schema_doc)
    validator_cls(schema_doc, registry=registry).validate(instance)


@pytest.mark.parametrize("matrix", [matrix for matrix, _ in OFF_SCHEMA_MATRICES], ids=OFF_SCHEMA_IDS)
def test_matrix_schema_rejects_off_schema_samples(matrix):
    jsonschema = pytest.importorskip("jsonschema")
    schema_doc = json.loads((SCHEMAS / "matrix.schema.json").read_text())
    assert not jsonschema.validators.validator_for(schema_doc)(schema_doc).is_valid(matrix)


# Values that each node of a sample stands in for, one at a time: numbers
# that are no integers, booleans, strings that are no numbers, containers
# of the wrong type, null, and integers at and below every minimum.
TYPE_MUTANTS = (2.5, 1.0, True, False, "0.1", "1e2", "3", ["s"], {}, None, "x", 0, -1, -(10**30))
SCHEMA_COMMANDS = {
    "germ.schema.json": "local",
    "lys-input.schema.json": "lys",
    "matrix.schema.json": "weightfilt",
    "wlys-input.schema.json": "wlys",
    "zeta-graph.schema.json": "zeta",
}


def _schema_validator(schema):
    jsonschema = pytest.importorskip("jsonschema")
    referencing = pytest.importorskip("referencing")
    schema_doc = json.loads((SCHEMAS / schema).read_text())
    registry = referencing.Registry().with_resources(
        (path.name, referencing.Resource.from_contents(json.loads(path.read_text())))
        for path in SCHEMAS.glob("*.schema.json")
    )
    return jsonschema.validators.validator_for(schema_doc)(schema_doc, registry=registry)


def _rejected_not_exit_1(capsys, tmp_path, schema, sample, variants):
    """How many of the (description, data) variants of a sample the
    schema rejects, and those of them that the CLI does not answer with
    exit 1, nothing on stdout and one line on stderr."""
    validator = _schema_validator(schema)
    path = tmp_path / sample
    rejected, broken = 0, []
    for described, data in variants:
        if validator.is_valid(data):
            continue
        rejected += 1
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, SCHEMA_COMMANDS[schema], "--input", str(path))
        if (code, out) != (1, "") or len(err.splitlines()) != 1:
            broken.append((described, code, err))
    return rejected, broken


@pytest.mark.parametrize("schema,sample", SCHEMA_CASES)
def test_schema_rejected_type_mutants_exit_1(capsys, tmp_path, schema, sample):
    # every mutant that the schema rejects is malformed input: exit 1,
    # nothing on stdout and one line on stderr
    original = json.loads((DATA / sample).read_text())

    def mutants():
        for key_path in _node_paths(original):
            for value in TYPE_MUTANTS:
                data = json.loads(json.dumps(original))
                if key_path:
                    _set(key_path, value)(data)
                else:
                    data = value
                yield (key_path, value), data

    rejected, broken = _rejected_not_exit_1(capsys, tmp_path, schema, sample, mutants())
    assert rejected > 0
    assert not broken, broken[:5]


@pytest.mark.parametrize("schema,sample", SCHEMA_CASES)
def test_schema_rejected_dropped_keys_exit_1(capsys, tmp_path, schema, sample):
    # each key of each object dropped in turn: where the schema calls the
    # key required the reader must too, with exit 1 and one stderr line
    original = json.loads((DATA / sample).read_text())
    drops = [
        (key_path, _dropped(original, key_path))
        for key_path in _node_paths(original)
        if key_path and isinstance(key_path[-1], str)
    ]
    _, broken = _rejected_not_exit_1(capsys, tmp_path, schema, sample, drops)
    assert not broken, broken[:5]


def test_wlys_flags_array_exits_0(capsys, tmp_path):
    # flags are the schema's array of strings
    data = json.loads((DATA / "wlys_s10.json").read_text())
    data["points"][0]["flags"] = ["transversal"]
    path = tmp_path / "flags.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "wlys", "--input", str(path))
    assert (code, err) == (0, "")
    assert out == (DATA / "wlys_s10.golden.json").read_text()


@pytest.mark.parametrize("fmt", ["json", "text", "dot"])
def test_non_polynomial_product_exits_1_in_every_format(capsys, tmp_path, fmt):
    # text and dot reports do not print the Alexander polynomial, and text
    # does not expand above degree 40, but no format reports a non-polynomial
    data = json.loads((DATA / "sextic6_lys.json").read_text())
    data["alexander"] = {"2": -1}
    path = tmp_path / "alexander.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "lys", "--input", str(path), "--format", fmt)
    assert (code, out) == (1, "")
    assert err == "error: not a polynomial: Phi_1 has negative multiplicity\n"


# ---------------------------------------------------------------------------
# the JSON writer against the stock encoder
# ---------------------------------------------------------------------------


def _stock_json(report) -> str:
    """The report as json.dumps writes it with every expansion a plain list
    and every Fraction the string of its str(), as `cli._write` spells it."""

    def fraction(value):
        if type(value) is Fraction:
            return str(value)
        raise TypeError(f"{type(value).__name__} is not JSON serializable")

    def block(c):
        dense = cyclo.expand(c)
        return {
            "factors": {str(m): e for m, e in c.factors},
            "expansion": list(dense.coeffs),
            "degree": dense.degree,
            "text": cli._poly_text(c, dense),
        }

    return json.dumps(cli._products(report, block), default=fraction, sort_keys=True, indent=2) + "\n"


def _recording_emit(monkeypatch):
    """Patch cli._emit to keep each JSON report it writes; returns the list."""
    reports, emit = [], cli._emit

    def recording(report, fmt, *renderers):
        if fmt == "json":
            reports.append(report)
        return emit(report, fmt, *renderers)

    monkeypatch.setattr(cli, "_emit", recording)
    return reports


@pytest.mark.parametrize("golden", sorted(p.name for p in DATA.glob("*.golden.json")))
def test_golden_is_stock_encoder_text(golden):
    out = (DATA / golden).read_text()
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


def _random_product(rng):
    """A polynomial product; its exponent sum is odd or even at random."""
    shape = rng.randrange(4)
    if shape == 0:
        return cyclo.CycloProduct({rng.randint(1, 3): rng.randint(1, 4)})
    if shape == 1:
        return cyclo.cyclotomic({n: rng.randint(1, 2) for n in rng.sample(range(1, 13), rng.randint(1, 3))})
    if shape == 2:
        return cyclo.CycloProduct({m: rng.randint(1, 3) for m in rng.sample(range(1, 9), rng.randint(1, 4))})
    return cyclo.CycloProduct()


def test_emit_matches_stock_encoder_on_random_reports():
    rng = random.Random(18)
    fixed = [cyclo.CycloProduct(), *(cyclo.CycloProduct({m: e}) for m in (1, 2, 3) for e in (1, 2, 3))]
    parities = set()
    for n in range(300):
        products = fixed if n == 0 else [_random_product(rng) for _ in range(rng.randint(1, 6))]
        parities |= {sum(e for _, e in c.factors) % 2 for c in products}
        report = {"n": n, "note": "expansion", "empty": None, "list": [1, "a"], "q": Fraction(n - 150, 7)}
        split = rng.randint(0, len(products))
        for i, c in enumerate(products[:split]):
            report[f"p{i}"] = c
        report["delta"] = {str(k): c for k, c in enumerate(products[split:])}
        report["delta"]["none"] = None
        assert cli._emit(report, "json", None) == _stock_json(report)
    assert parities == {0, 1}


@pytest.mark.parametrize("command", ["lys", "zeta"])
def test_adversarial_vertex_id_keeps_stock_encoder_bytes(capsys, monkeypatch, tmp_path, command):
    key = '"expansion": 0.5,'
    if command == "lys":
        data = json.loads((DATA / "sextic6_lys.json").read_text())
        data["graph"]["vertices"].append({"id": key, "self_int": -2})
        data["graph"]["edges"].append(["c", key])
        source = "sextic6_lys.json"
    else:
        data = json.loads((DATA / "zeta_cusp.json").read_text())
        data["vertices"][0]["id"] = key
        data["strict"] = [key if s == "E1" else s for s in data.get("strict", [])]
        source = "zeta_cusp.json"
    path = tmp_path / source
    path.write_text(json.dumps(data))
    reports = _recording_emit(monkeypatch)
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert (code, err) == (0, "")
    assert len(reports) == 1 and out == _stock_json(reports[0])
    if command == "lys":
        assert key in [v["id"] for v in json.loads(out)["link_graph"]["vertices"]]


def test_non_palindromic_expansion_exits_3(capsys, monkeypatch):
    # a corrupted low half, mirrored into the high half, fails the value check
    real = cyclo._series

    def corrupt(factors, n):
        coeffs = real(factors, n)
        coeffs[0] += 2
        return coeffs

    monkeypatch.setattr(cyclo, "_series", corrupt)
    code, out, err = run_cli(capsys, "zeta", "--input", str(DATA / "zeta_cusp.json"))
    assert (code, out) == (3, "")
    assert err.startswith("error: expansion of ") and err.count("\n") == 1


def test_newton_remainder_exits_3(capsys, monkeypatch):
    # p_2 one off makes 2 c_{n-2} odd: the division by k = 2 leaves a remainder
    real = weightfilt._trace_of_product
    calls = []

    def corrupt(a, b):
        calls.append(None)
        return real(a, b) + (len(calls) == 2)

    monkeypatch.setattr(weightfilt, "_trace_of_product", corrupt)
    code, out, err = run_cli(capsys, "weightfilt", "--input", str(DATA / "unipotent2.json"))
    assert (code, out) == (3, "")
    assert err.startswith("error: Newton's identity at k = 2 ") and err.count("\n") == 1


class _Level(enum.IntEnum):
    LOW = 1


# every class of character the encoder escapes, and text that reads like a key
_STRINGS = [
    "", "plain", "Δ = ∏(t^m−1)^e", "😀", 'a"b', "back\\slash", "two\nlines", "\t\x00\x1f",
    '"expansion": 0.5,',
]
_SCALARS = _STRINGS + [0, -7, 2**64 + 1, -(3**70), _Level.LOW, 0.5, None, True, False]


def _random_tree(rng, depth, empties):
    """A JSON tree up to depth levels deep; each empty container it holds
    is recorded in empties as (depth, type)."""
    if depth and rng.random() < 0.3:
        return rng.choice(_SCALARS)
    kind = dict if depth == 0 else rng.choice([dict, list, tuple])
    size = rng.choice([0, 0, 1, 2, 4]) if depth < 4 else 0
    if size == 0:
        empties.add((depth, kind))
    items = [_random_tree(rng, depth + 1, empties) for _ in range(size)]
    if kind is dict:
        return {rng.choice(_STRINGS) + str(i): v for i, v in enumerate(items)}
    return kind(items)


def test_writer_matches_stock_encoder_on_random_trees():
    rng = random.Random(20)
    empties = set()
    for _ in range(400):
        tree = _random_tree(rng, 0, empties)
        assert cli._emit(tree, "json", None) == json.dumps(tree, sort_keys=True, indent=2) + "\n"
    assert {d for d, _ in empties} == set(range(5))
    assert {k for _, k in empties} == {dict, list, tuple}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_first_non_polynomial_product_in_report_order_names_the_error(fmt):
    # "a" sorts first, but "b" comes first in the report
    first = cyclo.CycloProduct({1: 1, 2: -1})  # 1/(t + 1)
    later = cyclo.CycloProduct({3: -1})
    with pytest.raises(NotPolynomial) as caught:
        cli._emit({"b": first, "a": later}, fmt, lambda report: "")
    assert caught.value.witness == 2


DIGIT_LIMIT_ZETA = {
    "vertices": [
        {"id": "E1", "multiplicity": 1, "chi_open": -20000},
        {"id": "S1", "multiplicity": 1, "chi_open": 1},
    ],
    "strict": ["S1"],
}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_digit_limit_exits_2_in_json_only(capsys, tmp_path, fmt):
    # Delta = (t-1)^20001; its middle coefficients pass the interpreter's
    # limit on integer-to-decimal conversion, which stays as it is
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(DIGIT_LIMIT_ZETA))
    code, out, err = run_cli(capsys, "zeta", "--input", str(path), "--format", fmt)
    assert sys.get_int_max_str_digits() == limit
    if fmt == "text":
        assert (code, err) == (0, "")
        assert "Delta (n=1) = (t-1)^20001\n" in out
    else:
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and f"more than {limit} digits" in err and "degree-20001" in err
