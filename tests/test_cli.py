"""End-to-end tests of the command-line interface.

Reports are pinned byte-for-byte against golden files in tests/data/, and
the error paths are checked for the documented exit codes: 1 for bad
input, 2 for valid-but-unsupported input, 3 for internal inconsistencies.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from singcalc import cli

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


def test_output_is_deterministic(capsys):
    argv = ("lys", "--input", str(DATA / "sextic6_lys.json"), "--k", "1")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


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


def test_wlys_pinned_values():
    report = json.loads((DATA / "wlys_s10.golden.json").read_text())
    assert report["d"] == 16
    assert report["k"] == 2
    assert report["admissible"] is True


def test_quotient_pinned_values():
    report = json.loads((DATA / "quotient_7_5.golden.json").read_text())
    assert report["chain_self_intersections"] == [-2, -2, -3]
    assert report["type"] == "1/7(1,3)"


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


def test_malformed_json_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run_cli(capsys, "local", "--input", str(path))
    assert code == 1
    assert "not valid JSON" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "local", "--input", "/no/such/file.json")
    assert code == 1
    assert "not found" in err


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


# ---------------------------------------------------------------------------
# published schemas describe the shipped inputs
# ---------------------------------------------------------------------------

SCHEMAS = Path(__file__).parent.parent / "docs" / "schemas"

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
