"""The inputs that tools/report_hashes.py builds for `lys`, `wlys` and `zeta`
to reject are rejected: exit 1, nothing on stdout, one line on stderr; and
each argv of its INPUTS and OPTIONS tables exits with the code it lists."""

import importlib.util
from pathlib import Path

import pytest

from singcalc import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_hashes.py"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("report_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bad_input_exits_1_with_one_line(capsys, monkeypatch, tmp_path, tool):
    bad = {**tool.BAD_ZETA, **tool.BAD_LYS, **tool.BAD_WLYS, **tool.BAD_CURVE}
    monkeypatch.chdir(tmp_path)
    argvs = [a for a in tool.corpus(tmp_path) if a[1] == "--input" and Path(a[2]).name in bad]
    assert len(argvs) == len(bad)
    for argv in argvs:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (1, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


def test_listed_argvs_exit_with_their_codes(capsys, monkeypatch, tmp_path, tool):
    monkeypatch.chdir(tmp_path)
    corpus = tool.corpus(tmp_path)
    expected = [
        ([command, "--input", f"data/{name}", *options], code)
        for name, (command, _, runs) in tool.INPUTS.items()
        for options, code in runs
    ] + tool.OPTIONS
    assert all(argv in corpus for argv, _ in expected)
    for argv, expected_code in expected:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == expected_code, (argv, err)
        if code:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), argv
        else:
            assert out and err == "", argv
