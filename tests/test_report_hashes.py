"""The inputs that tools/report_hashes.py builds for `lys`, `wlys` and `zeta`
to reject are rejected: exit 1, nothing on stdout, one line on stderr."""

import importlib.util
from pathlib import Path

from singcalc import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_hashes.py"


def test_every_bad_input_exits_1_with_one_line(capsys, monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("report_hashes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    bad = {**tool.BAD_ZETA, **tool.BAD_LYS, **tool.BAD_WLYS, **tool.BAD_CURVE}
    monkeypatch.chdir(tmp_path)
    argvs = [a for a in tool.corpus(tmp_path) if a[1] == "--input" and Path(a[2]).name in bad]
    assert len(argvs) == len(bad)
    for argv in argvs:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (1, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
