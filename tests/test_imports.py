"""Each singcalc module imports first, on its own, in a fresh interpreter,
and each module but `cli` declares an `__all__` that lists exactly the
public names it defines.  Every function the benchmark's tracer wraps
(perfbench/spans.py) still exists under its name.  Starting the CLI loads
no module that generates code for classes and opens no schema file, and
a report on a plain argv loads no argparse.

A module that imports another only for a type annotation can close an
import cycle that only shows when the other module is imported first.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import singcalc

SRC = str(Path(singcalc.__file__).parent.parent)
MODULES = sorted(m.name for m in pkgutil.iter_modules(singcalc.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run(
        [sys.executable, "-c", f"import singcalc.{module}"], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


def _public_names(module: str) -> list[str]:
    """Sorted public top-level def, class and assignment names of a module."""
    tree = ast.parse((Path(SRC) / "singcalc" / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return sorted(n for n in names if not n.startswith("_"))


@pytest.mark.parametrize("module", [m for m in MODULES if m != "cli"])
def test_all_lists_the_public_names(module):
    # cli is the entry point, not a library module
    declared = getattr(importlib.import_module(f"singcalc.{module}"), "__all__", None)
    assert declared is not None, f"singcalc.{module} declares no __all__"
    assert sorted(declared) == _public_names(module)


def test_traced_names_exist():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"singcalc.{layer}")
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"singcalc.{layer} lacks the traced {missing}"
    # the tracer patches every module binding of expand, and its self-test
    # checks these four
    expand = importlib.import_module("singcalc.cyclo").expand
    for layer in ("cli", "cyclo", "monodromy", "weightfilt"):
        assert getattr(importlib.import_module(f"singcalc.{layer}"), "expand", None) is expand, layer


def test_cli_start_up_generates_no_code():
    # a fresh `singcalc` process imports the CLI and builds its parser;
    # dataclasses and what it pulls in (inspect, ast, dis, tokenize) and
    # typing took about half the start-up time of a process
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import singcalc.cli\n"
        "singcalc.cli.build_parser()\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert "singcalc.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


def test_schemas_load_on_first_use_once():
    # importing the CLI and building its parser opens no schema file; the
    # first validation opens each file its schema needs, and no later one
    # opens any
    sample = Path(__file__).parent / "data" / "sextic6_lys.json"
    code = (
        "import json, os, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "opened = []\n"
        "def hook(event, args):\n"
        "    if event == 'open' and isinstance(args[0], str):\n"
        "        folder, name = os.path.split(args[0])\n"
        "        if os.path.basename(folder) == 'schemas':\n"
        "            opened.append(name)\n"
        "sys.addaudithook(hook)\n"
        "import singcalc.cli\n"
        "singcalc.cli.build_parser()\n"
        "print(json.dumps(opened))\n"
        "for _ in range(3):\n"
        f"    singcalc.schema.validate(json.loads(open({str(sample)!r}).read()), 'lys-input.schema.json')\n"
        "print(json.dumps(sorted(opened)))\n"
    )
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    at_start, after = map(json.loads, run.stdout.splitlines())
    assert at_start == []
    assert after == ["combinatorics.schema.json", "lys-input.schema.json"]


def test_plain_argv_loads_no_argparse():
    # a plain argv is read from the CLI's option table; argparse, and the
    # gettext, locale and shutil it loads, come in only for other argvs
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import singcalc.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = singcalc.cli.main(['quotient', '--d', '7', '--beta', '5'])\n"
        "print(code, ' '.join(sorted(sys.modules)))\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = singcalc.cli.main(['--help'])\n"
        "print(code, out.getvalue().startswith('usage: singcalc'))\n"
    )
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    plain, help_run = run.stdout.splitlines()
    code, loaded = plain.split(" ", 1)
    assert code == "0"
    assert not set(loaded.split()) & {"argparse", "gettext", "locale", "shutil"}
    assert help_run == "0 True"
