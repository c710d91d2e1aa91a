"""A reach ratchet: every function in src/ is entered by some report of the
tools/report_hashes.py corpus, or is listed in UNREACHED with its reason.

The corpus holds every perfbench case at seeds 1-3 (so seed-1 `small_mix`
among them), every tests/data input under each subcommand, the seeded
convenient germs, and the broken and option argvs of the tool's tables.
It runs through `cli.main` under `sys.setprofile`, which records call
events only, after the package's caches are emptied.  A function is a
`def` at any depth, named module.qualname; lambdas and comprehensions are
left out.  The test fails on an unlisted function that nothing enters
(new dead code, or a path the corpus lost) and on a listed one that
something now enters (a stale list).
"""

import importlib
import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import singcalc
from singcalc import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_hashes.py"

_LIBRARY = "library surface"
_GATE = "acceptance gate: tests/test_acceptance.py imports weight_filtration, gr_dims and jordan_blocks"
_TRACED = "traced by perfbench/spans.py"
_IMPORT = "runs at import"

UNREACHED = {
    # records refuse assignment, and compare, hash, print and pickle by field
    "_record.FrozenRecord.__setattr__": _LIBRARY,
    "_record.FrozenRecord.__delattr__": _LIBRARY,
    "_record.FrozenRecord.__eq__": _LIBRARY,
    "_record.FrozenRecord.__hash__": _LIBRARY,
    "_record.FrozenRecord.__repr__": _LIBRARY,
    "_record.FrozenRecord.__setstate__": _LIBRARY,
    "_record.FrozenRecord._fields": _LIBRARY,
    "cyclo.exact_divide": _TRACED,
    "cyclo.root_multiplicity": _TRACED,
    # raised by exact_divide, which jordan1_quotient calls
    "errors.NonDivisible.__init__": _LIBRARY,
    "errors._Indeterminate.__new__": _IMPORT,
    "errors._Indeterminate.__repr__": _LIBRARY,
    "errors._Indeterminate.__bool__": _LIBRARY,
    # the README's "Library use"
    "monodromy.jordan1_quotient": _LIBRARY,
    "monodromy.render_report": _LIBRARY,
    "monodromy.yau_pair_report": _LIBRARY,
    "weightfilt.mat": _LIBRARY,
    "weightfilt.weight_filtration": _GATE,
    "weightfilt.gr_dims": _GATE,
    "weightfilt._nilpotent_powers": _GATE,
    "weightfilt._assert_weight_properties": _GATE,
    "weightfilt._kernel_rows": _GATE,
    "weightfilt._integer_row": _GATE,
    "weightfilt.rref": _GATE,
    "weightfilt.mat_rank": _GATE,
    "weightfilt.jordan_blocks": _GATE,
    "weightfilt.kernel": _TRACED,
    "weightfilt.solve_coordinates": _TRACED,
    "weightfilt.charpoly": _TRACED,
    "weightfilt.default_power": _TRACED,
    "weightfilt.delta_k": _TRACED,
}


def _functions() -> dict:
    """(file, first line, name) -> module.qualname for every def in src/."""
    out = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if hasattr(const, "co_code") and not const.co_name.startswith("<"):
                qualname = f"{prefix}{const.co_name}"
                if const.co_flags & 1:  # CO_OPTIMIZED: a function, not a class body
                    key = (const.co_filename, const.co_firstlineno, const.co_name)
                    out[key] = f"{module}.{qualname}"
                walk(const, module, f"{qualname}.")

    for path in sorted(Path(singcalc.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"singcalc.{path.stem}")
        source = Path(module.__file__).read_text(encoding="utf-8")
        walk(compile(source, module.__file__, "exec"), path.stem, "")
        # a cached function that an earlier test filled would not be entered
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    return out


def test_every_function_is_reached_or_listed(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("report_hashes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.chdir(tmp_path)
    argvs = tool.corpus(tmp_path)
    functions = _functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in argvs:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                cli.main(argv)
    finally:
        sys.setprofile(previous)
    entered = {(code.co_filename, code.co_firstlineno, code.co_name) for code in entered}
    unreached = {name for key, name in functions.items() if key not in entered}
    assert set(UNREACHED) <= set(functions.values()), "listed names that are not functions"
    assert sorted(unreached - set(UNREACHED)) == [], "functions that no argv enters"
    assert sorted(set(UNREACHED) - unreached) == [], "listed functions that an argv enters"
