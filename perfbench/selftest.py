"""Self-tests of the benchmark: generators, oracles and tracing.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks that
  1. the same seed gives byte-identical inputs;
  2. another seed still passes every oracle;
  3. an oracle flags a report with one coefficient corrupted;
  4. the traced run's stdout is byte-identical to the untraced run's,
     with every module binding of a traced function patched.
Exits 0 when all pass.  Takes about half a minute, mostly the
`filtration` reports.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import spans
import workloads

SEED = 20261017  # not one of the seeds the benchmark's spreads were measured on


def _files(directory: Path):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def same_seed_same_inputs(scratch: Path):
    for workload in workloads.WORKLOADS:
        first, second = scratch / f"{workload}-a", scratch / f"{workload}-b"
        for d in (first, second):
            d.mkdir()
        a = workloads.generate(workload, 7, first, run.ROOT / "tests" / "data")
        b = workloads.generate(workload, 7, second, run.ROOT / "tests" / "data")
        assert [argv for argv, _ in a] == [argv for argv, _ in b], workload
        assert _files(first) == _files(second), workload
        c = scratch / f"{workload}-c"
        c.mkdir()
        workloads.generate(workload, 8, c, run.ROOT / "tests" / "data")
        assert _files(c) != _files(first), f"{workload}: seeds 7 and 8 agree"


def _reports(cli, scratch: Path):
    """{workload: [(case, code, stdout)]} for one pass at SEED."""
    out = {}
    for workload in workloads.WORKLOADS:
        cases = run.load_cases(workload, SEED, scratch / f"{workload}-run")
        out[workload] = [(case, *run.call(cli, case.argv)[:2]) for case in cases]
    return out


def other_seed_passes(reports):
    for workload, rows in reports.items():
        for case, code, out in rows:
            reason = case.oracle(code, out)
            assert reason is None, f"{workload} {case.argv}: {reason}"


def _poly_blocks(report):
    if isinstance(report, dict):
        if "expansion" in report:
            yield report
        for value in report.values():
            yield from _poly_blocks(value)


def corrupted_coefficient_flagged(reports):
    checked = 0
    for workload, rows in reports.items():
        for case, code, out in rows:
            try:
                report = json.loads(out)
            except ValueError:
                continue
            for block in list(_poly_blocks(report)):
                coeffs = block["expansion"]
                coeffs[len(coeffs) // 2] += 1
                bad = json.dumps(report, sort_keys=True, indent=2) + "\n"
                assert case.oracle(code, bad) is not None, f"{workload} {case.argv}"
                coeffs[len(coeffs) // 2] -= 1
                checked += 1
    assert checked > 100, f"only {checked} polynomial blocks checked"


def traced_stdout_identical(cli, reports):
    import singcalc.cyclo
    import singcalc.monodromy
    import singcalc.weightfilt

    original = singcalc.cyclo.expand
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (cli, singcalc.cyclo, singcalc.monodromy, singcalc.weightfilt):
            assert module.expand is not original, f"{module.__name__}.expand not patched"
        count = 0
        for workload, rows in reports.items():
            # skip the few reports of several seconds; the rest cover every layer
            rows = sorted(rows, key=lambda r: len(r[2]))[: len(rows) * 3 // 4]
            for case, code, out in rows:
                again = run.call(cli, case.argv)
                assert again[:2] == (code, out), f"{workload} {case.argv}: traced output differs"
                count += 1
    finally:
        tracer.uninstall()
    assert singcalc.cyclo.expand is original and cli.expand is original
    main_calls = tracer.calls[tracer.names.index("cli.main")]
    assert main_calls == count, f"{main_calls} cli.main spans for {count} reports"
    assert len(tracer.span_start) > count


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    from singcalc import cli

    scratch = run.WORK / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    failures = 0
    try:
        reports = _reports(cli, scratch)
        checks = (
            (same_seed_same_inputs, scratch),
            (other_seed_passes, reports),
            (corrupted_coefficient_flagged, reports),
            (traced_stdout_identical, cli, reports),
        )
        for check, *check_args in checks:
            try:
                check(*check_args)
                print(f"ok    {check.__name__}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL  {check.__name__}: {exc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
