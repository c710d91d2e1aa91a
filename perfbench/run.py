"""Benchmark of the singcalc CLI, standard library only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the one holding src/singcalc).
One process serves one workload: it generates the workload's inputs from
the seed, then a single closed-loop caller drives `singcalc.cli.main(argv)`
in-process, one report after another, with stdout captured.  Every report
is checked by an oracle that knows the answer from the construction of the
input (see workloads.py); a later report of the same input must repeat the
first one byte for byte.

The input set is run in whole passes.  A new pass starts only while the
last pass, repeated, would still end within --seconds, and there is always
at least one pass, so every input has the same number of timed calls.
Each input's time is the median of its calls, pooled over the cases of
its group where the workload groups cases that do the same work
(workloads.groups).

Times are corrected for the speed of the host.  Other tenants of a shared
host slow every program on it, by half or more at times, and the share of
a run they take changes from run to run.  So a fixed piece of pure-Python
integer work, `reference()`, is timed between reports about ten times a
second, and every time is scaled by REFERENCE_S / (median reference
time): the figures read as seconds on a host where the reference takes
REFERENCE_S.  A change to singcalc leaves the reference alone, so it
moves the figures in full.

--trace 0 prints the end-to-end metrics; --trace 1 calls each input twice
in a row, untraced and then with spans around each layer's public
functions (spans.py), and prints the per-layer metrics.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_MIN_SAMPLES = 10
SETUP_EVERY_S = 2.0
REFERENCE_S = 0.002  # median of reference() on a busy 2-vCPU Xeon VM
REFERENCE_EVERY_S = 0.1

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class Case:
    """One input of the set: argv, oracle, and the calls made on it."""

    def __init__(self, argv, oracle, group):
        self.argv = argv
        self.oracle = oracle
        self.group = group
        self.digest = None  # of the first output the oracle accepted
        self.times = []
        self.traced_times = []


def _absolute(argv, directory: Path):
    argv = list(argv)
    if "--input" in argv:
        i = argv.index("--input") + 1
        argv[i] = str(directory / argv[i])
    return argv


def load_cases(workload: str, seed: int, directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    raw = workloads.generate(workload, seed, directory, ROOT / "tests" / "data")
    labels = workloads.groups(workload, len(raw))
    return [Case(_absolute(argv, directory), oracle, group)
            for (argv, oracle), group in zip(raw, labels)]


def input_times(cases, traced=False):
    """Each case's time: the median of the calls on the cases of its group."""
    pooled = {}
    for case in cases:
        pooled.setdefault(case.group, []).extend(case.traced_times if traced else case.times)
    medians = {group: statistics.median(times) for group, times in pooled.items()}
    return [medians[case.group] for case in cases]


def reference():
    """Fixed pure-Python integer work (a polynomial product), to gauge the host."""
    a = [3**i + 7 for i in range(40)]
    s = 0
    for _ in range(6):
        b = [0] * (2 * len(a))
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                b[i + j] += x * y
        s += b[len(a)] % 97
    return s


def call(cli, argv):
    """One report: (exit code, stdout, wall seconds of cli.main)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


class Runner:
    """Closed loop over the cases; counts attempts and failed oracles."""

    def __init__(self, cli, cases):
        self.cli = cli
        self.cases = cases
        self.attempted = 0
        self.failed = 0
        self.report_bytes = 0
        self.reference_times = []
        self.last_reference = float("-inf")

    def gauge(self):
        """Time reference() if REFERENCE_EVERY_S has passed since the last time."""
        start = time.perf_counter()
        if start - self.last_reference >= REFERENCE_EVERY_S:
            reference()
            self.last_reference = time.perf_counter()
            self.reference_times.append(self.last_reference - start)

    def host_scale(self):
        """Factor that turns this run's wall seconds into seconds at REFERENCE_S."""
        return REFERENCE_S / statistics.median(self.reference_times)

    def check(self, case, code, out):
        # hashed in slices, so that no second copy of a large report is made
        sha = hashlib.sha256()
        for i in range(0, len(out), 1 << 16):
            sha.update(out[i : i + (1 << 16)].encode())
        digest = (code, sha.digest())
        if case.digest is not None:
            reason = None if digest == case.digest else "output changed between calls"
        else:
            reason = case.oracle(code, out)
            if reason is None:
                case.digest = digest
        if reason is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {' '.join(case.argv)}: {reason}", file=sys.stderr)

    def report(self, case, times):
        code, out, elapsed = call(self.cli, case.argv)
        times.append(elapsed)
        self.attempted += 1
        self.check(case, code, out)
        return out

    def passes(self, seconds, tracer=None, setup=None):
        """Run whole passes within `seconds` (at least one); return their number.

        With a tracer, each input is called untraced and then traced, so
        that both calls see the same moment of the host.  With a Setup, a
        set-up sample is taken between reports every SETUP_EVERY_S.
        """
        begin = time.perf_counter()
        last_setup = begin
        count = 0
        while True:
            pass_start = time.perf_counter()
            for case in self.cases:
                self.gauge()
                if setup is not None and time.perf_counter() - last_setup >= SETUP_EVERY_S:
                    setup.take()
                    last_setup = time.perf_counter()
                self.report(case, case.times)
                if tracer is not None:
                    tracer.report_id = self.attempted
                    tracer.install()
                    try:
                        out = self.report(case, case.traced_times)
                    finally:
                        tracer.uninstall()
                    self.report_bytes += len(out) if out.isascii() else len(out.encode())
            count += 1
            now = time.perf_counter()
            if now - begin + (now - pass_start) > seconds:
                return count


class Setup:
    """Set-up time: a fresh process imports singcalc and builds the parser.

    The first sample writes the bytecode caches and is dropped.  Then the
    samples are spread over the run between reports, so that their median,
    which is reported, is drawn from the same stretches of the host as the
    reference times; short runs take the rest at the end.
    """

    CODE = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import singcalc.cli\n"
        "singcalc.cli.build_parser()\n"
        "print(time.perf_counter() - t)\n"
    )

    def __init__(self):
        self.sample()
        self.samples = []

    def sample(self):
        done = subprocess.run(
            [sys.executable, "-I", "-c", self.CODE], cwd=ROOT, capture_output=True,
            text=True, timeout=60, check=True,
        )
        return float(done.stdout)

    def take(self):
        self.samples.append(self.sample())

    def median(self):
        while len(self.samples) < SETUP_MIN_SAMPLES:
            self.take()
        return statistics.median(self.samples)


def tail(values):
    """(value, percentile): the highest percentile with 10 values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise SystemExit(f"need at least 11 inputs for the tail percentile, have {n}")
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(args, runner, setup):
    setup_wall = setup.median()  # first, as it may add samples
    scale = runner.host_scale()
    best = [t * scale for t in input_times(runner.cases)]
    passes = len(runner.cases[0].times)
    tail_s, pct = tail(best)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_wall * scale, "s", f"median of {len(setup.samples)} fresh processes, "
                    f"{setup_wall:.4g} s wall"),
        "reports_per_s": (len(best) / sum(best), "1/s", "inputs / sum of per-input times"),
        "report_p50_s": (statistics.median(best), "s", "median of per-input times"),
        "report_tail_s": (tail_s, "s", f"p{pct:.1f} of {len(best)} per-input times"),
        "peak_rss_mb": (rss_mb, "MiB", "ru_maxrss of this process"),
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(best)} inputs x "
          f"{passes} passes, {runner.attempted} reports; per-input time = median of the "
          f"calls on its group; times x {scale:.4g} to seconds at a reference time of "
          f"{REFERENCE_S * 1e3:g} ms (median of {len(runner.reference_times)} samples: "
          f"{statistics.median(runner.reference_times) * 1e3:.4g} ms)")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<14} {value:.6g} {unit}  ({note})")
    frac = runner.failed / runner.attempted
    print(f"  {'failed_frac':<14} {frac:.6g} ratio  ({runner.failed} of {runner.attempted})")
    return {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}


def per_layer(args, runner):
    import spans

    tracer = spans.Tracer()
    passes = runner.passes(args.seconds, tracer)
    untraced = sum(input_times(runner.cases))
    traced = sum(input_times(runner.cases, traced=True))
    wall = sum(sum(c.traced_times) for c in runner.cases)
    weightfilt_reports = sum(
        len(c.traced_times) for c in runner.cases if c.argv[0] == "weightfilt"
    )
    metrics = spans.layer_metrics(
        tracer, passes, weightfilt_reports, runner.report_bytes, wall, traced / untraced - 1.0
    )
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    print(f"workload {args.workload}, seed {args.seed}: {len(runner.cases)} inputs, "
          f"{passes} passes, each input untraced then traced; per-layer values "
          f"per pass; spans in {spans_path}")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="'all' runs every workload, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, check=False,
            ).returncode
            for workload in workloads.WORKLOADS
        ]
        return max(codes)

    if not (ROOT / "src" / "singcalc" / "__init__.py").is_file():
        print(f"error: no singcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from singcalc import cli

    directory = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        runner = Runner(cli, load_cases(args.workload, args.seed, directory))
        if args.trace:
            metrics = per_layer(args, runner)
        else:
            setup = Setup()
            runner.passes(args.seconds, setup=setup)
            metrics = end_to_end(args, runner, setup)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
