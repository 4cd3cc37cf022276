"""End-to-end benchmark of the sweeplog command line.

Usage, from the repository root::

    python3 bench/run.py --workload sparse_clean --seed 1 --seconds 30 --trace 0

One client runs a closed loop with no threads: each round calls
``sweeplog.cli.run`` for ``adjust``, ``aux``, ``metrics`` and
``inject --shift 0.1`` in that order on the same generated input, and
every call waits for the one before it.  Rounds repeat while they are
expected to end within ``--seconds`` (at least three rounds).  Every
output is checked (see checks.py); a call that exits non-zero or writes a
wrong output counts as failed.

``--trace 0`` prints the end-to-end metrics: set-up time, the median
calibrated time (see Clock) of each subcommand and of a whole round, and
the peak resident memory of each subcommand run as its own process.  ``--trace 1``
alternates untraced and traced rounds and prints the per-layer metrics
of layers.py, plus the tracing overhead per subcommand; the spans of
every traced round are written to ``bench/out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import layers
from spans import Tracer
from workloads import WORKLOADS, Item, WorkloadSpec, generate, write_log

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
OUT = HERE / "out"

COMMANDS = layers.COMMANDS
SHIFT = "0.1"
SETUP_REPS = 3
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120

# A process's peak resident size (ru_maxrss) starts from the high-water
# mark of the process it was spawned from, so each subcommand runs as the
# grandchild of a small launcher, never as a child of this large process.
# The launcher prints the subcommand's peak in KiB and passes on its exit
# status; on a timeout it kills the subcommand and prints nothing.
LAUNCHER = """\
import resource, subprocess, sys
code = subprocess.run(sys.argv[2:], timeout=float(sys.argv[1])).returncode
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""
RUN_ONE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from sweeplog.cli import run; sys.exit(run(sys.argv[2:]))"
)


# Other tenants of the host this benchmark was defined on (2 vCPUs) slow
# the same Python code by up to 2x for tens of seconds at a time, which
# moved raw per-run medians by 12-47 % between runs.  So every timed piece
# of work is bracketed by a fixed calibration job in the workload's file
# format, and its time is reported as
#     wall time x REFERENCE_S[fmt] / (mean calibration time around it):
# seconds on a host where the job takes REFERENCE_S[fmt], about its time
# on that host when it is quiet.  Raw wall-time medians are printed beside
# the metrics.
CALIBRATION = WorkloadSpec("calibration", "csv", 2, 100, concurrency=16.0)
REFERENCE_S = {"csv": 0.0034, "xes": 0.013}


class Clock:
    """Times work and calibrates it against a fixed job: write a small
    generated log in ``fmt``, read it back with the benchmark's own reader,
    and sweep it.  The job is stdlib-only and never calls sweeplog."""

    def __init__(self, fmt: str, work: Path):
        self.fmt = fmt
        self.path = work / f"calibration.{fmt}"
        self.items = generate(CALIBRATION, 0)

    def calibration_s(self) -> float:
        """Median time of three runs of the calibration job."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            write_log(self.items, self.fmt, self.path)
            items = checks.read_items(self.path, self.fmt)
            checks.union_busy_ms(items)
            checks.overlapped_pair_count(items)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def timed(self, work):
        """Run ``work()``; return its result, wall time and calibrated time."""
        before = self.calibration_s()
        start = time.perf_counter()
        result = work()
        wall = time.perf_counter() - start
        after = self.calibration_s()
        return result, wall, wall * 2 * REFERENCE_S[self.fmt] / (before + after)


class SetupError(Exception):
    """The benchmark cannot run here (for example, sweeplog is missing)."""


def import_sweeplog():
    """Import ``sweeplog.cli`` afresh from this checkout's ``src``."""
    if not (SRC / "sweeplog" / "__init__.py").is_file():
        raise SetupError(f"no sweeplog package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "sweeplog" or n.startswith("sweeplog.")]:
        del sys.modules[name]
    cli = importlib.import_module("sweeplog.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"imported sweeplog from {cli.__file__}, not from {SRC}")
    return cli


class Runner:
    """Calls the subcommands on one input and checks every output."""

    def __init__(self, spec: WorkloadSpec, items: list[Item], work: Path,
                 input_path: Path, clock: Clock):
        self.spec = spec
        self.clock = clock
        self.items = items
        self.input = input_path
        self.outputs = {
            "adjust": work / f"adjusted.{spec.fmt}",
            "aux": work / "aux.csv",
            "metrics": work / "report.json",
            "inject": work / f"injected.{spec.fmt}",
        }
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.attempted = 0
        self.failed = 0

    def argv(self, cmd: str) -> list[str]:
        args = [cmd, "--in", str(self.input)]
        args += ["--report" if cmd == "metrics" else "--out", str(self.outputs[cmd])]
        if cmd == "inject":
            args += ["--shift", SHIFT]
        return args

    def call(self, cli, cmd: str) -> tuple[float, float]:
        """One timed ``cli.run`` call, checked afterwards; returns its wall
        and calibrated times."""
        self.outputs[cmd].unlink(missing_ok=True)
        gc.collect()
        code, wall, scaled = self.clock.timed(lambda: cli.run(self.argv(cmd)))
        self.record(cmd, code)
        return wall, scaled

    def peak_mb(self, cmd: str) -> float:
        """Peak resident memory of the subcommand run as its own process."""
        self.outputs[cmd].unlink(missing_ok=True)
        child = subprocess.run(
            [sys.executable, "-c", LAUNCHER, str(CHILD_TIMEOUT_S),
             sys.executable, "-c", RUN_ONE, str(SRC), *self.argv(cmd)],
            stdout=subprocess.PIPE, text=True,
        )
        if not child.stdout.strip():
            raise RuntimeError(f"{cmd}: peak-memory run failed")
        self.record(cmd, child.returncode)
        return int(child.stdout.split()[-1]) * 1024 / 1e6

    def record(self, cmd: str, code: int) -> None:
        self.attempted += 1
        problems = [f"{cmd}: exit status {code}"] if code != 0 else self.check(cmd)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"bench: {problem}", file=sys.stderr)

    def check(self, cmd: str) -> list[str]:
        # Outputs are deterministic, so each distinct output is checked
        # once and later identical bytes reuse the verdict.
        path = self.outputs[cmd]
        if not path.is_file():
            return [f"{cmd}: no output written"]
        key = (cmd, hashlib.sha256(path.read_bytes()).hexdigest())
        if key not in self.verdicts:
            if cmd == "adjust":
                found = checks.check_adjust(self.items, path, self.spec.fmt)
            elif cmd == "aux":
                found = checks.check_aux(self.items, path)
            elif cmd == "metrics":
                found = checks.check_metrics(self.items, path)
            else:
                found = checks.check_inject(self.items, path, self.spec.fmt)
            self.verdicts[key] = found
        return self.verdicts[key]


def setup(spec: WorkloadSpec, seed: int, input_path: Path, clock: Clock):
    """Generate and write the input, then import sweeplog; repeated, so
    the median set-up time is steady.  Returns the items, the imported
    ``sweeplog.cli`` and the wall and calibrated set-up time samples."""

    def once():
        items = generate(spec, seed)
        write_log(items, spec.fmt, input_path)
        return items, import_sweeplog()

    samples = [clock.timed(once) for _ in range(SETUP_REPS)]
    items, cli = samples[-1][0]
    return items, cli, [(wall, scaled) for _, wall, scaled in samples]


def timed_rounds(runner: Runner, cli, seconds: float) -> dict[str, list]:
    """(wall, calibrated) samples per subcommand and per whole round."""
    times: dict[str, list] = {cmd: [] for cmd in (*COMMANDS, "total")}
    start = time.perf_counter()
    # A round starts only if it is expected to end within `seconds`.
    while len(times["total"]) < MIN_ROUNDS or (
        time.perf_counter() - start
    ) * (1 + 1 / len(times["total"])) <= seconds:
        one = [runner.call(cli, cmd) for cmd in COMMANDS]
        for cmd, sample in zip(COMMANDS, one):
            times[cmd].append(sample)
        times["total"].append(tuple(map(sum, zip(*one))))
    return times


def end_to_end(runner: Runner, cli, seconds: float, setup_samples: list) -> dict:
    """Metric name -> (value, unit, raw wall-time median or None)."""
    peaks = {cmd: runner.peak_mb(cmd) for cmd in COMMANDS}
    times = {"setup": setup_samples, **timed_rounds(runner, cli, seconds)}
    metrics = {}
    for name, samples in times.items():
        walls, scaled = zip(*samples)
        metrics[f"{name}_s"] = (
            statistics.median(scaled), "s", statistics.median(walls))
    for cmd in COMMANDS:
        metrics[f"{cmd}_peak_mb"] = (peaks[cmd], "MB", None)
    return metrics


def traced(runner: Runner, cli, seconds: float, spans_path: Path) -> tuple[dict, bool]:
    """Alternate untraced and traced rounds; per-layer metrics and whether
    the counts repeated exactly in every traced round."""
    tracer = Tracer()
    plain: dict[str, list[float]] = {cmd: [] for cmd in COMMANDS}
    with_spans: dict[str, list[float]] = {cmd: [] for cmd in COMMANDS}
    rounds: list[dict[str, float]] = []
    calls: list[tuple[str, int]] = []
    counts: Counter | None = None
    steady = True
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (
        time.perf_counter() - start
    ) * (1 + 1 / len(rounds)) <= seconds:
        for cmd in COMMANDS:
            plain[cmd].append(runner.call(cli, cmd)[1])
        failed_before = runner.failed
        tracer.counts.clear()
        first_of_round = len(tracer.spans)
        times: Counter = Counter()
        tracer.install(layers.PACKAGE, layers.targets())
        try:
            for cmd in COMMANDS:
                first = len(tracer.spans)
                with_spans[cmd].append(runner.call(cli, cmd)[1])
                times.update(layers.round_times(tracer.spans, first, cmd))
                calls.append((cmd, first))
        finally:
            tracer.uninstall()
        rounds.append(dict(times))
        this = tracer.counts + layers.span_counts(tracer.spans, first_of_round)
        with open(runner.outputs["aux"], encoding="utf-8") as handle:
            this["cli.aux_rows"] = sum(1 for _ in handle) - 1
        this["cli.failed_calls"] = runner.failed - failed_before
        if counts is None:
            counts = this
        elif this != counts:
            steady = False
            print("bench: counts differ between traced rounds", file=sys.stderr)
    overhead = {
        cmd: statistics.median(with_spans[cmd]) / statistics.median(plain[cmd]) - 1
        for cmd in COMMANDS
    }
    values = layers.per_layer(rounds, counts, overhead)
    write_spans(spans_path, tracer, calls, values)
    metrics = {
        name: (value, "s" if name.endswith("_s") else
               "ratio" if name in layers.RATIOS else "count", None)
        for name, value in values.items()
    }
    return metrics, steady


def write_spans(path: Path, tracer: Tracer, calls: list[tuple[str, int]], values: dict) -> None:
    """One JSON line per subcommand call with its spans, then the metrics."""
    path.parent.mkdir(parents=True, exist_ok=True)
    bounds = [first for _, first in calls] + [len(tracer.spans)]
    with open(path, "w", encoding="utf-8") as handle:
        for (cmd, first), end in zip(calls, bounds[1:]):
            spans = [s.as_dict() for s in tracer.spans[first:end]]
            handle.write(json.dumps({"command": cmd, "spans": spans}) + "\n")
        handle.write(json.dumps({"per_layer": values}) + "\n")


def parse_args(argv, specs):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(specs))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, specs: dict[str, WorkloadSpec] = WORKLOADS) -> int:
    args = parse_args(argv, specs)
    spec = specs[args.workload]
    work = WORK / f"{spec.name}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        input_path = work / f"input.{spec.fmt}"
        try:
            clock = Clock(spec.fmt, work)
            items, cli, setup_samples = setup(spec, args.seed, input_path, clock)
        except SetupError as exc:
            print(f"bench: cannot run: {exc}", file=sys.stderr)
            return 1
        runner = Runner(spec, items, work, input_path, clock)
        if args.trace:
            spans_path = OUT / f"spans-{spec.name}-{args.seed}.jsonl"
            metrics, steady = traced(runner, cli, args.seconds, spans_path)
        else:
            metrics, steady = end_to_end(runner, cli, args.seconds, setup_samples), True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {spec.name}, seed {args.seed}, {runner.attempted} calls, "
          f"{runner.failed} failed")
    for name, (value, unit, wall) in metrics.items():
        raw = "" if wall is None else f"   (wall-time median {wall:.6g} s)"
        print(f"  {name:32s} {value:14.6g} {unit}{raw}")
    print(f"  {'failed_frac':32s} {runner.failed / runner.attempted:14.6g} ratio")
    print(json.dumps({
        "correct": runner.failed == 0 and steady,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
