"""Which sweeplog functions the traced run wraps, and the per-layer metrics.

Every public module-level function of ``logio``, ``model``, ``sweep``,
``metrics``, ``inject`` and ``cli`` gets a span, except the per-row and
per-pair helpers in :data:`PER_ELEMENT`: they run once per timestamp,
rounding or item pair, a span each would cost more than the work it
times, and their time belongs in the caller's self time (for example the
timestamp formatting of every ``aux`` row in ``cli.aux_self_s``).
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
from collections import Counter, defaultdict
from math import comb

from spans import CountHook, Span, self_times

PACKAGE = "sweeplog"
MODULES = ("logio", "model", "sweep", "metrics", "inject", "cli")
PER_ELEMENT = frozenset({
    "logio.parse_timestamp", "logio.format_timestamp", "logio.infer_format",
    "model.round_half_up_ms", "metrics.overlap", "cli.main",
})
COMMANDS = ("adjust", "aux", "metrics", "inject")


def _rows_in(counts: Counter, args: tuple, log) -> None:
    counts["logio.rows_in"] += len(log)
    counts["logio.bytes_in"] += os.path.getsize(args[0])


def _rows_out(counts: Counter, args: tuple, _) -> None:
    counts["logio.rows_out"] += len(args[0])
    counts["logio.bytes_out"] += os.path.getsize(args[1])


def _report_out(counts: Counter, args: tuple, _) -> None:
    counts["logio.bytes_out"] += os.path.getsize(args[1])


def _segments(counts: Counter, _, segments) -> None:
    # The same input log is partitioned on every path: keep, don't add.
    counts["model.items"] = sum(len(s) for s in segments)
    counts["model.resources"] = len(segments)
    counts["model.max_items_per_resource"] = max(map(len, segments), default=0)


def _points(counts: Counter, _, points) -> None:
    counts["sweep.points"] += len(points)


def _intervals(counts: Counter, _, intervals) -> None:
    counts["sweep.intervals"] += len(intervals)
    peak = max((len(iv.active_ids) for iv in intervals), default=0)
    counts["sweep.peak_live"] = max(counts["sweep.peak_live"], peak)


def _shares(counts: Counter, _, shares) -> None:
    counts["sweep.shares"] += len(shares)


def _pair_pass(counts: Counter, args: tuple, _) -> None:
    counts["metrics.pairs_examined"] += comb(len(args[0]), 2)


def _summary(counts: Counter, _, report) -> None:
    counts["metrics.pairs_overlapped"] += report.counts.pairs_overlapped


def _candidates(counts: Counter, args: tuple, _) -> None:
    counts["inject.candidates"] += sum(1 for it in args[0].items if it.end > it.start)


def _planned(counts: Counter, _, plan) -> None:
    counts["inject.pairs_planned"] += len(plan.pairs)


HOOKS: dict[str, CountHook] = {
    "logio.read_csv": _rows_in,
    "logio.read_xes": _rows_in,
    "logio.write_csv": _rows_out,
    "logio.write_xes": _rows_out,
    "logio.write_report": _report_out,
    "model.segments_per_resource": _segments,
    "sweep.build_time_points": _points,
    "sweep.build_intervals": _intervals,
    "sweep.build_aux_items": _shares,
    "metrics.mtri": _pair_pass,
    "metrics.overlapped_pairs": _pair_pass,
    "metrics.summarize": _summary,
    "inject.find_adjacent_pairs": _candidates,
    "inject.plan_shifts": _planned,
}

# Summed self time of these spans gives each per-layer `_s` metric.
SELF_TIME = {
    "logio.read_s": ("logio.read_csv", "logio.read_xes"),
    "logio.write_s": ("logio.write_csv", "logio.write_xes", "logio.write_log"),
    "logio.report_s": ("logio.write_report", "logio.report_to_dict"),
    "model.validate_s": ("model.validate_log",),
    "model.segments_s": ("model.segments_per_resource",),
    "sweep.points_s": ("sweep.build_time_points",),
    "sweep.intervals_s": ("sweep.build_intervals",),
    "sweep.shares_s": ("sweep.build_aux_items",),
    "sweep.adjust_self_s": ("sweep.adjust_log", "sweep.format_adjustment_table"),
    "inject.find_pairs_s": ("inject.find_adjacent_pairs",),
    "inject.plan_s": ("inject.plan_shifts",),
}

_METRIC_OF = {name: metric for metric, names in SELF_TIME.items() for name in names}

COUNTS = (
    "logio.rows_in", "logio.rows_out", "logio.bytes_in", "logio.bytes_out",
    "model.validate_calls", "model.segments_calls", "model.items",
    "model.resources", "model.max_items_per_resource",
    "sweep.points", "sweep.intervals", "sweep.shares", "sweep.peak_live",
    "metrics.pairs_examined", "metrics.pairs_overlapped",
    "inject.candidates", "inject.pairs_planned",
    "cli.aux_rows", "cli.failed_calls",
)
TIMES = (
    *SELF_TIME, "metrics.summarize_s", "inject.apply_s",
    *(f"cli.{cmd}_self_s" for cmd in COMMANDS),
)
RATIOS = (
    "sweep.shares_per_item", "metrics.overlap_yield", "inject.pair_yield",
    *(f"trace.{cmd}_overhead_frac" for cmd in COMMANDS),
)


def targets() -> dict[str, CountHook | None]:
    """Every public function of the traced modules, with its count hook."""
    found = {}
    for short in MODULES:
        module = sys.modules[f"{PACKAGE}.{short}"]
        for name, value in vars(module).items():
            qualified = f"{short}.{name}"
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not name.startswith("_")
                and qualified not in PER_ELEMENT
            ):
                found[qualified] = HOOKS.get(qualified)
    missing = set(HOOKS) - set(found)
    if missing:
        raise RuntimeError(f"traced functions not found: {sorted(missing)}")
    return found


def round_times(spans: list[Span], first: int, command: str) -> dict[str, float]:
    """Per-layer self times of one subcommand call, whose spans start at
    index ``first``."""
    times: dict[str, float] = defaultdict(float)
    for span, own in zip(spans[first:], self_times(spans, first)):
        if span.name in _METRIC_OF:
            times[_METRIC_OF[span.name]] += own
        if span.name.startswith("metrics."):
            times["metrics.summarize_s"] += own
        elif span.name.startswith("cli."):
            times[f"cli.{command}_self_s"] += own
        if span.name == "inject.inject" or (
            span.name == "model.validate_log"
            and span.parent >= 0 and spans[span.parent].name == "inject.inject"
        ):
            # Applying the plan includes re-validating the shifted log.
            times["inject.apply_s"] += own
    return times


def span_counts(spans: list[Span], first: int) -> Counter:
    calls = Counter(span.name for span in spans[first:])
    return Counter({
        "model.validate_calls": calls["model.validate_log"],
        "model.segments_calls": calls["model.segments_per_resource"],
    })


def per_layer(rounds: list[dict[str, float]], counts: Counter,
              overhead: dict[str, float]) -> dict[str, float]:
    """Median of each self time over the traced rounds, the counts of one
    round, and the derived ratios."""
    values: dict[str, float] = {
        name: statistics.median(r.get(name, 0.0) for r in rounds) for name in TIMES
    }
    values.update({name: counts[name] for name in COUNTS})
    swept = counts["sweep.points"] / 2
    values["sweep.shares_per_item"] = counts["sweep.shares"] / swept if swept else 0.0
    examined = counts["metrics.pairs_examined"]
    values["metrics.overlap_yield"] = (
        counts["metrics.pairs_overlapped"] / examined if examined else 0.0
    )
    candidates = counts["inject.candidates"]
    values["inject.pair_yield"] = (
        2 * counts["inject.pairs_planned"] / candidates if candidates else 0.0
    )
    for cmd in COMMANDS:
        values[f"trace.{cmd}_overhead_frac"] = overhead[cmd]
    return values
