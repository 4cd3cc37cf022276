"""Batch command-line front end.

``run`` reads the input log once, prints the sweep's table to stderr for
``--debug-table``, and hands the log to one of four subcommands, each one
public library call that writes: ``adjust`` the coalesced log, ``aux`` the
fair-share table, ``metrics`` an index report (to a file or stdout), and
``inject`` a log with synthetic overlap.  Diagnostics go to stderr.  Exit
codes: 0 success, 1 input or I/O error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .inject import inject
from .logio import (
    FORMATS,
    read_log,
    report_to_json,
    write_aux,
    write_log,
    write_report,
)
from .metrics import summarize
from .model import EventLog
from .sweep import adjust_log, format_adjustment_table


def _cmd_adjust(log: EventLog, args: argparse.Namespace) -> None:
    write_log(adjust_log(log).coalesced, args.format, args.out)


def _cmd_aux(log: EventLog, args: argparse.Namespace) -> None:
    write_aux(log, args.out)


def _cmd_metrics(log: EventLog, args: argparse.Namespace) -> None:
    report = summarize(log)
    if args.report:
        write_report(report, args.report)
    else:
        print(report_to_json(report))


def _cmd_inject(log: EventLog, args: argparse.Namespace) -> None:
    write_log(inject(log, args.shift), args.format, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweeplog",
        description=(
            "Pre-process event logs for resource multitasking: fair-share "
            "time adjustment, multitasking indexes, synthetic overlap."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, needs_out: bool) -> None:
        sub.add_argument("--in", dest="input", required=True, metavar="PATH",
                         help="input event log")
        if needs_out:
            sub.add_argument("--out", required=True, metavar="PATH",
                             help="output file")
        sub.add_argument("--format", choices=FORMATS,
                         help="log format (default: from file extension)")
        sub.set_defaults(debug_table=False)  # what adjust and aux can set

    for name, handler, summary in (
        ("adjust", _cmd_adjust,
         "write the log with fair-share adjusted durations"),
        ("aux", _cmd_aux, "write the fair-share table (one row per share)"),
    ):
        sweeping = commands.add_parser(name, help=summary)
        add_common(sweeping, needs_out=True)
        sweeping.add_argument("--debug-table", action="store_true",
                              help="dump boundary points, intervals, and "
                                   "shares to stderr")
        sweeping.set_defaults(handler=handler)

    metrics = commands.add_parser(
        "metrics", help="compute multitasking indexes and counts")
    add_common(metrics, needs_out=False)
    metrics.add_argument("--report", metavar="PATH",
                         help="write the report here instead of stdout")
    metrics.set_defaults(handler=_cmd_metrics)

    injector = commands.add_parser(
        "inject", help="overlap adjacent items by a percentage")
    add_common(injector, needs_out=True)
    injector.add_argument("--shift", type=float, required=True,
                          metavar="FLOAT",
                          help="shift percentage in [0, 1]")
    injector.set_defaults(handler=_cmd_inject)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and execute one subcommand; return the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        log = read_log(args.input, args.format)
        if args.debug_table:
            print(format_adjustment_table(log), file=sys.stderr)
        args.handler(log, args)
        return 0
    except (ValueError, OSError) as exc:  # LogFormatError is a ValueError
        print(f"sweeplog: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
