"""Reading and writing event logs (CSV and a minimal XES dialect) and reports.

Neither format carries work-item identifiers: ids are assigned here as
sequential integers after rows are put into a canonical order, so reading
a file twice, or reading what was just written, yields identical logs.

The XES dialect is deliberately small: per-trace events with
``concept:name``, ``org:resource``, ``time:timestamp``, and a
``lifecycle:transition`` of ``start`` or ``complete``.  Start and complete
events of the same trace, activity, and resource are fused FIFO: the
k-th start pairs with the k-th complete, in document order.  Other event
attributes are ignored on read and never written.  Interleavings where
same-activity items of one trace and resource strictly nest cannot be
expressed faithfully by lifecycle events and do not round-trip.

Timestamps are serialized as UTC ISO-8601 with milliseconds; anything a
file supplies below one millisecond is rounded half-up on read.
"""

from __future__ import annotations

import csv
import json
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Union

from .metrics import MetricsReport
from .model import EventLog, WorkItem, validate_log

PathLike = Union[str, Path]

CSV_COLUMNS = (
    "case_id",
    "activity",
    "resource",
    "start_timestamp",
    "end_timestamp",
)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

_TRANSITION_START = "start"
_TRANSITION_COMPLETE = "complete"


class LogFormatError(ValueError):
    """Raised for malformed CSV/XES input, with file position context."""


@dataclass(frozen=True)
class _Record:
    """One parsed work item, before ids exist."""

    trace_id: str
    activity: str
    resource: str
    start: int
    end: int


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 timestamp to epoch milliseconds.

    Accepts optional fractional seconds and UTC offset; a trailing ``Z``
    and missing offsets (read as UTC) are tolerated.
    """
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        try:
            moment = datetime.fromisoformat(cleaned)
        except ValueError:
            # 3.10 reads 3 or 6 digits only; 3.11+ pads or truncates to 6.
            moment = datetime.fromisoformat(re.sub(
                r"(?<=:\d\d\.)\d+", lambda m: f"{m[0]:0<6.6}", cleaned,
                count=1))
    except ValueError as exc:
        raise LogFormatError(f"unparseable timestamp {text!r}") from exc
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    delta = moment - _EPOCH
    return (
        delta.days * 86_400_000
        + delta.seconds * 1_000
        + (delta.microseconds + 500) // 1_000
    )


def format_timestamp(ms: int) -> str:
    """Epoch milliseconds to UTC ISO-8601 with millisecond precision."""
    moment = _EPOCH + timedelta(milliseconds=ms)
    return moment.isoformat(timespec="milliseconds")


def _assemble(records: Iterable[_Record]) -> EventLog:
    # Ids are sequential in canonical row order, so identical inputs (and
    # re-read outputs) always get identical ids.
    ordered = sorted(
        records,
        key=lambda r: (r.trace_id, r.start, r.end, r.activity, r.resource),
    )
    items = [
        WorkItem(
            id=seq,
            activity=record.activity,
            resource=record.resource,
            trace_id=record.trace_id,
            start=record.start,
            end=record.end,
        )
        for seq, record in enumerate(ordered, start=1)
    ]
    return validate_log(items)


def read_csv(path: PathLike) -> EventLog:
    """Read a CSV event log.

    The header must carry exactly the five canonical columns
    (case-insensitive).  Errors name the offending line and column.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise LogFormatError(f"{path}: empty file, expected a header")
        normalized = tuple(column.strip().lower() for column in header)
        if normalized != CSV_COLUMNS:
            raise LogFormatError(
                f"{path}: malformed header {header!r}, "
                f"expected {','.join(CSV_COLUMNS)}"
            )
        records = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise LogFormatError(
                    f"{path}: line {line_no}: expected "
                    f"{len(CSV_COLUMNS)} fields, got {len(row)}"
                )
            case_id, activity, resource, start_text, end_text = row
            column = "start_timestamp"
            try:
                start = parse_timestamp(start_text)
                column = "end_timestamp"
                end = parse_timestamp(end_text)
            except LogFormatError as exc:
                raise LogFormatError(
                    f"{path}: line {line_no}, column {column}: {exc}"
                ) from None
            if end < start:
                raise LogFormatError(
                    f"{path}: line {line_no}: end timestamp precedes start"
                )
            records.append(
                _Record(case_id, activity, resource, start, end)
            )
    return _assemble(records)


def write_csv(log: EventLog, path: PathLike) -> None:
    """Write a log as CSV, one row per work item, in log order."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for item in log.items:
            writer.writerow(
                (
                    item.trace_id,
                    item.activity,
                    item.resource,
                    format_timestamp(item.start),
                    format_timestamp(item.end),
                )
            )


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _event_attributes(event: ET.Element) -> dict[str, str]:
    values = {}
    for child in event:
        key = child.get("key")
        if key is not None:
            values[key] = child.get("value", "")
    return values


def read_xes(path: PathLike) -> EventLog:
    """Read the XES dialect, fusing start/complete pairs into work items.

    Pairing is FIFO per (trace, activity, resource) in document order.
    Unmatched events and unknown lifecycle transitions are errors naming
    the trace and activity.  The k-th trace, if unnamed, is called
    ``trace-k``, a name that no named trace may also carry.
    """
    path = Path(path)
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise LogFormatError(f"{path}: XML parse failure: {exc}") from exc

    records: list[_Record] = []
    trace_count = 0
    named_by_id: dict[str, bool] = {}
    for element in tree.getroot():
        if _local_name(element.tag) != "trace":
            continue
        trace_count += 1
        trace_id = None
        for child in element:
            if (
                _local_name(child.tag) != "event"
                and child.get("key") == "concept:name"
            ):
                trace_id = child.get("value")
                break
        named = trace_id is not None
        trace_id = trace_id if named else f"trace-{trace_count}"
        if named_by_id.setdefault(trace_id, named) != named:
            raise LogFormatError(
                f"{path}: trace name {trace_id!r} is both given and generated"
            )

        open_starts: dict[tuple[str, str], list[int]] = {}
        for child in element:
            if _local_name(child.tag) != "event":
                continue
            attrs = _event_attributes(child)
            activity = attrs.get("concept:name")
            resource = attrs.get("org:resource")
            transition = attrs.get("lifecycle:transition", "").lower()
            stamp_text = attrs.get("time:timestamp")
            if activity is None or resource is None or stamp_text is None:
                raise LogFormatError(
                    f"{path}: trace {trace_id!r}: event missing "
                    f"concept:name, org:resource, or time:timestamp"
                )
            try:
                stamp = parse_timestamp(stamp_text)
            except LogFormatError as exc:
                raise LogFormatError(
                    f"{path}: trace {trace_id!r}, activity {activity!r}: {exc}"
                ) from None
            key = (activity, resource)
            if transition == _TRANSITION_START:
                open_starts.setdefault(key, []).append(stamp)
            elif transition == _TRANSITION_COMPLETE:
                pending = open_starts.get(key)
                if not pending:
                    raise LogFormatError(
                        f"{path}: trace {trace_id!r}: 'complete' for "
                        f"activity {activity!r} without a prior start"
                    )
                start = pending.pop(0)
                records.append(
                    _Record(trace_id, activity, resource, start, stamp)
                )
            else:
                raise LogFormatError(
                    f"{path}: trace {trace_id!r}, activity {activity!r}: "
                    f"unsupported lifecycle:transition "
                    f"{attrs.get('lifecycle:transition')!r}"
                )
        for (activity, _), pending in open_starts.items():
            if pending:
                raise LogFormatError(
                    f"{path}: trace {trace_id!r}: 'start' for activity "
                    f"{activity!r} without a matching complete"
                )
    return _assemble(records)


def _string_attr(parent: ET.Element, key: str, value: str) -> None:
    ET.SubElement(parent, "string", key=key, value=value)


def write_xes(log: EventLog, path: PathLike) -> None:
    """Write a log in the XES dialect.

    Traces are sorted by id; each item becomes a start and a complete
    event, and a trace's events are ordered by timestamp (stable on ties,
    so FIFO re-reading reproduces the items).
    """
    root = ET.Element("log", {"xes.version": "1849.2016", "xes.features": ""})
    for name, prefix in (
        ("Concept", "concept"),
        ("Organizational", "org"),
        ("Time", "time"),
        ("Lifecycle", "lifecycle"),
    ):
        ET.SubElement(
            root,
            "extension",
            name=name,
            prefix=prefix,
            uri=f"http://www.xes-standard.org/{prefix}.xesext",
        )

    by_trace: dict[str, list[WorkItem]] = {}
    for item in log.items:
        by_trace.setdefault(item.trace_id, []).append(item)

    for trace_id in sorted(by_trace):
        trace = ET.SubElement(root, "trace")
        _string_attr(trace, "concept:name", trace_id)
        events: list[tuple[int, WorkItem, str]] = []
        for item in sorted(
            by_trace[trace_id], key=lambda w: (w.start, w.end, str(w.id))
        ):
            events.append((item.start, item, _TRANSITION_START))
            events.append((item.end, item, _TRANSITION_COMPLETE))
        events.sort(key=lambda entry: entry[0])
        for stamp, item, transition in events:
            event = ET.SubElement(trace, "event")
            _string_attr(event, "concept:name", item.activity)
            _string_attr(event, "org:resource", item.resource)
            _string_attr(event, "lifecycle:transition", transition)
            ET.SubElement(
                event, "date", key="time:timestamp",
                value=format_timestamp(stamp),
            )

    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)


def write_log(log: EventLog, fmt: str, path: PathLike) -> None:
    """Write a log as ``csv`` or ``xes``."""
    if fmt == "csv":
        write_csv(log, path)
    elif fmt == "xes":
        write_xes(log, path)
    else:
        raise ValueError(f"unknown log format {fmt!r}, expected csv or xes")


def infer_format(path: PathLike) -> str:
    """Derive the log format from a file extension."""
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".xes":
        return "xes"
    raise ValueError(
        f"cannot infer log format from {path!r}; pass the format explicitly"
    )


def _sig6(value: float) -> float:
    return float(f"{value:.6g}")


def report_to_dict(report: MetricsReport) -> dict[str, object]:
    """Flatten a report to dotted keys with 6-significant-digit numbers."""
    flat: dict[str, object] = {
        "mtli": _sig6(report.mtli),
        "mtwii": _sig6(report.mtwii),
        "mtwii.defined": report.mtwii_defined,
        "counts.tasks_multitasked": report.counts.tasks_multitasked,
        "counts.events_overlapped": report.counts.events_overlapped,
        "counts.resources_multitasking": report.counts.resources_multitasking,
        "counts.pairs_overlapped": report.counts.pairs_overlapped,
    }
    for resource, value in report.mtri_all.items():
        flat[f"mtri.{resource}"] = _sig6(value)
    return flat


def write_report(report: MetricsReport, path: PathLike) -> None:
    """Write a metrics report as a flat JSON key/value document."""
    Path(path).write_text(
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
