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
expressed faithfully by lifecycle events and do not round-trip.  XES is
written as fixed text, with ElementTree's escapes in attribute values,
and read one trace at a time with ElementTree's ``iterparse``.

Timestamps are serialized as UTC ISO-8601 with milliseconds; anything a
file supplies below one millisecond is rounded half-up on read.
"""

from __future__ import annotations

import csv
import json
import re
import xml.etree.ElementTree as ET
from datetime import date, datetime, time, timedelta, timezone
from functools import lru_cache
from itertools import groupby
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Union

from .metrics import MetricsReport
from .model import EventLog, WorkItem, _id_key, _ordered, _round_half_up

PathLike = Union[str, Path]

CSV_COLUMNS = (
    "case_id",
    "activity",
    "resource",
    "start_timestamp",
    "end_timestamp",
)

FORMATS = ("csv", "xes")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

_TRANSITION_START = "start"
_TRANSITION_COMPLETE = "complete"


class LogFormatError(ValueError):
    """Raised for malformed CSV/XES input, with file position context."""


# One parsed work item before ids exist: (trace_id, start, end, activity,
# resource), so that a plain sort gives the canonical row order.
_Row = tuple[str, int, int, str, str]

# Python 3.11's fromisoformat grammar, of which 3.10's reads only a part:
# basic or week dates, HH[[:]MM[[:]SS]] times, a "." or "," fraction of
# any length after any time field, offsets of HH[[:]MM[[:]SS[.f]]].
_ISO_8601 = re.compile(
    r"(?P<y>\d{4})(?:(?P<ds>-?)(?P<mo>\d\d)(?P=ds)(?P<d>\d\d)"
    r"|(?P<ws>-?)W(?P<w>\d\d)(?:(?P=ws)(?P<wd>\d))?)"
    r"(?:\D(?P<H>\d\d)(?:(?P<ts>:?)(?P<M>\d\d)(?:(?P=ts)(?P<S>\d\d))?)?"
    r"(?:[.,](?P<f>\d+)|[.,](?=[+-]))?"  # 3.11 allows "." before an offset
    r"(?:(?P<sign>[+-])(?P<oH>\d\d)(?:(?P<os>:?)(?P<oM>\d\d)"
    r"(?:(?P=os)(?P<oS>\d\d)(?:[.,](?P<of>\d+))?)?)?)?)?", re.ASCII)


def _parse_iso_8601(text: str) -> datetime:
    match = _ISO_8601.fullmatch(text)
    if match is None:
        raise ValueError(f"not ISO 8601: {text!r}")
    # Fractions keep whole microseconds, as fromisoformat's do.
    num = {key: int(value.ljust(6, "0")[:6] if key in ("f", "of") else value)
           for key, value in match.groupdict("0").items() if value.isdigit()}
    day = (date.fromisocalendar(num["y"], num["w"], int(match["wd"] or 1))
           if match["w"] else date(num["y"], num["mo"], num["d"]))
    offset = timedelta(hours=num["oH"], minutes=num["oM"], seconds=num["oS"],
                       microseconds=num["of"])
    zone = timezone(-offset if match["sign"] == "-" else offset)
    return datetime.combine(day, time(num["H"], num["M"], num["S"], num["f"]),
                            zone if match["sign"] else None)


# The shape fromisoformat reads as _parse_iso_8601 does on every version.
# Elsewhere 3.11+ misreads: "T1234567+01:00" and "T12:34:567+01:00" as
# 12:34:56, "T12345+01:00" as 12:34, and a "+01:00.5" offset fraction.
_PLAIN_ISO = re.compile(
    r"\d{4}-\d\d-\d\d[T ]\d\d:\d\d:\d\d(?:[.,]\d+)?(?:[+-]\d\d:\d\d)?",
    re.ASCII)


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 timestamp to epoch milliseconds.

    Accepts optional fractional seconds and UTC offset; a trailing ``Z``
    and missing offsets (read as UTC) are tolerated.  Every Python reads
    exactly the forms Python 3.11's ``fromisoformat`` reads correctly.
    """
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        try:
            if _PLAIN_ISO.fullmatch(cleaned) is None:
                raise ValueError(cleaned)
            moment = datetime.fromisoformat(cleaned)
        except ValueError:
            # Another shape, or one Python 3.10's fromisoformat cannot read.
            moment = _parse_iso_8601(cleaned)
    except ValueError as exc:
        raise LogFormatError(f"unparseable timestamp {text!r}") from exc
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    delta = moment - _EPOCH
    return (
        delta.days * 86_400_000
        + delta.seconds * 1_000
        + _round_half_up(delta.microseconds, 1_000)
    )


# The "MM:SS." of each second of an hour, and the "mmm+00:00" of each ms.
_TWO_DIGITS = [f"{n:02}" for n in range(60)]  # formats once, not 3,600 times
_MM_SS = tuple(f"{m}:{s}." for m in _TWO_DIGITS for s in _TWO_DIGITS)
_MS_UTC = tuple(f"{ms:03}+00:00" for ms in range(1_000))


@lru_cache(maxsize=1024)  # bounded: random stamps would fill a plain cache
def _hour_prefix(hour: int) -> str:
    return (_EPOCH + timedelta(hours=hour)).isoformat()[:14]


def format_timestamp(ms: int) -> str:
    """Epoch milliseconds to UTC ISO-8601 with millisecond precision."""
    hour, rest = divmod(ms, 3_600_000)
    second, milli = divmod(rest, 1_000)
    return _hour_prefix(hour) + _MM_SS[second] + _MS_UTC[milli]


def _assemble(rows: Iterable[_Row]) -> EventLog:
    # Ids are sequential in canonical row order, so re-reads get identical
    # ids.  Every row a reader appends already meets validate_log's rules.
    return _ordered(
        WorkItem(seq, activity, resource, trace_id, start, end)
        for seq, (trace_id, start, end, activity, resource)
        in enumerate(sorted(rows), start=1)
    )


def read_csv(path: PathLike) -> EventLog:
    """Read a CSV event log.

    The header must carry exactly the five canonical columns
    (case-insensitive).  Errors name the offending physical line and column.
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

        def error(message: str) -> LogFormatError:
            return LogFormatError(f"{path}: line {reader.line_num}: {message}")

        rows: list[_Row] = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise error(f"expected {len(CSV_COLUMNS)} fields, "
                            f"got {len(row)}")
            case_id, activity, resource, start_text, end_text = row
            column = "start_timestamp"
            try:
                start = parse_timestamp(start_text)
                column = "end_timestamp"
                end = parse_timestamp(end_text)
            except LogFormatError as exc:
                raise error(f"column {column}: {exc}") from None
            if end < start:
                raise error("end timestamp precedes start")
            if not activity or not resource or not case_id:
                raise error("empty activity, resource or case_id")
            rows.append((case_id, start, end, activity, resource))
    return _assemble(rows)


def write_csv(log: EventLog, path: PathLike) -> None:
    """Write a log as CSV, one row per work item, in log order."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(
            (item.trace_id, item.activity, item.resource,
             format_timestamp(item.start), format_timestamp(item.end))
            for item in log.items
        )


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def read_xes(path: PathLike) -> EventLog:
    """Read the XES dialect, fusing start/complete pairs into work items.

    Pairing is FIFO per (trace, activity, resource) in document order.
    Unmatched events and unknown lifecycle transitions are errors naming
    the trace and activity.  The k-th trace, if unnamed, is called
    ``trace-k``, a name that no named trace may also carry.  Traces are
    read one at a time, so faults are reported in document order.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            return _assemble(_xes_rows(path, handle))
    except ET.ParseError as exc:
        raise LogFormatError(f"{path}: XML parse failure: {exc}") from exc


def _xes_rows(path: Path, handle: BinaryIO) -> Iterator[_Row]:
    def error(message: str, activity: str | None = None) -> LogFormatError:
        where = f"trace {trace_id!r}"
        if activity is not None:
            where += f", activity {activity!r}"
        return LogFormatError(f"{path}: {where}: {message}")

    events = ET.iterparse(handle, ("start", "end"))
    _, root = next(events)
    depth = 0  # below the root
    trace_count = 0
    named_by_id: dict[str, bool] = {}
    for event, element in events:
        depth += 1 if event == "start" else -1
        if depth == 0:  # the root lets go of each child as soon as it ends
            root.clear()
        if depth or _local_name(element.tag) != "trace":
            continue
        trace_count += 1
        trace_id = next((child.get("value") for child in element
                         if _local_name(child.tag) != "event"
                         and child.get("key") == "concept:name"), None)
        named = bool(trace_id)
        trace_id = trace_id if named else f"trace-{trace_count}"
        if named_by_id.setdefault(trace_id, named) != named:
            raise LogFormatError(
                f"{path}: trace name {trace_id!r} is both given and generated"
            )

        open_starts: dict[tuple[str, str], list[int]] = {}
        for child in element:
            if _local_name(child.tag) != "event":
                continue
            attrs = {attr.get("key"): attr.get("value", "") for attr in child
                     if attr.get("key") is not None}
            activity = attrs.get("concept:name")
            resource = attrs.get("org:resource")
            transition = attrs.get("lifecycle:transition", "").lower()
            stamp_text = attrs.get("time:timestamp")
            if not activity or not resource or stamp_text is None:
                raise error("event missing concept:name, org:resource, "
                            "or time:timestamp")
            try:
                stamp = parse_timestamp(stamp_text)
            except LogFormatError as exc:
                raise error(str(exc), activity) from None
            key = (activity, resource)
            if transition == _TRANSITION_START:
                open_starts.setdefault(key, []).append(stamp)
            elif transition == _TRANSITION_COMPLETE:
                pending = open_starts.get(key)
                if not pending:
                    raise error("'complete' without a prior start", activity)
                start = pending.pop(0)
                if stamp < start:
                    raise error("'complete' precedes its start", activity)
                yield (trace_id, start, stamp, activity, resource)
            else:
                raise error("unsupported lifecycle:transition "
                            f"{attrs.get('lifecycle:transition')!r}", activity)
        for (activity, _), pending in open_starts.items():
            if pending:
                raise error("'start' without a matching complete", activity)


# The dialect's fixed text: two-space indentation, no newline after </log>.
_XES_HEAD = """\
<?xml version='1.0' encoding='utf-8'?>
<log xes.version="1849.2016" xes.features="">
  <extension name="Concept" prefix="concept" \
uri="http://www.xes-standard.org/concept.xesext" />
  <extension name="Organizational" prefix="org" \
uri="http://www.xes-standard.org/org.xesext" />
  <extension name="Time" prefix="time" \
uri="http://www.xes-standard.org/time.xesext" />
  <extension name="Lifecycle" prefix="lifecycle" \
uri="http://www.xes-standard.org/lifecycle.xesext" />
"""

# ElementTree's escapes for attribute values.
_ESCAPE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                         "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})

# Characters outside XML 1.0's Char production; no XML parser reads them.
_NON_XML = re.compile(
    r"[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def write_xes(log: EventLog, path: PathLike) -> None:
    """Write a log in the XES dialect.

    Traces are sorted by id; each item becomes a start and a complete
    event, and a trace's events are ordered by timestamp (stable on ties,
    so FIFO re-reading reproduces the items).  The text is fixed, with
    ElementTree's escapes in attribute values.  A name holding a
    character that XML 1.0 cannot carry raises :class:`ValueError`
    before the file is opened.
    """
    ordered = sorted(log.items,
                     key=lambda w: (w.trace_id, w.start, w.end, _id_key(w.id)))
    for item in ordered:
        bad = _NON_XML.search(item.trace_id + item.activity + item.resource)
        if bad:
            raise ValueError(f"{path}: trace {item.trace_id!r}: character "
                             f"{bad[0]!r} cannot be written to XML")
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(_XES_HEAD)
        for trace_id, items in groupby(ordered, key=lambda w: w.trace_id):
            handle.write(f"""\
  <trace>
    <string key="concept:name" value="{trace_id.translate(_ESCAPE)}" />
""")
            events: list[tuple[int, str]] = []
            for item in items:
                activity = item.activity.translate(_ESCAPE)
                resource = item.resource.translate(_ESCAPE)
                for stamp, transition in ((item.start, _TRANSITION_START),
                                          (item.end, _TRANSITION_COMPLETE)):
                    events.append((stamp, f"""\
    <event>
      <string key="concept:name" value="{activity}" />
      <string key="org:resource" value="{resource}" />
      <string key="lifecycle:transition" value="{transition}" />
      <date key="time:timestamp" value="{format_timestamp(stamp)}" />
    </event>
"""))
            events.sort(key=lambda entry: entry[0])
            handle.writelines(text for _, text in events)
            handle.write("  </trace>\n")
        handle.write("</log>")


def _format(fmt: str | None, path: PathLike) -> str:
    fmt = fmt or infer_format(path)
    if fmt not in FORMATS:
        raise ValueError(f"unknown log format {fmt!r}, expected csv or xes")
    return fmt


def read_log(path: PathLike, fmt: str | None = None) -> EventLog:
    """Read a ``csv`` or ``xes`` log; ``fmt`` defaults to the extension's.

    A missing file raises :class:`LogFormatError` ("no such file").
    """
    reader = read_csv if _format(fmt, path) == "csv" else read_xes
    try:
        return reader(path)
    except FileNotFoundError:
        raise LogFormatError(f"{path}: no such file") from None


def write_log(log: EventLog, fmt: str | None, path: PathLike) -> None:
    """Write a log as ``csv`` or ``xes``; ``None`` means the extension's."""
    writer = write_csv if _format(fmt, path) == "csv" else write_xes
    writer(log, path)


def infer_format(path: PathLike) -> str:
    """Derive the log format from a file extension."""
    fmt = Path(path).suffix.lower()[1:]
    if fmt not in FORMATS:
        raise ValueError(f"cannot infer log format from {path!r}; "
                         "pass the format explicitly")
    return fmt


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


def report_to_json(report: MetricsReport) -> str:
    """The flat JSON key/value text of a report, keys sorted."""
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


def write_report(report: MetricsReport, path: PathLike) -> None:
    """Write a metrics report as a flat JSON key/value document."""
    Path(path).write_text(report_to_json(report) + "\n", encoding="utf-8")
