"""Every file sweeplog reads or writes: logs (CSV, XES), aux tables, reports.

Neither format carries work-item identifiers: ids are assigned here as
sequential integers after rows are put into a canonical order, so reading
a file twice, or reading what was just written, yields identical logs.
A read log holds one ``str`` per distinct case id, activity and resource.

The XES dialect is deliberately small: per-trace events with
``concept:name``, ``org:resource``, ``time:timestamp``, and a
``lifecycle:transition`` of ``start`` or ``complete``.  Start and complete
events of the same trace, activity, and resource are fused FIFO: the
k-th start pairs with the k-th complete, in document order.  Other event
attributes are ignored on read and never written.  Interleavings where
same-activity items of one trace and resource strictly nest cannot be
expressed faithfully by lifecycle events and do not round-trip.  XES is
written as fixed text, with ElementTree's escapes in attribute values,
and read one trace at a time through a ``pyexpat`` start-tag callback.

Timestamps are serialized as UTC ISO-8601 with milliseconds; anything a
file supplies below one millisecond is rounded half-up on read.
"""

from __future__ import annotations

import csv
import json
import re
from collections import defaultdict, deque
from datetime import date, datetime, timedelta, timezone
from functools import lru_cache
from itertools import count, groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence, Union
from xml.parsers import expat

from .metrics import MetricsReport
from .model import (FIRST_INSTANT, LAST_INSTANT, EventLog, WorkItem,
                    _resorted, _round_half_up)
from .sweep import _sweeps

PathLike = Union[str, Path]

CSV_COLUMNS = (
    "case_id",
    "activity",
    "resource",
    "start_timestamp",
    "end_timestamp",
)

AUX_COLUMNS = ("aux_id", "parent_id", *CSV_COLUMNS, "duration_ms")

FORMATS = ("csv", "xes")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

_TRANSITION_START = "start"
_TRANSITION_COMPLETE = "complete"


class LogFormatError(ValueError):
    """Raised for malformed CSV/XES input, with file position context."""


# One parsed work item before ids exist: (trace_id, start, end, activity,
# resource), so that a plain sort gives the canonical row order.
_Row = tuple[str, int, int, str, str]

# The ISO 8601 that parse_timestamp reads: basic or week dates, times
# HH[[:]MM[[:]SS]] to hour 23, a "." or "," fraction of any length after
# any time field, offsets HH[[:]MM[[:]SS[.f]]].  fromisoformat converts
# what it matches; alone it reads more (see _PLAIN_ISO).
_ISO_8601 = re.compile(
    r"\d{4}(?:(?P<ds>-?)\d\d(?P=ds)\d\d|(?P<ws>-?)W\d\d(?:(?P=ws)\d)?)"
    r"(?:\D(?:[01]\d|2[0-3])(?:(?P<ts>:?)\d\d(?:(?P=ts)\d\d)?)?"
    r"(?:[.,]\d+|[.,](?=[+-]))?"  # fromisoformat allows "." before an offset
    r"(?:[+-]\d\d(?:(?P<os>:?)\d\d(?:(?P=os)\d\d(?:[.,]\d+)?)?)?)?)?",
    re.ASCII)


def _parse_iso_8601(text: str) -> datetime:
    if _ISO_8601.fullmatch(text) is None:
        raise ValueError(f"not ISO 8601: {text!r}")
    return datetime.fromisoformat(text)


# A part of _ISO_8601, checked faster.  Outside the grammar 3.11+ misreads:
# "T1234567+01:00" and "T12:34:567+01:00" as 12:34:56, "T12345+01:00" as
# 12:34, and a "+01:00.5" offset fraction.
_PLAIN_ISO = re.compile(
    r"\d{4}-\d\d-\d\d[T ](?:[01]\d|2[0-3]):\d\d:\d\d(?:[.,]\d+)?"
    r"(?:[+-]\d\d:\d\d)?", re.ASCII)


def _parse_timestamp(text: str) -> int:
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        moment = (datetime.fromisoformat(cleaned)
                  if _PLAIN_ISO.fullmatch(cleaned) else _parse_iso_8601(cleaned))
    except ValueError as exc:
        raise LogFormatError(f"unparseable timestamp {text!r}") from exc
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    delta = moment - _EPOCH
    ms = (delta.days * 86_400_000 + delta.seconds * 1_000
          + _round_half_up(delta.microseconds, 1_000))
    if not FIRST_INSTANT <= ms <= LAST_INSTANT:
        raise LogFormatError(f"timestamp {text!r} is outside years 1-9999 UTC")
    return ms


# The "MM:SS." of each second of an hour, and the "mmm+00:00" of each ms.
_TWO_DIGITS = [f"{n:02}" for n in range(60)]  # formats once, not 3,600 times
_MM_SS = tuple(f"{m}:{s}." for m in _TWO_DIGITS for s in _TWO_DIGITS)
_MS_UTC = tuple(f"{ms:03}+00:00" for ms in range(1_000))

# parse_timestamp's day and tables: each piece of a UTC stamp to its ms.  The
# hour key starts at the day's "-", as fromisoformat also reads "YYYYMMDD"
# and any two characters as a day; no other day it reads has "-" at index 7.
_date = date.fromisoformat  # bound once: a lookup on date per stamp is slower
_EPOCH_DAY = date(1970, 1, 1).toordinal()
_HOUR_MS = {f"-{dd}{sep}{hh}:": ms  # an hour's 62 keys share one int
            for hh in _TWO_DIGITS[:24] for ms in [int(hh) * 3_600_000]
            for dd in _TWO_DIGITS[1:32] for sep in "T "}
_MM_SS_MS = {text: second * 1_000 for second, text in enumerate(_MM_SS)}
_MILLI_MS = {text[:3]: milli for milli, text in enumerate(_MS_UTC)}


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 timestamp to epoch milliseconds.

    Accepts optional fractional seconds and UTC offset; a trailing ``Z``
    and missing offsets (read as UTC) are tolerated.  Every Python reads
    exactly the forms Python 3.11's ``fromisoformat`` reads correctly.
    UTC ``YYYY-MM-DD[T ]HH:MM:SS.mmm`` is looked up (``date.fromisoformat``
    and three tables); the full parser reads the rest, with its errors.
    """
    if text[23:] in ("Z", "z", "+00:00"):
        try:  # a missed piece or an invalid day leaves it to the full parser
            return (_HOUR_MS[text[7:14]] + _MM_SS_MS[text[14:20]]
                    + _MILLI_MS[text[20:23]]  # before the day, which they guard
                    + (_date(text[:10]).toordinal() - _EPOCH_DAY) * 86_400_000)
        except (KeyError, ValueError):
            pass
    return _parse_timestamp(text)


@lru_cache(maxsize=1024)  # bounded: random stamps would fill a plain cache
def _hour_prefix(hour: int) -> str:
    return (_EPOCH + timedelta(hours=hour)).isoformat()[:14]


def format_timestamp(ms: int) -> str:
    """Epoch milliseconds to UTC ISO-8601 with millisecond precision."""
    hour, rest = divmod(ms, 3_600_000)
    second, milli = divmod(rest, 1_000)
    return _hour_prefix(hour) + _MM_SS[second] + _MS_UTC[milli]


def _assemble(rows: list[_Row]) -> EventLog:
    """A reader's log; consumes its list, popping each row as its item is
    built.  Ids follow canonical row order, so re-reads get equal ids.  Rows
    meet validate_log's rules and order but that ids sort as text, which
    _resorted checks at each id 10^k, the only place where it can differ."""
    rows.sort(reverse=True)  # popped from the end; equal rows are equal
    items = [WorkItem(seq, activity, resource, trace_id, start, end)
             for seq in range(1, len(rows) + 1)
             for trace_id, start, end, activity, resource in [rows.pop()]]
    return _resorted(items, (10**k - 1  # the index of id 10^k
                             for k in range(1, len(str(len(items))))))


def read_csv(path: PathLike) -> EventLog:
    """Read a CSV event log.

    The header must carry exactly the five canonical columns
    (case-insensitive).  Errors name the offending physical line and column.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)

        def error(message: str) -> LogFormatError:
            return LogFormatError(f"{path}: line {reader.line_num}: {message}")

        rows: list[_Row] = []
        one = {}.setdefault  # one str per distinct name, for this read only
        try:  # csv.Error: a field over the size limit
            header = next(reader, None)
            if header is None:
                raise LogFormatError(f"{path}: empty file, expected a header")
            if tuple(name.strip().lower() for name in header) != CSV_COLUMNS:
                raise LogFormatError(f"{path}: malformed header {header!r}, "
                                     f"expected {','.join(CSV_COLUMNS)}")
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
                rows.append((one(case_id, case_id), start, end,
                             one(activity, activity), one(resource, resource)))
        except csv.Error as exc:
            raise error(str(exc)) from None
    return _assemble(rows)


# writerow returns what its file's write returns, here the record itself.
# Python 3.11 and 3.12 quote a field holding CR or LF only if the terminator
# holds it, so "\r\n" gives 3.13's quoting on every version.
_CSV_RECORD = csv.writer(SimpleNamespace(write=str), lineterminator="\r\n")
_QUOTED = re.compile(r'[,"\r\n]')  # what makes csv.writer quote a field


def _csv_record(fields: Iterable[object]) -> str:
    """One CSV record without its terminator, CR and LF fields quoted."""
    return _CSV_RECORD.writerow(fields)[:-2]


def _csv_join(items: Sequence[WorkItem]) -> Callable[[Iterable[str]], str]:
    """``_csv_record``, or the same text by ``",".join`` when no trace id,
    activity or resource needs quoting (read ids and stamps never do)."""
    quoted = any(_QUOTED.search("".join(set(map(attrgetter(field), items))))
                 for field in ("trace_id", "activity", "resource"))
    return _csv_record if quoted else ",".join


def write_csv(log: EventLog, path: PathLike) -> None:
    """Write a log as CSV, one row per work item, in log order."""
    join = _csv_join(log.items)
    rows = ((item.trace_id, item.activity, item.resource,
             format_timestamp(item.start), format_timestamp(item.end))
            for item in log.items)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        handle.writelines(f"{join(row)}\n" for row in rows)


def write_aux(log: EventLog, path: PathLike) -> None:
    """Write the fair-share table, one row per ``LogAdjustment.aux_items``."""
    join = _csv_join(log.items)  # names and int ids; a str id may need quotes
    aux_ids = count(1)

    def head(item: WorkItem) -> str:  # "parent_id,case_id,activity"
        return (join if type(item.id) is int else _csv_record)(
            (str(item.id), item.trace_id, item.activity))

    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(AUX_COLUMNS) + "\n")
        for resource, items, alone, cuts in _sweeps(log):
            resource_text = join((resource,))
            if alone is not None:  # a row per item, its duration, streamed
                handle.writelines(
                    f"{next(aux_ids)},{head(item)},{resource_text},"
                    f"{format_timestamp(item.start)},"
                    f"{format_timestamp(item.end)},{item.end - item.start}\n"
                    for item in alone)
                continue
            heads = {item.id: head(item) for item in items}  # this resource's
            for start, end, live in cuts:
                tail = (f"{resource_text},{format_timestamp(start)},"
                        f"{format_timestamp(end)},"
                        f"{_round_half_up(end - start, len(live))}\n")
                handle.write("".join([f"{next(aux_ids)},{heads[wiid]},{tail}"
                                      for wiid in live]))


def read_xes(path: PathLike) -> EventLog:
    """Read the XES dialect, fusing start/complete pairs into work items.

    Pairing is FIFO per (trace, activity, resource) in document order.
    Unmatched events and unknown lifecycle transitions are errors naming
    the trace and activity.  The k-th trace, if unnamed, is called
    ``trace-k``, a name that no named trace may also carry.  A trace is
    checked once the root's next child starts, or once the parse stops,
    failed or not, so faults are reported in document order.
    """
    path = Path(path)
    rows: list[_Row] = []
    one = {}.setdefault  # one str per distinct name, for this read only
    named_by_id: dict[str, bool] = {}
    names: list[str | None] = []  # the open trace's concept:name candidates
    events: list[dict[str, str]] | None = None  # its events, None outside
    event: dict[str, str] = {}  # the open event's attributes, or a throwaway
    ends: list[str] = []  # end tags since the last reset, appended by expat
    starts = trace_count = 0  # the depth reset to, plus start tags since

    def opened(tag: str, attrs: dict[str, str]) -> None:
        nonlocal starts, events, event
        depth = (starts := starts + 1) - len(ends)  # the root is at 1
        if depth == 4 and events is not None and "key" in attrs:
            event[attrs["key"]] = attrs.get("value", "")
        else:
            starts, ends[:] = depth, ()  # ends holds one event's ends at most
            if depth == 3 and events is not None:
                event = {}
                if tag.rpartition("}")[2] == "event":
                    events.append(event)
                elif attrs.get("key") == "concept:name":
                    names.append(attrs.get("value"))
            elif depth == 2:
                if events is not None:  # the root's last child was a trace
                    ended()
                names.clear()
                events = [] if tag.rpartition("}")[2] == "trace" else None

    def ended() -> None:
        nonlocal trace_count
        trace_count += 1
        named = bool(names and names[0])
        trace_id = names[0] if named else f"trace-{trace_count}"
        if named_by_id.setdefault(trace_id, named) != named:
            raise LogFormatError(f"{path}: trace name {trace_id!r} is both "
                                 "given and generated")

        def error(text: str, activity: str | None = None) -> LogFormatError:
            where = "" if activity is None else f", activity {activity!r}"
            return LogFormatError(f"{path}: trace {trace_id!r}{where}: {text}")

        waiting: defaultdict[tuple[str, str], deque[int]] = defaultdict(deque)
        for attrs in events:
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
            if transition == _TRANSITION_START:  # open starts, FIFO
                waiting[activity, resource].append(stamp)
            elif transition == _TRANSITION_COMPLETE:
                pending = waiting.get((activity, resource))
                if not pending:
                    raise error("'complete' without a prior start", activity)
                start = pending.popleft()
                if stamp < start:
                    raise error("'complete' precedes its start", activity)
                rows.append((trace_id, start, stamp, one(activity, activity),
                             one(resource, resource)))
            else:
                raise error("unsupported lifecycle:transition "
                            f"{attrs.get('lifecycle:transition')!r}", activity)
        for (activity, _), pending in waiting.items():
            if pending:
                raise error("'start' without a matching complete", activity)

    def undefined(name: str, *_: object) -> None:  # entities expat skips
        raise expat.ExpatError(  # as ElementTree; a context ends \f + name
            f"undefined entity &{name.rpartition(chr(12))[2]};: line "
            f"{parser.ErrorLineNumber}, column {parser.ErrorColumnNumber}")

    parser = expat.ParserCreate(namespace_separator="}")
    parser.StartElementHandler, parser.EndElementHandler = opened, ends.append
    parser.SkippedEntityHandler = parser.ExternalEntityRefHandler = undefined
    try:
        with path.open("rb") as handle:
            parser.ParseFile(handle)
    except (expat.ExpatError, LookupError) as exc:  # or an unknown encoding
        if events is not None and starts - len(ends) <= 1:
            ended()  # a trace that ended before the fault comes first
        raise LogFormatError(f"{path}: XML parse failure: {exc}") from exc
    if events is not None:
        ended()  # the last child of the root
    del parser  # its cycle with undefined would keep rows alive past return
    return _assemble(rows)


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
_NON_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def write_xes(log: EventLog, path: PathLike) -> None:
    """Write a log in the XES dialect.

    Items are written in log order, which groups them by trace id.  Each
    becomes a start and a complete event, and a trace's events are
    ordered by timestamp (stable on ties, so FIFO re-reading reproduces
    the items).  The text is fixed, with ElementTree's escapes made once
    per name.  A name holding a character that XML 1.0 cannot carry
    raises :class:`ValueError` before the file is opened.
    """
    escaped: dict[str, str] = {}  # each activity and resource, this write's
    for trace_id, items in groupby(log.items, key=attrgetter("trace_id")):
        new = dict.fromkeys(name for item in items for name in (
            item.activity, item.resource) if name not in escaped)  # log order
        if bad := _NON_XML.search(trace_id + "".join(new)):
            raise ValueError(f"{path}: trace {trace_id!r}: character "
                             f"{bad[0]!r} cannot be written to XML")
        escaped.update((name, name.translate(_ESCAPE)) for name in new)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write(_XES_HEAD)
        for trace_id, items in groupby(log.items, key=attrgetter("trace_id")):
            handle.write(f"""\
  <trace>
    <string key="concept:name" value="{trace_id.translate(_ESCAPE)}" />
""")
            events: list[tuple[int, str]] = []
            for item in items:
                names = f"""\
    <event>
      <string key="concept:name" value="{escaped[item.activity]}" />
      <string key="org:resource" value="{escaped[item.resource]}" />
      <string key="lifecycle:transition" value=\""""
                events += ((item.start, f"""{names}{_TRANSITION_START}" />
      <date key="time:timestamp" value="{format_timestamp(item.start)}" />
    </event>
"""), (item.end, f"""{names}{_TRANSITION_COMPLETE}" />
      <date key="time:timestamp" value="{format_timestamp(item.end)}" />
    </event>
"""))
            events.sort(key=itemgetter(0))
            handle.writelines(map(itemgetter(1), events))
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
    Path(path).write_text(report_to_json(report) + "\n", encoding="utf-8",
                          newline="")
