"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's sweep/pair machinery:
fair-share and busy-time oracles enumerate unit time steps, metric
oracles run explicit double loops over ordered pairs.  The all-pairs
``overlapped_pairs`` and tail-rescan ``find_adjacent_pairs`` are the
straightforward quadratic versions the library's sweeps replaced, and
``coalesced_by_shares`` is the share-summing adjuster that the virtual
clock replaced.  ``read_xes_tree`` is the whole-tree XES reader that the
streaming reader replaced.  ``read_xes_iterparse`` is that streaming
reader, which built an ``Element`` per XML element and which the ``pyexpat``
callbacks of ``read_xes`` replaced.  ``read_xes_by_end_handler`` is that
``read_xes`` as it was with a Python end-tag callback, which checked each
trace at its end tag, before ``list.append`` took the end tags and the next
child of the root (or the parse's end) became the check's cue, and
``write_xes_by_item_escapes`` is ``write_xes`` as it was when it checked
and escaped every item's names and rendered each event in full, before
one escape per distinct name and one rendering of the lines an item's
two events share.  ``summarize_by_pair_objects`` is the
``summarize`` that built one ``PairOverlap`` per overlapped pair (with
``overlapped_pairs_by_sweep``), and ``aux_text_by_rows`` is the ``aux``
table written one ``writerow`` per share, the loop that the pre-rendered
rows replaced.  ``time_points_by_objects``, ``intervals_by_objects``,
``aux_items_by_objects``, ``swept_by_objects`` and
``adjustment_table_by_objects`` are the sweep that built one ``TimePoint``
per boundary and one ``ActiveInterval`` per interval, which the id sweep
of tuples replaced; ``shares_by_resource`` and ``aux_text_by_rows`` use it.
``write_csv_by_writer`` is the CSV writer that sent every row through
``csv.writer``, which rows joined bare replaced when no name needs
quoting, and ``plan_shifts_by_fractions`` is the planner that multiplied a
``Fraction`` per pair, which integer deltas replaced.
``adjacent_pairs_by_deques`` and ``inject_by_full_sort`` are the injector
that kept a ``deque`` per start and sorted the whole shifted log again,
which a pointer per start and a sort of only the trace blocks that moved
replaced.  ``assemble_by_power_groups`` is the read-side ``_assemble`` that
sorted the ``(trace id, start)`` group of each id 10^k by id text, which
``model._resorted`` replaced.  ``parse_iso_8601_by_groups`` is the
ISO-8601 converter that built the ``date``, ``time`` and ``timezone`` from
the grammar's groups, which ``datetime.fromisoformat`` replaced once Python
3.11 became the oldest supported version; ``parse_timestamp_by_groups`` is
``parse_timestamp`` on top of it.  ``summarize_by_pair_sweep`` is the
``summarize`` that walked the pairs over ``segments_per_resource``, held a
resource's ratios in one list and wrote two ids per pair, which one flat
sweep per resource that streams each item's ratios to ``fsum`` replaced.
``pairs_by_live_items`` is the pair generator it walked: ``metrics._pairs``
before ``_pairs`` became a view of ``metrics._overlaps``, the indexes' walk.
``adjust_by_clock_on_every_resource`` is ``adjust_log`` and its exact ends
as they were when every resource got a virtual clock, before a resource
that never runs two items at once kept its items without one.
``NON_XML_BY_CHAR_PRODUCTION`` is ``logio._NON_XML`` as the complement of
XML 1.0's Char production, which the class of the code points outside it
replaced because it compiles about ten times faster on import.
``WorkItemByDict`` is ``WorkItem`` as a frozen dataclass that keeps its
fields in a ``__dict__`` and sets each through ``object.__setattr__``,
which slots set through their own setters replaced.
"""

from __future__ import annotations

import csv
import gc
import io
import random
import re
import tracemalloc
import xml.etree.ElementTree as ET
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from collections import deque
from datetime import date, datetime, time, timedelta, timezone
from itertools import accumulate, combinations, groupby
from math import comb, fsum, lcm
from operator import attrgetter
from pathlib import Path
from xml.parsers import expat

from sweeplog.inject import PlannedShift, ShiftPlan, find_adjacent_pairs
from sweeplog.logio import (
    _ESCAPE,
    _NON_XML,
    _TRANSITION_COMPLETE,
    _TRANSITION_START,
    _XES_HEAD,
    AUX_COLUMNS,
    CSV_COLUMNS,
    LogFormatError,
    _assemble,
    _csv_record,
    _Row,
    format_timestamp,
    parse_timestamp,
)
from sweeplog.metrics import (
    MetricsReport,
    PairOverlap,
    SummaryCounts,
    overlap,
)
from sweeplog.model import (
    FIRST_INSTANT,
    LAST_INSTANT,
    EventLog,
    ResourceSegment,
    WorkItem,
    _id_key,
    _ordered,
    _round_half_up,
    round_half_up_ms,
    segments_per_resource,
    validate_log,
)
from sweeplog.sweep import (
    MINUS,
    PLUS,
    ActiveInterval,
    AuxWorkItem,
    CoalescedItem,
    TimePoint,
)

RESOURCE = "R1"


def wi(item_id, start, end, resource=RESOURCE, activity=None, trace="c1"):
    return WorkItem(
        id=item_id,
        activity=activity or f"act-{item_id}",
        resource=resource,
        trace_id=trace,
        start=start,
        end=end,
    )


def make_log(items) -> EventLog:
    return validate_log(items)


CHAIN_RESOURCES = 10


def chain_log(count: int, resources: int = CHAIN_RESOURCES,
              stretch: int = 0) -> EventLog:
    # Item k is the (k // resources)-th of resource k % resources, and
    # starts where that resource's previous item ends: every item is
    # adjacent to the next.  Seven activities, and fifty items per trace.
    # A stretch below the 60 s step moves every end that many ms later,
    # so that each item overlaps the next by that much.
    base = 1_600_000_000_000  # 2020-09-13T12:26:40Z
    return make_log([
        wi(k + 1, base + k // resources * 60_000,
           base + (k // resources + 1) * 60_000 + stretch,
           resource=f"R{k % resources}", activity=f"act-{k % 7}",
           trace=f"c{k // 50}")
        for k in range(count)
    ])


def traced_peak(work):
    """``work()``'s result, and the bytes it left allocated and its peak,
    from ``tracemalloc`` on a second call (the first fills caches)."""
    work()
    gc.collect()
    tracemalloc.start()
    try:
        result = work()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


# Golden four-task, one-resource example: T1 spans the first 130 time
# units and overlaps T2 fully, T3 partly, and T4 partly; everything is
# done by minute 150 even though raw durations sum to 280.  Expressed in
# raw integer units so thirds stay visible as exact fractions.
def four_task_items(scale: int = 1):
    return [
        wi("A", 0 * scale, 130 * scale, activity="T1", trace="c1"),
        wi("B", 10 * scale, 75 * scale, activity="T2", trace="c1"),
        wi("C", 95 * scale, 150 * scale, activity="T3", trace="c2"),
        wi("D", 110 * scale, 140 * scale, activity="T4", trace="c2"),
    ]


def four_task_log(scale: int = 1) -> EventLog:
    return make_log(four_task_items(scale))


# The same log with real wall-clock timestamps (minutes from a base
# instant, stored as epoch milliseconds).
FOUR_TASK_CSV = """\
case_id,activity,resource,start_timestamp,end_timestamp
c1,T1,R1,2016-04-01T09:00:00.000+00:00,2016-04-01T11:10:00.000+00:00
c1,T2,R1,2016-04-01T09:10:00.000+00:00,2016-04-01T10:15:00.000+00:00
c2,T3,R1,2016-04-01T10:35:00.000+00:00,2016-04-01T11:30:00.000+00:00
c2,T4,R1,2016-04-01T10:50:00.000+00:00,2016-04-01T11:20:00.000+00:00
"""


def random_segment_items(
    rng: random.Random,
    max_items: int = 8,
    t_max: int = 200,
    resource: str = RESOURCE,
    tag: str = "",
):
    """Random positive-duration items with pairwise distinct spans.

    Distinct spans keep the share-count law exact: two items with
    identical spans would collapse into one interval and defeat the
    "extra shares iff overlap" equivalence.
    """
    count = rng.randint(1, max_items)
    spans = set()
    while len(spans) < count:
        start = rng.randint(0, t_max - 1)
        end = rng.randint(start + 1, t_max)
        spans.add((start, end))
    return [
        wi(f"{tag}w{index}", start, end, resource=resource,
           trace=f"{tag}t{index % 3}")
        for index, (start, end) in enumerate(sorted(spans))
    ]


def adversarial_items(rng: random.Random, max_items: int = 40):
    """Random items over a few resources, rich in coincidences.

    Spans repeat, starts coincide with earlier starts and ends (so items
    tie and chain), a share of items is instantaneous, ids mix ints and
    strings, and half of the logs sit at epoch-millisecond scale.
    """
    base = rng.choice((0, 1_600_000_000_000))
    items = []
    for resource in range(rng.randint(1, 3)):
        spans: list[tuple[int, int]] = []
        for _ in range(rng.randint(0, max_items)):
            roll = rng.random()
            if spans and roll < 0.2:
                start, end = rng.choice(spans)
            else:
                if spans and roll < 0.5:
                    start = rng.choice(rng.choice(spans))
                else:
                    start = rng.randint(0, 80)
                instantaneous = rng.random() < 0.15
                end = start if instantaneous else start + rng.randint(1, 40)
            spans.append((start, end))
            seq = len(items)
            items.append(
                wi(seq if seq % 2 else f"w{seq}", base + start, base + end,
                   resource=f"R{resource}", activity=f"act-{seq % 7}",
                   trace=f"t{seq % 4}")
            )
    return items


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def overlapped_pairs_by_combinations(segment) -> list[PairOverlap]:
    """Every unordered pair of the segment tested for positive intersection."""
    pairs = []
    for a, b in combinations(segment.items, 2):
        if min(a.end, b.end) - max(a.start, b.start) > 0:
            pairs.append(PairOverlap(a.id, b.id, overlap_ratio_direct(a, b)))
    return pairs


def adjacent_pairs_by_rescan(segment):
    """Greedy disjoint adjacent pairs, rescanning the tail for each pivot."""
    candidates = [item for item in segment.items if item.end > item.start]
    consumed = set()
    pairs = []
    for i, pivot in enumerate(candidates):
        if pivot.id in consumed:
            continue
        for partner in candidates[i + 1:]:
            if partner.id in consumed:
                continue
            if partner.start == pivot.end:
                pairs.append((pivot, partner))
                consumed.add(pivot.id)
                consumed.add(partner.id)
                break
    return pairs


def shares_by_resource(log: EventLog) -> dict:
    """Every (interval, live item) share, per resource in name order.

    Instantaneous items are left out; share ids run from 1 across the log.
    """
    shares = {}
    next_id = 1
    for resource, _, intervals in swept_by_objects(log):
        shares[resource] = tuple(aux_items_by_objects(intervals, next_id))
        next_id += len(shares[resource])
    return shares


def coalesced_by_shares(log: EventLog) -> tuple:
    """Exact coalesced items: each item ends at its start plus the sum of
    its shares, added one share at a time."""
    totals = {}
    for shares in shares_by_resource(log).values():
        for share in shares:
            totals[share.parent_id] = (
                totals.get(share.parent_id, Fraction(0)) + share.duration
            )
    return tuple(
        CoalescedItem(
            id=item.id,
            activity=item.activity,
            resource=item.resource,
            trace_id=item.trace_id,
            start=item.start,
            end_exact=item.start + totals.get(item.id, Fraction(0)),
        )
        for item in log.items
    )


def adjust_by_clock_on_every_resource(log: EventLog) -> tuple:
    """The coalesced log and the exact coalesced items, from one integer
    clock per resource: D = lcm(live counts) and D * clock at each
    boundary, built for every resource."""
    changes: dict = {}
    for item in log.items:
        change = changes.setdefault(item.resource, {})
        change[item.start] = change.get(item.start, 0) + 1
        change[item.end] = change.get(item.end, 0) - 1
    clocks = {}
    for resource, change in changes.items():
        times = sorted(change)
        lives = list(accumulate(change[time] for time in times))
        scale = lcm(*set(lives) - {0})
        gains = ((after - time) * (scale // live) if live else 0
                 for time, after, live in zip(times, times[1:], lives))
        clocks[resource] = scale, dict(zip(times, accumulate(gains,
                                                             initial=0)))
    coalesced, exact = [], []
    for item in log.items:
        scale, clock = clocks[item.resource]
        advance = clock[item.end] - clock[item.start]
        end = item.start + _round_half_up(advance, scale)
        coalesced.append(item if end == item.end else WorkItem(
            item.id, item.activity, item.resource, item.trace_id,
            item.start, end))
        exact.append(CoalescedItem(
            item.id, item.activity, item.resource, item.trace_id,
            item.start, item.start + Fraction(advance, scale)))
    return EventLog(tuple(coalesced)), tuple(exact)


def union_measure_by_unit_steps(items) -> int:
    """Measure of the union of item spans, one unit step at a time."""
    if not items:
        return 0
    lo = min(item.start for item in items)
    hi = max(item.end for item in items)
    return sum(
        1
        for t in range(lo, hi)
        if any(item.start <= t < item.end for item in items)
    )


def fair_share_by_unit_steps(items) -> dict:
    """Per-item adjusted duration by unit-step enumeration.

    Each step [t, t+1) gives every covering item 1/k of the step, where k
    is how many items cover it.
    """
    totals = {item.id: Fraction(0) for item in items}
    if not items:
        return totals
    lo = min(item.start for item in items)
    hi = max(item.end for item in items)
    for t in range(lo, hi):
        covering = [item for item in items if item.start <= t < item.end]
        if not covering:
            continue
        piece = Fraction(1, len(covering))
        for item in covering:
            totals[item.id] += piece
    return totals


def overlap_ratio_direct(a, b) -> float:
    shared = min(a.end, b.end) - max(a.start, b.start)
    if shared < 0:
        shared = 0
    longest = max(a.end - a.start, b.end - b.start)
    if longest == 0:
        return 0.0
    return shared / longest


def mtri_by_double_loop(items) -> float:
    """Mean overlap over ordered pairs (identical to the unordered mean)."""
    total = 0.0
    pairs = 0
    for a in items:
        for b in items:
            if a.id == b.id:
                continue
            total += overlap_ratio_direct(a, b)
            pairs += 1
    if pairs == 0:
        return 0.0
    return total / pairs


def mtri_overlapped_by_double_loop(items):
    total = 0.0
    pairs = 0
    for a in items:
        for b in items:
            if a.id == b.id:
                continue
            if min(a.end, b.end) - max(a.start, b.start) > 0:
                total += overlap_ratio_direct(a, b)
                pairs += 1
    if pairs == 0:
        return None
    return total / pairs


def mtli_by_double_loop(log: EventLog) -> float:
    by_resource = {}
    for item in log.items:
        by_resource.setdefault(item.resource, []).append(item)
    if not by_resource:
        return 0.0
    values = [mtri_by_double_loop(items) for items in by_resource.values()]
    return sum(values) / len(values)


def mtwii_by_double_loop(log: EventLog):
    by_resource = {}
    for item in log.items:
        by_resource.setdefault(item.resource, []).append(item)
    values = []
    for items in by_resource.values():
        value = mtri_overlapped_by_double_loop(items)
        if value is not None:
            values.append(value)
    if not values:
        return None
    return sum(values) / len(values)


def shift_log(log: EventLog, delta: int) -> EventLog:
    """Translate every timestamp by a constant."""
    return make_log(
        [
            WorkItem(
                id=item.id,
                activity=item.activity,
                resource=item.resource,
                trace_id=item.trace_id,
                start=item.start + delta,
                end=item.end + delta,
            )
            for item in log.items
        ]
    )


def scale_log(log: EventLog, factor: int) -> EventLog:
    """Multiply every timestamp by a positive constant."""
    return make_log(
        [
            WorkItem(
                id=item.id,
                activity=item.activity,
                resource=item.resource,
                trace_id=item.trace_id,
                start=item.start * factor,
                end=item.end * factor,
            )
            for item in log.items
        ]
    )


def xes_event(activity, resource, transition, stamp):
    return (
        "<event>"
        f'<string key="concept:name" value="{activity}"/>'
        f'<string key="org:resource" value="{resource}"/>'
        f'<string key="lifecycle:transition" value="{transition}"/>'
        f'<date key="time:timestamp" value="{stamp}"/>'
        "</event>"
    )


def xes_text(traces, log_attrs=""):
    body = []
    for trace_id, events in traces:
        body.append("<trace>")
        if trace_id is not None:
            body.append(f'<string key="concept:name" value="{trace_id}"/>')
        body.extend(events)
        body.append("</trace>")
    return (
        '<?xml version="1.0" encoding="UTF-8"?>'
        f"<log {log_attrs}>" + "".join(body) + "</log>"
    )


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def read_xes_iterparse(path) -> EventLog:
    """Read the XES dialect one trace at a time with ``ET.iterparse``.

    The same rules and messages as ``read_xes``, and faults in document
    order, from an ``Element`` per XML element.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            return _assemble(list(_xes_rows_iterparse(path, handle)))
    except ET.ParseError as exc:
        raise LogFormatError(f"{path}: XML parse failure: {exc}") from exc


def _xes_rows_iterparse(path, handle):
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
            if transition == "start":
                open_starts.setdefault(key, []).append(stamp)
            elif transition == "complete":
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


def read_xes_tree(path) -> EventLog:
    """Read the XES dialect from the whole document tree (``ET.parse``).

    The same rules as ``read_xes``: FIFO pairing, ``trace-k`` names for
    unnamed traces, and the same error messages.  Having the whole tree,
    it reports malformed XML before any fault in the traces.
    """
    path = Path(path)
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise LogFormatError(f"{path}: XML parse failure: {exc}") from exc

    def error(message: str, activity: str | None = None) -> LogFormatError:
        where = f"trace {trace_id!r}"
        if activity is not None:
            where += f", activity {activity!r}"
        return LogFormatError(f"{path}: {where}: {message}")

    rows: list[_Row] = []
    trace_count = 0
    named_by_id: dict[str, bool] = {}
    for element in tree.getroot():
        if _local_name(element.tag) != "trace":
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
            if transition == "start":
                open_starts.setdefault(key, []).append(stamp)
            elif transition == "complete":
                pending = open_starts.get(key)
                if not pending:
                    raise error("'complete' without a prior start", activity)
                start = pending.pop(0)
                if stamp < start:
                    raise error("'complete' precedes its start", activity)
                rows.append((trace_id, start, stamp, activity, resource))
            else:
                raise error("unsupported lifecycle:transition "
                            f"{attrs.get('lifecycle:transition')!r}", activity)
        for (activity, _), pending in open_starts.items():
            if pending:
                raise error("'start' without a matching complete", activity)
    return _assemble(rows)


def read_xes_by_end_handler(path) -> EventLog:
    """``read_xes`` with a Python end-tag callback, which checks each trace
    as its end tag is read and builds a ``deque`` per start event."""
    path = Path(path)
    rows: list[_Row] = []
    one = {}.setdefault  # one str per distinct name, for this read only
    named_by_id: dict[str, bool] = {}
    names: list[str | None] = []  # the open trace's concept:name candidates
    events: list[dict[str, str]] | None = None  # its events, None outside
    event: dict[str, str] = {}  # the open event's attributes, or a throwaway
    depth = trace_count = 0  # the root is at depth 1

    def opened(tag: str, attrs: dict[str, str]) -> None:
        nonlocal depth, events, event
        if (depth := depth + 1) == 4 and events is not None and "key" in attrs:
            event[attrs["key"]] = attrs.get("value", "")
        elif depth == 3 and events is not None:
            event = {}
            if tag.rpartition("}")[2] == "event":
                events.append(event)
            elif attrs.get("key") == "concept:name":
                names.append(attrs.get("value"))
        elif depth == 2:
            names.clear()
            events = [] if tag.rpartition("}")[2] == "trace" else None

    def closed(tag: str) -> None:
        nonlocal depth, trace_count
        if (depth := depth - 1) != 1 or events is None:
            return  # not the end of a trace
        trace_count += 1
        named = bool(names and names[0])
        trace_id = names[0] if named else f"trace-{trace_count}"
        if named_by_id.setdefault(trace_id, named) != named:
            raise LogFormatError(f"{path}: trace name {trace_id!r} is both "
                                 "given and generated")

        def error(text: str, activity: str | None = None) -> LogFormatError:
            where = "" if activity is None else f", activity {activity!r}"
            return LogFormatError(f"{path}: trace {trace_id!r}{where}: {text}")

        waiting: dict[tuple[str, str], deque[int]] = {}  # open starts, FIFO
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
            if transition == _TRANSITION_START:
                waiting.setdefault((activity, resource), deque()).append(stamp)
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
    parser.StartElementHandler, parser.EndElementHandler = opened, closed
    parser.SkippedEntityHandler = parser.ExternalEntityRefHandler = undefined
    try:
        with path.open("rb") as handle:
            parser.ParseFile(handle)
    except (expat.ExpatError, LookupError) as exc:  # or an unknown encoding
        raise LogFormatError(f"{path}: XML parse failure: {exc}") from exc
    del parser  # its cycle with undefined would keep rows alive past return
    return _assemble(rows)


def write_xes_by_item_escapes(log: EventLog, path) -> None:
    """``write_xes`` checking and escaping the names of every item, and
    rendering each event of an item in full."""
    for item in log.items:
        bad = _NON_XML.search(item.trace_id + item.activity + item.resource)
        if bad:
            raise ValueError(f"{path}: trace {item.trace_id!r}: character "
                             f"{bad[0]!r} cannot be written to XML")
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write(_XES_HEAD)
        for trace_id, items in groupby(log.items, key=attrgetter("trace_id")):
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


def overlapped_pairs_by_sweep(segment) -> list[PairOverlap]:
    """The start-order sweep, one ``PairOverlap`` from ``overlap()`` each."""
    pairs = []
    live: list[WorkItem] = []
    for item in segment.items:
        if item.end == item.start:
            continue
        live = [other for other in live if other.end > item.start]
        for other in live:
            pairs.append(PairOverlap(other.id, item.id, overlap(other, item)))
        live.append(item)
    return pairs


def summarize_by_pair_objects(log: EventLog) -> MetricsReport:
    """Every index and count from ``PairOverlap`` lists, ids and activities
    collected by a second walk over the pairs."""
    mtri_all: dict[str, float] = {}
    mtri_over: dict[str, float] = {}
    multitasked_activities: set[str] = set()
    overlapped_items: set[object] = set()
    total_pairs = 0

    for segment in segments_per_resource(log):
        pairs = overlapped_pairs_by_sweep(segment)
        if not pairs:
            mtri_all[segment.resource] = 0.0
            continue
        total = fsum(pair.ratio for pair in pairs)
        mtri_all[segment.resource] = total / comb(len(segment), 2)
        mtri_over[segment.resource] = total / len(pairs)
        total_pairs += len(pairs)
        by_id = {item.id: item for item in segment.items}
        for pair in pairs:
            for wiid in (pair.first_id, pair.second_id):
                overlapped_items.add(wiid)
                multitasked_activities.add(by_id[wiid].activity)

    mtwii_defined = bool(mtri_over)
    return MetricsReport(
        mtli=fsum(mtri_all.values()) / len(mtri_all) if mtri_all else 0.0,
        mtwii=(fsum(mtri_over.values()) / len(mtri_over)
               if mtwii_defined else 0.0),
        mtwii_defined=mtwii_defined,
        mtri_all=mtri_all,
        mtri_overlapped=mtri_over,
        counts=SummaryCounts(
            tasks_multitasked=len(multitasked_activities),
            events_overlapped=len(overlapped_items),
            resources_multitasking=len(mtri_over),
            pairs_overlapped=total_pairs,
        ),
    )


def pairs_by_live_items(segment):
    """Each overlapped pair as (earlier, later, overlap ratio), in start order.

    Each positive-duration item pairs only with the items live at its start,
    so the intersection begins at that start.
    """
    live: list[WorkItem] = []
    for item in segment.items:
        start, end = item.start, item.end
        if end == start:
            continue
        live = [other for other in live if other.end > start]
        for other in live:
            yield other, item, ((min(other.end, end) - start)
                                / max(other.end - other.start, end - start))
        live.append(item)


def summarize_by_pair_sweep(log: EventLog) -> MetricsReport:
    """Every index and count from the pairs of ``pairs_by_live_items``, a list
    of ratios per resource and both ids of each pair written to a dict."""
    mtri_all: dict[str, float] = {}
    mtri_over: dict[str, float] = {}
    overlapped: dict[object, str] = {}  # item id -> activity
    total_pairs = 0

    for segment in segments_per_resource(log):
        ratios = []
        for earlier, later, ratio in pairs_by_live_items(segment):
            ratios.append(ratio)
            overlapped[earlier.id] = earlier.activity
            overlapped[later.id] = later.activity
        if not ratios:
            mtri_all[segment.resource] = 0.0
            continue
        total = fsum(ratios)
        mtri_all[segment.resource] = total / comb(len(segment), 2)
        mtri_over[segment.resource] = total / len(ratios)
        total_pairs += len(ratios)

    mtwii_defined = bool(mtri_over)
    return MetricsReport(
        mtli=fsum(mtri_all.values()) / len(mtri_all) if mtri_all else 0.0,
        mtwii=(fsum(mtri_over.values()) / len(mtri_over)
               if mtwii_defined else 0.0),
        mtwii_defined=mtwii_defined,
        mtri_all=mtri_all,
        mtri_overlapped=mtri_over,
        counts=SummaryCounts(
            tasks_multitasked=len(set(overlapped.values())),
            events_overlapped=len(overlapped),
            resources_multitasking=len(mtri_over),
            pairs_overlapped=total_pairs,
        ),
    )


def aux_text_by_rows(log: EventLog) -> str:
    """The ``aux`` table, one ``writerow`` of eight fields per share.

    Each row goes through a writer whose terminator is CRLF, which then
    gives way to LF: Python 3.10-3.12 quote a field holding CR or LF only
    when the terminator holds that character, as 3.13 always does.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    lines = []

    def writerow(row) -> None:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(row)
        lines.append(buffer.getvalue()[:-2] + "\n")

    writerow(AUX_COLUMNS)
    parents = log.by_id()
    aux_id = 0
    for resource, _, intervals in swept_by_objects(log):
        for interval in intervals:
            live = len(interval.active_ids)
            start = format_timestamp(interval.start)
            end = format_timestamp(interval.end)
            portion = _round_half_up(interval.span, live)
            for wiid in interval.active_ids:
                aux_id += 1
                parent = parents[wiid]
                writerow((aux_id, wiid, parent.trace_id, parent.activity,
                          resource, start, end, portion))
    return "".join(lines)


def time_points_by_objects(segment) -> list[TimePoint]:
    """Every boundary as a ``TimePoint``, sorted by decorated tuples."""
    decorated = []
    for item in segment.items:
        instantaneous = item.start == item.end
        plus_rank = 0 if instantaneous else 1
        minus_rank = 1 if instantaneous else 0
        decorated.append(
            (item.start, plus_rank, _id_key(item.id),
             TimePoint(item.start, item.id, PLUS))
        )
        decorated.append(
            (item.end, minus_rank, _id_key(item.id),
             TimePoint(item.end, item.id, MINUS))
        )
    decorated.sort(key=lambda entry: entry[:3])
    return [point for *_, point in decorated]


def intervals_by_objects(points) -> list[ActiveInterval]:
    """One ``ActiveInterval`` per span, the live ids kept in a list."""
    intervals = []
    active = []
    for i in range(len(points) - 1):
        point, nxt = points[i], points[i + 1]
        if point.symbol == PLUS:
            active.append(point.wiid)
        else:
            active.remove(point.wiid)
        if active and nxt.tstamp > point.tstamp:
            intervals.append(
                ActiveInterval(point.tstamp, nxt.tstamp, tuple(active))
            )
    return intervals


def aux_items_by_objects(intervals, first_id: int = 1) -> list[AuxWorkItem]:
    """One ``AuxWorkItem`` per (interval, live item), ids sequential."""
    shares = []
    next_id = first_id
    for interval in intervals:
        portion = Fraction(interval.span, len(interval.active_ids))
        for wiid in interval.active_ids:
            shares.append(AuxWorkItem(next_id, interval.start, interval.end,
                                      wiid, portion))
            next_id += 1
    return shares


def swept_by_objects(log: EventLog):
    """Per resource: points and intervals of its positive-duration items."""
    for segment in segments_per_resource(log):
        swept = tuple(item for item in segment.items if item.end > item.start)
        points = time_points_by_objects(ResourceSegment(segment.resource,
                                                        swept))
        yield segment.resource, points, intervals_by_objects(points)


def _number_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{float(value):.2f}".rstrip("0").rstrip(".")


def adjustment_table_by_objects(log: EventLog) -> str:
    """``format_adjustment_table`` rendered from the object sweep."""
    lines = []
    for resource, points, intervals in swept_by_objects(log):
        point_text = ", ".join(
            f"({p.tstamp}, {p.wiid}, '{p.symbol}')" for p in points
        )
        interval_text = ", ".join(
            "({0}, {1}, '{2}')".format(
                iv.start, iv.end, ",".join(str(w) for w in iv.active_ids)
            )
            for iv in intervals
        )
        share_text = ", ".join(
            f"({s.start}, {s.end}, '{s.parent_id}', "
            f"{_number_text(s.duration)})"
            for s in aux_items_by_objects(intervals)
        )
        lines.append(f"resource {resource}")
        lines.append(f"  points    = {{{point_text}}}")
        lines.append(f"  intervals = {{{interval_text}}}")
        lines.append(f"  shares    = {{{share_text}}}")
    return "\n".join(lines)


def write_csv_by_writer(log: EventLog, path) -> None:
    """``write_csv`` through ``csv.writer``'s ``writerows``, or through
    ``_csv_record`` when some name holds CR (Python 3.10-3.12 quote it
    only under a terminator that holds it)."""
    rows = ((item.trace_id, item.activity, item.resource,
             format_timestamp(item.start), format_timestamp(item.end))
            for item in log.items)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        if any("\r" in item.trace_id or "\r" in item.activity
               or "\r" in item.resource for item in log.items):
            handle.writelines(f"{_csv_record(row)}\n" for row in rows)
        else:
            writer.writerows(rows)


def plan_shifts_by_fractions(log: EventLog, percentage: float) -> ShiftPlan:
    """``plan_shifts`` with one ``Fraction`` product per pair."""
    share = Fraction(str(percentage))
    planned = []
    for segment in segments_per_resource(log):
        for first, second in find_adjacent_pairs(segment):
            delta = round_half_up_ms(
                share * max(first.duration, second.duration))
            planned.append(PlannedShift(first.id, second.id,
                                        min(delta, first.duration)))
    return ShiftPlan(percentage=percentage, pairs=tuple(planned))


def adjacent_pairs_by_deques(segment):
    """``find_adjacent_pairs`` with one ``deque`` of items per start."""
    by_start = {}
    for item in segment.items:
        if item.end > item.start:
            by_start.setdefault(item.start, deque()).append(item)
    pairs = []
    # Groups come in start order and a partner starts after its pivot, so
    # every claim on a group's items is made before they act as pivots.
    for group in by_start.values():
        for pivot in group:
            waiting = by_start.get(pivot.end)
            if waiting:
                pairs.append((pivot, waiting.popleft()))
    return pairs


def inject_by_full_sort(log: EventLog, percentage: float) -> EventLog:
    """``inject`` through ``PlannedShift``-style deltas over the deque
    pairing, with the whole shifted log sorted again by ``_ordered``."""
    if not 0.0 <= percentage <= 1.0:
        raise ValueError(
            f"shift percentage must lie in [0, 1], got {percentage}"
        )
    num, den = Fraction(str(percentage)).as_integer_ratio()
    deltas = {}
    for segment in segments_per_resource(log):
        for first, second in adjacent_pairs_by_deques(segment):
            longest = max(first.duration, second.duration)
            deltas[second.id] = min(_round_half_up(num * longest, den),
                                    first.duration)
    return _ordered([
        WorkItem(item.id, item.activity, item.resource, item.trace_id,
                 item.start - deltas[item.id], item.end - deltas[item.id])
        if item.id in deltas else item
        for item in log.items
    ])


def assemble_by_power_groups(rows) -> EventLog:
    """``_assemble`` sorting the ``(trace id, start)`` group of each id
    10^k by id text, in its own ``bisect`` loop."""
    items = [WorkItem(seq, activity, resource, trace_id, start, end)
             for seq, (trace_id, start, end, activity, resource)
             in enumerate(sorted(rows), start=1)]
    group, power = attrgetter("trace_id", "start"), 10
    while power <= len(items):
        key = group(items[power - 1])
        lo = bisect_left(items, key, key=group)
        hi = bisect_right(items, key, lo, key=group)
        items[lo:hi] = sorted(items[lo:hi], key=lambda w: _id_key(w.id))
        power *= 10
    return EventLog(tuple(items))


# The grammar as it was when the converter below read its groups: it
# matches hour 24, which time() then refuses.
_ISO_8601_GROUPS = re.compile(
    r"(?P<y>\d{4})(?:(?P<ds>-?)(?P<mo>\d\d)(?P=ds)(?P<d>\d\d)"
    r"|(?P<ws>-?)W(?P<w>\d\d)(?:(?P=ws)(?P<wd>\d))?)"
    r"(?:\D(?P<H>\d\d)(?:(?P<ts>:?)(?P<M>\d\d)(?:(?P=ts)(?P<S>\d\d))?)?"
    r"(?:[.,](?P<f>\d+)|[.,](?=[+-]))?"
    r"(?:(?P<sign>[+-])(?P<oH>\d\d)(?:(?P<os>:?)(?P<oM>\d\d)"
    r"(?:(?P=os)(?P<oS>\d\d)(?:[.,](?P<of>\d+))?)?)?)?)?", re.ASCII)


def parse_iso_8601_by_groups(text: str) -> datetime:
    """``logio._parse_iso_8601`` building the instant from the grammar's
    groups; raises ``ValueError`` on text outside the grammar."""
    match = _ISO_8601_GROUPS.fullmatch(text)
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


def parse_timestamp_by_groups(text: str) -> int:
    """``parse_timestamp`` through ``parse_iso_8601_by_groups`` alone: epoch
    ms rounded half-up, or ``ValueError`` (``LogFormatError`` is one)."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    moment = parse_iso_8601_by_groups(cleaned)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    ms = _round_half_up((moment - epoch) // timedelta(microseconds=1), 1_000)
    if not FIRST_INSTANT <= ms <= LAST_INSTANT:
        raise ValueError(f"timestamp {text!r} is outside years 1-9999 UTC")
    return ms


# Characters outside XML 1.0's Char production, by its complement.
NON_XML_BY_CHAR_PRODUCTION = re.compile(
    r"[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
# Characters XML 1.0 cannot carry, each refused by write_xes.
NON_XML_CHARS = ("\x00", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ud800",
                 "\udfff", "\ufffe", "\uffff")


@dataclass(frozen=True)
class WorkItemByDict:
    """``WorkItem`` with a ``__dict__`` and the generated ``__init__``."""

    id: object
    activity: str
    resource: str
    trace_id: str
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start
