"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's sweep/pair machinery:
fair-share and busy-time oracles enumerate unit time steps, metric
oracles run explicit double loops over ordered pairs.  The all-pairs
``overlapped_pairs`` and tail-rescan ``find_adjacent_pairs`` are the
straightforward quadratic versions the library's sweeps replaced, and
``coalesced_by_shares`` is the share-summing adjuster that the virtual
clock replaced.  ``read_xes_tree`` is the whole-tree XES reader that the
streaming ``read_xes`` replaced.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from sweeplog.logio import (
    LogFormatError,
    _assemble,
    _local_name,
    _Row,
    parse_timestamp,
)
from sweeplog.metrics import PairOverlap
from sweeplog.model import (
    EventLog,
    ResourceSegment,
    WorkItem,
    segments_per_resource,
    validate_log,
)
from sweeplog.sweep import (
    CoalescedItem,
    build_aux_items,
    build_intervals,
    build_time_points,
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
    for segment in segments_per_resource(log):
        swept = ResourceSegment(
            segment.resource,
            tuple(item for item in segment.items if item.end > item.start),
        )
        intervals = build_intervals(build_time_points(swept))
        shares[segment.resource] = tuple(build_aux_items(intervals, next_id))
        next_id += len(shares[segment.resource])
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
