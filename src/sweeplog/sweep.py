"""Sweep-line decomposition and fair-share time adjustment.

A resource that runs several work items at once divides its attention, so
summing raw durations overstates its busy time.  The adjustment here walks
each resource's interval boundaries in time order, keeps the set of items
live at every instant, and cuts the timeline into maximal intervals over
which that set is constant.  Each interval's span is then split evenly
among the live items, and an item's adjusted duration is the sum of its
shares.  Adjusted durations of a resource always add up to the measure of
the union of its busy intervals, never more.

All share arithmetic uses exact rationals; rounding to whole milliseconds
happens only when results are serialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .model import (
    EventLog,
    Instant,
    ResourceSegment,
    WorkItem,
    WorkItemId,
    _id_key,
    round_half_up_ms,
    segments_per_resource,
)

PLUS = "+"
MINUS = "-"


@dataclass(frozen=True)
class TimePoint:
    """One interval boundary: an item id entering (+) or leaving (-)."""

    tstamp: Instant
    wiid: WorkItemId
    symbol: str

    def as_tuple(self) -> tuple[Instant, WorkItemId, str]:
        return (self.tstamp, self.wiid, self.symbol)


@dataclass(frozen=True)
class ActiveInterval:
    """A maximal span [start, end) over which the set of live items is constant.

    ``active_ids`` preserves insertion order (the order items became live)
    and is never empty; zero-length intervals are never emitted.
    """

    start: Instant
    end: Instant
    active_ids: tuple[WorkItemId, ...]

    @property
    def span(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class AuxWorkItem:
    """One item's share of one interval.

    ``duration`` is span / number-of-live-items, kept exact, so the shares
    of an interval always sum back to its span.
    """

    id: int
    start: Instant
    end: Instant
    parent_id: WorkItemId
    duration: Fraction

    @property
    def span(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class CoalescedItem:
    """A work item with its duration replaced by the sum of its shares.

    The start is preserved; the exact end never exceeds the original end,
    and equals it exactly when the item never overlapped a sibling.
    """

    id: WorkItemId
    activity: str
    resource: str
    trace_id: str
    start: Instant
    end_exact: Fraction

    @property
    def duration_exact(self) -> Fraction:
        return self.end_exact - self.start

    def to_work_item(self) -> WorkItem:
        """Materialize with the end rounded half-up to whole milliseconds."""
        return WorkItem(
            id=self.id,
            activity=self.activity,
            resource=self.resource,
            trace_id=self.trace_id,
            start=self.start,
            end=round_half_up_ms(self.end_exact),
        )


@dataclass(frozen=True)
class LogAdjustment:
    """Result of adjusting a log: the shares and the coalesced log.

    ``aux_by_resource`` groups shares by resource in resource-name order;
    share ids are sequential from 1 across the whole run.  ``coalesced``
    has exactly one item per input item, with ends rounded to whole
    milliseconds; ``coalesced_exact`` carries the unrounded ends.
    """

    aux_by_resource: Mapping[str, tuple[AuxWorkItem, ...]]
    coalesced_exact: tuple[CoalescedItem, ...]
    coalesced: EventLog

    @property
    def aux_items(self) -> tuple[AuxWorkItem, ...]:
        return tuple(
            aux for shares in self.aux_by_resource.values() for aux in shares
        )


def build_time_points(segment: ResourceSegment) -> list[TimePoint]:
    """List every item's start (+) and end (-) boundary in sweep order.

    At equal timestamps a '-' sorts before a '+', so an item that ends
    exactly where another starts is never counted live alongside it.  The
    one exception is an instantaneous item, whose own '+' must precede its
    own '-'; its two boundaries swap ranks so the sweep stays consistent.
    """
    decorated: list[tuple[int, int, str, TimePoint]] = []
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


def build_intervals(points: Sequence[TimePoint]) -> list[ActiveInterval]:
    """Cut the timeline into maximal intervals annotated with live item ids.

    Consecutive boundary points delimit candidate intervals; those with an
    empty live set or zero length are dropped.
    """
    intervals: list[ActiveInterval] = []
    active: list[WorkItemId] = []
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


def build_aux_items(
    intervals: Iterable[ActiveInterval], first_id: int = 1
) -> list[AuxWorkItem]:
    """Create one share per (interval, live item), ids sequential.

    Each share's duration is the interval span divided by the number of
    live items, exact.
    """
    shares: list[AuxWorkItem] = []
    next_id = first_id
    for interval in intervals:
        portion = Fraction(interval.span, len(interval.active_ids))
        for wiid in interval.active_ids:
            shares.append(
                AuxWorkItem(
                    id=next_id,
                    start=interval.start,
                    end=interval.end,
                    parent_id=wiid,
                    duration=portion,
                )
            )
            next_id += 1
    return shares


def _swept_resources(log: EventLog) -> Iterator[
    tuple[str, list[TimePoint], list[ActiveInterval], list[AuxWorkItem]]
]:
    """Per resource: points, intervals, and shares; share ids run log-wide."""
    next_id = 1
    for segment in segments_per_resource(log):
        swept = tuple(item for item in segment.items if item.end > item.start)
        points = build_time_points(ResourceSegment(segment.resource, swept))
        intervals = build_intervals(points)
        shares = build_aux_items(intervals, first_id=next_id)
        next_id += len(shares)
        yield segment.resource, points, intervals, shares


def adjust_log(log: EventLog) -> LogAdjustment:
    """Fair-share adjust every resource of a log.

    Instantaneous items carry no divisible time: they bypass the sweep,
    contribute no shares, and are copied unchanged into the coalesced log.
    Every other item's coalesced end is its start plus the exact sum of
    its shares.  The coalesced log keeps the input's length, ids, trace
    structure, activities, resources, and starts.
    """
    aux_by_resource: dict[str, tuple[AuxWorkItem, ...]] = {}
    share_totals: dict[WorkItemId, Fraction] = {}
    for resource, _, _, shares in _swept_resources(log):
        aux_by_resource[resource] = tuple(shares)
        for share in shares:
            share_totals[share.parent_id] = (
                share_totals.get(share.parent_id, Fraction(0)) + share.duration
            )

    coalesced_exact = tuple(
        CoalescedItem(
            id=item.id,
            activity=item.activity,
            resource=item.resource,
            trace_id=item.trace_id,
            start=item.start,
            end_exact=item.start + share_totals.get(item.id, Fraction(0)),
        )
        for item in log.items
    )
    # Ids, trace ids and starts come from a validated log and no end falls
    # below its start, so validating again could change no order or index.
    coalesced = EventLog(
        tuple(c.to_work_item() for c in coalesced_exact), log.trace_index
    )
    return LogAdjustment(
        aux_by_resource=aux_by_resource,
        coalesced_exact=coalesced_exact,
        coalesced=coalesced,
    )


def _format_number(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{float(value):.2f}".rstrip("0").rstrip(".")


def format_adjustment_table(log: EventLog) -> str:
    """Render boundary points, intervals, and shares as a per-resource table.

    A debugging aid: the three rows show the sweep's intermediate state
    for each resource, with fractional share durations printed to two
    decimals.
    """
    lines: list[str] = []
    for resource, points, intervals, shares in _swept_resources(log):
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
            f"{_format_number(s.duration)})"
            for s in shares
        )
        lines.append(f"resource {resource}")
        lines.append(f"  points    = {{{point_text}}}")
        lines.append(f"  intervals = {{{interval_text}}}")
        lines.append(f"  shares    = {{{share_text}}}")
    return "\n".join(lines)
