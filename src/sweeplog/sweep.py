"""Sweep-line decomposition and fair-share time adjustment.

A resource that runs several work items at once divides its attention, so
summing raw durations overstates its busy time.  Here each span is split
evenly among the items live over it (processor sharing): one virtual clock
per resource advances by span / live between consecutive boundaries, and
an item's adjusted duration, the exact sum of its shares, is the clock's
advance from its start to its end.  Adjusted durations of a resource add
up to the measure of the union of its busy intervals, never more.  The
clock is an integer count of 1/D ms, D the lcm of the live counts, so all
arithmetic is exact; exact ends and shares are built only on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .model import (
    EventLog,
    Instant,
    ResourceSegment,
    WorkItem,
    WorkItemId,
    _id_key,
    _round_half_up,
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


@dataclass(frozen=True)
class LogAdjustment:
    """Result of adjusting a log; exact ends and shares come on request.

    ``coalesced`` has one item per input item, ends rounded to whole ms.
    ``coalesced_exact`` carries the unrounded ends and ``aux_by_resource``
    groups shares by resource in name order, share ids sequential from 1
    across the whole run; both are computed from ``source`` on first access.
    """

    coalesced: EventLog
    source: EventLog = field(repr=False)

    @cached_property
    def coalesced_exact(self) -> tuple[CoalescedItem, ...]:
        clocks = _clocks(self.source)

        def exact(item: WorkItem) -> CoalescedItem:
            scale, clock = clocks[item.resource]
            end = item.start + Fraction(clock[item.end] - clock[item.start],
                                        scale)
            return CoalescedItem(item.id, item.activity, item.resource,
                                 item.trace_id, item.start, end)
        return tuple(map(exact, self.source.items))

    @cached_property
    def aux_by_resource(self) -> Mapping[str, tuple[AuxWorkItem, ...]]:
        shares: dict[str, tuple[AuxWorkItem, ...]] = {}
        next_id = 1
        for resource, _, intervals in _swept_resources(self.source):
            shares[resource] = tuple(build_aux_items(intervals, next_id))
            next_id += len(shares[resource])
        return shares

    @property
    def aux_items(self) -> tuple[AuxWorkItem, ...]:
        return tuple(chain.from_iterable(self.aux_by_resource.values()))


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
    tuple[str, list[TimePoint], list[ActiveInterval]]
]:
    """Per resource: points and intervals of its positive-duration items."""
    for segment in segments_per_resource(log):
        swept = tuple(item for item in segment.items if item.end > item.start)
        points = build_time_points(ResourceSegment(segment.resource, swept))
        yield segment.resource, points, build_intervals(points)


def _clocks(log: EventLog) -> dict[str, tuple[int, dict[Instant, int]]]:
    """Per resource, D = lcm(live counts) and D * clock at each boundary."""
    # Net live-count change per boundary; an instantaneous item's nets to 0.
    changes: dict[str, dict[Instant, int]] = {}
    for item in log.items:
        change = changes.setdefault(item.resource, {})
        change[item.start] = change.get(item.start, 0) + 1
        change[item.end] = change.get(item.end, 0) - 1
    clocks: dict[str, tuple[int, dict[Instant, int]]] = {}
    for resource, change in changes.items():
        times = sorted(change)
        lives = list(accumulate(change[time] for time in times))
        scale = lcm(*set(lives) - {0})
        # From each boundary to the next, the clock gains gap * D / live.
        gains = ((after - time) * (scale // live) if live else 0
                 for time, after, live in zip(times, times[1:], lives))
        clock = accumulate(gains, initial=0)
        clocks[resource] = scale, dict(zip(times, clock))
    return clocks


def adjust_log(log: EventLog) -> LogAdjustment:
    """Fair-share adjust every resource of a log.

    Instantaneous items carry no divisible time: they get no shares, and
    are copied unchanged into the coalesced log.  Every other item ends at
    its start plus the sum of its shares, rounded half-up, and is kept as
    it is if that end does not move.  The coalesced log keeps the input's
    length, ids, trace structure, activities, resources, and starts.
    """
    clocks = _clocks(log)
    coalesced = []
    for item in log.items:
        scale, clock = clocks[item.resource]
        end = item.start + _round_half_up(
            clock[item.end] - clock[item.start], scale)
        coalesced.append(item if end == item.end else replace(item, end=end))
    # Ids, trace ids and starts come from a validated log and no end falls
    # below its start, so validating again could change no order.
    return LogAdjustment(EventLog(tuple(coalesced)), source=log)


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
    for resource, points, intervals in _swept_resources(log):
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
            for s in build_aux_items(intervals)
        )
        lines.append(f"resource {resource}")
        lines.append(f"  points    = {{{point_text}}}")
        lines.append(f"  intervals = {{{interval_text}}}")
        lines.append(f"  shares    = {{{share_text}}}")
    return "\n".join(lines)
