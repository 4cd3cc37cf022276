"""Sweep-line decomposition and fair-share time adjustment.

A resource that runs several work items at once divides its attention, so
summing raw durations overstates its busy time.  Here each span is split
evenly among the items live over it (processor sharing): one virtual clock
per resource advances by span / live between consecutive boundaries, and
an item's adjusted duration, the exact sum of its shares, is the clock's
advance from its start to its end; a resource's durations add up to the
measure of its busy time.  ``_advances`` walks one resource's clock at a
time, with no ids, and gives both the rounded and the exact ends: a clock
counts 1/D ms, D the lcm of the live counts, so all arithmetic is exact.
A resource that never runs two items at once needs no clock and no id
sweep: an item's advance and its one share are its duration.  The id sweep,
``_bounds`` then ``_cut``, gives the other shares, the debug table and the
point, interval and share views.  Exact ends and shares come on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, count, pairwise
from math import lcm
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .model import (
    EventLog,
    Instant,
    ResourceSegment,
    WorkItem,
    WorkItemId,
    _by_resource,
    _id_key,
    _round_half_up,
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
    On first access, from ``source``: ``coalesced_exact`` holds the exact
    ends, built one resource's clock at a time, and ``aux_by_resource`` the
    shares by resource in name order, share ids sequential from 1 across
    the whole run.
    """

    coalesced: EventLog
    source: EventLog = field(repr=False)

    @cached_property
    def coalesced_exact(self) -> tuple[CoalescedItem, ...]:
        ends = {item.id: item.start + Fraction(advance, scale)
                for item, advance, scale in _advances(self.source)}
        return tuple(CoalescedItem(
            item.id, item.activity, item.resource, item.trace_id, item.start,
            ends[item.id] if item.id in ends else Fraction(item.end))
            for item in self.source.items)

    @cached_property
    def aux_by_resource(self) -> Mapping[str, tuple[AuxWorkItem, ...]]:
        ids = count(1)
        return {resource: tuple(_shares(cuts, ids))
                for resource, _, _, cuts in _sweeps(self.source)}

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
    return [TimePoint(time, wiid, PLUS if plus else MINUS)
            for time, _, _, wiid, plus in _bounds(segment.items)]


def build_intervals(points: Sequence[TimePoint]) -> list[ActiveInterval]:
    """Cut the timeline into maximal intervals annotated with live item ids.

    Consecutive boundary points delimit candidate intervals; those with an
    empty live set or zero length are dropped.
    """
    bounds = ((p.tstamp, False, "", p.wiid, p.symbol == PLUS) for p in points)
    return [ActiveInterval(*cut) for cut in _cut(bounds)]


def build_aux_items(
    intervals: Iterable[ActiveInterval], first_id: int = 1
) -> list[AuxWorkItem]:
    """Create one share per (interval, live item), ids sequential.

    Each share's duration is the interval span divided by the number of
    live items, exact.
    """
    cuts = ((iv.start, iv.end, iv.active_ids) for iv in intervals)
    return list(_shares(cuts, count(first_id)))


# The id sweep.  A bound is (time, rank, id text, id, is_plus), a cut is
# (start, end, live ids): ActiveInterval's fields.
_Bound = tuple[Instant, bool, str, WorkItemId, bool]
_Cut = tuple[Instant, Instant, tuple[WorkItemId, ...]]


def _bounds(items: Iterable[WorkItem]) -> list[_Bound]:
    # build_time_points' order.  (time, rank, id text) is unique, so the id
    # and the flag are never compared.
    bounds: list[_Bound] = []
    for item in items:
        key, instant = _id_key(item.id), item.start == item.end
        bounds.append((item.start, not instant, key, item.id, True))
        bounds.append((item.end, instant, key, item.id, False))
    bounds.sort()
    return bounds


def _cut(bounds: Iterable[_Bound]) -> Iterator[_Cut]:
    # The live ids in the order they became live; a dict drops one in O(1).
    live: dict[WorkItemId, None] = {}
    last = 0
    for time, _, _, wiid, plus in bounds:
        if live and time > last:
            yield last, time, tuple(live)
        last = time
        if plus:
            live[wiid] = None
        else:
            del live[wiid]


def _shares(cuts: Iterable[_Cut], ids: Iterator[int]) -> Iterator[AuxWorkItem]:
    for start, end, live in cuts:
        portion = Fraction(end - start, len(live))
        for wiid in live:
            yield AuxWorkItem(next(ids), start, end, wiid, portion)


def _alone(spans: list[WorkItem]) -> bool:
    # Of non-instants in start order: each cut of their id sweep has one id.
    return all(a.end <= b.start for a, b in pairwise(spans))


def _sweeps(log: EventLog) -> Iterator[
        tuple[str, list[WorkItem], list[WorkItem] | None, Iterator[_Cut]]]:
    # Per resource by name: items, the spans if _alone, else None, and cuts.
    for resource, items in _by_resource(log.items).items():
        spans = [item for item in items if item.end > item.start]
        spans.sort(key=attrgetter("start"))  # presorts _bounds' runs
        if _alone(spans):  # each span is its own cut
            yield resource, items, spans, (
                (item.start, item.end, (item.id,)) for item in spans)
        else:
            yield resource, items, None, _cut(_bounds(spans))


def _advances(log: EventLog) -> Iterator[tuple[WorkItem, int, int]]:
    """Per multitasking resource by name, each item with D times its clock
    advance and D = lcm(lives); one resource's clock lives at a time."""
    for items in _by_resource(log.items).values():
        # Net live-count change per boundary; an instant's nets to 0.
        change: dict[Instant, int] = {}
        for item in items:
            change[item.start] = change.get(item.start, 0) + 1
            change[item.end] = change.get(item.end, 0) - 1
        times = sorted(change)
        lives = list(accumulate(change[time] for time in times))
        if max(lives) <= 1:
            continue  # no clock: every end stays
        scale = lcm(*set(lives) - {0})
        # From each boundary to the next, the clock gains gap * D / live.
        gains = ((after - time) * (scale // live) if live else 0
                 for time, after, live in zip(times, times[1:], lives))
        clock = dict(zip(times, accumulate(gains, initial=0)))
        for item in items:
            yield item, clock[item.end] - clock[item.start], scale


def adjust_log(log: EventLog) -> LogAdjustment:
    """Fair-share adjust every resource of a log.

    Instants hold no time to divide: they get no shares and are kept as
    they are.  Every other item ends at its start plus the sum of its
    shares, rounded half-up, and is kept if that end does not move, as on
    a resource that never runs two items at once, which gets no clock.
    Length, ids, traces, activities, resources and starts stay the same.
    """
    ends: dict[WorkItemId, Instant] = {}  # of the items whose end moves
    for item, advance, scale in _advances(log):
        if (end := item.start + _round_half_up(advance, scale)) != item.end:
            ends[item.id] = end
    # Items are built in log order, which later walks follow in memory.
    # Ids, trace ids and starts come from a validated log and no end falls
    # below its start, so validating again could change no order.
    return LogAdjustment(EventLog(tuple([
        WorkItem(item.id, item.activity, item.resource, item.trace_id,
                 item.start, ends[item.id]) if item.id in ends else item
        for item in log.items])), source=log)


def _format_number(value: Fraction) -> str:
    return f"{float(value):.2f}".rstrip("0").rstrip(".")


def format_adjustment_table(log: EventLog) -> str:
    """Render boundary points, intervals, and shares as a per-resource table.

    A debugging aid: the three rows show the sweep's intermediate state
    for each resource, with fractional share durations printed to two
    decimals.
    """
    lines: list[str] = []
    for resource, items in _by_resource(log.items).items():
        bounds = _bounds(item for item in items if item.end > item.start)
        cuts = list(_cut(bounds))  # walked twice below
        point_text = ", ".join(
            f"({time}, {wiid}, '{PLUS if plus else MINUS}')"
            for time, _, _, wiid, plus in bounds
        )
        interval_text = ", ".join(
            f"({start}, {end}, '{','.join(map(str, live))}')"
            for start, end, live in cuts
        )
        share_text = ", ".join(
            f"({share.start}, {share.end}, '{share.parent_id}', "
            f"{_format_number(share.duration)})"
            for share in _shares(cuts, count())
        )
        lines.append(f"resource {resource}")
        lines.append(f"  points    = {{{point_text}}}")
        lines.append(f"  intervals = {{{interval_text}}}")
        lines.append(f"  shares    = {{{share_text}}}")
    return "\n".join(lines)
