"""Synthetic multitasking injection for clean logs.

Benchmarking the adjuster and the indexes needs logs with a known amount
of overlap.  Starting from a log without multitasking, this module finds
adjacent items per resource (first ends exactly where second starts),
picks disjoint pairs greedily in one pass with a pointer per start, and
slides each pair's second item earlier by a fraction of the pair's larger
duration.  Both of its timestamps move, so its duration, activity,
resource, and trace are untouched.  With every shift applied, the model
re-sorts only the trace blocks where a shifted item passes its predecessor.

With the shift delta set to ``percentage * max(dur_first, dur_second)``
the resulting pair overlap ratio equals the percentage whenever the
shifted item is not pushed inside its partner; a short item shifted far
enough becomes embedded and contributes less, which caps the achievable
intensity.  The delta is clamped so the shifted item never starts before
its partner.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .model import (
    DurationMs,
    EventLog,
    Instant,
    ResourceSegment,
    WorkItem,
    WorkItemId,
    _resorted,
    _round_half_up,
    _segments,
)


@dataclass(frozen=True)
class PlannedShift:
    """One adjacent pair with the backward shift of its second item."""

    first_id: WorkItemId
    second_id: WorkItemId
    delta: DurationMs


@dataclass(frozen=True)
class ShiftPlan:
    """Every shift to apply; each item id appears in at most one pair."""

    percentage: float
    pairs: tuple[PlannedShift, ...]


def find_adjacent_pairs(
    segment: ResourceSegment,
) -> list[tuple[WorkItem, WorkItem]]:
    """Greedily select disjoint adjacent pairs in start order.

    The earliest unconsumed item is the pivot; the first unconsumed item
    whose start equals the pivot's end completes a pair and both leave the
    pool.  A pivot without a partner is skipped.  Instantaneous items take
    no part at all.
    """
    items, pairs = segment.items, []
    # head: each start's first unclaimed position (instantaneous items come
    # first in their start group and get none).  A partner starts after its
    # pivot, so every claim on a group comes before its items are pivots.
    head: dict[Instant, int] = {}
    for position, item in enumerate(items):
        if item.end > item.start:
            head.setdefault(item.start, position)
    for position, pivot in enumerate(items):
        if pivot.end > pivot.start and head[pivot.start] <= position:
            at = head.get(pivot.end, len(items))
            if at < len(items) and items[at].start == pivot.end:
                head[pivot.end] = at + 1
                pairs.append((pivot, items[at]))
    return pairs


def _planned(log: EventLog, percentage: float) -> Iterator[tuple]:
    # (first, second, delta) for each pair, in plan_shifts' order.
    if not 0.0 <= percentage <= 1.0:
        raise ValueError("shift percentage must lie in [0, 1], "
                         f"got {percentage}")
    num, den = Fraction(str(percentage)).as_integer_ratio()  # as typed
    for segment in _segments(log):
        for first, second in find_adjacent_pairs(segment):
            duration = first.end - first.start
            longest = max(duration, second.end - second.start)
            yield first, second, min(_round_half_up(num * longest, den),
                                     duration)


def plan_shifts(log: EventLog, percentage: float) -> ShiftPlan:
    """Fix the pairs and deltas before any timestamp changes.

    delta = percentage * max(durations), rounded half-up to a whole
    millisecond and clamped to the first item's duration.
    """
    return ShiftPlan(percentage, tuple(
        PlannedShift(first.id, second.id, delta)
        for first, second, delta in _planned(log, percentage)))


def inject(log: EventLog, percentage: float) -> EventLog:
    """Return a copy of the log with planned pairs overlapped.

    Only the timestamps of second-pair members change; item count, ids,
    activities, resources, and trace structure are preserved.  Percentage
    0 returns an identical log.
    """
    starts = {second.id: second.start - delta  # of the shifted items
              for _, second, delta in _planned(log, percentage)}
    items = [WorkItem(item.id, item.activity, item.resource, item.trace_id,
                      starts[item.id], item.end - item.start + starts[item.id])
             if item.id in starts else item for item in log.items]
    # Keys only fall, so only a shifted item can fall below its predecessor.
    # A moved item keeps its duration and starts no earlier than its
    # pair's first, so the log needs no second validation.
    return _resorted(items, (position for position, item
                             in enumerate(log.items) if item.id in starts))
