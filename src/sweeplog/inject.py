"""Synthetic multitasking injection for clean logs.

Benchmarking the adjuster and the indexes needs logs with a known amount
of overlap.  Starting from a log without multitasking, this module finds
adjacent items per resource (first ends exactly where second starts),
picks disjoint pairs greedily, and slides each pair's second item earlier
by a fraction of the pair's larger duration.  Both of its timestamps move,
so its duration, activity, resource, and trace are untouched.

With the shift delta set to ``percentage * max(dur_first, dur_second)``
the resulting pair overlap ratio equals the percentage whenever the
shifted item is not pushed inside its partner; a short item shifted far
enough becomes embedded and contributes less, which caps the achievable
intensity.  The delta is clamped so the shifted item never starts before
its partner.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    DurationMs,
    EventLog,
    Instant,
    ResourceSegment,
    WorkItem,
    WorkItemId,
    _ordered,
    _round_half_up,
    segments_per_resource,
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
    by_start: dict[Instant, deque[WorkItem]] = {}
    for item in segment.items:
        if item.end > item.start:
            by_start.setdefault(item.start, deque()).append(item)
    pairs: list[tuple[WorkItem, WorkItem]] = []
    # Groups come in start order and a partner starts after its pivot, so
    # every claim on a group's items is made before they act as pivots.
    for group in by_start.values():
        for pivot in group:
            waiting = by_start.get(pivot.end)
            if waiting:
                pairs.append((pivot, waiting.popleft()))
    return pairs


def plan_shifts(log: EventLog, percentage: float) -> ShiftPlan:
    """Fix the pairs and deltas before any timestamp changes.

    delta = percentage * max(durations), rounded half-up to a whole
    millisecond and clamped to the first item's duration.
    """
    if not 0.0 <= percentage <= 1.0:
        raise ValueError(
            f"shift percentage must lie in [0, 1], got {percentage}"
        )
    num, den = Fraction(str(percentage)).as_integer_ratio()  # as typed
    planned: list[PlannedShift] = []
    for segment in segments_per_resource(log):
        for first, second in find_adjacent_pairs(segment):
            longest = max(first.duration, second.duration)
            delta = min(_round_half_up(num * longest, den), first.duration)
            planned.append(PlannedShift(first.id, second.id, delta))
    return ShiftPlan(percentage=percentage, pairs=tuple(planned))


def inject(log: EventLog, percentage: float) -> EventLog:
    """Return a copy of the log with planned pairs overlapped.

    Only the timestamps of second-pair members change; item count, ids,
    activities, resources, and trace structure are preserved.  Percentage
    0 returns an identical log.
    """
    plan = plan_shifts(log, percentage)
    deltas = {shift.second_id: shift.delta for shift in plan.pairs}
    shifted = [
        WorkItem(item.id, item.activity, item.resource, item.trace_id,
                 item.start - deltas[item.id], item.end - deltas[item.id])
        if item.id in deltas else item
        for item in log.items
    ]
    # A shift keeps each duration, id, resource and activity, so the
    # shifted items pass validate_log's checks; only their order changes.
    return _ordered(shifted)
