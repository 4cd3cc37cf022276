"""Multitasking indexes and summary counts for event logs.

All indexes build on one pairwise ratio::

    overlap(a, b) = max(min(a.end, b.end) - max(a.start, b.start), 0)
                    / max(a.duration, b.duration)

computed only between items of the same resource.  From it:

* MTRI (per resource): mean overlap over every unordered pair of the
  resource's items; 0 when the resource has fewer than two items.
* MTLI (per log): mean MTRI over all resources.  How much of the log is
  multitasked at all.
* MTRI_overlapped (per resource): mean overlap restricted to pairs whose
  intersection is strictly positive; undefined without such a pair.
* MTWII (per log): mean MTRI_overlapped over the resources where it is
  defined.  How intense multitasking is where it occurs.

Pairs that do not overlap add 0, so every index and count comes from one
start-order sweep per resource that builds nothing per pair, in
O(n log n + overlapped pairs) time and O(live) memory.  That walk,
``_overlaps``, also gives ``overlapped_pairs`` its pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import comb, fsum, inf
from operator import attrgetter
from typing import Iterator, Mapping, Optional, Sequence

from .model import EventLog, ResourceSegment, WorkItem, _by_resource


@dataclass(frozen=True)
class PairOverlap:
    """Overlap ratio of one unordered pair of same-resource items."""

    first_id: object
    second_id: object
    ratio: float


@dataclass(frozen=True)
class SummaryCounts:
    """How much of a log is touched by multitasking.

    tasks_multitasked: distinct activities with at least one overlapped item.
    events_overlapped: work items overlapping at least one sibling.
    resources_multitasking: resources with at least one overlapped pair.
    pairs_overlapped: unordered same-resource pairs with positive intersection.
    """

    tasks_multitasked: int
    events_overlapped: int
    resources_multitasking: int
    pairs_overlapped: int


@dataclass(frozen=True)
class MetricsReport:
    """All indexes and counts for one log.

    ``mtwii`` is 0.0 with ``mtwii_defined`` False when no resource has an
    overlapped pair.  ``mtri_overlapped`` only has entries for resources
    where the restricted mean is defined.
    """

    mtli: float
    mtwii: float
    mtwii_defined: bool
    mtri_all: Mapping[str, float]
    mtri_overlapped: Mapping[str, float]
    counts: SummaryCounts


def overlap(a: WorkItem, b: WorkItem) -> float:
    """Intersection length over the larger of the two durations, in [0, 1].

    Symmetric; 0 exactly when the closed intersection has no positive
    length.  Two instantaneous items overlap by 0.  Items of different
    resources never overlap by definition, so comparing them is an error.
    """
    if a.resource != b.resource:
        raise ValueError(
            f"overlap is defined within one resource; got "
            f"{a.resource!r} and {b.resource!r}"
        )
    shared = max(min(a.end, b.end) - max(a.start, b.start), 0)
    longest = max(a.duration, b.duration)
    if longest == 0:
        return 0.0
    return shared / longest


def _overlaps(items: Sequence[WorkItem]
              ) -> Iterator[tuple[WorkItem, WorkItem, list]]:
    """Walk start-ordered items, instants skipped, and yield (item,
    predecessor, live) for each that starts before an earlier one ends.
    ``live``, the (end, duration, item) of each earlier item live at its
    start, is valid only until the walk resumes, as it appends to it."""
    live, reach, previous = [], -inf, None  # reach: the latest end so far
    for item in items:
        start, end = item.start, item.end
        if end == start:
            continue
        if start < reach:
            live = [other for other in live if other[0] > start]
            yield item, previous, live
            live.append((end, end - start, item))
            reach = end if end > reach else reach
        else:
            live, reach = [(end, end - start, item)], end
        previous = item


def _pairs(
    segment: ResourceSegment,
) -> Iterator[tuple[WorkItem, WorkItem, float]]:
    """Each overlapped pair as (earlier, later, overlap ratio), in start order."""
    for item, _, live in _overlaps(segment.items):
        for _, _, other in live:
            yield other, item, overlap(other, item)


def overlapped_pairs(segment: ResourceSegment) -> list[PairOverlap]:
    """All unordered pairs of the segment with strictly positive intersection."""
    return [PairOverlap(a.id, b.id, ratio) for a, b, ratio in _pairs(segment)]


def _means(items: Sequence[WorkItem],
           overlapped: dict) -> tuple[float, Optional[float], int]:
    """(MTRI, MTRI_overlapped, overlapped pairs) of one resource's items in
    start order.  Each item ``_overlaps`` yields goes into ``overlapped``
    with its predecessor, which began the cluster if not yielded itself."""
    pairs = 0

    def ratio_lists() -> Iterator[list[float]]:
        nonlocal pairs
        for item, previous, live in _overlaps(items):
            start, end = item.start, item.end
            duration = end - start
            pairs += len(live)
            yield [((e if e < end else end) - start)
                   / (d if d > duration else duration) for e, d, _ in live]
            overlapped[item.id] = item.activity
            overlapped[previous.id] = previous.activity

    total = fsum(chain.from_iterable(ratio_lists()))
    if not pairs:
        return 0.0, None, 0
    return total / comb(len(items), 2), total / pairs, pairs


def mtri(segment: ResourceSegment) -> float:
    """Mean overlap over every unordered pair; 0 with fewer than two items."""
    return _means(segment.items, {})[0]


def mtri_overlapped(segment: ResourceSegment) -> Optional[float]:
    """Mean overlap over the overlapped pairs only; None when there are none."""
    return _means(segment.items, {})[1]


def mtli(log: EventLog) -> float:
    """Mean MTRI across all resources of the log; 0 for an empty log."""
    return summarize(log).mtli


def mtwii(log: EventLog) -> Optional[float]:
    """Mean restricted MTRI over resources that have an overlapped pair.

    None when no resource multitasks at all.
    """
    report = summarize(log)
    return report.mtwii if report.mtwii_defined else None


def summarize(log: EventLog) -> MetricsReport:
    """Compute every index plus the summary counts in one pass."""
    mtri_all: dict[str, float] = {}
    mtri_over: dict[str, float] = {}
    tasks: set[str] = set()
    events = total_pairs = 0
    for resource, group in _by_resource(log.items).items():
        items = sorted(group, key=attrgetter("start"))
        overlapped: dict[object, str] = {}  # item id -> activity
        mtri_all[resource], restricted, pairs = _means(items, overlapped)
        events += len(overlapped)  # no item is in two resources
        tasks.update(overlapped.values())
        total_pairs += pairs
        if restricted is not None:
            mtri_over[resource] = restricted

    return MetricsReport(
        mtli=fsum(mtri_all.values()) / len(mtri_all) if mtri_all else 0.0,
        mtwii=fsum(mtri_over.values()) / len(mtri_over) if mtri_over else 0.0,
        mtwii_defined=bool(mtri_over),
        mtri_all=mtri_all,
        mtri_overlapped=mtri_over,
        counts=SummaryCounts(
            tasks_multitasked=len(tasks),
            events_overlapped=events,
            resources_multitasking=len(mtri_over),
            pairs_overlapped=total_pairs,
        ),
    )
