from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import pytest

from sweeplog.inject import PlannedShift, ShiftPlan
from sweeplog.metrics import PairOverlap, SummaryCounts
from sweeplog.model import (
    FIRST_INSTANT,
    LAST_INSTANT,
    EventLog,
    LogValidationError,
    ResourceSegment,
    WorkItem,
    _ordered,
    _resorted,
    segments_per_resource,
    validate_log,
)
from sweeplog.sweep import (
    ActiveInterval,
    AuxWorkItem,
    CoalescedItem,
    LogAdjustment,
    TimePoint,
)

from helpers import four_task_items, four_task_log, make_log, wi


class TestValidateLog:
    def test_empty_input(self):
        log = validate_log([])
        assert len(log) == 0
        assert log.trace_index == {}

    def test_four_task_example(self):
        log = four_task_log()
        assert len(log) == 4
        assert log.trace_index == {"c1": ("A", "B"), "c2": ("C", "D")}

    def test_end_before_start_lists_offender(self):
        with pytest.raises(LogValidationError) as err:
            validate_log([wi("ok", 0, 10), wi("bad", 20, 5)])
        assert "bad" in str(err.value)
        assert any("bad" in p for p in err.value.problems)

    def test_missing_resource_and_activity(self):
        broken = WorkItem(id="x", activity="", resource="", trace_id="c1",
                          start=0, end=1)
        with pytest.raises(LogValidationError) as err:
            validate_log([broken])
        message = str(err.value)
        assert "missing resource" in message
        assert "missing activity" in message

    def test_missing_trace_id(self):
        broken = WorkItem(id="x", activity="T1", resource="R1", trace_id="",
                          start=0, end=1)
        with pytest.raises(LogValidationError, match="missing trace id"):
            validate_log([broken])

    def test_duplicate_id(self):
        with pytest.raises(LogValidationError) as err:
            validate_log([wi("dup", 0, 10), wi("dup", 20, 30)])
        assert "duplicate id" in str(err.value)

    def test_ids_equal_as_strings_are_duplicates(self):
        # 1 and "1" share a sort key, so accepting both would leave their
        # order in the log to the order of the input
        for items in ([wi(1, 0, 10), wi("1", 0, 10)],
                      [wi("1", 0, 10), wi(1, 0, 10)],
                      [wi(1, 0, 10)] * 2):
            with pytest.raises(LogValidationError) as err:
                validate_log(items)
            assert "duplicate id" in str(err.value)

    @pytest.mark.parametrize("start, end", [
        (FIRST_INSTANT - 1, FIRST_INSTANT + 1_000),
        (LAST_INSTANT - 1_000, LAST_INSTANT + 1),
    ])
    def test_instants_outside_years_1_to_9999_are_refused(self, start, end):
        # The writers could not format them and would leave a partial file.
        with pytest.raises(LogValidationError) as err:
            validate_log([wi("ok", 0, 10), wi("far", start, end)])
        assert err.value.problems == [
            "item 'far': instant outside years 1-9999 UTC"]

    def test_first_and_last_instants_are_legal(self):
        log = validate_log([wi("first", FIRST_INSTANT, FIRST_INSTANT),
                            wi("last", FIRST_INSTANT, LAST_INSTANT)])
        assert len(log) == 2

    def test_zero_duration_is_legal(self):
        log = validate_log([wi("z", 5, 5)])
        assert len(log) == 1
        assert log.items[0].duration == 0

    def test_deterministic_ordering(self):
        items = four_task_items()
        log_a = validate_log(items)
        log_b = validate_log(list(reversed(items)))
        assert log_a == log_b

    def test_idempotence(self):
        log = four_task_log()
        again = validate_log(log.items)
        assert again == log

    def test_a_one_shot_iterator_gives_the_log_of_its_list(self):
        items = four_task_items()
        assert validate_log(item for item in items) == validate_log(items)

    def test_the_message_joins_every_problem(self):
        problems = ["item 'a': missing resource", "item 'b': duplicate id"]
        assert str(LogValidationError(problems)) == (
            "invalid event log: item 'a': missing resource; "
            "item 'b': duplicate id")


LOG = EventLog(())
RECORDS = [
    TimePoint(0, "a", "+"), ActiveInterval(0, 1, ("a",)),
    AuxWorkItem(1, 0, 1, "a", Fraction(1)),
    CoalescedItem("a", "T", "R", "c", 0, Fraction(1)), LogAdjustment(LOG, LOG),
    PairOverlap("a", "b", 0.5), SummaryCounts(0, 0, 0, 0), LOG,
    ResourceSegment("R", ()), PlannedShift("a", "b", 1), ShiftPlan(0.5, ()),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_public_records_are_frozen(record):
    name = fields(record)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(record, name, getattr(record, name))


class TestSegmentsPerResource:
    def test_single_resource_order(self):
        segments = segments_per_resource(four_task_log())
        assert len(segments) == 1
        assert [item.id for item in segments[0].items] == ["A", "B", "C", "D"]

    def test_partition_two_resources(self):
        log = make_log(
            [
                wi(1, 0, 10, resource="r1"),
                wi(2, 5, 15, resource="r2"),
                wi(3, 20, 30, resource="r1"),
                wi(4, 25, 35, resource="r2"),
            ]
        )
        segments = segments_per_resource(log)
        assert [s.resource for s in segments] == ["r1", "r2"]
        assert all(len(s) == 2 for s in segments)
        seen = sorted(item.id for s in segments for item in s.items)
        assert seen == [1, 2, 3, 4]

    def test_empty_log(self):
        assert segments_per_resource(validate_log([])) == []

    def test_start_tie_broken_by_end_then_id(self):
        log = make_log(
            [
                wi("b", 0, 20),
                wi("a", 0, 20),
                wi("c", 0, 10),
            ]
        )
        (segment,) = segments_per_resource(log)
        assert [item.id for item in segment.items] == ["c", "a", "b"]

    def test_non_decreasing_starts(self):
        import random

        from helpers import random_segment_items

        rng = random.Random(7)
        for _ in range(50):
            items = random_segment_items(rng)
            (segment,) = segments_per_resource(make_log(items))
            starts = [item.start for item in segment.items]
            assert starts == sorted(starts)
            assert sorted(i.id for i in segment.items) == sorted(
                i.id for i in items
            )


class TestResorted:
    # The trace blocks c1, c2 and c3, each in log order.
    ORDERED = [wi(1, 0, 5, trace="c1"), wi(2, 10, 15, trace="c1"),
               wi(3, 20, 25, trace="c1"), wi(4, 5, 9, trace="c2"),
               wi(5, 0, 1, trace="c3"), wi(6, 3, 4, trace="c3")]

    def test_in_order_input_is_returned_unchanged(self):
        log = _resorted(list(self.ORDERED), range(len(self.ORDERED)))
        assert log.items == tuple(self.ORDERED)
        assert log == _ordered(self.ORDERED)

    def test_position_0_is_ignored(self):
        # c1 is out of order, but only at position 1, which is not given:
        # position 0 has no predecessor, not the list's last item.
        items = [wi(2, 10, 15), wi(1, 0, 5), wi(3, 0, 1, trace="c2")]
        assert _resorted(list(items), [0]).items == tuple(items)

    def test_two_positions_in_one_block(self):
        items = [wi(1, 0, 5), wi(2, 10, 15), wi(3, 5, 9), wi(4, 20, 25),
                 wi(5, 12, 13), wi(6, 0, 1, trace="c2")]
        assert _resorted(list(items), [2, 4]) == _ordered(items)

    def test_fallen_blocks_at_the_start_and_the_end(self):
        items = [wi(1, 12, 15), wi(2, 10, 15), wi(3, 20, 25),
                 wi(4, 5, 9, trace="c2"),
                 wi(5, 3, 4, trace="c3"), wi(6, 0, 1, trace="c3")]
        log = _resorted(list(items), [1, 5])
        assert log == _ordered(items)
        assert [item.id for item in log.items] == [2, 1, 3, 4, 6, 5]

    def test_a_predecessor_from_another_trace_is_no_fall(self):
        # c2 starts below c1's last item; its own fall at position 2 is not
        # given, so nothing is sorted.
        items = [wi(1, 50, 55), wi(2, 20, 25, trace="c2"),
                 wi(3, 0, 5, trace="c2")]
        assert _resorted(list(items), [1]).items == tuple(items)
