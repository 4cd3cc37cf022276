import random
from collections import deque
from dataclasses import replace
from fractions import Fraction

from sweeplog import sweep
from sweeplog.logio import write_aux
from sweeplog.model import ResourceSegment, segments_per_resource
from sweeplog.sweep import (
    _advances,
    adjust_log,
    build_aux_items,
    build_intervals,
    build_time_points,
    format_adjustment_table,
)

from helpers import (
    aux_text_by_rows,
    chain_log,
    fair_share_by_unit_steps,
    four_task_log,
    make_log,
    random_segment_items,
    shares_by_resource,
    traced_peak,
    union_measure_by_unit_steps,
    wi,
)


def segment_of(*items) -> ResourceSegment:
    (segment,) = segments_per_resource(make_log(list(items)))
    return segment


def four_task_segment() -> ResourceSegment:
    (segment,) = segments_per_resource(four_task_log())
    return segment


GOLDEN_POINTS = [
    (0, "A", "+"),
    (10, "B", "+"),
    (75, "B", "-"),
    (95, "C", "+"),
    (110, "D", "+"),
    (130, "A", "-"),
    (140, "D", "-"),
    (150, "C", "-"),
]

GOLDEN_INTERVALS = [
    (0, 10, ("A",)),
    (10, 75, ("A", "B")),
    (75, 95, ("A",)),
    (95, 110, ("A", "C")),
    (110, 130, ("A", "C", "D")),
    (130, 140, ("C", "D")),
    (140, 150, ("C",)),
]

GOLDEN_SHARES = [
    (0, 10, "A", Fraction(10)),
    (10, 75, "A", Fraction(65, 2)),
    (10, 75, "B", Fraction(65, 2)),
    (75, 95, "A", Fraction(20)),
    (95, 110, "A", Fraction(15, 2)),
    (95, 110, "C", Fraction(15, 2)),
    (110, 130, "A", Fraction(20, 3)),
    (110, 130, "C", Fraction(20, 3)),
    (110, 130, "D", Fraction(20, 3)),
    (130, 140, "C", Fraction(5)),
    (130, 140, "D", Fraction(5)),
    (140, 150, "C", Fraction(10)),
]

GOLDEN_COALESCED = {
    "A": Fraction(230, 3),
    "B": Fraction(65, 2),
    "C": Fraction(175, 6),
    "D": Fraction(35, 3),
}


class TestTimePoints:
    def test_golden_sequence(self):
        points = build_time_points(four_task_segment())
        assert [p.as_tuple() for p in points] == GOLDEN_POINTS

    def test_single_item(self):
        points = build_time_points(segment_of(wi("w", 0, 10)))
        assert [p.as_tuple() for p in points] == [
            (0, "w", "+"),
            (10, "w", "-"),
        ]

    def test_adjacent_items_minus_first(self):
        points = build_time_points(
            segment_of(wi("a", 0, 10), wi("b", 10, 20))
        )
        assert [p.as_tuple() for p in points] == [
            (0, "a", "+"),
            (10, "a", "-"),
            (10, "b", "+"),
            (20, "b", "-"),
        ]
        # consequence: the two items never share an interval
        intervals = build_intervals(points)
        assert all(len(iv.active_ids) == 1 for iv in intervals)

    def test_zero_duration_plus_precedes_own_minus(self):
        points = build_time_points(
            segment_of(wi("z", 10, 10), wi("a", 0, 10))
        )
        tuples = [p.as_tuple() for p in points]
        assert tuples.index((10, "z", "+")) < tuples.index((10, "z", "-"))
        # the sweep stays consistent: no interval ever contains z
        intervals = build_intervals(points)
        assert all("z" not in iv.active_ids for iv in intervals)


class TestIntervals:
    def test_golden_intervals(self):
        intervals = build_intervals(build_time_points(four_task_segment()))
        assert [
            (iv.start, iv.end, iv.active_ids) for iv in intervals
        ] == GOLDEN_INTERVALS

    def test_single_item(self):
        intervals = build_intervals(
            build_time_points(segment_of(wi("w", 0, 10)))
        )
        assert [(iv.start, iv.end, iv.active_ids) for iv in intervals] == [
            (0, 10, ("w",))
        ]

    def test_gap_between_disjoint_items_dropped(self):
        intervals = build_intervals(
            build_time_points(segment_of(wi("a", 0, 10), wi("b", 20, 30)))
        )
        assert [(iv.start, iv.end, iv.active_ids) for iv in intervals] == [
            (0, 10, ("a",)),
            (20, 30, ("b",)),
        ]


class TestAuxItems:
    def test_golden_shares_and_sequential_ids(self):
        shares = build_aux_items(
            build_intervals(build_time_points(four_task_segment()))
        )
        assert [s.id for s in shares] == list(range(1, 13))
        assert [
            (s.start, s.end, s.parent_id, s.duration) for s in shares
        ] == GOLDEN_SHARES

    def test_two_way_split(self):
        shares = build_aux_items(
            build_intervals(
                build_time_points(segment_of(wi("w1", 10, 75), wi("w2", 10, 75)))
            )
        )
        assert [(s.start, s.end, s.parent_id, s.duration) for s in shares] == [
            (10, 75, "w1", Fraction(65, 2)),
            (10, 75, "w2", Fraction(65, 2)),
        ]

    def test_single_active_id_gets_full_span(self):
        shares = build_aux_items(
            build_intervals(build_time_points(segment_of(wi("w", 3, 17))))
        )
        assert len(shares) == 1
        assert shares[0].duration == Fraction(14)

    def test_share_sum_matches_interval_span(self):
        rng = random.Random(11)
        for _ in range(100):
            items = random_segment_items(rng, max_items=6, t_max=50)
            intervals = build_intervals(
                build_time_points(segment_of(*items))
            )
            for interval in intervals:
                covered = [
                    s
                    for s in build_aux_items(intervals)
                    if (s.start, s.end) == (interval.start, interval.end)
                ]
                assert sum(s.duration for s in covered) == interval.span


class TestAdjustLog:
    def test_golden_coalesced_durations(self):
        adjusted = adjust_log(four_task_log())
        durations = {
            c.id: c.duration_exact for c in adjusted.coalesced_exact
        }
        assert durations == GOLDEN_COALESCED
        assert sum(durations.values()) == 150

    def test_disjoint_log_identity(self):
        log = make_log([wi("a", 0, 10), wi("b", 20, 30), wi("c", 30, 40)])
        adjusted = adjust_log(log)
        assert adjusted.coalesced == log
        assert len(adjusted.aux_items) == len(log)

    def test_identical_spans_split_evenly(self):
        log = make_log([wi("x", 0, 100), wi("y", 0, 100)])
        adjusted = adjust_log(log)
        durations = {c.id: c.duration_exact for c in adjusted.coalesced_exact}
        assert durations == {"x": Fraction(50), "y": Fraction(50)}
        # identical spans are the one case where overlap adds no shares
        assert len(adjusted.aux_items) == len(log)

    def test_zero_duration_items_bypass(self):
        log = make_log([wi("z", 5, 5), wi("a", 0, 10)])
        adjusted = adjust_log(log)
        assert all(s.parent_id != "z" for s in adjusted.aux_items)
        coalesced = adjusted.coalesced.by_id()
        assert coalesced["z"].start == 5 and coalesced["z"].end == 5
        assert coalesced["a"].end == 10

    def test_count_preserved_and_metadata_copied(self):
        log = four_task_log()
        adjusted = adjust_log(log)
        assert len(adjusted.coalesced) == len(log)
        for before, after in zip(log.items, adjusted.coalesced.items):
            assert before.id == after.id
            assert before.activity == after.activity
            assert before.resource == after.resource
            assert before.trace_id == after.trace_id
            assert before.start == after.start

    def test_rounding_half_up_on_materialized_ends(self):
        coalesced = adjust_log(four_task_log()).coalesced.by_id()
        assert coalesced["A"].end == 77   # 230/3 = 76.67
        assert coalesced["B"].end == 43   # 10 + 32.5
        assert coalesced["C"].end == 124  # 95 + 175/6 = 124.17
        assert coalesced["D"].end == 122  # 110 + 35/3 = 121.67

    def test_aux_ids_run_across_resources(self):
        log = make_log(
            [
                wi(1, 0, 10, resource="r2"),
                wi(2, 0, 10, resource="r1"),
                wi(3, 5, 15, resource="r1"),
            ]
        )
        adjusted = adjust_log(log)
        r1_ids = [s.id for s in adjusted.aux_by_resource["r1"]]
        r2_ids = [s.id for s in adjusted.aux_by_resource["r2"]]
        assert r1_ids == [1, 2, 3, 4]
        assert r2_ids == [5]

    def test_a_log_without_overlap_builds_no_clock(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a clock was built")

        log = chain_log(2_000)
        monkeypatch.setattr(sweep, "lcm", forbidden)
        adjusted = adjust_log(log)
        assert all(out is item for out, item
                   in zip(adjusted.coalesced.items, log.items, strict=True))
        assert [c.end_exact for c in adjusted.coalesced_exact] == [
            Fraction(item.end) for item in log.items]

    def test_a_log_without_overlap_is_never_swept(self, monkeypatch,
                                                  tmp_path):
        # Each item of a resource that never multitasks is one share, its
        # whole duration, written without the id sweep's bounds or cuts.
        def forbidden(*args):
            raise AssertionError("an id sweep was run")

        log = chain_log(2_000)
        text, shares = aux_text_by_rows(log), shares_by_resource(log)
        monkeypatch.setattr(sweep, "_bounds", forbidden)
        monkeypatch.setattr(sweep, "_cut", forbidden)
        write_aux(log, tmp_path / "aux.csv")
        assert (tmp_path / "aux.csv").read_bytes() == text.encode("utf-8")
        assert adjust_log(log).aux_by_resource == shares

    def test_exact_ends_peak_near_what_they_retain(self):
        # A chain's items only touch, so no resource of it gets a clock;
        # stretched by half a step, each overlaps the next.  Exact ends
        # built with every resource's clock alive at once peaked at 1.63x
        # what they retain; one clock at a time, 1.14x (Python 3.11).
        assert next(_advances(chain_log(20_000)), None) is None
        log = make_log([replace(item, end=item.end + 30_000)
                        for item in chain_log(20_000).items])
        adjusted = adjust_log(log)
        exact, retained, peak = traced_peak(
            lambda: replace(adjusted).coalesced_exact)
        assert all(out.end_exact < item.end  # every resource multitasks
                   for out, item in zip(exact, log.items, strict=True))
        assert peak < 1.25 * retained

    def test_adjust_holds_one_resource_clock_at_a_time(self):
        # 200 resources of 100 items, each overlapping the next, so all
        # 200 get a clock.  Every clock built before any item peaked 166 B
        # an item above the log and its adjusted copy; one clock at a time,
        # 39 B (Python 3.11).
        log = chain_log(20_000, resources=200, stretch=30_000)
        adjusted, retained, peak = traced_peak(lambda: adjust_log(log))
        assert sum(out is not item for out, item in zip(
            adjusted.coalesced.items, log.items, strict=True)) == 20_000
        assert peak - retained < 80 * len(log)

    def test_the_clock_walk_holds_one_clock(self):
        # The walk alone, with no output built after it to outweigh the
        # clocks: one resource's clock at a time peaked 12.6 B an item;
        # every clock dict kept to the end of the walk, 168 B (Python 3.11).
        log = chain_log(20_000, resources=200, stretch=30_000)
        _, _, peak = traced_peak(lambda: deque(_advances(log), maxlen=0))
        assert peak < 40 * len(log)


class TestSweepProperties:
    def test_per_item_duration_matches_unit_step_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            items = random_segment_items(rng, max_items=6, t_max=50)
            expected = fair_share_by_unit_steps(items)
            adjusted = adjust_log(make_log(items))
            actual = {c.id: c.duration_exact for c in adjusted.coalesced_exact}
            assert actual == expected

    def test_span_partition_per_item(self):
        rng = random.Random(29)
        for _ in range(100):
            items = random_segment_items(rng, max_items=6, t_max=50)
            adjusted = adjust_log(make_log(items))
            for item in items:
                spans = sorted(
                    (s.start, s.end)
                    for s in adjusted.aux_items
                    if s.parent_id == item.id
                )
                assert spans[0][0] == item.start
                assert spans[-1][1] == item.end
                for (_, first_end), (second_start, _) in zip(
                    spans, spans[1:]
                ):
                    assert first_end == second_start

    def test_busy_time_conservation(self):
        rng = random.Random(31)
        for _ in range(100):
            items = random_segment_items(rng, max_items=8, t_max=200)
            adjusted = adjust_log(make_log(items))
            total = sum(
                (s.duration for s in adjusted.aux_items), Fraction(0)
            )
            assert total == union_measure_by_unit_steps(items)

    def test_shrinkage(self):
        rng = random.Random(37)
        for _ in range(100):
            items = random_segment_items(rng)
            adjusted = adjust_log(make_log(items))
            originals = {item.id: item for item in items}
            for coalesced in adjusted.coalesced_exact:
                assert coalesced.end_exact <= originals[coalesced.id].end

    def test_determinism(self):
        log = four_task_log()
        assert adjust_log(log) == adjust_log(log)


class TestAdjustmentTable:
    def test_mirrors_sweep_state(self):
        table = format_adjustment_table(four_task_log())
        assert "resource R1" in table
        assert "(0, A, '+')" in table
        assert "(110, 130, 'A,C,D')" in table
        assert "(110, 130, 'A', 6.67)" in table
        assert "(10, 75, 'B', 32.5)" in table
