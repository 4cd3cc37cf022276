import random
import tracemalloc
from fractions import Fraction

import pytest

from sweeplog.metrics import (
    mtli,
    mtri,
    mtri_overlapped,
    mtwii,
    overlap,
    overlapped_pairs,
    SummaryCounts,
    summarize,
)
from sweeplog.model import segments_per_resource

from helpers import (
    chain_log,
    four_task_log,
    make_log,
    mtli_by_double_loop,
    mtri_by_double_loop,
    mtri_overlapped_by_double_loop,
    mtwii_by_double_loop,
    random_segment_items,
    scale_log,
    shift_log,
    traced_peak,
    wi,
)

# Hand-derived values for the four-task example: the six pair ratios are
# AB=1/2, AC=7/26, AD=2/13, CD=6/11, BC=BD=0.
FOUR_TASK_MTRI = float(
    (Fraction(1, 2) + Fraction(7, 26) + Fraction(2, 13) + Fraction(6, 11)) / 6
)
FOUR_TASK_MTRI_OVERLAPPED = float(
    (Fraction(1, 2) + Fraction(7, 26) + Fraction(2, 13) + Fraction(6, 11)) / 4
)


def segment_of(*items):
    (segment,) = segments_per_resource(make_log(list(items)))
    return segment


def four_task_segment():
    (segment,) = segments_per_resource(four_task_log())
    return segment


class TestOverlap:
    def test_half_overlap(self):
        assert overlap(wi("A", 0, 130), wi("B", 10, 75)) == 0.5

    def test_disjoint(self):
        assert overlap(wi("B", 10, 75), wi("C", 95, 150)) == 0.0

    def test_touching_is_not_overlap(self):
        assert overlap(wi("a", 0, 10), wi("b", 10, 20)) == 0.0

    def test_identical(self):
        assert overlap(wi("a", 0, 100), wi("b", 0, 100)) == 1.0

    def test_zero_duration_pair(self):
        assert overlap(wi("a", 5, 5), wi("b", 5, 5)) == 0.0

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(200):
            items = random_segment_items(rng, max_items=2, t_max=50)
            if len(items) < 2:
                continue
            first, second = items
            assert overlap(first, second) == overlap(second, first)

    def test_cross_resource_rejected(self):
        with pytest.raises(ValueError):
            overlap(wi("a", 0, 10, resource="r1"),
                    wi("b", 0, 10, resource="r2"))

    def test_bounds(self):
        rng = random.Random(5)
        for _ in range(100):
            items = random_segment_items(rng, max_items=5, t_max=50)
            for i, a in enumerate(items):
                for b in items[i + 1:]:
                    assert 0.0 <= overlap(a, b) <= 1.0


class TestMtri:
    def test_four_task_value(self):
        assert mtri(four_task_segment()) == pytest.approx(
            FOUR_TASK_MTRI, abs=1e-12
        )

    def test_single_item(self):
        assert mtri(segment_of(wi("a", 0, 10))) == 0.0

    def test_disjoint_pair(self):
        assert mtri(segment_of(wi("a", 0, 10), wi("b", 20, 30))) == 0.0

    def test_matches_double_loop(self):
        rng = random.Random(13)
        for _ in range(200):
            items = random_segment_items(rng, max_items=6, t_max=50)
            assert mtri(segment_of(*items)) == pytest.approx(
                mtri_by_double_loop(items), abs=1e-12
            )


class TestMtriOverlapped:
    def test_four_task_value(self):
        assert mtri_overlapped(four_task_segment()) == pytest.approx(
            FOUR_TASK_MTRI_OVERLAPPED, abs=1e-12
        )

    def test_disjoint_segment_undefined(self):
        assert mtri_overlapped(
            segment_of(wi("a", 0, 10), wi("b", 20, 30))
        ) is None

    def test_identical_pair(self):
        assert mtri_overlapped(
            segment_of(wi("a", 0, 100), wi("b", 0, 100))
        ) == 1.0

    def test_never_below_all_pairs_mean(self):
        rng = random.Random(17)
        for _ in range(200):
            items = random_segment_items(rng, max_items=6, t_max=50)
            segment = segment_of(*items)
            restricted = mtri_overlapped(segment)
            if restricted is not None:
                assert restricted >= mtri(segment) - 1e-12

    def test_matches_double_loop(self):
        rng = random.Random(19)
        for _ in range(200):
            items = random_segment_items(rng, max_items=6, t_max=50)
            expected = mtri_overlapped_by_double_loop(items)
            actual = mtri_overlapped(segment_of(*items))
            if expected is None:
                assert actual is None
            else:
                assert actual == pytest.approx(expected, abs=1e-12)


class TestLogIndexes:
    def test_mtli_single_resource(self):
        assert mtli(four_task_log()) == pytest.approx(
            FOUR_TASK_MTRI, abs=1e-12
        )

    def test_mtli_empty_log(self):
        assert mtli(make_log([])) == 0.0

    def test_mtli_clean_log(self):
        log = make_log([wi("a", 0, 10), wi("b", 20, 30)])
        assert mtli(log) == 0.0

    def test_mtli_mean_over_resources(self):
        # r1 holds one pair at ratio 0.2, r2 one pair at ratio 0.4
        log = make_log(
            [
                wi(1, 0, 10, resource="r1"),
                wi(2, 8, 18, resource="r1"),
                wi(3, 0, 10, resource="r2"),
                wi(4, 6, 16, resource="r2"),
            ]
        )
        assert mtli(log) == pytest.approx(0.3, abs=1e-12)

    def test_mtwii_single_resource(self):
        assert mtwii(four_task_log()) == pytest.approx(
            FOUR_TASK_MTRI_OVERLAPPED, abs=1e-12
        )

    def test_mtwii_undefined_without_multitasking(self):
        assert mtwii(make_log([wi("a", 0, 10), wi("b", 10, 20)])) is None

    def test_mtwii_skips_resources_without_overlap(self):
        log = make_log(
            [
                wi(1, 0, 10, resource="r1"),
                wi(2, 5, 15, resource="r1"),
                wi(3, 0, 10, resource="r2"),
                wi(4, 5, 15, resource="r2"),
                wi(5, 0, 10, resource="r3"),
                wi(6, 50, 60, resource="r3"),
            ]
        )
        assert mtwii(log) == pytest.approx(0.5, abs=1e-12)

    def test_matches_double_loop_on_multi_resource_logs(self):
        rng = random.Random(21)
        for round_no in range(100):
            items = []
            for r in range(rng.randint(1, 3)):
                items.extend(
                    random_segment_items(
                        rng, max_items=5, t_max=50,
                        resource=f"r{r}", tag=f"{round_no}.{r}",
                    )
                )
            log = make_log(items)
            assert mtli(log) == pytest.approx(
                mtli_by_double_loop(log), abs=1e-12
            )
            expected = mtwii_by_double_loop(log)
            actual = mtwii(log)
            if expected is None:
                assert actual is None
            else:
                assert actual == pytest.approx(expected, abs=1e-12)


class TestInvariance:
    def test_translation(self):
        log = four_task_log()
        moved = shift_log(log, 10_000_000)
        assert mtli(moved) == mtli(log)
        assert mtwii(moved) == mtwii(log)

    def test_uniform_scaling(self):
        log = four_task_log()
        scaled = scale_log(log, 60_000)
        assert mtli(scaled) == mtli(log)
        assert mtwii(scaled) == mtwii(log)


class TestSummarize:
    def test_four_task_counts(self):
        report = summarize(four_task_log())
        assert report.counts.tasks_multitasked == 4
        assert report.counts.events_overlapped == 4
        assert report.counts.resources_multitasking == 1
        assert report.counts.pairs_overlapped == 4
        assert report.mtli == pytest.approx(FOUR_TASK_MTRI, abs=1e-12)
        assert report.mtwii == pytest.approx(
            FOUR_TASK_MTRI_OVERLAPPED, abs=1e-12
        )
        assert report.mtwii_defined
        assert set(report.mtri_all) == {"R1"}
        assert set(report.mtri_overlapped) == {"R1"}

    def test_disjoint_log_all_zero(self):
        report = summarize(make_log([wi("a", 0, 10), wi("b", 10, 20)]))
        assert report.counts.tasks_multitasked == 0
        assert report.counts.events_overlapped == 0
        assert report.counts.resources_multitasking == 0
        assert report.counts.pairs_overlapped == 0
        assert report.mtli == 0.0
        assert report.mtwii == 0.0
        assert not report.mtwii_defined
        assert report.mtri_overlapped == {}

    def test_pairs_count_matches_enumeration(self):
        rng = random.Random(41)
        for _ in range(50):
            items = random_segment_items(rng, max_items=6, t_max=50)
            report = summarize(make_log(items))
            direct = sum(
                1
                for i, a in enumerate(items)
                for b in items[i + 1:]
                if min(a.end, b.end) - max(a.start, b.start) > 0
            )
            assert report.counts.pairs_overlapped == direct

    def test_nested_log_in_bounded_memory(self):
        # Item k spans [k, 4000 - k) on one resource, so all 1,999,000
        # pairs overlap; a list of a resource's ratios peaked at 65 MB,
        # each item's ratios streamed to fsum at 0.3 MB (Python 3.11).
        log = make_log([wi(k, k, 4_000 - k) for k in range(2_000)])
        tracemalloc.start()
        try:
            report = summarize(log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert report.counts.pairs_overlapped == 1_999_000

    def test_counts_hold_one_resource_of_overlapped_items(self):
        # 200 resources of 100 items, each overlapping the next.  One
        # dict of every overlapped item's activity peaked 53 B an item
        # above the log; one resource's at a time, 10 B (Python 3.11).
        log = chain_log(20_000, resources=200, stretch=30_000)
        report, retained, peak = traced_peak(lambda: summarize(log))
        assert report.counts == SummaryCounts(7, 20_000, 200, 19_800)
        assert peak - retained < 25 * len(log)

    def test_overlapped_pairs_listing(self):
        pairs = overlapped_pairs(four_task_segment())
        assert {(p.first_id, p.second_id) for p in pairs} == {
            ("A", "B"),
            ("A", "C"),
            ("A", "D"),
            ("C", "D"),
        }
