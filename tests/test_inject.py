import importlib
import random
from fractions import Fraction

import pytest

from sweeplog.inject import find_adjacent_pairs, inject, plan_shifts
from sweeplog.logio import read_csv, write_csv
from sweeplog.metrics import mtwii, overlap, summarize
from sweeplog.model import FIRST_INSTANT, segments_per_resource, validate_log

from helpers import make_log, wi

# The package exports the function inject under the module's name.
inject_module = importlib.import_module("sweeplog.inject")


def segment_of(*items):
    (segment,) = segments_per_resource(make_log(list(items)))
    return segment


def exhaustive_adjacent_pairings(items):
    """Every maximal set of disjoint adjacent pairs, by brute force."""
    items = [item for item in items if item.end > item.start]

    def expand(pool):
        best = [[]]
        for i, first in enumerate(pool):
            for j, second in enumerate(pool):
                if i == j or second.start != first.end:
                    continue
                rest = [x for k, x in enumerate(pool) if k not in (i, j)]
                for tail in expand(rest):
                    best.append([(first.id, second.id)] + tail)
        return best

    return {frozenset(choice) for choice in expand(items)}


class TestFindAdjacentPairs:
    def test_greedy_consumes_both_members(self):
        pairs = find_adjacent_pairs(
            segment_of(wi("a", 0, 10), wi("b", 10, 20), wi("c", 20, 30))
        )
        assert [(f.id, s.id) for f, s in pairs] == [("a", "b")]

    def test_greedy_result_is_a_valid_maximal_choice(self):
        segment = segment_of(
            wi("a", 0, 10), wi("b", 10, 20), wi("c", 20, 30), wi("d", 30, 40)
        )
        greedy = frozenset(
            (f.id, s.id) for f, s in find_adjacent_pairs(segment)
        )
        assert greedy == frozenset({("a", "b"), ("c", "d")})
        assert greedy in exhaustive_adjacent_pairings(segment.items)

    def test_no_adjacency(self):
        assert find_adjacent_pairs(
            segment_of(wi("a", 0, 10), wi("b", 15, 20))
        ) == []

    def test_instantaneous_items_skipped(self):
        pairs = find_adjacent_pairs(
            segment_of(wi("a", 0, 10), wi("z", 10, 10), wi("b", 10, 20))
        )
        assert [(f.id, s.id) for f, s in pairs] == [("a", "b")]

    def test_unpaired_pivot_advances(self):
        pairs = find_adjacent_pairs(
            segment_of(wi("a", 0, 10), wi("b", 12, 20), wi("c", 20, 30))
        )
        assert [(f.id, s.id) for f, s in pairs] == [("b", "c")]


class TestPlanShifts:
    def test_delta_from_larger_duration(self):
        log = make_log([wi("a", 0, 100), wi("b", 100, 130)])
        plan = plan_shifts(log, 0.5)
        (shift,) = plan.pairs
        assert (shift.first_id, shift.second_id, shift.delta) == ("a", "b", 50)

    def test_delta_clamped_to_first_duration(self):
        log = make_log([wi("a", 0, 10), wi("b", 10, 110)])
        plan = plan_shifts(log, 0.5)
        (shift,) = plan.pairs
        assert shift.delta == 10

    def test_each_item_in_at_most_one_pair(self):
        log = make_log(
            [wi("a", 0, 10), wi("b", 10, 20), wi("c", 20, 30), wi("d", 30, 40)]
        )
        plan = plan_shifts(log, 0.2)
        mentioned = [
            i for s in plan.pairs for i in (s.first_id, s.second_id)
        ]
        assert len(mentioned) == len(set(mentioned))

    @pytest.mark.parametrize("percentage, delta", [(0.3, 2), (0.7, 4)])
    def test_decimal_ties_round_half_up(self, percentage, delta):
        # 0.3 and 0.7 are stored just below 3/10 and 7/10; as typed, a
        # tenth of a 5 ms item is a half millisecond, which rounds up.
        log = make_log([wi("a", 0, 5), wi("b", 5, 10)])
        (shift,) = plan_shifts(log, percentage).pairs
        assert shift.delta == delta

    def test_builds_at_most_one_fraction(self, monkeypatch):
        built = []

        class Counted(Fraction):
            # A product is a Counted too, so a Fraction per pair counts.
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

            def __mul__(self, other):
                return Counted(Fraction.__mul__(self, other))

            __rmul__ = __mul__

        monkeypatch.setattr(inject_module, "Fraction", Counted)
        log = make_log([wi(f"x{n}", 10 * n, 10 * n + 10) for n in range(40)])
        for percentage in (0.0, 0.35, 1.0):
            built.clear()
            plan = plan_shifts(log, percentage)
            assert len(plan.pairs) == 20
            assert len(built) <= 1

    def test_percentage_out_of_range(self):
        log = make_log([wi("a", 0, 10)])
        with pytest.raises(ValueError):
            plan_shifts(log, 1.5)
        with pytest.raises(ValueError):
            inject(log, -0.1)


class TestInject:
    def test_zero_percentage_is_identity(self):
        log = make_log([wi("a", 0, 10), wi("b", 10, 20)])
        assert inject(log, 0.0) == log

    def test_equal_durations_hit_target_ratio(self):
        log = make_log([wi("a", 0, 100), wi("b", 100, 200)])
        shifted = inject(log, 0.2).by_id()
        assert (shifted["b"].start, shifted["b"].end) == (80, 180)
        assert overlap(shifted["a"], shifted["b"]) == pytest.approx(0.2)

    def test_embedding_caps_the_ratio(self):
        log = make_log([wi("a", 0, 100), wi("b", 100, 130)])
        shifted = inject(log, 0.5).by_id()
        assert (shifted["b"].start, shifted["b"].end) == (50, 80)
        assert overlap(shifted["a"], shifted["b"]) == pytest.approx(0.3)

    def test_structure_preserved(self):
        log = make_log(
            [
                wi("a", 0, 100, resource="r1", activity="T1", trace="c1"),
                wi("b", 100, 200, resource="r1", activity="T2", trace="c2"),
                wi("c", 0, 50, resource="r2", activity="T3", trace="c1"),
            ]
        )
        shifted = inject(log, 0.3)
        assert len(shifted) == len(log)
        before = {i.id: i for i in log.items}
        moved = 0
        for item in shifted.items:
            source = before[item.id]
            assert item.activity == source.activity
            assert item.resource == source.resource
            assert item.trace_id == source.trace_id
            assert item.duration == source.duration
            if (item.start, item.end) != (source.start, source.end):
                moved += 1
                assert source.start - item.start == source.end - item.end
        assert moved == 1  # only b, the second member of the only pair

    def test_mtwii_tracks_percentage_on_uniform_pairs(self):
        items = []
        for r in range(20):
            items.append(wi(f"a{r}", 0, 100_000, resource=f"r{r:02d}",
                            trace=f"c{r}"))
            items.append(wi(f"b{r}", 100_000, 200_000, resource=f"r{r:02d}",
                            trace=f"c{r}"))
        log = make_log(items)
        assert mtwii(log) is None
        for p in (0.05, 0.25, 0.8):
            assert mtwii(inject(log, p)) == pytest.approx(p, abs=1e-9)

    def test_monotone_in_percentage(self):
        rng = random.Random(43)
        items = []
        cursor = 0
        for k in range(30):
            duration = rng.randint(1, 50) * 1000
            items.append(wi(f"x{k}", cursor, cursor + duration))
            cursor += duration
        log = make_log(items)
        values = []
        for p in (0.0, 0.1, 0.2, 0.3, 0.5):
            value = mtwii(inject(log, p))
            values.append(0.0 if value is None else value)
        assert values == sorted(values)

    def test_shift_creates_at_least_planned_pairs(self):
        items = []
        cursor = 0
        for k in range(10):
            items.append(wi(f"x{k}", cursor, cursor + 1000))
            cursor += 1000
        log = make_log(items)
        plan = plan_shifts(log, 0.4)
        report = summarize(inject(log, 0.4))
        assert report.counts.pairs_overlapped >= len(plan.pairs)
        assert len(plan.pairs) == 5

    def test_a_shift_never_passes_the_first_items_start(self, tmp_path):
        # So no shifted instant can leave the years the writers can format.
        log = make_log([wi("a", FIRST_INSTANT, FIRST_INSTANT + 10),
                        wi("b", FIRST_INSTANT + 10, FIRST_INSTANT + 50)])
        injected = inject(log, 1.0)
        assert injected.by_id()["b"].start == FIRST_INSTANT
        assert validate_log(injected.items) == injected
        write_csv(injected, tmp_path / "out.csv")
        assert [(item.start, item.end)
                for item in read_csv(tmp_path / "out.csv").items] == [
            (FIRST_INSTANT, FIRST_INSTANT + 10),
            (FIRST_INSTANT, FIRST_INSTANT + 40)]
