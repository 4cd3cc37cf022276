"""The sweeps against their quadratic references on adversarial logs.

The acceptance corpus holds at most eight items with distinct spans; these
logs add identical spans, tied starts, chained items, instantaneous items,
epoch-scale timestamps, mixed int/str ids and up to 40 items per resource.
The same logs check that ``adjust_log``'s virtual clock gives exactly the
share sums, that its shares are built only on request, that the ``aux``
table's rows are those shares, and that the coalesced and the injected
logs, built without a second validation, equal what validating them
again would give.  Crowded logs, where up to 240 items are live at once,
check the integer clock where its scale D grows to hundreds of bits.
``adjust_log``, which clocks only the resources that run two items at
once, is checked against the clock on every resource on all three
corpora and on mixed logs, whose clean resources hold touching items and
instants inside a span, at a shared boundary and alone.
The callback XES reader is checked against the whole-tree and the
``iterparse`` readers it replaced, and against itself with a Python
end-tag callback, on these logs written as XES and on hand-written
documents, well-formed or faulty.  ``write_xes`` is checked against the
writer that escaped every item's names, byte for byte on these, the mixed
and the quoted-name logs, and on the first name it refuses.
``summarize`` is checked against the ``PairOverlap``-based one and the
pair-list one it replaced, exactly, on these logs, the crowded logs
and tie-heavy logs on a small grid of instants, and is kept from calling
``_pairs``, ``segments_per_resource``, ``min`` or ``max``.  ``_pairs``, a
view of the walk ``summarize`` uses, is checked pair by pair against the
generator it replaced on the same logs; the ``aux``
file is checked against one ``writerow`` per share, byte for byte, on logs
whose names need CSV quoting, and ``write_aux`` on the tie-heavy logs and
on logs with string ids, one of which needs quoting.  The id sweep's points,
intervals, shares, ``aux`` file and debug table are checked against the
object sweep it replaced, and the readers' one sort against the order
``validate_log`` gives and against the re-sort of each id 10^k's
``(trace id, start)`` group that ``model._resorted`` replaced; reads sort
no whole log.  ``write_csv`` is checked against the
``csv.writer`` it replaced, byte for byte, and ``plan_shifts`` against the
planner that built a ``Fraction`` per pair.  ``inject`` is checked against
the injector that paired through a ``deque`` per start and sorted the whole
shifted log again, and is kept from building a ``PlannedShift`` or calling
``_ordered``.  The ISO-8601 grammar with ``fromisoformat`` is checked
against the converter that built each instant from the grammar's groups, on
27,000 stamps that include the forms the C parser of Python 3.11+ misreads.
The slotted ``WorkItem`` is checked against the frozen dataclass with a
``__dict__`` that it replaced, on the fields of every item of the three
corpora: repr, fields, hash, ``replace``, pickle, copy, keyword calls and
the refusal to set or delete a field.
"""

import copy
import csv
import dataclasses
import importlib
import inspect
import io
import pickle
import random
from dataclasses import FrozenInstanceError, astuple, replace
from datetime import datetime
from itertools import product
from math import lcm
from operator import attrgetter

import pytest

from sweeplog import metrics, model, sweep
from sweeplog.cli import run
from sweeplog.inject import find_adjacent_pairs, inject, plan_shifts
from sweeplog.logio import (
    LogFormatError,
    _assemble,
    _parse_iso_8601,
    format_timestamp,
    parse_timestamp,
    read_csv,
    read_log,
    read_xes,
    write_aux,
    write_csv,
    write_log,
    write_xes,
)
from sweeplog.metrics import (
    mtli,
    mtri,
    mtri_overlapped,
    mtwii,
    overlapped_pairs,
    summarize,
)
from sweeplog.model import (
    WorkItem,
    round_half_up_ms,
    segments_per_resource,
    validate_log,
)
from sweeplog.sweep import (
    _advances,
    _alone,
    _sweeps,
    adjust_log,
    build_aux_items,
    build_intervals,
    build_time_points,
    format_adjustment_table,
)

from helpers import (
    NON_XML_CHARS,
    WorkItemByDict,
    adjacent_pairs_by_rescan,
    adjust_by_clock_on_every_resource,
    adjustment_table_by_objects,
    adversarial_items,
    assemble_by_power_groups,
    aux_items_by_objects,
    aux_text_by_rows,
    coalesced_by_shares,
    inject_by_full_sort,
    intervals_by_objects,
    make_log,
    mtli_by_double_loop,
    mtri_by_double_loop,
    mtri_overlapped_by_double_loop,
    mtwii_by_double_loop,
    overlapped_pairs_by_combinations,
    pairs_by_live_items,
    parse_iso_8601_by_groups,
    parse_timestamp_by_groups,
    plan_shifts_by_fractions,
    random_segment_items,
    read_xes_by_end_handler,
    read_xes_iterparse,
    read_xes_tree,
    shares_by_resource,
    summarize_by_pair_objects,
    summarize_by_pair_sweep,
    swept_by_objects,
    time_points_by_objects,
    wi,
    write_csv_by_writer,
    write_xes_by_item_escapes,
    xes_event,
    xes_text,
)

LOGS = 300
TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def logs():
    rng = random.Random(20040913)
    return [make_log(adversarial_items(rng)) for _ in range(LOGS)]


def crowded_items(rng, count, resource="R0"):
    """Items that all straddle one instant, so that the live count climbs
    through most of 1..count and back; spans repeat, ends tie, and a few
    instantaneous items sit among them."""
    base = rng.choice((0, 1_600_000_000_000))
    spans: list[tuple[int, int]] = []
    for _ in range(count):
        if spans and rng.random() < 0.1:
            spans.append(rng.choice(spans))
        else:
            spans.append((rng.randint(0, 300), rng.randint(301, 600)))
    spans += [(t, t) for t in rng.sample(range(601), count // 10)]
    return [
        wi(f"{resource}-{seq}", base + start, base + end, resource=resource,
           activity=f"act-{seq % 5}", trace=f"t{seq % 3}")
        for seq, (start, end) in enumerate(spans)
    ]


@pytest.fixture(scope="module")
def crowded_logs():
    rng = random.Random(19_890_919)
    logs = []
    for _ in range(20):
        resources = ("R0", "R1")[:rng.randint(1, 2)]
        logs.append(make_log([
            item for resource in resources
            for item in crowded_items(rng, rng.randint(40, 60), resource)
        ]))
    return logs + [make_log(crowded_items(rng, 240))]


def tie_spans(rng):
    """One resource's spans on a small grid of instants: each new span
    shares a start or an end with an earlier one, is an instant on its
    bounds, nests in it, repeats it or starts where it ends.  Some
    resources hold one item, or instantaneous items only."""
    roll = rng.random()
    if roll < 0.1:
        start = rng.randint(0, 12)
        return [(start, start + rng.randint(0, 3))]
    if roll < 0.2:
        return [(t, t) for t in rng.choices(range(13), k=rng.randint(1, 6))]
    spans = [(start := rng.randint(0, 6), start + rng.randint(1, 6))]
    for _ in range(rng.randint(1, 30)):
        start, end = rng.choice(spans)
        move = rng.randrange(6)
        if move == 0:
            spans.append((start, start + rng.randint(0, 6)))
        elif move == 1:
            spans.append((max(end - rng.randint(0, 6), 0), end))
        elif move == 2:
            spans.append((instant := rng.choice((start, end)), instant))
        elif move == 3:
            inner = rng.randint(start, end)
            spans.append((inner, rng.randint(inner, end)))
        elif move == 4:
            spans.append((start, end))
        else:
            spans.append((end, end + rng.randint(1, 6)))
    return spans


@pytest.fixture(scope="module")
def tie_logs():
    rng = random.Random(17_760_704)
    return [
        make_log([
            wi(f"{resource}-{seq}", start, end, resource=f"R{resource}",
               activity=f"act-{seq % 4}", trace=f"t{seq % 3}")
            for resource in range(rng.randint(1, 4))
            for seq, (start, end) in enumerate(tie_spans(rng))
        ])
        for _ in range(LOGS)
    ]


def clean_spans(rng):
    """One resource's spans, never two live at once: positive spans that
    mostly touch and sometimes leave a gap, and instants inside a span, at
    a shared boundary, in a gap or on the ends; some resources hold one
    instant alone."""
    if rng.random() < 0.1:
        return [((instant := rng.randint(0, 12)), instant)]
    spans, time = [], rng.randint(0, 3)
    for _ in range(rng.randint(1, 10)):
        end = time + rng.randint(1, 6)
        spans.append((time, end))
        time = end + rng.choice((0, 0, 0, rng.randint(1, 4)))
    bounds = [bound for span in spans for bound in span]
    for _ in range(rng.randint(0, 4)):
        instant = (rng.choice(bounds) if rng.random() < 0.5
                   else rng.randint(bounds[0] - 2, bounds[-1] + 2))
        spans.append((instant, instant))
    return spans


@pytest.fixture(scope="module")
def mixed_logs():
    """Resources that never multitask next to resources that do."""
    rng = random.Random(19_931_001)
    logs = []
    for _ in range(LOGS):
        kinds = [True] * rng.randint(1, 4) + [False] * rng.randint(1, 3)
        rng.shuffle(kinds)
        logs.append(make_log([
            wi(f"{resource}-{seq}", start, end, resource=f"R{resource}",
               activity=f"act-{seq % 4}", trace=f"t{seq % 3}")
            for resource, clean in enumerate(kinds)
            for seq, (start, end) in enumerate(
                clean_spans(rng) if clean
                else tie_spans(rng) + [(0, 2), (1, 3)])
        ]))
    return logs


def clean_resources(log):
    """The resources on which no two items are ever live at once."""
    return {resource for resource, _, intervals in swept_by_objects(log)
            if all(len(interval.active_ids) == 1 for interval in intervals)}


def live_counts(log):
    return [
        {len(interval.active_ids) for interval in intervals}
        for _, _, intervals in swept_by_objects(log)
    ]


def close(actual, expected):
    if expected is None:
        return actual is None
    return actual == pytest.approx(expected, abs=TOLERANCE)


def test_corpus_has_the_adversarial_shapes(logs):
    items = [item for log in logs for item in log.items]
    assert any(item.start == item.end for item in items)
    assert any(isinstance(item.id, int) for item in items)
    assert any(isinstance(item.id, str) for item in items)
    assert any(item.start > 10**12 for item in items)
    spans = [(item.resource, item.start, item.end) for item in items]
    assert len(set(spans)) < len(spans)
    assert max(len(s) for log in logs for s in segments_per_resource(log)) > 30


def test_overlapped_pairs_match_all_pairs(logs, tie_logs):
    for log in logs + tie_logs:
        for segment in segments_per_resource(log):
            actual = overlapped_pairs(segment)
            expected = overlapped_pairs_by_combinations(segment)
            assert len(actual) == len(expected)
            assert set(actual) == set(expected)


def test_per_resource_indexes_match_double_loop(logs, tie_logs):
    for log in logs + tie_logs:
        for segment in segments_per_resource(log):
            items = list(segment.items)
            assert close(mtri(segment), mtri_by_double_loop(items))
            assert close(
                mtri_overlapped(segment), mtri_overlapped_by_double_loop(items)
            )


def test_summarize_matches_references(logs):
    for log in logs:
        report = summarize(log)
        pairs_by_resource = {
            s.resource: (s, overlapped_pairs_by_combinations(s))
            for s in segments_per_resource(log)
        }
        activity = {item.id: item.activity for item in log.items}
        overlapped_ids = {
            wiid
            for _, pairs in pairs_by_resource.values()
            for pair in pairs
            for wiid in (pair.first_id, pair.second_id)
        }
        counts = report.counts
        assert counts.pairs_overlapped == sum(
            len(pairs) for _, pairs in pairs_by_resource.values()
        )
        assert counts.events_overlapped == len(overlapped_ids)
        assert counts.tasks_multitasked == len(
            {activity[wiid] for wiid in overlapped_ids}
        )
        assert counts.resources_multitasking == sum(
            1 for _, pairs in pairs_by_resource.values() if pairs
        )

        assert report.mtri_all.keys() == pairs_by_resource.keys()
        for resource, (segment, _) in pairs_by_resource.items():
            items = list(segment.items)
            assert close(report.mtri_all[resource], mtri_by_double_loop(items))
            assert close(
                report.mtri_overlapped.get(resource),
                mtri_overlapped_by_double_loop(items),
            )

        assert close(report.mtli, mtli_by_double_loop(log))
        assert close(mtli(log), mtli_by_double_loop(log))
        expected_mtwii = mtwii_by_double_loop(log)
        assert close(mtwii(log), expected_mtwii)
        assert report.mtwii_defined == (expected_mtwii is not None)
        assert close(report.mtwii, expected_mtwii or 0.0)


def test_summarize_equals_the_pair_object_reference(logs, crowded_logs):
    # fsum is correctly rounded, so the order of the ratios cannot matter.
    for log in logs + crowded_logs:
        assert summarize(log) == summarize_by_pair_objects(log)


def test_tie_corpus_has_the_tie_shapes(tie_logs):
    segments = [s for log in tie_logs for s in segments_per_resource(log)]
    assert any(len(s) == 1 for s in segments)
    assert any(all(it.start == it.end for it in s.items) for s in segments)
    for bound in ("start", "end"):
        assert any(
            len({getattr(it, bound) for it in s.items if it.end > it.start})
            < sum(1 for it in s.items if it.end > it.start)
            for s in segments)
    assert any(
        instant.start == instant.end and any(
            other.end > other.start and instant.start in (other.start, other.end)
            for other in s.items)
        for s in segments for instant in s.items)
    assert any(
        a.start < b.start and b.end < a.end
        for s in segments for a in s.items for b in s.items)
    assert any(
        a.end == b.start and a.start < a.end and b.start < b.end
        for s in segments for a in s.items for b in s.items)


def test_summarize_equals_the_pair_sweep_reference(logs, crowded_logs,
                                                   tie_logs):
    # fsum is correctly rounded, so neither the order of the ratios nor
    # streaming them can change a bit.
    for log in logs + crowded_logs + tie_logs:
        assert summarize(log) == summarize_by_pair_sweep(log)


def test_pairs_equal_the_live_item_reference(logs, crowded_logs, tie_logs):
    # Same pairs in the same order, the same items and == ratios.
    found = 0
    for log in logs + crowded_logs + tie_logs:
        for segment in segments_per_resource(log):
            expected = list(pairs_by_live_items(segment))
            assert list(metrics._pairs(segment)) == expected
            found += len(expected)
    assert found > LOGS


def test_summarize_walks_no_pair_and_no_segment(logs, crowded_logs, tie_logs,
                                                monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("summarize took the per-pair path")

    chosen = logs[:50] + crowded_logs[-2:] + tie_logs[:50]
    expected = [summarize_by_pair_sweep(log) for log in chosen]
    monkeypatch.setattr(metrics, "_pairs", forbidden)
    monkeypatch.setattr(model, "segments_per_resource", forbidden)
    # Module globals shadow the builtins: no min or max call per pair.
    monkeypatch.setattr(metrics, "min", forbidden, raising=False)
    monkeypatch.setattr(metrics, "max", forbidden, raising=False)
    assert [summarize(log) for log in chosen] == expected
    assert sum(report.counts.pairs_overlapped for report in expected) > 0


def test_summarize_builds_no_pair_object(logs, crowded_logs, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a pair object or overlap() call was made")

    chosen = logs[:50] + crowded_logs[-2:]
    expected = [summarize_by_pair_objects(log) for log in chosen]
    monkeypatch.setattr(metrics, "PairOverlap", forbidden)
    monkeypatch.setattr(metrics, "overlap", forbidden)
    assert [summarize(log) for log in chosen] == expected
    assert sum(report.counts.pairs_overlapped for report in expected) > 0


def test_adjacent_pairs_match_rescan(logs, tie_logs):
    found = 0
    for log in logs + tie_logs:
        for segment in segments_per_resource(log):
            actual = find_adjacent_pairs(segment)
            expected = adjacent_pairs_by_rescan(segment)
            assert [(a.id, b.id) for a, b in actual] == [
                (a.id, b.id) for a, b in expected
            ]
            found += len(actual)
    assert found > LOGS


def test_coalesced_log_is_already_valid(logs):
    for log in logs:
        coalesced = adjust_log(log).coalesced
        assert validate_log(coalesced.items) == coalesced


@pytest.mark.parametrize("percentage", [0, 0.1, 0.5, 1])
def test_injected_log_is_already_valid(logs, percentage):
    shifted = 0
    for log in logs:
        out = inject(log, percentage)
        assert validate_log(out.items) == out
        shifted += out != log
    assert shifted == 0 if percentage == 0 else shifted > LOGS // 2


def test_virtual_clock_matches_share_sums(logs):
    # Equal CoalescedItems have equal exact ends, so equal duration_exact.
    for log in logs:
        assert adjust_log(log).coalesced_exact == coalesced_by_shares(log)


def test_virtual_clock_matches_share_sums_on_acceptance_corpus():
    rng = random.Random(20_16)  # the corpus of tests/test_acceptance.py
    for k in range(1000):
        log = make_log(
            random_segment_items(rng, max_items=8, t_max=200, tag=f"{k}-")
        )
        assert adjust_log(log).coalesced_exact == coalesced_by_shares(log)


def test_shares_are_built_on_first_access(logs):
    for log in logs:
        adjusted = adjust_log(log)
        assert "aux_by_resource" not in vars(adjusted)
        expected = shares_by_resource(log)
        assert adjusted.aux_by_resource == expected
        assert adjusted.aux_by_resource is adjusted.aux_by_resource
        ids = [share.id for share in adjusted.aux_items]
        assert ids == list(range(1, len(ids) + 1))


def test_adjust_and_aux_build_no_share(logs, tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a share was built")

    chosen = [log for log in logs if len(log) > 30][:10]
    monkeypatch.setattr(sweep, "AuxWorkItem", forbidden)
    for index, log in enumerate(chosen):
        adjust_log(log)
        write_csv(log, tmp_path / f"in{index}.csv")
        for command in ("adjust", "aux"):
            assert run([command, "--in", str(tmp_path / f"in{index}.csv"),
                        "--out", str(tmp_path / f"{command}{index}.csv")]) == 0
    monkeypatch.undo()

    for index in range(len(chosen)):
        log = read_csv(tmp_path / f"in{index}.csv")
        shares, parents = adjust_log(log).aux_items, log.by_id()
        with open(tmp_path / f"aux{index}.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert rows == [
            [str(s.id), str(s.parent_id), parents[s.parent_id].trace_id,
             parents[s.parent_id].activity, parents[s.parent_id].resource,
             format_timestamp(s.start), format_timestamp(s.end),
             str(round_half_up_ms(s.duration))]
            for s in shares
        ]


def test_sweep_views_equal_the_object_sweep(logs, crowded_logs, tie_logs,
                                           mixed_logs):
    # Full segments, so instantaneous items are swept too.
    for log in logs + crowded_logs + tie_logs + mixed_logs:
        for segment in segments_per_resource(log):
            points = build_time_points(segment)
            assert points == time_points_by_objects(segment)
            intervals = build_intervals(points)
            assert intervals == intervals_by_objects(points)
            assert build_aux_items(intervals, 7) == aux_items_by_objects(
                intervals, 7)
        assert format_adjustment_table(log) == adjustment_table_by_objects(log)


def test_aux_and_debug_table_build_no_point_or_interval(
        logs, crowded_logs, tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("a TimePoint or ActiveInterval was built")

    expected = []
    for index, log in enumerate(logs + crowded_logs):
        write_csv(log, tmp_path / f"in{index}.csv")
        read = read_csv(tmp_path / f"in{index}.csv")
        expected.append((aux_text_by_rows(read),
                         adjustment_table_by_objects(read),
                         shares_by_resource(read)))
    monkeypatch.setattr(sweep, "TimePoint", forbidden)
    monkeypatch.setattr(sweep, "ActiveInterval", forbidden)
    for index, (aux, table, shares) in enumerate(expected):
        source, out = tmp_path / f"in{index}.csv", tmp_path / "aux.csv"
        assert run(["aux", "--in", str(source), "--out", str(out),
                    "--debug-table"]) == 0
        assert out.read_bytes() == aux.encode("utf-8")
        assert capsys.readouterr().err == table + "\n"
        read = read_csv(source)
        assert format_adjustment_table(read) == table
        assert adjust_log(read).aux_by_resource == shares


def text_order_groups(log):
    """How many (trace id, start) groups hold both 10^k - 1 and 10^k."""
    groups = {}
    for item in log.items:
        groups.setdefault((item.trace_id, item.start), set()).add(item.id)
    return sum({10**k - 1, 10**k} <= ids
               for ids in groups.values() for k in range(1, 4))


@pytest.mark.parametrize("fmt", ["csv", "xes"])
def test_reads_give_the_order_of_validate_log(logs, tmp_path, fmt):
    # Read back, c1's twelve items share a start and hold ids 1-12, and
    # the last ten of c2's items share one and hold ids 96-105.
    straddling = make_log(
        [wi(f"a{k}", 0, 1 + k, trace="c1") for k in range(12)]
        + [wi(f"b{k}", 10 + k, 200, trace="c2") for k in range(83)]
        + [wi(f"c{k}", 100, 101 + k, trace="c2") for k in range(10)])
    path = tmp_path / f"log.{fmt}"
    write_log(straddling, None, path)
    read = read_log(path)
    assert text_order_groups(read) == 2
    assert [item.id for item in read.items[:4]] == [1, 10, 11, 12]
    assert read == model._ordered(read.items)
    groups = 0
    for log in logs:
        write_log(log, None, path)
        read = read_log(path)
        assert read == model._ordered(read.items)
        groups += text_order_groups(read)
    assert groups > 10


def rows_of(log):
    return [(item.trace_id, item.start, item.end, item.activity,
             item.resource) for item in log.items]


def spread_rows(trace, count):
    """Rows of one trace, each with its own start."""
    return [(trace, 1_000 + k, 2_000 + k, "spread", "R1")
            for k in range(count)]


def group_rows(trace, count):
    """Rows of one trace that share start 0."""
    return [(trace, 0, 1 + k, f"g{k}", "R2") for k in range(count)]


@pytest.mark.parametrize("rows, crossings", [
    (group_rows("c1", 12) + spread_rows("c2", 3), 1),  # 9|10
    (spread_rows("c1", 95) + group_rows("c2", 10), 1),  # 99|100
    (spread_rows("c1", 995) + group_rows("c2", 10), 1),  # 999|1000
    (group_rows("c1", 120), 2),  # 9|10 and 99|100 in one group
    (group_rows("c1", 12) + spread_rows("c1", 83) + group_rows("c2", 10), 2),
])
def test_assemble_equals_the_power_group_reference_across_10_k(rows,
                                                               crossings):
    rows = list(rows)
    random.Random(len(rows)).shuffle(rows)
    assembled = _assemble(list(rows))
    assert assembled == assemble_by_power_groups(rows)
    assert text_order_groups(assembled) == crossings
    assert assembled == model._ordered(assembled.items)


def test_assemble_equals_the_power_group_reference(logs):
    groups = 0
    for log in logs:
        assembled = _assemble(rows_of(log))
        assert assembled == assemble_by_power_groups(rows_of(log))
        groups += text_order_groups(assembled)
    assert groups > 10


@pytest.mark.parametrize("fmt", ["csv", "xes"])
def test_reads_sort_no_whole_log(logs, tmp_path, monkeypatch, fmt):
    def forbidden(*args, **kwargs):
        raise AssertionError("the read log was sorted whole")

    paths = []
    for index, log in enumerate(logs):
        paths.append(tmp_path / f"log{index}.{fmt}")
        write_log(log, None, paths[-1])
    expected = [assemble_by_power_groups(rows_of(read_log(path)))
                for path in paths]
    monkeypatch.setattr(model, "_ordered", forbidden)
    assert [read_log(path) for path in paths] == expected


@pytest.mark.parametrize("fmt", ["csv", "xes"])
def test_logs_read_back_pass_validation_unchanged(logs, tmp_path, fmt):
    # The readers are the only check on a file log: what they return must
    # be what validating it again would give.
    path = tmp_path / f"log.{fmt}"
    for log in logs:
        write_log(log, None, path)
        read = read_log(path)
        assert len(read) == len(log)
        assert validate_log(read.items) == read


def test_integer_clock_matches_share_sums_on_crowded_logs(crowded_logs):
    for log in crowded_logs:
        assert max(max(counts) for counts in live_counts(log)) >= 40
        adjusted = adjust_log(log)
        expected = coalesced_by_shares(log)
        assert adjusted.coalesced_exact == expected
        assert adjusted.coalesced.items == tuple(
            WorkItem(c.id, c.activity, c.resource, c.trace_id, c.start,
                     round_half_up_ms(c.end_exact))
            for c in expected
        )
    (counts,) = live_counts(crowded_logs[-1])
    assert max(counts) >= 200
    assert lcm(*counts).bit_length() >= 200


def test_adjust_builds_no_fraction(logs, crowded_logs, tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    chosen = [log for log in logs if len(log) > 30][:10] + crowded_logs[-2:]
    expected = [adjust_log(log).coalesced for log in chosen]
    for index, log in enumerate(chosen):
        write_csv(log, tmp_path / f"in{index}.csv")
    monkeypatch.setattr(sweep, "Fraction", forbidden)
    for index, (log, coalesced) in enumerate(zip(chosen, expected)):
        adjusted = adjust_log(log)
        assert adjusted.coalesced == coalesced
        with pytest.raises(AssertionError, match="Fraction"):
            adjusted.coalesced_exact
        assert run(["adjust", "--in", str(tmp_path / f"in{index}.csv"),
                    "--out", str(tmp_path / f"out{index}.csv")]) == 0


def test_exact_ends_are_built_on_first_access(logs):
    for log in logs:
        adjusted = adjust_log(log)
        assert "coalesced_exact" not in vars(adjusted)
        assert adjusted.coalesced_exact is adjusted.coalesced_exact
        assert "coalesced_exact" in vars(adjusted)


def test_items_whose_end_stays_are_the_input_objects(logs, crowded_logs,
                                                      mixed_logs):
    kept = moved = 0
    for log in logs + crowded_logs + mixed_logs:
        clean = clean_resources(log)
        for item, out in zip(log.items, adjust_log(log).coalesced.items):
            assert out.id == item.id
            assert (out is item) == (out.end == item.end)
            assert out is item or item.resource not in clean
            kept += out is item
            moved += out is not item
    assert kept > LOGS and moved > LOGS


def test_alone_holds_exactly_on_the_resources_without_a_clock(
        logs, crowded_logs, tie_logs, mixed_logs):
    # _alone of a resource's non-instants in start order, as _sweeps gives
    # them, against the object sweep and against the clock walk.
    alone = clocked = 0
    for log in logs + crowded_logs + tie_logs + mixed_logs:
        segments = segments_per_resource(log)
        held = {segment.resource for segment in segments if _alone(
            [item for item in segment.items if item.end > item.start])}
        assert held == clean_resources(log) == {
            resource for resource, _, spans, _ in _sweeps(log)
            if spans is not None}
        with_clock = {item.resource for item, _, _ in _advances(log)}
        assert held == {segment.resource for segment in segments} - with_clock
        alone, clocked = alone + len(held), clocked + len(with_clock)
    assert alone > LOGS and clocked > LOGS


def test_mixed_corpus_has_the_clean_shapes(mixed_logs):
    shapes = dict.fromkeys(("adjacent", "inside", "boundary", "lone"), 0)
    for log in mixed_logs:
        clean = clean_resources(log)
        assert clean and len(clean) < len(segments_per_resource(log))
        for segment in segments_per_resource(log):
            if segment.resource not in clean:
                continue
            spans = [(it.start, it.end) for it in segment.items
                     if it.end > it.start]
            starts, ends = {s for s, _ in spans}, {e for _, e in spans}
            shapes["adjacent"] += len(starts & ends)
            for instant in (it.start for it in segment.items
                            if it.start == it.end):
                inside = any(s < instant < e for s, e in spans)
                shapes["inside"] += inside
                shapes["boundary"] += instant in starts and instant in ends
                shapes["lone"] += not inside and instant not in starts | ends
    assert min(shapes.values()) > LOGS // 2, shapes


def test_adjust_equals_the_clock_on_every_resource(logs, crowded_logs,
                                                   tie_logs, mixed_logs):
    for log in logs + crowded_logs + tie_logs + mixed_logs:
        coalesced, exact = adjust_by_clock_on_every_resource(log)
        adjusted = adjust_log(log)
        assert adjusted.coalesced == coalesced
        assert adjusted.coalesced_exact == exact


def test_streaming_xes_reader_matches_tree_reader(logs, tmp_path):
    path = tmp_path / "log.xes"
    for log in logs:
        write_xes(log, path)
        log = read_xes(path)
        assert log == read_xes_tree(path) == read_xes_iterparse(path)
        assert log == read_xes_by_end_handler(path)


def events(activity="T1", start=0, end=10):
    return [xes_event(activity, "R1", "start", format_timestamp(start)),
            xes_event(activity, "R1", "complete", format_timestamp(end))]


def trace(name, body):
    named = f'<string key="concept:name" value="{name}"/>' if name else ""
    return f"<trace>{named}{''.join(body)}</trace>"


def document(*children, log_attrs=""):
    return f"<log {log_attrs}>{''.join(children)}</log>"


# Documents both readers read; a <trace> that is not a child of the root
# is not a trace, so the two nested shapes tell a reader that checks depth
# from one that takes every trace end event.
XES_DOCUMENTS = {
    "name after events": document(
        trace(None, events() + ['<string key="concept:name" value="late"/>']),
        trace("c2", events("T2"))),
    "unnamed traces": xes_text(
        [(None, events()), ("c1", events()), (None, events("T2", 5, 30))]),
    "trace inside another child": document(
        '<string key="x" value="y">' + trace(None, events("T9")) + "</string>",
        trace(None, events())),
    "trace inside a trace": document(
        trace(None, events() + [trace(None, events("T9", 3, 4))]),
        trace("c2", events("T2"))),
    "namespaced": xes_text(
        [("c1", events()), (None, events("T2"))],
        log_attrs='xmlns="http://www.xes-standard.org/"'),
    "extra attributes": document(
        '<trace id="7"><int key="cost" value="3"/><string value="no key"/>'
        + "".join(events()).replace(
            "<event>", '<event id="e"><string key="cost:total" value="12"/>')
        + '<string key="concept:name" value="c1"/></trace>'),
    "first name wins": document(
        trace("c1", events() + ['<string key="concept:name" value="c9"/>']),
        trace(None, ['<string key="concept:name"/>'] + events("T2")
              + ['<string key="concept:name" value="c8"/>'])),
    "log-level name first": document(
        '<string key="concept:name" value="the log"/>'
        '<global scope="trace"><string key="concept:name" value="g"/>'
        "</global>",
        trace(None, events()), trace(None, events("T2"))),
}


@pytest.mark.parametrize("name", XES_DOCUMENTS)
def test_streaming_xes_reader_matches_tree_reader_by_hand(name, tmp_path):
    path = tmp_path / "hand.xes"
    path.write_text(XES_DOCUMENTS[name], encoding="utf-8")
    log = read_xes(path)
    assert len(log) > 0
    assert log == read_xes_tree(path) == read_xes_iterparse(path)
    assert log == read_xes_by_end_handler(path)


EXTERNAL_ENTITY = '<!DOCTYPE log [<!ENTITY e SYSTEM "e.xml">]>'
BINARY_ENTITY = ('<!DOCTYPE log [<!NOTATION n SYSTEM "n">'
                 '<!ENTITY e SYSTEM "e.bin" NDATA n>]>')

# One document per error that TestReadXes in test_logio.py checks, the
# timestamp errors, and XML faults, each after a well-formed trace.  Plain
# expat skips the external entity and the undeclared one under an external
# DTD; ElementTree reports both as undefined.
XES_FAULTS = {
    "complete without start": xes_text([("c9", events()[1:])]),
    "start without complete": xes_text([("c9", events()[:1])]),
    "complete before start": xes_text([("c9", events(start=60, end=0))]),
    "empty activity": xes_text([("c9", events(activity=""))]),
    "empty resource": xes_text([("c9", [
        xes_event("T1", "", "start", format_timestamp(0))])]),
    "unknown transition": xes_text([("c1", [
        xes_event("T1", "R1", "resume", format_timestamp(5))])]),
    "broken xml": "<log><trace>",
    "generated name given later": xes_text(
        [(None, events()), ("trace-1", events())]),
    "given name generated later": xes_text(
        [("trace-2", events()), (None, events())]),
    "bad timestamp": xes_text([("c1", [
        xes_event("T1", "R1", "start", "noon")])]),
    "no timestamp": document(trace("c1", [
        events()[0].split("<date")[0] + "</event>"])),
    "mismatched tag": document(trace("c1", events()), "<trace></log>"),
    "junk after root": document(trace("c1", events())) + "<log/>",
    "empty file": "",
    "unclosed token": "<log>" + trace("c1", events()) + '<trace key="',
    "nul byte": document(trace("c1", events()), "\x00"),
    "undefined entity": document(trace("c1", events()), "&e;"),
    "declared external entity": EXTERNAL_ENTITY + document(
        trace("c1", events()), "\n  &e;"),
    "declared external entity, namespaced": EXTERNAL_ENTITY + document(
        trace("c1", events()), "&e;",
        log_attrs='xmlns="http://www.xes-standard.org/" xmlns:x="urn:x"'),
    "undeclared entity under an external DTD":
        '<!DOCTYPE log SYSTEM "log.dtd">'
        + document(trace("c1", events()), trace("c2", ["&e;"])),
    "binary entity in an attribute": BINARY_ENTITY + document(
        trace("c1", events()), trace("&e;", events())),
    "unbound prefix": document(trace("c1", events()), "<x:trace/>"),
    "UTF-16 declared on UTF-8 bytes":
        '<?xml version="1.0" encoding="UTF-16"?>'
        + document(trace("c1", events())),
}


@pytest.mark.parametrize("name", XES_FAULTS)
def test_xes_readers_raise_the_same_error(name, tmp_path):
    path = tmp_path / "bad.xes"
    path.write_text(XES_FAULTS[name], encoding="utf-8")
    messages = []
    for reader in (read_xes, read_xes_tree, read_xes_iterparse,
                   read_xes_by_end_handler):
        with pytest.raises(LogFormatError) as caught:
            reader(path)
        messages.append(str(caught.value))
    assert len(set(messages)) == 1, messages


# Name parts that CSV must quote (comma, quote, CR, LF, CRLF) or must
# keep as they are (a leading space, a non-ASCII letter).
NAME_PARTS = ("a", ",", '"', "\n", "\r", "\r\n", "é")


def quoted_name(rng):
    lead = " " if rng.random() < 0.25 else ""
    return lead + "".join(rng.choices(NAME_PARTS, k=rng.randint(1, 4)))


@pytest.fixture(scope="module")
def quoted_logs():
    rng = random.Random(4180)
    logs = []
    for _ in range(60):
        items = adversarial_items(rng, max_items=15)
        names = {}  # the same name in, the same name out
        for kind in ("trace_id", "activity", "resource"):
            for old in {getattr(item, kind) for item in items}:
                names[kind, old] = quoted_name(rng)
        logs.append(make_log([
            WorkItem(item.id, names["activity", item.activity],
                     names["resource", item.resource],
                     names["trace_id", item.trace_id], item.start, item.end)
            for item in items
        ]))
    return logs


def fields(log):
    return sorted((item.trace_id, item.activity, item.resource, item.start,
                   item.end) for item in log.items)


def test_csv_round_trips_names_that_need_quoting(quoted_logs, tmp_path):
    path = tmp_path / "log.csv"
    names = set()
    for log in quoted_logs:
        write_csv(log, path)
        assert fields(read_csv(path)) == fields(log)
        names.update(name for i in log.items
                     for name in (i.trace_id, i.activity, i.resource))
    for part in NAME_PARTS:
        assert any(part in name for name in names)
    assert any(name.startswith(" ") for name in names)


def test_aux_file_is_the_per_share_rows_byte_for_byte(quoted_logs, tmp_path):
    source, out = tmp_path / "in.csv", tmp_path / "aux.csv"
    rows = 0
    for log in quoted_logs:
        write_csv(log, source)
        assert run(["aux", "--in", str(source), "--out", str(out)]) == 0
        expected = aux_text_by_rows(read_csv(source))
        assert out.read_bytes() == expected.encode("utf-8")
        rows += len(list(csv.reader(io.StringIO(expected, newline=""))))
    assert rows > 1_000


def renamed(log, rename):
    return make_log([
        WorkItem(item.id, rename(item.activity), rename(item.resource),
                 rename(item.trace_id), item.start, item.end)
        for item in log.items
    ])


def with_one_quoted_name(log, field, char):
    """The log with one character to quote in one name of its last item."""
    *rest, last = log.items
    return make_log([*rest, replace(last, **{
        field: getattr(last, field) + char})])


def one_quoted_name_logs(logs):
    return [with_one_quoted_name(log, field, char)
            for log, (field, char) in zip(logs, (
                (field, char) for field in ("trace_id", "activity", "resource")
                for char in ',"\r\n'))]


def test_write_csv_is_the_csv_writer_byte_for_byte(logs, quoted_logs,
                                                   tmp_path):
    # Names joined bare must be what csv.writer writes: with no character
    # to quote, spaces at either end included, with many, and with one
    # character to quote in one name of the log.
    fast, reference = tmp_path / "fast.csv", tmp_path / "reference.csv"
    spaced = [renamed(log, lambda name: f" {name} ") for log in logs[:100]]
    quoted_and_spaced = [renamed(log, lambda name: f"{name} ")
                         for log in quoted_logs]
    for log in (logs + spaced + quoted_logs + quoted_and_spaced
                + one_quoted_name_logs(logs)):
        write_csv(log, fast)
        write_csv_by_writer(log, reference)
        assert fast.read_bytes() == reference.read_bytes()


# The characters XML attribute values escape, and ones they keep.
XML_NAME_PARTS = ("&", "<", ">", '"', "\t", "\r", "\n", "'", "é")


def test_write_xes_writes_the_reference_bytes(logs, mixed_logs, quoted_logs,
                                              tmp_path):
    # One escape per distinct name and the lines an item's two events
    # share rendered once must give the bytes of every event rendered in
    # full, each item's names escaped anew.
    fast, reference = tmp_path / "fast.xes", tmp_path / "reference.xes"
    rng = random.Random(1849)
    escaped = [renamed(log, lambda name: name + "".join(
        rng.choices(XML_NAME_PARTS, k=rng.randint(1, 3))))
        for log in logs[:100]]
    for log in logs + mixed_logs + quoted_logs + escaped:
        write_xes(log, fast)
        write_xes_by_item_escapes(log, reference)
        assert fast.read_bytes() == reference.read_bytes()
    assert all(part in fast.read_text(encoding="utf-8")
               for part in ("&amp;", "&lt;", "&gt;", "&quot;", "&#09;",
                            "&#13;", "&#10;", "'", "é"))


def test_write_xes_refuses_the_reference_s_first_name(logs, tmp_path):
    # Names are checked once per write and trace ids once per trace, yet
    # the refusal must name the item that writing every item's names in
    # log order meets first, with the first character of its trace id,
    # activity and resource that XML cannot carry.
    rng = random.Random(101)
    path = tmp_path / "bad.xes"
    refused = 0
    for log in logs[:150]:
        if not log.items:
            continue
        bad = {rng.choice(log.items).id for _ in range(rng.randint(1, 3))}
        log = make_log([
            replace(item, **{field: getattr(item, field) + rng.choice(
                NON_XML_CHARS) for field in rng.sample(
                    ("trace_id", "activity", "resource"), rng.randint(1, 2))})
            if item.id in bad else item for item in log.items])
        messages = []
        for writer in (write_xes, write_xes_by_item_escapes):
            with pytest.raises(ValueError) as caught:
                writer(log, path)
            assert not path.exists()
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        refused += 1
    assert refused > 100


def with_one_quoted_id(log, char):
    """The log with string ids, the id of its last share's parent ending in
    one character to quote."""
    quoted = adjust_log(log).aux_items[-1].parent_id
    return make_log([replace(item, id=f"{item.id}{char}" if item.id == quoted
                             else str(item.id)) for item in log.items])


def one_quoted_id_logs(logs):
    shared = [log for log in logs if adjust_log(log).aux_items]
    return [with_one_quoted_id(log, char)
            for log, char in zip(shared, ',"\r\n' * 10)]


def test_aux_quotes_the_one_name_that_needs_it(logs, tie_logs, mixed_logs,
                                               tmp_path):
    # Mixed logs take both paths of write_aux, one resource at a time.
    source, out = tmp_path / "in.csv", tmp_path / "aux.csv"
    for log in one_quoted_name_logs(logs) + one_quoted_name_logs(mixed_logs):
        write_csv(log, source)
        assert run(["aux", "--in", str(source), "--out", str(out)]) == 0
        assert out.read_bytes() == aux_text_by_rows(
            read_csv(source)).encode("utf-8")
    # A library log's ids may be strings, which csv.writer may quote.
    quoted_ids = one_quoted_id_logs(logs) + one_quoted_id_logs(mixed_logs)
    assert len(quoted_ids) == 80
    for log in quoted_ids + tie_logs + mixed_logs:
        write_aux(log, out)
        assert out.read_bytes() == aux_text_by_rows(log).encode("utf-8")


@pytest.mark.parametrize("percentage", [0, 0.1, 0.3, 0.5, 0.7, 1.0])
def test_integer_deltas_equal_the_fraction_planner(logs, percentage):
    planned = 0
    for log in logs:
        plan = plan_shifts(log, percentage)
        assert plan == plan_shifts_by_fractions(log, percentage)
        planned += len(plan.pairs)
    assert planned > 100


# The package exports the function inject under the module's name.
inject_module = importlib.import_module("sweeplog.inject")
SHIFTS = (0, 0.05, 0.1, 0.3, 0.5, 0.7, 1.0)


def reordered(before, after):
    return [item.id for item in before] != [item.id for item in after]


def test_inject_equals_the_full_sort_reference(logs, crowded_logs):
    moved = 0
    for percentage in SHIFTS:
        for log in logs + crowded_logs:
            injected = inject(log, percentage)
            assert injected == inject_by_full_sort(log, percentage)
            moved += reordered(log, injected)
    assert moved > LOGS  # many cases take the block re-sort


def test_inject_reorders_a_trace_across_ids_9_and_10():
    # Item 10 is shifted back to item 9's start in trace t1, where "10"
    # sorts before "9"; item 8 passes item 12 in trace t2 by its start.
    log = make_log([
        wi(1, 95, 100, trace="t0"), wi(10, 100, 110, trace="t1"),
        wi(9, 95, 120, resource="R2", trace="t1"),
        wi(11, 200, 210, trace="t3"), wi(8, 210, 230, trace="t2"),
        wi(12, 205, 240, resource="R2", trace="t2"),
    ])
    assert log.trace_index["t1"] == (9, 10)
    assert log.trace_index["t2"] == (12, 8)
    injected = inject(log, 0.5)
    assert injected == inject_by_full_sort(log, 0.5)
    assert injected.trace_index["t1"] == (10, 9)
    assert injected.trace_index["t2"] == (8, 12)
    assert validate_log(injected.items) == injected


def test_inject_builds_no_planned_shift_and_sorts_no_whole_log(
        logs, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a PlannedShift was built or the log re-sorted")

    expected = [inject_by_full_sort(log, 0.3) for log in logs]
    monkeypatch.setattr(inject_module, "PlannedShift", forbidden)
    monkeypatch.setattr(inject_module, "_ordered", forbidden, raising=False)
    monkeypatch.setattr(model, "_ordered", forbidden)
    injected = [inject(log, 0.3) for log in logs]
    assert injected == expected
    assert sum(map(reordered, logs, injected)) > 0


# 12 dates x 15 times x 10 fractions x 15 offsets: valid and invalid
# calendar and week dates, every time shape, hour 24, a non-ASCII
# separator, and with "2021-01-01" and "+01:00" or "+01:00.5" the four
# forms that 3.11+'s fromisoformat misreads (T1234567, T12:34:567, T12345
# and a fraction on an HH:MM offset).
STAMP_DATES = ("2021-01-01", "20210101", "2021-W01", "2021W015", "2020-W53-7",
               "2021-W53-1", "2021-W01-0", "2021-0101", "2021W01-5",
               "2021-02-30", "2024-02-29", "0001-01-01")
STAMP_TIMES = ("", " 08", "T0815", "T08:15", "T081530", "T08:15:30",
               "T08:1530", "T24:00", "T24:00:00", "T12345", "T1234567",
               "T12:34:567", "T12:34:56", "T23:59:59", "\u00e90815")
STAMP_FRACTIONS = ("", ".5", ",5", ".1234567", ".", ".1x", ".0004999",
                   ".9999995", ",000", ".0015")
STAMP_OFFSETS = ("", "+00:00", "+01", "-0530", "+01:00:30.5", "+010030,25",
                 "+1", "+24:00", "+01:00.5", "+01:00", "Z", "z", "-00:00",
                 "+0100.5", "-23:59:59.999999")


def outcome(parse, text):
    """What ``parse`` makes of ``text``: the value and, for an instant, its
    UTC offset, or ``ValueError`` (``LogFormatError`` is one)."""
    try:
        value = parse(text)
    except ValueError:
        return ValueError
    offset = value.utcoffset() if isinstance(value, datetime) else None
    return value, offset


def test_iso_8601_grammar_with_fromisoformat_equals_the_group_converter():
    stamps = ["".join(parts) for parts in product(
        STAMP_DATES, STAMP_TIMES, STAMP_FRACTIONS, STAMP_OFFSETS)]
    assert len(set(stamps)) == 27_000
    for misread in ("2021-01-01T1234567+01:00", "2021-01-01T12:34:567+01:00",
                    "2021-01-01T12345+01:00", "2021-01-01T12:34:56+01:00.5"):
        assert misread in stamps
    read = 0
    for text in stamps:
        expected = outcome(parse_iso_8601_by_groups, text)
        assert outcome(_parse_iso_8601, text) == expected, text
        ms = outcome(parse_timestamp_by_groups, text)
        assert outcome(parse_timestamp, text) == ms, text
        read += ms is not ValueError
    assert read > 2_000  # the corpus is not all refusals


def refuses(change):
    try:
        change()
    except FrozenInstanceError:
        return True
    return False


def test_slotted_work_item_equals_the_dict_reference(logs, crowded_logs,
                                                     tie_logs):
    names = [field.name for field in dataclasses.fields(WorkItem)]
    assert names == [field.name for field in dataclasses.fields(
        WorkItemByDict)]
    assert list(inspect.signature(WorkItem).parameters) == names
    values_of = attrgetter(*names)
    rows = [values_of(item)
            for log in logs + crowded_logs + tie_logs for item in log]
    assert len(rows) > 10_000
    news = [WorkItem(*values) for values in rows]
    olds = [WorkItemByDict(*values) for values in rows]
    for new, old, values in zip(news, olds, rows):
        assert new == WorkItem(**dict(zip(names, values)))
        assert repr(new) == "WorkItem" + repr(old).removeprefix(
            "WorkItemByDict")
        assert astuple(new) == astuple(old) == values
        assert (hash(new), new.duration) == (hash(old), old.duration)
        moved = replace(new, end=new.end + 1)
        assert type(moved) is WorkItem
        assert values_of(moved) == values_of(replace(old, end=old.end + 1))
        again = copy.copy(new)
        assert type(again) is WorkItem and again == new
        assert values_of(again) == values_of(copy.copy(old))
        assert all(refuses(lambda: setattr(item, name, None))
                   and refuses(lambda: delattr(item, name))
                   for item in (new, old) for name in names)
    unpickled = pickle.loads(pickle.dumps(news))
    assert all(type(new) is WorkItem for new in unpickled)
    assert unpickled == news
    assert list(map(values_of, unpickled)) == list(map(
        values_of, pickle.loads(pickle.dumps(olds))))
    assert vars(olds[0]) == dict(zip(names, rows[0]))
    with pytest.raises(TypeError):  # the one change: no __dict__
        vars(news[0])
