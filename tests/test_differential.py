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
The streaming XES reader is checked against the whole-tree reader it
replaced, on these logs written as XES and on hand-written documents.
"""

import csv
import random
from math import lcm

import pytest

from sweeplog import sweep
from sweeplog.cli import run
from sweeplog.inject import find_adjacent_pairs, inject
from sweeplog.logio import (
    LogFormatError,
    format_timestamp,
    read_csv,
    read_log,
    read_xes,
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
from sweeplog.sweep import adjust_log

from helpers import (
    adjacent_pairs_by_rescan,
    adversarial_items,
    coalesced_by_shares,
    make_log,
    mtli_by_double_loop,
    mtri_by_double_loop,
    mtri_overlapped_by_double_loop,
    mtwii_by_double_loop,
    overlapped_pairs_by_combinations,
    random_segment_items,
    read_xes_tree,
    shares_by_resource,
    wi,
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


def live_counts(log):
    return [
        {len(interval.active_ids) for interval in intervals}
        for _, _, intervals in sweep._swept_resources(log)
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


def test_overlapped_pairs_match_all_pairs(logs):
    for log in logs:
        for segment in segments_per_resource(log):
            actual = overlapped_pairs(segment)
            expected = overlapped_pairs_by_combinations(segment)
            assert len(actual) == len(expected)
            assert set(actual) == set(expected)


def test_per_resource_indexes_match_double_loop(logs):
    for log in logs:
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


def test_adjacent_pairs_match_rescan(logs):
    found = 0
    for log in logs:
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


def test_items_whose_end_stays_are_the_input_objects(logs, crowded_logs):
    kept = moved = 0
    for log in logs + crowded_logs:
        for item, out in zip(log.items, adjust_log(log).coalesced.items):
            assert out.id == item.id
            assert (out is item) == (out.end == item.end)
            kept += out is item
            moved += out is not item
    assert kept > LOGS and moved > LOGS


def test_streaming_xes_reader_matches_tree_reader(logs, tmp_path):
    path = tmp_path / "log.xes"
    for log in logs:
        write_xes(log, path)
        assert read_xes(path) == read_xes_tree(path)


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
    assert log == read_xes_tree(path)


# One document per error that TestReadXes in test_logio.py checks, plus
# the timestamp errors.
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
}


@pytest.mark.parametrize("name", XES_FAULTS)
def test_xes_readers_raise_the_same_error(name, tmp_path):
    path = tmp_path / "bad.xes"
    path.write_text(XES_FAULTS[name], encoding="utf-8")
    messages = []
    for reader in (read_xes, read_xes_tree):
        with pytest.raises(LogFormatError) as caught:
            reader(path)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
