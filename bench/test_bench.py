"""Tests of the benchmark itself: python -m pytest bench"""

import csv
import dataclasses
import json
from pathlib import Path

import pytest

import checks
import layers
import run
from workloads import WORKLOADS, format_ms, generate, parse_ms, write_log

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {
    "sparse_clean": dataclasses.replace(
        WORKLOADS["sparse_clean"], resources=20, items_per_resource=10),
    "dense_few": dataclasses.replace(
        WORKLOADS["dense_few"], resources=2, items_per_resource=60),
    "xes_moderate": dataclasses.replace(
        WORKLOADS["xes_moderate"], resources=10, items_per_resource=10),
}


@pytest.fixture(autouse=True)
def scratch_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def run_program(cmd, spec, tmp_path, extra=()):
    """Generate a small input and run one real subcommand on it."""
    cli = run.import_sweeplog()
    items = generate(spec, 7)
    source = tmp_path / f"input.{spec.fmt}"
    write_log(items, spec.fmt, source)
    out = tmp_path / f"out.{spec.fmt}"
    assert cli.run([cmd, "--in", str(source), "--out", str(out), *extra]) == 0
    return items, out


def rewrite_first_csv_row(path, change):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    change(rows[0])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    spec = SMALL[name]
    first, second, other = (tmp_path / f"{k}.{spec.fmt}" for k in "abc")
    write_log(generate(spec, 3), spec.fmt, first)
    write_log(generate(spec, 3), spec.fmt, second)
    write_log(generate(spec, 4), spec.fmt, other)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() != other.read_bytes()


def test_timestamps_carry_milliseconds():
    assert format_ms(1_609_459_200_347) == "2021-01-01T00:00:00.347Z"
    assert parse_ms("2021-01-01T00:00:00.347+00:00") == 1_609_459_200_347


def test_adjust_check_rejects_an_end_pushed_later(tmp_path):
    items, out = run_program("adjust", SMALL["dense_few"], tmp_path)
    assert checks.check_adjust(items, out, "csv") == []

    def push(row):
        row["end_timestamp"] = format_ms(parse_ms(row["end_timestamp"]) + 1_000)

    rewrite_first_csv_row(out, push)
    assert checks.check_adjust(items, out, "csv")


def test_inject_check_rejects_a_changed_duration(tmp_path):
    items, out = run_program(
        "inject", SMALL["sparse_clean"], tmp_path, ("--shift", "0.1"))
    assert checks.check_inject(items, out, "csv") == []

    def stretch(row):
        row["end_timestamp"] = format_ms(parse_ms(row["end_timestamp"]) + 1)

    rewrite_first_csv_row(out, stretch)
    assert checks.check_inject(items, out, "csv")


def test_xes_outputs_are_checked(tmp_path):
    items, out = run_program("adjust", SMALL["xes_moderate"], tmp_path)
    assert checks.check_adjust(items, out, "xes") == []


def test_overlapped_pair_count_matches_brute_force():
    items = generate(SMALL["dense_few"], 5)
    brute = sum(
        1
        for i, a in enumerate(items)
        for b in items[i + 1:]
        if a.resource == b.resource
        and min(a.end, b.end) - max(a.start, b.start) > 0
    )
    assert checks.overlapped_pair_count(items) == brute > 0


def smoke(capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace)],
        specs=SMALL,
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(name, capsys):
    result = smoke(capsys, name, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4 * (1 + run.MIN_ROUNDS)
    names = [metric["name"] for metric in BENCHMARK["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][n]["value"] > 0 for n in names)


def test_traced_run_prints_every_per_layer_metric_and_repeats_counts(capsys):
    first = smoke(capsys, "dense_few", 1)
    second = smoke(capsys, "dense_few", 1)
    names = [metric["name"] for metric in BENCHMARK["per_layer"]]
    assert first["correct"] and sorted(first["metrics"]) == sorted(names)
    for name in layers.COUNTS:
        assert first["metrics"][name] == second["metrics"][name]
    assert first["metrics"]["sweep.shares"]["value"] > 0
    assert first["metrics"]["metrics.pairs_overlapped"]["value"] > 0


def test_missing_program_is_an_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "nowhere")
    assert run.main(["--workload", "dense_few", "--seed", "1",
                     "--seconds", "0"], specs=SMALL) == 1
    assert capsys.readouterr().out == ""
