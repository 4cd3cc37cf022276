import builtins
import csv
import io
import json
import subprocess
import sys
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest

from sweeplog import cli, logio, model
from sweeplog.cli import main, run
from sweeplog.logio import (
    format_timestamp,
    read_csv,
    read_log,
    read_xes,
    report_to_json,
    write_log,
)
from sweeplog.metrics import summarize
from sweeplog.sweep import format_adjustment_table

from helpers import FOUR_TASK_CSV, xes_event

MINUTE = 60_000

CLEAN_CSV = """\
case_id,activity,resource,start_timestamp,end_timestamp
c1,T1,R1,2020-01-01T08:00:00Z,2020-01-01T09:00:00Z
c1,T2,R1,2020-01-01T09:00:00Z,2020-01-01T10:00:00Z
c2,T1,R2,2020-01-01T08:00:00Z,2020-01-01T09:00:00Z
c2,T2,R2,2020-01-01T09:00:00Z,2020-01-01T10:00:00Z
"""


@pytest.fixture
def four_csv(tmp_path):
    path = tmp_path / "four.csv"
    path.write_text(FOUR_TASK_CSV, encoding="utf-8")
    return path


@pytest.fixture
def clean_csv(tmp_path):
    path = tmp_path / "clean.csv"
    path.write_text(CLEAN_CSV, encoding="utf-8")
    return path


class TestAdjust:
    def test_writes_coalesced_log(self, four_csv, tmp_path):
        out = tmp_path / "adjusted.csv"
        assert run(["adjust", "--in", str(four_csv), "--out", str(out)]) == 0
        adjusted = read_csv(out)
        total = sum(item.duration for item in adjusted.items)
        assert total == 150 * MINUTE

    def test_debug_table_on_stderr(self, four_csv, tmp_path, capsys):
        out = tmp_path / "adjusted.csv"
        code = run(
            ["adjust", "--in", str(four_csv), "--out", str(out),
             "--debug-table"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "intervals" in captured.err
        assert captured.out == ""

    def test_xes_output_by_extension(self, four_csv, tmp_path):
        out = tmp_path / "adjusted.xes"
        assert run(["adjust", "--in", str(four_csv), "--out", str(out)]) == 0
        adjusted = read_xes(out)
        assert len(adjusted) == 4

    def test_xes_refuses_a_character_xml_cannot_carry(self, tmp_path,
                                                      capsys):
        source = tmp_path / "ctl.csv"
        source.write_text(CLEAN_CSV.replace("c2,T1", "c2,T\x01"),
                          encoding="utf-8")
        out = tmp_path / "ctl.xes"
        assert run(["adjust", "--in", str(source), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "'c2'" in err and "'\\x01'" in err
        assert not out.exists()

    def test_missing_input_is_an_io_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run(["adjust", "--in", str(tmp_path / "nope.csv"),
                    "--out", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestAux:
    def test_share_table_rows(self, four_csv, tmp_path):
        out = tmp_path / "aux.csv"
        assert run(["aux", "--in", str(four_csv), "--out", str(out)]) == 0
        with out.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 12
        assert [row["aux_id"] for row in rows] == [
            str(n) for n in range(1, 13)
        ]
        by_parent = {}
        for row in rows:
            by_parent.setdefault(row["parent_id"], 0)
            by_parent[row["parent_id"]] += int(row["duration_ms"])
        # 12 shares over 4 parents; per-parent sums in minutes: 76.67,
        # 32.5, 29.17, 11.67 (rounded per share on output)
        assert len(by_parent) == 4
        assert sum(by_parent.values()) == pytest.approx(
            150 * MINUTE, abs=4
        )

    def test_debug_table_on_stderr_leaves_the_table(self, four_csv, tmp_path,
                                                   capsys):
        plain, debug = tmp_path / "plain.csv", tmp_path / "debug.csv"
        assert run(["aux", "--in", str(four_csv), "--out", str(plain)]) == 0
        capsys.readouterr()
        assert run(["aux", "--in", str(four_csv), "--out", str(debug),
                    "--debug-table"]) == 0
        captured = capsys.readouterr()
        table = format_adjustment_table(read_csv(four_csv))
        assert captured.err == table + "\n"
        assert captured.out == ""
        assert debug.read_bytes() == plain.read_bytes()

    def test_nested_log_in_bounded_memory(self, tmp_path):
        # Item k spans [k, 2000 - k) s on one resource, so the cuts hold a
        # million live ids in all; listing them peaked at 9.3 MB, streaming
        # them at 1.1 MB (Python 3.11).
        source, out = tmp_path / "nested.csv", tmp_path / "aux.csv"
        source.write_text(
            "case_id,activity,resource,start_timestamp,end_timestamp\n"
            + "".join(f"c{k},T,R1,{format_timestamp(k * 1_000)},"
                      f"{format_timestamp((2_000 - k) * 1_000)}\n"
                      for k in range(1_000)), encoding="utf-8")
        tracemalloc.start()
        try:
            assert run(["aux", "--in", str(source), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        with out.open(newline="", encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == 1 + 1_000_000


class TestMetrics:
    def test_stdout_report(self, clean_csv, capsys):
        assert run(["metrics", "--in", str(clean_csv)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mtli"] == 0
        assert data["mtwii.defined"] is False

    def test_report_file(self, four_csv, tmp_path):
        report_path = tmp_path / "report.json"
        assert run(
            ["metrics", "--in", str(four_csv), "--report", str(report_path)]
        ) == 0
        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert data["mtwii"] == pytest.approx(0.367133, abs=5e-7)

    def test_stdout_and_file_carry_the_same_text(self, four_csv, tmp_path,
                                                 capsys):
        report_path = tmp_path / "report.json"
        assert run(["metrics", "--in", str(four_csv)]) == 0
        printed = capsys.readouterr().out
        assert run(
            ["metrics", "--in", str(four_csv), "--report", str(report_path)]
        ) == 0
        assert report_path.read_text(encoding="utf-8") == printed
        assert printed == report_to_json(summarize(read_csv(four_csv))) + "\n"


class TestInject:
    def test_inject_then_metrics(self, clean_csv, tmp_path, capsys):
        shifted = tmp_path / "shifted.csv"
        assert run(
            ["inject", "--in", str(clean_csv), "--shift", "0.05",
             "--out", str(shifted)]
        ) == 0
        assert run(["metrics", "--in", str(shifted)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mtwii"] == pytest.approx(0.05, abs=1e-6)
        assert data["mtwii.defined"] is True

    def test_shift_required(self, clean_csv, tmp_path):
        code = run(
            ["inject", "--in", str(clean_csv),
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_shift_out_of_range(self, clean_csv, tmp_path, capsys):
        code = run(
            ["inject", "--in", str(clean_csv), "--shift", "1.5",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "percentage" in capsys.readouterr().err

    def test_pipeline_inject_adjust_metrics(self, clean_csv, tmp_path,
                                            capsys):
        shifted = tmp_path / "shifted.xes"
        adjusted = tmp_path / "adjusted.csv"
        assert run(
            ["inject", "--in", str(clean_csv), "--shift", "0.25",
             "--out", str(shifted)]
        ) == 0
        assert run(
            ["adjust", "--in", str(shifted), "--out", str(adjusted)]
        ) == 0
        assert run(["metrics", "--in", str(adjusted)]) == 0
        json.loads(capsys.readouterr().out)
        # after a 15-minute shift each resource spans 08:00 to 09:45
        log = read_csv(adjusted)
        for resource in ("R1", "R2"):
            busy = sum(
                item.duration for item in log.items
                if item.resource == resource
            )
            assert busy == 105 * MINUTE


class TestUsage:
    def test_no_arguments(self):
        assert run([]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_unknown_extension_needs_format(self, tmp_path, capsys):
        path = tmp_path / "log.txt"
        path.write_text("x", encoding="utf-8")
        code = run(["metrics", "--in", str(path)])
        assert code == 1
        assert "format" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "adjust" in capsys.readouterr().out

    @pytest.mark.parametrize("missing", ["--in", "--out"])
    def test_adjust_needs_in_and_out(self, clean_csv, tmp_path, missing):
        given = {"--in": str(clean_csv), "--out": str(tmp_path / "out.csv")}
        del given[missing]
        assert run(["adjust", *chain.from_iterable(given.items())]) == 2

    def test_an_unknown_format_is_a_usage_error(self, clean_csv, capsys):
        assert run(["metrics", "--in", str(clean_csv), "--format",
                    "json"]) == 2
        assert "invalid choice: 'json'" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["out in a missing directory",
                                       "in names a directory"])
    def test_a_path_it_cannot_open_is_an_io_error(self, clean_csv, tmp_path,
                                                 capsys, fault):
        source, out = clean_csv, tmp_path / "missing" / "out.csv"
        if fault == "in names a directory":
            source, out = tmp_path / "logs.csv", tmp_path / "out.csv"
            source.mkdir()
        assert run(["adjust", "--in", str(source), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sweeplog: error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()


class TestFormatOverride:
    def test_format_flag_beats_extension(self, tmp_path):
        # CSV content stored under an .xes name still parses with --format
        path = tmp_path / "mislabeled.xes"
        path.write_text(CLEAN_CSV, encoding="utf-8")
        out = tmp_path / "out.csv"

        assert run(["adjust", "--in", str(path), "--out", str(out)]) == 1
        assert run(
            ["adjust", "--in", str(path), "--format", "csv",
             "--out", str(out)]
        ) == 0
        assert len(read_csv(out)) == 4


class TestMain:
    @pytest.mark.parametrize("name, status", [("clean.csv", 0),
                                              ("absent.csv", 1)])
    def test_exits_with_the_run_status(self, clean_csv, monkeypatch, capsys,
                                       name, status):
        path = clean_csv.parent / name
        monkeypatch.setattr(sys, "argv", ["sweeplog", "metrics", "--in",
                                          str(path)])
        with pytest.raises(SystemExit) as exited:
            main()
        assert exited.value.code == status
        assert run(["metrics", "--in", str(path)]) == status

    def test_the_module_runs_as_a_script(self, clean_csv):
        done = subprocess.run(
            [sys.executable, "-m", "sweeplog.cli", "metrics", "--in",
             str(clean_csv)], capture_output=True, text=True,
            cwd=Path(cli.__file__).parents[1])
        report = report_to_json(summarize(read_csv(clean_csv)))
        assert (done.returncode, done.stdout, done.stderr) == (
            0, report + "\n", "")


class TestReadersAreTheOnlyCheck:
    def test_no_path_calls_validate_log(self, four_csv, tmp_path,
                                        monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("validate_log called on a file log")

        original = model.validate_log
        bound = []
        for name, module in list(sys.modules.items()):
            if name == "sweeplog" or name.startswith("sweeplog."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
                        bound.append(f"{name}.{attr}")
        assert "sweeplog.model.validate_log" in bound

        log = read_log(four_csv)
        four_xes = tmp_path / "four.xes"
        write_log(log, None, four_xes)
        assert read_log(four_xes) == log
        for source in (four_csv, four_xes):
            for argv in (["adjust", "--out", str(tmp_path / "a.csv")],
                         ["aux", "--out", str(tmp_path / "aux.csv")],
                         ["metrics"],
                         ["inject", "--shift", "0.1",
                          "--out", str(tmp_path / "i.xes")]):
                assert run([*argv, "--in", str(source)]) == 0


class TestOneRead:
    @pytest.mark.parametrize("argv, tables", [
        ("adjust --out {tmp}/a.csv", 0),
        ("adjust --out {tmp}/a.csv --debug-table", 1),
        ("aux --out {tmp}/aux.csv", 0),
        ("aux --out {tmp}/aux.csv --debug-table", 1),
        ("metrics", 0),
        ("metrics --report {tmp}/r.json", 0),
        ("inject --shift 0.5 --out {tmp}/i.csv", 0),
    ])
    def test_each_run_reads_the_log_once(self, four_csv, tmp_path,
                                         monkeypatch, capsys, argv, tables):
        calls = {}

        def counted(module, name):
            function = getattr(module, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return function(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "read_log")
        counted(logio, "read_csv")
        counted(cli, "format_adjustment_table")
        command, *rest = argv.format(tmp=tmp_path).split()
        assert run([command, "--in", str(four_csv), *rest]) == 0
        assert calls == {"read_log": 1, "read_csv": 1,
                         **({"format_adjustment_table": 1} if tables else {})}
        assert ("intervals" in capsys.readouterr().err) == bool(tables)


def one_error_line(capsys) -> str:
    """The one stderr line of a failed run."""
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sweeplog: error: ")
    assert captured.out == ""
    return lines[0]


class TestFaultsInTheInput:
    """Input faults end in one error line, exit 1 and no output file."""

    @pytest.mark.parametrize("command", ["adjust", "aux", "inject --shift 0"])
    def test_instant_outside_years_1_to_9999(self, tmp_path, capsys,
                                             command):
        source = Path(__file__).parent / "data" / "out_of_range.csv"
        out = tmp_path / "out.csv"
        assert run([*command.split(), "--in", str(source),
                    "--out", str(out)]) == 1
        assert one_error_line(capsys).endswith(
            "out_of_range.csv: line 3: column end_timestamp: timestamp "
            "'9999-12-31T23:10:00.000-01:00' is outside years 1-9999 UTC")
        assert not out.exists()

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:10:00.000+01:00",
                                       "0001-01-01T00:00:00.000+00:01",
                                       "9999-12-31T23:10:00.000-01:00",
                                       "9999-12-31T23:59:59.9995Z"])
    def test_xes_instant_outside_years_1_to_9999(self, tmp_path, capsys,
                                                 stamp):
        source, out = tmp_path / "in.xes", tmp_path / "out.xes"
        source.write_text(
            '<log><trace><string key="concept:name" value="c1"/>'
            + xes_event("T1", "R1", "start", stamp)
            + xes_event("T1", "R1", "complete", stamp)
            + "</trace></log>", encoding="utf-8")
        assert run(["adjust", "--in", str(source), "--out", str(out)]) == 1
        assert one_error_line(capsys) == (
            f"sweeplog: error: {source}: trace 'c1', activity 'T1': "
            f"timestamp {stamp!r} is outside years 1-9999 UTC")
        assert not out.exists()

    def test_instants_at_the_bounds_are_written(self, tmp_path, capsys):
        source, out = tmp_path / "bounds.csv", tmp_path / "out.csv"
        source.write_text(
            "case_id,activity,resource,start_timestamp,end_timestamp\n"
            "c1,T1,R1,0001-01-01T01:00:00+01:00,0001-01-01T01:00:00Z\n"
            "c1,T2,R1,9999-12-31T23:00:00Z,9999-12-31T22:59:59.999-01:00\n",
            encoding="utf-8")
        for command in ("adjust", "aux"):
            assert run([command, "--in", str(source), "--out", str(out)]) == 0
            text = out.read_text(encoding="utf-8")
            assert "0001-01-01T00:00:00.000+00:00" in text
            assert "9999-12-31T23:59:59.999+00:00" in text
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("content", [b"", b"\xef\xbb\xbf"],
                             ids=["zero-bytes", "bom-only"])
    def test_empty_file(self, tmp_path, capsys, content):
        source = tmp_path / "empty.csv"
        source.write_bytes(content)
        assert run(["metrics", "--in", str(source)]) == 1
        assert one_error_line(capsys) == (
            f"sweeplog: error: {source}: empty file, expected a header")

    def test_field_over_the_csv_limit(self, tmp_path, capsys):
        # The limit is csv.field_size_limit(), 131,072 characters unless a
        # program sets it.
        source, out = tmp_path / "long.csv", tmp_path / "out.csv"
        source.write_text(
            "case_id,activity,resource,start_timestamp,end_timestamp\n"
            f"c1,{'x' * 140_000},R1,2020-01-01T00:00:00Z,"
            "2020-01-01T00:01:00Z\n", encoding="utf-8")
        for argv in (["metrics"], ["adjust", "--out", str(out)]):
            assert run([*argv, "--in", str(source)]) == 1
            assert one_error_line(capsys) == (
                f"sweeplog: error: {source}: line 2: field larger than "
                "field limit (131072)")
        assert not out.exists()


def test_checked_in_fixture_is_the_four_task_log(four_csv):
    # tests/data/four_tasks.csv is the input CI gives the installed script.
    fixture = Path(__file__).parent / "data" / "four_tasks.csv"
    assert read_csv(fixture) == read_csv(four_csv)


def test_checked_in_prom_export_is_the_four_task_log():
    # A ProM-style export: default namespace, globals, a classifier,
    # comments, CRLF, START/Complete, +02:00 stamps, a nested concept:name
    # inside an event and a trace named after its events.  CI compares the
    # installed script's output on it with the CSV fixture's.
    data = Path(__file__).parent / "data"
    assert b"\r\n" in (data / "four_tasks.prom.xes").read_bytes()
    assert read_xes(data / "four_tasks.prom.xes") == read_csv(
        data / "four_tasks.csv")


def test_an_unknown_xml_encoding_is_a_parse_failure(tmp_path, capsys):
    path = tmp_path / "bogus.xes"
    path.write_text("<?xml version='1.0' encoding='bogus'?><log/>",
                    encoding="utf-8")
    assert run(["metrics", "--in", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"sweeplog: error: {path}: XML parse failure: unknown encoding: "
        "bogus\n")


def test_checked_in_stamp_forms_are_the_four_task_log():
    # Every stamp in another accepted form: Z, z, +02:00, no offset, a
    # space separator, a "," fraction, no fraction and six fraction digits.
    # The first two take parse_timestamp's lookup, the other six its full
    # parser.  CI reads the file through the installed script.
    data = Path(__file__).parent / "data"
    text = (data / "four_tasks.stamps.csv").read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    stamps = [stamp for row in rows[1:] for stamp in row[3:]]
    assert len({stamp[10] + stamp[19:] for stamp in stamps}) == 8
    assert read_csv(data / "four_tasks.stamps.csv") == read_csv(
        data / "four_tasks.csv")


def test_checked_in_iso_stamps_take_the_grammar_path():
    # Basic and week dates, HHMM times, "," fractions, +0200, +00 and -0000
    # offsets: no stamp is in the written form or in _PLAIN_ISO's shape, so
    # each is read by _ISO_8601 and fromisoformat.  CI reads the file
    # through the installed script on every Python version it runs.
    data = Path(__file__).parent / "data"
    with (data / "four_tasks.iso.csv").open(newline="",
                                            encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    stamps = [stamp for row in rows[1:] for stamp in row[3:]]
    assert len(set(stamps)) == 8
    for stamp in stamps:
        cleaned = stamp[:-1] + "+00:00" if stamp.endswith("Z") else stamp
        assert stamp[23:] not in ("Z", "z", "+00:00"), stamp  # no lookup
        assert logio._PLAIN_ISO.fullmatch(cleaned) is None, stamp
        assert logio._ISO_8601.fullmatch(cleaned), stamp
    assert read_csv(data / "four_tasks.iso.csv") == read_csv(
        data / "four_tasks.csv")


@pytest.mark.parametrize("command, source, golden", [
    ("adjust", "four_tasks.csv", "four_tasks.adjusted.csv"),
    ("adjust", "four_tasks.prom.xes", "four_tasks.adjusted.csv"),
    ("adjust", "four_tasks.stamps.csv", "four_tasks.adjusted.csv"),
    ("adjust", "four_tasks.iso.csv", "four_tasks.adjusted.csv"),
    ("adjust", "thirds.csv", "thirds.adjusted.csv"),
    ("aux", "thirds.csv", "thirds.aux.csv"),
    # The paper's example: T1 and T2 share interval B (65 min), and T1, T3
    # and T4 share interval C (20 min).
    ("aux", "four_tasks.csv", "four_tasks.aux.csv"),
    ("aux", "four_tasks.prom.xes", "four_tasks.aux.csv"),
    ("aux", "four_tasks.iso.csv", "four_tasks.aux.csv"),
    ("aux", "four_tasks.stamps.csv", "four_tasks.aux.csv"),
    # Names with a comma, a quote, LF, CR and CRLF, as Python 3.13 writes
    # them; every version must write the same bytes.
    ("adjust", "quoted.csv", "quoted.adjusted.csv"),
    ("aux", "quoted.csv", "quoted.aux.csv"),
    # Eleven items of one trace share a start, so ids 10 and 11 sort
    # between 1 and 2 by text.
    ("adjust", "straddle.csv", "straddle.adjusted.csv"),
    # Adjacent pairs across traces on two resources, ids past 9, and a
    # shifted item that passes its trace predecessor.
    ("inject --shift 0.3", "chain.csv", "chain.injected.csv"),
    # Instants on other items' bounds on both resources: they get no share.
    ("aux", "ties.csv", "ties.aux.csv"),
    # The sweep's state, which --debug-table writes to stderr.
    ("adjust --debug-table", "four_tasks.csv", "four_tasks.debug.txt"),
    ("adjust --debug-table", "thirds.csv", "thirds.debug.txt"),
    ("adjust --debug-table", "quoted.csv", "quoted.debug.txt"),
    ("adjust --debug-table", "ties.csv", "ties.debug.txt"),
    ("aux --debug-table", "four_tasks.csv", "four_tasks.debug.txt"),
    ("aux --debug-table", "thirds.csv", "thirds.debug.txt"),
    ("aux --debug-table", "quoted.csv", "quoted.debug.txt"),
    ("aux --debug-table", "ties.csv", "ties.debug.txt"),
])
def test_outputs_match_the_checked_in_golden_files(tmp_path, capsys, command,
                                                   source, golden):
    # CI compares the installed script's output with the same files.
    data = Path(__file__).parent / "data"
    out = tmp_path / "out.csv"
    assert run([*command.split(), "--in", str(data / source),
                "--out", str(out)]) == 0
    if "--debug-table" in command:
        written = capsys.readouterr().err.encode("utf-8")
    else:
        written = out.read_bytes()
    assert written == (data / golden).read_bytes()


@pytest.mark.parametrize("name", ["four_tasks", "thirds", "ties"])
def test_reports_match_the_checked_in_golden_files(tmp_path, name):
    # CI compares the installed script's report with the same files.  In
    # ties.csv items share starts and ends, instants sit on other items'
    # bounds, items nest and touch, on two resources.
    data = Path(__file__).parent / "data"
    out = tmp_path / "report.json"
    assert run(["metrics", "--in", str(data / f"{name}.csv"),
                "--report", str(out)]) == 0
    assert out.read_bytes() == (data / f"{name}.report.json").read_bytes()


def test_carriage_return_in_an_xes_name_is_quoted_in_csv(tmp_path, capsys):
    source = tmp_path / "in.xes"
    source.write_text(
        '<log><trace><string key="concept:name" value="t1"/>'
        + "".join(xes_event("a&#13;b", "R1", transition,
                            f"2020-01-01T08:00:0{second}Z")
                  for transition, second in (("start", 0), ("complete", 5)))
        + "</trace></log>", encoding="utf-8")
    assert read_xes(source).items[0].activity == "a\rb"
    for command, fields in (("adjust", 5), ("aux", 8)):
        out = tmp_path / f"{command}.csv"
        assert run([command, "--in", str(source), "--out", str(out)]) == 0
        assert b',"a\rb",' in out.read_bytes()
        with out.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [len(row) for row in rows] == [fields, fields]
    assert run(["metrics", "--in", str(tmp_path / "adjust.csv")]) == 0
    assert read_csv(tmp_path / "adjust.csv") == read_xes(source)
    assert capsys.readouterr().err == ""


def test_every_writer_opens_its_file_without_newline_translation(
        tmp_path, four_csv, monkeypatch):
    # newline="" writes each "\n" as LF on every platform, so the written
    # bytes equal the golden files on Windows too.
    opened = []
    real_open = io.open

    def recorded(file, mode="r", buffering=-1, encoding=None, errors=None,
                 newline=None, closefd=True, opener=None):
        if "w" in mode:
            opened.append((Path(file).name, newline))
        return real_open(file, mode, buffering, encoding, errors, newline,
                         closefd, opener)

    monkeypatch.setattr(io, "open", recorded)  # Path.open calls io.open
    monkeypatch.setattr(builtins, "open", recorded)
    log = read_csv(four_csv)
    logio.write_csv(log, tmp_path / "log.csv")
    logio.write_xes(log, tmp_path / "log.xes")
    logio.write_report(summarize(log), tmp_path / "report.json")
    assert run(["aux", "--in", str(four_csv),
                "--out", str(tmp_path / "aux.csv")]) == 0
    assert sorted(opened) == [("aux.csv", ""), ("log.csv", ""),
                              ("log.xes", ""), ("report.json", "")]
