import csv
import gc
import io
import random
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone
from itertools import permutations, product
from pathlib import Path

import pytest

import sweeplog
from sweeplog import logio, model
from sweeplog.logio import (
    CSV_COLUMNS,
    FORMATS,
    LogFormatError,
    _csv_record,
    format_timestamp,
    infer_format,
    parse_timestamp,
    read_csv,
    read_log,
    read_xes,
    _hour_prefix,
    _parse_iso_8601,
    _parse_timestamp,
    report_to_dict,
    report_to_json,
    write_aux,
    write_csv,
    write_log,
    write_report,
    write_xes,
)
from sweeplog.metrics import MetricsReport, SummaryCounts, summarize
from sweeplog.sweep import adjust_log

from helpers import (FOUR_TASK_CSV, NON_XML_BY_CHAR_PRODUCTION, NON_XML_CHARS,
                     chain_log, make_log, read_xes_by_end_handler,
                     read_xes_iterparse, traced_peak, wi,
                     write_xes_by_item_escapes, xes_event, xes_text)

MINUTE = 60_000
# 0001-01-01T00:00:00.000 and 9999-12-31T23:59:59.999, in epoch ms.
FIRST_MS = -62_135_596_800_000
LAST_MS = 253_402_300_799_999


def stamp(minutes: float) -> str:
    return format_timestamp(round(minutes * MINUTE))


class TestTimestamps:
    def test_parse_offset_and_z_agree(self):
        assert parse_timestamp("2016-04-01T09:00:00+00:00") == parse_timestamp(
            "2016-04-01T09:00:00Z"
        )

    def test_naive_read_as_utc(self):
        assert parse_timestamp("2016-04-01T09:00:00") == parse_timestamp(
            "2016-04-01T09:00:00Z"
        )

    def test_fractional_seconds(self):
        base = parse_timestamp("2016-04-01T09:00:00Z")
        assert parse_timestamp("2016-04-01T09:00:00.250Z") == base + 250

    def test_sub_millisecond_rounds_half_up(self):
        base = parse_timestamp("2016-04-01T09:00:00Z")
        assert parse_timestamp("2016-04-01T09:00:00.001500Z") == base + 2
        assert parse_timestamp("2016-04-01T09:00:00.001400Z") == base + 1

    # Python 3.10's fromisoformat reads only 3- or 6-digit fractions; every
    # version must read these as 3.11 does: truncate below 1 us, then round
    # half-up to the millisecond.
    @pytest.mark.parametrize(
        "fraction, ms",
        [(".5Z", 500), (".12Z", 120), (".1234567+00:00", 123),
         (".0004999Z", 0), (".9999999Z", 1000), (".0015Z", 2),
         (".5+02:00", 500 - 2 * 3_600_000)],
    )
    def test_any_fraction_length(self, fraction, ms):
        base = parse_timestamp("2021-01-01T08:15:00Z")
        assert parse_timestamp("2021-01-01T08:15:00" + fraction) == base + ms

    # Forms 3.11's fromisoformat reads and 3.10's does not: basic format,
    # comma decimal mark, HHMM, week date, offset without a colon.
    @pytest.mark.parametrize(
        "text, ms",
        [("20210101T081500Z", 1609488900000),
         ("2021-01-01T08:15:00,5Z", 1609488900500),
         ("2021-01-01T0815Z", 1609488900000),
         ("2021-W01-5T08:15:00Z", 1610093700000),
         ("2021-01-01T08:15:00.5+0100", 1609485300500)],
    )
    def test_iso_8601_forms_beyond_isoformat(self, text, ms):
        assert parse_timestamp(text) == ms

    # Python 3.10 reaches the fallback parser on each of the forms above;
    # 3.11+ never does, so it is compared with 3.11's parser directly,
    # malformed variants included.
    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="fromisoformat reads ISO 8601 from 3.11 on")
    def test_fallback_parser_matches_fromisoformat(self):
        dates = ("2021-01-01", "20210101", "2021-W01", "2021W015",
                 "2020-W53-7", "2021-W53-1", "2021-W01-0", "2021-0101",
                 "2021W01-5", "2021-02-30")
        times = ("", " 08", "T0815", "T08:15", "T081530", "T08:15:30",
                 "T08:1530", "T24:00")
        fractions = ("", ".5", ",5", ".1234567", ".", ".1x")
        offsets = ("", "+00:00", "+01", "-0530", "+01:00:30.5", "+010030,25",
                   "+1", "+24:00")
        for date, time, fraction, offset in product(dates, times, fractions,
                                                    offsets):
            if not time and (fraction or offset):
                continue
            text = date + time + fraction + offset
            try:
                expected = datetime.fromisoformat(text)
            except ValueError:
                with pytest.raises(ValueError):
                    _parse_iso_8601(text)
            else:
                actual = _parse_iso_8601(text)
                assert (actual, actual.utcoffset()) == (
                    expected, expected.utcoffset()), text

    # 3.11+'s C fromisoformat reads these as 12:34:56 (the first two),
    # 12:34 and an offset of 01:00:00.5; they are not ISO 8601.
    @pytest.mark.parametrize(
        "text",
        ["2021-01-01T1234567+01:00", "2021-01-01T12:34:567+01:00",
         "2021-01-01T12345+01:00", "2021-01-01T12:34:56+01:00.5"],
    )
    def test_misread_forms_rejected(self, text):
        with pytest.raises(LogFormatError):
            parse_timestamp(text)

    # On every Python version parse_timestamp reads exactly the strings the
    # fallback parser reads, as the same instant.
    def test_reads_exactly_the_fallback_language(self):
        dates = ("2021-01-01", "20210101", "2021-W01", "2021W015",
                 "2020-W53-7", "2021-W53-1", "2021-W01-0", "2021-0101",
                 "2021W01-5", "2021-02-30")
        times = ("", " 08", "T0815", "T08:15", "T081530", "T08:15:30",
                 "T08:1530", "T24:00", "T12345", "T1234567", "T12:34:567")
        fractions = ("", ".5", ",5", ".1234567", ".", ".1x")
        offsets = ("", "+00:00", "+01", "-0530", "+01:00:30.5", "+010030,25",
                   "+1", "+24:00", "+01:00.5")
        epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
        for date, time, fraction, offset in product(dates, times, fractions,
                                                    offsets):
            if not time and (fraction or offset):
                continue
            text = date + time + fraction + offset
            try:
                moment = _parse_iso_8601(text)
            except ValueError:
                with pytest.raises(LogFormatError):
                    parse_timestamp(text)
                continue
            if moment.tzinfo is None:
                moment = moment.replace(tzinfo=timezone.utc)
            micros = (moment - epoch) // timedelta(microseconds=1)
            assert parse_timestamp(text) == (micros + 500) // 1000, text

    def test_bad_fraction_rejected(self):
        with pytest.raises(LogFormatError):
            parse_timestamp("2021-01-01T08:15:00.12x")

    def test_nonzero_offset(self):
        assert parse_timestamp("2016-04-01T11:00:00+02:00") == parse_timestamp(
            "2016-04-01T09:00:00Z"
        )

    def test_format_round_trip(self):
        for ms in (0, 123, 1_459_501_200_000, 86_400_000 + 1):
            assert parse_timestamp(format_timestamp(ms)) == ms

    def test_garbage_rejected(self):
        with pytest.raises(LogFormatError):
            parse_timestamp("yesterday at noon")

    def test_format_matches_isoformat(self):
        epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
        edges = [FIRST_MS, LAST_MS, -1, 0, 1, 999, 1_000, 59_999, 60_000,
                 3_599_999, 3_600_000, 86_399_999, 86_400_000, -3_600_000,
                 -3_600_001, -86_400_000, -86_400_001,
                 946_684_799_999, 946_684_800_000,  # 1999 to 2000
                 951_782_399_999, 951_782_400_000]  # 2000-02-28 to 29
        rng = random.Random(1_000)
        sample = [rng.randint(FIRST_MS, LAST_MS) for _ in range(20_000)]
        for ms in edges + sample:
            expected = (epoch + timedelta(milliseconds=ms)).isoformat(
                timespec="milliseconds")
            assert format_timestamp(ms) == expected

    def test_format_keeps_a_bounded_cache_and_the_range(self):
        assert _hour_prefix.cache_info().maxsize is not None
        assert format_timestamp(FIRST_MS) == "0001-01-01T00:00:00.000+00:00"
        assert format_timestamp(LAST_MS) == "9999-12-31T23:59:59.999+00:00"
        for ms in (FIRST_MS - 1, LAST_MS + 1):
            with pytest.raises(OverflowError):
                format_timestamp(ms)


class TestInstantRange:
    """Instants must lie in years 1-9999 UTC, the range format_timestamp
    writes, whatever offset names them."""

    INSIDE = [("0001-01-01T00:00:00.000Z", FIRST_MS),
              ("0001-01-01T01:00:00.000+01:00", FIRST_MS),
              ("0001-01-01T00:00:00.0004Z", FIRST_MS),
              ("9999-12-31T23:59:59.999Z", LAST_MS),
              ("9999-12-31T22:59:59.999-01:00", LAST_MS),
              ("9999-12-31T23:59:59.9994Z", LAST_MS)]
    OUTSIDE = ["0001-01-01T00:10:00.000+01:00", "0001-01-01T00:00:00+00:01",
               "9999-12-31T23:10:00.000-01:00", "9999-12-31T23:59:59.9995Z"]

    @pytest.mark.parametrize("text, ms", INSIDE)
    def test_the_bounds_read(self, text, ms):
        assert parse_timestamp(text) == ms
        assert format_timestamp(ms)[:4] == text[:4]

    @pytest.mark.parametrize("text", OUTSIDE)
    def test_beyond_the_bounds_is_refused(self, text):
        with pytest.raises(LogFormatError) as refused:
            parse_timestamp(text)
        assert str(refused.value) == (
            f"timestamp {text!r} is outside years 1-9999 UTC")

    @pytest.mark.parametrize("row, column", [
        ("0001-01-01T00:10:00+01:00,2020-01-01T00:00:00Z", "start"),
        ("2020-01-01T00:00:00Z,9999-12-31T23:10:00-01:00", "end")])
    def test_csv_names_line_and_column(self, tmp_path, row, column):
        path = tmp_path / "range.csv"
        path.write_text(
            ",".join(CSV_COLUMNS) + "\n"
            + "c1,T1,R1,0001-01-01T00:00:00Z,9999-12-31T23:59:59.999Z\n"
            + f"c1,T2,R1,{row}\n", encoding="utf-8")
        with pytest.raises(LogFormatError, match=(
                f"line 3: column {column}_timestamp: timestamp '.*' is "
                "outside years 1-9999 UTC")):
            read_csv(path)

    def test_xes_names_trace_and_activity(self, tmp_path):
        for text in self.OUTSIDE:
            path = tmp_path / "range.xes"
            path.write_text(xes_text([("c1", [
                xes_event("T1", "R1", "start", "0001-01-01T00:00:00Z"),
                xes_event("T1", "R1", "complete", "9999-12-31T23:59:59.999Z"),
                xes_event("T2", "R1", "start", text),
                xes_event("T2", "R1", "complete", text)])]),
                encoding="utf-8")
            with pytest.raises(LogFormatError,
                               match="trace 'c1', activity 'T2': timestamp"):
                read_xes(path)

    def test_readers_and_validate_log_share_the_bounds(self):
        assert (model.FIRST_INSTANT, model.LAST_INSTANT) == (FIRST_MS, LAST_MS)

    def test_a_log_at_the_bounds_round_trips(self, tmp_path):
        log = make_log([wi(1, FIRST_MS, FIRST_MS + MINUTE),
                        wi(2, LAST_MS - MINUTE, LAST_MS)])
        for name, write, read in (("b.csv", write_csv, read_csv),
                                  ("b.xes", write_xes, read_xes)):
            write(log, tmp_path / name)
            assert read(tmp_path / name) == log


def outcome(parse, text):
    """What a parser gives: epoch ms, or the text of its LogFormatError."""
    try:
        return parse(text)
    except LogFormatError as exc:
        return f"LogFormatError: {exc}"


def assert_parsed_as_by_the_fallback(texts):
    for text in texts:
        assert outcome(parse_timestamp, text) == outcome(
            _parse_timestamp, text), text


class TestTimestampLookup:
    """parse_timestamp's table lookup against _parse_timestamp, the full
    parser it falls back to, which reads the language it always read."""

    OFFSETS = ("Z", "z", "+00:00", "-00:00", "+05:30", "-11:00", "")

    def test_seeded_stamps_of_every_year_and_offset(self):
        rng = random.Random(8601)
        texts = []
        for _ in range(4_000):
            canonical = format_timestamp(rng.randint(FIRST_MS, LAST_MS))
            texts += [canonical[:23] + offset for offset in self.OFFSETS]
        assert_parsed_as_by_the_fallback(texts)

    def test_calendar_edges(self):
        days = ["0001-01-01", "0001-12-31", "9999-01-01", "9999-12-31",
                "1970-01-01", "1969-12-31", "2000-02-29", "2024-02-29",
                "1900-02-29", "2023-02-29", "2100-02-29", "0004-02-29"]
        times = ["00:00:00.000", "23:59:59.999", "12:00:00.500"]
        assert_parsed_as_by_the_fallback(
            f"{day}T{time}{offset}" for day, time, offset
            in product(days, times, self.OFFSETS))
        assert parse_timestamp("9999-12-31T23:59:59.999Z") == LAST_MS
        assert parse_timestamp("0001-01-01T00:00:00.000z") == FIRST_MS
        with pytest.raises(LogFormatError):
            parse_timestamp("2023-02-29T12:00:00.000Z")

    def test_other_accepted_forms(self):
        prefixes = ["2021-03-04T", "2021-03-04t", "2021-03-04 ",
                    "2021-W09-4T", "2021W094T", "20210304T", "2021-W09T"]
        times = ["08:15:30.123", "08:15:30,123", "08:15:30,1234",
                 "08:15:30", "08:15", "081530.123"]
        texts = [prefix + time + offset for prefix, time, offset
                 in product(prefixes, times, self.OFFSETS)]
        assert_parsed_as_by_the_fallback(texts)
        read = [outcome(parse_timestamp, text) for text in texts]
        assert sum(isinstance(value, int) for value in read) > len(texts) / 2

    @pytest.mark.parametrize("text, valid", [
        ("2021-03-04T24:00:00.000Z", False),  # hour 24
        ("2021-03-04T23:60:00.000Z", False),  # minute 60
        ("2021-03-04T23:59:60.000Z", False),  # second 60
        ("2021-02-30T08:15:30.123Z", False),  # 30 February
        ("2021-03-04T8:15:30.123Z", False),  # a one-digit hour
        ("2021-03-04508:15:30.123Z", False),  # a digit for the T
        ("2021-03-04T08:15:30.1234Z", True),  # a fourth fraction digit
        ("2021-03-04T08:15:30.123+00:00 ", True),  # a trailing space
        (" 2021-03-04T08:15:30.123Z", True),  # a leading space
        ("\t2021-03-04T08:15:30.123z\n", True),
        ("2021-03-04T08:15:30.123ZZ", False),
        ("2021-03-04T08:15:30.123+00:000", False),
        ("2021-03-04T08:15:30.12aZ", False),
        ("2021-03-04T08:15:30:123Z", False),
        ("2021-03-04T08:15:30.123", True),
        ("2021-03-04T08:15:30.123Zulu", False),
        ("20240101xxT08:15:30.123Z", False),  # fromisoformat reads 20240101
        ("2024010112T08:15:30.123Z", False),  # and here too
        ("2021-W01-5T08:15:30.123Z", True),  # a week date
        ("2021-03-04 08:15:30.123Z", True),  # a space for the T
        ("2021-03-04x08:15:30.123Z", True),  # any other separator
        ("2021-03-04008:15:30.123Z", False),
        ("2021-02-29T08:15:30.123Z", False),  # 29 February in 2021
        ("0000-12-31T23:59:59.999Z", False),  # year 0
        ("2021-0\ud800-04T08:15:30.123Z", False),  # a lone surrogate
    ])
    def test_near_misses(self, text, valid):
        assert isinstance(outcome(parse_timestamp, text), int) == valid
        assert_parsed_as_by_the_fallback([text])

    def test_random_order_over_more_days_than_the_cache(self):
        # 15 years of stamps in random order: more days than a small cache
        # of days would keep.
        start = parse_timestamp("2010-01-01T00:00:00.000Z")
        span = 15 * 365 * 86_400_000
        rng = random.Random(15)
        texts = [format_timestamp(start + rng.randrange(span))
                 for _ in range(20_000)]
        assert [parse_timestamp(text) for text in texts] == [
            _parse_timestamp(text) for text in texts]

    def test_reading_a_file_parses_each_day_once(self, monkeypatch):
        # A table that missed would send a stamp to the full parser, and
        # the lookup reads each day itself.
        calls = []

        def counted(text):
            calls.append(text)
            return _parse_timestamp(text)

        monkeypatch.setattr(logio, "_parse_timestamp", counted)
        for value in vars(logio).values():  # no cache may hide a call
            getattr(value, "cache_clear", lambda: None)()
        fixture = Path(__file__).parent / "data" / "four_tasks.csv"
        log = read_csv(fixture)
        days = {format_timestamp(stamp)[:10]
                for item in log.items for stamp in (item.start, item.end)}
        assert len(log) == 4
        assert len(days) == 1
        assert calls == []


class TestReadCsv:
    def test_four_task_file(self, tmp_path):
        path = tmp_path / "four.csv"
        path.write_text(FOUR_TASK_CSV, encoding="utf-8")
        log = read_csv(path)
        assert len(log) == 4
        base = parse_timestamp("2016-04-01T09:00:00Z")
        spans = {
            (item.activity, item.start - base, item.end - base)
            for item in log.items
        }
        assert spans == {
            ("T1", 0, 130 * MINUTE),
            ("T2", 10 * MINUTE, 75 * MINUTE),
            ("T3", 95 * MINUTE, 150 * MINUTE),
            ("T4", 110 * MINUTE, 140 * MINUTE),
        }
        assert [item.id for item in log.items] == [1, 2, 3, 4]

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n", encoding="utf-8")
        assert len(read_csv(path)) == 0

    @pytest.mark.parametrize("content", [b"", b"\xef\xbb\xbf"],
                             ids=["zero-bytes", "bom-only"])
    def test_empty_file_expects_a_header(self, tmp_path, content):
        path = tmp_path / "empty.csv"
        path.write_bytes(content)
        with pytest.raises(LogFormatError) as caught:
            read_csv(path)
        assert str(caught.value) == f"{path}: empty file, expected a header"

    def test_header_case_insensitive(self, tmp_path):
        path = tmp_path / "caps.csv"
        path.write_text(
            "Case_ID,Activity,Resource,Start_Timestamp,End_Timestamp\n",
            encoding="utf-8",
        )
        assert len(read_csv(path)) == 0

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("who,what,when\n", encoding="utf-8")
        with pytest.raises(LogFormatError, match="header"):
            read_csv(path)

    def test_bad_timestamp_names_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(CSV_COLUMNS)
            + "\nc1,T1,R1,not-a-time,2016-04-01T09:00:00Z\n",
            encoding="utf-8",
        )
        with pytest.raises(LogFormatError, match="line 2.*start_timestamp"):
            read_csv(path)

    def test_end_before_start(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(CSV_COLUMNS)
            + "\nc1,T1,R1,2016-04-01T10:00:00Z,2016-04-01T09:00:00Z\n",
            encoding="utf-8",
        )
        with pytest.raises(LogFormatError, match="line 2"):
            read_csv(path)

    @pytest.mark.parametrize("activity, resource", [("T1", ""), ("", "R1")])
    def test_empty_activity_or_resource_names_line(self, tmp_path, activity,
                                                   resource):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(CSV_COLUMNS) + "\nc1,T1,R1,2016-04-01T09:00:00Z,"
            f"2016-04-01T10:00:00Z\nc1,{activity},{resource},"
            "2016-04-01T10:00:00Z,2016-04-01T11:00:00Z\n",
            encoding="utf-8",
        )
        with pytest.raises(LogFormatError, match="line 3: empty activity"):
            read_csv(path)

    def test_empty_case_id_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(CSV_COLUMNS) + "\nc1,T1,R1,2016-04-01T09:00:00Z,"
            "2016-04-01T10:00:00Z\n,T1,R1,2016-04-01T10:00:00Z,"
            "2016-04-01T11:00:00Z\n",
            encoding="utf-8",
        )
        with pytest.raises(LogFormatError, match="line 3: empty .*case_id"):
            read_csv(path)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        row = "c1,T1,R1,2016-04-01T09:00:00Z,2016-04-01T10:00:00Z\n"
        header = ",".join(CSV_COLUMNS) + "\n"
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text(header + row, encoding="utf-8")
        spaced.write_text(header + "\n" + row + "\n\n", encoding="utf-8")
        assert read_csv(spaced) == read_csv(plain)
        spaced.write_text(header + "\n" + row + "\nc1,T2,R1,noon,noon\n",
                          encoding="utf-8")
        with pytest.raises(LogFormatError, match="line 5: column start"):
            read_csv(spaced)

    def test_errors_name_physical_lines_after_a_multi_line_field(
            self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(CSV_COLUMNS) + "\n"
            + 'c1,"T\n1",R1,2016-04-01T09:00:00Z,2016-04-01T10:00:00Z\n'
            + "c1,T2,R1,noon,2016-04-01T10:00:00Z\n",
            encoding="utf-8",
        )
        with pytest.raises(LogFormatError, match="line 4: column start"):
            read_csv(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(CSV_COLUMNS) + "\nc1,T1,R1\n", encoding="utf-8"
        )
        with pytest.raises(LogFormatError, match="line 2"):
            read_csv(path)


    @pytest.mark.parametrize("where", ["header", "row"])
    def test_field_over_the_csv_limit_names_its_line(self, tmp_path, where):
        path = tmp_path / "long.csv"
        long_field = "x" * (csv.field_size_limit() + 1)
        header = ",".join(CSV_COLUMNS)
        row = "c1,T1,R1,2016-04-01T09:00:00Z,2016-04-01T10:00:00Z"
        lines = ({"header": [header[:-1] + long_field, row],
                  "row": [header, row, row.replace("T1", long_field)]})[where]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        line = 1 if where == "header" else 3
        with pytest.raises(LogFormatError) as refused:
            read_csv(path)
        assert str(refused.value) == (
            f"{path}: line {line}: field larger than field limit "
            f"({csv.field_size_limit()})")


class TestCsvRoundTrip:
    def test_read_write_read(self, tmp_path):
        source = tmp_path / "four.csv"
        source.write_text(FOUR_TASK_CSV, encoding="utf-8")
        log = read_csv(source)
        copy = tmp_path / "copy.csv"
        write_csv(log, copy)
        assert read_csv(copy) == log

    def test_serialization_is_stable(self, tmp_path):
        source = tmp_path / "four.csv"
        source.write_text(FOUR_TASK_CSV, encoding="utf-8")
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        write_csv(read_csv(source), first)
        write_csv(read_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_log_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(make_log([]), path)
        assert path.read_text(encoding="utf-8") == ",".join(CSV_COLUMNS) + "\n"

    def test_coalesced_ends_are_rounded_share_sums(self, tmp_path):
        source = tmp_path / "four.csv"
        source.write_text(FOUR_TASK_CSV, encoding="utf-8")
        log = read_csv(source)
        out = tmp_path / "adjusted.csv"
        write_csv(adjust_log(log).coalesced, out)
        reread = read_csv(out).by_id()
        by_activity = {item.activity: item for item in reread.values()}
        # share sums per item, in milliseconds: 230/3, 65/2, 175/6, 35/3 min
        assert by_activity["T1"].duration == 4_600_000
        assert by_activity["T2"].duration == 1_950_000
        assert by_activity["T3"].duration == 1_750_000
        assert by_activity["T4"].duration == 700_000


def rfc_4180_record(fields) -> str:
    """A record as Python 3.13's minimal quoting writes it: a field holding
    a comma, a quote, CR or LF is quoted, and so is a lone empty field."""
    if fields == [""]:
        return '""'
    return ",".join(
        '"' + field.replace('"', '""') + '"'
        if any(char in field for char in ',"\r\n') else field
        for field in fields)


class TestCsvQuoting:
    def test_record_quotes_as_python_3_13(self):
        rng = random.Random(4180)
        alphabet = 'ab,"\r\n \t\'é'
        for _ in range(20_000):
            fields = ["".join(rng.choices(alphabet, k=rng.randint(0, 5)))
                      for _ in range(rng.randint(1, 5))]
            expected = rfc_4180_record(fields)
            assert _csv_record(fields) == expected
            reread = next(csv.reader(io.StringIO(expected, newline="")))
            assert reread == fields
            if sys.version_info >= (3, 13):
                buffer = io.StringIO()
                csv.writer(buffer, lineterminator="\n").writerow(fields)
                assert buffer.getvalue() == expected + "\n"

    def test_fields_holding_cr_or_lf_are_quoted(self, tmp_path):
        log = make_log([
            wi(1, 0, 10, resource="R\r1", activity="a\rb", trace="c\r\n1"),
            wi(2, 5, 20, resource="R\r1", activity="x\ny", trace="c,2"),
        ])
        path = tmp_path / "log.csv"
        write_csv(log, path)
        assert path.read_bytes().decode("utf-8") == (
            ",".join(CSV_COLUMNS) + "\n"
            + f'"c\r\n1","a\rb","R\r1",{format_timestamp(0)},'
            f"{format_timestamp(10)}\n"
            + f'"c,2","x\ny","R\r1",{format_timestamp(5)},'
            f"{format_timestamp(20)}\n")
        assert [(i.trace_id, i.activity, i.resource)
                for i in read_csv(path).items] == [
            ("c\r\n1", "a\rb", "R\r1"), ("c,2", "x\ny", "R\r1")]


class TestReadXes:
    def test_single_pair(self, tmp_path):
        path = tmp_path / "one.xes"
        path.write_text(
            xes_text(
                [
                    (
                        "c1",
                        [
                            xes_event("T1", "R1", "start", stamp(0)),
                            xes_event("T1", "R1", "complete", stamp(130)),
                        ],
                    )
                ]
            ),
            encoding="utf-8",
        )
        log = read_xes(path)
        assert len(log) == 1
        item = log.items[0]
        assert (item.activity, item.resource, item.trace_id) == (
            "T1", "R1", "c1",
        )
        assert item.duration == 130 * MINUTE

    def test_fifo_pairing_minimizes_total_duration(self, tmp_path):
        # two interleaved starts of the same activity and resource, then
        # two completes: s1 s2 c1 c2
        times = [0, 10, 75, 130]
        path = tmp_path / "fifo.xes"
        path.write_text(
            xes_text(
                [
                    (
                        "c1",
                        [
                            xes_event("T1", "R1", "start", stamp(times[0])),
                            xes_event("T1", "R1", "start", stamp(times[1])),
                            xes_event("T1", "R1", "complete", stamp(times[2])),
                            xes_event("T1", "R1", "complete", stamp(times[3])),
                        ],
                    )
                ]
            ),
            encoding="utf-8",
        )
        log = read_xes(path)
        base = parse_timestamp(stamp(0))
        fused = sorted(
            ((i.start - base) // MINUTE, (i.end - base) // MINUTE)
            for i in log.items
        )
        assert fused == [(0, 75), (10, 130)]

        # oracle: among all valid assignments of completes to starts, the
        # FIFO choice reaches the minimal total duration
        starts, completes = times[:2], times[2:]
        totals = [
            sum(c - s for s, c in zip(starts, perm))
            for perm in permutations(completes)
            if all(c >= s for s, c in zip(starts, perm))
        ]
        fifo_total = sum(e - s for s, e in fused)
        assert fifo_total == min(totals)

    def test_complete_without_start(self, tmp_path):
        path = tmp_path / "bad.xes"
        path.write_text(
            xes_text(
                [("c9", [xes_event("T1", "R1", "complete", stamp(5))])]
            ),
            encoding="utf-8",
        )
        with pytest.raises(LogFormatError, match="c9.*T1"):
            read_xes(path)

    def test_start_without_complete(self, tmp_path):
        path = tmp_path / "bad.xes"
        path.write_text(
            xes_text([("c9", [xes_event("T1", "R1", "start", stamp(5))])]),
            encoding="utf-8",
        )
        with pytest.raises(LogFormatError, match="c9.*T1"):
            read_xes(path)

    def test_complete_before_start_names_trace_and_activity(self, tmp_path):
        path = tmp_path / "bad.xes"
        path.write_text(
            xes_text([("c9", [xes_event("T1", "R1", "start", stamp(60)),
                              xes_event("T1", "R1", "complete", stamp(0))])]),
            encoding="utf-8",
        )
        with pytest.raises(LogFormatError,
                           match="trace 'c9', activity 'T1': 'complete' prec"):
            read_xes(path)

    @pytest.mark.parametrize("activity, resource", [("T1", ""), ("", "R1")])
    def test_empty_name_or_resource_is_missing(self, tmp_path, activity,
                                               resource):
        path = tmp_path / "bad.xes"
        path.write_text(
            xes_text([("c9", [xes_event(activity, resource, "start", stamp(0)),
                              xes_event(activity, resource, "complete",
                                        stamp(5))])]),
            encoding="utf-8",
        )
        with pytest.raises(LogFormatError, match="c9.*event missing"):
            read_xes(path)

    def test_unknown_transition(self, tmp_path):
        path = tmp_path / "bad.xes"
        path.write_text(
            xes_text([("c1", [xes_event("T1", "R1", "resume", stamp(5))])]),
            encoding="utf-8",
        )
        with pytest.raises(LogFormatError, match="lifecycle"):
            read_xes(path)

    def test_broken_xml(self, tmp_path):
        path = tmp_path / "bad.xes"
        path.write_text("<log><trace>", encoding="utf-8")
        with pytest.raises(LogFormatError, match="parse"):
            read_xes(path)

    def test_namespaced_document(self, tmp_path):
        path = tmp_path / "ns.xes"
        path.write_text(
            xes_text(
                [
                    (
                        "c1",
                        [
                            xes_event("T1", "R1", "start", stamp(0)),
                            xes_event("T1", "R1", "complete", stamp(10)),
                        ],
                    )
                ],
                log_attrs='xmlns="http://www.xes-standard.org/"',
            ),
            encoding="utf-8",
        )
        assert len(read_xes(path)) == 1

    def test_unnamed_traces_get_generated_names(self, tmp_path):
        events = [
            xes_event("T1", "R1", "start", stamp(0)),
            xes_event("T1", "R1", "complete", stamp(10)),
        ]
        path = tmp_path / "unnamed.xes"
        path.write_text(
            xes_text([(None, events), ("c1", events), (None, events)]),
            encoding="utf-8",
        )
        assert set(read_xes(path).trace_index) == {"trace-1", "c1", "trace-3"}

    def test_empty_trace_name_is_missing(self, tmp_path):
        events = [
            xes_event("T1", "R1", "start", stamp(0)),
            xes_event("T1", "R1", "complete", stamp(10)),
        ]
        path = tmp_path / "empty-name.xes"
        path.write_text(xes_text([("c1", events), ("", events)]),
                        encoding="utf-8")
        assert set(read_xes(path).trace_index) == {"c1", "trace-2"}

    def test_generated_trace_name_may_not_match_a_named_trace(self, tmp_path):
        events = [
            xes_event("T1", "R1", "start", stamp(0)),
            xes_event("T1", "R1", "complete", stamp(10)),
        ]
        for traces in ([(None, events), ("trace-1", events)],
                       [("trace-2", events), (None, events)]):
            path = tmp_path / "clash.xes"
            path.write_text(xes_text(traces), encoding="utf-8")
            with pytest.raises(LogFormatError, match="trace-"):
                read_xes(path)

    def test_extra_attributes_ignored(self, tmp_path):
        event = (
            "<event>"
            '<string key="concept:name" value="T1"/>'
            '<string key="org:resource" value="R1"/>'
            '<string key="lifecycle:transition" value="start"/>'
            f'<date key="time:timestamp" value="{stamp(0)}"/>'
            '<string key="cost:total" value="12"/>'
            "</event>"
        )
        complete = xes_event("T1", "R1", "complete", stamp(10))
        path = tmp_path / "extra.xes"
        path.write_text(
            xes_text([("c1", [event, complete])]), encoding="utf-8"
        )
        assert len(read_xes(path)) == 1

    def test_fault_before_malformed_xml_is_reported_first(self, tmp_path):
        # Faults are reported in document order: trace c9 ends, and is
        # found faulty, before the cut-off end of the document is reached.
        path = tmp_path / "bad.xes"
        text = xes_text(
            [("c9", [xes_event("T1", "R1", "complete", stamp(5))]),
             ("c1", [xes_event("T1", "R1", "start", stamp(0))])]
        )
        path.write_text(text[:-len("</trace></log>")], encoding="utf-8")
        with pytest.raises(LogFormatError,
                           match="trace 'c9', activity 'T1': 'complete' w"):
            read_xes(path)

    # A trace is checked once the next child of the root starts; these
    # documents fail to parse before one does.  The reader that built an
    # Element per XML element checked each trace at its end tag.
    @pytest.mark.parametrize("tail", ["&e;", "<x:trace/>"])
    def test_a_faulty_trace_is_reported_before_malformed_xml_after_it(
            self, tmp_path, tail):
        path = tmp_path / "bad.xes"
        text = xes_text([
            ("c1", [xes_event("T1", "R1", "start", stamp(0)),
                    xes_event("T1", "R1", "complete", stamp(5))]),
            ("c9", [xes_event("T1", "R1", "complete", stamp(5))])])
        path.write_text(text.replace("</trace></log>", f"</trace>{tail}</log>"),
                        encoding="utf-8")
        for reader in (read_xes, read_xes_iterparse):
            with pytest.raises(LogFormatError,
                               match="trace 'c9', activity 'T1': 'complete' w"):
                reader(path)

    def test_a_faulty_last_trace_is_reported_before_junk_after_the_root(
            self, tmp_path):
        path = tmp_path / "bad.xes"
        path.write_text(xes_text([
            ("c9", [xes_event("T1", "R1", "start", stamp(0))])]) + "<log/>",
            encoding="utf-8")
        for reader in (read_xes, read_xes_iterparse):
            with pytest.raises(LogFormatError,
                               match="trace 'c9', activity 'T1': 'start' w"):
                reader(path)

    def test_malformed_xml_before_a_fault_is_a_parse_failure(self, tmp_path):
        path = tmp_path / "bad.xes"
        # c1's <string> is never closed; c9 has a fault of its own.
        path.write_text(
            '<log><trace><string key="concept:name" value="c1"></trace>'
            '<trace><string key="concept:name" value="c9"/>'
            + xes_event("T1", "R1", "complete", stamp(5)) + "</trace></log>",
            encoding="utf-8",
        )
        with pytest.raises(LogFormatError,
                           match="XML parse failure: mismatched tag"):
            read_xes(path)

    def test_no_read_waits_for_the_cycle_collector(self, tmp_path):
        # A reference cycle through the parser and its handlers would keep
        # every row read alive after the return, until the next collection.
        path = tmp_path / "one.xes"
        path.write_text(xes_text([("c1", [
            xes_event("T1", "R1", "start", stamp(0)),
            xes_event("T1", "R1", "complete", stamp(5))])]), encoding="utf-8")
        while gc.collect():  # an iterparse left by an earlier test takes two
            pass
        gc.disable()
        try:
            assert len(read_xes(path)) == 1
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_memory_is_bounded_by_one_trace(self, tmp_path):
        # 2,000 items in 400 traces, about 1 MB of XES: the whole tree
        # takes about 11 MB, one trace at a time about 1 MB with the rows.
        rng = random.Random(2_000)
        items = []
        for seq in range(2_000):
            start = rng.randint(0, 10**7)
            items.append(wi(seq, start, start + rng.randint(0, 10**5),
                            resource=f"R{seq % 20}", activity=f"A{seq % 7}",
                            trace=f"t{seq % 400}"))
        path = tmp_path / "big.xes"
        write_xes(make_log(items), path)

        def peak_bytes(work):
            tracemalloc.start()
            try:
                work()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert len(read_xes(path)) == 2_000
        assert peak_bytes(lambda: read_xes(path)) < (
            peak_bytes(lambda: ET.parse(path)) / 4)


@pytest.mark.parametrize("fmt", FORMATS)
class TestNamesHeldOnce:
    """A read log holds one ``str`` per distinct case, activity, resource."""

    def test_equal_names_are_one_object(self, tmp_path, fmt):
        path = tmp_path / f"names.{fmt}"
        write_log(make_log([
            wi(seq, seq * MINUTE, (seq + 2) * MINUTE, trace=f"case-{seq % 5}",
               activity=f"review-{seq % 4}", resource=f"clerk-{seq % 3}")
            for seq in range(60)]), fmt, path)
        names = [name for item in read_log(path).items
                 for name in (item.trace_id, item.activity, item.resource)]
        assert len(set(names)) == 12
        assert len({id(name) for name in names}) == 12

    def test_a_read_log_retains_under_300_bytes_per_item(self, tmp_path, fmt):
        # The chain log's 20,000 items repeat 10 resources, 7 activities
        # and 400 cases; a fresh str per name and row was 330-400 B an item.
        count = 20_000
        path = tmp_path / f"chain.{fmt}"
        write_log(chain_log(count), fmt, path)
        read_log(path)  # so that first-call allocations are not counted
        gc.collect()
        tracemalloc.start()
        try:
            log = read_log(path)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(log) == count
        assert retained / count < 300

    def test_a_read_log_retains_under_220_bytes_per_item(self, tmp_path, fmt):
        # Slotted items hold their six fields without a __dict__: 249-250 B
        # an item with one, 201-202 B without (Python 3.11).
        path = tmp_path / f"chain.{fmt}"
        write_log(chain_log(20_000), fmt, path)
        log, retained, _ = traced_peak(lambda: read_log(path))
        assert len(log) == 20_000
        assert retained / len(log) < 220


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_read_peaks_near_what_it_retains(tmp_path, fmt):
    # Each row is popped as its item is built; when every row lived until
    # the last item was built, the peak was 1.37x what the read retains,
    # and 1.04-1.05x without them (Python 3.11).
    path = tmp_path / f"chain.{fmt}"
    write_log(chain_log(20_000), fmt, path)
    log, retained, peak = traced_peak(lambda: read_log(path))
    assert len(log) == 20_000
    assert peak <= 1.15 * retained


def test_write_aux_renders_one_resource_of_heads_at_a_time(tmp_path):
    # 200 resources of 100 items, each overlapping the next.  Every item's
    # "parent_id,case_id,activity" rendered up front peaked 105 B an item
    # above the log; one resource's at a time, 12 B (Python 3.11).
    log = chain_log(20_000, resources=200, stretch=30_000)
    path = tmp_path / "aux.csv"
    _, retained, peak = traced_peak(lambda: write_aux(log, path))
    with path.open(encoding="utf-8") as handle:
        assert sum(1 for _ in handle) == 1 + 20_000 + 2 * 19_800
    assert peak - retained < 50 * len(log)


def test_write_aux_streams_the_rows_of_a_resource_alone(tmp_path):
    # One resource of 20,000 touching items, so its rows come straight
    # from its items.  Those rows joined into one string peaked 257 B an
    # item above the log, the id sweep's heads and cuts 327 B, and rows
    # streamed through writelines 29 B (Python 3.11).
    log = chain_log(20_000, resources=1)
    path = tmp_path / "aux.csv"
    _, retained, peak = traced_peak(lambda: write_aux(log, path))
    with path.open(encoding="utf-8") as handle:
        assert sum(1 for _ in handle) == 1 + 20_000
    assert peak - retained < 50 * len(log)


def test_read_xes_holds_no_end_tags_of_past_events(tmp_path):
    # One trace of 20,000 items: 200,000 end tags.  A reader that kept them
    # all peaked 81 B an item above the reader with an end-tag callback,
    # and one that drops them at each depth-2 or 3 start 0 B (Python 3.11).
    log = make_log([wi(k, k * MINUTE, (k + 2) * MINUTE, resource=f"R{k % 10}",
                       activity=f"act-{k % 7}", trace="c1")
                    for k in range(20_000)])
    path = tmp_path / "one_trace.xes"
    write_xes(log, path)
    read, _, peak = traced_peak(lambda: read_xes(path))
    reference, _, reference_peak = traced_peak(
        lambda: read_xes_by_end_handler(path))
    assert read == reference and len(read) == len(log)
    assert peak - reference_peak <= 20 * len(log)


def test_write_xes_keeps_no_table_of_trace_ids(tmp_path):
    # 20,000 traces of one item each.  Escaped trace ids kept for the
    # whole write peaked 81 B an item above the log, and 1 B without
    # (Python 3.11).
    log = make_log([wi(k, k * MINUTE, (k + 2) * MINUTE, resource=f"R{k % 10}",
                       activity=f"act-{k % 7}", trace=f"case-{k}")
                    for k in range(20_000)])
    path = tmp_path / "traces.xes"
    _, retained, peak = traced_peak(lambda: write_xes(log, path))
    write_xes_by_item_escapes(log, tmp_path / "reference.xes")
    assert path.read_bytes() == (tmp_path / "reference.xes").read_bytes()
    assert peak - retained < 50 * len(log)


def test_importing_sweeplog_loads_no_elementtree():
    # A fresh interpreter, so that no other test's import counts.
    code = ("import sweeplog, sys; "
            "print('sweeplog.logio' in sys.modules, "
            "'xml.etree.ElementTree' in sys.modules)")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, cwd=Path(sweeplog.__file__).parents[1])
    assert done.stdout.split() == ["True", "False"]


class TestXesRoundTrip:
    def round_trip(self, tmp_path, log):
        path = tmp_path / "out.xes"
        write_xes(log, path)
        return read_xes(path)

    def test_four_task_log(self, tmp_path):
        source = tmp_path / "four.csv"
        source.write_text(FOUR_TASK_CSV, encoding="utf-8")
        log = read_csv(source)
        assert self.round_trip(tmp_path, log) == log

    def test_same_activity_sequential_items(self, tmp_path):
        log = make_log(
            [
                wi(1, 0, 10 * MINUTE, activity="T1"),
                wi(2, 10 * MINUTE, 20 * MINUTE, activity="T1"),
                wi(3, 20 * MINUTE, 20 * MINUTE, activity="T1"),
            ]
        )
        assert self.round_trip(tmp_path, log) == log

    def test_serialization_deterministic(self, tmp_path):
        log = make_log(
            [wi(1, 0, 5 * MINUTE), wi(2, 2 * MINUTE, 9 * MINUTE, trace="c2")]
        )
        first = tmp_path / "a.xes"
        second = tmp_path / "b.xes"
        write_xes(log, first)
        write_xes(read_xes(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_log(self, tmp_path):
        assert self.round_trip(tmp_path, make_log([])) == make_log([])

    def test_items_sharing_a_start_are_written_in_log_order(self, tmp_path):
        # Items 9 and 10 share a trace and a start.  Ids sort as text, so
        # the log puts 10 first, although 9 ends first; reading assigns
        # these ids, so the log reads back equal.
        log = make_log([wi(n, n * MINUTE, n * MINUTE) for n in range(1, 9)]
                       + [wi(9, 60 * MINUTE, 70 * MINUTE, activity="T9"),
                          wi(10, 60 * MINUTE, 80 * MINUTE, activity="T10")])
        assert [item.id for item in log.items[-2:]] == [10, 9]
        path = tmp_path / "ties.xes"
        write_xes(log, path)
        starts = [
            {field.get("key"): field.get("value") for field in event}
            for event in ET.parse(path).iter("event")]
        starts = [event["concept:name"] for event in starts
                  if event["lifecycle:transition"] == "start"]
        assert starts[-2:] == ["T10", "T9"]
        assert read_xes(path) == log

    def test_a_trace_s_events_are_written_in_time_order(self, tmp_path):
        # Re-reading pairs a start with the first complete after it, so a
        # file in item order would read back equal too; the stamps show it.
        log = make_log([wi(1, 0, 10), wi(2, 5, 8)])
        path = tmp_path / "nested.xes"
        write_xes(log, path)
        stamps = [parse_timestamp(stamp.get("value"))
                  for stamp in ET.parse(path).iter("date")]
        assert stamps == [0, 5, 8, 10]
        assert read_xes(path) == log


# Names holding every character ElementTree escapes in an attribute, a
# quote it leaves alone, and a non-ASCII letter.
ODD = "&<>\"'\r\n\t \u00e9"

XES_HEAD = """\
<?xml version='1.0' encoding='utf-8'?>
<log xes.version="1849.2016" xes.features="">
  <extension name="Concept" prefix="concept" \
uri="http://www.xes-standard.org/concept.xesext" />
  <extension name="Organizational" prefix="org" \
uri="http://www.xes-standard.org/org.xesext" />
  <extension name="Time" prefix="time" \
uri="http://www.xes-standard.org/time.xesext" />
  <extension name="Lifecycle" prefix="lifecycle" \
uri="http://www.xes-standard.org/lifecycle.xesext" />
"""

# What ElementTree's writer, after ET.indent, gave for odd_log().
ODD_XES = XES_HEAD + """\
  <trace>
    <string key="concept:name" value="c&amp;&lt;&gt;&quot;'&#13;&#10;&#09; \u00e9" />
    <event>
      <string key="concept:name" value="A&amp;&lt;&gt;&quot;'&#13;&#10;&#09; \u00e9" />
      <string key="org:resource" value="R&amp;&lt;&gt;&quot;'&#13;&#10;&#09; \u00e9" />
      <string key="lifecycle:transition" value="start" />
      <date key="time:timestamp" value="1970-01-01T00:00:00.000+00:00" />
    </event>
    <event>
      <string key="concept:name" value="A&amp;&lt;&gt;&quot;'&#13;&#10;&#09; \u00e9" />
      <string key="org:resource" value="R&amp;&lt;&gt;&quot;'&#13;&#10;&#09; \u00e9" />
      <string key="lifecycle:transition" value="complete" />
      <date key="time:timestamp" value="1970-01-01T00:01:00.000+00:00" />
    </event>
    <event>
      <string key="concept:name" value="B&amp;&lt;&gt;&quot;'&#13;&#10;&#09; \u00e9" />
      <string key="org:resource" value="R&amp;&lt;&gt;&quot;'&#13;&#10;&#09; \u00e9" />
      <string key="lifecycle:transition" value="start" />
      <date key="time:timestamp" value="1970-01-01T00:01:00.000+00:00" />
    </event>
    <event>
      <string key="concept:name" value="B&amp;&lt;&gt;&quot;'&#13;&#10;&#09; \u00e9" />
      <string key="org:resource" value="R&amp;&lt;&gt;&quot;'&#13;&#10;&#09; \u00e9" />
      <string key="lifecycle:transition" value="complete" />
      <date key="time:timestamp" value="1970-01-01T00:01:30.000+00:00" />
    </event>
  </trace>
  <trace>
    <string key="concept:name" value="c2" />
    <event>
      <string key="concept:name" value="T1" />
      <string key="org:resource" value="R2" />
      <string key="lifecycle:transition" value="start" />
      <date key="time:timestamp" value="1970-01-01T00:00:30.000+00:00" />
    </event>
    <event>
      <string key="concept:name" value="T1" />
      <string key="org:resource" value="R2" />
      <string key="lifecycle:transition" value="complete" />
      <date key="time:timestamp" value="1970-01-01T00:00:30.000+00:00" />
    </event>
  </trace>
</log>"""


def odd_log():
    # B starts on the stamp where A completes, and T1 is instantaneous.
    return make_log([
        wi(1, 0, MINUTE, resource=f"R{ODD}", activity=f"A{ODD}",
           trace=f"c{ODD}"),
        wi(2, MINUTE, 90_000, resource=f"R{ODD}", activity=f"B{ODD}",
           trace=f"c{ODD}"),
        wi(3, 30_000, 30_000, resource="R2", activity="T1", trace="c2"),
    ])


class TestXesText:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "odd.xes"
        write_xes(odd_log(), path)
        assert path.read_bytes() == ODD_XES.encode("utf-8")

    def test_golden_bytes_of_empty_log(self, tmp_path):
        path = tmp_path / "empty.xes"
        write_xes(make_log([]), path)
        assert path.read_bytes() == (XES_HEAD + "</log>").encode("utf-8")

    def test_odd_names_round_trip(self, tmp_path):
        path = tmp_path / "odd.xes"
        write_xes(odd_log(), path)
        assert read_xes(path) == odd_log()

    @pytest.mark.parametrize("char", NON_XML_CHARS)
    @pytest.mark.parametrize("field", ["trace", "activity", "resource"])
    def test_character_xml_cannot_carry_is_refused(self, tmp_path, char,
                                                   field):
        names = {"trace": "c1", "activity": "T1", "resource": "R1"}
        names[field] += char
        log = make_log([wi(1, 0, MINUTE, **names),
                        wi(2, 0, MINUTE, trace="c0")])
        path = tmp_path / "bad.xes"
        with pytest.raises(ValueError) as raised:
            write_xes(log, path)
        assert repr(names["trace"]) in str(raised.value)
        assert repr(char) in str(raised.value)
        assert not path.exists()
        with pytest.raises(ValueError) as reference:
            write_xes_by_item_escapes(log, path)
        assert str(raised.value) == str(reference.value)

    def test_other_characters_round_trip(self, tmp_path):
        name = "\x7f\x85\ud7ff\ue000\ufffd\U00010000\U0010ffff"
        log = make_log([wi(1, 0, MINUTE, resource=name, activity=name,
                           trace=name)])
        path = tmp_path / "ok.xes"
        write_xes(log, path)
        assert read_xes(path) == log

    def test_refused_characters_equal_the_char_production_complement(self):
        # Every code point, lone surrogates too, in one string.
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        refused = logio._NON_XML.findall(text)
        assert refused == NON_XML_BY_CHAR_PRODUCTION.findall(text)
        assert len(refused) == 2_079


class TestWriteLog:
    def test_dispatch(self, tmp_path):
        log = make_log([wi(1, 0, MINUTE)])
        write_log(log, "csv", tmp_path / "a.csv")
        write_log(log, "xes", tmp_path / "a.xes")
        assert read_csv(tmp_path / "a.csv") == log
        assert read_xes(tmp_path / "a.xes") == log

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_log(make_log([]), "parquet", tmp_path / "a.parquet")

    def test_infer_format(self):
        assert infer_format("x/y/log.csv") == "csv"
        assert infer_format("log.XES") == "xes"
        with pytest.raises(ValueError):
            infer_format("log.txt")


class TestReadLog:
    def test_format_from_extension(self, tmp_path):
        log = make_log([wi(1, 0, MINUTE)])
        write_log(log, None, tmp_path / "a.csv")
        write_log(log, None, tmp_path / "a.XES")
        assert read_log(tmp_path / "a.csv") == log
        assert read_log(tmp_path / "a.XES") == log

    def test_explicit_format_beats_extension(self, tmp_path):
        log = make_log([wi(1, 0, MINUTE)])
        write_xes(log, tmp_path / "a.csv")
        assert read_log(tmp_path / "a.csv", "xes") == log
        with pytest.raises(LogFormatError):
            read_log(tmp_path / "a.csv")

    def test_unknown_format(self, tmp_path):
        write_csv(make_log([]), tmp_path / "a.csv")
        with pytest.raises(ValueError, match="format"):
            read_log(tmp_path / "a.csv", "parquet")
        with pytest.raises(ValueError, match="format"):
            read_log(tmp_path / "a.txt")

    def test_missing_file(self, tmp_path):
        with pytest.raises(LogFormatError, match="no such file"):
            read_log(tmp_path / "absent.csv")

    def test_missing_xes_file(self, tmp_path):
        with pytest.raises(LogFormatError, match="absent.xes: no such file"):
            read_log(tmp_path / "absent.xes")


class TestReports:
    def test_four_task_report_keys_and_rounding(self, tmp_path):
        import json

        report = summarize(read_csv_from_text(tmp_path))
        path = tmp_path / "report.json"
        write_report(report, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["mtli"] == pytest.approx(0.244755, abs=5e-7)
        assert data["mtwii"] == pytest.approx(0.367133, abs=5e-7)
        assert data["mtwii.defined"] is True
        assert data["mtri.R1"] == data["mtli"]
        assert data["counts.tasks_multitasked"] == 4
        assert data["counts.events_overlapped"] == 4
        assert data["counts.resources_multitasking"] == 1
        assert data["counts.pairs_overlapped"] == 4

    def test_clean_log_report_flags_undefined(self):
        report = summarize(make_log([wi(1, 0, 10), wi(2, 10, 20)]))
        data = report_to_dict(report)
        assert data["mtli"] == 0
        assert data["mtwii"] == 0
        assert data["mtwii.defined"] is False

    def test_counts_echoed_verbatim(self, tmp_path):
        import json

        report = MetricsReport(
            mtli=0.0105,
            mtwii=0.5854,
            mtwii_defined=True,
            mtri_all={},
            mtri_overlapped={},
            counts=SummaryCounts(18, 6870, 561, 1039),
        )
        path = tmp_path / "echo.json"
        write_report(report, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["counts.tasks_multitasked"] == 18
        assert data["counts.events_overlapped"] == 6870
        assert data["counts.resources_multitasking"] == 561
        assert data["counts.pairs_overlapped"] == 1039

    def test_report_file_is_the_json_text(self, tmp_path):
        import json

        report = summarize(read_csv_from_text(tmp_path))
        text = report_to_json(report)
        assert json.loads(text) == report_to_dict(report)
        assert list(json.loads(text)) == sorted(report_to_dict(report))
        write_report(report, tmp_path / "report.json")
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == (
            text + "\n")

    def test_six_significant_digits(self):
        report = MetricsReport(
            mtli=0.123456789,
            mtwii=0.987654321,
            mtwii_defined=True,
            mtri_all={"r": 1 / 3},
            mtri_overlapped={},
            counts=SummaryCounts(0, 0, 0, 0),
        )
        data = report_to_dict(report)
        assert data["mtli"] == 0.123457
        assert data["mtwii"] == 0.987654
        assert data["mtri.r"] == 0.333333


def read_csv_from_text(tmp_path):
    path = tmp_path / "four.csv"
    path.write_text(FOUR_TASK_CSV, encoding="utf-8")
    return read_csv(path)
