"""Mutants of ``src/`` that named tests must keep killing.

Run from anywhere: ``python tests/mutants.py [NAME ...]`` (pytest must
be installed; names pick mutants, all by default).  Each mutant is one
exact text in one file of ``src/sweeplog`` and its replacement.  For each,
``src/``, ``tests/`` and ``pyproject.toml`` are copied to a temporary
directory, the text, which must occur exactly once, is replaced, and
pytest runs the mutant's tests there; every one of them must fail.
pyproject.toml's ``pythonpath = ["src"]`` goes ahead of ``PYTHONPATH``, so
a mutated copy is tested only by a pytest that runs inside the copy.
Before any mutant, the named tests must pass on an unmutated copy.

The exit status is 1 if an old text is missing or repeated, a named test
does not pass unmutated, or a mutant survives one of its tests.  A change
that moves mutated code updates the old text here; a change that claims a
test fails without it adds that mutant here.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/sweeplog
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, each expected to fail


ACCEPTANCE = "tests/test_acceptance.py::TestAcceptance"
ADJUST = "tests/test_sweep.py::TestAdjustLog"
CLI = "tests/test_cli.py"
DIFF = "tests/test_differential.py"
GOLDEN = f"{CLI}::test_outputs_match_the_checked_in_golden_files"
LOOKUP = "tests/test_logio.py::TestTimestampLookup"
METRICS = "tests/test_metrics.py"
READ_PEAK = "tests/test_logio.py::test_a_read_peaks_near_what_it_retains"
RETAINED = ("tests/test_logio.py::TestNamesHeldOnce::test_a_read_log_retains_"
            "under_220_bytes_per_item")
# model.WorkItem in four parts: the class head, given the docstring's end
# of its first line, its __init__, its property, and the slots' setters.
WORK_ITEM_HEAD = (
    "class WorkItem:\n"
    '    """One executed task instance{}.\n'
    "\n"
    "    ``start`` and ``end`` are integer milliseconds; ``end == start``"
    " marks\n"
    "    an instantaneous item, which is legal everywhere in the package.\n"
    '    """\n'
    "\n"
    "    id: WorkItemId\n"
    "    activity: str\n"
    "    resource: str\n"
    "    trace_id: str\n"
    "    start: Instant\n"
    "    end: Instant\n"
    "\n")
WORK_ITEM_INIT = (
    "    def __init__(self, id, activity, resource, trace_id, start, end):\n"
    "        _set_id(self, id)  # 40 % less time than object.__setattr__ per"
    " field\n"
    "        _set_activity(self, activity)\n"
    "        _set_resource(self, resource)\n"
    "        _set_trace_id(self, trace_id)\n"
    "        _set_start(self, start)\n"
    "        _set_end(self, end)\n"
    "\n")
WORK_ITEM_PROPERTY = (
    "    @property\n"
    "    def duration(self) -> DurationMs:\n"
    "        return self.end - self.start\n")
WORK_ITEM_SETTERS = (
    "\n\n_set_id, _set_activity, _set_resource, _set_trace_id, _set_start,"
    " _set_end = (\n"
    "    WorkItem.__dict__[name].__set__ for name in WorkItem.__slots__)\n")

MUTANTS = (
    Mutant("stamps skip the ISO-8601 grammar", "logio.py",
           "if _ISO_8601.fullmatch(text) is None:", "if False:",
           ("tests/test_logio.py::TestTimestamps::test_misread_forms_rejected"
            "[2021-01-01T12345+01:00]",
            f"{DIFF}::test_iso_8601_grammar_with_fromisoformat_equals_the_"
            "group_converter")),
    Mutant("overlaps keep items that end at a start", "metrics.py",
           "live = [other for other in live if other[0] > start]",
           "live = [other for other in live if other[0] >= start]",
           (f"{DIFF}::test_pairs_equal_the_live_item_reference",
            f"{METRICS}::TestSummarize::test_pairs_count_matches_"
            "enumeration")),
    Mutant("overlaps forget the predecessor", "metrics.py",
           "            if previous.end > start:", "            if False:",
           (f"{METRICS}::TestSummarize::test_four_task_counts",
            f"{CLI}::test_reports_match_the_checked_in_golden_files[ties]")),
    Mutant("overlaps reach only the last end", "metrics.py",
           "reach = end if end > reach else reach", "reach = end",
           (f"{METRICS}::TestMtri::test_four_task_value",
            f"{DIFF}::test_pairs_equal_the_live_item_reference")),
    Mutant("sweeps keep instants", "sweep.py",
           "_bounds(item for item in items if item.end > item.start)",
           "_bounds(items)",
           (f"{DIFF}::test_sweep_views_equal_the_object_sweep",
            f"{GOLDEN}[aux --debug-table-ties.csv-ties.debug.txt]")),
    Mutant("hour key at the time's T", "logio.py",
           "_HOUR_MS[text[7:14]]", '_HOUR_MS["-01" + text[10:14]]',
           (f"{LOOKUP}::test_near_misses[20240101xxT08:15:30.123Z-False]",
            f"{LOOKUP}::test_near_misses[2024010112T08:15:30.123Z-False]")),
    Mutant("hour key on the day's last digit", "logio.py",
           "_HOUR_MS[text[7:14]]", '_HOUR_MS["-1" + text[9:14]]',
           (f"{LOOKUP}::test_near_misses[2024010112T08:15:30.123Z-False]",)),
    Mutant("stamp lookup lets a bad day through", "logio.py",
           "        except (KeyError, ValueError):",
           "        except KeyError:",
           (f"{LOOKUP}::test_calendar_edges",
            f"{LOOKUP}::test_near_misses[2021-02-29T08:15:30.123Z-False]")),
    Mutant("write_xes translates newlines", "logio.py",
           'open("w", newline="", encoding="utf-8") as handle:\n'
           "        handle.write(_XES_HEAD)",
           'open("w", encoding="utf-8") as handle:\n'
           "        handle.write(_XES_HEAD)",
           (f"{CLI}::test_every_writer_opens_its_file_without_newline_"
            "translation",)),
    Mutant("_assemble keeps every row until the last item", "logio.py",
           "    rows.sort(reverse=True)  # popped from the end; equal rows are"
           " equal\n"
           "    items = [WorkItem(seq, activity, resource, trace_id, start,"
           " end)\n"
           "             for seq in range(1, len(rows) + 1)\n"
           "             for trace_id, start, end, activity, resource in"
           " [rows.pop()]]",
           "    items = [WorkItem(seq, activity, resource, trace_id, start,"
           " end)\n"
           "             for seq, (trace_id, start, end, activity, resource)\n"
           "             in enumerate(sorted(rows), start=1)]",
           (f"{READ_PEAK}[csv]", f"{READ_PEAK}[xes]")),
    Mutant("read_csv keeps a string per case id", "logio.py",
           "rows.append((one(case_id, case_id), start, end,",
           "rows.append((case_id, start, end,",
           ("tests/test_logio.py::TestNamesHeldOnce::test_equal_names_are_one_"
            "object[csv]",)),
    Mutant("adjust_log builds every clock and change table before any"
           " item", "sweep.py",
           "        clock = dict(zip(times, accumulate(gains, initial=0)))\n"
           "        for item in items:\n"
           "            yield item, clock[item.end] - clock[item.start],"
           " scale",
           "        log = log, items, scale, change, dict(zip(times,"
           " accumulate(\n"
           "            gains, initial=0)))\n"
           "    walk = log  # the head keeps every clock alive to the end\n"
           "    while type(walk) is tuple:\n"
           "        walk, items, scale, change, clock = walk\n"
           "        for item in items:\n"
           "            yield item, clock[item.end] - clock[item.start],"
           " scale",
           (f"{ADJUST}::test_adjust_holds_one_resource_clock_at_a_time",
            f"{ADJUST}::test_exact_ends_peak_near_what_they_retain")),
    Mutant("coalesced_exact keeps every clock and change table alive",
           "sweep.py",
           "        clock = dict(zip(times, accumulate(gains, initial=0)))\n",
           "        clock = dict(zip(times, accumulate(gains, initial=0)))\n"
           "        log = log, change, clock  # alive until the walk ends\n",
           (f"{ADJUST}::test_exact_ends_peak_near_what_they_retain",
            f"{ADJUST}::test_adjust_holds_one_resource_clock_at_a_time")),
    Mutant("_advances keeps every clock dict alive", "sweep.py",
           "        clock = dict(zip(times, accumulate(gains, initial=0)))\n",
           "        clock = dict(zip(times, accumulate(gains, initial=0)))\n"
           "        log = log, clock  # alive until the walk ends\n",
           (f"{ADJUST}::test_the_clock_walk_holds_one_clock",)),
    Mutant("clocks skip resources with two live items", "sweep.py",
           "if max(lives) <= 1:", "if max(lives) <= 2:",
           (f"{ADJUST}::test_identical_spans_split_evenly",
            f"{DIFF}::test_adjust_equals_the_clock_on_every_resource",
            f"{ACCEPTANCE}::test_criterion_2_busy_time_conservation")),
    Mutant("clocks on every resource", "sweep.py",
           "if max(lives) <= 1:", "if max(lives) < 1:",
           (f"{ADJUST}::test_a_log_without_overlap_builds_no_clock",)),
    Mutant("exempt exact ends at the start", "sweep.py",
           "ends[item.id] if item.id in ends else Fraction(item.end)",
           "ends[item.id] if item.id in ends else Fraction(item.start)",
           (f"{DIFF}::test_adjust_equals_the_clock_on_every_resource",
            f"{ADJUST}::test_a_log_without_overlap_builds_no_clock")),
    Mutant("write_aux floors each portion", "logio.py",
           "{_round_half_up(end - start, len(live))}",
           "{(end - start) // len(live)}",
           (f"{GOLDEN}[aux-quoted.csv-quoted.aux.csv]",
            f"{DIFF}::test_aux_file_is_the_per_share_rows_byte_for_byte")),
    Mutant("write_aux joins string ids bare", "logio.py",
           "(join if type(item.id) is int else _csv_record)(",
           '(join if type(item.id) is int else ",".join)(',
           (f"{DIFF}::test_aux_quotes_the_one_name_that_needs_it",)),
    Mutant("write_aux renders every head up front", "logio.py",
           "        for resource, items, _, cuts in _sweeps(log):\n"
           "            heads = {item.id: (join if type(item.id) is int"
           " else _csv_record)(\n"
           "                (str(item.id), item.trace_id, item.activity))\n"
           "                for item in items}",
           "        heads = {item.id: (join if type(item.id) is int"
           " else _csv_record)(\n"
           "            (str(item.id), item.trace_id, item.activity))\n"
           "            for item in log.items}\n"
           "        for resource, items, _, cuts in _sweeps(log):",
           ("tests/test_logio.py::test_write_aux_renders_one_resource_of_"
            "heads_at_a_time",)),
    Mutant("summarize keeps one overlapped dict", "metrics.py",
           "    tasks: set[str] = set()\n"
           "    events = total_pairs = 0\n"
           "    for resource, group in _by_resource(log.items).items():\n"
           "        items = sorted(group, key=attrgetter(\"start\"))\n"
           "        overlapped: dict[object, str] = {}  # item id -> activity"
           "\n"
           "        mtri_all[resource], restricted, pairs = _means(items,"
           " overlapped)\n"
           "        events += len(overlapped)  # no item is in two resources\n"
           "        tasks.update(overlapped.values())\n",
           "    overlapped: dict[object, str] = {}  # item id -> activity\n"
           "    total_pairs = 0\n"
           "    for resource, group in _by_resource(log.items).items():\n"
           "        items = sorted(group, key=attrgetter(\"start\"))\n"
           "        mtri_all[resource], restricted, pairs = _means(items,"
           " overlapped)\n"
           "        events, tasks = len(overlapped), set(overlapped.values())"
           "\n",
           (f"{METRICS}::TestSummarize::test_counts_hold_one_resource_of_"
            "overlapped_items",)),
    Mutant("WorkItem without slots", "model.py",
           "@dataclass(frozen=True, slots=True)\n"
           + WORK_ITEM_HEAD.format(", built through its slots' own setters")
           + WORK_ITEM_INIT + WORK_ITEM_PROPERTY + WORK_ITEM_SETTERS,
           "@dataclass(frozen=True)\n" + WORK_ITEM_HEAD.format("")
           + WORK_ITEM_PROPERTY,
           (f"{RETAINED}[csv]", f"{RETAINED}[xes]")),
    Mutant("WorkItem keeps the generated __init__", "model.py",
           WORK_ITEM_INIT, "",
           ("tests/test_growth.py::test_work_items_build_through_their_"
            "slots",)),
)


def copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def failed(copy: Path, tests: tuple[str, ...]) -> set[str]:
    """The named tests that fail (or err) when pytest runs in ``copy``."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE",
         "-p", "no:cacheprovider", *tests],
        cwd=copy, capture_output=True, text=True)
    if result.returncode not in (0, 1):  # a usage or collection error
        raise RuntimeError(result.stdout + result.stderr)
    lines = result.stdout.splitlines()
    return {test for test in tests for line in lines
            if line in (f"FAILED {test}", f"ERROR {test}")
            or line.startswith((f"FAILED {test} - ", f"ERROR {test} - "))}


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    problems = [f"{name}: no such mutant"
                for name in set(names) - {m.name for m in MUTANTS}]
    with tempfile.TemporaryDirectory() as scratch:
        clean = Path(scratch) / "clean"
        copy_tree(clean)
        for mutant in chosen:
            found = (clean / "src" / "sweeplog" / mutant.file).read_text(
                encoding="utf-8").count(mutant.old)
            if found != 1:
                problems.append(f"{mutant.name}: old text found {found} times")
        if not problems:  # else a mutant might meet no text, or no test
            named = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
            problems = [f"{test}: fails without a mutant"
                        for test in sorted(failed(clean, named))]
        for index, mutant in enumerate([] if problems else chosen):
            copy = Path(scratch) / f"mutant{index}"
            copy_tree(copy)
            target = copy / "src" / "sweeplog" / mutant.file
            target.write_text(target.read_text(encoding="utf-8").replace(
                mutant.old, mutant.new), encoding="utf-8")
            survived = set(mutant.tests) - failed(copy, mutant.tests)
            print(f"{'SURVIVED' if survived else 'killed  '} {mutant.name}")
            problems += [f"{mutant.name}: survives {test}"
                         for test in sorted(survived)]
            shutil.rmtree(copy)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
