"""Mutants of ``src/`` that tests must kill: a hand list and a survey.

``python tests/mutants.py [NAME ...]`` runs the hand list, or the named
mutants: each must fail every test it names, within its timeout.
``python tests/mutants.py --survey [MODULE ...]`` runs every mutant that
``sites`` makes of the modules, all six by default: each is killed by the
first of its module's test files in ``SURVEY`` that fails on it, or else
listed in ``EQUIVALENTS``.  Both modes run each mutant in a worker of
``each`` through ``run_pytest``, and exit 1 on any other outcome.
README.md's "Tests" says more.
"""

from __future__ import annotations

import ast
import copy
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
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
READ_XES = "tests/test_logio.py::TestReadXes"
FAULT_THEN_XML = (f"{READ_XES}::test_a_faulty_trace_is_reported_before_"
                  "malformed_xml_after_it")
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

# logio.write_aux's rows of a resource that never multitasks.
WRITE_AUX_ROW = (
    '                    f"{next(aux_ids)},{head(item)},{resource_text},"\n'
    '                    f"{format_timestamp(item.start)},"\n'
    '                    f"{format_timestamp(item.end)},'
    '{item.end - item.start}\\n"\n')
WRITE_AUX_ALONE = (
    "            resource_text = join((resource,))\n"
    "            if alone is not None:  # a row per item, its duration,"
    " streamed\n"
    "                handle.writelines(\n" + WRITE_AUX_ROW
    + "                    for item in alone)\n"
    "                continue\n")

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
           "            overlapped[previous.id] = previous.activity",
           "            pass",
           (f"{METRICS}::TestSummarize::test_four_task_counts",
            f"{CLI}::test_reports_match_the_checked_in_golden_files[ties]")),
    Mutant("overlaps reach only the last end", "metrics.py",
           "reach = end if end > reach else reach", "reach = end",
           (f"{METRICS}::TestMtri::test_four_task_value",
            f"{DIFF}::test_pairs_equal_the_live_item_reference")),
    Mutant("sweeps keep instants", "sweep.py",
           "spans = [item for item in items if item.end > item.start]",
           "spans = list(items)",
           (f"{DIFF}::test_alone_holds_exactly_on_the_resources_without_a_"
            "clock",
            f"{DIFF}::test_aux_quotes_the_one_name_that_needs_it")),
    Mutant("the debug table keeps instants", "sweep.py",
           "_bounds(item for item in items if item.end > item.start)",
           "_bounds(items)",
           (f"{DIFF}::test_sweep_views_equal_the_object_sweep",
            f"{GOLDEN}[aux --debug-table-ties.csv-ties.debug.txt]")),
    Mutant("touching items are swept", "sweep.py",
           "a.end <= b.start", "a.end < b.start",
           (f"{ADJUST}::test_a_log_without_overlap_is_never_swept",
            f"{DIFF}::test_alone_holds_exactly_on_the_resources_without_a_"
            "clock")),
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
    Mutant("a root-level parse failure skips the trace before it",
           "logio.py",
           "if events is not None and starts - len(ends) <= 1:",
           "if events is not None and starts - len(ends) < 1:",
           (f"{FAULT_THEN_XML}[&e;]", f"{FAULT_THEN_XML}[<x:trace/>]")),
    Mutant("read_xes never checks the last trace", "logio.py",
           "    if events is not None:\n"
           "        ended()  # the last child of the root\n",
           "",
           (f"{READ_XES}::test_single_pair",
            f"{GOLDEN}[adjust-four_tasks.prom.xes-four_tasks.adjusted.xes]")),
    Mutant("read_xes keeps every end tag", "logio.py",
           "starts, ends[:] = depth, ()", "starts = depth + len(ends)",
           ("tests/test_logio.py::test_read_xes_holds_no_end_tags_of_past_"
            "events",)),
    Mutant("write_xes keys escaped trace ids", "logio.py",
           'value="{trace_id.translate(_ESCAPE)}" />',
           'value="{escaped.setdefault(trace_id, trace_id.translate('
           '_ESCAPE))}" />',
           ("tests/test_logio.py::test_write_xes_keeps_no_table_of_trace_"
            "ids",)),
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
           "        for resource, items, alone, cuts in _sweeps(log):\n"
           + WRITE_AUX_ALONE +
           "            heads = {item.id: head(item) for item in items}"
           "  # this resource's\n",
           "        heads = {item.id: head(item) for item in log.items}\n"
           "        for resource, items, alone, cuts in _sweeps(log):\n"
           + WRITE_AUX_ALONE,
           ("tests/test_logio.py::test_write_aux_renders_one_resource_of_"
            "heads_at_a_time",)),
    Mutant("write_aux joins the rows of a resource alone", "logio.py",
           "                handle.writelines(\n" + WRITE_AUX_ROW
           + "                    for item in alone)\n",
           '                handle.write("".join([\n' + WRITE_AUX_ROW
           + "                    for item in alone]))\n",
           ("tests/test_logio.py::test_write_aux_streams_the_rows_of_a_"
            "resource_alone",)),
    Mutant("write_aux sweeps a resource alone", "logio.py",
           "if alone is not None:", "if False:",
           ("tests/test_logio.py::test_write_aux_streams_the_rows_of_a_"
            "resource_alone",)),
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


# Both modes run pytest through one launcher, each mutant in a worker.
JOBS = 2  # workers, each with its own copy of src/, tests/ and pyproject
MEMORY = 2**30  # address space of one pytest, in bytes
PYTEST = ("import resource, sys, pytest; resource.setrlimit(resource."
          f"RLIMIT_AS, ({MEMORY}, {MEMORY})); sys.exit(pytest.main())")


def copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def run_pytest(where: Path, args, timeout: float | None):
    """pytest's result for ``args`` in ``where``, with its address space
    capped at MEMORY bytes and bytecode off, or None past ``timeout``."""
    try:
        result = subprocess.run(
            [sys.executable, "-c", PYTEST, "-q", "--tb=no", "-rfE",
             "-p", "no:cacheprovider", *args],
            cwd=where, capture_output=True, text=True, timeout=timeout,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    except subprocess.TimeoutExpired:
        return None
    if result.returncode in (4, 5):  # a usage error, or no test collected
        raise RuntimeError(result.stdout + result.stderr)
    return result


def unmutated(args) -> tuple[subprocess.CompletedProcess, float]:
    """pytest's result for ``args`` in the tree itself, and the timeout of
    a mutant's run of them: three times this run's wall time plus 60 s."""
    began = time.monotonic()
    return run_pytest(ROOT, args, None), 3 * (time.monotonic() - began) + 60


def each(check, jobs):
    """``check(worker, *args)`` for each job ``(file, source, *args)``, in
    order, on JOBS copies of the tree made once; the job's copy holds
    ``source`` as ``src/sweeplog/<file>``, which its pytest imports."""
    with tempfile.TemporaryDirectory() as scratch, \
            ThreadPoolExecutor(JOBS) as threads:
        copies: queue.Queue[Path] = queue.Queue()
        for index in range(JOBS):
            copy_tree(Path(scratch) / f"worker{index}")
            copies.put(Path(scratch) / f"worker{index}")

        def one(job):
            (file, source, *args), worker = job, copies.get()
            target = worker / "src" / "sweeplog" / file
            original = target.read_bytes()
            try:
                target.write_text(source, encoding="utf-8")
                return check(worker, *args)
            finally:
                target.write_bytes(original)
                copies.put(worker)

        yield from threads.map(one, jobs)


def failed(result: subprocess.CompletedProcess, tests) -> set[str]:
    """The named tests that fail (or err) in pytest's ``result``."""
    if result.returncode not in (0, 1):  # a collection error, or a crash
        raise RuntimeError(result.stdout + result.stderr)
    lines = result.stdout.splitlines()
    return {test for test in tests for line in lines
            if line in (f"FAILED {test}", f"ERROR {test}")
            or line.startswith((f"FAILED {test} - ", f"ERROR {test} - "))}


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    problems = [f"{name}: no such mutant"
                for name in set(names) - {m.name for m in MUTANTS}]
    text = {m: (ROOT / "src" / "sweeplog" / m.file).read_text(
        encoding="utf-8") for m in chosen}
    for mutant in chosen:
        found = text[mutant].count(mutant.old)
        if found != 1:
            problems.append(f"{mutant.name}: old text found {found} times")
    if not names:  # an entry that names no site is stale, as old texts
        problems += [f"names no site: {key(entry)}" for entry in unmatched(
            EQUIVALENTS, [site for name in SURVEY for site in sites(name)])]
    if not problems:  # else a mutant might meet no text, or no test
        named = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        result, timeout = unmutated(named)
        problems = [f"{test}: fails without a mutant"
                    for test in sorted(failed(result, named))]
    for mutant, result in zip(chosen, [] if problems else each(run_pytest, [
            (m.file, text[m].replace(m.old, m.new), m.tests, timeout)
            for m in chosen])):
        survived = [] if result is None else sorted(
            set(mutant.tests) - failed(result, mutant.tests))
        print("TIMEOUT " if result is None else "SURVIVED" if survived
              else "killed  ", mutant.name, flush=True)
        problems += [f"{mutant.name}: survives {test}" for test in survived]
        if result is None:
            problems.append(f"{mutant.name}: runs past {timeout:.0f} s")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


# The survey: every site of a module, mutated at its AST position.
SURVEY = {  # module -> the test files that import it, most kills first
    "model": ("test_model", "test_sweep", "test_differential", "test_metrics",
              "test_inject", "test_acceptance", "test_cli", "test_logio"),
    "sweep": ("test_sweep", "test_cli", "test_acceptance",
              "test_differential", "test_logio"),
    "metrics": ("test_metrics", "test_cli", "test_acceptance", "test_inject",
                "test_differential", "test_logio"),
    "inject": ("test_inject", "test_cli", "test_differential",
               "test_acceptance"),
    "logio": ("test_logio", "test_cli", "test_differential",
              "test_acceptance", "test_boundaries"),
    "cli": ("test_cli", "test_boundaries", "test_differential"),
}
SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
        ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
        ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
        ast.FloorDiv: ast.Mult, ast.And: ast.Or, ast.Or: ast.And}
LITERAL = {0: 1, 1: 0, 2: 3}


class Site(NamedTuple):
    module: str
    lineno: int
    line: str  # the source line where the mutated node starts, stripped
    mutation: str  # "delete", or "old -> new" as ast.unparse prints them
    source: str  # the whole mutated module


class Equivalent(NamedTuple):
    """A survivor that no test can kill: every site it names must survive."""

    module: str
    line: str
    mutation: str
    reason: str


EQUIVALENTS = (
    Equivalent("model",
               "from fractions import Fraction",
               "delete",
               "Fraction is named only in annotations, which are never "
               "evaluated"),
    Equivalent("model",
               "def __init__(self, id, activity, resource, trace_id, start, "
               "end):",
               "delete",
               "the generated __init__ sets the same fields; the hand "
               "mutant 'WorkItem keeps the generated __init__' pins its "
               "cost in test_growth"),
    Equivalent("model",
               "del first_index  # free its keys before the sort makes its "
               "own",
               "delete",
               "frees memory early only: the dict dies at the return"),
    Equivalent("model",
               "if at and _log_order(items[at - 1]) > _log_order(items[at]):",
               "_log_order(items[at - 1]) > _log_order(items[at]) -> "
               "_log_order(items[at - 1]) >= _log_order(items[at])",
               "_log_order keys are unique, so no two compare equal"),
    Equivalent("sweep",
               "_Bound = tuple[Instant, bool, str, WorkItemId, bool]",
               "delete",
               "a type alias named only in annotations"),
    Equivalent("sweep",
               "_Cut = tuple[Instant, Instant, tuple[WorkItemId, ...]]",
               "delete",
               "a type alias named only in annotations"),
    Equivalent("sweep",
               "last = 0",
               "delete",
               "the first bound meets an empty live set, so last is set "
               "before it is read; the line keeps it bound for the reader"),
    Equivalent("sweep",
               "last = 0",
               "0 -> 1",
               "the first bound meets an empty live set, so the first last "
               "is never read"),
    Equivalent("sweep",
               "gains = ((after - time) * (scale // live) if live else 0",
               "0 -> 1",
               "no item spans a gap where nothing is live, so no advance "
               "counts its gain"),
    Equivalent("sweep",
               "clock = dict(zip(times, accumulate(gains, initial=0)))",
               "0 -> 1",
               "a constant offset leaves every clock difference as it is"),
    Equivalent("metrics",
               "reach = end if end > reach else reach",
               "end > reach -> end >= reach",
               "on a tie either side is the larger end"),
    Equivalent("metrics",
               "/ (d if d > duration else duration) for e, d, _ in live]",
               "d > duration -> d >= duration",
               "on a tie either side is the longer duration"),
    Equivalent("metrics",
               "yield [((e if e < end else end) - start)",
               "e < end -> e <= end",
               "on a tie either side is the earlier end"),
    Equivalent("logio",
               "from .metrics import MetricsReport",
               "delete",
               "MetricsReport is named only in annotations, which are never "
               "evaluated"),
    Equivalent("logio",
               "PathLike = Union[str, Path]",
               "delete",
               "a type alias named only in annotations"),
    Equivalent("logio",
               'return _csv_record if quoted else ",".join',
               "_csv_record if quoted else ','.join -> _csv_record",
               "a fast path: _csv_record writes the same text, in 50.9 ms "
               "against 22.8 for 20,000 rows"),
    Equivalent("logio",
               "moment = (datetime.fromisoformat(cleaned)",
               "datetime.fromisoformat(cleaned) if "
               "_PLAIN_ISO.fullmatch(cleaned) else _parse_iso_8601(cleaned) "
               "-> _parse_iso_8601(cleaned)",
               "a fast path: _parse_iso_8601 reads each plain stamp as "
               "fromisoformat does, more slowly"),
    Equivalent("logio",
               'for dd in _TWO_DIGITS[1:32] for sep in "T "}',
               "1 -> 0",
               "a day 00 key sends the stamp to date.fromisoformat, which "
               "refuses day 00 too"),
    Equivalent("logio",
               "for k in range(1, len(str(len(items))))))",
               "1 -> 0",
               "k = 0 gives position 0, which _resorted skips"),
    Equivalent("logio",
               "return (join if type(item.id) is int else _csv_record)(",
               "join if type(item.id) is int else _csv_record -> _csv_record",
               "a fast path: no int id needs quoting, so _csv_record writes "
               "the same head, more slowly"),
    Equivalent("cli",
               "from .model import EventLog",
               "delete",
               "EventLog is named only in annotations, which are never "
               "evaluated"),
)


def key(mutant: Site | Equivalent) -> tuple[str, str, str]:
    return mutant.module, mutant.line, mutant.mutation


def unmatched(these, those) -> list:
    """Each of ``these`` whose key is that of none of ``those``."""
    found = {key(that) for that in those}
    return [this for this in these if key(this) not in found]


def _variants(node: ast.AST, holder: ast.AST, field: str):
    """The replacements of ``node`` that make its mutants; None deletes a
    statement."""
    if isinstance(node, ast.Compare):
        for index, op in enumerate(node.ops):
            if type(op) in SWAP:
                ops = [*node.ops[:index], SWAP[type(op)](),
                       *node.ops[index + 1:]]
                yield ast.Compare(node.left, ops, node.comparators)
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and (
            type(node.op) in SWAP) or (
            isinstance(node, ast.BoolOp) and len(node.values) == 2):
        mutant = copy.copy(node)
        mutant.op = SWAP[type(node.op)]()
        yield mutant
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield node.operand
    elif isinstance(node, ast.Constant) and type(node.value) is int and (
            node.value in LITERAL):
        yield ast.Constant(LITERAL[node.value])
    elif isinstance(node, ast.IfExp):
        yield from (node.body, node.orelse)
    if isinstance(holder, (ast.If, ast.While)) and field == "test":
        yield from (ast.Constant(True), ast.Constant(False))
    if isinstance(node, ast.stmt) and not _inert(node):
        yield None


def _inert(statement: ast.stmt) -> bool:
    """``pass``, a docstring, or an import that only type checkers read."""
    if isinstance(statement, ast.Expr):
        return isinstance(statement.value, ast.Constant) and isinstance(
            statement.value.value, str)
    if isinstance(statement, ast.ImportFrom):
        return statement.module in ("__future__", "typing")
    return isinstance(statement, ast.Pass)


def sites(module: str) -> list[Site]:
    """Every mutant of ``src/sweeplog/<module>.py``, spliced into its text.

    Each replacement is printed by ``ast.unparse`` (in parentheses, for an
    expression) over the node's own span, so comments, layout and every
    other line stay as they are; a deleted statement becomes ``pass``.
    Each spliced text must parse to the module's tree with that one node
    replaced, or this raises.
    """
    text = (ROOT / "src" / "sweeplog" / f"{module}.py").read_text(
        encoding="utf-8")
    data = text.encode("utf-8")  # ast columns count UTF-8 bytes
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    lines = text.splitlines()
    tree = ast.parse(text)
    found = []
    holders = [tree]
    for holder in holders:
        for field, value in ast.iter_fields(holder):
            for index, node in enumerate(
                    value if isinstance(value, list) else [value]):
                if not isinstance(node, ast.AST):
                    continue
                holders.append(node)

                def put(child: ast.AST) -> None:  # in place of node
                    if isinstance(value, list):
                        value[index] = child
                    else:
                        setattr(holder, field, child)

                for new in _variants(node, holder, field):
                    first = getattr(node, "decorator_list", None) or [node]
                    begin = starts[first[0].lineno - 1] + node.col_offset
                    end = starts[node.end_lineno - 1] + node.end_col_offset
                    if new is None:
                        put(ast.Pass())
                        mutation, replacement = "delete", "pass"
                        if data[begin:begin + 5] == b"elif ":  # an else's If
                            replacement = "else: pass"
                    else:
                        put(new)
                        replacement = ast.unparse(new)
                        mutation = f"{ast.unparse(node)} -> {replacement}"
                        if not isinstance(node, ast.stmt):
                            replacement = f"({replacement})"
                    expected = ast.dump(tree)
                    put(node)
                    source = (data[:begin] + replacement.encode("utf-8")
                              + data[end:]).decode("utf-8")
                    if ast.dump(ast.parse(source)) != expected:
                        raise ValueError(
                            f"{module}:{node.lineno}: {mutation} misspliced")
                    found.append(Site(module, node.lineno,
                                      lines[node.lineno - 1].strip(),
                                      mutation, source))
    return found


def _killer(worker: Path, files: list[str], timeout: dict) -> str | None:
    """The first of ``files`` that fails, errs or times out in ``worker``."""
    for file in files:
        result = run_pytest(worker, ["-x", file], timeout[file])
        if result is None or result.returncode != 0:
            return file
    return None


def survey(modules: list[str]) -> int:
    """Run every mutant of ``modules`` against its module's test files;
    1 if one survives that ``EQUIVALENTS`` does not list, or an entry
    names no site or a site a test kills."""
    problems = [f"{name}: no such module" for name in modules
                if name not in SURVEY]
    if problems:
        print(*problems, sep="\n")
        return 1
    began = time.monotonic()
    tests = {name: [f"tests/{file}.py" for file in SURVEY[name]]
             for name in modules}
    mutants = [site for name in modules for site in sites(name)]
    timeout = {}  # each file passes unmutated, in a given time
    for file in dict.fromkeys(f for name in modules for f in tests[name]):
        result, timeout[file] = unmutated([file])
        if result.returncode != 0:
            print(f"{file}: fails without a mutant")
            return 1
    survivors: list[Site] = []
    for site, killer in zip(mutants, each(_killer, [
            (f"{site.module}.py", site.source, tests[site.module], timeout)
            for site in mutants])):
        print(f"killed by {killer}:" if killer else "SURVIVED",
              f"{site.module}:{site.lineno}: {site.mutation}", flush=True)
        if not killer:
            survivors.append(site)
    listed = [entry for entry in EQUIVALENTS if entry.module in modules]
    problems += [f"survives, not a listed equivalent: {site.module}:"
                 f"{site.lineno}: {key(site)}"
                 for site in unmatched(survivors, listed)]
    problems += [f"names no survivor: {key(entry)}"
                 for entry in unmatched(listed, survivors)]
    for problem in problems:
        print(problem)
    print(f"{len(mutants)} mutants of {', '.join(modules)}: "
          f"{len(mutants) - len(survivors)} killed, {len(survivors)} survived"
          f" ({len(listed)} listed equivalents) in "
          f"{(time.monotonic() - began) / 60:.0f} min on {JOBS} workers")
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--survey"]:
        sys.exit(survey(sys.argv[2:] or list(SURVEY)))
    sys.exit(main(sys.argv[1:]))
