"""Output checks for the four subcommands, independent of any seed.

Every check compares a program output with the generated input items
using the benchmark's own readers and its own reference computations
(sort-and-merge busy time, a heap count of overlapped pairs), so none of
them goes through sweeplog.  Each ``check_*`` returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import heapq
import json
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from pathlib import Path

from workloads import Item, parse_ms

MAX_PROBLEMS = 5


def union_busy_ms(items: list[Item]) -> dict[str, int]:
    """Per resource, the measure of the union of its items' intervals."""
    by_resource: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for it in items:
        by_resource[it.resource].append((it.start, it.end))
    busy = {}
    for resource, spans in by_resource.items():
        spans.sort()
        total, cur_start, cur_end = 0, spans[0][0], spans[0][1]
        for start, end in spans[1:]:
            if start > cur_end:
                total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        busy[resource] = total + cur_end - cur_start
    return busy


def overlapped_pair_count(items: list[Item]) -> int:
    """Same-resource pairs whose intersection has positive length."""
    by_resource: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for it in items:
        if it.end > it.start:
            by_resource[it.resource].append((it.start, it.end))
    count = 0
    for spans in by_resource.values():
        spans.sort()
        live: list[int] = []
        for start, end in spans:
            while live and live[0] <= start:
                heapq.heappop(live)
            count += len(live)
            heapq.heappush(live, end)
    return count


def read_csv_items(path: Path) -> list[Item]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return [
        Item(row["case_id"], row["activity"], row["resource"],
             parse_ms(row["start_timestamp"]), parse_ms(row["end_timestamp"]))
        for row in rows
    ]


def read_xes_items(path: Path) -> list[Item]:
    """Fuse start/complete events FIFO per (trace, activity, resource)."""
    items = []
    for trace in ET.parse(path).getroot().iter("trace"):
        case = next(
            child.get("value") for child in trace
            if child.tag == "string" and child.get("key") == "concept:name"
        )
        pending: dict[tuple[str, str], list[int]] = defaultdict(list)
        for event in trace.iter("event"):
            attrs = {child.get("key"): child.get("value") for child in event}
            key = (attrs["concept:name"], attrs["org:resource"])
            stamp = parse_ms(attrs["time:timestamp"])
            if attrs["lifecycle:transition"] == "start":
                pending[key].append(stamp)
            else:
                items.append(Item(case, key[0], key[1], pending[key].pop(0), stamp))
    return items


def read_items(path: Path, fmt: str) -> list[Item]:
    return read_xes_items(path) if fmt == "xes" else read_csv_items(path)


def _capped(problems: list[str]) -> list[str]:
    if len(problems) > MAX_PROBLEMS:
        return problems[:MAX_PROBLEMS] + [f"... {len(problems) - MAX_PROBLEMS} more"]
    return problems


def check_adjust(inputs: list[Item], out: Path, fmt: str) -> list[str]:
    """Same rows and starts, no end later than raw, busy time conserved."""
    output = read_items(out, fmt)
    if len(output) != len(inputs):
        return [f"adjust: {len(output)} rows, expected {len(inputs)}"]
    problems = []
    raw_ends: dict[tuple, list[int]] = defaultdict(list)
    new_ends: dict[tuple, list[int]] = defaultdict(list)
    for it in inputs:
        raw_ends[it[:4]].append(it.end)
    for it in output:
        new_ends[it[:4]].append(it.end)
    if raw_ends.keys() != new_ends.keys() or any(
        len(raw_ends[k]) != len(new_ends[k]) for k in raw_ends
    ):
        return ["adjust: (case, activity, resource, start) multiset changed"]
    # Pairing both sides in sorted order finds a matching with every
    # adjusted end <= its raw end whenever any such matching exists.
    for key, ends in raw_ends.items():
        for raw, new in zip(sorted(ends), sorted(new_ends[key])):
            if new > raw:
                problems.append(f"adjust: {key} ends at {new}, after raw end {raw}")
    adjusted: Counter = Counter()
    rows: Counter = Counter()
    for it in output:
        adjusted[it.resource] += it.end - it.start
        rows[it.resource] += 1
    for resource, busy in union_busy_ms(inputs).items():
        if abs(adjusted[resource] - busy) > rows[resource] / 2:
            problems.append(
                f"adjust: {resource} durations sum to {adjusted[resource]} ms, "
                f"busy time is {busy} ms"
            )
    return _capped(problems)


def check_aux(inputs: list[Item], out: Path) -> list[str]:
    """Per resource, rounded share durations add up to the busy time."""
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    total: Counter = Counter()
    count: Counter = Counter()
    for row in rows:
        total[row["resource"]] += int(row["duration_ms"])
        count[row["resource"]] += 1
    problems = []
    for resource, busy in union_busy_ms(inputs).items():
        if abs(total[resource] - busy) > count[resource] / 2:
            problems.append(
                f"aux: {resource} shares sum to {total[resource]} ms "
                f"over {count[resource]} rows, busy time is {busy} ms"
            )
    return _capped(problems)


def check_metrics(inputs: list[Item], report_path: Path) -> list[str]:
    """Indexes lie in [0, 1]; the overlapped-pair count is exact."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    problems = [
        f"metrics: {key} = {report.get(key)!r} outside [0, 1]"
        for key in ("mtli", "mtwii")
        if not isinstance(report.get(key), (int, float))
        or not 0 <= report[key] <= 1
    ]
    expected = overlapped_pair_count(inputs)
    if report.get("counts.pairs_overlapped") != expected:
        problems.append(
            f"metrics: counts.pairs_overlapped = "
            f"{report.get('counts.pairs_overlapped')!r}, expected {expected}"
        )
    return problems


def check_inject(inputs: list[Item], out: Path, fmt: str) -> list[str]:
    """Same rows and durations; at most half of the rows moved."""
    output = read_items(out, fmt)
    if len(output) != len(inputs):
        return [f"inject: {len(output)} rows, expected {len(inputs)}"]

    def shape(it: Item) -> tuple:
        return (it.case, it.activity, it.resource, it.end - it.start)

    if Counter(map(shape, inputs)) != Counter(map(shape, output)):
        return ["inject: (case, activity, resource, duration) multiset changed"]
    moved = sum(
        (Counter(it[:4] for it in output) - Counter(it[:4] for it in inputs)).values()
    )
    if moved > len(inputs) // 2:
        return [f"inject: {moved} of {len(inputs)} rows moved, at most half may"]
    return []
