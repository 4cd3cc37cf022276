"""Seeded synthetic event logs for the benchmark, written without sweeplog.

Each workload is a fixed log shape; the seed only varies the random draws.
Files are written with :mod:`csv` and :mod:`xml.etree` directly, never
through ``sweeplog.logio``, so a change to the program's reader or writer
cannot change the benchmark's inputs.  The same spec and seed always give
byte-identical files.

Timestamps carry millisecond detail (``...T08:15:02.347Z``) so that the
program's parsing and formatting of fractional seconds runs on every row.
"""

from __future__ import annotations

import csv
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import NamedTuple

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
BASE_MS = 1_609_459_200_000  # 2021-01-01T00:00:00Z
MIN_DURATION_MS = 1_000
MAX_DURATION_MS = 2_000_000
MEAN_DURATION_MS = (MIN_DURATION_MS + MAX_DURATION_MS) / 2
ACTIVITIES = tuple(f"task-{k:02d}" for k in range(12))
ITEMS_PER_CASE = 5


class Item(NamedTuple):
    """One generated work item; times are epoch milliseconds."""

    case: str
    activity: str
    resource: str
    start: int
    end: int


@dataclass(frozen=True)
class WorkloadSpec:
    """The shape of one workload's input log.

    ``concurrency`` is the target mean number of live items per resource;
    0 makes each resource a sequential chain in which a fraction
    ``adjacency`` of items starts exactly where its predecessor ends.
    ``instant_frac`` and ``tie_frac`` add instantaneous items and items
    that start exactly with their predecessor (concurrent shapes only).
    """

    name: str
    fmt: str
    resources: int
    items_per_resource: int
    concurrency: float = 0.0
    adjacency: float = 0.0
    instant_frac: float = 0.0
    tie_frac: float = 0.0


WORKLOADS = {
    spec.name: spec
    for spec in (
        # Clean many-resource log, the input `inject` is meant for: cost
        # sits in I/O, validation and coalescing, not in the sweep.
        WorkloadSpec("sparse_clean", "csv", 1_000, 20, adjacency=0.6),
        # Heavy multitasking on few resources: the sweep, the share table
        # and the all-pairs metrics dominate; I/O is negligible.
        WorkloadSpec("dense_few", "csv", 4, 600, concurrency=16.0,
                     instant_frac=0.01, tie_frac=0.01),
        # Moderate overlap in XES: the XES reader and writer dominate.
        WorkloadSpec("xes_moderate", "xes", 200, 50, concurrency=2.5),
    )
}


def _chain(rng: random.Random, resource: str, spec: WorkloadSpec) -> list[tuple]:
    items = []
    clock = BASE_MS + rng.randrange(86_400_000)
    for _ in range(spec.items_per_resource):
        end = clock + rng.randint(MIN_DURATION_MS, MAX_DURATION_MS)
        items.append((resource, clock, end))
        clock = end
        if rng.random() >= spec.adjacency:
            clock += rng.randint(1_000, 600_000)
    return items


def _concurrent(rng: random.Random, resource: str, spec: WorkloadSpec) -> list[tuple]:
    # Mean start gap = mean duration / concurrency keeps about
    # `concurrency` items live at once.  A start never equals an earlier
    # end, so no two items of a resource are adjacent.
    max_gap = int(2 * MEAN_DURATION_MS / spec.concurrency)
    items = []
    ends: set[int] = set()
    clock = BASE_MS + rng.randrange(86_400_000)
    for _ in range(spec.items_per_resource):
        if not items or rng.random() >= spec.tie_frac:
            clock += rng.randint(1, max_gap)
        while clock in ends:
            clock += 1
        if rng.random() < spec.instant_frac:
            end = clock
        else:
            end = clock + rng.randint(MIN_DURATION_MS, MAX_DURATION_MS)
            ends.add(end)
        items.append((resource, clock, end))
    return items


def generate(spec: WorkloadSpec, seed: int) -> list[Item]:
    """Draw the workload's items from ``seed``.

    Items are grouped into cases of five, each case drawn across
    resources, with distinct activities inside a case so that XES
    start/complete events fuse unambiguously.
    """
    rng = random.Random(f"{spec.name}:{seed}")
    shape = _concurrent if spec.concurrency else _chain
    raw = []
    for r in range(spec.resources):
        raw.extend(shape(rng, f"res-{r:04d}", spec))
    rng.shuffle(raw)
    items = []
    for first in range(0, len(raw), ITEMS_PER_CASE):
        chunk = raw[first:first + ITEMS_PER_CASE]
        case = f"case-{first // ITEMS_PER_CASE:06d}"
        for activity, (resource, start, end) in zip(
            rng.sample(ACTIVITIES, len(chunk)), chunk
        ):
            items.append(Item(case, activity, resource, start, end))
    items.sort(key=lambda it: (it.case, it.start, it.activity))
    return items


def format_ms(ms: int) -> str:
    moment = EPOCH + timedelta(milliseconds=ms)
    return f"{moment:%Y-%m-%dT%H:%M:%S}.{ms % 1000:03d}Z"


def parse_ms(text: str) -> int:
    """ISO-8601 (with ``Z`` or an offset; naive is UTC) to epoch ms."""
    moment = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return (moment - EPOCH) // timedelta(milliseconds=1)


def write_csv(items: list[Item], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ("case_id", "activity", "resource", "start_timestamp", "end_timestamp")
        )
        for it in items:
            writer.writerow(
                (it.case, it.activity, it.resource,
                 format_ms(it.start), format_ms(it.end))
            )


def write_xes(items: list[Item], path: Path) -> None:
    """One trace per case; per item a start and a complete event, by time."""
    root = ET.Element("log", {"xes.version": "1849.2016"})
    by_case: dict[str, list[Item]] = {}
    for it in items:
        by_case.setdefault(it.case, []).append(it)
    for case in sorted(by_case):
        trace = ET.SubElement(root, "trace")
        ET.SubElement(trace, "string", key="concept:name", value=case)
        events = sorted(
            [(it.start, 0, it, "start") for it in by_case[case]]
            + [(it.end, 1, it, "complete") for it in by_case[case]],
            key=lambda e: e[:2],
        )
        for stamp, _, it, transition in events:
            event = ET.SubElement(trace, "event")
            ET.SubElement(event, "string", key="concept:name", value=it.activity)
            ET.SubElement(event, "string", key="org:resource", value=it.resource)
            ET.SubElement(event, "string", key="lifecycle:transition",
                          value=transition)
            ET.SubElement(event, "date", key="time:timestamp",
                          value=format_ms(stamp))
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)


def write_log(items: list[Item], fmt: str, path: Path) -> None:
    (write_xes if fmt == "xes" else write_csv)(items, path)
