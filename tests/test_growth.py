"""Growth gates: the kernels that are linear stay linear.

A fixed wall-clock bound cannot tell linear from quadratic on a shared,
noisy host; the ratio of two sizes timed in one process can.  Each kernel
runs on a chain log (adjacent items on ten resources) of 5,000 and 20,000
items.  The sizes alternate, five rounds each, and the best CPU time of
each size is kept.  A 4x larger input must cost less than 8x: linear work
gives about 4 and n log n about 4.6, while quadratic work gives 16.
``write_aux`` of a chain writes each item as its one share, with no id
sweep, since no resource of it ever runs two items at once.
``summarize`` and ``adjust_log`` have no gate yet: both still grow
quadratically with the live count on nested logs.  The span gate times
``parse_timestamp`` the same way on 40,000 written-form stamps within one
month and 40,000 spread over 1990-2030, and the wide set must cost less
than 1.5x the narrow one: a cache of days would miss on the wide set.
The construction gate builds 20,000 items through ``WorkItem`` and through
a slotted copy that keeps the generated ``__init__``, alternating, fifteen
rounds each, and ``WorkItem``'s best must take less than 0.8x the copy's:
the generated ``__init__`` calls ``object.__setattr__`` once per field.
"""

import gc
import random
import time
from dataclasses import fields, make_dataclass
from operator import attrgetter

import pytest

from sweeplog.inject import inject
from sweeplog.logio import (format_timestamp, parse_timestamp, read_csv,
                            read_xes, write_aux, write_csv, write_xes)
from sweeplog.model import WorkItem, segments_per_resource

from helpers import CHAIN_RESOURCES, chain_log

SIZES = (5_000, 20_000)
ROUNDS = 5
SLOT_ROUNDS = 15  # a noisy host moves a ratio of two builds more than growth
BOUND = 8


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("growth")
    made = {}
    for count in SIZES:
        log = chain_log(count)
        write_csv(log, folder / f"in{count}.csv")
        write_xes(log, folder / f"in{count}.xes")
        made[count] = log, folder / f"in{count}.csv", folder / f"in{count}.xes"
    return folder, made


KERNELS = {
    "read_csv": lambda log, csv, xes, out: read_csv(csv),
    "read_xes": lambda log, csv, xes, out: read_xes(xes),
    "write_aux": lambda log, csv, xes, out: write_aux(log, out / "aux.csv"),
    "write_csv": lambda log, csv, xes, out: write_csv(log, out / "o.csv"),
    "write_xes": lambda log, csv, xes, out: write_xes(log, out / "o.xes"),
    "inject": lambda log, csv, xes, out: inject(log, 0.1),
}


def best_cpu_seconds(kernel, inputs):
    folder, made = inputs
    best = {count: float("inf") for count in SIZES}
    for _ in range(ROUNDS):
        for count in SIZES:
            gc.collect()
            began = time.process_time()
            kernel(*made[count], folder)
            best[count] = min(best[count], time.process_time() - began)
    return best


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_grows_linearly(inputs, name):
    best = best_cpu_seconds(KERNELS[name], inputs)
    small, large = SIZES
    ratio = best[large] / best[small]
    assert ratio < BOUND, f"{name}: {large} items took {ratio:.2f}x {small}"


def test_parse_timestamp_costs_the_same_over_any_span():
    def written(first, last, seed):
        low, high = parse_timestamp(first), parse_timestamp(last)
        rng = random.Random(seed)
        return [format_timestamp(rng.randrange(low, high))
                for _ in range(40_000)]

    spans = {"month": written("2024-01-01T00:00:00.000Z",
                              "2024-02-01T00:00:00.000Z", 1),
             "decades": written("1990-01-01T00:00:00.000Z",
                                "2030-01-01T00:00:00.000Z", 2)}
    best = dict.fromkeys(spans, float("inf"))
    for _ in range(ROUNDS):
        for name, texts in spans.items():
            gc.collect()
            began = time.process_time()
            for text in texts:
                parse_timestamp(text)
            best[name] = min(best[name], time.process_time() - began)
    ratio = best["decades"] / best["month"]
    assert ratio < 1.5, f"1990-2030 took {ratio:.2f}x one month"


def test_work_items_build_through_their_slots():
    generated = make_dataclass(
        "WorkItem", [(field.name, field.type) for field in fields(WorkItem)],
        frozen=True, slots=True)
    values = attrgetter(*generated.__slots__)
    rows = [values(item) for item in chain_log(20_000).items]
    best = {WorkItem: float("inf"), generated: float("inf")}
    for _ in range(SLOT_ROUNDS):
        for kind in best:
            gc.collect()
            began = time.process_time()
            built = [kind(*row) for row in rows]
            best[kind] = min(best[kind], time.process_time() - began)
            del built  # freed outside the timed build
    ratio = best[WorkItem] / best[generated]
    assert ratio < 0.8, f"WorkItem took {ratio:.2f}x the generated __init__"


def test_the_chain_log_is_adjacent():
    log = chain_log(100)
    segments = segments_per_resource(log)
    assert len(segments) == CHAIN_RESOURCES
    for items in (segment.items for segment in segments):
        assert all(a.end == b.start for a, b in zip(items, items[1:]))
    assert inject(log, 0.1) != log
