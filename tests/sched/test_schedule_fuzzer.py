"""Seeded schedule fuzzer: permuted tie-breaking vs a differential oracle.

Each seed drives the *same* ring workload through a RegularSSD and a
TimeSSD, with :class:`SeededTieBreak` permuting every same-timestamp
scheduling decision (slot-worker fetches and wakeups).  Because rings
never alias an LBA, every schedule the loop can produce must agree
with the plain-dict model:

* read-your-writes inside every ring (checked as rings drain),
* final device contents == model on both devices,
* both devices return identical per-command status streams,
* the retention floor is never violated no matter where retention
  shrinks landed in the schedule.
"""

import pytest

from repro.nvme.engine import AsyncNVMeEngine
from repro.sched.core import SeededTieBreak

from tests.conftest import make_regular_ssd, make_timessd
from tests.sched.conftest import readback, run_rings

SEEDS = range(20)
#: Seeds 20-49 run only under ``-m slow`` (nightly / local soak); the
#: CI smoke keeps the original 20 so wall-clock stays flat.
EXTENDED_SEEDS = range(20, 50)
RETENTION_FLOOR_US = 10**4


def fuzz_device(ssd, seed):
    engine = AsyncNVMeEngine(
        ssd,
        queue_depth=1 + seed % 8,
        queue_pairs=1 + seed % 2,
        tie_break=SeededTieBreak(seed),
    )
    span = ssd.logical_pages // 3
    model, statuses = run_rings(
        engine, seed, rings=6, ring_size=24, span=span, gap_us=40_000
    )
    final = readback(engine, model)
    return model, statuses, final


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_oracle_across_schedules(seed):
    regular, timessd = make_regular_ssd(), make_timessd(
        retention_floor_us=RETENTION_FLOOR_US
    )
    # Identical LBA span so both devices see the identical command
    # sequence regardless of their over-provisioning split.
    span_guard = min(regular.logical_pages, timessd.logical_pages) // 3
    outputs = []
    for ssd in (regular, timessd):
        assert ssd.logical_pages // 3 >= span_guard
        model, statuses, final = fuzz_device(ssd, seed)
        # Oracle 1: final contents equal the model exactly.
        assert final == model
        outputs.append((model, statuses))
    # Oracle 2: both devices agree command-for-command.
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    # Oracle 3: however the schedule interleaved expiry, the floor held.
    shrinks = timessd.metrics_snapshot()["counters"][
        "timessd.retention.shrinks"
    ]
    if shrinks:
        assert timessd.retention_window_us() >= RETENTION_FLOOR_US


@pytest.mark.slow
@pytest.mark.parametrize("seed", EXTENDED_SEEDS)
def test_differential_oracle_extended_seeds(seed):
    test_differential_oracle_across_schedules(seed)


def test_distinct_seeds_explore_distinct_schedules():
    # The fuzzer is useless if every seed replays the FIFO order; the
    # completion order is schedule-dependent (worker wakeups at equal
    # timestamps), so require at least two seeds to disagree on the
    # dispatch trace shape.
    signatures = set()
    for seed in range(8):
        ssd = make_timessd(retention_floor_us=RETENTION_FLOOR_US)
        engine = AsyncNVMeEngine(
            ssd, queue_depth=6, tie_break=SeededTieBreak(seed)
        )
        run_rings(engine, 99, rings=3, ring_size=24,
                  span=ssd.logical_pages // 3, gap_us=25_000)
        signatures.add(
            (
                engine.completion_log()[0][0],
                tuple(cid for cid, _s, _t in engine.completion_log()[:12]),
            )
        )
    assert len(signatures) > 1
