"""Golden determinism for the async engine: same seed, same bytes.

Two runs of the identical (workload seed, tie-break seed, queue depth)
configuration must produce byte-identical metrics JSON and identical
trace rings — at QD 1, 4 and 32, on both device kinds.  This is the
regression net under the scheduler: any hidden iteration-order or
id()-keyed nondeterminism in the loop shows up here first.
"""

import pytest

from repro.nvme.engine import AsyncNVMeEngine
from repro.sched.core import SeededTieBreak

from tests.conftest import make_regular_ssd, make_timessd
from tests.sched.conftest import run_rings

MAKERS = {"regular": make_regular_ssd, "timessd": make_timessd}


def run_once(kind, queue_depth, seed):
    ssd = MAKERS[kind](tracing=True)
    engine = AsyncNVMeEngine(
        ssd, queue_depth=queue_depth, tie_break=SeededTieBreak(seed)
    )
    run_rings(
        engine,
        seed,
        rings=4,
        ring_size=28,
        span=ssd.logical_pages // 3,
        gap_us=30_000,
    )
    return (
        ssd.obs.metrics.to_json(indent=2),
        ssd.obs.trace.drain(),
        ssd.obs.trace.dropped,
    )


class TestGoldenAcrossQueueDepths:
    @pytest.mark.parametrize("kind", sorted(MAKERS))
    @pytest.mark.parametrize("queue_depth", [1, 4, 32])
    def test_two_runs_byte_identical(self, kind, queue_depth):
        first = run_once(kind, queue_depth, seed=7)
        second = run_once(kind, queue_depth, seed=7)
        assert first[0] == second[0]  # metrics JSON, byte-for-byte
        assert first[1] == second[1]  # full trace ring incl. sched events
        assert first[2] == second[2]  # dropped count

    def test_sched_events_present_in_trace(self):
        _metrics, events, _dropped = run_once("timessd", 4, seed=7)
        categories = {event["cat"] for event in events}
        assert "sched" in categories

    def test_different_workload_seeds_diverge(self):
        assert run_once("regular", 4, seed=1)[0] != run_once(
            "regular", 4, seed=2
        )[0]
