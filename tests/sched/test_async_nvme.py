"""The event-driven NVMe engine: overlap, ordering, and QD=1 equivalence."""

import json
import random

import pytest

from repro.nvme.commands import NVMeCommand, Opcode, StatusCode
from repro.nvme.controller import NVMeController
from repro.nvme.driver import HostNVMeDriver
from repro.nvme.engine import AsyncNVMeEngine
from repro.sched.core import SeededTieBreak

from tests.conftest import make_flashguard_ssd, make_regular_ssd, make_timessd


def write_cmds(count, stride=1, start=0):
    return [
        NVMeCommand(Opcode.WRITE, slba=(start + i * stride), nlb=1)
        for i in range(count)
    ]


def strip_engine_gauges(snapshot):
    """Engine-only gauges exist only on the async path; drop them when
    comparing against a synchronous run."""
    gauges = {
        name: value
        for name, value in snapshot["gauges"].items()
        if not name.startswith("nvme.engine.")
    }
    out = dict(snapshot)
    out["gauges"] = gauges
    return out


class TestOutOfOrderCompletion:
    def test_short_read_completes_before_long_write(self):
        ssd = make_regular_ssd()
        engine = AsyncNVMeEngine(ssd, queue_depth=2)
        # Seed lba 9 so the read hits mapped flash.
        engine.process([NVMeCommand(Opcode.WRITE, slba=9, nlb=1)])
        engine.process(
            [
                NVMeCommand(Opcode.WRITE, slba=0, nlb=1),  # cid 1: ~program_us
                NVMeCommand(Opcode.READ, slba=9, nlb=1),  # cid 2: ~read_us
            ]
        )
        log = engine.completion_log()
        order = [cid for cid, _status, _t in log]
        # cid 2 (read) posts before cid 1 (write): genuine out-of-order.
        assert order.index(2) < order.index(1)
        post_times = {cid: t for cid, _status, t in log}
        assert post_times[2] < post_times[1]

    def test_results_still_return_in_submission_order(self):
        ssd = make_regular_ssd()
        engine = AsyncNVMeEngine(ssd, queue_depth=4)
        payloads = [b"p%d" % i for i in range(16)]
        engine.process(
            [
                NVMeCommand(Opcode.WRITE, slba=i, nlb=1, data=[payloads[i]])
                for i in range(16)
            ]
        )
        completions, _ = engine.process(
            [NVMeCommand(Opcode.READ, slba=i, nlb=1) for i in range(16)]
        )
        assert [c.result[0] for c in completions] == payloads

    def test_inflight_overlap_at_depth(self):
        ssd = make_regular_ssd()
        engine = AsyncNVMeEngine(ssd, queue_depth=4)
        engine.process(write_cmds(64))
        assert engine.inflight_max >= 2

    def test_multi_queue_pairs_round_robin(self):
        ssd = make_regular_ssd()
        engine = AsyncNVMeEngine(ssd, queue_depth=2, queue_pairs=2)
        completions, _ = engine.process(write_cmds(32))
        assert len(completions) == 32
        assert all(c.ok for c in completions)
        assert all(pair.submitted == 16 for pair in engine.pairs)
        assert all(pair.posted == 16 for pair in engine.pairs)


class TestStatusMapping:
    def test_out_of_range_and_invalid_commands(self):
        ssd = make_regular_ssd()
        engine = AsyncNVMeEngine(ssd, queue_depth=4)
        completions, _ = engine.process(
            [
                NVMeCommand(Opcode.WRITE, slba=0, nlb=1),
                NVMeCommand(Opcode.READ, slba=ssd.logical_pages, nlb=1),
                NVMeCommand(Opcode.FLUSH),  # host-serial; not queueable
                NVMeCommand(Opcode.WRITE, slba=0, nlb=0),
            ]
        )
        assert [c.status for c in completions] == [
            StatusCode.SUCCESS,
            StatusCode.LBA_OUT_OF_RANGE,
            StatusCode.INVALID_OPCODE,
            StatusCode.INVALID_FIELD,
        ]

    def test_failed_command_does_not_advance_time(self):
        ssd = make_regular_ssd()
        engine = AsyncNVMeEngine(ssd, queue_depth=1)
        before = ssd.clock.now_us
        _, elapsed = engine.process(
            [NVMeCommand(Opcode.READ, slba=ssd.logical_pages + 5, nlb=1)]
        )
        assert elapsed == 0
        assert ssd.clock.now_us == before

    def test_engine_rejects_degenerate_shapes(self):
        ssd = make_regular_ssd()
        with pytest.raises(ValueError):
            AsyncNVMeEngine(ssd, queue_depth=0)
        with pytest.raises(ValueError):
            AsyncNVMeEngine(ssd, queue_pairs=0)


def strip_nvme_metrics(snapshot):
    """The sync API emits no ``nvme.*`` metrics; drop them (and the
    engine gauges) when comparing an NVMe run against it."""
    return {
        kind: {
            name: value
            for name, value in metrics.items()
            if not name.startswith("nvme.")
        }
        for kind, metrics in snapshot.items()
    }


def snapshot_json(snapshot):
    return json.dumps(snapshot, sort_keys=True)


def make_ckpt_timessd():
    return make_timessd(checkpoint_interval_blocks=1)


def bursty_stream(span, max_nlb, bursts, seed=5):
    """Bursts of mixed commands of 1..``max_nlb`` pages separated by idle
    gaps, some long enough for the idle predictor to open housekeeping
    windows."""
    rng = random.Random(seed)
    out = []
    token = 0
    for _ in range(bursts):
        burst = []
        for _ in range(rng.randint(1, 6)):
            roll = rng.random()
            nlb = rng.randint(1, max_nlb)
            slba = rng.randrange(span - nlb)
            if roll < 0.55:
                data = [b"t%d" % (token + i) for i in range(nlb)]
                token += nlb
                burst.append(NVMeCommand(Opcode.WRITE, slba=slba, nlb=nlb, data=data))
            elif roll < 0.85:
                burst.append(NVMeCommand(Opcode.READ, slba=slba, nlb=nlb))
            else:
                burst.append(NVMeCommand(Opcode.DSM, slba=slba, nlb=nlb))
        out.append((burst, rng.choice((0, 500, 15_000, 40_000))))
    return out


def run_sync_api(ssd, stream):
    for burst, gap_us in stream:
        for command in burst:
            if command.opcode is Opcode.WRITE:
                ssd.write_range(command.slba, command.nlb, command.data)
            elif command.opcode is Opcode.READ:
                ssd.read_range(command.slba, command.nlb)
            else:
                for i in range(command.nlb):
                    ssd.trim(command.slba + i)
        ssd.clock.advance(gap_us)
    return []


def run_submit(ssd, stream):
    controller = NVMeController(ssd)
    statuses = []
    for burst, gap_us in stream:
        statuses.extend(controller.submit(command).status for command in burst)
        ssd.clock.advance(gap_us)
    return statuses


def run_submit_batch(ssd, stream):
    driver = HostNVMeDriver(ssd)
    statuses = []
    for burst, gap_us in stream:
        done, _ = driver.submit_batch(burst, queue_depth=1)
        statuses.extend(c.status for c in done)
        ssd.clock.advance(gap_us)
    return statuses


def run_async_qd1(ssd, stream):
    engine = AsyncNVMeEngine(ssd, queue_depth=1)
    statuses = []
    for burst, gap_us in stream:
        done, _ = engine.process(burst)
        statuses.extend(c.status for c in done)
        ssd.clock.advance(gap_us)
    return statuses


HOST_PATHS = (
    ("sync", run_sync_api),
    ("submit", run_submit),
    ("batch", run_submit_batch),
    ("async", run_async_qd1),
)


def run_paths(maker, max_nlb, bursts, paths):
    """Drive one bursty stream through each path on a fresh device;
    returns ``{path: metrics_snapshot()}``."""
    stream = bursty_stream(maker().logical_pages // 2, max_nlb, bursts)
    runs = {}
    for name, run in paths:
        ssd = maker()
        statuses = run(ssd, stream)
        assert all(status is StatusCode.SUCCESS for status in statuses)
        runs[name] = ssd.metrics_snapshot()
    return runs


class TestQD1MatchesSynchronousBatch:
    @pytest.mark.parametrize("maker", [make_regular_ssd, make_timessd])
    def test_same_elapsed_statuses_and_metrics(self, maker):
        def workload():
            cmds = []
            for i in range(150):
                cmds.append(NVMeCommand(Opcode.WRITE, slba=i % 48, nlb=2))
            for i in range(40):
                cmds.append(NVMeCommand(Opcode.READ, slba=i, nlb=1))
            cmds.append(NVMeCommand(Opcode.DSM, slba=0, nlb=4))
            return cmds

        sync_ssd, async_ssd, submit_ssd = maker(), maker(), maker()
        sync_out = HostNVMeDriver(sync_ssd).submit_batch(
            workload(), queue_depth=1
        )
        async_out = HostNVMeDriver(async_ssd).submit_async(
            workload(), queue_depth=1
        )
        controller = NVMeController(submit_ssd)
        start = submit_ssd.clock.now_us
        submit_statuses = [controller.submit(c).status for c in workload()]
        assert sync_out[1] == async_out[1]  # elapsed_us
        assert submit_ssd.clock.now_us - start == sync_out[1]
        assert [c.status for c in sync_out[0]] == [
            c.status for c in async_out[0]
        ]
        assert submit_statuses == [c.status for c in sync_out[0]]
        sync_snap = snapshot_json(strip_engine_gauges(sync_ssd.metrics_snapshot()))
        async_snap = strip_engine_gauges(async_ssd.metrics_snapshot())
        assert sync_snap == snapshot_json(async_snap)
        assert sync_snap == snapshot_json(submit_ssd.metrics_snapshot())

    @pytest.mark.parametrize(
        "maker", [make_regular_ssd, make_ckpt_timessd, make_flashguard_ssd]
    )
    def test_every_host_path_is_one_core(self, maker):
        # Single-page commands: the sync API's write/read/trim unit.
        runs = run_paths(maker, max_nlb=1, bursts=1200, paths=HOST_PATHS)
        counters = runs["sync"]["counters"]
        # The stream really exercises admission: foreground and idle
        # GC and (on the checkpointing TimeSSD) recovery checkpoints.
        assert counters["gc.runs"] > 0
        assert counters["gc.background_runs"] > 0
        if maker is make_ckpt_timessd:
            assert counters["recovery.checkpoint.written"] > 0
        nvme = snapshot_json(runs["submit"])
        assert snapshot_json(runs["batch"]) == nvme
        assert snapshot_json(strip_engine_gauges(runs["async"])) == nvme
        assert snapshot_json(strip_nvme_metrics(runs["sync"])) == snapshot_json(
            strip_nvme_metrics(runs["submit"])
        )

    @pytest.mark.parametrize(
        "maker", [make_regular_ssd, make_ckpt_timessd, make_flashguard_ssd]
    )
    def test_nvme_paths_agree_on_multi_page_commands(self, maker):
        runs = run_paths(maker, max_nlb=3, bursts=600, paths=HOST_PATHS[1:])
        nvme = snapshot_json(runs["submit"])
        assert snapshot_json(runs["batch"]) == nvme
        assert snapshot_json(strip_engine_gauges(runs["async"])) == nvme


class TestBackgroundDaemons:
    def test_background_daemons_relieve_pool_pressure(self):
        # Sustained overwrite churn with idle gaps between rings: the
        # clock only moves while the loop runs, and both bloom-segment
        # rolls and retention expiry age in device time.  A short floor
        # lets history expire instead of filling the device.  Background
        # work runs in the predicted-idle windows at each ring's
        # admission, as on the sync path.
        ssd = make_timessd(retention_floor_us=10**4)
        engine = AsyncNVMeEngine(ssd, queue_depth=4)
        for _round in range(30):
            completions, _ = engine.process(
                [
                    NVMeCommand(Opcode.WRITE, slba=i % 256, nlb=1)
                    for i in range(128)
                ]
            )
            assert all(c.ok for c in completions)
            ssd.clock.advance(300_000)
        snap = ssd.metrics_snapshot()
        # Background work was real: idle-window GC rounds ran, the
        # Equation-1 estimator shrank the retention window, and the
        # device survived 15x-capacity churn with its free pool intact.
        assert snap["counters"]["gc.background_runs"] > 0
        assert snap["counters"]["timessd.retention.shrinks"] > 0
        assert ssd.block_manager.free_block_count > 0

    def test_tie_break_changes_schedule_not_results(self):
        results = []
        for seed in (3, 11):
            ssd = make_timessd()
            engine = AsyncNVMeEngine(
                ssd, queue_depth=8, tie_break=SeededTieBreak(seed)
            )
            engine.process(write_cmds(64))
            completions, _ = engine.process(
                [NVMeCommand(Opcode.READ, slba=i, nlb=1) for i in range(64)]
            )
            results.append([c.result[0] for c in completions])
        assert results[0] == results[1]
