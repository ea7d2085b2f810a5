"""One host-request core: every frontend gets the same admission and
accounting as the synchronous API.

``BaseSSD.serve_write_at/serve_read_at/serve_trim_at`` are the only host
core; ``write/read/trim``, the NVMe controller, the async engine and
TimeKits restore all go through them.  Each test here pins one behaviour
that once diverged between the sync API and NVMe submission.
"""

import pytest

from repro.nvme.commands import NVMeCommand, Opcode, StatusCode
from repro.nvme.controller import NVMeController

from tests.conftest import (
    fill_and_churn,
    make_flashguard_ssd,
    make_regular_ssd,
    make_timessd,
)

MAKERS = {"regular": make_regular_ssd, "timessd": make_timessd}
ALL_MAKERS = dict(MAKERS, flashguard=make_flashguard_ssd)


def single_writes(ssd, count):
    return [
        NVMeCommand(Opcode.WRITE, slba=i % (ssd.logical_pages // 2), nlb=1)
        for i in range(count)
    ]


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_nvme_writes_reach_the_host_counters(kind):
    sync, nvme = MAKERS[kind](), MAKERS[kind]()
    for command in single_writes(sync, 445):
        sync.write(command.slba)
    NVMeController(nvme).submit_batch(single_writes(nvme, 445), queue_depth=1)
    for ssd in (sync, nvme):
        assert ssd.metrics_snapshot()["counters"]["ftl.host_writes"] == 445
        assert ssd.host_pages_written == 445


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_nvme_writes_trigger_checkpoints(kind):
    sync = MAKERS[kind](checkpoint_interval_blocks=1)
    nvme = MAKERS[kind](checkpoint_interval_blocks=1)
    for command in single_writes(sync, 445):
        sync.write(command.slba)
    NVMeController(nvme).submit_batch(single_writes(nvme, 445), queue_depth=1)
    written = [
        ssd.metrics_snapshot()["counters"]["recovery.checkpoint.written"]
        for ssd in (sync, nvme)
    ]
    assert written[0] > 0
    assert written[0] == written[1]


@pytest.mark.parametrize("kind", sorted(MAKERS))
@pytest.mark.parametrize("clear", [Opcode.WRITE, Opcode.DSM])
def test_nvme_rewrite_or_trim_clears_a_lost_lpa(kind, clear):
    ssd = MAKERS[kind]()
    controller = NVMeController(ssd)
    controller.submit(NVMeCommand(Opcode.WRITE, slba=7, nlb=1, data=[b"v1"]))
    ssd.note_lost_valid_page(ssd.mapping.lookup(7))
    read = NVMeCommand(Opcode.READ, slba=7, nlb=1)
    assert controller.submit(read).status is StatusCode.MEDIA_UNRECOVERED_READ
    data = [b"v2"] if clear is Opcode.WRITE else None
    assert controller.submit(NVMeCommand(clear, slba=7, nlb=1, data=data)).ok
    completion = controller.submit(read)
    assert completion.ok
    assert completion.result == [data[0] if data else None]
    assert 7 not in ssd.lost_lpas


@pytest.mark.parametrize("kind", sorted(ALL_MAKERS))
def test_gc_round_counters_match_the_snapshot(kind):
    ssd = ALL_MAKERS[kind]()
    fill_and_churn(ssd, ssd.logical_pages // 2, 1500)
    counters = ssd.metrics_snapshot()["counters"]
    assert ssd.gc_runs > 0
    assert counters["gc.runs"] == ssd.gc_runs
    assert counters["gc.background_runs"] == ssd.background_gc_runs
    assert counters["ftl.host_writes"] == ssd.host_pages_written
    assert counters["ftl.host_reads"] == ssd.host_pages_read


def test_flashguard_retains_read_then_overwritten_pages_under_nvme():
    def read_then_overwrite(count):
        commands = []
        for lpa in range(count):
            commands.append(NVMeCommand(Opcode.WRITE, slba=lpa, nlb=1, data=[b"p"]))
            commands.append(NVMeCommand(Opcode.READ, slba=lpa, nlb=1))
            commands.append(NVMeCommand(Opcode.WRITE, slba=lpa, nlb=1, data=[b"c"]))
        return commands

    sync, nvme = make_flashguard_ssd(), make_flashguard_ssd()
    for command in read_then_overwrite(20):
        if command.opcode is Opcode.READ:
            sync.read(command.slba)
        else:
            sync.write(command.slba, command.data[0])
    completions, _ = NVMeController(nvme).submit_batch(
        read_then_overwrite(20), queue_depth=1
    )
    assert all(c.ok for c in completions)
    assert sync.retained_count == 20
    assert nvme.retained_count == 20


def test_submit_counts_each_command_once():
    ssd = make_regular_ssd()
    controller = NVMeController(ssd)
    controller.submit(NVMeCommand(Opcode.WRITE, slba=0, nlb=2))
    controller.submit(NVMeCommand(Opcode.READ, slba=0, nlb=1))
    controller.submit(NVMeCommand(Opcode.FLUSH))
    assert controller.commands_processed == 3
