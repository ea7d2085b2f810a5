"""Out-of-range addresses are rejected at every public entry point.

The hot internals (victim index, lane arithmetic in ``FlashDevice``,
``ChannelTimelines.schedule``, GC column reads) trust addresses that a
boundary already checked.  These tests pin the boundary itself: each
public entry point still raises :class:`AddressError` (or, over NVMe,
completes with ``LBA_OUT_OF_RANGE``) and leaves no trace in the device.
"""

import pytest

from repro.common.errors import AddressError
from repro.flash.device import FlashDevice
from repro.flash.page import NULL_PPA, OOBMetadata
from repro.flash.timing import ChannelTimelines
from repro.ftl.block_manager import BlockManager
from repro.nvme import HostNVMeDriver, NVMeCommand, Opcode, StatusCode

from tests.conftest import make_regular_ssd, small_geometry

GEO = small_geometry()
BAD_PPAS = (-1, GEO.total_pages, GEO.total_pages + GEO.pages_per_block)
BAD_PBAS = (-1, GEO.total_blocks)


@pytest.fixture
def device():
    return FlashDevice(GEO)


def _untouched(device):
    c = device.counters
    return (c.page_reads, c.page_programs, c.block_erases) == (0, 0, 0) and (
        device.timelines.total_busy_us() == 0
        and device.chip_timelines.total_busy_us() == 0
    )


@pytest.mark.parametrize("ppa", BAD_PPAS)
def test_read_page_rejects_bad_ppa(device, ppa):
    with pytest.raises(AddressError):
        device.read_page(ppa)
    assert _untouched(device)


@pytest.mark.parametrize("ppa", BAD_PPAS)
def test_program_page_rejects_bad_ppa(device, ppa):
    with pytest.raises(AddressError):
        device.program_page(ppa, b"x", OOBMetadata(0, NULL_PPA, 0))
    assert _untouched(device)
    assert not any(device.core.state)


@pytest.mark.parametrize("pba", BAD_PBAS)
def test_erase_block_rejects_bad_pba(device, pba):
    with pytest.raises(AddressError):
        device.erase_block(pba)
    assert _untouched(device)
    assert not any(device.core.erase_count)


@pytest.mark.parametrize("ppa", BAD_PPAS)
def test_peek_page_rejects_bad_ppa(device, ppa):
    with pytest.raises(AddressError):
        device.peek_page(ppa)


@pytest.mark.parametrize("pba", BAD_PBAS)
def test_scan_block_oob_rejects_bad_pba(device, pba):
    with pytest.raises(AddressError):
        device.scan_block_oob(pba)


@pytest.mark.parametrize("method", ("is_valid", "mark_valid", "invalidate_page"))
@pytest.mark.parametrize("ppa", BAD_PPAS)
def test_block_manager_validity_rejects_bad_ppa(device, method, ppa):
    bm = BlockManager(device)
    with pytest.raises(AddressError):
        getattr(bm, method)(ppa)
    assert all(bm.valid_count(pba) == 0 for pba in range(GEO.total_blocks))


@pytest.mark.parametrize("channel", (-1, 4))
def test_depth_at_rejects_bad_channel(channel):
    with pytest.raises(AddressError):
        ChannelTimelines(4).depth_at(channel, 0)


def test_schedule_rejects_lane_past_the_end():
    timelines = ChannelTimelines(4)
    with pytest.raises(AddressError):
        timelines.schedule(4, 0, 10)
    assert timelines.total_busy_us() == 0


@pytest.mark.parametrize(
    "opcode, offset, nlb",
    [
        (Opcode.READ, 0, 1),
        (Opcode.WRITE, 0, 1),
        (Opcode.DSM, 0, 1),
        (Opcode.READ, -1, 2),  # starts in range, runs past the end
        (Opcode.WRITE, -1, 2),
    ],
)
def test_nvme_out_of_range_lba_gets_error_status(opcode, offset, nlb):
    ssd = make_regular_ssd()
    host = HostNVMeDriver(ssd)
    slba = ssd.logical_pages + offset
    data = [b"x"] * nlb if opcode is Opcode.WRITE else None
    completion = host.controller.submit(
        NVMeCommand(opcode, slba=slba, nlb=nlb, data=data)
    )
    assert completion.status is StatusCode.LBA_OUT_OF_RANGE
    assert ssd.device.counters.page_programs == 0
