import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.common.errors import (
    DeviceFullError,
    EraseFailureError,
    ProgramFailureError,
)
from repro.faults.hooks import FaultHooks
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.page import NULL_PPA, OOBMetadata
from repro.ftl.block_manager import BlockKind, BlockManager, StreamId

from tests.conftest import small_geometry


@pytest.fixture
def bm():
    return BlockManager(FlashDevice(small_geometry()))


def program(bm, ppa, lpa=0):
    bm.device.program_page(ppa, b"d", OOBMetadata(lpa, NULL_PPA, 0))
    bm.mark_valid(ppa)


def test_all_blocks_start_free(bm):
    assert bm.free_block_count == bm.device.geometry.total_blocks


def test_allocation_consumes_blocks_lazily(bm):
    geo = bm.device.geometry
    ppb = geo.pages_per_block
    channels = geo.channels
    # Striped user allocation opens one append block per channel, then
    # fills them all before opening more.
    for _ in range(channels * ppb):
        program(bm, bm.allocate_page(StreamId.USER))
    assert bm.free_block_count == geo.total_blocks - channels
    program(bm, bm.allocate_page(StreamId.USER))
    assert bm.free_block_count == geo.total_blocks - channels - 1


def test_unstriped_stream_fills_one_block_at_a_time(bm):
    geo = bm.device.geometry
    key = ("delta", 0)
    for _ in range(geo.pages_per_block):
        ppa = bm.allocate_page_keyed(key, BlockKind.DELTA)
        bm.device.program_page(ppa, b"d", OOBMetadata(0, NULL_PPA, 0))
    assert bm.free_block_count == geo.total_blocks - 1


def test_streams_use_distinct_blocks(bm):
    a = bm.allocate_page(StreamId.USER)
    program(bm, a)
    b = bm.allocate_page(StreamId.GC)
    geo = bm.device.geometry
    assert geo.block_of_page(a) != geo.block_of_page(b)


def test_allocation_stripes_channels(bm):
    geo = bm.device.geometry
    ppb = geo.pages_per_block
    channels = []
    for _ in range(4 * ppb):
        ppa = bm.allocate_page(StreamId.USER)
        program(bm, ppa)
        channels.append(geo.channel_of_page(ppa))
    # Four full blocks worth: all channels used.
    assert set(channels) == set(range(geo.channels))


def test_validity_tracking(bm):
    ppa = bm.allocate_page(StreamId.USER)
    program(bm, ppa)
    assert bm.is_valid(ppa)
    bm.invalidate_page(ppa)
    assert not bm.is_valid(ppa)
    pba = bm.device.geometry.block_of_page(ppa)
    assert bm.invalid_count(pba) == 1
    assert bm.valid_count(pba) == 0


def test_double_invalidate_is_idempotent(bm):
    ppa = bm.allocate_page(StreamId.USER)
    program(bm, ppa)
    bm.invalidate_page(ppa)
    bm.invalidate_page(ppa)
    pba = bm.device.geometry.block_of_page(ppa)
    assert bm.valid_count(pba) == 0


def test_greedy_victim_prefers_most_invalid(bm):
    geo = bm.device.geometry
    ppb = geo.pages_per_block
    # Fill two blocks via unstriped streams so layout is deterministic;
    # invalidate 1 page of the first, all of the second.
    first_block, second_block = [], []
    for _ in range(ppb):
        ppa = bm.allocate_page_keyed("a", BlockKind.DATA)
        program(bm, ppa)
        first_block.append(ppa)
    for _ in range(ppb):
        ppa = bm.allocate_page_keyed("b", BlockKind.DATA)
        program(bm, ppa)
        second_block.append(ppa)
    bm.invalidate_page(first_block[0])
    for p in second_block:
        bm.invalidate_page(p)
    victim = bm.select_greedy_victim(BlockKind.DATA)
    assert victim == geo.block_of_page(second_block[0])


def test_victim_ignores_active_blocks(bm):
    ppa = bm.allocate_page(StreamId.USER)
    program(bm, ppa)
    bm.invalidate_page(ppa)
    # Block not sealed -> not a victim.
    assert bm.select_greedy_victim(BlockKind.DATA) is None


def test_release_requires_no_valid_pages(bm):
    geo = bm.device.geometry
    for _ in range(geo.pages_per_block):
        program(bm, bm.allocate_page(StreamId.USER))
    pba = geo.block_of_page(0)
    from repro.common.errors import AddressError

    with pytest.raises(AddressError):
        bm.release_block(pba)


def test_exhaustion_raises(bm):
    geo = bm.device.geometry
    with pytest.raises(DeviceFullError):
        for _ in range(geo.total_pages + 1):
            program(bm, bm.allocate_page(StreamId.USER))


def test_keyed_streams_are_independent(bm):
    a = bm.allocate_page_keyed(("delta", 1), BlockKind.DELTA)
    bm.device.program_page(a, b"d", OOBMetadata(0, NULL_PPA, 0))
    b = bm.allocate_page_keyed(("delta", 2), BlockKind.DELTA)
    geo = bm.device.geometry
    assert geo.block_of_page(a) != geo.block_of_page(b)
    assert bm.kind(geo.block_of_page(a)) is BlockKind.DELTA


def test_close_stream_returns_active_block(bm):
    a = bm.allocate_page_keyed(("delta", 1), BlockKind.DELTA)
    pba = bm.device.geometry.block_of_page(a)
    assert bm.close_stream(("delta", 1)) == pba
    assert bm.close_stream(("delta", 1)) is None


def test_utilization(bm):
    assert bm.utilization() == 0.0
    program(bm, bm.allocate_page(StreamId.USER))
    assert bm.utilization() > 0.0


# --- Victim index ≡ full scan ---------------------------------------------------
#
# The manager keeps sealed blocks in per-kind buckets keyed by invalid
# count instead of scanning the device on every GC round.  The property
# below drives random firmware-shaped operation sequences and checks,
# after every step, that greedy and cost-benefit selection and the
# ``sealed_blocks`` sequence equal a literal full scan over the BST.

OCCUPIED_KINDS = (BlockKind.DATA, BlockKind.DELTA, BlockKind.TRANSLATION)
STREAMS = (
    (StreamId.USER, BlockKind.DATA, True),
    (StreamId.GC, BlockKind.DATA, True),
    (("data", 0), BlockKind.DATA, False),
    (("delta", 0), BlockKind.DELTA, False),
    (("delta", 1), BlockKind.DELTA, False),
    (("xlat", 0), BlockKind.TRANSLATION, False),
)


def scan_sealed(bm, kind=None):
    out = []
    for pba in range(bm.device.geometry.total_blocks):
        block_kind = bm.kind(pba)
        if block_kind in (BlockKind.FREE, BlockKind.RETIRED):
            continue
        if kind is not None and block_kind is not kind:
            continue
        block = bm.device.blocks[pba]
        if block.is_full or bm._info[pba].sealed or block.failed:
            out.append(pba)
    return out


def scan_greedy(bm, kind):
    best_pba, best_invalid = None, 0
    for pba in scan_sealed(bm, kind):
        invalid = bm.device.blocks[pba].write_pointer - bm.valid_count(pba)
        if invalid > best_invalid:
            best_pba, best_invalid = pba, invalid
    return best_pba


def scan_cost_benefit(bm, now_us, kind):
    best_pba, best_score = None, 0.0
    for pba in scan_sealed(bm, kind):
        block = bm.device.blocks[pba]
        programmed = block.write_pointer
        if programmed == 0 or programmed - bm.valid_count(pba) == 0:
            continue
        u = bm.valid_count(pba) / programmed
        age = max(1, now_us - block.last_program_us)
        score = (1.0 - u) * age / (1.0 + u)
        if score > best_score:
            best_pba, best_score = pba, score
    return best_pba


def scan_active(bm):
    return {
        pba
        for state in bm._active.values()
        for pba in state["blocks"]
        if pba is not None
    }


class _IndexOps:
    """Applies one random, firmware-legal operation at a time."""

    def __init__(self):
        geo = FlashGeometry(
            channels=2, blocks_per_plane=6, pages_per_block=4, page_size=64
        )
        self.device = FlashDevice(geo)
        self.bm = BlockManager(self.device)
        self.now = 0

    def _pick(self, seq, r):
        seq = list(seq)
        return seq[r % len(seq)] if seq else None

    def _blocks(self, *kinds):
        bm = self.bm
        return [
            pba
            for pba in range(self.device.geometry.total_blocks)
            if bm.kind(pba) in kinds
        ]

    def _programmed_pages(self):
        core = self.device.core
        return [ppa for ppa in range(len(core.state)) if core.state[ppa]]

    def _allocate(self, r):
        key, kind, striped = STREAMS[r % len(STREAMS)]
        try:
            return self.bm.allocate_page_keyed(key, kind, striped=striped)
        except DeviceFullError:
            return None

    def write(self, r):
        ppa = self._allocate(r)
        if ppa is None:
            return
        self.now += 1 + r % 5
        try:
            self.device.program_page(
                ppa, b"d", OOBMetadata(r, NULL_PPA, self.now), self.now
            )
        except ProgramFailureError:
            # Firmware condemns a grown-bad append block.
            self.bm.condemn_block(self.device.geometry.block_of_page(ppa))
            return
        self.bm.mark_valid(ppa)

    def fill(self, r):
        """A burst of writes to one stream, enough to run the device dry."""
        for _ in range(16):
            self.write(r)

    def burn(self, r):
        """A failed or torn program: the page is consumed, never valid."""
        ppa = self._allocate(r)
        if ppa is None:
            return
        pba = self.device.geometry.block_of_page(ppa)
        if self.device.blocks[pba].failed:
            return
        FaultHooks._burn_page(
            self.device, ppa, b"d", OOBMetadata(r, NULL_PPA, self.now), r % 2 == 0
        )
        if r % 3 == 0:  # a permanent failure: the block grew bad
            self.device.blocks[pba].failed = True
            self.bm.condemn_block(pba)

    def invalidate(self, r):
        ppa = self._pick(self._programmed_pages(), r)
        if ppa is not None:
            self.bm.invalidate_page(ppa)

    def mark_valid(self, r):
        ppa = self._pick(self._programmed_pages(), r)
        if ppa is not None:
            self.bm.mark_valid(ppa)

    def seal(self, r):
        pba = self._pick(self._blocks(*OCCUPIED_KINDS), r)
        if pba is not None:
            self.bm.seal_block(pba)

    def condemn(self, r):
        pba = self._pick(self._blocks(*OCCUPIED_KINDS), r)
        if pba is not None:
            self.bm.condemn_block(pba)

    def fail(self, r):
        pba = self._pick(self._blocks(*OCCUPIED_KINDS), r)
        if pba is not None:
            self.device.blocks[pba].failed = True

    def set_kind(self, r):
        pba = self._pick(self._blocks(*OCCUPIED_KINDS), r)
        if pba is not None:
            self.bm.set_kind(pba, OCCUPIED_KINDS[r % 3])

    def claim(self, r):
        pba = self._pick(self._blocks(BlockKind.FREE), r)
        if pba is not None:
            self.bm.claim_block(pba, OCCUPIED_KINDS[r % 3])

    def adopt(self, r):
        bm = self.bm
        active = scan_active(bm)
        partial = [
            pba
            for pba in self._blocks(BlockKind.DATA)
            if pba not in active and not self.device.blocks[pba].is_full
        ]
        pba = self._pick(partial, r)
        if pba is not None:
            key, _kind, striped = STREAMS[r % 3]
            bm.adopt_active(key, pba, striped=striped)

    def retire(self, r):
        pba = self._pick(self._blocks(BlockKind.FREE, *OCCUPIED_KINDS), r)
        if pba is not None:
            self.device.blocks[pba].failed = True
            self.bm.retire_failed_block(pba)

    def reclaim(self, r):
        bm = self.bm
        pba = self._pick(scan_sealed(bm), r)
        if pba is None:
            return
        for ppa in self.device.geometry.pages_of_block(pba):
            bm.invalidate_page(ppa)
        try:
            self.device.erase_block(pba, self.now)
        except EraseFailureError:
            pass  # grown bad: release_block retires it
        bm.release_block(pba)

    def close(self, r):
        key = STREAMS[3 + r % 3][0]
        self.bm.close_stream(key)

    def reboot(self, r):
        """Power loss: rebuild a fresh manager from the media, as the
        recovery scan does (claim, retire, adopt or seal)."""
        device = self.device
        bm = self.bm = BlockManager(device)
        core = device.core
        ppb = device.geometry.pages_per_block
        for pba in range(device.geometry.total_blocks):
            if core.failed[pba]:
                bm.retire_failed_block(pba)
                continue
            wp = core.write_pointer[pba]
            if wp == 0:
                continue
            bm.claim_block(pba, OCCUPIED_KINDS[(pba + r) % 3])
            for ppa in range(pba * ppb, pba * ppb + wp):
                if (ppa + r) % 3:
                    bm.mark_valid(ppa)
            if wp < ppb and not bm.adopt_active(StreamId.USER, pba):
                bm.seal_block(pba)

    OPS = (
        "write", "write", "write", "fill", "fill", "burn", "invalidate",
        "invalidate", "mark_valid", "seal", "condemn", "fail", "set_kind",
        "claim", "adopt", "retire", "reclaim", "reclaim", "close", "reboot",
    )

    def check(self):
        bm = self.bm
        for kind in OCCUPIED_KINDS:
            assert bm.select_greedy_victim(kind) == scan_greedy(bm, kind)
            for now_us in (self.now, self.now + 50):
                assert bm.select_cost_benefit_victim(now_us, kind) == (
                    scan_cost_benefit(bm, now_us, kind)
                )
            assert list(bm.sealed_blocks(kind)) == scan_sealed(bm, kind)
        assert list(bm.sealed_blocks()) == scan_sealed(bm)
        assert list(bm.sealed_blocks(BlockKind.FREE)) == []
        assert bm.active_blocks() == scan_active(bm)


# No explain phase: it re-runs failing sequences under a tracer, which
# takes minutes and about a gigabyte for sequences this long.
@settings(
    max_examples=200,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink),
)
@given(
    st.lists(
        st.tuples(
            st.integers(0, len(_IndexOps.OPS) - 1), st.integers(0, 1 << 16)
        ),
        min_size=5,
        max_size=80,
    )
)
def test_victim_index_matches_full_scan(ops):
    ops_runner = _IndexOps()
    for op, r in ops:
        getattr(ops_runner, _IndexOps.OPS[op])(r)
        ops_runner.check()


def test_greedy_tie_goes_to_lowest_pba(bm):
    geo = bm.device.geometry
    ppb = geo.pages_per_block
    blocks = []
    for key in ("c", "b", "a"):
        ppas = []
        for _ in range(ppb):
            ppa = bm.allocate_page_keyed(key, BlockKind.DATA)
            program(bm, ppa)
            ppas.append(ppa)
        bm.invalidate_page(ppas[0])
        blocks.append(geo.block_of_page(ppas[0]))
    assert bm.select_greedy_victim(BlockKind.DATA) == min(blocks)


def test_device_full_leaves_append_points_intact(bm):
    # A failed allocation must not half-forget the full append block:
    # the next attempt fails the same way and the reverse map agrees.
    with pytest.raises(DeviceFullError):
        while True:
            program(bm, bm.allocate_page(StreamId.USER))
    before = bm.active_blocks()
    with pytest.raises(DeviceFullError):
        bm.allocate_page(StreamId.USER)
    assert bm.active_blocks() == before == scan_active(bm)
