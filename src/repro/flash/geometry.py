"""Flash geometry: channels, chips, planes, blocks, pages.

Physical page addresses (PPAs) and physical block addresses (PBAs) are flat
integers.  Pages are numbered so that consecutive *blocks* round-robin
across channels: block ``b`` lives on channel ``b % channels``.  This gives
the FTL channel-level striping for free when it allocates blocks
round-robin, matching how real FTLs spread load.
"""

from dataclasses import dataclass

from repro.common.errors import AddressError
from repro.common.units import BlockId, Ppa


@dataclass(frozen=True)
class FlashGeometry:
    """Dimensions of the simulated flash array.

    The default is a deliberately small device (256 MiB of raw flash) so
    that month-long trace replays complete quickly; every experiment can
    scale it up.  ``oob_size`` is informational (the paper's board has 12
    bytes per 4 KiB page) — the model stores OOB metadata structurally.
    """

    channels: int = 8
    chips_per_channel: int = 1
    planes_per_chip: int = 1
    blocks_per_plane: int = 128
    pages_per_block: int = 64
    page_size: int = 4096
    oob_size: int = 12

    def __post_init__(self):
        for name in (
            "channels",
            "chips_per_channel",
            "planes_per_chip",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            if getattr(self, name) <= 0:
                raise ValueError("%s must be positive" % name)
        # Derived totals are plain ints computed once: every address
        # check reads them, so they must not cost a property call each.
        # Not dataclass fields, so equality, hashing and ``asdict`` see
        # only the dimensions above.
        total_blocks = (
            self.channels
            * self.chips_per_channel
            * self.planes_per_chip
            * self.blocks_per_plane
        )
        object.__setattr__(self, "total_blocks", total_blocks)
        object.__setattr__(self, "total_pages", total_blocks * self.pages_per_block)

    @property
    def raw_capacity_bytes(self):
        return self.total_pages * self.page_size

    # --- Address arithmetic -------------------------------------------------

    def check_ppa(self, ppa: Ppa):
        if not 0 <= ppa < self.total_pages:
            raise AddressError("PPA %r out of range [0, %d)" % (ppa, self.total_pages))

    def check_pba(self, pba: BlockId):
        if not 0 <= pba < self.total_blocks:
            raise AddressError("PBA %r out of range [0, %d)" % (pba, self.total_blocks))

    def block_of_page(self, ppa: Ppa) -> BlockId:
        """PBA containing the given PPA."""
        self.check_ppa(ppa)
        return ppa // self.pages_per_block

    def page_offset(self, ppa: Ppa):
        """Index of the page within its block."""
        self.check_ppa(ppa)
        return ppa % self.pages_per_block

    def first_page_of_block(self, pba: BlockId) -> Ppa:
        self.check_pba(pba)
        return pba * self.pages_per_block

    def pages_of_block(self, pba: BlockId):
        """Range of PPAs belonging to block ``pba``."""
        first = self.first_page_of_block(pba)
        return range(first, first + self.pages_per_block)

    def channel_of_block(self, pba: BlockId):
        self.check_pba(pba)
        return pba % self.channels

    def channel_of_page(self, ppa: Ppa):
        return self.channel_of_block(self.block_of_page(ppa))

    def chip_of_block(self, pba: BlockId):
        """(channel, chip) coordinates of a block."""
        self.check_pba(pba)
        blocks_per_channel = self.total_blocks // self.channels
        within_channel = pba // self.channels
        if within_channel >= blocks_per_channel:
            raise AddressError("PBA %r decomposition overflow" % pba)
        chip = within_channel % self.chips_per_channel
        return (pba % self.channels, chip)
