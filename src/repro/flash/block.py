"""Flash blocks: the erase unit.

NAND constraints (enforced by the columnar core, one layer down):

* a page may only be programmed when erased;
* pages within a block must be programmed sequentially (real NAND forbids
  out-of-order programming within a block);
* erase resets every page and increments the block's wear counter.

Since the columnar refactor a ``Block`` is a thin view over the owning
device's :class:`~repro.flash.core.ColumnarFlashArray`.  A ``Block``
constructed standalone (``Block(pba, pages_per_block)``) gets a private
single-block core, so unit tests and tooling keep the old constructor.
"""

from repro.flash.core import ColumnarFlashArray, oob_view
from repro.flash.page import Page


class _BlockPages:
    """Sequence view of one block's pages (lazy ``Page`` handles)."""

    __slots__ = ("_core", "_base", "_n")

    def __init__(self, core, base, n):
        self._core = core
        self._base = base
        self._n = n

    def __len__(self):
        return self._n

    def __getitem__(self, offset):
        if offset < 0:
            offset += self._n
        if not 0 <= offset < self._n:
            raise IndexError(offset)
        return Page(self._core, self._base + offset)

    def __iter__(self):
        core, base = self._core, self._base
        return (Page(core, base + i) for i in range(self._n))


class Block:
    """One erase block holding ``pages_per_block`` pages."""

    __slots__ = ("pba", "_core", "_idx", "pages")

    def __init__(self, pba, pages_per_block, core=None, index=None):
        self.pba = pba
        if core is None:
            core = ColumnarFlashArray(1, pages_per_block)
            index = 0
        self._core = core
        self._idx = index
        self.pages = _BlockPages(core, index * pages_per_block, pages_per_block)

    # --- Per-block columns, exposed as the old attributes ----------------

    @property
    def erase_count(self):
        return self._core.erase_count[self._idx]

    @erase_count.setter
    def erase_count(self, value):
        self._core.erase_count[self._idx] = value

    @property
    def last_program_us(self):
        """When the block last received a program (cost-benefit GC "age")."""
        return self._core.last_program_us[self._idx]

    @last_program_us.setter
    def last_program_us(self, value):
        self._core.last_program_us[self._idx] = value

    @property
    def reads_since_erase(self):
        """Sense operations since the last erase — the read-disturb
        accumulator.  Erase resets the cells and the disturb damage."""
        return self._core.reads_since_erase[self._idx]

    @reads_since_erase.setter
    def reads_since_erase(self, value):
        self._core.reads_since_erase[self._idx] = value

    @property
    def failed(self):
        """Grown bad block: programs and erases fail permanently.  This is
        media truth — it survives power loss, unlike firmware tables."""
        return bool(self._core.failed[self._idx])

    @failed.setter
    def failed(self, value):
        self._core.failed[self._idx] = 1 if value else 0

    @property
    def write_pointer(self):
        """Index of the next programmable page in this block."""
        return self._core.write_pointer[self._idx]

    @property
    def is_full(self):
        return self._core.write_pointer[self._idx] >= len(self.pages)

    @property
    def is_erased(self):
        return self._core.write_pointer[self._idx] == 0

    def program(self, offset, data, oob):
        """Program the page at ``offset`` (must be the write pointer)."""
        self._core.program(self._idx, offset, data, oob)

    def read(self, offset):
        data, raw = self._core.read(self._idx, offset)
        return data, oob_view(raw)

    def erase(self):
        self._core.erase(self._idx)

    def __repr__(self):
        return "Block(pba=%d, programmed=%d/%d, erases=%d)" % (
            self.pba,
            self.write_pointer,
            len(self.pages),
            self.erase_count,
        )
