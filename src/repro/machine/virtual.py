"""Virtual memory: the address space a real tool actually starts from.

Userspace tools never see physical addresses directly. They allocate a
virtual buffer, then read ``/proc/self/pagemap`` to learn each virtual
page's physical frame. This module models that layer:

* :class:`VirtualBuffer` — a contiguous virtual range whose pages map to
  the (possibly scattered) physical pages the simulated OS handed out;
* :meth:`VirtualBuffer.translate` — VA -> PA, the per-access translation;
* :meth:`VirtualBuffer.read_pagemap` — the bulk pagemap scan every tool
  performs once at startup, charged to the simulated clock at a realistic
  per-entry cost;
* :meth:`VirtualBuffer.phys_pages` — the :class:`PhysPages` view the rest
  of the library consumes, so the reverse-engineering pipeline composes
  with this layer unchanged.

The pipeline's algorithms operate on physical addresses (as the paper's
do, after translation); this layer exists so the library also models the
*cost* and *mechanics* of obtaining them, and so examples can show the
full VA-to-DRAM journey.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.errors import AllocationError
from repro.machine.allocator import PAGE_SHIFT, PAGE_SIZE, PhysPages

__all__ = ["VirtualBuffer", "PAGEMAP_ENTRY_NS"]

# Cost of one pagemap entry read (seek + 8-byte read through procfs).
PAGEMAP_ENTRY_NS = 600.0


@dataclass(frozen=True)
class VirtualBuffer:
    """A virtually contiguous buffer backed by simulated physical pages.

    Attributes:
        va_base: virtual base address (page aligned).
        frames: physical frame number of each virtual page, in order.
        total_bytes: size of the machine's physical memory.
    """

    va_base: int
    frames: np.ndarray
    total_bytes: int

    def __post_init__(self) -> None:
        if self.va_base % PAGE_SIZE:
            raise AllocationError("va_base must be page aligned")
        frames = np.asarray(self.frames, dtype=np.uint64)
        object.__setattr__(self, "frames", frames)
        if frames.size == 0:
            raise AllocationError("virtual buffer needs at least one page")

    @classmethod
    def from_phys_pages(
        cls, pages: PhysPages, rng: np.random.Generator, va_base: int = 0x7F0000000000
    ) -> "VirtualBuffer":
        """Map allocated physical pages into a contiguous virtual range.

        The OS hands out physical pages in no particular order relative to
        the virtual layout, so the frame order is shuffled — the reason
        tools cannot assume virtual contiguity means physical contiguity.
        """
        frames = pages.page_numbers
        rng.shuffle(frames)
        return cls(va_base=va_base, frames=frames, total_bytes=pages.total_bytes)

    # -------------------------------------------------------------- geometry

    @property
    def size_bytes(self) -> int:
        """Virtual extent of the buffer."""
        return int(self.frames.size) * PAGE_SIZE

    @property
    def va_end(self) -> int:
        """One past the last mapped virtual address."""
        return self.va_base + self.size_bytes

    def contains(self, virtual_addr: int) -> bool:
        """True when the virtual address lies inside the buffer."""
        return self.va_base <= virtual_addr < self.va_end

    # ------------------------------------------------------------ translation

    def translate(self, virtual_addr: int) -> int:
        """VA -> PA for one address."""
        if not self.contains(virtual_addr):
            raise AllocationError(
                f"virtual address {virtual_addr:#x} outside the buffer "
                f"[{self.va_base:#x}, {self.va_end:#x})"
            )
        offset = virtual_addr - self.va_base
        frame = int(self.frames[offset >> PAGE_SHIFT])
        return (frame << PAGE_SHIFT) | (offset & (PAGE_SIZE - 1))

    def translate_batch(self, virtual_addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`translate`."""
        addrs = np.asarray(virtual_addrs, dtype=np.uint64)
        offsets = addrs - np.uint64(self.va_base)
        indices = offsets >> np.uint64(PAGE_SHIFT)
        if (addrs < self.va_base).any() or (indices >= self.frames.size).any():
            raise AllocationError("virtual address outside the buffer")
        return (self.frames[indices] << np.uint64(PAGE_SHIFT)) | (
            offsets & np.uint64(PAGE_SIZE - 1)
        )

    def reverse_translate(self, phys_addr: int) -> int | None:
        """PA -> VA when the physical page is mapped here, else None."""
        if not 0 <= phys_addr < self.total_bytes:
            return None
        frame = phys_addr >> PAGE_SHIFT
        matches = np.flatnonzero(self.frames == np.uint64(frame))
        if matches.size == 0:
            return None
        return (
            self.va_base
            + int(matches[0]) * PAGE_SIZE
            + (phys_addr & (PAGE_SIZE - 1))
        )

    # ---------------------------------------------------------------- pagemap

    def read_pagemap(self, machine=None) -> np.ndarray:
        """The startup pagemap scan: frame numbers for every virtual page.

        When ``machine`` is given, the scan's procfs cost is charged to its
        clock (one entry per page), as every tool pays it once.
        """
        if machine is not None:
            machine.charge_analysis(self.frames.size * PAGEMAP_ENTRY_NS)
        return self.frames.copy()

    def phys_pages(self) -> PhysPages:
        """The physical-page view the reverse-engineering pipeline uses."""
        return PhysPages.from_frames(self.frames, total_bytes=self.total_bytes)
