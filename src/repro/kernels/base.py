"""Common kernel machinery: processes, frame accounting, mapping services.

Every service that consumes simulated time is a *generator* meant to run
inside a simulation process (``yield from kernel.walk_for_export(...)``).
Pure bookkeeping (region lists, translations for tests) is plain methods.

The paper's §3.4 requires each enclave OS to perform memory-mapping
operations *locally* with its own techniques; accordingly the two
concrete kernels override :meth:`walk_for_export`,
:meth:`map_remote_pfns`, and the local-attach path, while the shared
export/teardown plumbing lives here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.hw.costs import CostModel
from repro.hw.memory import FrameAllocator, PhysicalMemory, ranges_to_pfns, pfns_to_ranges
from repro.hw.topology import Core, NodeHardware
from repro.kernels.addrspace import Region, RegionKind
from repro.kernels.pagetable import (
    PAGE_SIZE,
    PTE_PINNED,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    PageFault,
)
from repro.kernels.process import OSProcess
from repro.sim.engine import Engine


class KernelError(RuntimeError):
    """Kernel-level misuse (bad process, bad region, foreign frames)."""


class KernelBase:
    """One enclave's operating system."""

    kernel_type = "base"

    def __init__(
        self,
        engine: Engine,
        node: NodeHardware,
        cores: List[Core],
        allocator: FrameAllocator,
        name: str = "",
    ):
        if not cores:
            raise KernelError("kernel needs at least one core")
        self.engine = engine
        self.node = node
        self.cores = cores
        self.allocator = allocator
        self.name = name or f"{self.kernel_type}-{cores[0].core_id}"
        self.costs: CostModel = node.costs
        self.mem: PhysicalMemory = node.memory
        self.processes: Dict[int, OSProcess] = {}
        self._next_pid = 1
        #: The core kernel service handlers run on (XEMEM request serving).
        self.service_core: Core = cores[0]
        #: Noise sources per core id (analytic; see repro.kernels.noise).
        self.noise_sources: Dict[int, list] = {}
        #: Back-reference set by repro.enclave.Enclave at wrap time.
        self.enclave = None
        for core in cores:
            core.owner = self

    def enclave_module(self):
        """The XEMEM module of this kernel's enclave (user-API entry)."""
        if self.enclave is None or self.enclave.module is None:
            raise KernelError(
                f"kernel {self.name!r} has no enclave XEMEM module installed"
            )
        return self.enclave.module

    # -- processes -----------------------------------------------------------------

    def create_process(self, name: str = "", core_id: Optional[int] = None) -> OSProcess:
        """Create a process pinned to ``core_id`` (kernel's first core by default)."""
        if core_id is None:
            core_id = self.cores[0].core_id
        if core_id not in [c.core_id for c in self.cores]:
            raise KernelError(
                f"core {core_id} does not belong to kernel {self.name!r}"
            )
        proc = OSProcess(self, self._next_pid, name=name, core_id=core_id)
        self.processes[proc.pid] = proc
        self._next_pid += 1
        self._on_process_created(proc)
        return proc

    def _on_process_created(self, proc: OSProcess) -> None:
        """Kernel-specific address-space setup (Kitten maps statically)."""

    def _own_process(self, proc: OSProcess) -> None:
        if proc.kernel is not self or proc.pid not in self.processes:
            raise KernelError(f"process {proc!r} not owned by kernel {self.name!r}")

    def destroy_process(self, proc: OSProcess) -> None:
        """Tear a process down: unmap everything, free the frames it owns.

        Attachment frames are unmapped but NOT freed — they belong to the
        exporting process: frames outside this kernel's partition
        (cross-enclave attachments) and the borrowed frames behind a
        same-kernel attachment (``backing_pfns``).
        """
        self._own_process(proc)
        for region in list(proc.aspace.regions):
            pfns = proc.aspace.unmap_populated_pages(region)
            if len(pfns) and region.backing_pfns is None:
                own = pfns[self.owns_pfn_mask(pfns)]
                if len(own):
                    self.free_pfns(own)
        proc.exit()
        del self.processes[proc.pid]

    # -- frame accounting -------------------------------------------------------------

    def alloc_pfns(self, npages: int, scattered: bool = False,
                   max_run: Optional[int] = None) -> np.ndarray:
        """Allocate ``npages`` frames from this enclave's partition."""
        if scattered:
            ranges = self.allocator.alloc_scattered(npages)
        else:
            ranges = self.allocator.alloc_pages(npages, max_run=max_run)
        return ranges_to_pfns(ranges)

    def free_pfns(self, pfns: np.ndarray) -> None:
        """Return frames to the partition (order-insensitive, coalescing)."""
        self.allocator.free_run_list(
            pfns_to_ranges(np.sort(np.asarray(pfns, dtype=np.int64)))
        )

    def owns_pfn(self, pfn: int) -> bool:
        """True when ``pfn`` lies inside this enclave's memory partition."""
        return (
            self.allocator.start_pfn
            <= pfn
            < self.allocator.start_pfn + self.allocator.nframes
        )

    def owns_pfn_mask(self, pfns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owns_pfn`: boolean per frame of ``pfns``."""
        pfns = np.asarray(pfns, dtype=np.int64)
        start = self.allocator.start_pfn
        return (pfns >= start) & (pfns < start + self.allocator.nframes)

    # -- XEMEM mapping services (paper §4.3) ----------------------------------------

    def walk_for_export(self, proc: OSProcess, vaddr: int, npages: int,
                        core: Optional[Core] = None):
        """Generator: walk the process's page table, return the PFN list.

        Occupies the serving core for the whole walk — this is the source
        of the Fig. 7 attachment detours on Kitten.
        """
        self._own_process(proc)
        core = core or self.service_core
        walk_ns = npages * self.costs.walk_per_page_ns
        o = obs.get()
        with o.span("kernel.pagetable.walk", self.engine, track=self.name,
                    npages=npages, core=core.core_id):
            yield from core.occupy(walk_ns, f"xemem-walk:{npages}p")
        o.counter(f"{self.kernel_type}.pagetable.walks").inc()
        o.counter(f"{self.kernel_type}.pagetable.pages_walked").inc(npages)
        return proc.aspace.table.translate_range(vaddr, npages)

    def map_remote_pfns(self, proc: OSProcess, pfns: np.ndarray, name: str = "xemem-att",
                        core: Optional[Core] = None,
                        extra_per_page_ns: int = 0,
                        writable: bool = True):
        """Generator: map a remote PFN list into the process (EAGER).

        Returns the (Region, vaddr). ``writable=False`` installs PTEs
        without PTE_WRITABLE (read-only grants). Subclasses refine
        placement and cost.
        """
        self._own_process(proc)
        region, vaddr = self._place_attachment(proc, len(pfns), name)
        region.pte_flags = PTE_PRESENT | PTE_USER | (PTE_WRITABLE if writable else 0)
        core = core or self.service_core
        install_ns = len(pfns) * (self.costs.map_install_per_page_ns + extra_per_page_ns)
        o = obs.get()
        with o.span("kernel.map_remote", self.engine, track=self.name,
                    npages=len(pfns), core=core.core_id):
            yield from core.occupy(install_ns, f"xemem-map:{len(pfns)}p")
        o.counter(f"{self.kernel_type}.map.pages_installed").inc(len(pfns))
        proc.aspace.map_region_pfns(region, pfns)
        return region

    def _place_attachment(self, proc: OSProcess, npages: int, name: str) -> Tuple[Region, int]:
        vaddr = proc.aspace.find_free(npages)
        region = proc.aspace.add_region(vaddr, npages, RegionKind.EAGER, name)
        return region, vaddr

    def unmap_attachment(self, proc: OSProcess, region: Region):
        """Generator: tear an attachment down; returns PFNs it mapped."""
        self._own_process(proc)
        populated = region.populated
        cost = self.costs.detach_fixed_ns + populated * self.costs.unmap_per_page_ns
        yield self.engine.sleep(cost)
        if region.populated == region.npages:
            return proc.aspace.unmap_region(region)
        return proc.aspace.unmap_populated_pages(region)

    # -- paging --------------------------------------------------------------------

    def touch_pages(self, proc: OSProcess, vaddr: int, npages: int, write: bool = False):
        """Generator: the application touches each page once.

        The base kernel assumes everything is mapped (Kitten semantics);
        Linux overrides to service demand-paging faults.
        """
        self._own_process(proc)
        yield self.engine.sleep(npages * self.costs.page_touch_ns)
        if write and not proc.aspace.table.range_flags_all(vaddr, npages, PTE_WRITABLE):
            first = proc.aspace.table.first_missing_flag(vaddr, npages, PTE_WRITABLE)
            raise PageFault(vaddr + first * PAGE_SIZE, write=True)
        proc.aspace.table.translate_range(vaddr, npages)
        return npages

    # -- pinning -------------------------------------------------------------------

    def pin_pages(self, proc: OSProcess, vaddr: int, npages: int):
        """Generator: ensure present + pinned (no-op cost on LWKs)."""
        self._own_process(proc)
        proc.aspace.table.set_flags_range(vaddr, npages, set_mask=PTE_PINNED)
        return proc.aspace.table.translate_range(vaddr, npages)
        yield  # pragma: no cover - makes this a generator

    # -- noise --------------------------------------------------------------------

    def stolen_ns(self, core_id: int, t0: int, t1: int) -> int:
        """Total time stolen from the app on ``core_id`` during [t0, t1).

        Sums the analytic noise sources and the actually-simulated steal
        log (IRQ handlers, XEMEM service) — the two sets are disjoint.
        """
        total = sum(
            src.stolen_in(t0, t1) for src in self.noise_sources.get(core_id, [])
        )
        core = self.node.core(core_id)
        return total + core.stolen_between(t0, t1)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, cores="
            f"{[c.core_id for c in self.cores]}, "
            f"frames={self.allocator.nframes})"
        )
