"""The Linux fullweight-kernel model.

Implements the paper's §4.3 Linux memory-mapping routines:

* ``get_user_pages`` — fault in (if needed) and pin an exporting process's
  pages so they cannot be reclaimed while a remote enclave maps them, then
  walk the page table to build the PFN list.
* ``vm_mmap`` + ``remap_pfn_range`` — carve a fresh VMA and eagerly
  install a remote enclave's PFN list into it.

It also implements the *local* (single-OS) XEMEM attachment path the
paper's Fig. 8(b) analysis depends on: local attachments create a LAZY
VMA over the exporter's frames and populate it one page fault at a time,
so a recurring-attachment workload pays
``linux_page_fault_ns × pages_touched`` at every communication interval.

Map updates contend on a kernel-global lock (the paper's §5.3 points at
"contention for Linux data structures that are accessed when multiple
processes concurrently update memory maps").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.hw.topology import Core
from repro.kernels.addrspace import Region, RegionKind
from repro.kernels.base import KernelBase, KernelError
from repro.kernels.pagetable import (
    PAGE_SIZE,
    PageFault,
    PTE_PINNED,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
)
from repro.kernels.process import OSProcess
from repro.sim.resources import Mutex


class LinuxKernel(KernelBase):
    """The fullweight Linux enclave kernel (see module docstring)."""
    kernel_type = "linux"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Global memory-map update lock (mmap_sem-ish; source of the
        #: multi-process map-update contention the paper mentions).
        self.map_lock = Mutex(self.engine, name=f"{self.name}.map_lock")
        self.fault_count = 0
        self.gup_pinned_pages = 0

    # -- anonymous memory -------------------------------------------------------------

    def mmap_anonymous(self, proc: OSProcess, nbytes: int, name: str = "anon"):
        """Generator: create a demand-paged anonymous VMA (malloc backing)."""
        self._own_process(proc)
        npages = -(-nbytes // PAGE_SIZE)
        yield self.engine.sleep(self.costs.vm_mmap_fixed_ns)
        vaddr = proc.aspace.find_free(npages)
        region = proc.aspace.add_region(vaddr, npages, RegionKind.LAZY, name)
        return region

    def handle_fault(self, proc: OSProcess, vaddr: int, core: Optional[Core] = None):
        """Generator: demand-paging fault service for one page."""
        self._own_process(proc)
        region = proc.aspace.find_region(vaddr)
        if region is None:
            raise PageFault(vaddr)
        if region.kind is not RegionKind.LAZY:
            raise KernelError(f"fault in non-LAZY region {region.name!r} at {vaddr:#x}")
        page_va = vaddr & ~(PAGE_SIZE - 1)
        try:
            proc.aspace.table.translate(page_va)
        except PageFault:
            pass
        else:
            # The page is present, so the faulting access violated its
            # protection (a store through a read-only attachment) — there
            # is nothing to populate.
            raise PageFault(vaddr, write=True)
        core = core or self.node.core(proc.core_id)
        yield from core.occupy(self.costs.linux_page_fault_ns, "pgfault")
        page = region.page_index(vaddr)
        if region.backing_pfns is not None:
            pfn = int(region.backing_pfns[page])
        else:
            pfn = int(self.alloc_pfns(1)[0])
        proc.aspace.populate_page(region, vaddr & ~(PAGE_SIZE - 1), pfn)
        self.fault_count += 1
        obs.get().counter("linux.pagefault.count").inc()
        return pfn

    def _bulk_fault(self, proc: OSProcess, region: Region, core: Optional[Core] = None):
        """Generator: fault a whole untouched LAZY region in at once.

        Semantically identical to ``region.npages`` single faults (same
        total cost, same final page table), but vectorized so large
        regions stay simulable.
        """
        if region.populated != 0:
            raise KernelError(f"bulk fault on partially populated {region.name!r}")
        core = core or self.node.core(proc.core_id)
        yield from core.occupy(
            region.npages * self.costs.linux_page_fault_ns, "pgfault-bulk"
        )
        if region.backing_pfns is not None:
            pfns = region.backing_pfns
        else:
            pfns = self.alloc_pfns(region.npages)
        proc.aspace.map_region_pfns(region, pfns)
        self.fault_count += region.npages
        obs.get().counter("linux.pagefault.count").inc(region.npages)
        return region.npages

    def touch_pages(self, proc: OSProcess, vaddr: int, npages: int, write: bool = False):
        """Generator: touch pages, servicing demand-paging faults as hit.

        Fast paths: a fully populated range costs one vectorized check; a
        completely unpopulated LAZY region spanning the range bulk-faults.
        """
        self._own_process(proc)
        region = proc.aspace.find_region(vaddr)
        faults = 0
        table = proc.aspace.table
        if (
            region is not None
            and region.kind is RegionKind.LAZY
            and region.populated == 0
            and region.start == vaddr
            and npages == region.npages
        ):
            faults = yield from self._bulk_fault(proc, region)
        elif region is not None and region.populated == region.npages and region.contains(
            vaddr + (npages - 1) * PAGE_SIZE
        ):
            # Fully populated: no demand faults possible, but a write
            # through pages mapped read-only still protection-faults.
            if write and not table.range_flags_all(vaddr, npages, PTE_WRITABLE):
                first = table.first_missing_flag(vaddr, npages, PTE_WRITABLE)
                raise PageFault(vaddr + first * PAGE_SIZE, write=True)
        elif self._batch_faultable(table, region, vaddr, npages, write):
            missing = np.flatnonzero(~table.present_mask(vaddr, npages))
            if len(missing):
                yield from self._fault_missing(proc, region, vaddr, missing)
                faults = len(missing)
        else:
            for i in range(npages):
                va = vaddr + i * PAGE_SIZE
                try:
                    table.translate(va, write=write)
                except PageFault:
                    # handle_fault populates a missing page, or re-raises
                    # as a protection fault if the page was present and
                    # the access violated its permissions.
                    yield from self.handle_fault(proc, va)
                    faults += 1
        yield self.engine.sleep(npages * self.costs.page_touch_ns)
        proc.aspace.table.translate_range(vaddr, npages)
        return faults

    def _batch_faultable(self, table, region: Optional[Region], vaddr: int,
                         npages: int, write: bool) -> bool:
        """True when the vectorized partial-population path is safe here.

        A write touch must protection-fault at the first *present*
        read-only page exactly as the per-page loop would, so batching is
        only taken when every present page in the range is writable.
        """
        if npages <= 0:
            return False
        if region is None or region.kind is not RegionKind.LAZY:
            return False
        if not region.contains(vaddr) or not region.contains(
            vaddr + (npages - 1) * PAGE_SIZE
        ):
            return False
        if write:
            present = table.present_mask(vaddr, npages)
            writable = table.flag_mask(vaddr, npages, PTE_WRITABLE)
            if not (present == writable).all():
                return False
        return True

    def _fault_missing(self, proc: OSProcess, region: Region, vaddr: int,
                       missing: np.ndarray):
        """Generator: service a batch of demand faults in one pass.

        Semantically identical to ``len(missing)`` sequential
        :meth:`handle_fault` calls on an uncontended core: the steal-log
        intervals are contiguous with the same tag (so any windowed noise
        query sums identically), the first-fit allocator hands out the
        same frames in the same order, and the fault counters advance by
        the same total.
        """
        n = len(missing)
        core = self.node.core(proc.core_id)
        yield from core.occupy(n * self.costs.linux_page_fault_ns, "pgfault")
        page0 = region.page_index(vaddr)
        idx = page0 + np.asarray(missing, dtype=np.int64)
        if region.backing_pfns is not None:
            pfns = region.backing_pfns[idx]
        else:
            pfns = self.alloc_pfns(n)
        proc.aspace.populate_pages(region, idx, pfns)
        self.fault_count += n
        obs.get().counter("linux.pagefault.count").inc(n)
        return n

    # -- export side: get_user_pages + walk ----------------------------------------------

    def pin_pages(self, proc: OSProcess, vaddr: int, npages: int):
        """Generator: ``get_user_pages`` — populate and pin, return PFNs.

        The paper's footnote 1: pages are usually already allocated; the
        point is pinning them against reclaim.
        """
        self._own_process(proc)
        table = proc.aspace.table
        region = proc.aspace.find_region(vaddr)
        # Fault in any holes first (lazy VMAs may be partially populated).
        if (
            region is not None
            and region.kind is RegionKind.LAZY
            and region.populated == 0
            and region.start == vaddr
            and npages == region.npages
        ):
            yield from self._bulk_fault(proc, region)
        elif region is None or region.populated != region.npages:
            if self._batch_faultable(table, region, vaddr, npages, write=False):
                missing = np.flatnonzero(~table.present_mask(vaddr, npages))
                if len(missing):
                    yield from self._fault_missing(proc, region, vaddr, missing)
            else:
                for i in range(npages):
                    va = vaddr + i * PAGE_SIZE
                    try:
                        table.translate(va)
                    except PageFault:
                        yield from self.handle_fault(proc, va)
        yield self.engine.sleep(npages * self.costs.linux_gup_pin_per_page_ns)
        table.set_flags_range(vaddr, npages, set_mask=PTE_PINNED)
        self.gup_pinned_pages += npages
        obs.get().counter("linux.gup.pages").inc(npages)
        return table.translate_range(vaddr, npages)

    def walk_for_export(self, proc: OSProcess, vaddr: int, npages: int,
                        core: Optional[Core] = None):
        """Generator: Linux export path = get_user_pages, then the walk."""
        yield from self.pin_pages(proc, vaddr, npages)
        return (yield from super().walk_for_export(proc, vaddr, npages, core=core))

    # -- attach side: vm_mmap + remap_pfn_range --------------------------------------------

    def map_remote_pfns(self, proc: OSProcess, pfns: np.ndarray, name: str = "xemem-att",
                        core: Optional[Core] = None,
                        extra_per_page_ns: int = 0,
                        writable: bool = True):
        """Generator: map a remote PFN list eagerly (the cross-enclave path).

        vm_mmap carves the VMA under the global map lock (the shared
        kernel structures); remap_pfn_range then installs the PTEs under
        the *process's own* mmap_sem — concurrent attachers in different
        processes do not serialize their installs, matching Linux.
        """
        self._own_process(proc)
        o = obs.get()
        with o.span("linux.map_remote", self.engine, track=self.name,
                    npages=len(pfns)):
            yield self.map_lock.acquire()
            try:
                yield self.engine.sleep(self.costs.vm_mmap_fixed_ns)
                region, _vaddr = self._place_attachment(proc, len(pfns), name)
                region.pte_flags = PTE_PRESENT | PTE_USER | (
                    PTE_WRITABLE if writable else 0
                )
            finally:
                self.map_lock.release()
            core = core or self.service_core
            install_ns = len(pfns) * (
                self.costs.map_install_per_page_ns + extra_per_page_ns
            )
            yield from core.occupy(install_ns, f"remap_pfn_range:{len(pfns)}p")
        o.counter("linux.map.pages_installed").inc(len(pfns))
        proc.aspace.map_region_pfns(region, pfns)
        return region

    def munmap(self, proc: OSProcess, region: Region):
        """Generator: tear down an anonymous VMA and free its frames."""
        self._own_process(proc)
        if region.backing_pfns is not None:
            raise KernelError(
                f"munmap of borrowed-frame region {region.name!r}; detach instead"
            )
        yield self.engine.sleep(
            self.costs.vm_mmap_fixed_ns
            + region.populated * self.costs.unmap_per_page_ns
        )
        if region.populated == region.npages:
            pfns = proc.aspace.unmap_region(region)
        else:
            pfns = proc.aspace.unmap_populated_pages(region)
        if len(pfns):
            self.free_pfns(pfns)
        return len(pfns)

    def attach_local_lazy(self, proc: OSProcess, pfns: np.ndarray,
                          name: str = "xemem-local", writable: bool = True):
        """Generator: single-OS XEMEM attachment — a LAZY VMA over the
        exporter's frames. Cheap now, pays one fault per page on touch
        (the Fig. 8(b) mechanism)."""
        self._own_process(proc)
        yield self.engine.sleep(self.costs.vm_mmap_fixed_ns)
        vaddr = proc.aspace.find_free(len(pfns))
        region = proc.aspace.add_region(vaddr, len(pfns), RegionKind.LAZY, name)
        region.pte_flags = PTE_PRESENT | PTE_USER | (PTE_WRITABLE if writable else 0)
        region.backing_pfns = np.asarray(pfns, dtype=np.int64)
        return region
