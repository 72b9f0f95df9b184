"""Real 4-level x86-64 page tables with two storage-fidelity twins.

:class:`PageTable` owns the translation *semantics* — validation,
SMARTMAP slot borrowing, the generation-keyed walk cache, presence
accounting — and delegates PTE storage to one of two interchangeable
backing stores, chosen at construction by :data:`repro.sim.fidelity.FIDELITY`:

* **fast** (:class:`_ColumnarStore`) — structure-of-arrays: one flat
  ``int64`` PFN column plus one ``uint16`` flag-bitmask column, grown as
  an arena of 512-entry leaf rows. A per-PD index (``dict`` of 512-entry
  row-id arrays) maps leaf number → row. Rows for a contiguous mapping
  are allocated consecutively, so range operations collapse to a few
  flat slices and flag-only sweeps (pinning, presence probes) touch a
  quarter of the bytes a packed layout would.
* **detailed** (:class:`_RadixStore`) — hardware-shaped: PML4 → PDPT →
  PD → PT dicts, nine index bits per level, 512-entry numpy ``int64``
  leaf arrays of packed PTEs — exactly the radix walk a real MMU
  performs, retained as the differential twin.

A packed PTE is ``(pfn << 12) | flags``. The PINNED flag is software-only
(``get_user_pages`` semantics); everything else matches hardware bits in
spirit, not in exact bit position. Both stores keep the invariant that a
PTE is nonzero iff PRESENT (mapping always sets PRESENT), and both
report the *exact first missing page* in range faults, so fault
addresses, counters, and traces are byte-identical across fidelity
modes (``tests/sim/test_fidelity_diff.py``).

SMARTMAP's trick — sharing another process's entire address space by
aliasing a top-level PML4 slot — is :meth:`PageTable.share_pml4_slot`,
used by Kitten for *local* shared memory (paper §2, §4.3). Borrowed
slots are strictly read-through: every mutating operation (map, unmap,
flag updates — single-page *and* range variants) rejects addresses in a
borrowed slot with ``ValueError`` before touching anything, so a range
straddling a borrowed slot can never half-mutate the donor's tree.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.sim.fidelity import FIDELITY

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
ENTRIES = 512
LEVELS = 4

#: Bytes of virtual address space one PML4 slot covers (512 GiB).
PML4_SLOT_SPAN = 1 << 39

PTE_PRESENT = 0x001
PTE_WRITABLE = 0x002
PTE_USER = 0x004
PTE_ACCESSED = 0x008
PTE_DIRTY = 0x010
PTE_PINNED = 0x020  # software: get_user_pages pin

FLAG_MASK = (1 << PAGE_SHIFT) - 1

#: Highest canonical user address we hand out (47-bit user half).
USER_VA_LIMIT = 1 << 47


class PageFault(Exception):
    """Translation failed: no present PTE for the address."""

    def __init__(self, vaddr: int, write: bool = False):
        super().__init__(f"page fault at {vaddr:#x} ({'write' if write else 'read'})")
        self.vaddr = vaddr
        self.write = write


def pack_pte(pfn: int, flags: int) -> int:
    """Pack (pfn, flags) into one 64-bit PTE value."""
    if pfn < 0:
        raise ValueError(f"negative pfn {pfn}")
    if flags & ~FLAG_MASK:
        raise ValueError(f"flags {flags:#x} overflow the flag field")
    return (pfn << PAGE_SHIFT) | flags


def pte_pfn(pte: int) -> int:
    """The frame number a packed PTE maps."""
    return pte >> PAGE_SHIFT


def pte_flags(pte: int) -> int:
    """The flag bits of a packed PTE."""
    return pte & FLAG_MASK


def _check_vaddr(vaddr: int) -> None:
    if vaddr < 0 or vaddr % PAGE_SIZE:
        raise ValueError(f"vaddr {vaddr:#x} not page aligned / non-negative")
    if vaddr >= USER_VA_LIMIT:
        raise ValueError(f"vaddr {vaddr:#x} outside user half")


def _check_range(vaddr: int, npages: int) -> None:
    """Validate a range's shape; zero-page ranges skip address checks
    (range operations on empty ranges are well-defined no-ops)."""
    if npages < 0:
        raise ValueError(f"bad page count {npages}")
    if npages == 0:
        return
    _check_vaddr(vaddr)
    if vaddr + npages * PAGE_SIZE > USER_VA_LIMIT:
        raise ValueError(f"range end {vaddr + npages * PAGE_SIZE:#x} outside user half")


def _split_vaddr(vaddr: int) -> Tuple[int, int, int, int]:
    _check_vaddr(vaddr)
    return (
        (vaddr >> 39) & 0x1FF,
        (vaddr >> 30) & 0x1FF,
        (vaddr >> 21) & 0x1FF,
        (vaddr >> 12) & 0x1FF,
    )


#: Entries kept in a table's PFN-walk cache (recurring-attach workloads
#: re-walk a handful of ranges; anything bigger is churn).
WALK_CACHE_SLOTS = 8


class _RadixStore:
    """Detailed-fidelity backing store: the hardware-shaped radix tree.

    All methods assume validated, page-aligned inputs covering only this
    table's *own* tree (the :class:`PageTable` front end handles borrowed
    SMARTMAP slots and input validation). Range mutations are
    all-or-nothing: they validate every touched leaf before writing.
    """

    def __init__(self) -> None:
        # PML4: slot -> PDPT dict; PDPT: slot -> PD dict; PD: slot -> leaf array
        self.pml4: Dict[int, Dict] = {}

    # -- structure helpers ----------------------------------------------------

    def _leaf_own(self, i4: int, i3: int, i2: int) -> Optional[np.ndarray]:
        pdpt = self.pml4.get(i4)
        if pdpt is None:
            return None
        pd = pdpt.get(i3)
        if pd is None:
            return None
        return pd.get(i2)

    def _leaf_create(self, i4: int, i3: int, i2: int) -> np.ndarray:
        pdpt = self.pml4.setdefault(i4, {})
        pd = pdpt.setdefault(i3, {})
        leaf = pd.get(i2)
        if leaf is None:
            leaf = pd[i2] = np.zeros(ENTRIES, dtype=np.int64)
        return leaf

    def _iter_leaf_spans(
        self, vaddr: int, npages: int, create: bool
    ) -> Iterator[Tuple[Optional[np.ndarray], int, int, int]]:
        """Yield (leaf, first_index, count, page_offset) per touched leaf table."""
        done = 0
        va = vaddr
        while done < npages:
            i4, i3, i2, i1 = _split_vaddr(va)
            take = min(ENTRIES - i1, npages - done)
            if create:
                leaf = self._leaf_create(i4, i3, i2)
            else:
                leaf = self._leaf_own(i4, i3, i2)
            yield leaf, i1, take, done
            done += take
            va += take * PAGE_SIZE

    def slot_in_use(self, i4: int) -> bool:
        """True when this tree has (ever had) leaves under PML4 ``i4``."""
        return i4 in self.pml4

    # -- single-page PTEs -----------------------------------------------------

    def read_pte(self, vaddr: int) -> int:
        i4, i3, i2, i1 = _split_vaddr(vaddr)
        leaf = self._leaf_own(i4, i3, i2)
        if leaf is None:
            return 0
        return int(leaf[i1])

    def install_pte(self, vaddr: int, pfn: int, flags: int) -> None:
        i4, i3, i2, i1 = _split_vaddr(vaddr)
        self._leaf_create(i4, i3, i2)[i1] = pack_pte(pfn, flags)

    def zero_pte(self, vaddr: int) -> None:
        i4, i3, i2, i1 = _split_vaddr(vaddr)
        self._leaf_own(i4, i3, i2)[i1] = 0

    def rmw_pte_flags(self, vaddr: int, set_mask: int, clear_mask: int) -> bool:
        i4, i3, i2, i1 = _split_vaddr(vaddr)
        leaf = self._leaf_own(i4, i3, i2)
        if leaf is None or not leaf[i1] & PTE_PRESENT:
            return False
        leaf[i1] = (int(leaf[i1]) | set_mask) & ~clear_mask
        return True

    # -- range operations -----------------------------------------------------

    def map_range(self, vaddr: int, pfns: np.ndarray, flags: int) -> None:
        npages = len(pfns)
        # Validate against the *existing* structure first — creating leaf
        # tables before the collision check would leak empty leaves (and
        # claim the PML4 slot) on the error path. A PTE is nonzero iff
        # present (mapping always sets PRESENT), so plain truthiness is
        # the presence test here and in every range operation below.
        for leaf, i1, take, off in self._iter_leaf_spans(vaddr, npages, create=False):
            if leaf is None:
                continue
            window = leaf[i1 : i1 + take]
            if window.any():
                first = int(np.flatnonzero(window)[0])
                raise ValueError(
                    f"vaddr {vaddr + (off + first) * PAGE_SIZE:#x} already mapped"
                )
        packed = (pfns << PAGE_SHIFT) | flags
        for leaf, i1, take, off in self._iter_leaf_spans(vaddr, npages, create=True):
            leaf[i1 : i1 + take] = packed[off : off + take]

    def _check_present(self, spans, vaddr: int) -> None:
        """Fault at the first hole of ``spans`` (missing leaf or zero PTE)."""
        for leaf, i1, take, off in spans:
            if leaf is None:
                raise PageFault(vaddr + off * PAGE_SIZE)
            window = leaf[i1 : i1 + take]
            if not window.all():
                hole = int(np.flatnonzero(window == 0)[0])
                raise PageFault(vaddr + (off + hole) * PAGE_SIZE)

    def unmap_range(self, vaddr: int, npages: int, out: np.ndarray) -> None:
        spans = list(self._iter_leaf_spans(vaddr, npages, create=False))
        self._check_present(spans, vaddr)  # validate first: all-or-nothing
        for leaf, i1, take, off in spans:
            window = leaf[i1 : i1 + take]
            out[off : off + take] = window
            window[:] = 0
        out >>= PAGE_SHIFT

    def walk_into(self, vaddr: int, npages: int, out: np.ndarray) -> None:
        spans = list(self._iter_leaf_spans(vaddr, npages, create=False))
        self._check_present(spans, vaddr)
        for leaf, i1, take, off in spans:
            out[off : off + take] = leaf[i1 : i1 + take]
        out >>= PAGE_SHIFT

    def range_flags_all(self, vaddr: int, npages: int, mask: int) -> bool:
        # One combined per-leaf check: a window passing the present+mask
        # test needs no hole scan, so the common case never materializes
        # the full range. A hole still faults even after a leaf already
        # answered False — leaves scan in range order, so the fault is
        # the range's first hole.
        want = np.int64(mask | PTE_PRESENT)
        ok = True
        for span in self._iter_leaf_spans(vaddr, npages, create=False):
            leaf, i1, take, _ = span
            if leaf is not None and ((leaf[i1 : i1 + take] & want) == want).all():
                continue
            self._check_present((span,), vaddr)
            ok = False
        return ok

    def set_flags_range(self, vaddr: int, npages: int, set_mask: int, clear_mask: int) -> None:
        spans = list(self._iter_leaf_spans(vaddr, npages, create=False))
        self._check_present(spans, vaddr)  # validate first: all-or-nothing
        clear = np.int64(~clear_mask)
        for leaf, i1, take, off in spans:
            window = leaf[i1 : i1 + take]
            window |= set_mask
            window &= clear

    def present_mask_into(self, vaddr: int, npages: int, out: np.ndarray) -> None:
        for leaf, i1, take, off in self._iter_leaf_spans(vaddr, npages, create=False):
            if leaf is not None:
                out[off : off + take] = leaf[i1 : i1 + take] != 0

    def flag_mask_into(self, vaddr: int, npages: int, mask: int, out: np.ndarray) -> None:
        want = np.int64(mask | PTE_PRESENT)
        for leaf, i1, take, off in self._iter_leaf_spans(vaddr, npages, create=False):
            if leaf is not None:
                out[off : off + take] = (leaf[i1 : i1 + take] & want) == want

    def first_missing_flag(self, vaddr: int, npages: int, mask: int) -> int:
        want = np.int64(mask | PTE_PRESENT)
        for leaf, i1, take, off in self._iter_leaf_spans(vaddr, npages, create=False):
            if leaf is None:
                return off
            ok = (leaf[i1 : i1 + take] & want) == want
            if not ok.all():
                return off + int(np.flatnonzero(~ok)[0])
        return -1

    def map_pages_sparse(
        self, vaddr: int, page_indices: np.ndarray, pfns: np.ndarray, flags: int
    ) -> None:
        n = len(page_indices)
        abs_pages = (vaddr >> PAGE_SHIFT) + page_indices
        # Sorted indices make pages of the same leaf contiguous here.
        bounds = np.flatnonzero(np.diff(abs_pages >> 9)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [n]))
        packed = (pfns << PAGE_SHIFT) | flags
        groups = []
        for s, e in zip(starts, ends):
            i4, i3, i2, _ = _split_vaddr(int(abs_pages[s]) << PAGE_SHIFT)
            # Probe without creating: a collision must not leak fresh leaves.
            leaf = self._leaf_own(i4, i3, i2)
            idx = abs_pages[s:e] & 0x1FF
            if leaf is not None:
                taken = np.flatnonzero(leaf[idx])
                if len(taken):
                    bad = vaddr + int(page_indices[s + int(taken[0])]) * PAGE_SIZE
                    raise ValueError(f"vaddr {bad:#x} already mapped")
            groups.append((i4, i3, i2, idx, s, e))
        for i4, i3, i2, idx, s, e in groups:
            self._leaf_create(i4, i3, i2)[idx] = packed[s:e]

    # -- introspection --------------------------------------------------------

    def present_pfns(self) -> np.ndarray:
        chunks = []
        for pdpt in self.pml4.values():
            for pd in pdpt.values():
                for leaf in pd.values():
                    present = leaf[(leaf & PTE_PRESENT) != 0]
                    if len(present):
                        chunks.append(present >> PAGE_SHIFT)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(chunks))

    def mapped_vaddrs(self) -> List[int]:
        out = []
        for i4, pdpt in self.pml4.items():
            for i3, pd in pdpt.items():
                for i2, leaf in pd.items():
                    for i1 in np.flatnonzero(leaf & PTE_PRESENT):
                        out.append((i4 << 39) | (i3 << 30) | (i2 << 21) | (int(i1) << 12))
        return sorted(out)


class _ColumnarStore:
    """Fast-fidelity backing store: structure-of-arrays PTE columns.

    Leaf tables live in a flat arena: row ``r`` owns elements
    ``[r*512, (r+1)*512)`` of the PFN column (``int64``) and the flag
    column (``uint16``). ``_rows`` maps a PD number (``abs_leaf >> 9``)
    to a 512-entry row-id array (``-1`` = leaf absent). Rows for a
    contiguous mapping are allocated consecutively, so a multi-GiB range
    operation usually resolves to **one** flat slice. A page is present
    iff its flag-column entry is nonzero; stale PFNs left behind by
    unmap are masked by that invariant everywhere.

    Rows are never returned to the arena — a table's footprint is its
    peak mapped leaf count (bounded, and remaps of a churned range reuse
    their rows without allocating).

    Same contract as :class:`_RadixStore`: validated own-tree inputs,
    all-or-nothing mutations, exact first-hole fault addresses.
    """

    def __init__(self) -> None:
        #: PD number (abs_leaf >> 9) -> int64[512] of row ids, -1 = absent.
        self._rows: Dict[int, np.ndarray] = {}
        self._pfns = np.empty(0, dtype=np.int64)
        self._flags = np.empty(0, dtype=np.uint16)
        self._nrows = 0

    # -- arena ----------------------------------------------------------------

    def _alloc_rows(self, n: int) -> int:
        """Reserve ``n`` fresh zeroed rows; returns the first row id."""
        need = self._nrows + n
        cap = len(self._flags) >> 9
        if need > cap:
            newcap = max(need, 2 * cap, 64)
            pfns = np.zeros(newcap << 9, dtype=np.int64)
            flags = np.zeros(newcap << 9, dtype=np.uint16)
            used = self._nrows << 9
            pfns[:used] = self._pfns[:used]
            flags[:used] = self._flags[:used]
            self._pfns, self._flags = pfns, flags
        first = self._nrows
        self._nrows = need
        return first

    def _leaf_rows(self, uleaves: np.ndarray, create: bool) -> np.ndarray:
        """Row ids for unique sorted absolute leaf numbers (-1 = absent)."""
        rows = np.empty(len(uleaves), dtype=np.int64)
        pds = uleaves >> 9
        for pd in np.unique(pds).tolist():
            sel = pds == pd
            group = self._rows.get(pd)
            if group is None and create:
                group = self._rows[pd] = np.full(ENTRIES, -1, dtype=np.int64)
            if group is None:
                rows[sel] = -1
            else:
                rows[sel] = group[uleaves[sel] - (pd << 9)]
        if create:
            missing = np.flatnonzero(rows < 0)
            if len(missing):
                first = self._alloc_rows(len(missing))
                fresh = first + np.arange(len(missing), dtype=np.int64)
                rows[missing] = fresh
                mleaves = uleaves[missing]
                mpds = mleaves >> 9
                for pd in np.unique(mpds).tolist():
                    sel = mpds == pd
                    self._rows[pd][mleaves[sel] - (pd << 9)] = fresh[sel]
        return rows

    def _runs(self, vaddr: int, npages: int, create: bool) -> List[Tuple[int, int, int]]:
        """Split a range into flat-arena runs: (flat_start, page_off, count).

        ``flat_start`` is -1 for a run of absent leaves. Consecutive row
        ids merge into one run, so a freshly mapped multi-GiB range is a
        single (flat_start, 0, npages) entry.
        """
        if npages == 0:
            return []
        p0 = vaddr >> PAGE_SHIFT
        p_last = p0 + npages - 1
        leaf0 = p0 >> 9
        rows = self._leaf_rows(np.arange(leaf0, (p_last >> 9) + 1, dtype=np.int64), create)
        if len(rows) == 1:
            row = int(rows[0])
            flat = (row << 9) + (p0 & 0x1FF) if row >= 0 else -1
            return [(flat, 0, npages)]
        diffs = np.diff(rows)
        present = rows >= 0
        joined = (present[:-1] & present[1:] & (diffs == 1)) | ~(present[:-1] | present[1:])
        brk = np.flatnonzero(~joined) + 1
        starts = np.concatenate(([0], brk))
        ends = np.concatenate((brk, [len(rows)]))
        out = []
        for s, e in zip(starts.tolist(), ends.tolist()):
            lo = max(p0, (leaf0 + s) << 9)
            hi = min(p_last, ((leaf0 + e) << 9) - 1)
            row = int(rows[s])
            flat = (row << 9) + (lo & 0x1FF) if row >= 0 else -1
            out.append((flat, lo - p0, hi - lo + 1))
        return out

    def slot_in_use(self, i4: int) -> bool:
        """True when this tree has (ever had) leaves under PML4 ``i4``."""
        return any(pd >> 9 == i4 for pd in self._rows)

    # -- single-page PTEs -----------------------------------------------------

    def _flat_index(self, vaddr: int) -> int:
        """Flat arena index for a mapped page's PTE, or -1."""
        page = vaddr >> PAGE_SHIFT
        group = self._rows.get(page >> 18)
        if group is None:
            return -1
        row = int(group[(page >> 9) & 0x1FF])
        if row < 0:
            return -1
        return (row << 9) + (page & 0x1FF)

    def read_pte(self, vaddr: int) -> int:
        flat = self._flat_index(vaddr)
        if flat < 0:
            return 0
        flags = int(self._flags[flat])
        if flags == 0:
            return 0
        return (int(self._pfns[flat]) << PAGE_SHIFT) | flags

    def install_pte(self, vaddr: int, pfn: int, flags: int) -> None:
        pack_pte(pfn, flags)  # validate the pfn/flag ranges like the radix twin
        page = vaddr >> PAGE_SHIFT
        pd = page >> 18
        group = self._rows.get(pd)
        if group is None:
            group = self._rows[pd] = np.full(ENTRIES, -1, dtype=np.int64)
        leaf_idx = (page >> 9) & 0x1FF
        row = int(group[leaf_idx])
        if row < 0:
            row = self._alloc_rows(1)
            group[leaf_idx] = row
        flat = (row << 9) + (page & 0x1FF)
        self._pfns[flat] = pfn
        self._flags[flat] = flags

    def zero_pte(self, vaddr: int) -> None:
        self._flags[self._flat_index(vaddr)] = 0

    def rmw_pte_flags(self, vaddr: int, set_mask: int, clear_mask: int) -> bool:
        flat = self._flat_index(vaddr)
        if flat < 0:
            return False
        flags = int(self._flags[flat])
        if not flags & PTE_PRESENT:
            return False
        self._flags[flat] = (flags | set_mask) & ~clear_mask
        return True

    # -- range operations -----------------------------------------------------

    def _first_hole(self, flat: int, off: int, count: int) -> Optional[int]:
        """Page offset of the first non-present page in a run, else None."""
        if flat < 0:
            return off
        window = self._flags[flat : flat + count]
        if window.all():
            return None
        return off + int(np.flatnonzero(window == 0)[0])

    def _validate_present(self, vaddr: int, runs: List[Tuple[int, int, int]]) -> None:
        for flat, off, count in runs:
            hole = self._first_hole(flat, off, count)
            if hole is not None:
                raise PageFault(vaddr + hole * PAGE_SIZE)

    def map_range(self, vaddr: int, pfns: np.ndarray, flags: int) -> None:
        npages = len(pfns)
        # Probe the existing rows first (no creation): a collision must
        # not leak fresh rows or claim the PML4 slot.
        for flat, off, count in self._runs(vaddr, npages, create=False):
            if flat < 0:
                continue
            taken = np.flatnonzero(self._flags[flat : flat + count])
            if len(taken):
                raise ValueError(
                    f"vaddr {vaddr + (off + int(taken[0])) * PAGE_SIZE:#x} already mapped"
                )
        for flat, off, count in self._runs(vaddr, npages, create=True):
            self._pfns[flat : flat + count] = pfns[off : off + count]
            self._flags[flat : flat + count] = flags

    def unmap_range(self, vaddr: int, npages: int, out: np.ndarray) -> None:
        runs = self._runs(vaddr, npages, create=False)
        self._validate_present(vaddr, runs)  # all-or-nothing
        for flat, off, count in runs:
            out[off : off + count] = self._pfns[flat : flat + count]
            self._flags[flat : flat + count] = 0

    def walk_into(self, vaddr: int, npages: int, out: np.ndarray) -> None:
        runs = self._runs(vaddr, npages, create=False)
        self._validate_present(vaddr, runs)
        for flat, off, count in runs:
            out[off : off + count] = self._pfns[flat : flat + count]

    def range_flags_all(self, vaddr: int, npages: int, mask: int) -> bool:
        runs = self._runs(vaddr, npages, create=False)
        self._validate_present(vaddr, runs)  # fault before answering
        want = np.uint16(mask)
        for flat, off, count in runs:
            window = self._flags[flat : flat + count]
            if not ((window & want) == want).all():
                return False
        return True

    def set_flags_range(self, vaddr: int, npages: int, set_mask: int, clear_mask: int) -> None:
        runs = self._runs(vaddr, npages, create=False)
        self._validate_present(vaddr, runs)  # all-or-nothing
        keep = np.uint16(~clear_mask & 0xFFFF)
        setv = np.uint16(set_mask)
        for flat, off, count in runs:
            window = self._flags[flat : flat + count]
            window |= setv
            window &= keep

    def present_mask_into(self, vaddr: int, npages: int, out: np.ndarray) -> None:
        for flat, off, count in self._runs(vaddr, npages, create=False):
            if flat >= 0:
                np.not_equal(self._flags[flat : flat + count], 0, out=out[off : off + count])

    def flag_mask_into(self, vaddr: int, npages: int, mask: int, out: np.ndarray) -> None:
        want = np.uint16(mask | PTE_PRESENT)
        for flat, off, count in self._runs(vaddr, npages, create=False):
            if flat >= 0:
                window = self._flags[flat : flat + count]
                np.equal(window & want, want, out=out[off : off + count])

    def first_missing_flag(self, vaddr: int, npages: int, mask: int) -> int:
        want = np.uint16(mask | PTE_PRESENT)
        for flat, off, count in self._runs(vaddr, npages, create=False):
            if flat < 0:
                return off
            ok = (self._flags[flat : flat + count] & want) == want
            if not ok.all():
                return off + int(np.flatnonzero(~ok)[0])
        return -1

    def map_pages_sparse(
        self, vaddr: int, page_indices: np.ndarray, pfns: np.ndarray, flags: int
    ) -> None:
        abs_pages = (vaddr >> PAGE_SHIFT) + page_indices
        leaves = abs_pages >> 9
        first_of_leaf = np.empty(len(leaves), dtype=bool)
        first_of_leaf[0] = True
        np.not_equal(leaves[1:], leaves[:-1], out=first_of_leaf[1:])
        uleaves = leaves[first_of_leaf]
        counts = np.diff(np.concatenate((np.flatnonzero(first_of_leaf), [len(leaves)])))
        # Probe without creating rows: a collision must not leak them.
        rows = np.repeat(self._leaf_rows(uleaves, create=False), counts)
        flat = (rows << 9) + (abs_pages & 0x1FF)
        have = rows >= 0
        if have.any():
            taken = np.flatnonzero(self._flags[flat[have]] != 0)
            if len(taken):
                bad_idx = int(np.flatnonzero(have)[int(taken[0])])
                bad = vaddr + int(page_indices[bad_idx]) * PAGE_SIZE
                raise ValueError(f"vaddr {bad:#x} already mapped")
        if not have.all():
            rows = np.repeat(self._leaf_rows(uleaves, create=True), counts)
            flat = (rows << 9) + (abs_pages & 0x1FF)
        self._pfns[flat] = pfns
        self._flags[flat] = flags

    # -- introspection --------------------------------------------------------

    def present_pfns(self) -> np.ndarray:
        used = self._nrows << 9
        return np.sort(self._pfns[:used][self._flags[:used] != 0])

    def mapped_vaddrs(self) -> List[int]:
        out: List[int] = []
        for pd in sorted(self._rows):
            group = self._rows[pd]
            for leaf_idx in np.flatnonzero(group >= 0):
                row = int(group[leaf_idx])
                entries = np.flatnonzero(self._flags[row << 9 : (row + 1) << 9])
                leaf = (pd << 9) | int(leaf_idx)
                for i1 in entries:
                    out.append(((leaf << 9) | int(i1)) << PAGE_SHIFT)
        return out  # pd/leaf/entry iteration order is address order


class PageTable:
    """One process's 4-level translation tree.

    Every PFN-*changing* mutation bumps :attr:`generation`; flag-only
    changes (:meth:`set_flags`, :meth:`set_flags_range`) do not, since
    they cannot alter what :meth:`translate_range` returns. The walk
    cache keys on the generation, so repeated walks of an unchanged
    range (Fig. 8's recurring attachments) skip the leaf iteration.

    PTE storage is delegated to a fidelity twin chosen at construction
    (see the module docstring); semantics, counters, and fault addresses
    are identical either way.
    """

    def __init__(self) -> None:
        if FIDELITY.columnar:
            self._store = _ColumnarStore()
        else:
            self._store = _RadixStore()
        #: PML4 slots borrowed from other processes (SMARTMAP); value is the
        #: donor PageTable. Borrowed slots are read-through, never modified.
        self.shared_slots: Dict[int, "PageTable"] = {}
        self._present = 0
        #: Bumped on every PFN-changing mutation; invalidates the walk cache.
        self.generation = 0
        #: (vaddr, npages) -> (generation, pfns). Entries store private
        #: copies and hits return copies, so callers can never corrupt it.
        self._walk_cache: Dict[Tuple[int, int], Tuple[int, np.ndarray]] = {}

    # -- SMARTMAP routing helpers ---------------------------------------------

    def _guard_borrowed(self, vaddr: int, npages: int = 1) -> None:
        """Reject mutations touching a borrowed (SMARTMAP) slot.

        Checked *before* any state changes, so a range straddling a
        borrowed slot cannot half-mutate the donor's tree.
        """
        if not self.shared_slots or npages <= 0:
            return
        first = vaddr >> 39
        last = (vaddr + npages * PAGE_SIZE - 1) >> 39
        for slot in range(first, last + 1):
            if slot in self.shared_slots:
                raise ValueError(f"PML4 slot {slot} is borrowed (SMARTMAP); read-only")

    def _range_touches_shared(self, vaddr: int, npages: int) -> bool:
        """True when [vaddr, +npages) crosses a borrowed (SMARTMAP) slot.

        Such ranges read the *donor's* tree, whose mutations do not bump
        this table's generation — the walk cache must bypass them.
        """
        if not self.shared_slots:
            return False
        first = vaddr >> 39
        last = (vaddr + npages * PAGE_SIZE - 1) >> 39
        return any(slot in self.shared_slots for slot in range(first, last + 1))

    def _segments(self, vaddr: int, npages: int) -> Iterator[Tuple[object, int, int, int, int]]:
        """Split a read range at PML4 slot boundaries for store routing.

        Yields ``(store, local_vaddr, npages, page_off, rebase)`` where
        borrowed slots route to the donor's store at the donor-local
        address (SMARTMAP aliases the donor's slot 0, where Kitten
        places all process regions) and ``rebase`` restores borrower
        addresses in fault reports.
        """
        if not self.shared_slots:
            yield self._store, vaddr, npages, 0, 0
            return
        end = vaddr + npages * PAGE_SIZE
        va = vaddr
        off = 0
        while va < end:
            slot = va >> 39
            seg_end = min(end, (slot + 1) << 39)
            take = (seg_end - va) >> PAGE_SHIFT
            donor = self.shared_slots.get(slot)
            if donor is not None:
                yield donor._store, va - (slot << 39), take, off, slot << 39
            else:
                yield self._store, va, take, off, 0
            va = seg_end
            off += take

    def _read_pte(self, page_va: int) -> int:
        """Packed PTE for a page-aligned address, routing borrowed slots."""
        slot = page_va >> 39
        donor = self.shared_slots.get(slot)
        if donor is not None:
            return donor._store.read_pte(page_va - (slot << 39))
        return self._store.read_pte(page_va)

    # -- single-page operations ------------------------------------------------

    def map_page(self, vaddr: int, pfn: int, flags: int = PTE_PRESENT | PTE_WRITABLE | PTE_USER) -> None:
        """Install one PTE; rejects double-mapping and missing PRESENT."""
        if not flags & PTE_PRESENT:
            raise ValueError("mapping must set PTE_PRESENT")
        _check_vaddr(vaddr)
        self._guard_borrowed(vaddr)
        if self._store.read_pte(vaddr) & PTE_PRESENT:
            raise ValueError(f"vaddr {vaddr:#x} already mapped")
        self._store.install_pte(vaddr, pfn, flags)
        self._present += 1
        self.generation += 1

    def unmap_page(self, vaddr: int) -> int:
        """Remove the PTE; returns the PFN it mapped."""
        _check_vaddr(vaddr)
        self._guard_borrowed(vaddr)
        pte = self._store.read_pte(vaddr)
        if not pte & PTE_PRESENT:
            raise PageFault(vaddr)
        self._store.zero_pte(vaddr)
        self._present -= 1
        self.generation += 1
        return pte_pfn(pte)

    def translate(self, vaddr: int, write: bool = False) -> Tuple[int, int]:
        """Return (pfn, flags) for ``vaddr``; raises :class:`PageFault`."""
        page_va = vaddr & ~(PAGE_SIZE - 1)
        _check_vaddr(page_va)
        pte = self._read_pte(page_va)
        if not pte & PTE_PRESENT:
            raise PageFault(vaddr, write)
        if write and not pte & PTE_WRITABLE:
            raise PageFault(vaddr, write=True)
        return pte_pfn(pte), pte_flags(pte)

    def set_flags(self, vaddr: int, set_mask: int = 0, clear_mask: int = 0) -> None:
        """Adjust flag bits on an existing PTE (e.g. pinning)."""
        if clear_mask & PTE_PRESENT:
            raise ValueError("use unmap_page to clear PRESENT")
        page_va = vaddr & ~(PAGE_SIZE - 1)
        _check_vaddr(page_va)
        self._guard_borrowed(page_va)
        if not self._store.rmw_pte_flags(page_va, set_mask, clear_mask):
            raise PageFault(vaddr)

    # -- vectorized range operations --------------------------------------------

    def map_range(self, vaddr: int, pfns: np.ndarray, flags: int = PTE_PRESENT | PTE_WRITABLE | PTE_USER) -> None:
        """Install ``len(pfns)`` PTEs starting at ``vaddr`` (vectorized).

        All-or-nothing: validates the whole range against existing
        mappings *before* creating any structure, so a rejected map
        leaves no empty leaves (and no spuriously claimed PML4 slot).
        """
        if not flags & PTE_PRESENT:
            raise ValueError("mapping must set PTE_PRESENT")
        pfns = np.asarray(pfns, dtype=np.int64)
        if len(pfns) and pfns.min() < 0:
            raise ValueError("negative pfn in range")
        npages = len(pfns)
        _check_range(vaddr, npages)
        self._guard_borrowed(vaddr, npages)
        if npages:
            self._store.map_range(vaddr, pfns, flags)
            self._present += npages
            self.generation += 1

    def unmap_range(self, vaddr: int, npages: int) -> np.ndarray:
        """Remove ``npages`` PTEs; returns the PFNs they mapped."""
        _check_range(vaddr, npages)
        self._guard_borrowed(vaddr, npages)
        out = np.empty(npages, dtype=np.int64)
        if npages:
            self._store.unmap_range(vaddr, npages, out)
            self._present -= npages
            self.generation += 1
        return out

    def translate_range(self, vaddr: int, npages: int) -> np.ndarray:
        """PFNs for ``npages`` starting at ``vaddr`` — the page-table *walk*
        XEMEM uses to build PFN lists. Raises on any hole.

        Repeated walks of an unchanged range are served from the walk
        cache (keyed on :attr:`generation`); ranges that cross a borrowed
        SMARTMAP slot always re-walk, since donor mutations do not bump
        this table's generation. The timing-model counter is charged
        either way — the cache only removes host-side leaf iteration.
        """
        from repro import obs

        obs.get().counter("pagetable.translate.pages").inc(npages)
        if npages == 0:
            return np.empty(0, dtype=np.int64)
        if self._range_touches_shared(vaddr, npages):
            return self._walk(vaddr, npages)
        key = (vaddr, npages)
        hit = self._walk_cache.get(key)
        if hit is not None and hit[0] == self.generation:
            obs.get().counter("fastpath.walkcache.hits").inc()
            return hit[1].copy()
        out = self._walk(vaddr, npages)
        if hit is None and len(self._walk_cache) >= WALK_CACHE_SLOTS:
            self._walk_cache.pop(next(iter(self._walk_cache)))
        self._walk_cache[key] = (self.generation, out.copy())
        return out

    def _walk(self, vaddr: int, npages: int) -> np.ndarray:
        """The uncached walk behind :meth:`translate_range`."""
        _check_range(vaddr, npages)
        out = np.empty(npages, dtype=np.int64)
        for store, va, take, off, rebase in self._segments(vaddr, npages):
            if rebase:
                try:
                    store.walk_into(va, take, out[off : off + take])
                except PageFault as exc:
                    raise PageFault(exc.vaddr + rebase, exc.write) from None
            else:
                store.walk_into(va, take, out[off : off + take])
        return out

    def range_flags_all(self, vaddr: int, npages: int, mask: int) -> bool:
        """True when every PTE in the range has all bits of ``mask`` set."""
        _check_range(vaddr, npages)
        ok = True
        for store, va, take, off, rebase in self._segments(vaddr, npages):
            if rebase:
                try:
                    seg_ok = store.range_flags_all(va, take, mask)
                except PageFault as exc:
                    raise PageFault(exc.vaddr + rebase, exc.write) from None
            else:
                seg_ok = store.range_flags_all(va, take, mask)
            ok = ok and seg_ok
        return ok

    def set_flags_range(self, vaddr: int, npages: int, set_mask: int = 0, clear_mask: int = 0) -> None:
        """Adjust flag bits across a mapped range (e.g. bulk pinning).

        Flag changes never alter what :meth:`translate_range` returns, so
        this deliberately does *not* bump :attr:`generation` — recurring
        pin/unpin cycles keep their walk-cache entries warm.
        """
        if clear_mask & PTE_PRESENT:
            raise ValueError("use unmap_range to clear PRESENT")
        _check_range(vaddr, npages)
        self._guard_borrowed(vaddr, npages)
        if npages:
            self._store.set_flags_range(vaddr, npages, set_mask, clear_mask)

    def present_mask(self, vaddr: int, npages: int) -> np.ndarray:
        """Boolean per-page presence for the range; missing leaves read False.

        Unlike :meth:`translate_range` this never faults — it is the probe
        behind the vectorized partial-population fault paths.
        """
        _check_range(vaddr, npages)
        out = np.zeros(npages, dtype=bool)
        for store, va, take, off, _rebase in self._segments(vaddr, npages):
            store.present_mask_into(va, take, out[off : off + take])
        return out

    def flag_mask(self, vaddr: int, npages: int, mask: int) -> np.ndarray:
        """Boolean per-page: present *and* every bit of ``mask`` set."""
        _check_range(vaddr, npages)
        out = np.zeros(npages, dtype=bool)
        for store, va, take, off, _rebase in self._segments(vaddr, npages):
            store.flag_mask_into(va, take, mask, out[off : off + take])
        return out

    def first_missing_flag(self, vaddr: int, npages: int, mask: int) -> int:
        """Page offset of the first page absent or lacking ``mask`` bits, or -1.

        The early-exiting scalar probe behind write-protection fault
        reporting — equivalent to ``np.flatnonzero(~flag_mask(...))[0]``
        without materializing the per-page boolean range.
        """
        _check_range(vaddr, npages)
        for store, va, take, off, _rebase in self._segments(vaddr, npages):
            hit = store.first_missing_flag(va, take, mask)
            if hit >= 0:
                return off + hit
        return -1

    def map_pages_sparse(
        self,
        vaddr: int,
        page_indices: np.ndarray,
        pfns: np.ndarray,
        flags: int = PTE_PRESENT | PTE_WRITABLE | PTE_USER,
    ) -> None:
        """Install PTEs at ``vaddr + idx*PAGE_SIZE`` for each ``idx``.

        ``page_indices`` must be sorted ascending, unique, and
        non-negative (as produced by ``np.flatnonzero`` over a presence
        mask) — violations are rejected before any mutation, since the
        leaf-grouping fill would otherwise collapse duplicate indices to
        one PTE while presence accounting counted them all. All-or-nothing
        like :meth:`map_range`.
        """
        if not flags & PTE_PRESENT:
            raise ValueError("mapping must set PTE_PRESENT")
        page_indices = np.asarray(page_indices, dtype=np.int64)
        pfns = np.asarray(pfns, dtype=np.int64)
        if len(page_indices) != len(pfns):
            raise ValueError("page_indices and pfns disagree on length")
        n = len(page_indices)
        if n == 0:
            return
        if pfns.min() < 0:
            raise ValueError("negative pfn in range")
        if int(page_indices[0]) < 0:
            raise ValueError(f"negative page index {int(page_indices[0])}")
        if n > 1 and int(np.diff(page_indices).min()) <= 0:
            raise ValueError("page_indices must be sorted ascending and unique")
        span = int(page_indices[-1]) + 1
        _check_range(vaddr, span)
        self._guard_borrowed(vaddr, span)
        self._store.map_pages_sparse(vaddr, page_indices, pfns, flags)
        self._present += n
        self.generation += 1

    # -- SMARTMAP -----------------------------------------------------------------

    def share_pml4_slot(self, slot: int, donor: "PageTable") -> None:
        """Alias ``donor``'s whole address space under PML4 ``slot``.

        This is SMARTMAP: translations through ``slot`` read the donor's
        own tree (donor slot 0, where Kitten places all process regions).
        """
        if not 0 <= slot < ENTRIES // 2:
            raise ValueError(f"slot {slot} outside user half")
        if self._store.slot_in_use(slot) or slot in self.shared_slots:
            raise ValueError(f"PML4 slot {slot} already in use")
        if donor is self:
            raise ValueError("cannot SMARTMAP a table into itself")
        self.shared_slots[slot] = donor
        self.generation += 1

    def unshare_pml4_slot(self, slot: int) -> None:
        """Drop a borrowed SMARTMAP slot."""
        if slot not in self.shared_slots:
            raise ValueError(f"PML4 slot {slot} not shared")
        del self.shared_slots[slot]
        self.generation += 1

    # -- introspection --------------------------------------------------------------

    @property
    def present_pages(self) -> int:
        """Number of present PTEs in this table's own tree."""
        return self._present

    def walk_cache_entries(self) -> List[Tuple[int, int, int, np.ndarray]]:
        """Snapshot of the walk cache: (vaddr, npages, generation, pfns).

        Audit tap — returns copies, never mutates the cache or the
        counters, so reading it cannot perturb a run.
        """
        return [
            (vaddr, npages, gen, pfns.copy())
            for (vaddr, npages), (gen, pfns) in self._walk_cache.items()
        ]

    def present_pfns(self) -> np.ndarray:
        """Sorted PFNs of every present PTE in this table's own tree.

        Audit tap for frame-ownership checks (slow; scans every leaf).
        Borrowed SMARTMAP slots are excluded — those frames belong to the
        donor's tree.
        """
        return self._store.present_pfns()

    def mapped_vaddrs(self) -> List[int]:
        """All mapped page-aligned vaddrs in this table's own tree (slow; tests)."""
        return self._store.mapped_vaddrs()
