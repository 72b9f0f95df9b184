"""Edge cases for the page table's hot paths: zero-page range ops, the
generation-keyed walk cache (checked against the uncached walk), and the
sparse/vectorized helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.kernels.pagetable import (
    PAGE_SIZE,
    PML4_SLOT_SPAN,
    WALK_CACHE_SLOTS,
    PageFault,
    PageTable,
    PTE_PINNED,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
)
from repro.sim import fidelity

RW = PTE_PRESENT | PTE_WRITABLE | PTE_USER


def _store(detailed):
    return fidelity.configured("detailed" if detailed else "fast")


def _mapped(npages=8, base=0x40_0000):
    pt = PageTable()
    pt.map_range(base, np.arange(100, 100 + npages, dtype=np.int64), RW)
    return pt, base


# -- zero-page ranges are well-defined no-ops -----------------------------------------


@pytest.mark.parametrize("detailed", [False, True])
def test_zero_page_range_ops_are_noops(detailed):
    with _store(detailed):
        pt, base = _mapped()
        gen = pt.generation
        pt.map_range(base + 0x100000, np.empty(0, dtype=np.int64), RW)
        out = pt.unmap_range(base, 0)
        assert out.shape == (0,)
        walked = pt.translate_range(base, 0)
        assert walked.shape == (0,)
        assert pt.range_flags_all(base, 0, PTE_WRITABLE)
        pt.set_flags_range(base, 0, set_mask=PTE_PINNED)
        # nothing changed: not the mapping count, not the generation
        assert pt.present_pages == 8
        assert pt.generation == gen
        # ...even on a completely unmapped address
        assert pt.translate_range(0x7000_0000, 0).shape == (0,)


@pytest.mark.parametrize("detailed", [False, True])
def test_negative_page_count_rejected(detailed):
    with _store(detailed):
        pt, base = _mapped()
        with pytest.raises(ValueError):
            pt.translate_range(base, -1)
        with pytest.raises(ValueError):
            pt.unmap_range(base, -3)


# -- walk cache -----------------------------------------------------------------------


def test_walk_cache_hits_on_repeat_walks():
    with obs.observing(metrics=True) as ctx:
        pt, base = _mapped(16)
        first = pt.translate_range(base, 16)
        second = pt.translate_range(base, 16)
    np.testing.assert_array_equal(first, second)
    assert ctx.metrics.snapshot()["fastpath.walkcache.hits"] == 1


def test_walk_cache_invalidated_by_pfn_mutations():
    with obs.observing(metrics=True) as ctx:
        pt, base = _mapped(16)
        pt.translate_range(base, 16)          # prime
        pt.map_page(base + 16 * PAGE_SIZE, 999, RW)
        after_map = pt.translate_range(base, 16)     # stale -> rewalk
        pt.translate_range(base, 16)                  # fresh -> hit
        pt.unmap_page(base + 16 * PAGE_SIZE)
        after_unmap = pt.translate_range(base, 16)   # stale again
    np.testing.assert_array_equal(after_map, after_unmap)
    assert ctx.metrics.snapshot()["fastpath.walkcache.hits"] == 1


def test_walk_cache_survives_flag_only_mutations():
    """Pinning (set_flags*) must not evict — the recurring-attach case."""
    with obs.observing(metrics=True) as ctx:
        pt, base = _mapped(16)
        pt.translate_range(base, 16)
        pt.set_flags_range(base, 16, set_mask=PTE_PINNED)
        pt.set_flags(base, set_mask=0, clear_mask=PTE_PINNED)
        pt.translate_range(base, 16)
    assert ctx.metrics.snapshot()["fastpath.walkcache.hits"] == 1


def test_walk_cache_returns_private_copies():
    pt, base = _mapped(4)
    first = pt.translate_range(base, 4)
    first[:] = -1  # corrupting the caller's array must not poison the cache
    second = pt.translate_range(base, 4)
    np.testing.assert_array_equal(second, np.arange(100, 104))
    third = pt.translate_range(base, 4)
    assert third is not second


def test_walk_cache_eviction_is_bounded():
    pt = PageTable()
    n = WALK_CACHE_SLOTS + 4
    pt.map_range(0x40_0000, np.arange(1, 1 + n, dtype=np.int64), RW)
    for i in range(n):
        pt.translate_range(0x40_0000 + i * PAGE_SIZE, 1)
    assert len(pt._walk_cache) == WALK_CACHE_SLOTS


def test_walk_cache_bypasses_smartmap_slots():
    """Ranges through a borrowed PML4 slot can change under the donor's
    generation, so they must never be cached."""
    with obs.observing(metrics=True) as ctx:
        donor = PageTable()
        donor.map_range(0x40_0000, np.arange(500, 508, dtype=np.int64), RW)
        borrower = PageTable()
        borrower.share_pml4_slot(1, donor)
        alias = PML4_SLOT_SPAN + 0x40_0000
        first = borrower.translate_range(alias, 8)
        borrower.translate_range(alias, 8)
        # donor-side remap must be visible immediately through the alias
        donor.unmap_page(0x40_0000)
        donor.map_page(0x40_0000, 7777, RW)
        assert borrower.translate_range(alias, 8)[0] == 7777
    assert first[0] == 500
    assert "fastpath.walkcache.hits" not in ctx.metrics.snapshot()


# -- walk cache vs the uncached walk --------------------------------------------------

#: The borrower's own window ends at the PML4 slot 0/1 boundary; slot 1
#: borrows the donor, whose window starts at its address 0. Probes may
#: straddle the two, so some cross the borrowed slot and some do not.
OWN_PAGES = 1100
DONOR_PAGES = 600
OWN_BASE = PML4_SLOT_SPAN - OWN_PAGES * PAGE_SIZE
#: Spans start and end on a 50-page grid (not a divisor of 512, so they
#: still land at varied leaf offsets): coarse enough that maps, unmaps
#: and probes often cover exactly the same pages.
GRAIN = 50


def _spans(pages, max_len):
    return st.tuples(st.integers(0, pages // GRAIN - 1),
                     st.integers(1, max_len)).map(
        lambda t: (t[0] * GRAIN, min(t[1] * GRAIN, pages - t[0] * GRAIN)))


_span = _spans(OWN_PAGES, 10)
_donor_span = _spans(DONOR_PAGES, 6)
_ops = st.one_of(
    st.tuples(st.just("map"), _span),
    st.tuples(st.just("unmap"), _span),
    st.tuples(st.just("sparse"), st.sets(st.integers(0, OWN_PAGES - 1),
                                         min_size=1, max_size=40)),
    st.tuples(st.just("flags"), _span),
    st.tuples(st.just("donor_map"), _donor_span),
    st.tuples(st.just("donor_unmap"), _donor_span),
    st.tuples(st.just("share"), st.none()),
    st.tuples(st.just("unshare"), st.none()),
)
_probes = st.lists(
    st.tuples(st.integers(-OWN_PAGES, DONOR_PAGES - 1), st.integers(1, 700)),
    min_size=1, max_size=4,
)


def _apply(op, arg, pt, donor, pfn):
    """One mutation; invalid ones (collisions, holes, slot state) are
    rejected by the table and leave it unchanged."""
    try:
        if op == "map":
            start, n = arg
            pt.map_range(OWN_BASE + start * PAGE_SIZE,
                         np.arange(pfn, pfn + n, dtype=np.int64), RW)
        elif op == "unmap":
            start, n = arg
            pt.unmap_range(OWN_BASE + start * PAGE_SIZE, n)
        elif op == "sparse":
            idx = np.array(sorted(arg), dtype=np.int64)
            pt.map_pages_sparse(OWN_BASE, idx, pfn + idx, RW)
        elif op == "flags":
            start, n = arg
            pt.set_flags_range(OWN_BASE + start * PAGE_SIZE, n,
                               set_mask=PTE_PINNED)
        elif op == "donor_map":
            start, n = arg
            donor.map_range(start * PAGE_SIZE,
                            np.arange(pfn, pfn + n, dtype=np.int64), RW)
        elif op == "donor_unmap":
            start, n = arg
            donor.unmap_range(start * PAGE_SIZE, n)
        elif op == "share":
            pt.share_pml4_slot(1, donor)
        else:
            pt.unshare_pml4_slot(1)
    except (ValueError, PageFault):
        pass


def _walked(walk, vaddr, npages):
    try:
        return walk(vaddr, npages).tolist()
    except PageFault as exc:
        return ("fault", exc.vaddr)


@pytest.mark.parametrize("detailed", [False, True])
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_ops, min_size=1, max_size=12), probes=_probes)
def test_translate_range_matches_uncached_walk(detailed, ops, probes):
    """Every cached walk equals the uncached ``_walk`` after every
    mutation — PFN-changing ones, flag-only ones, donor-side ones that
    never bump this table's generation, and SMARTMAP share/unshare
    (slot 1 starts out shared)."""
    with _store(detailed):
        pt, donor = PageTable(), PageTable()
    pt.share_pml4_slot(1, donor)
    ranges = [(PML4_SLOT_SPAN + start * PAGE_SIZE, n) for start, n in probes]
    for step, (op, arg) in enumerate(ops):
        _apply(op, arg, pt, donor, pfn=10_000 * (step + 1))
        # Also probe every span an op touched (the borrower's view of a
        # donor span is through slot 1): random probes alone are seldom
        # fully mapped, and only fully mapped walks are cached.
        if op in ("map", "unmap", "flags"):
            ranges.append((OWN_BASE + arg[0] * PAGE_SIZE, arg[1]))
        elif op in ("donor_map", "donor_unmap"):
            ranges.append((PML4_SLOT_SPAN + arg[0] * PAGE_SIZE, arg[1]))
        for vaddr, n in ranges:
            want = _walked(pt._walk, vaddr, n)
            assert _walked(pt.translate_range, vaddr, n) == want
            assert _walked(pt.translate_range, vaddr, n) == want  # cache hit


# -- presence / flag masks ------------------------------------------------------------


@pytest.mark.parametrize("detailed", [False, True])
def test_present_mask_never_faults(detailed):
    with _store(detailed):
        pt, base = _mapped(4)
        mask = pt.present_mask(base - 2 * PAGE_SIZE, 8)
        np.testing.assert_array_equal(
            mask, [False, False, True, True, True, True, False, False]
        )
        # a range entirely inside an absent leaf table
        assert not pt.present_mask(0x7000_0000, 3).any()
        assert pt.present_mask(base, 0).shape == (0,)


def test_flag_mask_requires_present_and_flags():
    pt = PageTable()
    pt.map_page(0x40_0000, 1, RW)
    pt.map_page(0x40_1000, 2, PTE_PRESENT | PTE_USER)  # read-only
    mask = pt.flag_mask(0x40_0000, 3, PTE_WRITABLE)
    np.testing.assert_array_equal(mask, [True, False, False])


# -- sparse mapping -------------------------------------------------------------------


def test_map_pages_sparse_across_leaves():
    pt = PageTable()
    # sorted-unique indices straddling a 512-entry leaf boundary
    idx = np.array([0, 3, 511, 513, 515], dtype=np.int64)
    pfns = np.array([9100, 9101, 9102, 9103, 9104], dtype=np.int64)
    pt.map_pages_sparse(0x40_0000, idx, pfns)
    assert pt.present_pages == 5
    for i, pfn in zip(idx, pfns):
        assert pt.translate(0x40_0000 + int(i) * PAGE_SIZE)[0] == pfn
    # the in-between holes are still holes
    with pytest.raises(PageFault):
        pt.translate(0x40_0000 + 2 * PAGE_SIZE)


def test_map_pages_sparse_collision_is_atomic():
    pt = PageTable()
    pt.map_page(0x40_0000 + 4 * PAGE_SIZE, 55, RW)
    gen = pt.generation
    with pytest.raises(ValueError, match="already mapped"):
        pt.map_pages_sparse(
            0x40_0000,
            np.array([1, 4, 7], dtype=np.int64),
            np.array([70, 71, 72], dtype=np.int64),
        )
    assert pt.present_pages == 1
    assert pt.generation == gen
    with pytest.raises(PageFault):
        pt.translate(0x40_0000 + PAGE_SIZE)  # index 1 was not installed


def test_map_pages_sparse_empty_is_noop():
    pt = PageTable()
    gen = pt.generation
    pt.map_pages_sparse(
        0x40_0000, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    )
    assert pt.present_pages == 0
    assert pt.generation == gen
