"""Differential tests: storage fidelity must be invisible except in wall-clock.

The columnar (fast) and radix (detailed) page-table stores are twins
under the REP005 contract (docs/COSTMODEL.md § Fidelity split): the
scenarios from the hot-path differential suite run on each store and
must agree on the virtual end time, on every metrics counter, and on
the byte-exact JSONL trace export. A store-level op-mix additionally
pins down the per-operation observables — translations, masks,
collision messages, and exact-hole fault addresses — and checks after
every operation the invariant both stores' range operations rely on: a
PTE is nonzero iff it is PRESENT.
"""

import numpy as np
import pytest

from repro.kernels.pagetable import (
    PAGE_SIZE,
    PML4_SLOT_SPAN,
    PTE_DIRTY,
    PTE_PINNED,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    PageFault,
    PageTable,
    _ColumnarStore,
    _RadixStore,
)
from repro.sim import fidelity

from tests.sim.test_fastpath_diff import (
    _contended_scenario,
    _cross_enclave_scenario,
    _linux_local_scenario,
    _observed,
)

RW = PTE_PRESENT | PTE_WRITABLE | PTE_USER


def _assert_fidelity_identical(scenario):
    """detailed vs fast stores."""
    with fidelity.detailed():
        ref = _observed(scenario)
    with fidelity.fast():
        fast = _observed(scenario)
    assert fast[0] == ref[0], "virtual end time diverged"
    assert fast[1] == ref[1], "metrics counters diverged"
    assert fast[2] == ref[2], "trace export bytes diverged"


def test_cross_enclave_identical():
    _assert_fidelity_identical(_cross_enclave_scenario)


def test_linux_local_identical():
    _assert_fidelity_identical(_linux_local_scenario)


def test_contended_identical():
    _assert_fidelity_identical(_contended_scenario)


# -- store-level observables --------------------------------------------------


def _pte_words(pt):
    """Every PTE slot the store holds, as the word its range operations
    test for truthiness: packed PTEs (radix) or the flag column
    (columnar). Stale PFNs under a zero flag word are not PTEs."""
    store = pt._store
    if isinstance(store, _RadixStore):
        leaves = [leaf for pdpt in store.pml4.values()
                  for pd in pdpt.values() for leaf in pd.values()]
        return np.concatenate(leaves) if leaves else np.empty(0, np.int64)
    return store._flags[: store._nrows << 9].astype(np.int64)


def _assert_nonzero_iff_present(pt):
    words = _pte_words(pt)
    assert ((words != 0) == ((words & PTE_PRESENT) != 0)).all(), \
        "a PTE is nonzero without PRESENT, or PRESENT and zero"


class _Checked:
    """Proxy that asserts the nonzero-iff-PRESENT invariant after every
    method call, including calls that raise."""

    def __init__(self, pt):
        self._pt = pt

    def __getattr__(self, name):
        attr = getattr(self._pt, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            try:
                return attr(*args, **kwargs)
            finally:
                _assert_nonzero_iff_present(self._pt)

        return call


def _exercise_table(checked):
    """One PageTable op-mix; returns every observable output. With
    ``checked`` the invariant is asserted after every operation."""
    out = []
    pt = _Checked(PageTable()) if checked else PageTable()
    base = 2 * PML4_SLOT_SPAN
    npages = 1600  # crosses four leaf tables
    base2 = base + npages * PAGE_SIZE
    pfns = np.arange(5000, 5000 + npages, dtype=np.int64)
    pt.map_range(base, pfns, RW)
    out.append(pt.translate_range(base, npages).tolist())
    pt.set_flags_range(base, npages, set_mask=PTE_PINNED)
    out.append(pt.flag_mask(base, npages, PTE_PINNED).tolist())
    out.append(pt.range_flags_all(base, npages, PTE_PINNED))
    # sparse fill with holes, spanning multiple leaves
    idx = np.array([0, 3, 4, 5, 600, 1100], dtype=np.int64)
    pt.map_pages_sparse(base2, idx, 9000 + idx, RW)
    out.append(pt.present_mask(base2, 1200).tolist())
    # exact-hole fault addresses must agree across stores
    try:
        pt.translate_range(base2, 1200)
    except PageFault as exc:
        out.append(exc.vaddr)
    try:
        pt.unmap_range(base, npages + 2)  # base2+1 is a sparse hole
    except PageFault as exc:
        out.append(exc.vaddr)
    try:
        pt.set_flags_range(base2, 4, set_mask=PTE_DIRTY)
    except PageFault as exc:
        out.append(exc.vaddr)
    # collision messages (first colliding page) must agree too
    try:
        pt.map_range(
            base + (npages - 2) * PAGE_SIZE, np.arange(3, dtype=np.int64), RW
        )
    except ValueError as exc:
        out.append(str(exc))
    try:
        pt.map_pages_sparse(
            base2, np.array([0, 1]), np.array([1, 2], dtype=np.int64), RW
        )
    except ValueError as exc:
        out.append(str(exc))
    out.append(pt.unmap_range(base, npages).tolist())
    out.append(pt.present_pfns().tolist())
    out.append(pt.mapped_vaddrs())
    out.append(pt.present_pages)
    out.append(pt.generation)
    return out


@pytest.mark.parametrize("invariant_check", [False, True], ids=["off", "on"])
def test_store_observables_identical(invariant_check):
    """The stores agree with the per-operation invariant check off (the
    bare op-mix) and on (asserted after every call)."""
    with fidelity.detailed():
        ref = _exercise_table(invariant_check)
    with fidelity.fast():
        fast = _exercise_table(invariant_check)
    assert fast == ref


# -- switchboard behavior -----------------------------------------------------


def test_invalid_mode_rejected():
    with pytest.raises(ValueError, match="unknown fidelity mode"):
        fidelity.FIDELITY.set_mode("quick")


def test_mode_binds_at_construction():
    """Flipping FIDELITY affects tables built afterwards, not live ones."""
    with fidelity.detailed():
        detailed_pt = PageTable()
    with fidelity.fast():
        fast_pt = PageTable()
    assert isinstance(detailed_pt._store, _RadixStore)
    assert isinstance(fast_pt._store, _ColumnarStore)


def test_configured_restores_mode():
    before = fidelity.FIDELITY.mode
    with fidelity.configured("detailed" if before == "fast" else "fast"):
        assert fidelity.FIDELITY.mode != before
    assert fidelity.FIDELITY.mode == before
