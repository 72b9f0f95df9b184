"""Tests for process teardown and frame reclamation across kernels."""

import numpy as np
import pytest

from repro.kernels.base import KernelError
from repro.kernels.pagetable import PAGE_SIZE
from repro.xemem import XpmemApi

from tests.xemem.conftest import build_system


def test_destroy_kitten_process_frees_static_frames(rig):
    _eng, _node, _linux, kitten = rig
    used_before = kitten.allocator.used_frames
    proc = kitten.create_process("app")
    assert kitten.allocator.used_frames > used_before
    kitten.destroy_process(proc)
    assert kitten.allocator.used_frames == used_before
    assert proc.pid not in kitten.processes
    with pytest.raises(KernelError):
        kitten.destroy_process(proc)


def test_destroy_linux_process_with_partial_lazy_region(rig):
    eng, _node, linux, _kitten = rig
    used_before = linux.allocator.used_frames
    proc = linux.create_process("app")

    def run():
        region = yield from linux.mmap_anonymous(proc, 32 * PAGE_SIZE)
        # fault in only a few pages
        yield from linux.handle_fault(proc, region.start)
        yield from linux.handle_fault(proc, region.start + 5 * PAGE_SIZE)
        return region

    eng.run_process(run())
    assert linux.allocator.used_frames == used_before + 2
    linux.destroy_process(proc)
    assert linux.allocator.used_frames == used_before


def test_destroy_process_with_dynamic_kitten_mapping(rig):
    """A Kitten process holding a remote attachment: teardown unmaps it
    but the remote frames stay allocated to their exporter."""
    eng, _node, linux, kitten = rig
    lp = linux.create_process("exp")
    kp = kitten.create_process("att")

    def run():
        region = yield from linux.mmap_anonymous(lp, 16 * PAGE_SIZE)
        pfns = yield from linux.walk_for_export(lp, region.start, 16)
        att = yield from kitten.map_remote_pfns(kp, pfns)
        return att

    eng.run_process(run())
    linux_used = linux.allocator.used_frames
    kitten.destroy_process(kp)
    assert linux.allocator.used_frames == linux_used  # exporter untouched
    assert kp.pid not in kitten.processes


def test_munmap_rejects_borrowed_frames(rig):
    """munmap is for anonymous memory; attachments must detach."""
    eng, _node, linux, _kitten = rig
    exporter = linux.create_process("exp")
    attacher = linux.create_process("att")

    def run():
        region = yield from linux.mmap_anonymous(exporter, 8 * PAGE_SIZE)
        pfns = yield from linux.walk_for_export(exporter, region.start, 8)
        att_region = yield from linux.attach_local_lazy(attacher, pfns)
        with pytest.raises(KernelError, match="borrowed"):
            yield from linux.munmap(attacher, att_region)
        return True

    assert eng.run_process(run())


def test_munmap_partial_population_frees_only_present(rig):
    eng, _node, linux, _kitten = rig
    proc = linux.create_process("app")
    used_before = linux.allocator.used_frames

    def run():
        region = yield from linux.mmap_anonymous(proc, 16 * PAGE_SIZE)
        yield from linux.handle_fault(proc, region.start)
        freed = yield from linux.munmap(proc, region)
        return freed

    assert eng.run_process(run()) == 1
    assert linux.allocator.used_frames == used_before


def test_destroy_attacher_keeps_same_kernel_exporter_frames():
    """A same-kernel XEMEM attachment borrows the exporter's frames.

    Destroying the attacher must unmap them without freeing them: they
    still belong to the exporting process, whose own teardown frees them
    exactly once.
    """
    rig = build_system(num_cokernels=1)
    eng, linux = rig["engine"], rig["linux"].kernel
    used_before = linux.allocator.used_frames
    exporter = linux.create_process("exp", core_id=1)
    attacher = linux.create_process("att", core_id=2)

    def run():
        region = yield from linux.mmap_anonymous(exporter, 64 * PAGE_SIZE)
        yield from linux.touch_pages(exporter, region.start, 64, write=True)
        api_e, api_a = XpmemApi(exporter), XpmemApi(attacher)
        segid = yield from api_e.xpmem_make(region.start, 64 * PAGE_SIZE)
        apid = yield from api_a.xpmem_get(segid)
        att = yield from api_a.xpmem_attach(apid)
        yield from linux.touch_pages(attacher, att.vaddr, 64)

    eng.run_process(run())
    exported = linux.allocator.used_frames
    assert exported == used_before + 64
    linux.destroy_process(attacher)
    assert linux.allocator.used_frames == exported  # exporter's frames kept
    linux.destroy_process(exporter)  # no double free
    assert linux.allocator.used_frames == used_before
