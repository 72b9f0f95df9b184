"""Tests for STREAM and the noise-aware compute helper."""

import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.costs import MB, PAGE_4K
from repro.hw.memory import PhysicalMemory
from repro.kernels.noise import PeriodicNoise
from repro.workloads.compute import noise_aware_compute
from repro.workloads.stream import (
    BLOCK_ELEMENTS,
    REAL_ELEMENTS_CAP,
    SCALAR,
    STREAM_TRAFFIC_MULTIPLE,
    StreamBenchmark,
)


def test_noise_free_compute_takes_base_time(rig):
    eng, _node, _linux, kitten = rig
    proc = kitten.create_process("app")

    def run():
        elapsed = yield from noise_aware_compute(kitten, proc, 1_000_000)
        return elapsed

    assert eng.run_process(run()) == 1_000_000


def test_compute_extends_for_noise(rig):
    eng, _node, _linux, kitten = rig
    proc = kitten.create_process("app")
    cid = proc.core_id
    # 10% noise: 100us every 1ms
    kitten.noise_sources[cid] = [PeriodicNoise(1_000_000, 100_000, tag="n")]

    def run():
        elapsed = yield from noise_aware_compute(kitten, proc, 10_000_000)
        return elapsed

    elapsed = eng.run_process(run())
    stolen = kitten.stolen_ns(cid, 0, elapsed)
    assert elapsed == 10_000_000 + stolen
    assert elapsed > 10_500_000  # noticeably extended


def test_compute_slowdown_factor(rig):
    eng, _node, _linux, kitten = rig
    proc = kitten.create_process("app")

    def run():
        elapsed = yield from noise_aware_compute(kitten, proc, 1_000_000, slowdown=2.0)
        return elapsed

    assert eng.run_process(run()) == 2_000_000


def test_negative_compute_rejected(rig):
    eng, _node, _linux, kitten = rig
    proc = kitten.create_process("app")

    def run():
        yield from noise_aware_compute(kitten, proc, -1)

    with pytest.raises(ValueError):
        eng.run_process(run())


def test_stream_timing_and_verification(rig):
    eng, _node, _linux, kitten = rig
    proc = kitten.create_process("app")
    heap = kitten.heap_region(proc)
    pfns = proc.aspace.table.translate_range(heap.start, heap.npages)
    view = kitten.mem.map_region(pfns)
    view.fill(3)
    costs = kitten.costs
    region_bytes = 64 * MB

    def run():
        bench = StreamBenchmark(kitten, proc)
        result = yield from bench.run(view, region_bytes)
        return result

    result = eng.run_process(run())
    assert result.verified  # the triad identity held on real data
    expected = costs.memcpy_ns(region_bytes) + int(
        region_bytes * STREAM_TRAFFIC_MULTIPLE * 1e9 / costs.stream_bw_bytes_per_s
    )
    assert result.elapsed_ns == expected
    assert result.copy_in_ns == costs.memcpy_ns(region_bytes)
    assert result.effective_bw_bytes_per_s > 0


def test_stream_rejects_bad_size(rig):
    eng, _node, _linux, kitten = rig
    proc = kitten.create_process("app")
    heap = kitten.heap_region(proc)
    pfns = proc.aspace.table.translate_range(heap.start, 4)
    view = kitten.mem.map_region(pfns)

    def run():
        bench = StreamBenchmark(kitten, proc)
        yield from bench.run(view, 0)

    with pytest.raises(ValueError):
        eng.run_process(run())


def reference_kernels(source):
    """The whole-array STREAM formulas the blocked kernels must match."""
    a = source.astype(np.float64)
    c = a.copy()
    b = SCALAR * c
    c = a + b
    a2 = b + SCALAR * c
    expected = SCALAR * a + SCALAR * (a + SCALAR * a)
    return float(a2.sum()), bool(np.allclose(a2, expected))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _source(n, seed, specials=()):
    a = np.random.default_rng(seed).normal(0.0, 1e3, n)
    for pos, value in specials:
        a[pos % n] = value
    return a


@pytest.mark.parametrize("n", [
    1, 7, BLOCK_ELEMENTS - 1, BLOCK_ELEMENTS, 3 * BLOCK_ELEMENTS + 17,
    REAL_ELEMENTS_CAP,
])
@pytest.mark.parametrize("specials", [
    (),
    ((3, np.nan),),
    ((5, np.inf), (11, -np.inf)),
    ((2, np.finfo(np.float64).max), (9, -np.finfo(np.float64).max / 4)),
    ((4, 1e308), (6, -6e307), (8, np.nan), (13, np.inf)),
], ids=["finite", "nan", "inf", "near-max", "mixed"])
def test_blocked_kernels_match_reference_bits(n, specials):
    bench = StreamBenchmark(SimpleNamespace(costs=None, engine=None), None)
    source = _source(n, seed=n, specials=specials)
    # near-max inputs overflow to inf; +inf and -inf sum to NaN
    with np.errstate(over="ignore", invalid="ignore"):
        want_sum, want_ok = reference_kernels(source)
        got_sum, got_ok = bench._real_kernels(source)
    assert bits(got_sum) == bits(want_sum)
    assert got_ok is want_ok
    # buffers are reused: a second, different pass is still exact
    other = _source(n, seed=n + 1)
    want_sum, want_ok = reference_kernels(other)
    got_sum, got_ok = bench._real_kernels(other)
    assert (bits(got_sum), got_ok) == (bits(want_sum), want_ok)


def test_stream_copy_in_reads_the_shared_prefix(rig):
    eng, _node, _linux, kitten = rig
    proc = kitten.create_process("app")
    heap = kitten.heap_region(proc)
    pfns = proc.aspace.table.translate_range(heap.start, heap.npages)
    view = kitten.mem.map_region(pfns)
    rng = np.random.default_rng(3)
    view.write(0, rng.normal(0.0, 1.0, view.nbytes // 8).tobytes())
    prefix = np.concatenate(
        [view.page_view(i) for i in range(min(view.npages, 512))]
    ).view(np.float64)

    def run():
        bench = StreamBenchmark(kitten, proc)
        result = yield from bench.run(view, 64 * MB)
        return result

    result = eng.run_process(run())
    want_sum, want_ok = reference_kernels(prefix)
    assert bits(result.checksum) == bits(want_sum)
    assert result.verified is want_ok is True


def rebuilt_expected_kernels(a):
    """The blocked kernels with the check the NaN scan replaced: rebuild
    the expected triad per block and ``allclose`` it against the result."""
    n = a.size
    a2 = np.empty(n)
    blocks = np.empty((4, BLOCK_ELEMENTS))
    ok = True
    for lo in range(0, n, BLOCK_ELEMENTS):
        hi = min(lo + BLOCK_ELEMENTS, n)
        b, c, t, e = blocks[:, :hi - lo]
        ab = a[lo:hi]
        np.copyto(c, ab)
        np.multiply(SCALAR, c, out=b)
        np.add(ab, b, out=c)
        np.multiply(SCALAR, c, out=t)
        np.add(b, t, out=a2[lo:hi])
        np.multiply(SCALAR, ab, out=e)
        np.multiply(SCALAR, ab, out=t)
        np.add(ab, t, out=t)
        np.multiply(SCALAR, t, out=t)
        np.add(e, t, out=e)
        ok = ok and bool(np.allclose(a2[lo:hi], e))
    return float(a2.sum()), ok


SPECIAL_BITS = [
    0x7FF8000000000000,  # quiet NaN
    0xFFF8000000000001,  # negative NaN with a payload
    0x7FF0000000000001,  # signalling NaN
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x7FEFFFFFFFFFFFFF,  # max finite
    0xFFEFFFFFFFFFFFFF,  # -max finite
    0x7FE0000000000000,  # overflows once scaled
    0x0000000000000001,  # smallest subnormal
    0x800FFFFFFFFFFFFF,  # largest negative subnormal
    0x8000000000000000,  # -0.0
]


@st.composite
def raw_sources(draw):
    n = draw(st.one_of(
        st.integers(1, 64),
        st.sampled_from([BLOCK_ELEMENTS - 1, BLOCK_ELEMENTS, BLOCK_ELEMENTS + 1,
                         2 * BLOCK_ELEMENTS + 5]),
    ))
    a = _source(n, seed=draw(st.integers(0, 2**16)))
    bits_at = draw(st.lists(st.tuples(
        st.integers(0, n - 1),
        st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1)),
    ), max_size=6))
    raw = a.view(np.uint64)
    for pos, pattern in bits_at:
        raw[pos] = pattern
    return a


@settings(max_examples=200, deadline=None)
@given(raw_sources())
@example(np.array([np.nan]))
@example(np.array([np.inf, -np.inf]))
@example(np.array([np.finfo(np.float64).max, 5e-324]))
def test_nan_scan_verdict_matches_rebuilt_expected_check(source):
    bench = StreamBenchmark(SimpleNamespace(costs=None, engine=None), None)
    with np.errstate(over="ignore", invalid="ignore"):
        want_sum, want_ok = rebuilt_expected_kernels(source)
        got_sum, got_ok = bench._real_kernels(source)
    assert bits(got_sum) == bits(want_sum)
    assert got_ok is want_ok


def _twin_regions(writable):
    """Two identical memories, each mapping 6 scattered frames of which
    only some have ever been touched."""
    regions = []
    for _ in range(2):
        mem = PhysicalMemory([PAGE_4K * 16])
        pfns = np.array([9, 2, 14, 3, 7, 11])
        region = mem.map_region(pfns)
        region.write(PAGE_4K + 5, b"\x11" * 9)      # page 1 (pfn 2)
        region.write(3 * PAGE_4K, bytes(range(256)))  # page 3 (pfn 3)
        regions.append(mem.map_region(pfns, writable=writable))
    return regions


@pytest.mark.parametrize("writable", [True, False], ids=["rw", "ro"])
@pytest.mark.parametrize("n", [0, 1, 4, 6])
def test_copy_pages_into_matches_page_views(writable, n):
    fast, ref = _twin_regions(writable)
    out = np.full((n, PAGE_4K), 0xAB, dtype=np.uint8)
    fast.copy_pages_into(n, out)
    want = [ref.page_view(i) for i in range(n)]
    assert np.array_equal(out, np.array(want).reshape(n, PAGE_4K))
    # untouched frames materialize exactly as page_view makes them
    assert fast.mem.resident_frames == ref.mem.resident_frames
    # the copy is private: writing it reaches no frame
    out[:] = 0x5A
    assert all(np.array_equal(fast.page_view(i), w) for i, w in enumerate(want))


def test_copy_pages_into_rejects_pages_outside_the_region():
    region, _ = _twin_regions(True)
    with pytest.raises(ValueError):
        region.copy_pages_into(7, np.empty((7, PAGE_4K), dtype=np.uint8))
    with pytest.raises(ValueError):
        region.copy_pages_into(-1, np.empty((0, PAGE_4K), dtype=np.uint8))


def test_stream_over_a_read_only_mapping(rig):
    eng, _node, _linux, kitten = rig
    proc = kitten.create_process("app")
    heap = kitten.heap_region(proc)
    pfns = proc.aspace.table.translate_range(heap.start, heap.npages)
    kitten.mem.map_region(pfns).fill(7)
    view = kitten.mem.map_region(pfns, writable=False)

    def run():
        bench = StreamBenchmark(kitten, proc)
        result = yield from bench.run(view, 16 * MB)
        return result

    result = eng.run_process(run())
    prefix = np.concatenate(
        [view.page_view(i) for i in range(min(view.npages, 512))]
    ).view(np.float64)
    assert bits(result.checksum) == bits(reference_kernels(prefix)[0])
    assert result.verified
