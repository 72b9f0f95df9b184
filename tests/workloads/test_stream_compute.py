"""Tests for STREAM and the noise-aware compute helper."""

import struct
from types import SimpleNamespace

import numpy as np
import pytest

from repro.hw.costs import CostModel, MB
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
