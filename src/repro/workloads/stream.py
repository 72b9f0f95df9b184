"""STREAM (HPC Challenge) — the analytics component of the in situ pair.

Per the paper's §6.1 workflow, the analytics program first copies the
shared region into a private array and then runs STREAM over it. We run
the four kernels (copy, scale, add, triad) for real on a size-capped
array — asserting the triad identity — while the modeled time covers the
configured region size: one copy-in at memcpy bandwidth plus the STREAM
pass's 10 array-sized accesses at STREAM bandwidth.

The real numerics allocate nothing per pass: each :class:`StreamBenchmark`
owns a private copy-in array and a full-length triad result (so the
checksum keeps numpy's pairwise summation order), gathers the copy-in
with one call into the region, and runs the kernels in cache-sized
blocks with ``out=`` ufuncs. The arithmetic is elementwise, so every
element and the checksum are bit-identical to the whole-array formulas.

The verdict is a NaN scan of the triad result. The check it replaces
rebuilt the expected triad ``q*a + q*(a + q*a)`` with the same float
operations in the same order as the kernels, so the expected array was
bit-identical to the result, and ``allclose`` of an array with itself
fails exactly where an element is NaN (equal infinities compare close).
A NaN element makes the pairwise sum NaN, so only a NaN checksum needs
the scan at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.workloads.compute import noise_aware_compute

#: Array-size multiples of memory traffic in one pass of the four kernels
#: (copy 2, scale 2, add 3, triad 3).
STREAM_TRAFFIC_MULTIPLE = 10

#: Cap on the *real* computation size; the modeled time covers the full
#: region, the actual numerics run on at most this many float64s.
REAL_ELEMENTS_CAP = 1 << 18

#: Elements per block of the real kernels (128 KiB of float64: the three
#: block arrays stay cache-resident).
BLOCK_ELEMENTS = 1 << 14

SCALAR = 3.0


@dataclass
class StreamResult:
    """Outcome of one analytics STREAM pass (timing + verification)."""
    region_bytes: int
    elapsed_ns: int
    copy_in_ns: int
    checksum: float
    verified: bool

    @property
    def effective_bw_bytes_per_s(self) -> float:
        """Total traffic moved divided by elapsed time."""
        traffic = self.region_bytes * STREAM_TRAFFIC_MULTIPLE + self.region_bytes
        return traffic / (self.elapsed_ns / 1e9)


class StreamBenchmark:
    """One analytics STREAM pass over an attached shared region."""

    def __init__(self, kernel, proc):
        self.kernel = kernel
        self.proc = proc
        self.costs = kernel.costs
        self.engine = kernel.engine
        #: Private copy of the shared prefix, and the triad result.
        self._a = np.empty(REAL_ELEMENTS_CAP, dtype=np.float64)
        self._a2 = np.empty(REAL_ELEMENTS_CAP, dtype=np.float64)
        #: Per-block work arrays: b, c and a temporary.
        self._blocks = np.empty((3, BLOCK_ELEMENTS), dtype=np.float64)

    def _copy_in(self, attached_view) -> np.ndarray:
        """Gather the capped prefix of the shared region into ``_a``."""
        take_pages = min(
            attached_view.npages, max(1, REAL_ELEMENTS_CAP * 8 // 4096)
        )
        pages = self._a.view(np.uint8).reshape(-1, 4096)
        attached_view.copy_pages_into(take_pages, pages[:take_pages])
        return self._a[:take_pages * 4096 // 8]

    def _real_kernels(self, a: np.ndarray) -> tuple:
        """Run copy/scale/add/triad for real over float64 ``a`` (at most
        ``REAL_ELEMENTS_CAP`` long); returns (checksum, ok)."""
        n = a.size
        if n == 0:
            raise ValueError("empty STREAM source")
        a2 = self._a2[:n]
        for lo in range(0, n, BLOCK_ELEMENTS):
            hi = min(lo + BLOCK_ELEMENTS, n)
            b, c, t = self._blocks[:, :hi - lo]
            ab = a[lo:hi]
            np.copyto(c, ab)                    # COPY:  c = a
            np.multiply(SCALAR, c, out=b)       # SCALE: b = q*c
            np.add(ab, b, out=c)                # ADD:   c = a + b
            np.multiply(SCALAR, c, out=t)       # TRIAD: a = b + q*c
            np.add(b, t, out=a2[lo:hi])
        checksum = float(a2.sum())
        # the triad identity fails exactly on NaN elements (module doc)
        ok = not math.isnan(checksum) or not np.isnan(a2).any()
        return checksum, bool(ok)

    def run(self, attached_view, region_bytes: int, slowdown: float = 1.0):
        """Generator: copy the shared region private, STREAM over it.

        ``attached_view`` is a :class:`~repro.hw.memory.MappedRegion`
        (an attachment's data view); only a capped prefix is actually
        copied for the real math.
        Returns a :class:`StreamResult`.
        """
        if region_bytes <= 0:
            raise ValueError(f"bad region size {region_bytes}")
        t0 = self.engine.now
        # copy-in: shared -> private array (real, over the capped prefix)
        source = self._copy_in(attached_view)
        copy_ns = self.costs.memcpy_ns(region_bytes)
        yield from noise_aware_compute(self.kernel, self.proc, copy_ns, slowdown)
        copy_done = self.engine.now
        checksum, ok = self._real_kernels(source)
        stream_ns = int(
            region_bytes * STREAM_TRAFFIC_MULTIPLE * 1e9
            / self.costs.stream_bw_bytes_per_s
        )
        yield from noise_aware_compute(self.kernel, self.proc, stream_ns, slowdown)
        return StreamResult(
            region_bytes=region_bytes,
            elapsed_ns=self.engine.now - t0,
            copy_in_ns=copy_done - t0,
            checksum=checksum,
            verified=ok,
        )
