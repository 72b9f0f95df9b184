"""One generator per paper figure/table.

Every function builds the paper's exact experimental configuration from
scratch, runs it on the virtual clock, and returns the same rows/series
the paper reports (plus the paper's own numbers for side-by-side
comparison in EXPERIMENTS.md). Repetition counts are parameters —
defaults are sized so the full harness finishes in minutes of wall time;
the paper's counts (500 attachments, 10 runs) are equally valid inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.configs import (
    INSITU_CONFIG_NAMES,
    build_cokernel_system,
    build_insitu_rig,
)
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.rdma import RdmaBandwidthTest
from repro.hw.costs import GB, KB, MB, PAGE_4K, gib_per_s
from repro.sim.record import SeriesStats
from repro.workloads.hpccg import HpccgProblem
from repro.workloads.insitu import InSituConfig
from repro.workloads.selfish import SelfishDetour
from repro.xemem.api import XpmemApi

#: Sizes swept by Figures 5 and 6.
SWEEP_SIZES = (128 * MB, 256 * MB, 512 * MB, 1 * GB)


# --------------------------------------------------------------------------- util


def _attach_loop(rig, kitten_enclave, attacher_kernel, attacher_core_id,
                 size_bytes: int, reps: int, read_after: bool):
    """One exporter/attacher pair doing ``reps`` attach(+read)/detach
    cycles; returns per-attachment durations (ns)."""
    eng = rig.engine
    kitten = kitten_enclave.kernel
    npages = -(-size_bytes // PAGE_4K)
    kitten.heap_pages = npages + 64
    exporter = kitten.create_process("exporter")
    attacher = attacher_kernel.create_process("attacher", core_id=attacher_core_id)
    heap = kitten.heap_region(exporter)

    def run():
        api_x, api_a = XpmemApi(exporter), XpmemApi(attacher)
        segid = yield from api_x.xpmem_make(heap.start, size_bytes)
        apid = yield from api_a.xpmem_get(segid)
        durations = []
        for _ in range(reps):
            t0 = eng.now
            att = yield from api_a.xpmem_attach(apid)
            if read_after:
                yield from attacher_kernel.touch_pages(
                    attacher, att.vaddr, att.npages
                )
            durations.append(eng.now - t0)
            yield from api_a.xpmem_detach(att)
        return durations

    return run


# ------------------------------------------------------------------------ Figure 5


@dataclass
class Fig5Result:
    """Fig. 5 series plus the paper's reference values."""
    sizes_bytes: List[int]
    attach_gib_s: List[float]
    attach_read_gib_s: List[float]
    rdma_gib_s: List[float]
    paper = {
        "attach_gib_s": 13.0,
        "attach_read_gib_s": 12.0,
        "rdma_gib_s": 3.4,
    }


def fig5_throughput(reps: int = 20, sizes: Sequence[int] = SWEEP_SIZES) -> Fig5Result:
    """Fig. 5: cross-enclave attach throughput vs RDMA verbs over IB.

    One Kitten co-kernel exports regions of each size; a native Linux
    process attaches ``reps`` times (the paper uses 500 — the throughput
    is deterministic here, so fewer repetitions lose nothing). The RDMA
    series runs the verbs write test between two SR-IOV VFs.
    """
    attach, attach_read, rdma = [], [], []
    for size in sizes:
        for read_after, out in ((False, attach), (True, attach_read)):
            rig = build_cokernel_system(
                num_cokernels=1, cokernel_mem=int(size + 64 * MB)
            )
            runner = _attach_loop(
                rig, rig.cokernels[0], rig.linux.kernel, 2, size, reps, read_after
            )
            durations = rig.engine.run_process(runner())
            mean_ns = sum(durations) / len(durations)
            out.append(gib_per_s(size, mean_ns))
        # RDMA baseline at the same transfer size
        rig = build_cokernel_system(num_cokernels=1)
        test = RdmaBandwidthTest(rig.engine, rig.node.costs)

        def rdma_run(test=test, size=size):
            result = yield from test.run(size, repetitions=max(5, reps // 4))
            return result

        rdma.append(rig.engine.run_process(rdma_run()).bandwidth_gib_s)
    return Fig5Result(list(sizes), attach, attach_read, rdma)


# ------------------------------------------------------------------------ Figure 6


@dataclass
class Fig6Result:
    """Fig. 6 per-size throughput series over enclave counts."""
    enclave_counts: List[int]
    sizes_bytes: List[int]
    #: throughput[size][i] for enclave_counts[i] (GiB/s per pair).
    throughput: Dict[int, List[float]]
    paper_note = (
        "≈13 GiB/s at 1 enclave, a slight dip to ≈12 GiB/s at 2, then flat "
        "through 8 for every size"
    )


def fig6_scalability(reps: int = 5,
                     enclave_counts: Sequence[int] = (1, 2, 4, 8),
                     sizes: Sequence[int] = SWEEP_SIZES,
                     ipi_target_policy: str = "core0") -> Fig6Result:
    """Fig. 6: per-pair attach throughput as co-kernel enclaves scale.

    N one-core/their-own-memory Kitten enclaves each serve one dedicated
    native Linux attacher process, all running concurrently (the paper's
    1:1 model). Reported value is each size's mean per-pair throughput.
    """
    throughput: Dict[int, List[float]] = {size: [] for size in sizes}
    for count in enclave_counts:
        for size in sizes:
            rig = build_cokernel_system(
                num_cokernels=count,
                cokernel_mem=int(size + 64 * MB),
                ipi_target_policy=ipi_target_policy,
            )
            procs = []
            for i, kitten_enclave in enumerate(rig.cokernels):
                runner = _attach_loop(
                    rig, kitten_enclave, rig.linux.kernel, 1 + (i % 7),
                    size, reps, read_after=False,
                )
                procs.append(rig.engine.spawn(runner(), name=f"pair{i}"))
            rig.engine.run()
            per_pair = []
            for proc in procs:
                durations = proc.result
                per_pair.append(gib_per_s(size, sum(durations) / len(durations)))
            throughput[size].append(sum(per_pair) / len(per_pair))
    return Fig6Result(list(enclave_counts), list(sizes), throughput)


# ------------------------------------------------------------------------- Table 2


@dataclass
class Table2Row:
    """One Table 2 row (export/attach pair and throughput)."""
    exporting: str
    attaching: str
    gib_s: float
    gib_s_without_rb: Optional[float]


@dataclass
class Table2Result:
    """All Table 2 rows plus the paper's values."""
    rows: List[Table2Row]
    paper = {
        ("Kitten", "Linux"): (12.841, None),
        ("Kitten", "Linux (VM)"): (3.991, 8.79),
        ("Linux (VM)", "Kitten"): (12.606, None),
    }


def table2_vm_throughput(reps: int = 5, size_bytes: int = 1 * GB,
                         memmap_backend: str = "rbtree",
                         memmap_coalesce: bool = False) -> Table2Result:
    """Table 2: 1 GB attach throughput across the VM boundary.

    Three rows: the native baseline, guest-attaches-to-host (Fig. 4(a),
    per-page memory-map inserts), and host-attaches-to-guest (Fig. 4(b),
    cached walks). Ablations A (radix backend) and C (entry coalescing)
    re-run this with different ``memmap_*`` arguments.
    """
    npages = -(-size_bytes // PAGE_4K)
    rows: List[Table2Row] = []

    # Row 1: Kitten exports, native Linux attaches
    rig = build_cokernel_system(num_cokernels=1, cokernel_mem=int(size_bytes + 64 * MB))
    runner = _attach_loop(rig, rig.cokernels[0], rig.linux.kernel, 2,
                          size_bytes, reps, read_after=False)
    durations = rig.engine.run_process(runner())
    rows.append(Table2Row("Kitten", "Linux",
                          gib_per_s(size_bytes, sum(durations) / len(durations)), None))

    # Row 2: Kitten exports, Linux VM (on the Linux host) attaches
    rig = build_cokernel_system(
        num_cokernels=1, with_vm=True, vm_host="linux",
        cokernel_mem=int(size_bytes + 64 * MB),
        memmap_backend=memmap_backend, memmap_coalesce=memmap_coalesce,
    )
    eng = rig.engine
    kitten = rig.cokernels[0].kernel
    kitten.heap_pages = npages + 64
    exporter = kitten.create_process("exporter")
    guest = rig.vm.kernel
    attacher = guest.create_process("attacher")
    heap = kitten.heap_region(exporter)
    vmm = guest.vmm

    def vm_attach():
        api_x, api_a = XpmemApi(exporter), XpmemApi(attacher)
        segid = yield from api_x.xpmem_make(heap.start, size_bytes)
        apid = yield from api_a.xpmem_get(segid)
        durations, inserts = [], []
        for _ in range(reps):
            t0 = eng.now
            att = yield from api_a.xpmem_attach(apid)
            durations.append(eng.now - t0)
            inserts.append(vmm.insert_work_log[-1])
            yield from api_a.xpmem_detach(att)
        return durations, inserts

    durations, inserts = eng.run_process(vm_attach())
    mean_ns = sum(durations) / len(durations)
    mean_insert = sum(inserts) / len(inserts)
    rows.append(Table2Row(
        "Kitten", "Linux (VM)",
        gib_per_s(size_bytes, mean_ns),
        gib_per_s(size_bytes, mean_ns - mean_insert),
    ))

    # Row 3: Linux VM exports, native Kitten attaches
    rig = build_cokernel_system(
        num_cokernels=1, with_vm=True, vm_host="linux",
        cokernel_mem=int(size_bytes + 64 * MB),
        vm_ram=int(size_bytes + 1 * GB),
        memmap_backend=memmap_backend, memmap_coalesce=memmap_coalesce,
    )
    eng = rig.engine
    kitten = rig.cokernels[0].kernel
    guest = rig.vm.kernel
    attacher = kitten.create_process("attacher")
    exporter = guest.create_process("exporter")

    def guest_export():
        region = yield from guest.mmap_anonymous(exporter, size_bytes)
        yield from guest.touch_pages(exporter, region.start, region.npages)
        api_x, api_a = XpmemApi(exporter), XpmemApi(attacher)
        segid = yield from api_x.xpmem_make(region.start, size_bytes)
        apid = yield from api_a.xpmem_get(segid)
        durations = []
        for _ in range(reps):
            t0 = eng.now
            att = yield from api_a.xpmem_attach(apid)
            durations.append(eng.now - t0)
            yield from api_a.xpmem_detach(att)
        return durations

    durations = eng.run_process(guest_export())
    rows.append(Table2Row(
        "Linux (VM)", "Kitten",
        gib_per_s(size_bytes, sum(durations) / len(durations)), None,
    ))
    return Table2Result(rows)


# ------------------------------------------------------------------------- Figure 7


@dataclass
class Fig7Result:
    #: (time_s, duration_us, source) for every detour in the window.
    """Fig. 7 detour list and per-source magnitudes."""
    detours: List[tuple]
    baseline_us: float
    smi_us: float
    attach_detour_us: Dict[str, float]  # per attachment size
    paper_note = (
        "baseline ≈12 µs frequent noise, ≈100 µs periodic SMIs; 4 KB "
        "attachments vanish into the baseline, 2 MB land below the SMI "
        "band, 1 GB detours are 2 orders larger (≈23–24 ms)"
    )


def fig7_noise(duration_s: int = 10,
               attach_sizes: Sequence[int] = (4 * KB, 2 * MB, 1 * GB)) -> Fig7Result:
    """Fig. 7: Kitten noise profile while serving XEMEM attachments.

    A single-core Kitten enclave exports one region per size; a Linux
    process attaches each, sleeps one second, and repeats for the window
    (the paper's §5.5 loop). The Selfish Detour benchmark enumerates
    every detour on the Kitten core.
    """
    second = 1_000_000_000
    total = sum(attach_sizes)
    rig = build_cokernel_system(
        num_cokernels=1, cokernel_mem=int(total + 128 * MB), with_noise=True, seed=11
    )
    eng = rig.engine
    kitten = rig.cokernels[0].kernel
    kitten.heap_pages = -(-total // PAGE_4K) + 16
    exporter = kitten.create_process("exporter")
    linux = rig.linux.kernel
    heap = kitten.heap_region(exporter)

    def attach_cycle():
        api_x = XpmemApi(exporter)
        offset = 0
        handles = []
        for size in attach_sizes:
            segid = yield from api_x.xpmem_make(heap.start + offset, size)
            offset += -(-size // PAGE_4K) * PAGE_4K
            proc = linux.create_process(f"att-{size}", core_id=2)
            api_a = XpmemApi(proc)
            apid = yield from api_a.xpmem_get(segid)
            handles.append((api_a, apid, size))
        while eng.now < duration_s * second:
            for api_a, apid, _size in handles:
                att = yield from api_a.xpmem_attach(apid)
                yield from api_a.xpmem_detach(att)
            yield eng.sleep(1 * second)

    proc = eng.spawn(attach_cycle(), name="cycle")
    eng.run_until_complete(proc)

    sd = SelfishDetour(kitten, kitten.service_core.core_id)
    events = sd.detours(0, duration_s * second)
    detours = [(ev.time_ns / 1e9, ev.duration_us, ev.source) for ev in events]
    per_size: Dict[str, float] = {}
    for size in attach_sizes:
        pages = -(-size // PAGE_4K)
        walks = [
            ev.duration_us for ev in events if ev.source == f"xemem-walk:{pages}p"
        ]
        label = _size_label(size)
        per_size[label] = sum(walks) / len(walks) if walks else 0.0
    costs = rig.node.costs
    return Fig7Result(
        detours=detours,
        baseline_us=costs.kitten_baseline_detour_ns / 1e3,
        smi_us=costs.smi_detour_ns / 1e3,
        attach_detour_us=per_size,
    )


def _size_label(nbytes: int) -> str:
    if nbytes >= GB:
        return f"{nbytes // GB}GB"
    if nbytes >= MB:
        return f"{nbytes // MB}MB"
    return f"{nbytes // KB}KB"


# ------------------------------------------------------------------------- Figure 8


@dataclass
class Fig8Cell:
    """One Fig. 8 bar: config x execution x attach model."""
    config: str
    execution: str
    attach: str
    mean_s: float
    stdev_s: float
    samples: List[float]


@dataclass
class Fig8Result:
    """All Fig. 8 cells with paper-shape notes."""
    cells: List[Fig8Cell]
    paper_note = (
        "sync slower than async everywhere; Kitten/Linux best; Linux-only "
        "shows the widest variance; recurring+sync is worst for the "
        "virtualized and Linux-only configurations (Fig. 8(a)/(b))"
    )

    def cell(self, config: str, execution: str, attach: str) -> Fig8Cell:
        """Look one Fig. 8 cell up by its coordinates."""
        for c in self.cells:
            if (c.config, c.execution, c.attach) == (config, execution, attach):
                return c
        raise KeyError((config, execution, attach))


def fig8_single_node(runs: int = 5,
                     configs: Sequence[str] = INSITU_CONFIG_NAMES,
                     executions: Sequence[str] = ("sync", "async"),
                     attaches: Sequence[str] = ("one_time", "recurring"),
                     iterations: int = 600,
                     comm_interval: int = 40,
                     data_bytes: int = 512 * MB) -> Fig8Result:
    """Fig. 8: the single-node in situ benchmark, all Table 3 configs ×
    both execution models × both attachment models, ``runs`` seeds each
    (the paper uses 10 runs)."""
    cells = []
    for attach in attaches:
        for execution in executions:
            for name in configs:
                stats = SeriesStats()
                samples = []
                for seed in range(runs):
                    cfg = InSituConfig(
                        execution=execution, attach=attach,
                        iterations=iterations, comm_interval=comm_interval,
                        data_bytes=data_bytes,
                        problem=HpccgProblem(100, 100, 100),
                    )
                    rig = build_insitu_rig(name, cfg, seed=seed + 1)
                    res = rig["workload"].run()
                    if not res.data_marks_verified:
                        raise AssertionError("shared-memory handshake corrupt")
                    if not res.stream_verified:
                        raise AssertionError("STREAM triad verification failed")
                    stats.add(res.sim_time_s)
                    samples.append(res.sim_time_s)
                cells.append(Fig8Cell(name, execution, attach,
                                      stats.mean, stats.stdev, samples))
    return Fig8Result(cells)


# ------------------------------------------------------------------------- Figure 9


@dataclass
class Fig9Point:
    """One Fig. 9 data point (composition, node count)."""
    mode: str
    attach: str
    nodes: int
    mean_s: float
    stdev_s: float
    samples: List[float]


@dataclass
class Fig9Result:
    """All Fig. 9 points with series access."""
    points: List[Fig9Point]
    paper_note = (
        "async weak scaling: multi-enclave flat and consistent; Linux-only "
        "declines steadily; with recurring attachments Linux-only wins at "
        "one node and loses beyond two"
    )

    def series(self, mode: str, attach: str) -> List[Fig9Point]:
        """One composition's points, ordered by node count."""
        return sorted(
            (p for p in self.points if p.mode == mode and p.attach == attach),
            key=lambda p: p.nodes,
        )


def fig9_multi_node(runs: int = 3,
                    node_counts: Sequence[int] = (1, 2, 4, 8),
                    modes: Sequence[str] = ("linux_only", "multi_enclave"),
                    attaches: Sequence[str] = ("one_time", "recurring"),
                    iterations: int = 300,
                    comm_interval: int = 30,
                    data_bytes: int = 1 * GB) -> Fig9Result:
    """Fig. 9: weak-scaling in situ runs on the simulated cluster
    (the paper uses 5 runs per point)."""
    points = []
    for attach in attaches:
        for mode in modes:
            for nodes in node_counts:
                stats = SeriesStats()
                samples = []
                for seed in range(runs):
                    cfg = ClusterConfig(
                        nodes=nodes, enclave_mode=mode, attach=attach,
                        iterations=iterations, comm_interval=comm_interval,
                        data_bytes=data_bytes, seed=seed + 1,
                    )
                    res = Cluster(cfg).run()
                    for per_node in res.per_node:
                        if not per_node.data_marks_verified:
                            raise AssertionError("shared-memory handshake corrupt")
                        if not per_node.stream_verified:
                            raise AssertionError("STREAM triad verification failed")
                    stats.add(res.completion_s)
                    samples.append(res.completion_s)
                points.append(Fig9Point(mode, attach, nodes,
                                        stats.mean, stats.stdev, samples))
    return Fig9Result(points)
