"""The benchmark's four workloads, each a fixed-size, seeded batch.

A workload runs as *passes*. One pass builds its rigs from scratch,
exports its segments and warms up (the timed set-up), then runs a fixed
number of rounds (the measured phase) and tears everything down again
(checked, not timed). A pass is a pure function of the seed on the
virtual clock, so every pass of a run produces the same virtual-clock
outputs and the same ``sim_digest``; the harness repeats passes until
the run's host-time budget is spent.

The workloads drive the simulator only through its public entry points:
the rig builders, :class:`~repro.xemem.api.XpmemApi`, the
:class:`~repro.sim.engine.Engine`, ``arm``/``arm_overload`` and
:class:`~repro.workloads.insitu.InSituWorkload`. All clients run as
simulated processes on the virtual clock; the host drives them from one
thread.

Why these four (each stresses different layers):

* ``attach_bulk`` — Table 2 / Fig. 5 shape: page-granular work in the
  kernels' page tables, Pisces PFN marshalling and the VMM memory map.
* ``serve_sessions`` — closed-loop serving: protocol- and event-bound
  (engine, XEMEM protocol, Pisces messages, IPIs); little per-page work.
* ``serve_overload`` — bursty open loop past saturation under the soak's
  fault plan and overload protection: the rejection, shedding, retry
  and retransmit paths of the same layers.
* ``insitu_composed`` — the paper's composed application (Fig. 8
  recurring-attach cells): OS noise, shared-memory polling, timers and
  Linux demand re-faults.
"""

from __future__ import annotations

import hashlib
import random
import struct
import time
from typing import Dict, List

from repro.bench.configs import build_cokernel_system, build_insitu_rig
from repro.faults.inject import arm, disarm
from repro.faults.plan import FaultPlan
from repro.hw.costs import MB, PAGE_4K, gib_per_s
from repro.workloads.insitu import InSituConfig
from repro.workloads.soak import DEFAULT_OVERLOAD_SPEC, DEFAULT_PLAN_SPEC
from repro.xemem import XememError, XememOverload, XememTimeout, XpmemApi
from repro.xemem.overload import OverloadConfig, admission_totals, arm_overload

#: Paper Table 2 attach throughput (GB/s): native Linux and Linux-VM guest.
TABLE2_NATIVE_GBS = 12.841
TABLE2_GUEST_GBS = 3.991

#: Bytes of seeded payload stamped at each sampled page of a segment.
PAYLOAD_BYTES = 32


def payload(seed: int, segment: int, generation: int) -> bytes:
    """The exporter's seeded payload for one export of one segment."""
    return hashlib.sha256(
        f"perfbench:{seed}:{segment}:{generation}".encode()
    ).digest()[:PAYLOAD_BYTES]


def sample_pages(npages: int) -> tuple:
    """Pages that carry the payload: first, middle and last."""
    return tuple(sorted({0, npages // 2, npages - 1}))


class Ledger:
    """Virtual-clock outputs of one pass: op outcomes, latencies, digest.

    Only ops that settle while ``measuring`` is set count toward the
    metrics; every op (warm-up and teardown included) feeds the digest.
    """

    def __init__(self):
        self._hash = hashlib.sha256()
        self.measuring = False
        #: Whole-pass accounting (warm-up and teardown included): every
        #: op started must settle exactly once, ok or failed.
        self.started = 0
        self.settled = 0
        self.ok = 0
        self.failed = 0
        self.attempts = 0
        self.failed_attempts = 0
        self.lat_ns: List[int] = []
        self.payload_errors: List[str] = []

    def note(self, *fields) -> None:
        """Fold one virtual-clock output into the digest."""
        self._hash.update(repr(fields).encode())
        self._hash.update(b"\n")

    def op(self, kind: str, due_ns: int, end_ns: int, ok: bool,
           attempts: int = 1) -> None:
        """Record one settled op (``attempts`` tries, the last decisive)."""
        self.note(kind, due_ns, end_ns, ok, attempts)
        self.settled += 1
        if not self.measuring:
            return
        self.attempts += attempts
        if ok:
            self.ok += 1
            self.failed_attempts += attempts - 1
            self.lat_ns.append(end_ns - due_ns)
        else:
            self.failed += 1
            self.failed_attempts += attempts

    def payload_error(self, where: str) -> None:
        self.note("payload-error", where)
        self.payload_errors.append(where)

    @property
    def attempted(self) -> int:
        return self.ok + self.failed

    def digest(self) -> str:
        return self._hash.hexdigest()


class Pass:
    """One seeded, fixed-size batch of a workload."""

    name = ""
    #: Layers predicted busy / idle in the traced run (checked there).
    busy_layers: tuple = ()
    idle_layers: tuple = ()

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.ledger = Ledger()
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.round_index = 0
        self.checks: List[tuple] = []
        #: Printed-only outputs: name -> (value, unit).
        self.extra: Dict[str, tuple] = {}
        self._frames_before: Dict[str, int] = {}
        self._op_of: Dict[object, int] = {}
        self._next_op = 0

    # -- interface -------------------------------------------------------

    @property
    def engines(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> None:
        raise NotImplementedError

    @property
    def done(self) -> bool:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def rig_counters(self) -> Dict[str, int]:
        """Armed fault and admission counters (zero where unarmed)."""
        return {}

    # -- helpers ---------------------------------------------------------

    def _rounds(self, n: int) -> int:
        return max(1, int(round(n * self.scale)))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def begin_op(self, engine) -> int:
        """Tag the running simulated process with a fresh op id."""
        op = self._next_op
        self._next_op += 1
        self.ledger.started += 1
        self._op_of[engine.current_process] = op
        return op

    def current_op(self) -> int:
        """Op id of the running simulated process (-1 when none)."""
        for engine in self.engines:
            proc = engine.current_process
            if proc is not None:
                return self._op_of.get(proc, -1)
        return -1

    def _snapshot_frames(self, kernels) -> None:
        self._frames_before = {
            k.name: k.allocator.free_frames for k in kernels
        }

    def _check_frames(self, kernels) -> None:
        leaked = {
            k.name: self._frames_before[k.name] - k.allocator.free_frames
            for k in kernels
            if k.allocator.free_frames != self._frames_before[k.name]
        }
        self.check("teardown.frames_restored", not leaked,
                   f"free-frame deltas {leaked}" if leaked else "")

    def _check_drained(self) -> None:
        for engine in self.engines:
            self.check("teardown.engine_drained", engine.queue_len == 0,
                       f"{engine.queue_len} events still queued")

    def _check_payload(self) -> None:
        errors = self.ledger.payload_errors
        self.check("payload.read_back", not errors,
                   f"{len(errors)} mismatches, first at {errors[:3]}")

    def _verify(self, att, seg: int, gen: int, npages: int,
                where: str) -> None:
        expect = payload(self.seed, seg, gen)
        for page in sample_pages(npages):
            if att.read(page * PAGE_4K, PAYLOAD_BYTES) != expect:
                self.ledger.payload_error(f"{where}:seg{seg}:page{page}")


def _stamp(view, seed: int, seg: int, gen: int, npages: int) -> None:
    blob = payload(seed, seg, gen)
    for page in sample_pages(npages):
        view.write(page * PAGE_4K, blob)


def quota_sequence(rng: random.Random, weights, n: int) -> List[int]:
    """``n`` draws whose counts follow ``weights`` exactly (largest
    remainder), in seeded order: the seed changes which op comes when,
    never the mix, so the workload costs the same from seed to seed."""
    total = sum(weights)
    shares = [w * n / total for w in weights]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    out = [i for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(out)
    return out


# --------------------------------------------------------------- attach_bulk


class AttachBulk(Pass):
    """Bulk attach cycles from native Linux and a Palacios guest.

    The R420 rig with two Kitten co-kernels and a VM on the Linux host.
    A pool of standing exports (more segments than the exporter's 8
    walk-cache slots) with Zipf popularity (exact draw counts, seeded
    order, see :func:`quota_sequence`); each round re-exports one
    segment with probability 1/4; a third of the grants are read-only.
    An op is one get -> attach -> touch -> read-verify -> detach ->
    release cycle; a round is ``NATIVE_PER_ROUND`` native cycles plus
    one guest cycle.
    """

    name = "attach_bulk"
    busy_layers = ("xemem", "pisces", "kernels", "virt", "hw")
    idle_layers = ("kernels.noise", "workloads", "faults", "xemem.overload")

    #: Segment sizes (pages) by popularity rank; most popular first. The
    #: largest sits at rank 1, so its guest cycles alone exceed 1% of all
    #: ops and ``sim_lat_us_p99`` falls inside one size class.
    SIZES = (512, 1024, 96, 256, 768, 128, 384, 192,
             640, 64, 448, 160, 896, 320, 224, 576)
    #: Segments exported by kitten0; the rest go to kitten1.
    ON_KITTEN0 = 10
    NATIVE_PER_ROUND = 10
    ROUNDS = 100
    WARMUP_ROUNDS = 2
    REEXPORT_PROB = 0.25
    READONLY_PROB = 1 / 3

    def setup(self) -> None:
        rig = build_cokernel_system(
            num_cokernels=2, with_vm=True, vm_host="linux",
            cokernel_mem=256 * MB, vm_ram=512 * MB,
            seed=self.seed, with_audit=False,
        )
        self.rig = rig
        self.eng = rig.engine
        self._kernels = [e.kernel for e in rig.system.enclaves]
        self._snapshot_frames(self._kernels)
        rng = self.rng
        nseg = len(self.SIZES)
        self.sizes = [max(16, int(round(v * (1 + rng.uniform(-0.02, 0.02)))))
                      for v in self.SIZES]
        self.rounds = self._rounds(self.ROUNDS)
        zipf = [1.0 / (r + 1) for r in range(nseg)]
        self.native_seq = iter(quota_sequence(
            rng, zipf, self.rounds * self.NATIVE_PER_ROUND))
        self.guest_seq = iter(quota_sequence(rng, zipf, self.rounds))
        placement = list(range(nseg))
        rng.shuffle(placement)
        on0 = set(placement[: self.ON_KITTEN0])
        self.exporter_of = [0 if s in on0 else 1 for s in range(nseg)]
        self.apis = []
        self.vaddr = [0] * nseg
        for k, enclave in enumerate(rig.cokernels):
            kernel = enclave.kernel
            mine = [s for s in range(nseg) if self.exporter_of[s] == k]
            kernel.heap_pages = sum(self.sizes[s] for s in mine) + 16
            proc = kernel.create_process(f"exporter{k}")
            heap = kernel.heap_region(proc)
            cursor = heap.start
            for s in mine:
                self.vaddr[s] = cursor
                cursor += self.sizes[s] * PAGE_4K
            self.apis.append(XpmemApi(proc))
        linux = rig.linux.kernel
        guest = rig.vm.kernel
        self.native = (linux, linux.create_process("attacher", core_id=2))
        self.guest = (guest, guest.create_process("guest-attacher"))
        self.native_api = XpmemApi(self.native[1])
        self.guest_api = XpmemApi(self.guest[1])
        self.segid = [None] * nseg
        self.generation = [0] * nseg
        self.attach_bytes = {"native": 0, "guest": 0}
        self.attach_ns = {"native": 0, "guest": 0}
        #: Host seconds each path takes in the measured rounds (the round
        #: mix is sized so neither falls below about a third).
        self.host_s = {"native": 0.0, "guest": 0.0}
        self.eng.run_process(self._export_all(), name="export")
        for _ in range(self.WARMUP_ROUNDS):
            self.eng.run_process(self._round(warmup=True), name="warmup")

    @property
    def engines(self) -> list:
        return [self.eng]

    def _export(self, s: int):
        api = self.apis[self.exporter_of[s]]
        segid = yield from api.xpmem_make(self.vaddr[s], self.sizes[s] * PAGE_4K)
        self.segid[s] = segid
        _stamp(api.segment(segid).view(), self.seed, s, self.generation[s],
               self.sizes[s])
        self.ledger.note("export", s, self.generation[s], int(segid),
                         self.eng.now)

    def _export_all(self):
        for s in range(len(self.SIZES)):
            yield from self._export(s)

    def _cycle(self, path: str, api: XpmemApi, kernel, proc, s: int,
               write: bool):
        eng = self.eng
        self.begin_op(eng)
        due = eng.now
        ok = False
        try:
            apid = yield from api.xpmem_get(self.segid[s], write=write)
            t0 = eng.now
            att = yield from api.xpmem_attach(apid)
            if self.ledger.measuring:
                self.attach_ns[path] += eng.now - t0
                self.attach_bytes[path] += att.npages * PAGE_4K
            yield from kernel.touch_pages(proc, att.vaddr, att.npages,
                                          write=write)
            self._verify(att, s, self.generation[s], self.sizes[s], path)
            if write:
                stamp = struct.pack("<QQ", self.seed, self._next_op)
                att.write(att.npages * PAGE_4K - 16, stamp)
                if att.read(att.npages * PAGE_4K - 16, 16) != stamp:
                    self.ledger.payload_error(f"{path}:seg{s}:stamp")
            yield from api.xpmem_detach(att)
            yield from api.xpmem_release(apid)
            ok = True
        except XememError:
            pass
        self.ledger.op(f"{path}:{s}:{int(write)}", due, eng.now, ok)

    def _round(self, warmup: bool = False):
        """One round. Warm-up rounds touch the same segments whatever the
        seed (native: the ten most popular; guest: the most popular), so
        set-up costs the same from seed to seed."""
        rng = self.rng
        if rng.random() < self.REEXPORT_PROB:
            s = rng.randrange(len(self.SIZES))
            api = self.apis[self.exporter_of[s]]
            yield from api.xpmem_remove(self.segid[s])
            self.generation[s] += 1
            yield from self._export(s)
        linux, lproc = self.native
        t0 = time.perf_counter()
        for k in range(self.NATIVE_PER_ROUND):
            s = k if warmup else next(self.native_seq)
            write = rng.random() >= self.READONLY_PROB
            yield from self._cycle("native", self.native_api, linux, lproc,
                                   s, write)
        t1 = time.perf_counter()
        guest, gproc = self.guest
        s = 0 if warmup else next(self.guest_seq)
        write = rng.random() >= self.READONLY_PROB
        yield from self._cycle("guest", self.guest_api, guest, gproc, s, write)
        if self.ledger.measuring:
            # Nothing else runs on this engine, so host time between the
            # round process's resumes belongs to the path in flight.
            self.host_s["native"] += t1 - t0
            self.host_s["guest"] += time.perf_counter() - t1

    def run_round(self) -> None:
        self.eng.run_process(self._round(), name=f"round{self.round_index}")
        self.round_index += 1

    @property
    def done(self) -> bool:
        return self.round_index >= self.rounds

    def _remove_all(self):
        for s in range(len(self.SIZES)):
            api = self.apis[self.exporter_of[s]]
            yield from api.xpmem_remove(self.segid[s])

    def teardown(self) -> None:
        eng = self.eng
        eng.run_process(self._remove_all(), name="remove")
        for kernel, proc in (self.native, self.guest):
            kernel.destroy_process(proc)
        for api in self.apis:
            api.proc.kernel.destroy_process(api.proc)
        eng.run()
        self._check_payload()
        self._check_drained()
        self._check_frames(self._kernels)
        native = gib_per_s(self.attach_bytes["native"], self.attach_ns["native"])
        guest = gib_per_s(self.attach_bytes["guest"], self.attach_ns["guest"])
        self.extra["sim_native_attach_gbs"] = (native, "GB/s")
        self.extra["sim_guest_attach_gbs"] = (guest, "GB/s")
        self.extra["model_err_pct"] = (50.0 * (
            abs(native - TABLE2_NATIVE_GBS) / TABLE2_NATIVE_GBS
            + abs(guest - TABLE2_GUEST_GBS) / TABLE2_GUEST_GBS
        ), "%")
        native_s, guest_s = self.host_s["native"], self.host_s["guest"]
        self.extra["guest_host_share"] = (
            guest_s / (native_s + guest_s), "fraction")


# ------------------------------------------------------------ serve_sessions


class _ServeBase(Pass):
    """Shared rig/export/teardown logic of the two serving workloads."""

    COKERNELS = 4
    SEGS_PER_COKERNEL = 4
    SIZE_LADDER: tuple = ()
    WINDOW_NS = 0
    ROUNDS = 0
    WARMUP_ROUNDS = 2

    def _build(self) -> None:
        rig = build_cokernel_system(
            num_cokernels=self.COKERNELS, seed=self.seed, with_audit=False,
        )
        self.rig = rig
        self.eng = rig.engine
        self._kernels = [e.kernel for e in rig.system.enclaves]
        self._snapshot_frames(self._kernels)
        # a seeded permutation of a fixed ladder: each seed places the
        # sizes differently, the size mix (and so the cost) stays the same
        self.sizes = list(self.SIZE_LADDER)
        self.rng.shuffle(self.sizes)
        self.names = []
        self.exporters = []
        self.segids = []
        self.stop = False
        self.rounds = self._rounds(self.ROUNDS)

    def _export_all(self):
        per = self.SEGS_PER_COKERNEL
        for k, enclave in enumerate(self.rig.cokernels):
            kernel = enclave.kernel
            mine = list(range(k * per, (k + 1) * per))
            kernel.heap_pages = sum(self.sizes[s] for s in mine) + 4
            proc = kernel.create_process(f"svc-{enclave.name}")
            api = XpmemApi(proc)
            self.exporters.append(api)
            cursor = kernel.heap_region(proc).start
            for s in mine:
                name = f"perfbench/{enclave.name}/{s}"
                segid = yield from api.xpmem_make(
                    cursor, self.sizes[s] * PAGE_4K, name=name)
                _stamp(api.segment(segid).view(), self.seed, s, 0,
                       self.sizes[s])
                self.names.append(name)
                self.segids.append((api, segid))
                self.ledger.note("export", s, int(segid), self.eng.now)
                cursor += self.sizes[s] * PAGE_4K

    def _flow(self, api: XpmemApi, s: int, write: bool):
        """search -> get -> attach -> touch -> verify -> detach -> release.
        On an error, undoes whatever the flow already holds, then
        re-raises."""
        apid = att = None
        kernel = api.proc.kernel
        try:
            segid = yield from api.xpmem_search(self.names[s])
            if segid is None:
                raise XememError(f"{self.names[s]} not found")
            apid = yield from api.xpmem_get(segid, write=write)
            att = yield from api.xpmem_attach(apid)
            yield from kernel.touch_pages(api.proc, att.vaddr, att.npages,
                                          write=write)
            self._verify(att, s, 0, self.sizes[s], api.proc.name)
            yield from api.xpmem_detach(att)
            att = None
            yield from api.xpmem_release(apid)
        except XememError:
            try:
                if att is not None and not att.detached:
                    yield from api.xpmem_detach(att)
                if apid is not None:
                    yield from api.xpmem_release(apid)
            except XememError:
                pass
            raise

    @property
    def engines(self) -> list:
        return [self.eng]

    def run_round(self) -> None:
        self.round_index += 1
        self.eng.run(until_ns=self.t0 + self.round_index * self.WINDOW_NS)

    @property
    def done(self) -> bool:
        return self.round_index >= self.rounds

    def _remove_all(self):
        for api, segid in self.segids:
            yield from api.xpmem_remove(segid)

    def _teardown(self, clients) -> None:
        eng = self.eng
        self.stop = True
        eng.run()
        self.check("teardown.clients_finished",
                   all(p.finished for p in self.client_procs),
                   "a client process is still parked")
        eng.run_process(self._remove_all(), name="remove")
        for proc in clients:
            proc.kernel.destroy_process(proc)
        for api in self.exporters:
            api.proc.kernel.destroy_process(api.proc)
        eng.run()
        self._check_payload()
        self._check_drained()
        self._check_frames(self._kernels)


class ServeSessions(_ServeBase):
    """Closed loop: 64 sessions over 4 co-kernels' small segments.

    Each session thinks for a seeded exponential time, then runs one
    flow against a seeded choice of segment; half of the grants are
    read-only. A round is ``WINDOW_NS`` of virtual time.
    """

    name = "serve_sessions"
    busy_layers = ("xemem", "pisces", "kernels", "hw")
    idle_layers = ("virt", "kernels.noise", "workloads", "faults",
                   "xemem.overload")

    SIZE_LADDER = (4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30,
                   32, 34)
    SESSIONS = 64
    MEAN_THINK_NS = 400_000
    WINDOW_NS = 200_000
    ROUNDS = 500

    def setup(self) -> None:
        self._build()
        eng = self.eng
        eng.run_process(self._export_all(), name="export")
        linux = self.rig.linux.kernel
        self.clients = [
            linux.create_process(f"session{i}", core_id=1 + i % 7)
            for i in range(self.SESSIONS)
        ]
        self.client_procs = [
            eng.spawn(self._session(i, XpmemApi(proc)), name=f"session{i}")
            for i, proc in enumerate(self.clients)
        ]
        self.t0 = eng.now
        for _ in range(self.WARMUP_ROUNDS):
            self.run_round()
        self.t0 = eng.now
        self.round_index = 0

    def _session(self, i: int, api: XpmemApi):
        eng = self.eng
        rng = random.Random(f"perfbench:session:{self.seed}:{i}")
        order: List[int] = []
        while not self.stop:
            think = int(rng.expovariate(1.0 / self.MEAN_THINK_NS))
            yield eng.sleep(max(1, think))
            if self.stop:
                return
            if not order:
                # each session visits every segment once per cycle, in
                # its own seeded order
                order = list(range(len(self.names)))
                rng.shuffle(order)
            s = order.pop()
            write = rng.random() < 0.5
            self.begin_op(eng)
            due = eng.now
            ok = True
            try:
                yield from self._flow(api, s, write)
            except XememError:
                ok = False
            self.ledger.op(f"s{i}:{s}", due, eng.now, ok)

    def teardown(self) -> None:
        self._teardown(self.clients)


class ServeOverload(_ServeBase):
    """Bursty open loop past saturation, protected and under chaos.

    Each round is ``WINDOW_NS`` of virtual time that opens with a
    ``BURST_NS`` burst of seeded Poisson arrivals at ``RATE_PER_MS``
    (several times the ~150 flows/ms saturation ``repro soak`` reports),
    then falls quiet. The soak's default fault plan and overload spec
    are armed and the discovery scraper runs. A refused, shed or
    abandoned attempt is rolled back and retried after the server's
    retry-after hint (clients honour backpressure), so every flow
    completes; the cost of the failure paths shows as latency, attempts
    and host time.
    """

    name = "serve_overload"
    busy_layers = ("xemem", "pisces", "kernels", "hw", "faults",
                   "xemem.overload")
    idle_layers = ("virt", "kernels.noise", "workloads")

    COKERNELS = 2
    SEGS_PER_COKERNEL = 2
    SIZE_LADDER = (2, 4, 6, 8)
    CLIENT_PROCS = 6
    RATE_PER_MS = 600
    BURST_NS = 100_000
    WINDOW_NS = 500_000
    ROUNDS = 120
    SCRAPE_PERIOD_NS = 50_000
    MAX_ATTEMPTS = 64
    BACKOFF_NS = 50_000

    def setup(self) -> None:
        self._build()
        rig = self.rig
        eng = self.eng
        self.armed = arm_overload(
            rig, OverloadConfig.parse(DEFAULT_OVERLOAD_SPEC, seed=self.seed))
        eng.run_process(self._export_all(), name="export")
        self.injector = arm(rig, FaultPlan.parse(DEFAULT_PLAN_SPEC,
                                                 seed=self.seed))
        linux = self.rig.linux.kernel
        self.clients = [
            linux.create_process(f"client{i}", core_id=1 + i % 4)
            for i in range(self.CLIENT_PROCS)
        ]
        self.pool = [XpmemApi(proc) for proc in self.clients]
        scraper = rig.cokernels[0].kernel.create_process("scraper")
        self.scraper_proc = scraper
        self.flows = []
        self.t0 = eng.now
        self.client_procs = [
            eng.spawn(self._scraper(XpmemApi(scraper)), name="scraper"),
            eng.spawn(self._arrivals(), name="arrivals"),
        ]
        for _ in range(self.WARMUP_ROUNDS):
            self.run_round()
        self.t0 = eng.now
        self.round_index = 0

    def _scraper(self, api: XpmemApi):
        while not self.stop:
            try:
                names = yield from api.xpmem_list("perfbench/")
                self.ledger.note("scrape", self.eng.now, len(names))
            except XememError as err:
                self.ledger.note("scrape-refused", self.eng.now,
                                 type(err).__name__)
            yield self.eng.sleep(self.SCRAPE_PERIOD_NS)

    def _arrivals(self):
        eng = self.eng
        rng = random.Random(f"perfbench:arrivals:{self.seed}")
        mean_gap = 1e6 / self.RATE_PER_MS
        window = 0
        flow_id = 0
        while not self.stop:
            start = eng.now
            t = start
            while True:
                t += max(1, int(rng.expovariate(1.0 / mean_gap)))
                if t >= start + self.BURST_NS:
                    break
                yield eng.sleep(t - eng.now)
                api = self.pool[flow_id % len(self.pool)]
                s = rng.randrange(len(self.names))
                self.flows.append(eng.spawn(
                    self._client(flow_id, api, s, eng.now),
                    name=f"flow{flow_id}"))
                flow_id += 1
            window += 1
            end = start + self.WINDOW_NS
            yield eng.sleep(end - eng.now)

    def _client(self, flow_id: int, api: XpmemApi, s: int, due: int):
        eng = self.eng
        self.begin_op(eng)
        write = flow_id % 2 == 0
        for attempt in range(1, self.MAX_ATTEMPTS + 1):
            try:
                yield from self._flow(api, s, write)
            except XememOverload as err:
                wait = err.retry_after_ns or self.BACKOFF_NS
                self.ledger.note("refused", flow_id, attempt, err.verdict,
                                 eng.now)
            except XememTimeout:
                wait = self.BACKOFF_NS
                self.ledger.note("abandoned", flow_id, attempt, eng.now)
            except XememError as err:
                wait = self.BACKOFF_NS
                self.ledger.note("error", flow_id, attempt, str(err), eng.now)
            else:
                self.ledger.op(f"f{flow_id}:{s}", due, eng.now, True, attempt)
                return
            yield eng.sleep(wait)
        self.ledger.op(f"f{flow_id}:{s}", due, eng.now, False,
                       self.MAX_ATTEMPTS)

    def rig_counters(self) -> Dict[str, int]:
        out = {f"faults.{k}": v for k, v in self.injector.counts.items()}
        out.update({f"overload.{k}": v
                    for k, v in admission_totals(self.rig).items()})
        return out

    def teardown(self) -> None:
        eng = self.eng
        self.stop = True
        eng.run()
        self.check("teardown.flows_finished",
                   all(p.finished for p in self.flows),
                   "a flow is still parked")
        disarm(self.rig)
        totals = admission_totals(self.rig)
        lhs = totals.get("offered", 0)
        rhs = sum(totals.get(k, 0) for k in
                  ("admitted", "rejected", "shed", "aborted", "waiting"))
        self.check("admission.ledger_identity", lhs == rhs,
                   f"offered={lhs} != admitted+rejected+shed+aborted+"
                   f"waiting={rhs}")
        self.ledger.note("admission", sorted(totals.items()))
        self.ledger.note("faults", sorted(self.injector.counts.items()))
        self._teardown(self.clients + [self.scraper_proc])


# ----------------------------------------------------------- insitu_composed


class InsituComposed(Pass):
    """The Fig. 8 recurring-attach cells, Kitten/Linux and Linux/Linux.

    Asynchronous execution (STREAM overlaps the simulation, which then
    pays seeded memory-contention jitter), poll signalling, noise
    profiles on. An op is
    one HPCCG iteration (timed from the end of the previous one); a
    round advances each cell's engine by one simulated second through
    the same ``Engine.step`` loop ``InSituWorkload.run`` uses.
    """

    name = "insitu_composed"
    busy_layers = ("xemem", "kernels", "kernels.noise", "hw", "workloads")
    idle_layers = ("virt", "faults", "xemem.overload")

    CELLS = ("kitten_linux", "linux_linux")
    ITERATIONS = 400
    COMM_INTERVAL = 5
    DATA_BYTES = 256 * MB
    ROUND_NS = 1_000_000_000
    WARMUP_ROUNDS = 1

    def setup(self) -> None:
        iterations = self.COMM_INTERVAL * max(
            1, int(round(self.ITERATIONS * self.scale / self.COMM_INTERVAL)))
        self.cells = []
        self._iter_of: Dict[int, int] = {}
        for c, cell in enumerate(self.CELLS):
            cfg = InSituConfig(
                execution="async", attach="recurring", signal_mode="poll",
                iterations=iterations, comm_interval=self.COMM_INTERVAL,
                data_bytes=self.DATA_BYTES,
            )
            built = build_insitu_rig(cell, cfg, seed=self.seed)
            eng = built["engine"]
            kernels = [e.kernel for e in built["system"].enclaves]
            workload = built["workload"]
            workload.iteration_hook = self._hook(c, eng)
            state = {
                "name": cell, "engine": eng, "workload": workload,
                "kernels": kernels, "last": 0,
                "frames": {k.name: k.allocator.free_frames for k in kernels},
                "pids": {k.name: set(k.processes) for k in kernels},
            }
            state["sim"], state["ana"] = workload.start()
            self.cells.append(state)
            self.ledger.started += iterations
        for _ in range(self.WARMUP_ROUNDS):
            self.run_round()
        self.round_index = 0

    @property
    def engines(self) -> list:
        return [cell["engine"] for cell in self.cells]

    def current_op(self) -> int:
        for c, cell in enumerate(self.cells):
            if cell["engine"].current_process is not None:
                return c * 1_000_000 + self._iter_of.get(c, 0) + 1
        return -1

    def _hook(self, c: int, eng):
        ledger = self.ledger

        def hook(it):
            cell = self.cells[c]
            self._iter_of[c] = it
            ledger.op(f"{c}:{it}", cell["last"], eng.now, True)
            cell["last"] = eng.now
            return
            yield  # a generator, as InSituWorkload expects
        return hook

    def run_round(self) -> None:
        for cell in self.cells:
            eng = cell["engine"]
            target = (self.round_index + self.WARMUP_ROUNDS + 1) * self.ROUND_NS
            sim_p, ana_p = cell["sim"], cell["ana"]
            while eng.now < target and not (sim_p.finished and ana_p.finished):
                if not eng.step():
                    break
        self.round_index += 1

    @property
    def done(self) -> bool:
        return all(c["sim"].finished and c["ana"].finished for c in self.cells)

    def _unmap_attachments(self, cell):
        """Tear down the XEMEM mappings the workload leaves in place.

        ``InSituWorkload`` keeps its last data attachment mapped; on
        Linux/Linux it maps frames of the same kernel, which
        ``destroy_process`` would free a second time.
        """
        for kernel in cell["kernels"]:
            for pid in sorted(set(kernel.processes) - cell["pids"][kernel.name]):
                proc = kernel.processes[pid]
                for region in list(proc.aspace.regions):
                    if region.backing_pfns is not None:
                        yield from kernel.unmap_attachment(proc, region)

    def teardown(self) -> None:
        for cell in self.cells:
            eng = cell["engine"]
            eng.run_until_complete(cell["sim"])
            eng.run_until_complete(cell["ana"])
            result = cell["workload"].collect(cell["sim"])
            self.check(f"insitu.{cell['name']}.data_marks_verified",
                       result.data_marks_verified,
                       "analytics read a stale or wrong data mark")
            self.ledger.note(cell["name"], result.sim_time_s,
                             tuple(result.attach_times_s),
                             tuple(result.stream_times_s),
                             result.analytics_faults)
            eng.run_process(self._unmap_attachments(cell), name="teardown")
            for kernel in cell["kernels"]:
                for pid in sorted(set(kernel.processes) - cell["pids"][kernel.name]):
                    kernel.destroy_process(kernel.processes[pid])
            eng.run()
            self.check("teardown.engine_drained", eng.queue_len == 0,
                       f"{cell['name']}: {eng.queue_len} events still queued")
            leaked = {
                k.name: cell["frames"][k.name] - k.allocator.free_frames
                for k in cell["kernels"]
                if k.allocator.free_frames != cell["frames"][k.name]
            }
            self.check("teardown.frames_restored", not leaked,
                       f"{cell['name']}: free-frame deltas {leaked}")


WORKLOADS = {
    cls.name: cls
    for cls in (AttachBulk, ServeSessions, ServeOverload, InsituComposed)
}

