"""The seeded chaos scenario behind ``python -m repro chaos``.

Builds the standard co-kernel rig, arms a :class:`FaultPlan`, and runs a
fixed shared-memory workload against it: every co-kernel exports one
named segment, and Linux-side clients hammer the full Table 1 cycle
(search → get → attach → read → detach → release) against each of them.
Everything that can fail under the plan — drops, duplicates, delays,
corruption, IPI loss, mid-attach enclave crashes, name-server restarts —
is expected to surface as :class:`XememError`/:class:`XememTimeout` on
individual operations, never as a hang or an engine blowup.

Same seed + same plan → byte-identical report; the determinism property
tests rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.bench.configs import build_cokernel_system
from repro.faults import reporting
from repro.faults.inject import arm
from repro.faults.plan import FaultPlan
from repro.hw.costs import PAGE_4K
from repro.obs import flightrec as flightrec_mod
from repro.xemem import XememError, XememOverload, XememTimeout, XpmemApi
from repro.xemem.overload import OverloadConfig, admission_totals, arm_overload

#: The default plan: lossy channels, lossy IPIs, one mid-run crash, one
#: name-server restart — with a retry budget that still converges.
DEFAULT_PLAN_SPEC = (
    "drop=0.03,dup=0.03,delay=0.05:20us,corrupt=0.02,ipiloss=0.02,"
    "timeout=300us,retries=5,crash=kitten1@2ms,nsrestart=@4ms:200us"
)

#: Pages per exported chaos segment.
SEGMENT_PAGES = 16

#: Span ring cap for the chaos black box: enough tail to reconstruct the
#: faulting window, bounded so the recorder stays cheap.
FLIGHTREC_TRACE_CAP = 512


@dataclass
class ChaosReport:
    """What a chaos run did; every field is derived from sim state only
    (virtual clock, counters), so a (seed, plan) pair reproduces it."""

    seed: int
    plan_spec: str
    #: overload-protection spec armed for the run ("" = unprotected)
    overload_spec: str = ""
    end_ns: int = 0
    drained: bool = False
    live_processes: int = 0
    exported: int = 0
    ops_ok: int = 0
    ops_timeout: int = 0
    #: ops refused by admission control / backpressure (overload armed)
    ops_rejected: int = 0
    ops_error: int = 0
    fault_counts: dict = field(default_factory=dict)
    #: summed admission-controller ledger (empty when not armed)
    admission: dict = field(default_factory=dict)
    ns_live_segments: int = 0
    surviving_enclaves: list = field(default_factory=list)
    crashes: int = 0
    #: Segids the name server still lists under a *crashed* owner after
    #: the run drained — crash state the reclamation paths never cleaned.
    unreclaimed_segids: list = field(default_factory=list)
    #: Incident bundle emitted by the run's flight recorder ("" = none).
    bundle_path: str = ""

    @property
    def ops_total(self) -> int:
        return (self.ops_ok + self.ops_timeout + self.ops_rejected
                + self.ops_error)

    @property
    def reclaimed(self) -> bool:
        """True when the run left no unreclaimed crash state behind."""
        return (
            not self.unreclaimed_segids
            and self.drained
            and self.live_processes == 0
        )

    def lines(self) -> list:
        """Human-readable summary (virtual-clock facts only), rendered
        through the shared :mod:`repro.faults.reporting` helpers so
        chaos and soak reports stay comparable line-for-line."""
        ops = {"ok": self.ops_ok, "timeout": self.ops_timeout,
               "error": self.ops_error}
        if self.overload_spec:
            ops["rejected"] = self.ops_rejected
        out = [
            f"chaos seed={self.seed}",
            f"  plan: {self.plan_spec}",
        ]
        if self.overload_spec:
            out.append(f"  overload: {self.overload_spec}")
        out += [
            f"  end: {self.end_ns} ns  drained={self.drained} "
            f"live_processes={self.live_processes}",
            f"  exports: {self.exported}",
            reporting.ops_line(ops),
        ]
        out.extend(reporting.fault_lines(self.fault_counts))
        out.extend(reporting.admission_lines(self.admission))
        out += [
            f"  name server: {self.ns_live_segments} live segment(s)",
            f"  survivors: {', '.join(self.surviving_enclaves)}",
        ]
        if not self.reclaimed:
            leftovers = ", ".join(str(s) for s in self.unreclaimed_segids)
            out.append(
                "  UNRECLAIMED crash state: "
                f"segids [{leftovers}] still registered to dead owner(s)"
                if self.unreclaimed_segids
                else "  UNRECLAIMED crash state: run did not quiesce"
            )
        out.extend(reporting.bundle_line(self.bundle_path))
        return out


def run_chaos(seed: int = 0, plan_spec: Optional[str] = None,
              cokernels: int = 3, ops: int = 25,
              with_audit: Optional[bool] = None,
              flightrec_dir: Optional[str] = None,
              overload_spec: Optional[str] = None) -> ChaosReport:
    """Run the chaos scenario; returns a :class:`ChaosReport`.

    ``ops`` is the number of full get/attach/detach/release rounds each
    Linux-side client runs against its co-kernel's segment.
    ``overload_spec`` additionally arms the admission/backpressure layer
    of :mod:`repro.xemem.overload` on every module, so chaos faults and
    overload protection soak together; rejected operations are counted
    separately from errors and the admission ledger joins the report.

    Every chaos run flies with the black box armed: a ring-capped span
    tail, a metrics registry, and a :class:`~repro.obs.flightrec.
    FlightRecorder` fed by the fault injector and the crash paths. With
    ``flightrec_dir`` set, a run that crashed an enclave (or ended with
    unreclaimed crash state) freezes the box into an incident bundle
    there — byte-identical for the same (seed, plan) in every
    fidelity mode.
    """
    spec = DEFAULT_PLAN_SPEC if plan_spec is None else plan_spec
    plan = FaultPlan.parse(spec, seed=seed)
    report = ChaosReport(seed=seed, plan_spec=spec,
                         overload_spec=overload_spec or "")
    with obs.observing(trace=True, metrics=True,
                       max_trace_events=FLIGHTREC_TRACE_CAP,
                       flightrec=True) as ctx:
        _run_scenario(report, plan, cokernels, ops, with_audit,
                      ctx, flightrec_dir)
    return report


def _run_scenario(report: ChaosReport, plan: FaultPlan, cokernels: int,
                  ops: int, with_audit: Optional[bool], ctx,
                  flightrec_dir: Optional[str]) -> None:
    rig = build_cokernel_system(num_cokernels=cokernels, with_audit=with_audit)
    protected = bool(report.overload_spec)
    if protected:
        arm_overload(rig, OverloadConfig.parse(report.overload_spec,
                                               seed=report.seed))

    eng = rig.engine
    linux_kernel = rig.linux.kernel
    counts = {"ok": 0, "timeout": 0, "rejected": 0, "error": 0}

    def client(api: XpmemApi, name: str):
        """One Linux client: the full Table 1 cycle, ``ops`` times.

        Every protocol failure is absorbed per operation; partially
        completed rounds roll their handles back so refcounts stay
        balanced on the survivor side.
        """
        for _ in range(ops):
            try:
                segid = yield from api.xpmem_search(name)
                if segid is None:
                    counts["error"] += 1
                    continue
                apid = yield from api.xpmem_get(segid)
            except XememOverload:
                counts["rejected"] += 1
                continue
            except XememTimeout:
                counts["timeout"] += 1
                continue
            except XememError:
                counts["error"] += 1
                continue
            att = None
            try:
                att = yield from api.xpmem_attach(
                    apid, 0, SEGMENT_PAGES * PAGE_4K
                )
                if not att.detached:  # may be crash-invalidated already
                    att.read(0, 8)
                yield from api.xpmem_detach(att)
                att = None
                yield from api.xpmem_release(apid)
                counts["ok"] += 1
            except XememTimeout:
                counts["timeout"] += 1
            except XememError as err:
                # rejection or error: roll back so the grant does not
                # pin state (release-class always admits, so the
                # rollback converges even under full overload)
                counts["rejected" if isinstance(err, XememOverload)
                       else "error"] += 1
                try:
                    if att is not None and not att.detached:
                        yield from api.xpmem_detach(att)
                    yield from api.xpmem_release(apid)
                except XememError:
                    pass

    def scenario():
        # Export phase: each co-kernel publishes one named segment. Runs
        # under the armed plan too, so exports themselves may time out.
        names = []
        for enclave in rig.cokernels:
            kernel = enclave.kernel
            proc = kernel.create_process(f"exp-{enclave.name}")
            heap = kernel.heap_region(proc)
            api = XpmemApi(proc)
            name = f"chaos/{enclave.name}"
            try:
                yield from api.xpmem_make(
                    heap.start, SEGMENT_PAGES * PAGE_4K, name=name
                )
            except (XememTimeout, XememError):
                continue
            names.append(name)
            report.exported += 1
        # Client phase: one concurrent Linux client per exported segment.
        clients = []
        for i, name in enumerate(names):
            proc = linux_kernel.create_process(
                f"client-{i}", core_id=1 + i % 4
            )
            clients.append(
                eng.spawn(client(XpmemApi(proc), name), name=f"client:{name}")
            )
        if clients:
            yield eng.all_of(clients)

    injector = arm(rig, plan)
    recorder = ctx.flightrec
    try:
        eng.run_process(scenario(), name="chaos")
        eng.run()  # drain stragglers (retransmit timers, heartbeat daemons)
    finally:
        # Fill the report (and dump the black box) even when the run dies
        # on an AuditViolation — that is precisely when the bundle matters.
        report.end_ns = eng.now
        report.drained = eng.queue_len == 0
        report.live_processes = len(eng.live_processes)
        report.ops_ok = counts["ok"]
        report.ops_timeout = counts["timeout"]
        report.ops_rejected = counts["rejected"]
        report.ops_error = counts["error"]
        report.fault_counts = dict(injector.counts)
        if protected:
            report.admission = admission_totals(rig)
        report.crashes = injector.counts.get("crashes", 0)
        ns = rig.system.name_server_enclave.module.nameserver
        report.ns_live_segments = ns.live_segments
        report.surviving_enclaves = [e.name for e in rig.system.enclaves]
        crashed_ids = {
            int(e.enclave_id) for e in rig.cokernels
            if e.module is not None and e.module.crashed
            and e.enclave_id is not None
        }
        report.unreclaimed_segids = sorted(
            int(sid) for sid, rec in ns.segids.items()
            if rec.owner_enclave_id in crashed_ids
        )
        if flightrec_dir is not None and (
            report.crashes or not report.reclaimed
            or recorder.last_trigger is not None
        ):
            report.bundle_path = _dump_bundle(
                flightrec_dir, report, recorder, eng
            )


def _dump_bundle(out_dir: str, report: ChaosReport, recorder,
                 engine) -> str:
    """Freeze the run's black box into ``out_dir``; returns the path."""
    if not report.reclaimed:
        recorder.note(
            "chaos.unreclaimed", engine.now,
            segids=list(report.unreclaimed_segids),
            drained=report.drained,
            live_processes=report.live_processes,
        )
    trigger = recorder.last_trigger
    if trigger is None:
        kind = "chaos.unreclaimed" if not report.reclaimed else "chaos.end"
        trigger = recorder.trigger(
            kind, engine.now, crashes=report.crashes,
            unreclaimed=len(report.unreclaimed_segids),
        )
    return flightrec_mod.write_bundle(
        out_dir, trigger, recorder=recorder,
        config={
            "command": "chaos",
            "seed": report.seed,
            "plan": report.plan_spec,
            "ops_completed": report.ops_total,
        },
    )
