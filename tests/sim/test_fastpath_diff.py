"""Hot paths must be invisible except in wall-clock.

Two halves:

* **Pinned scenarios.** Three XEMEM scenarios reproduce, byte for byte,
  what the retired slow reference paths produced on them: the virtual
  end time, every metrics counter outside the ``fastpath.*`` hit-count
  namespace, and the JSONL trace export. The constants were recorded
  with every slow path on, and checked equal to the fast run at the
  same commit, before the slow paths were deleted.
* **Fallback references.** Where a hot path still has a fallback chosen
  by observable state (a contended core, a fault plan, a non-LAZY
  region, a read-only page), the fallback is the reference the hot path
  is checked against directly, on twin rigs.
"""

import hashlib
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.hw import NodeHardware, OPTIPLEX_SPEC
from repro.hw.costs import PAGE_4K, CostModel
from repro.kernels.pagetable import PAGE_SIZE
from repro.sim import Engine
from repro.xemem import XpmemApi

from tests.xemem.conftest import build_system

#: scenario -> (end_ns, sha256 of the sorted counters JSON, sha256 of the
#: JSONL trace), as the slow reference paths produced them.
PINNED = {
    "cross_enclave": (
        13_505_000,
        "1902c9d2ff58138fb66dc1cd64690757732082cb837cbac572c6f249570630f8",
        "3bc2e479c81229eb985957367839fee92190979bce89a70352136669a6d5bb9a",
    ),
    "linux_local": (
        1_182_750,
        "dd7aaaaa30bf18dca63baf182bec9bc6d71428748d80b5197eb5ff9c0adb7b94",
        "92d168977ea5151676c807f427f017f576febb92f5728817d772a0a36ca7a034",
    ),
    "contended": (
        4_108_000,
        "0288c78553d151516b9819b543c0cad4e55df8d04b67763df96a12b87e56eef0",
        "dbd86a08f8fc775ce050b2b48ad8e38c13f76cd1f51d003443bbe978fa6ee152",
    ),
}


def _observed(scenario):
    """Run ``scenario`` under tracing+metrics; return (end_ns, counters, trace)."""
    with obs.observing(trace=True, metrics=True) as ctx:
        end_ns = scenario()
    counters = {
        k: v for k, v in ctx.metrics.snapshot().items()
        if not k.startswith("fastpath.")
    }
    buf = io.StringIO()
    ctx.tracer.to_jsonl(buf)
    return end_ns, counters, buf.getvalue()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _assert_pinned(name, scenario):
    end_ns, counters, trace = _observed(scenario)
    counters_json = json.dumps(counters, sort_keys=True)
    want_end, want_counters, want_trace = PINNED[name]
    assert end_ns == want_end, "virtual end time diverged"
    assert _sha256(counters_json) == want_counters, (
        f"metrics counters diverged: {counters_json}"
    )
    assert _sha256(trace) == want_trace, "trace export bytes diverged"


def _cross_enclave_scenario():
    """Single co-kernel: burst-eligible IPI chunking, walk cache on the
    recurring attach, vectorized EAGER map install."""
    rig = build_system(num_cokernels=1)
    eng = rig["engine"]
    kitten = rig["cokernels"][0]
    npages = 20_000  # ~80 MB -> several IPI chunk rounds per attach
    kitten.kernel.heap_pages = npages  # heap is sized at process creation
    kp = kitten.kernel.create_process("exp")
    lp = rig["linux"].kernel.create_process("att", core_id=2)
    heap = kitten.kernel.heap_region(kp)

    def run():
        api_k, api_l = XpmemApi(kp), XpmemApi(lp)
        segid = yield from api_k.xpmem_make(heap.start, npages * PAGE_4K)
        apid = yield from api_l.xpmem_get(segid)
        for _ in range(2):  # second round re-walks the unchanged range
            att = yield from api_l.xpmem_attach(apid)
            yield from rig["linux"].kernel.touch_pages(lp, att.vaddr, npages)
            yield from api_l.xpmem_detach(att)
        yield from api_l.xpmem_release(apid)

    eng.run_process(run())
    return eng.now


def _linux_local_scenario():
    """Single-OS Linux path: partially-populated lazy faulting in
    pin_pages (export side) and touch_pages (attach side)."""
    rig = build_system(num_cokernels=1)
    eng = rig["engine"]
    linux = rig["linux"].kernel
    exp = linux.create_process("exp", core_id=1)
    att = linux.create_process("att", core_id=2)
    npages = 300

    def run():
        region = yield from linux.mmap_anonymous(exp, npages * PAGE_4K, "src")
        # touch only half: the export's get_user_pages must fault the rest
        yield from linux.touch_pages(exp, region.start, npages // 2)
        api_e, api_a = XpmemApi(exp), XpmemApi(att)
        segid = yield from api_e.xpmem_make(region.start, npages * PAGE_4K)
        apid = yield from api_a.xpmem_get(segid)
        attached = yield from api_a.xpmem_attach(apid)
        # partial touch, then full touch over the half-populated window
        yield from linux.touch_pages(att, attached.vaddr, npages // 3)
        yield from linux.touch_pages(att, attached.vaddr, npages, write=True)
        yield from api_a.xpmem_detach(attached)
        yield from api_a.xpmem_release(apid)

    eng.run_process(run())
    return eng.now


def _contended_scenario():
    """Two co-kernels: core 0 has two bound vectors, so IPI bursts must
    fall back to per-round queueing (the §5.3 contention model)."""
    rig = build_system(num_cokernels=2)
    eng = rig["engine"]
    linux = rig["linux"].kernel
    npages = 12_000
    procs = []
    for i, kitten in enumerate(rig["cokernels"]):
        kitten.kernel.heap_pages = npages
        kp = kitten.kernel.create_process("exp")
        lp = linux.create_process(f"att{i}", core_id=2 + i)
        heap = kitten.kernel.heap_region(kp)
        procs.append((kp, lp, heap))

    def attacher(kp, lp, heap):
        api_k, api_l = XpmemApi(kp), XpmemApi(lp)
        segid = yield from api_k.xpmem_make(heap.start, npages * PAGE_4K)
        apid = yield from api_l.xpmem_get(segid)
        att = yield from api_l.xpmem_attach(apid)
        yield from api_l.xpmem_detach(att)
        yield from api_l.xpmem_release(apid)

    for kp, lp, heap in procs:
        eng.spawn(attacher(kp, lp, heap))
    eng.run()
    return eng.now


def test_cross_enclave_identical():
    _assert_pinned("cross_enclave", _cross_enclave_scenario)


def test_linux_local_identical():
    _assert_pinned("linux_local", _linux_local_scenario)


def test_contended_identical():
    _assert_pinned("contended", _contended_scenario)


def test_fast_run_uses_walk_cache_and_burst():
    """The run must actually take the hot paths it claims to."""
    with obs.observing(trace=False, metrics=True) as ctx:
        _cross_enclave_scenario()
    snap = ctx.metrics.snapshot()
    assert snap.get("fastpath.walkcache.hits", 0) > 0
    assert snap.get("fastpath.ipi.batched_rounds", 0) > 1


def test_contended_run_takes_per_round_ipis():
    """Two vectors bound on core 0: the contention guard must pick the
    per-round IPI path for every transfer."""
    with obs.observing(trace=False, metrics=True) as ctx:
        _contended_scenario()
    snap = ctx.metrics.snapshot()
    assert "fastpath.ipi.batched_rounds" not in snap
    assert snap["pisces.channel.ipi_rounds"] > snap["pisces.channel.msgs"]


# -- IPI bursts vs per-round IPIs ---------------------------------------------


def _ipi_rig(rounds, occupancy_ns, burst):
    """One uncontended controller; sends ``rounds`` IPIs as a burst or
    one by one. Returns every observable the two paths must share."""
    with obs.observing(trace=False, metrics=True) as ctx:
        eng = Engine()
        node = NodeHardware(eng, OPTIPLEX_SPEC, costs=CostModel())
        vec = node.intc.allocate_vector(0)

        def handler(payload):
            yield eng.sleep(payload)

        node.intc.register(vec, handler)

        def sender():
            if burst:
                yield from node.intc.send_ipi_burst(vec, rounds, occupancy_ns)
            else:
                for _ in range(rounds):
                    yield from node.intc.send_ipi(vec, occupancy_ns)

        eng.run_process(sender())
        core = node.core(0)
    counters = {k: v for k, v in ctx.metrics.snapshot().items()
                if k.startswith("hw.ipi.")}
    return (eng.now, core.resource.stats, list(core.steal_log),
            node.intc.delivered, counters)


@settings(max_examples=25, deadline=None)
@given(rounds=st.integers(1, 40), occupancy_ns=st.integers(0, 50_000))
def test_ipi_burst_matches_per_round_ipis(rounds, occupancy_ns):
    burst = _ipi_rig(rounds, occupancy_ns, burst=True)
    per_round = _ipi_rig(rounds, occupancy_ns, burst=False)
    assert burst == per_round


# -- batched demand faults vs per-page handle_fault ---------------------------


def _coalesced(steal_log):
    """Merge back-to-back entries with the same tag: the batched path
    logs one interval where the per-page path logs one per fault."""
    out = []
    for start, dur, tag in steal_log:
        if out and out[-1][2] == tag and out[-1][0] + out[-1][1] == start:
            out[-1] = (out[-1][0], out[-1][1] + dur, tag)
        else:
            out.append((start, dur, tag))
    return out


def _fault_rig(op, populated, batched):
    """A half-populated LAZY region, then ``op`` ("touch" or "pin") over
    all of it — batched, or after faulting every hole with one
    ``handle_fault`` per page (the per-page reference)."""
    rig = build_system(num_cokernels=1)
    eng = rig["engine"]
    linux = rig["linux"].kernel
    proc = linux.create_process("p", core_id=1)
    npages = 700  # crosses a leaf boundary

    def run():
        region = yield from linux.mmap_anonymous(proc, npages * PAGE_4K)
        for i in populated:
            yield from linux.handle_fault(proc, region.start + i * PAGE_SIZE)
        if not batched:
            present = proc.aspace.table.present_mask(region.start, npages)
            for i in np.flatnonzero(~present).tolist():
                yield from linux.handle_fault(
                    proc, region.start + i * PAGE_SIZE)
            assert region.populated == npages
        if op == "touch":
            yield from linux.touch_pages(proc, region.start, npages, write=True)
            pfns = proc.aspace.table.translate_range(region.start, npages)
        else:
            pfns = yield from linux.pin_pages(proc, region.start, npages)
        return pfns

    pfns = eng.run_process(run())
    core = rig["node"].core(proc.core_id)
    return (pfns.tolist(), linux.fault_count, _coalesced(core.steal_log),
            eng.now)


@settings(max_examples=10, deadline=None)
@given(op=st.sampled_from(["touch", "pin"]),
       populated=st.sets(st.integers(0, 699), min_size=1, max_size=350))
def test_batched_faults_match_per_page_faults(op, populated):
    populated = sorted(populated)
    assert _fault_rig(op, populated, batched=True) == \
        _fault_rig(op, populated, batched=False)
