"""Per-layer host-time attribution for the traced benchmark run.

The tracer wraps the public entry points of each simulator layer from
the outside (class attributes and module globals are swapped on
:meth:`LayerTracer.install` and restored on :meth:`LayerTracer.remove`),
so the program under test carries no tracing code and the untraced run
measures exactly the shipped hot paths.

Every wrapped call records one span per host-time slice: name, start,
end, parent span and the id of the benchmark op it belongs to. A
generator call (a simulated operation that waits on the virtual clock)
records one span per *resume*, so virtual-time waiting is never charged
as host busy time. Self time is a span's duration minus the part its
child spans cover, accumulated per layer as spans close.

Spans are kept in flat typed arrays (a few dozen bytes each) and written
out, as compressed columns, when the run ends.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

#: Layers that own spans. ``sim`` has none: its self time is the traced
#: round time no layer span covers (event dispatch, generator plumbing,
#: the benchmark's own client code).
LAYERS = ("xemem", "pisces", "kernels", "kernels.noise", "virt", "hw",
          "workloads")

#: XEMEM user-API calls reported by name (``xemem.<op>.calls``/``.fail``).
XEMEM_OPS = ("make", "get", "attach", "detach", "release", "search", "list")

#: Ops whose virtual-clock latency (simulated waiting included) is kept.
XEMEM_LATENCY_OPS = ("attach", "get", "search")


def _arg(args, kwargs, pos: int, name: str):
    """A wrapped call's argument, positional (``args`` includes self) or
    by keyword."""
    return args[pos] if len(args) > pos else kwargs[name]


class LayerTracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, current_op: Callable[[], int] = lambda: -1):
        self.current_op = current_op
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("H")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("q")
        self.op_col = array("q")
        self._child = array("d")
        self._stack: List[int] = []
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.spans_per_layer: Counter = Counter()
        self.top_s = 0.0
        self.counts: Counter = Counter()
        self.sim_lat_ns: Dict[str, List[int]] = {
            op: [] for op in XEMEM_LATENCY_OPS
        }
        self._patches: list = []
        self._layer_of: List[str] = []

    # -- span bookkeeping --------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self._layer_of.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start_col)
        stack = self._stack
        self.name_col.append(nid)
        self.parent_col.append(stack[-1] if stack else -1)
        self.op_col.append(self.current_op())
        self.end_col.append(0.0)
        self._child.append(0.0)
        stack.append(idx)
        self.start_col.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self.end_col[idx] = end
        self._stack.pop()
        dur = end - self.start_col[idx]
        layer = self._layer_of[self.name_col[idx]]
        self.self_s[layer] += dur - self._child[idx]
        self.spans_per_layer[layer] += 1
        parent = self.parent_col[idx]
        if parent >= 0:
            self._child[parent] += dur
        else:
            self.top_s += dur

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span (None at top level)."""
        if not self._stack:
            return None
        return self.names[self.name_col[self._stack[-1]]]

    @property
    def span_count(self) -> int:
        return len(self.start_col)

    # -- wrappers ----------------------------------------------------------

    def _proxy(self, gen, nid: int, done=None):
        """Drive ``gen`` on behalf of its caller, timing each resume.

        ``done(ok)`` runs once when the call ends (returned or raised).
        """
        value = None
        exc = None
        while True:
            idx = self._open(nid)
            try:
                item = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                self._close(idx)
                if done is not None:
                    done(True)
                return stop.value
            except BaseException:
                self._close(idx)
                if done is not None:
                    done(False)
                raise
            self._close(idx)
            exc = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # delivered into the inner generator
                exc = err
                value = None

    def wrap(self, owner, attr: str, layer: str, name: str,
             count: Optional[Callable] = None,
             finish: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Swap ``owner.attr`` for a span-recording wrapper.

        ``count(args, kwargs)`` runs on entry. For generator functions,
        ``finish(args, kwargs)`` returns the ``done(ok)`` callback that
        runs when the call ends; for plain functions ``after(args,
        result)`` sees the return value.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        nid = self._name_id(name, layer)
        tracer = self
        if inspect.isgeneratorfunction(orig):
            def wrapper(*args, **kwargs):
                if count is not None:
                    count(args, kwargs)
                done = None if finish is None else finish(args, kwargs)
                return tracer._proxy(orig(*args, **kwargs), nid, done)
        else:
            def wrapper(*args, **kwargs):
                if count is not None:
                    count(args, kwargs)
                idx = tracer._open(nid)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if after is not None:
                    after(args, result)
                return result
        wrapper.__wrapped__ = orig
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def tap(self, owner, attr: str, count: Callable) -> None:
        """Count calls to ``owner.attr`` without recording a span."""
        orig = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            count(args, kwargs)
            return orig(*args, **kwargs)

        wrapper.__wrapped__ = orig
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Restore every wrapped attribute (reverse order of install)."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- the layer map -----------------------------------------------------

    def install(self) -> "LayerTracer":
        """Wrap every layer's entry points. Returns self."""
        from repro.enclave.enclave import Channel
        from repro.hw.interrupts import InterruptController
        from repro.hw.memory import FrameAllocator, MappedRegion
        from repro.kernels import noise as noise_mod
        from repro.kernels.base import KernelBase
        from repro.kernels.kitten import KittenKernel
        from repro.kernels.linux import LinuxKernel
        from repro.kernels.pagetable import PageTable
        from repro.sim.engine import Engine
        from repro.virt.memmap import VmmMemoryMap
        from repro.virt.palacios import PalaciosVmm
        from repro.virt.pci import XememPciDevice
        from repro.workloads import compute, insitu, stream
        from repro.xemem.api import XpmemApi
        from repro.xemem.module import XememModule

        c = self.counts

        # sim: process spawns (events come from the engine's sequence).
        self.tap(Engine, "spawn", lambda a, k: c.update(("sim.spawns",)))

        # xemem: the XPMEM user API, plus the module's message handler
        # (server-side work runs in spawned handler processes).
        api_attrs = {
            "make": "xpmem_make", "remove": "xpmem_remove",
            "get": "xpmem_get", "release": "xpmem_release",
            "attach": "xpmem_attach", "detach": "xpmem_detach",
            "search": "xpmem_search", "list": "xpmem_list",
        }
        for op, attr in api_attrs.items():
            self.wrap(XpmemApi, attr, "xemem", f"xemem.{op}",
                      finish=self._xemem_finish(op))
        self.wrap(XememModule, "_handle_safely", "xemem", "xemem.handle")

        # pisces (and every other kernel message link): one span per send.
        def count_send(args, kwargs):
            msg = _arg(args, kwargs, 2, "msg")
            c["pisces.msgs"] += 1
            c["pisces.pfns"] += msg.npfns
        self.wrap(Channel, "send", "pisces", "pisces.send", count=count_send)

        # kernels: page-table range operations and the paging entry points.
        def count_map(args, kwargs):
            # the PFN array of map_range, the page indices of
            # map_pages_sparse: one entry per page either way
            c["kernels.pages_mapped"] += len(args[2])

        def count_one(args, kwargs):
            c["kernels.pages_mapped"] += 1

        def count_translate(args, kwargs):
            if _arg(args, kwargs, 2, "npages") > 0:
                c["kernels.translate_range"] += 1

        self.wrap(PageTable, "map_range", "kernels", "kernels.pt.map_range",
                  count=count_map)
        self.wrap(PageTable, "map_pages_sparse", "kernels",
                  "kernels.pt.map_pages_sparse", count=count_map)
        self.wrap(PageTable, "map_page", "kernels", "kernels.pt.map_page",
                  count=count_one)
        self.wrap(PageTable, "translate_range", "kernels",
                  "kernels.pt.translate_range", count=count_translate)
        self.tap(PageTable, "_walk",
                 lambda a, k: c.update(("kernels.walks",)))
        for attr in ("unmap_range", "unmap_page", "set_flags_range",
                     "range_flags_all", "present_mask", "flag_mask",
                     "first_missing_flag"):
            self.wrap(PageTable, attr, "kernels", f"kernels.pt.{attr}")

        def count_touch(args, kwargs):
            if self.parent_name() != "kernels.touch_pages":
                c["kernels.pages_touched"] += _arg(args, kwargs, 3, "npages")

        for cls in (KernelBase, LinuxKernel):
            self.wrap(cls, "touch_pages", "kernels", "kernels.touch_pages",
                      count=count_touch)
        for cls, attrs in (
            (KernelBase, ("map_remote_pfns", "unmap_attachment",
                          "walk_for_export", "create_process",
                          "destroy_process")),
            (LinuxKernel, ("map_remote_pfns", "walk_for_export",
                           "handle_fault", "attach_local_lazy",
                           "mmap_anonymous", "munmap")),
            (KittenKernel, ("map_remote_pfns", "unmap_attachment",
                            "smartmap_attach", "smartmap_detach")),
        ):
            for attr in attrs:
                self.wrap(cls, attr, "kernels", f"kernels.{attr}")

        # kernels.noise: detour enumeration and integration.
        def count_noise(args, kwargs):
            c["kernels.noise.calls"] += 1

        for cls in (noise_mod.NoiseSource, *noise_mod.NoiseSource.__subclasses__()):
            for attr in ("stolen_in", "events_in"):
                if attr in cls.__dict__:
                    self.wrap(cls, attr, "kernels.noise",
                              f"kernels.noise.{attr}", count=count_noise)

        # virt: the VMM memory map, the Palacios VMM, the XEMEM PCI device.
        entries_before = [0]

        def count_insert(args, kwargs):
            c["virt.pages_inserted"] += len(args[2])
            entries_before[0] = args[0].num_entries

        def after_insert(args, work_ns):
            c["virt.entries_inserted"] += max(
                0, args[0].num_entries - entries_before[0])
            c["virt.work_ns"] += work_ns

        def after_remove(args, work_ns):
            c["virt.work_ns"] += work_ns

        self.wrap(VmmMemoryMap, "insert_mapping", "virt",
                  "virt.memmap.insert_mapping", count=count_insert,
                  after=after_insert)
        self.wrap(VmmMemoryMap, "remove_mapping", "virt",
                  "virt.memmap.remove_mapping", after=after_remove)
        for attr in ("translate", "translate_array", "peek_translate_array"):
            self.wrap(VmmMemoryMap, attr, "virt", f"virt.memmap.{attr}")
        for attr in ("map_host_pfns_into_guest", "unmap_guest_attachment",
                     "translate_guest_pfns", "alloc_guest_pfns"):
            self.wrap(PalaciosVmm, attr, "virt", f"virt.vmm.{attr}")
        for attr in ("host_to_guest", "guest_to_host"):
            self.wrap(XememPciDevice, attr, "virt", f"virt.pci.{attr}")

        # hw: shared-memory loads/stores, IPIs, frame allocation.
        def count_write(args, kwargs):
            c["hw.mem_bytes"] += len(args[2])

        def count_read(args, kwargs):
            c["hw.mem_bytes"] += _arg(args, kwargs, 2, "length")

        self.wrap(MappedRegion, "write", "hw", "hw.mem.write", count=count_write)
        self.wrap(MappedRegion, "read", "hw", "hw.mem.read", count=count_read)

        def count_ipi(args, kwargs):
            c["hw.ipis"] += 1

        def count_burst(args, kwargs):
            c["hw.ipis"] += _arg(args, kwargs, 2, "rounds")

        self.wrap(InterruptController, "send_ipi", "hw", "hw.ipi.send",
                  count=count_ipi)
        self.wrap(InterruptController, "post_ipi", "hw", "hw.ipi.post",
                  count=count_ipi)
        self.wrap(InterruptController, "send_ipi_burst", "hw",
                  "hw.ipi.burst", count=count_burst)

        def count_frames(args, kwargs):
            c["hw.frames_allocated"] += _arg(args, kwargs, 1, "nframes")

        for attr in ("alloc", "alloc_pages", "alloc_scattered"):
            self.wrap(FrameAllocator, attr, "hw", f"hw.frames.{attr}",
                      count=count_frames)
        for attr in ("free", "free_run_list"):
            self.wrap(FrameAllocator, attr, "hw", f"hw.frames.{attr}")

        # workloads: the composed application's compute, STREAM and the
        # shared-memory polling loop (module globals, looked up per call).
        self.wrap(stream.StreamBenchmark, "run", "workloads",
                  "workloads.stream.run")
        for mod in (compute, insitu, stream):
            self.wrap(mod, "noise_aware_compute", "workloads",
                      "workloads.noise_aware_compute")
        self.wrap(insitu, "poll_u64_at_least", "workloads",
                  "workloads.poll", finish=self._poll_finish)
        return self

    # -- per-call completion hooks ----------------------------------------

    def _xemem_finish(self, op: str):
        counts = self.counts
        lat = self.sim_lat_ns.get(op)

        def finish(args, kwargs):
            engine = args[0].proc.kernel.engine
            t0 = engine.now

            def done(ok):
                counts[f"xemem.{op}.calls"] += 1
                if not ok:
                    counts[f"xemem.{op}.fail"] += 1
                elif lat is not None:
                    lat.append(engine.now - t0)
            return done
        return finish

    def _poll_finish(self, args, kwargs):
        """A poll call ends satisfied when its word reached the target.
        Each resume of the poll loop is one shared-memory read, so poll
        reads are the ``workloads.poll`` span count."""
        counts = self.counts

        def done(ok):
            if ok:
                counts["workloads.polls_satisfied"] += 1
        return done

    # -- output -----------------------------------------------------------

    def spans_named(self, name: str) -> int:
        """Spans recorded under ``name`` (one per resume for generators)."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0
        return self.name_col.tolist().count(nid)

    def dump(self, path: str) -> None:
        """Write the recorded spans as compressed columns (``.npz``):
        ``name`` (index into ``names``), ``start_s``/``end_s`` (host
        seconds from the first span), ``parent`` (span index, -1 at top
        level) and ``op`` (benchmark op id, -1 outside any op)."""
        import numpy as np

        start = np.frombuffer(self.start_col, dtype=np.float64)
        t0 = start[0] if len(start) else 0.0
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name_col, dtype=np.uint16),
            start_s=start - t0,
            end_s=np.frombuffer(self.end_col, dtype=np.float64) - t0,
            parent=np.frombuffer(self.parent_col, dtype=np.int64),
            op=np.frombuffer(self.op_col, dtype=np.int64),
        )
