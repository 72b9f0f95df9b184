"""The per-enclave XEMEM kernel module.

One :class:`XememModule` sits in each enclave. It is simultaneously:

* the **router** — implementing the §3.2 forwarding rule over the
  enclave's channels, including the discovery protocol's pending-request
  bookkeeping that builds routing maps as enclave IDs flow back;
* the **name-server host** — on exactly one enclave, resolving
  segid-addressed commands to their owner enclave (§4.2);
* the **segment server** — serving remote attach requests by walking the
  exporting process's page table to generate PFN lists (§4.3);
* the **mapping client** — installing remote PFN lists into local
  processes through the enclave kernel's own mapping routines, and
  handling the *local* fast paths (SMARTMAP on Kitten, lazy VMAs on
  Linux) when both processes share an enclave.

Everything time-consuming is a generator run inside the simulation; all
request/response pairs are correlated by ``req_id`` through the pending
table, and responses route back through the name server exactly as the
paper describes.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

from repro import obs
from repro.obs.tracer import NULL_SPAN
from repro.enclave.enclave import Channel, ChannelClosedError, Enclave, KernelMessage
from repro.kernels.pagetable import PAGE_SIZE
from repro.xemem import commands as C
from repro.xemem.ids import (
    ApId,
    Permit,
    PermissionError_,
    SegmentId,
    XememError,
    XememOverload,
    XememTimeout,
)
from repro.xemem.nameserver import NameServer
from repro.xemem import overload as OV
from repro.xemem.routing import RoutingError, RoutingTable
from repro.xemem.shmem import AttachedRegion, ExportedSegment, GrantTable, LiveCounts

#: Bound on the retried-request replay cache (FIFO eviction). Large
#: enough that a response outlives its request's full retry budget.
_REPLAY_CACHE_CAP = 512


class XememModule:
    """The XEMEM service of one enclave."""

    def __init__(self, enclave: Enclave, is_name_server: bool = False):
        self.enclave = enclave
        self.kernel = enclave.kernel
        self.engine = enclave.engine
        self.costs = self.kernel.costs
        self.routing = RoutingTable()
        self.nameserver: Optional[NameServer] = NameServer() if is_name_server else None
        self.segments: Dict[int, ExportedSegment] = {}
        #: Columnar grant list (SoA; dict-like surface keyed by apid).
        self.grants = GrantTable()
        self._pending: Dict[str, object] = {}      # req_id -> Event
        self._ping_pending: Dict[str, object] = {} # token -> Event
        self._forwarded: Dict[str, Channel] = {}   # discovery req_id -> origin
        self._req_counter = itertools.count()
        self._apid_counter = itertools.count(1)
        self._smartmap_refs: Dict[tuple, int] = {}
        # -- event-notification extension state --
        #: owner side: segid -> subscribed enclave ids
        self._signal_subs: Dict[int, list] = {}
        #: waiter side: segid -> (pending signal count, waiting Events)
        self._signal_state: Dict[int, list] = {}
        #: live attachment count per apid (release is refused while > 0)
        self._live_attachments = LiveCounts()
        #: live AttachedRegion objects per apid, for crash-time invalidation
        self._attachments_by_apid: Dict[int, list] = {}
        # -- failure-resilience state --
        #: set by PiscesManager.crash_enclave; a crashed module drops all
        #: traffic and never raises out of handlers
        self.crashed = False
        #: req_id -> completed response (idempotent replay of retried
        #: commands); only populated while a non-empty fault plan is armed
        self._served_responses: "OrderedDict[str, KernelMessage]" = OrderedDict()
        #: req_ids currently being served (suppress duplicates in flight)
        self._in_service: set = set()
        #: name-server restart outage: drop NS traffic until this time
        self._ns_down_until = 0
        # -- overload protection (default off; one attribute check on the
        # hot path, same zero-cost contract as ``engine.faults``) --
        self.overload: Optional["OV.ModuleOverload"] = None
        self.stats = {
            "attaches_served": 0,
            "attaches_made": 0,
            "messages_forwarded": 0,
        }
        enclave.module = self
        enclave.set_receiver(self._receive)

    # ------------------------------------------------------------------ identity

    @property
    def my_id(self) -> Optional[int]:
        """This enclave's ID (None before discovery)."""
        return self.enclave.enclave_id

    @property
    def is_name_server(self) -> bool:
        """True on the single enclave hosting the name server."""
        return self.nameserver is not None

    def _next_req_id(self) -> str:
        return f"{self.enclave.name}:{next(self._req_counter)}"

    def _count_forward(self) -> None:
        self.stats["messages_forwarded"] += 1
        obs.get().counter("xemem.msgs.forwarded").inc()

    # ------------------------------------------------------------- message plumbing

    def _receive(self, msg: KernelMessage, channel: Channel) -> None:
        if self.crashed:
            obs.get().counter("faults.msgs.to_crashed").inc()
            return
        self.engine.spawn(
            self._handle_safely(msg, channel),
            name=f"xemem:{self.enclave.name}:{msg.kind}",
        )

    def _handle_safely(self, msg: KernelMessage, channel: Optional[Channel]):
        """Handler wrapper: a mid-flight enclave crash or a vanished route
        must not blow up the engine (handlers run as unwaited processes)."""
        try:
            yield from self._handle(msg, channel)
        except (RoutingError, ChannelClosedError):
            obs.get().counter("xemem.msgs.undeliverable").inc()
        except Exception:
            if not self.crashed:
                raise
            obs.get().counter("faults.handlers.aborted").inc()

    def _send(self, msg: KernelMessage):
        """Generator: send one hop according to the routing rule."""
        dst = msg.payload.get("dst")
        if dst is None:
            if self.is_name_server:
                # we ARE the name server: resolve/handle without a hop
                yield from self._handle_at_name_server(msg)
                return
            channel = self.routing.ns_channel
            if channel is None:
                raise XememError(
                    f"enclave {self.enclave.name!r} has no name-server path"
                )
        elif dst == self.my_id:
            # a response addressed to ourselves (e.g. the name server
            # serving a segment it also owns): deliver locally
            self.engine.spawn(
                self._handle_safely(msg, channel=None),
                name=f"xemem-local:{msg.kind}",
            )
            return
        else:
            channel = self.routing.channel_for(dst)
        yield from channel.send(self.enclave, msg)

    def _spawn_send(self, msg: KernelMessage) -> None:
        self.engine.spawn(self._send_safely(msg), name=f"send:{msg.kind}")

    def _send_safely(self, msg: KernelMessage):
        """Spawned-send wrapper: the destination may have crashed between
        queueing and delivery; a lost response surfaces as the requester's
        timeout, not as an unwaited exception."""
        try:
            yield from self._send(msg)
        except (RoutingError, ChannelClosedError, XememError):
            obs.get().counter("xemem.msgs.undeliverable").inc()

    def _request_policy(self, ov: Optional["OV.ModuleOverload"]):
        """(deadline_ns, retries, backoff) for one request.

        An armed, non-empty fault plan bounds every attempt by its
        deadline with exponential backoff. Without one the wait parks on
        the reply with no timer: the far side always answers, so a retry
        only ever follows an overload rejection (``ov`` armed).
        """
        injector = self.engine.faults
        if injector is not None and injector.active:
            plan = injector.plan
            return plan.request_timeout_ns, plan.max_retries, plan.backoff_factor
        return None, 0 if ov is None else ov.cfg.max_client_retries, 1

    @staticmethod
    def _check_response(resp: KernelMessage) -> KernelMessage:
        error = resp.payload.get("error")
        if error is not None:
            verdict = resp.payload.get("overload")
            if verdict is not None:
                raise XememOverload(
                    error,
                    retry_after_ns=resp.payload.get("retry_after_ns", 0),
                    verdict=verdict,
                )
            if "permission denied" in error:
                raise PermissionError_(error)
            raise XememError(error)
        return resp

    def _request(self, msg: KernelMessage):
        """The request loop for ``msg``, routed: ``yield from`` it for the
        checked response (returned, not wrapped, to save a frame on the
        hot path)."""
        return self._await_reply(
            self._send, msg, self._pending, msg.payload["req_id"], msg.kind,
            self.overload,
        )

    def _await_reply(self, send, arg, pending: Dict[str, object],
                     key: Optional[str], what: str,
                     ov: Optional["OV.ModuleOverload"] = None):
        """Generator: the one request loop — send, wait for the
        correlated reply, retry per :meth:`_request_policy`.

        Each attempt parks an event at ``pending[key]`` and runs
        ``send(arg)``; the handler of the reply pops and triggers it.
        Retries reuse ``key`` so receivers can deduplicate replays; with
        ``key=None`` every attempt draws a fresh key and passes it as the
        send step's argument instead (discovery broadcasts, whose late
        acks must not answer a newer attempt). Raises the reply's error
        (:meth:`_check_response`), :class:`XememTimeout` when every
        attempt timed out, and :class:`XememError` when ``send`` finds no
        route.

        With ``ov`` (the module's armed overload state) backpressure is
        honored: (a) a per-destination circuit breaker fails fast while
        the far side is *silent* (consecutive timeouts — an overload
        rejection is a healthy, fast answer and never trips it), (b) a
        per-module retry *budget* is charged to timeout-driven retries
        only, so unpaced storms cannot amplify an overloaded server —
        retry-after retries are paced by the server itself and ride
        free, and (c) seeded backoff jitter and retry-after-hint waits
        are drawn from the module's overload RNG stream (never
        module-level ``random`` — REP002).
        """
        deadline_ns, retries, backoff = self._request_policy(ov)
        breaker = None
        if ov is not None:
            dst = arg.payload.get("dst")
            dst_key = "ns" if dst is None else f"e{dst}"
            breaker = ov.breaker_for(dst_key)
            if not breaker.allow():
                raise XememOverload(
                    f"{what} {key}: circuit open to {dst_key}",
                    retry_after_ns=breaker.retry_after_ns(),
                    verdict="breaker-open",
                )
        fresh_keys = key is None
        last_overload: Optional[XememOverload] = None
        for attempt in range(retries + 1):
            if fresh_keys:
                key = arg = self._next_req_id()
            event = self.engine.event(name=f"{what}:{key}#{attempt}")
            pending[key] = event
            try:
                yield from send(arg)
            except (RoutingError, ChannelClosedError) as err:
                if pending.get(key) is event:
                    del pending[key]
                raise XememError(
                    f"cannot deliver {what} from {self.enclave.name!r}: {err}"
                )
            if deadline_ns is None:
                resp = yield event
            else:
                which, resp = yield self.engine.any_of(
                    [event, self.engine.sleep(deadline_ns)]
                )
                if which != 0:
                    if pending.get(key) is event:
                        del pending[key]
                    o = obs.get()
                    o.counter("xemem.req.timeouts").inc()
                    if breaker is not None:
                        breaker.record_failure()
                    if attempt < retries:
                        # the unpaced kind of retry: charge the budget
                        if ov is not None and not ov.budget.try_spend():
                            raise XememOverload(
                                f"{what} {key}: retry budget exhausted",
                                retry_after_ns=ov.cfg.retry_budget_window_ns,
                                verdict="budget-exhausted",
                            )
                        o.counter("xemem.req.retries").inc()
                        deadline_ns *= backoff
                        if ov is not None:
                            jitter = ov.jitter_ns()
                            if jitter:
                                yield self.engine.sleep(jitter)
                    continue
            if breaker is not None:
                # any answer — even a rejection or an application error —
                # proves the far side live: never breaker fodder
                breaker.record_success()
            try:
                return self._check_response(resp)
            except XememOverload as err:
                if ov is None:
                    raise
                # honor the rejection's pacing
                obs.get().counter("xemem.req.backpressured").inc()
                last_overload = err
                if attempt < retries:
                    wait = err.retry_after_ns + ov.jitter_ns()
                    if wait:
                        yield self.engine.sleep(wait)
        if last_overload is not None:
            raise XememOverload(
                f"{what} {key}: still overloaded after {retries + 1} attempt(s)",
                retry_after_ns=last_overload.retry_after_ns,
                verdict=last_overload.verdict,
            )
        raise XememTimeout(f"{what} {key} unanswered after {retries + 1} attempt(s)")

    # ----------------------------------------------------------------- discovery

    def discover(self):
        """Generator: the paper's three discovery steps for this enclave."""
        with obs.get().span("xemem.discover", self.engine, track=self.enclave.name):
            result = yield from self._discover()
        return result

    def _discover(self):
        # (1) broadcast: find a channel with a path to the name server
        ack = yield from self._await_reply(
            self._broadcast_ping, None, self._ping_pending, None, C.PING_NS_PATH
        )
        self.routing.ns_channel = ack.payload["via"]
        # (2) request an enclave ID through that channel; (3) forwarders
        # learn the route as the assignment flows back
        req_id = self._next_req_id()
        resp = yield from self._await_reply(
            self._send, C.make_command(C.ALLOC_ENCLAVE_ID, None, None, req_id=req_id),
            self._pending, req_id, C.ALLOC_ENCLAVE_ID,
        )
        self.enclave.enclave_id = resp.payload["enclave_id"]
        self.routing.discovered = True
        return self.enclave.enclave_id

    def _broadcast_ping(self, token: str):
        """Send step of discovery (1): ping every channel at once."""
        for channel in self.enclave.channels:
            self._spawn_send_on(
                channel, C.make_command(C.PING_NS_PATH, None, None, token=token)
            )
        return
        yield  # pragma: no cover - a generator, like every send step

    def _spawn_send_on(self, channel: Channel, msg: KernelMessage) -> None:
        self.engine.spawn(
            self._send_on_safely(channel, msg), name=f"send:{msg.kind}"
        )

    def _send_on_safely(self, channel: Channel, msg: KernelMessage):
        try:
            yield from channel.send(self.enclave, msg)
        except ChannelClosedError:
            obs.get().counter("xemem.msgs.undeliverable").inc()

    # ----------------------------------------------------------------- dispatch

    def _handle(self, msg: KernelMessage, channel: Channel):
        kind = msg.kind

        # -- hop-by-hop discovery traffic (no enclave IDs exist yet) --------
        if kind == C.PING_NS_PATH:
            if self.routing.discovered:
                yield from channel.send(
                    self.enclave,
                    C.make_command(
                        C.PING_NS_PATH_ACK, None, None, token=msg.payload["token"]
                    ),
                )
            return
        if kind == C.PING_NS_PATH_ACK:
            event = self._ping_pending.pop(msg.payload["token"], None)
            if event is None:
                # duplicate or late ack for an already-answered (or
                # abandoned) broadcast: drop, don't raise
                obs.get().counter("xemem.msgs.stray_dropped").inc()
                return
            # the channel the ack arrived on is this enclave's path to
            # the name server
            msg.payload["via"] = channel
            event.trigger(msg)
            return
        if kind == C.ALLOC_ENCLAVE_ID:
            req_id = msg.payload["req_id"]
            if not self.is_name_server:
                self._forwarded[req_id] = channel
                yield from self._send(msg)
                return
            if self._ns_down_until > self.engine.now:
                obs.get().counter("faults.ns.dropped_while_down").inc()
                return
            # a retried allocation replays its assignment instead of
            # burning a second enclave ID; with no routes yet, the replay
            # goes back over the channel the request arrived on
            if self._maybe_replay(
                msg, reply=lambda resp: self._spawn_send_on(channel, resp)
            ):
                return
            new_id = self.nameserver.alloc_enclave_id()
            self.routing.learn(new_id, channel)
            assigned = C.make_command(
                C.ENCLAVE_ID_ASSIGNED, self.my_id, None,
                req_id=req_id, enclave_id=new_id,
            )
            self._record_response(req_id, assigned)
            yield from channel.send(self.enclave, assigned)
            return
        if kind == C.ENCLAVE_ID_ASSIGNED:
            req_id = msg.payload["req_id"]
            if req_id in self._pending:
                self._pending.pop(req_id).trigger(msg)
                return
            origin = self._forwarded.pop(req_id, None)
            if origin is None:
                # duplicate assignment already delivered (or the waiter
                # timed out and moved on): drop, don't raise
                obs.get().counter("xemem.msgs.stray_dropped").inc()
                return
            # learn the route to the newly assigned enclave (§3.2)
            self.routing.learn(msg.payload["enclave_id"], origin)
            yield from origin.send(self.enclave, msg)
            return

        # -- addressed traffic ------------------------------------------------
        dst = msg.payload.get("dst")
        if dst is None and not self.is_name_server:
            self._count_forward()
            yield from self._send(msg)
            return
        if dst is None and self.is_name_server:
            yield from self._handle_at_name_server(msg)
            return
        if dst != self.my_id:
            self._count_forward()
            yield from self._send(msg)
            return

        # -- mine -------------------------------------------------------------
        reply_to = msg.payload.get("reply_to")
        if reply_to is not None:
            event = self._pending.pop(reply_to, None)
            if event is None:
                # a duplicated response, or one that arrived after the
                # requester's deadline fired: drop, don't raise
                obs.get().counter("xemem.msgs.stray_dropped").inc()
                return
            event.trigger(msg)
            return
        if self.overload is not None and kind not in C.ONE_WAY:
            yield from self._admitted(self._serve, msg, self.overload)
            return
        yield from self._serve(msg)

    # -- overload admission (armed only) -----------------------------------

    def _admitted(self, serve, msg: KernelMessage, ov: "OV.ModuleOverload"):
        """Generator: run ``serve(msg)`` behind the bounded admission
        queue — the one gate in front of owner serving and name-server
        dispatch. A refused request is answered with backpressure."""
        try:
            verdict = yield from ov.controller.admit(msg.kind)
        except XememError:
            # the module crashed/shut down while this request was queued
            obs.get().counter("overload.aborted").inc()
            return
        if verdict != OV.SERVE:
            self._reject_overloaded(msg, verdict, ov)
            return
        try:
            yield from serve(msg)
        finally:
            ov.controller.release()

    def _reject_overloaded(self, msg: KernelMessage, verdict: str,
                           ov: "OV.ModuleOverload") -> None:
        """Answer a refused request with a backpressure response.

        Deliberately *not* routed through :meth:`_respond`: a rejection
        must never enter the replay cache, or a retried request would be
        told "overloaded" forever."""
        obs.get().counter("xemem.msgs.overload_rejected").inc()
        if msg.kind in C.ONE_WAY or msg.kind not in C.RESPONSE_KIND:
            return
        resp = C.make_response(
            msg, self.my_id,
            error=f"overloaded: {verdict} at enclave {self.enclave.name!r}",
            overload=verdict,
            retry_after_ns=ov.controller.retry_hint_ns(),
        )
        self._spawn_send(resp)

    # -- retried-request deduplication -------------------------------------

    def _request_dedup_active(self) -> bool:
        injector = self.engine.faults
        return injector is not None and injector.active

    def _maybe_replay(self, msg: KernelMessage, reply=None) -> bool:
        """True if ``msg`` is a duplicate of a served/in-flight request.

        A cached response is re-sent through ``reply`` (default: routed,
        :meth:`_spawn_send`) as an idempotent replay; a duplicate of a
        request still in service is suppressed — the original's response
        will answer both, since they share a req_id.
        """
        if not self._request_dedup_active():
            return False
        req_id = msg.payload.get("req_id")
        if req_id is None:
            return False
        cached = self._served_responses.get(req_id)
        if cached is not None:
            obs.get().counter("xemem.msgs.replayed").inc()
            (reply or self._spawn_send)(
                KernelMessage(kind=cached.kind, payload=dict(cached.payload),
                              pfns=cached.pfns)
            )
            return True
        if req_id in self._in_service:
            obs.get().counter("xemem.msgs.dup_in_service").inc()
            return True
        self._in_service.add(req_id)
        return False

    def _record_response(self, req_id: Optional[str],
                         resp: KernelMessage) -> None:
        if req_id is None:
            return
        self._in_service.discard(req_id)
        if not self._request_dedup_active():
            return
        self._served_responses[req_id] = resp
        while len(self._served_responses) > _REPLAY_CACHE_CAP:
            self._served_responses.popitem(last=False)

    def _respond(self, request: KernelMessage, pfns=None, **fields) -> None:
        """Build, record (for replay), and spawn-send a response."""
        resp = C.make_response(request, self.my_id, pfns=pfns, **fields)
        self._record_response(request.payload.get("req_id"), resp)
        self._spawn_send(resp)

    # -- name-server failure detection -------------------------------------

    def _lease_ns(self) -> Optional[int]:
        injector = self.engine.faults
        if injector is not None and injector.active and injector.plan.heartbeats:
            return injector.plan.lease_ns
        return None

    def _sweep_leases(self) -> None:
        """GC every tracked enclave whose lease has expired.

        Deferred at degradation level 2: under pressure the sweep's
        bookkeeping yields its cycles to the serving hot path; the next
        sweep below the threshold catches up (leases only get *more*
        expired)."""
        lease = self._lease_ns()
        if lease is None:
            return
        ov = self.overload
        if ov is not None and ov.refresh_level() >= 2:
            ov.gc_deferred += 1
            obs.get().counter("overload.ns.gc_deferred").inc()
            return
        ns = self.nameserver
        for eid in ns.expired_enclaves(self.engine.now, lease):
            purged = ns.gc_enclave(eid)
            obs.get().counter("xemem.ns.lease_gc").inc()
            obs.get().counter("xemem.ns.lease_gc_segids").inc(len(purged))

    def _note_heartbeat(self, msg: KernelMessage) -> None:
        src = msg.payload.get("src")
        if src is not None:
            self.nameserver.note_heartbeat(src, self.engine.now)
        self._sweep_leases()

    def restart_nameserver(self, outage_ns: int = 0) -> None:
        """Model a name-server restart: the service is down for
        ``outage_ns`` (all NS traffic dropped), and its volatile replay
        cache is lost. Registrations (the segid map) persist — the paper's
        name server lives in the management enclave whose state survives a
        service restart. Leases restart from the recovery time so a
        momentarily-silent enclave is not GC'd by the outage itself."""
        if not self.is_name_server:
            raise XememError("restart_nameserver on a non-name-server enclave")
        self._ns_down_until = self.engine.now + outage_ns
        self._served_responses.clear()
        self._in_service.clear()
        self.nameserver.restart_grace(self._ns_down_until)
        obs.get().counter("xemem.ns.restarts").inc()

    def _handle_at_name_server(self, msg: KernelMessage):
        """NS-addressed commands: resolve or answer (§4.2)."""
        kind = msg.kind
        if self._ns_down_until > self.engine.now:
            # restart outage window: the service is down; requesters'
            # retries carry them past it
            obs.get().counter("faults.ns.dropped_while_down").inc()
            return
        if kind == C.ENCLAVE_HEARTBEAT:
            self._note_heartbeat(msg)
            return
        # Journey tag: the req_id ties this serving span to the client
        # operation that sent the command (heartbeats excluded — they
        # belong to no request).
        with obs.get().span("xemem.ns.handle", self.engine,
                            track=self.enclave.name, kind=kind,
                            req_id=msg.payload.get("req_id")):
            ov = self.overload
            if ov is None:
                yield from self._dispatch_at_name_server(msg)
            elif not self._shed_by_ladder(msg, ov):
                yield from self._admitted(self._dispatch_at_name_server, msg, ov)

    def _shed_by_ladder(self, msg: KernelMessage, ov: "OV.ModuleOverload") -> bool:
        """True when the NS degradation ladder answered ``msg`` ahead of
        admission control.

        Ladder (docs/OVERLOAD.md): level 1 — discovery (lookup/list)
        sheds before attach; lookups may still be answered from a
        stale-bounded cache without consuming a serve slot. Level 2 —
        lease GC defers (see :meth:`_sweep_leases`). Release-class
        traffic always admits ahead of both.
        """
        ov.refresh_level()
        kind = msg.kind
        if ov.level >= 1 and kind in (C.LOOKUP_NAME, C.LIST_NAMES):
            if kind == C.LOOKUP_NAME:
                cached = ov.lookup_cache.get(msg.payload.get("name"))
                if cached is not None and (
                    self.engine.now - cached[1] <= ov.cfg.stale_lookup_ttl_ns
                ):
                    ov.stale_hits += 1
                    ov.controller.count_served_direct()
                    obs.get().counter("overload.ns.stale_lookups").inc()
                    self._spawn_send(C.make_response(
                        msg, self.my_id, segid=cached[0], stale=True,
                    ))
                    return True
            ov.controller.count_shed_direct()
            self._reject_overloaded(msg, OV.SHED, ov)
            return True
        return False

    def _dispatch_at_name_server(self, msg: KernelMessage):
        ns = self.nameserver
        kind = msg.kind
        if kind in C.SEGID_ADDRESSED:
            self._sweep_leases()
            try:
                owner = ns.owner_of(msg.payload["segid"])
            except XememError as err:
                if kind == C.RELEASE_REQ:
                    # releasing a grant on an already-removed segid is
                    # fine: the grant is gone either way (idempotent)
                    self._respond(msg, ok=True)
                else:
                    self._respond(msg, error=str(err))
                return
            if owner == self.my_id:
                yield from self._serve(msg)
            else:
                msg.payload["dst"] = owner
                self._count_forward()
                try:
                    yield from self._send(msg)
                except (RoutingError, ChannelClosedError, XememError) as err:
                    # the owner died between resolution and forwarding
                    self._respond(
                        msg, error=f"owner enclave {owner} unreachable: {err}"
                    )
            return
        if self._maybe_replay(msg):
            return
        if kind == C.ALLOC_SEGID:
            try:
                segid = ns.alloc_segid(
                    msg.payload["src"],
                    msg.payload["npages"],
                    msg.payload.get("name"),
                )
                self._respond(msg, segid=int(segid))
            except XememError as err:
                self._respond(msg, error=str(err))
            return
        if kind == C.REMOVE_SEGID:
            try:
                ns.remove_segid(msg.payload["segid"], msg.payload["src"])
                self._respond(msg, ok=True)
            except XememError as err:
                self._respond(msg, error=str(err))
            return
        if kind == C.LOOKUP_NAME:
            segid = ns.lookup_name(msg.payload["name"])
            if self.overload is not None and segid is not None:
                # feed the stale-bounded cache the ladder serves from
                self.overload.lookup_cache[msg.payload["name"]] = (
                    segid, self.engine.now,
                )
            self._respond(msg, segid=segid)
            return
        if kind == C.LIST_NAMES:
            names = ns.list_names(msg.payload.get("prefix", ""))
            self._respond(msg, names=names)
            return
        if kind == C.ENCLAVE_DEPART:
            departing = msg.payload["src"]
            purged = ns.segids_of(departing)
            for sid in purged:
                ns.remove_segid(sid, departing)
            # routing entries are purged by EnclaveSystem.shutdown_enclave
            # once the ack has been delivered (the ack still needs them)
            self._respond(msg, purged_segids=len(purged))
            return
        raise XememError(f"name server cannot handle {kind!r}")
        yield  # pragma: no cover

    # ----------------------------------------------------------------- serving

    def _serve(self, msg: KernelMessage):
        """Requests addressed to this enclave as a segment owner."""
        kind = msg.kind
        if kind == C.SEGID_NOTIFY:
            # one-way, no req_id: dedup does not apply
            self._deliver_signal(msg.payload["segid"])
            return
        if self._maybe_replay(msg):
            # a retried command we already served (or are serving): the
            # replayed/original response answers it. Double-serving would
            # double-count grants_out.
            return
        if kind == C.GET_REQ:
            seg = self.segments.get(msg.payload["segid"])
            if seg is None or seg.removed:
                self._respond(msg, error="unknown or removed segid")
                return
            if not seg.permit.allows(msg.payload["write"], is_owner=False):
                self._respond(msg, error="permission denied")
                return
            seg.grants_out += 1
            self._respond(msg, npages=seg.npages)
            return
        if kind == C.ATTACH_REQ:
            yield from self._serve_attach(msg)
            return
        if kind == C.RELEASE_REQ:
            seg = self.segments.get(msg.payload["segid"])
            if seg is not None and seg.grants_out > 0:
                seg.grants_out -= 1
            self._respond(msg, ok=True)
            return
        if kind == C.NOTIFY_SUBSCRIBE:
            segid = msg.payload["segid"]
            if segid not in self.segments:
                self._respond(msg, error="unknown segid")
                return
            subs = self._signal_subs.setdefault(segid, [])
            if msg.payload["src"] not in subs:
                subs.append(msg.payload["src"])
            self._respond(msg, ok=True)
            return
        if kind == C.SIGNAL_REQ:
            segid = msg.payload["segid"]
            if segid not in self.segments:
                self._respond(msg, error="unknown segid")
                return
            self._fan_out_signal(segid, exclude=None)
            self._respond(msg, ok=True)
            return
        raise XememError(f"enclave {self.enclave.name!r} cannot serve {kind!r}")

    def _serve_attach(self, msg: KernelMessage):
        """Owner side of Fig. 3 steps 5–6: walk pages, return the PFN list."""
        seg = self.segments.get(msg.payload["segid"])
        if seg is None or seg.removed:
            self._respond(msg, error="unknown or removed segid")
            return
        offset_pages = msg.payload["offset_pages"]
        npages = msg.payload["npages"]
        if offset_pages < 0 or npages <= 0 or offset_pages + npages > seg.npages:
            self._respond(msg, error="attach range outside segment")
            return
        o = obs.get()
        with o.span("xemem.serve_attach", self.engine, track=self.enclave.name,
                    npages=npages, req_id=msg.payload.get("req_id")):
            pfns = yield from self.kernel.walk_for_export(
                seg.proc, seg.vaddr + offset_pages * PAGE_SIZE, npages
            )
        o.counter("xemem.attach.served").inc()
        self.stats["attaches_served"] += 1
        resp = C.make_response(msg, self.my_id, pfns=pfns)
        self._record_response(msg.payload.get("req_id"), resp)
        yield from self._send(resp)

    # ============================================================== user operations

    def make(self, proc, vaddr: int, nbytes: int, permit: Permit = Permit(),
             name: Optional[str] = None):
        """Generator: export [vaddr, vaddr+nbytes) → :class:`ExportedSegment`."""
        if vaddr % PAGE_SIZE or nbytes <= 0:
            raise XememError(f"export range [{vaddr:#x}, +{nbytes}) not page aligned")
        npages = -(-nbytes // PAGE_SIZE)
        o = obs.get()
        with o.span("xemem.make", self.engine, track=self.enclave.name,
                    npages=npages, segname=name) as sp:
            yield self.engine.sleep(self.costs.export_fixed_ns)
            if self.is_name_server:
                segid = self.nameserver.alloc_segid(self.my_id, npages, name)
            else:
                req_id = self._next_req_id()
                sp.set(req_id=req_id)
                resp = yield from self._request(
                    C.make_command(
                        C.ALLOC_SEGID, self.my_id, None,
                        req_id=req_id, npages=npages, name=name,
                    )
                )
                segid = SegmentId(resp.payload["segid"])
        o.counter("xemem.make.count").inc()
        seg = ExportedSegment(segid, proc, vaddr, npages, permit, name)
        self.segments[int(segid)] = seg
        return seg

    def remove(self, proc, seg: ExportedSegment):
        """Generator: ``xpmem_remove`` — retire the segid."""
        if seg.proc is not proc:
            raise XememError("only the exporting process may remove a segment")
        if seg.removed:
            raise XememError(f"{seg.segid!r} already removed")
        seg.removed = True
        self.segments.pop(int(seg.segid), None)
        if self.is_name_server:
            self.nameserver.remove_segid(int(seg.segid), self.my_id)
            yield self.engine.sleep(self.costs.detach_fixed_ns)
        else:
            yield from self._request(
                C.make_command(
                    C.REMOVE_SEGID, self.my_id, None,
                    req_id=self._next_req_id(), segid=int(seg.segid),
                )
            )

    def lookup(self, name: str):
        """Generator: discoverability — find a segid by registered name."""
        o = obs.get()
        with o.span("xemem.lookup", self.engine, track=self.enclave.name,
                    segname=name) as sp:
            if self.is_name_server:
                yield self.engine.sleep(self.costs.detach_fixed_ns)
                segid = self.nameserver.lookup_name(name)
            else:
                req_id = self._next_req_id()
                sp.set(req_id=req_id)
                resp = yield from self._request(
                    C.make_command(
                        C.LOOKUP_NAME, self.my_id, None,
                        req_id=req_id, name=name,
                    )
                )
                segid = resp.payload["segid"]
        return None if segid is None else SegmentId(segid)

    def list_names(self, prefix: str = ""):
        """Generator: discoverability — all registered segment names."""
        if self.is_name_server:
            yield self.engine.sleep(self.costs.detach_fixed_ns)
            return self.nameserver.list_names(prefix)
        resp = yield from self._request(
            C.make_command(
                C.LIST_NAMES, self.my_id, None,
                req_id=self._next_req_id(), prefix=prefix,
            )
        )
        return resp.payload["names"]

    def get(self, proc, segid: SegmentId, write: bool = True):
        """Generator: ``xpmem_get`` — request access, returns an ApId."""
        o = obs.get()
        o.counter("xemem.get.count").inc()
        local = self.segments.get(int(segid))
        with o.span("xemem.get", self.engine, track=self.enclave.name,
                    local=local is not None) as sp:
            if local is not None:
                if not local.permit.allows(write, is_owner=local.proc is proc):
                    raise PermissionError_(f"permission denied for {segid!r}")
                local.grants_out += 1
                npages = local.npages
                yield self.engine.sleep(self.costs.detach_fixed_ns)
            else:
                req_id = self._next_req_id()
                sp.set(req_id=req_id)
                resp = yield from self._request(
                    C.make_command(
                        C.GET_REQ, self.my_id, None,
                        req_id=req_id, segid=int(segid), write=write,
                    )
                )
                npages = resp.payload["npages"]
        apid = ApId((self.my_id << 20) | next(self._apid_counter))
        self.grants.insert(
            apid, segid, proc, npages, write, owner_is_local=local is not None
        )
        return apid

    def release(self, proc, apid: ApId):
        """Generator: ``xpmem_release`` — drop a grant.

        Refused while attachments made under the grant are still mapped
        (XPMEM semantics: detach before release)."""
        obs.get().counter("xemem.release.count").inc()
        grant = self._grant_of(proc, apid)
        if self._live_attachments.get(int(apid), 0) > 0:
            raise XememError(
                f"{apid!r} still has {self._live_attachments[int(apid)]} live "
                "attachment(s); xpmem_detach them first"
            )
        grant.released = True
        del self.grants[int(apid)]
        if grant.owner_is_local:
            seg = self.segments.get(int(grant.segid))
            if seg is not None and seg.grants_out > 0:
                seg.grants_out -= 1
            yield self.engine.sleep(self.costs.detach_fixed_ns)
        else:
            yield from self._request(
                C.make_command(
                    C.RELEASE_REQ, self.my_id, None,
                    req_id=self._next_req_id(), segid=int(grant.segid),
                )
            )

    def attach(self, proc, apid: ApId, offset: int = 0, nbytes: Optional[int] = None):
        """Generator: ``xpmem_attach`` — map (a window of) the segment.

        Local segments use the enclave OS's own conventions (SMARTMAP on
        Kitten, a lazy VMA on Linux); remote segments run the full Fig. 3
        protocol and map the returned PFN list eagerly.
        """
        grant = self._grant_of(proc, apid)
        if offset % PAGE_SIZE:
            raise XememError(f"attach offset {offset:#x} not page aligned")
        offset_pages = offset // PAGE_SIZE
        npages = (
            grant.npages - offset_pages
            if nbytes is None
            else -(-nbytes // PAGE_SIZE)
        )
        if offset_pages < 0 or npages <= 0 or offset_pages + npages > grant.npages:
            raise XememError("attach range outside segment")
        o = obs.get()
        t0 = self.engine.now
        with o.span("xemem.attach", self.engine, track=self.enclave.name,
                    npages=npages, local=grant.owner_is_local) as sp:
            yield self.engine.sleep(self.costs.attach_fixed_ns)
            if grant.owner_is_local:
                attached = yield from self._attach_local(proc, grant, offset_pages, npages)
            else:
                attached = yield from self._attach_remote(
                    proc, grant, offset_pages, npages, span=sp
                )
        if self.grants.get(int(grant.apid)) is not grant:
            # The grant was invalidated (its owner enclave crashed) while
            # we were mapping: tear the half-made attachment back down
            # instead of registering a mapping into dead memory.
            self._unmap_now(attached)
            raise XememError(
                f"{grant.apid!r} invalidated while attaching (owner crashed)"
            )
        o.counter("xemem.attach.count").inc()
        o.counter("xemem.attach.pages").inc(npages)
        o.histogram("xemem.attach.ns").observe(self.engine.now - t0)
        self.stats["attaches_made"] += 1
        self._live_attachments.bump(int(grant.apid), 1)
        self._attachments_by_apid.setdefault(int(grant.apid), []).append(attached)
        return attached

    def _attach_local(self, proc, grant: ApGrant, offset_pages: int, npages: int):
        seg = self.segments.get(int(grant.segid))
        if seg is None or seg.removed:
            raise XememError(f"{grant.segid!r} removed")
        if self.kernel.kernel_type == "kitten":
            # SMARTMAP: O(1) whole-address-space aliasing (§4.3)
            key = (proc.pid, seg.proc.pid)
            if self._smartmap_refs.get(key, 0) == 0:
                self.kernel.smartmap_attach(proc, seg.proc)
            self._smartmap_refs[key] = self._smartmap_refs.get(key, 0) + 1
            vaddr = self.kernel.smartmap_address(
                seg.proc, seg.vaddr + offset_pages * PAGE_SIZE
            )
            pfns = seg.proc.aspace.table.translate_range(
                seg.vaddr + offset_pages * PAGE_SIZE, npages
            )
            # SMARTMAP aliases the donor's own PTEs, so a read-only grant
            # is enforced at the view layer, not in the page table.
            view = self.kernel.mem.map_region(pfns, writable=grant.write)
            return AttachedRegion(
                grant.apid, grant.segid, proc, vaddr, npages,
                kind="smartmap", view=view, smartmap_donor=seg.proc,
            )
        # Linux local path: pin the exporter's pages, then lazily map them
        pfns = yield from self.kernel.walk_for_export(
            seg.proc, seg.vaddr + offset_pages * PAGE_SIZE, npages,
            core=self.kernel.node.core(proc.core_id),
        )
        region = yield from self.kernel.attach_local_lazy(
            proc, pfns, name=f"xemem:{int(grant.segid):#x}",
            writable=grant.write,
        )
        view = self.kernel.mem.map_region(pfns, writable=grant.write)
        return AttachedRegion(
            grant.apid, grant.segid, proc, region.start, npages,
            kind="linux-lazy", region=region, local_pfns=pfns, view=view,
        )

    def _attach_remote(self, proc, grant: ApGrant, offset_pages: int,
                       npages: int, span=NULL_SPAN):
        # The req_id is allocated here (not in attach()) so the id
        # sequence is stable; the open attach span gets it as a journey
        # tag via the passed-in handle.
        req_id = self._next_req_id()
        span.set(req_id=req_id)
        resp = yield from self._request(
            C.make_command(
                C.ATTACH_REQ, self.my_id, None,
                req_id=req_id, segid=int(grant.segid),
                offset_pages=offset_pages, npages=npages,
            )
        )
        pfns = resp.pfns
        if pfns is None or len(pfns) != npages:
            raise XememError("malformed attach response")
        extra = (
            self.costs.guest_map_install_per_page_ns
            - self.costs.map_install_per_page_ns
            if getattr(self.kernel, "virtualized", False)
            else 0
        )
        region = yield from self.kernel.map_remote_pfns(
            proc, pfns, name=f"xemem:{int(grant.segid):#x}",
            core=self.kernel.node.core(proc.core_id),
            extra_per_page_ns=extra,
            writable=grant.write,
        )
        view = self.kernel.mem.map_region(pfns, writable=grant.write)
        return AttachedRegion(
            grant.apid, grant.segid, proc, region.start, npages,
            kind="remote", region=region, local_pfns=pfns, view=view,
        )

    def detach(self, proc, attached: AttachedRegion):
        """Generator: ``xpmem_detach`` — unmap an attachment."""
        if attached.detached:
            raise XememError("already detached")
        if attached.proc is not proc:
            raise XememError("only the attaching process may detach")
        obs.get().counter("xemem.detach.count").inc()
        attached.detached = True
        live = self._live_attachments.get(int(attached.apid), 0)
        if live > 0:
            self._live_attachments[int(attached.apid)] = live - 1
        registry = self._attachments_by_apid.get(int(attached.apid))
        if registry is not None and attached in registry:
            registry.remove(attached)
        if attached.kind == "smartmap":
            key = (proc.pid, attached.smartmap_donor.pid)
            refs = self._smartmap_refs.get(key, 0)
            if refs <= 0:
                raise XememError("SMARTMAP refcount underflow")
            self._smartmap_refs[key] = refs - 1
            if refs == 1:
                self.kernel.smartmap_detach(proc, attached.smartmap_donor)
            yield self.engine.sleep(self.costs.detach_fixed_ns)
            return
        yield from self.kernel.unmap_attachment(proc, attached.region)
        if attached.kind == "remote" and getattr(self.kernel, "virtualized", False):
            # drop the guest-physical alias Palacios created for this attach
            yield from self.kernel.vmm.unmap_guest_attachment(attached.local_pfns)

    # ================================================== event-notification extension
    #
    # The paper's §6.1 notes that its OS/Rs "only support application
    # communication through shared memory, and thus operations like event
    # notifications must be supported via ad hoc techniques like polling"
    # and promises to "investigate techniques to support additional
    # features". This is that feature: kernel-level doorbells on a segid.
    # Waiters subscribe once (a routed message to the owner); every signal
    # fans out one message per subscribed enclave. Semaphore semantics —
    # a signal raised before anyone waits is not lost.

    def _signal_cell(self, segid: int) -> list:
        return self._signal_state.setdefault(int(segid), [0, []])

    def _deliver_signal(self, segid: int) -> None:
        cell = self._signal_cell(segid)
        if cell[1]:
            cell[1].pop(0).trigger(None)
        else:
            cell[0] += 1

    def _fan_out_signal(self, segid: int, exclude) -> None:
        """Owner side: wake local waiters, notify remote subscribers.

        Notifications are lossy toward departed enclaves (their routes
        are gone); that mirrors real doorbells — nobody is listening.
        """
        self._deliver_signal(segid)
        for enclave_id in self._signal_subs.get(int(segid), []):
            if enclave_id == exclude:
                continue
            msg = C.make_command(
                C.SEGID_NOTIFY, self.my_id, enclave_id, segid=int(segid)
            )

            def lossy_send(msg=msg):
                from repro.enclave.enclave import ChannelClosedError
                from repro.xemem.routing import RoutingError

                try:
                    yield from self._send(msg)
                except (RoutingError, ChannelClosedError):
                    pass

            self.engine.spawn(lossy_send(), name="notify")

    def subscribe_signals(self, proc, segid: SegmentId):
        """Generator: register this enclave for ``segid``'s doorbell.

        Local waiters of the owning enclave need no subscription; remote
        waiters subscribe once and then receive every signal as a routed
        one-way message.
        """
        if int(segid) in self.segments:
            yield self.engine.sleep(self.costs.detach_fixed_ns)
            return True
        yield from self._request(
            C.make_command(
                C.NOTIFY_SUBSCRIBE, self.my_id, None,
                req_id=self._next_req_id(), segid=int(segid),
            )
        )
        return True

    def signal(self, proc, segid: SegmentId):
        """Generator: ring the segid's doorbell (wakes all waiters once)."""
        if int(segid) in self.segments:
            self._fan_out_signal(int(segid), exclude=None)
            yield self.engine.sleep(self.costs.detach_fixed_ns)
            return
        yield from self._request(
            C.make_command(
                C.SIGNAL_REQ, self.my_id, None,
                req_id=self._next_req_id(), segid=int(segid),
            )
        )

    def wait_signal(self, proc, segid: SegmentId):
        """Generator: block until the segid's doorbell rings.

        Consumes one pending signal if present (semaphore semantics).
        The waiter must have subscribed first unless it is in the owning
        enclave.
        """
        cell = self._signal_cell(int(segid))
        if cell[0] > 0:
            cell[0] -= 1
            return
        event = self.engine.event(name=f"signal:{int(segid):#x}")
        cell[1].append(event)
        yield event

    # ============================================================ enclave lifecycle

    def shutdown(self, force: bool = False):
        """Generator: deregister this enclave from the XEMEM name space.

        The paper's §3.2 expects node partitions to be *dynamic*; this is
        the departure half. All locally exported segments are retired at
        the name server. By default, shutdown refuses while other
        enclaves hold grants on local segments (their mappings would
        dangle); ``force=True`` overrides for failure-injection tests.
        """
        outstanding = sum(seg.grants_out for seg in self.segments.values())
        if outstanding and not force:
            raise XememError(
                f"enclave {self.enclave.name!r} has {outstanding} outstanding "
                "grant(s) on its segments; detach/release first (or force)"
            )
        if self.is_name_server:
            raise XememError("the name-server enclave cannot depart")
        # retire every owned segid in one departure message
        yield from self._request(
            C.make_command(
                C.ENCLAVE_DEPART, self.my_id, None, req_id=self._next_req_id()
            )
        )
        if force:
            # Outstanding waiters (signal waits, in-flight requests) would
            # otherwise hang forever against a departed enclave.
            self._fail_waiters(f"enclave {self.enclave.name!r} departed")
        self._drop_registration()
        return True

    def crash(self) -> None:
        """Fail-stop this enclave's XEMEM service (no protocol, no costs).

        Called by :meth:`PiscesManager.crash_enclave`. Unlike
        :meth:`shutdown`, nothing is negotiated: every parked waiter fails
        immediately, all state is dropped, and the module ignores any
        traffic that still reaches it.
        """
        if self.crashed:
            return
        self.crashed = True
        recorder = obs.get().flightrec
        if recorder is not None:
            recorder.note(
                "xemem.module.crashed", self.engine.now,
                enclave=self.enclave.name,
                segments=len(self.segments),
                live_attachments=len(self._live_attachments),
            )
        self._fail_waiters(f"enclave {self.enclave.name!r} crashed")
        self._drop_registration()
        self.routing.routes.clear()
        self.routing.ns_channel = None
        obs.get().counter("faults.modules.crashed").inc()

    def _fail_waiters(self, reason: str) -> None:
        """Fail every parked waiter — signal waits, pending requests and
        pings, queued admissions — with one :class:`XememError`."""
        err = XememError(reason)
        waiters = [event for cell in self._signal_state.values()
                   for event in cell[1]]
        self._signal_state.clear()
        for pending in (self._pending, self._ping_pending):
            waiters.extend(pending.values())
            pending.clear()
        for event in waiters:
            if not event.triggered:
                event.fail(err)
        if self.overload is not None:
            self.overload.fail_all(err)

    def _drop_registration(self) -> None:
        """Drop *all* per-registration state, not just the segments: stale
        grants, attachment refcounts, signal subscriptions and replay
        caches must not survive into a later re-join of the enclave."""
        self.segments.clear()
        self.grants.clear()
        self._live_attachments.clear()
        self._attachments_by_apid.clear()
        self._smartmap_refs.clear()
        self._signal_subs.clear()
        self._signal_state.clear()
        self._forwarded.clear()
        self._served_responses.clear()
        self._in_service.clear()
        self._apid_counter = itertools.count(1)
        self.routing.discovered = False

    def invalidate_dead_segments(self, dead_segids, pfn_window,
                                 crashed_enclave_id: Optional[int] = None) -> int:
        """Survivor-side crash cleanup: tear down attachments into a dead
        enclave's memory and drop the matching grants.

        ``dead_segids`` — segids the crashed enclave owned (its exports);
        ``pfn_window`` — the dead enclave's physical partition ``(lo, hi)``,
        catching attachments whose segid records predate the crash (e.g.
        already-GC'd at the name server). The PTEs are unmapped
        synchronously (a real implementation would IPI-shootdown; the
        crash path charges no protocol cost — the frames are gone either
        way). Foreign frames are never freed here; the crashed kernel's
        teardown reclaims them. Returns the number of attachments torn
        down.
        """
        dead_segids = {int(s) for s in dead_segids}
        lo, hi = pfn_window
        dropped = 0
        virtualized = getattr(self.kernel, "virtualized", False)
        for apid, grant in list(self.grants.items()):
            if grant.owner_is_local:
                continue
            dead = int(grant.segid) in dead_segids
            registry = self._attachments_by_apid.get(apid, [])
            for att in list(registry):
                # Guest-side attachments carry guest-physical PFNs whose
                # numbering is unrelated to host frames; match those by
                # segid only.
                in_window = (
                    not virtualized
                    and att.local_pfns is not None
                    and len(att.local_pfns) > 0
                    and lo <= int(att.local_pfns[0]) < hi
                )
                if dead or in_window:
                    self._invalidate_attachment(att)
                    registry.remove(att)
                    dropped += 1
            if dead:
                self.grants.pop(apid, None)
                self._live_attachments.pop(apid, None)
                self._attachments_by_apid.pop(apid, None)
        if crashed_enclave_id is not None:
            for subs in self._signal_subs.values():
                if crashed_enclave_id in subs:
                    subs.remove(crashed_enclave_id)
        if dropped:
            obs.get().counter("faults.attachments.invalidated").inc(dropped)
        return dropped

    def _invalidate_attachment(self, att: AttachedRegion) -> None:
        if att.detached:
            return
        live = self._live_attachments.get(int(att.apid), 0)
        if live > 0:
            self._live_attachments[int(att.apid)] = live - 1
        self._unmap_now(att)

    @staticmethod
    def _unmap_now(att: AttachedRegion) -> None:
        """Mark ``att`` detached and drop its PTEs synchronously (no
        protocol cost); the frames are never freed here."""
        att.detached = True
        region = att.region
        if region is not None and region in att.proc.aspace.regions:
            if region.populated == region.npages:
                att.proc.aspace.unmap_region(region)
            else:
                att.proc.aspace.unmap_populated_pages(region)

    def _grant_of(self, proc, apid: ApId) -> ApGrant:
        grant = self.grants.get(int(apid))
        if grant is None:
            raise XememError(f"unknown {apid!r}")
        if grant.proc is not proc:
            raise XememError(f"{apid!r} belongs to {grant.proc!r}")
        return grant


def install_xemem(system, run_discovery_now: bool = True) -> Dict[str, XememModule]:
    """Put a module on every enclave; optionally run discovery. Returns
    {enclave name: module}."""
    if system.name_server_enclave is None:
        raise XememError("designate a name-server enclave first")
    modules = {}
    for enclave in system.enclaves:
        modules[enclave.name] = XememModule(
            enclave, is_name_server=enclave is system.name_server_enclave
        )
    if run_discovery_now:
        system.run_discovery()
    return modules
