"""Overload protection for the XEMEM control plane.

The paper pins the control plane's scalability on two serialization
points: the centralized name server (§4.2) and the core-0 IPI handler
every cross-enclave command funnels through (§4.1). Under offered load
past saturation, an unprotected server builds unbounded queues at those
points; client timeouts then trigger retries that *add* load, and
goodput collapses — the classic retry-storm congestion spiral of any
serving stack.

This module is the protection layer, armed explicitly per rig (default
off — an unarmed module pays one ``None`` check per hook site, the
same zero-cost contract :mod:`repro.faults` keeps):

* :class:`AdmissionController` — a bounded, virtual-time-aware request
  queue in front of each serving module. Policies: ``fail-fast``
  (reject when the queue is full) and ``codel`` (additionally shed at
  dispatch when queue *sojourn* stays above a target for a full
  interval, CoDel-style). Four priority classes guarantee that
  resource-*freeing* traffic (release/remove/depart) always dispatches
  first, *in-progress* traffic (attach — the requester already holds a
  grant) beats *new-flow* traffic (get/alloc), and discovery
  (lookup/list) sheds before everything else — so overload can never
  livelock the system by starving the requests that would shed load,
  and the capacity already invested in a flow is not thrown away at
  its last hop.
* :class:`RetryBudget` + :class:`CircuitBreaker` — client-side
  backpressure honoring. Rejections carry a seeded, deterministic
  retry-after hint; clients retry under a per-module token budget and
  trip a per-destination breaker (closed → open → half-open over
  virtual-time windows) instead of hammering a struggling server with
  unbounded exponential backoff.
* a degradation ladder (see :meth:`ModuleOverload.refresh_level`) —
  under pressure the name server sheds discovery before attach, serves
  lookups from a stale-bounded cache, and defers lease GC; every level
  transition is a metric and a flight-recorder breadcrumb.

Determinism: all randomness (retry-after hints, client backoff jitter)
draws from per-module ``random.Random`` streams seeded from
``OverloadConfig.seed`` and the enclave name, consumed in virtual-clock
event order — runs are byte-identical for the same seed, across reruns
and across the fidelity twins. See docs/OVERLOAD.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.faults.plan import parse_ns
from repro.xemem import commands as C

# -- priority classes ------------------------------------------------------

#: Resource-freeing traffic: always admitted first. Shedding these under
#: overload would leak grants/segids and livelock recovery.
CLASS_RELEASE = 0
#: In-progress traffic: the requester already holds a grant (an attach
#: follows a served get). Rejecting it wastes the capacity the earlier
#: hop already spent, so it ranks just below frees — overload is pushed
#: onto *new* flows at their first gate, where dying is cheap.
CLASS_ATTACH = 1
#: New-flow traffic: first real gate (get/alloc/subscribe).
CLASS_NEW = 2
#: Discovery traffic: first to shed; nothing dangles when it fails.
CLASS_DISCOVERY = 3

_CLASS_NAMES = {CLASS_RELEASE: "release", CLASS_ATTACH: "attach",
                CLASS_NEW: "new", CLASS_DISCOVERY: "discovery"}

_RELEASE_KINDS = frozenset({C.RELEASE_REQ, C.REMOVE_SEGID, C.ENCLAVE_DEPART})
_PROGRESS_KINDS = frozenset({C.ATTACH_REQ, C.SIGNAL_REQ})
_DISCOVERY_KINDS = frozenset({C.LOOKUP_NAME, C.LIST_NAMES})


def priority_class(kind: str) -> int:
    """The admission class of a command kind."""
    if kind in _RELEASE_KINDS:
        return CLASS_RELEASE
    if kind in _PROGRESS_KINDS:
        return CLASS_ATTACH
    if kind in _DISCOVERY_KINDS:
        return CLASS_DISCOVERY
    return CLASS_NEW


# -- configuration ---------------------------------------------------------

_POLICIES = ("fail-fast", "codel")


@dataclass
class OverloadConfig:
    """Everything the protection layer needs, parseable from a CLI spec.

    Spec grammar mirrors :meth:`repro.faults.plan.FaultPlan.parse`::

        policy=codel,workers=1,qcap=8,codeltarget=50us,codelint=100us,
        retryafter=100us,jitter=50us,budget=10,budgetwin=1ms,
        breaker=5,open=500us,clientretries=4,stalettl=500us,
        shedfill=0.5,gcfill=0.75

    Times accept ``ns``/``us``/``ms``/``s`` suffixes (bare numbers ns).
    """

    seed: int = 0

    # -- server-side admission --------------------------------------------
    policy: str = "fail-fast"
    #: concurrent serve slots per module (the paper's core-0 handler is
    #: one core; more workers model batched dispatch)
    workers: int = 1
    #: bound on the total number of queued-but-unserved requests
    queue_cap: int = 8
    #: CoDel: acceptable standing queue sojourn
    codel_target_ns: int = 50_000
    #: CoDel: sojourn must exceed target this long before shedding starts
    codel_interval_ns: int = 100_000

    # -- backpressure hints ------------------------------------------------
    #: base retry-after carried on rejections
    retry_after_ns: int = 100_000
    #: jitter range added to hints and client backoff (seeded)
    retry_jitter_ns: int = 50_000

    # -- client-side budgets / breaker ------------------------------------
    #: retries allowed per module per window (token bucket)
    retry_budget: int = 10
    retry_budget_window_ns: int = 1_000_000
    #: consecutive failures to one destination that open its breaker
    breaker_threshold: int = 5
    #: how long an open breaker fails fast before probing (half-open)
    breaker_open_ns: int = 500_000
    #: retry attempts per request when no fault plan sets a policy
    max_client_retries: int = 4

    # -- name-server degradation ladder -----------------------------------
    #: lookups may be served this stale from the NS cache under pressure
    stale_lookup_ttl_ns: int = 500_000
    #: queue-fill fraction at which discovery sheds (level 1)
    shed_discovery_fill: float = 0.5
    #: queue-fill fraction at which lease GC defers (level 2)
    defer_gc_fill: float = 0.75

    def __post_init__(self):
        if self.policy not in _POLICIES:
            raise ValueError(
                f"unknown admission policy {self.policy!r} "
                f"(want one of {', '.join(_POLICIES)})"
            )
        if self.workers < 1:
            raise ValueError(f"workers={self.workers} < 1")
        if self.queue_cap < 1:
            raise ValueError(f"queue_cap={self.queue_cap} < 1")
        for name in ("codel_target_ns", "codel_interval_ns", "retry_after_ns",
                     "retry_budget_window_ns", "breaker_open_ns",
                     "stale_lookup_ttl_ns"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.retry_jitter_ns < 0:
            raise ValueError("retry_jitter_ns must be non-negative")
        if self.retry_budget < 0 or self.max_client_retries < 0:
            raise ValueError("retry budget/attempts must be non-negative")
        if self.breaker_threshold < 1:
            raise ValueError(f"breaker_threshold={self.breaker_threshold} < 1")
        if not 0.0 < self.shed_discovery_fill <= 1.0:
            raise ValueError("shed_discovery_fill outside (0, 1]")
        if not 0.0 < self.defer_gc_fill <= 1.0:
            raise ValueError("defer_gc_fill outside (0, 1]")

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "OverloadConfig":
        """Build a config from the compact ``key=value,...`` spec string."""
        fields: dict = {"seed": seed}
        keymap = {
            "policy": ("policy", str),
            "workers": ("workers", int),
            "qcap": ("queue_cap", int),
            "codeltarget": ("codel_target_ns", parse_ns),
            "codelint": ("codel_interval_ns", parse_ns),
            "retryafter": ("retry_after_ns", parse_ns),
            "jitter": ("retry_jitter_ns", parse_ns),
            "budget": ("retry_budget", int),
            "budgetwin": ("retry_budget_window_ns", parse_ns),
            "breaker": ("breaker_threshold", int),
            "open": ("breaker_open_ns", parse_ns),
            "clientretries": ("max_client_retries", int),
            "stalettl": ("stale_lookup_ttl_ns", parse_ns),
            "shedfill": ("shed_discovery_fill", float),
            "gcfill": ("defer_gc_fill", float),
        }
        for item in filter(None, (s.strip() for s in spec.split(","))):
            if "=" not in item:
                raise ValueError(
                    f"bad overload spec item {item!r} (want key=value)"
                )
            key, _, value = item.partition("=")
            entry = keymap.get(key.strip())
            if entry is None:
                raise ValueError(f"unknown overload spec key {key.strip()!r}")
            field_name, convert = entry
            fields[field_name] = convert(value.strip())
        return cls(**fields)


# -- admission -------------------------------------------------------------

SERVE = "serve"
REJECT = "reject"
SHED = "shed"


class _Waiter:
    """One parked request: arrival stamp, class, FIFO sequence, event."""

    __slots__ = ("seq", "arrived_ns", "cls", "event")

    def __init__(self, seq: int, arrived_ns: int, cls: int, event):
        self.seq = seq
        self.arrived_ns = arrived_ns
        self.cls = cls
        self.event = event


class AdmissionController:
    """Bounded prioritized admission in front of one serving module.

    ``admit`` is a generator: it returns :data:`SERVE` immediately when a
    slot is free, parks on a virtual-time event otherwise, and resolves
    to :data:`SERVE`/:data:`SHED` when dispatched (or returns
    :data:`REJECT` synchronously when the queue is full). Every admitted
    request must be paired with exactly one :meth:`release`.

    Accounting invariant (the hypothesis suite proves it): at every
    virtual time, ``offered == admitted + rejected + shed + aborted +
    waiting`` and ``waiting <= queue_cap``.
    """

    def __init__(self, config: OverloadConfig, engine, name: str):
        self.cfg = config
        self.engine = engine
        self.name = name
        self.rng = random.Random(f"overload:{config.seed}:{name}")
        self._queues: Tuple[List[_Waiter], ...] = ([], [], [], [])
        self._seq = 0
        self.in_service = 0
        # -- always-on plain-int accounting --
        self.offered = 0
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self.aborted = 0
        self.completed = 0
        self.peak_waiting = 0
        #: CoDel state: when sojourn first stayed above target, or None
        self._above_since: Optional[int] = None

    # -- introspection -----------------------------------------------------

    @property
    def waiting(self) -> int:
        return sum(len(q) for q in self._queues)

    @property
    def fill(self) -> float:
        """Occupancy of slots + queue in [0, 1+]; drives the ladder."""
        return (self.in_service + self.waiting) / (
            self.cfg.workers + self.cfg.queue_cap
        )

    def snapshot(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "aborted": self.aborted,
            "completed": self.completed,
            "waiting": self.waiting,
            "peak_waiting": self.peak_waiting,
        }

    # -- hints -------------------------------------------------------------

    def retry_hint_ns(self) -> int:
        """Seeded, deterministic retry-after carried on a rejection."""
        base = self.cfg.retry_after_ns
        jitter = self.cfg.retry_jitter_ns
        return base + (self.rng.randrange(jitter) if jitter else 0)

    # -- admission ---------------------------------------------------------

    def _cap_for(self, cls: int) -> int:
        """Effective queue bound per class: graduated headroom reserves
        keep slots open for higher classes even when lower ones fill the
        queue — frees always have a way in (anti-livelock), in-progress
        attaches outlast new gets, and discovery gets the smallest
        share."""
        cap = self.cfg.queue_cap
        if cls == CLASS_RELEASE:
            return cap
        if cls == CLASS_ATTACH:
            return cap - max(1, cap // 8)
        if cls == CLASS_NEW:
            return cap - max(1, cap // 4)
        return max(1, cap // 2)

    def try_admit(self, kind: str):
        """Non-blocking admission: ``(verdict, waiter_or_None)``.

        ``SERVE`` consumed a slot; ``REJECT`` means queue full; otherwise
        the returned waiter is parked and its event resolves to the final
        verdict. Split from :meth:`admit` so handlers that cannot yield
        (or tests) can drive the queue directly.
        """
        cls = priority_class(kind)
        self.offered += 1
        o = obs.get()
        o.counter("overload.offered").inc()
        if self.in_service < self.cfg.workers and self.waiting == 0:
            self.in_service += 1
            self.admitted += 1
            o.counter("overload.admitted").inc()
            o.histogram("overload.queue_delay_ns").observe(0)
            return SERVE, None
        if self.waiting >= self._cap_for(cls):
            self.rejected += 1
            o.counter("overload.rejected").inc()
            o.counter(f"overload.rejected.{_CLASS_NAMES[cls]}").inc()
            return REJECT, None
        self._seq += 1
        waiter = _Waiter(
            self._seq, self.engine.now, cls,
            self.engine.event(name=f"admit:{self.name}:{self._seq}"),
        )
        self._queues[cls].append(waiter)
        if self.waiting > self.peak_waiting:
            self.peak_waiting = self.waiting
        return None, waiter

    def admit(self, kind: str):
        """Generator: park until this request is dispatched or refused."""
        verdict, waiter = self.try_admit(kind)
        if waiter is None:
            return verdict
        result = yield waiter.event
        return result

    def release(self) -> None:
        """A served request finished: free its slot, dispatch the queue."""
        self.completed += 1
        if self.in_service > 0:
            self.in_service -= 1
        self._dispatch()

    def count_shed_direct(self) -> None:
        """Account a request the degradation ladder shed before it ever
        reached the queue (keeps the offered-balance invariant in one
        place)."""
        self.offered += 1
        self.shed += 1
        o = obs.get()
        o.counter("overload.offered").inc()
        o.counter("overload.shed").inc()

    def count_served_direct(self) -> None:
        """Account a request answered outside the queue (stale-cache
        lookup hits)."""
        self.offered += 1
        self.admitted += 1
        self.completed += 1
        o = obs.get()
        o.counter("overload.offered").inc()
        o.counter("overload.admitted").inc()

    def _codel_should_shed(self, sojourn_ns: int, now: int) -> bool:
        """CoDel-style shedding on *queue delay*, decided at dispatch:
        shed once sojourn has stayed above target for a full interval."""
        if self.cfg.policy != "codel":
            return False
        if sojourn_ns <= self.cfg.codel_target_ns:
            self._above_since = None
            return False
        if self._above_since is None:
            self._above_since = now
            return False
        return now - self._above_since >= self.cfg.codel_interval_ns

    def _dispatch(self) -> None:
        o = obs.get()
        while self.in_service < self.cfg.workers:
            waiter = self._pop_next()
            if waiter is None:
                return
            now = self.engine.now
            sojourn = now - waiter.arrived_ns
            if (waiter.cls >= CLASS_NEW
                    and self._codel_should_shed(sojourn, now)):
                self.shed += 1
                o.counter("overload.shed").inc()
                o.counter(f"overload.shed.{_CLASS_NAMES[waiter.cls]}").inc()
                waiter.event.trigger(SHED)
                continue
            self.in_service += 1
            self.admitted += 1
            o.counter("overload.admitted").inc()
            o.histogram("overload.queue_delay_ns").observe(sojourn)
            waiter.event.trigger(SERVE)

    def _pop_next(self) -> Optional[_Waiter]:
        for queue in self._queues:
            if queue:
                return queue.pop(0)
        return None

    def fail_all(self, err: Exception) -> None:
        """Crash/shutdown: every parked waiter fails (counted aborted)."""
        for queue in self._queues:
            waiters, queue[:] = list(queue), []
            for waiter in waiters:
                self.aborted += 1
                if not waiter.event.triggered:
                    waiter.event.fail(err)


# -- client-side backpressure ----------------------------------------------


class RetryBudget:
    """Token bucket over virtual-time windows: at most ``retry_budget``
    retries per ``retry_budget_window_ns`` per module. A storm of
    timeouts burns the budget and the client abandons instead of
    amplifying the overload."""

    def __init__(self, config: OverloadConfig, engine):
        self.cfg = config
        self.engine = engine
        self.tokens = config.retry_budget
        self._window_start = engine.now
        self.exhausted = 0

    def try_spend(self) -> bool:
        now = self.engine.now
        if now - self._window_start >= self.cfg.retry_budget_window_ns:
            self.tokens = self.cfg.retry_budget
            self._window_start = now
        if self.tokens > 0:
            self.tokens -= 1
            return True
        self.exhausted += 1
        obs.get().counter("overload.retry_budget_exhausted").inc()
        return False


#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-destination breaker over virtual-time windows.

    ``breaker_threshold`` consecutive failures open it; after
    ``breaker_open_ns`` it half-opens and lets exactly one probe
    through; the probe's outcome closes or re-opens it."""

    def __init__(self, config: OverloadConfig, engine, name: str):
        self.cfg = config
        self.engine = engine
        self.name = name
        self.state = CLOSED
        self.failures = 0
        self.open_until_ns = 0
        self._probe_out = False
        self.opens = 0

    def allow(self) -> bool:
        now = self.engine.now
        if self.state == OPEN:
            if now < self.open_until_ns:
                obs.get().counter("overload.breaker.fast_fail").inc()
                return False
            self._transition(HALF_OPEN)
            self._probe_out = True
            return True
        if self.state == HALF_OPEN:
            if self._probe_out:
                obs.get().counter("overload.breaker.fast_fail").inc()
                return False
            self._probe_out = True
            return True
        return True

    def record_success(self) -> None:
        self.failures = 0
        self._probe_out = False
        if self.state != CLOSED:
            self._transition(CLOSED)

    def record_failure(self) -> None:
        self._probe_out = False
        if self.state == HALF_OPEN:
            self._open()
            return
        self.failures += 1
        if self.state == CLOSED and self.failures >= self.cfg.breaker_threshold:
            self._open()

    def _open(self) -> None:
        self.failures = 0
        self.opens += 1
        self.open_until_ns = self.engine.now + self.cfg.breaker_open_ns
        self._transition(OPEN)

    def _transition(self, new_state: str) -> None:
        old, self.state = self.state, new_state
        o = obs.get()
        o.counter(f"overload.breaker.{new_state.replace('-', '_')}").inc()
        recorder = o.flightrec
        if recorder is not None:
            recorder.note(
                "overload.breaker", self.engine.now,
                breaker=self.name, transition=f"{old}->{new_state}",
            )
            recorder.tick(self.engine.now)

    def retry_after_ns(self) -> int:
        """How long a fast-failed caller should wait before re-trying."""
        return max(0, self.open_until_ns - self.engine.now)


# -- per-module bundle -----------------------------------------------------


class ModuleOverload:
    """The armed protection state of one :class:`XememModule`:
    server-side admission, client-side budget/breakers, and (on the
    name-server module) the degradation ladder."""

    def __init__(self, config: OverloadConfig, module):
        self.cfg = config
        self.module = module
        engine = module.engine
        name = module.enclave.name
        self.controller = AdmissionController(config, engine, name)
        self.budget = RetryBudget(config, engine)
        #: seeded client-side jitter stream (never module-level random)
        self.rng = random.Random(f"overload-client:{config.seed}:{name}")
        self._breakers: Dict[str, CircuitBreaker] = {}
        # -- name-server degradation ladder --
        self.level = 0
        self.level_transitions = 0
        #: name -> (segid, cached_at_ns); stale-bounded lookup cache
        self.lookup_cache: Dict[str, tuple] = {}
        self.stale_hits = 0
        self.gc_deferred = 0

    def breaker_for(self, dst_key: str) -> CircuitBreaker:
        breaker = self._breakers.get(dst_key)
        if breaker is None:
            breaker = CircuitBreaker(
                self.cfg, self.module.engine,
                f"{self.module.enclave.name}->{dst_key}",
            )
            self._breakers[dst_key] = breaker
        return breaker

    def jitter_ns(self) -> int:
        """One seeded jitter draw for client backoff."""
        jitter = self.cfg.retry_jitter_ns
        return self.rng.randrange(jitter) if jitter else 0

    def refresh_level(self) -> int:
        """Recompute the degradation level from queue fill; record every
        transition as metrics + a flight-recorder breadcrumb."""
        fill = self.controller.fill
        new = 0
        if fill >= self.cfg.defer_gc_fill:
            new = 2
        elif fill >= self.cfg.shed_discovery_fill:
            new = 1
        if new != self.level:
            old, self.level = self.level, new
            self.level_transitions += 1
            o = obs.get()
            o.gauge("overload.ns.level").set(new)
            o.counter("overload.ns.level_transitions").inc()
            recorder = o.flightrec
            if recorder is not None:
                now = self.module.engine.now
                recorder.note(
                    "overload.degradation", now,
                    enclave=self.module.enclave.name,
                    transition=f"{old}->{new}",
                    fill=round(fill, 4),
                )
                recorder.tick(now)
        return self.level

    def fail_all(self, err: Exception) -> None:
        self.controller.fail_all(err)

    def snapshot(self) -> Dict[str, object]:
        doc: Dict[str, object] = dict(self.controller.snapshot())
        doc["level"] = self.level
        doc["level_transitions"] = self.level_transitions
        doc["stale_hits"] = self.stale_hits
        doc["gc_deferred"] = self.gc_deferred
        doc["budget_exhausted"] = self.budget.exhausted
        doc["breaker_opens"] = sum(
            self._breakers[key].opens for key in sorted(self._breakers)
        )
        return doc


def arm_overload(rig_or_modules, config: OverloadConfig) -> Dict[str, ModuleOverload]:
    """Install the protection layer on every module of a rig (or a
    ``{name: module}`` dict). Returns the per-module state. Arming twice
    is an error — the accounting would split across controllers."""
    modules = getattr(rig_or_modules, "modules", rig_or_modules)
    armed: Dict[str, ModuleOverload] = {}
    for name in sorted(modules):
        module = modules[name]
        if module.overload is not None:
            raise ValueError(f"module {name!r} already has overload armed")
        module.overload = ModuleOverload(config, module)
        armed[name] = module.overload
    return armed


def disarm_overload(rig_or_modules) -> None:
    """Remove the protection layer (unarmed modules are untouched)."""
    modules = getattr(rig_or_modules, "modules", rig_or_modules)
    for name in sorted(modules):
        modules[name].overload = None


def admission_totals(rig_or_modules) -> Dict[str, int]:
    """Summed admission counters across every armed module."""
    modules = getattr(rig_or_modules, "modules", rig_or_modules)
    totals: Dict[str, int] = {}
    for name in sorted(modules):
        ov = modules[name].overload
        if ov is None:
            continue
        for key, value in ov.snapshot().items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value
    return totals
