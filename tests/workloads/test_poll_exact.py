"""Polling that skips ticks which cannot hit is exact.

``poll_u64_at_least`` jumps over every backoff tick strictly before
``Engine.quiet_until()``. The loop it replaced re-read the word at every
tick; it is kept here as the reference. Both loops must produce the same
resume log — every process's observable wakeup, as ``(now, name,
what)``, in order — for any schedule of writers, bystanders and run
slices.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.costs import PAGE_4K
from repro.hw.memory import PhysicalMemory
from repro.sim import Engine
from repro.sim.engine import SimError
from repro.workloads.insitu import (
    POLL_CAP_NS,
    POLL_START_NS,
    poll_u64_at_least,
    read_u64,
    write_u64,
)


def reference_poll(engine, view, offset, target):
    """The loop before tick skipping: one read per backoff tick."""
    interval = POLL_START_NS
    while read_u64(view, offset) < target:
        yield engine.sleep(interval)
        interval = min(interval * 2, POLL_CAP_NS)


def ticks(start, count=24):
    """The first ``count`` tick times of a poll that starts at ``start``."""
    out, t, interval = [], start, POLL_START_NS
    for _ in range(count):
        t += interval
        out.append(t)
        interval = min(interval * 2, POLL_CAP_NS)
    return out


WORDS = (0, 8)
#: Past every tick and write a scenario draws.
END_NS = 40_000_000


def run_scenario(poll, scenario):
    """Drive one scenario with ``poll``; return the resume log."""
    eng = Engine()
    view = PhysicalMemory([PAGE_4K * 4]).map_region(np.arange(1))
    log = []

    def writer(name, at, word, value):
        yield eng.sleep(at - eng.now)
        write_u64(view, WORDS[word], value)
        log.append((eng.now, name, "write", value))

    def bystander(name, times):
        for at in times:
            yield eng.sleep(at - eng.now)
            log.append((eng.now, name, "wake"))

    def poller(name, at, polls):
        yield eng.sleep(at - eng.now)
        for word, target in polls:
            yield from poll(eng, view, WORDS[word], target)
            log.append((eng.now, name, "hit", read_u64(view, WORDS[word])))

    # closing writes satisfy every poll, so each mode drains the queue
    closers = [("writer", (END_NS, word, 99)) for word in range(len(WORDS))]
    for i, (kind, args) in enumerate(scenario["procs"] + closers):
        fn = {"writer": writer, "bystander": bystander, "poller": poller}[kind]
        eng.spawn(fn(f"{kind}{i}", *args), name=f"{kind}{i}")

    mode = scenario["mode"]
    if mode == "step":
        while eng.step():
            pass
    else:  # slices, with driver-side writes between them
        for until, word, value in scenario["slices"]:
            eng.run(until_ns=until)
            log.append((eng.now, "driver", "slice"))
            if value is not None:
                write_u64(view, WORDS[word], value)
        eng.run()
    log.append((eng.now, "end"))
    return log


def assert_same(scenario):
    want = run_scenario(reference_poll, scenario)
    assert run_scenario(poll_u64_at_least, scenario) == want


@st.composite
def times(draw, starts):
    """A time that is either arbitrary or exactly on a poller's tick."""
    if starts and draw(st.booleans()):
        return draw(st.sampled_from(ticks(draw(st.sampled_from(starts)))))
    return draw(st.integers(0, 4_000_000))


@st.composite
def scenarios(draw):
    starts = draw(st.lists(st.integers(0, 50_000), min_size=1, max_size=3))
    procs = []
    for start in starts:
        polls = draw(st.lists(
            st.tuples(st.integers(0, 1), st.integers(1, 4)),
            min_size=1, max_size=3))
        procs.append(("poller", (start, polls)))
    for _ in range(draw(st.integers(0, 6))):
        procs.append(("writer", (
            draw(times(starts)), draw(st.integers(0, 1)),
            draw(st.integers(0, 5)))))
    for _ in range(draw(st.integers(0, 2))):
        stamps = sorted(draw(st.lists(times(starts), min_size=1, max_size=4)))
        procs.append(("bystander", (stamps,)))
    draw(st.randoms(use_true_random=False)).shuffle(procs)
    mode = draw(st.sampled_from(["run", "step", "slices"]))
    cuts = sorted(set(draw(st.lists(times(starts), max_size=4))))
    if mode != "slices":
        cuts = []
    slices = [
        (cut, draw(st.integers(0, 1)),
         draw(st.one_of(st.none(), st.integers(0, 5))))
        for cut in cuts
    ]
    return {"procs": procs, "mode": mode, "slices": slices}


#: A write that lands exactly on the poller's third tick: the tick equal
#: to the horizon must be kept, after the writer (queued earlier).
ON_TICK = {
    "procs": [("writer", (7_000, 0, 1)), ("poller", (0, [(0, 1)]))],
    "mode": "run", "slices": [],
}
#: A driver write between slices while the queue head lies far beyond the
#: slice: skipping must stop at the run's ``until_ns``.
SLICED = {
    "procs": [("bystander", ([1_000_000],)), ("poller", (0, [(0, 1)]))],
    "mode": "slices", "slices": [(5_000, 0, 1)],
}
#: Two pollers on one word, a write below target first, then the hit.
SHARED = {
    "procs": [
        ("poller", (0, [(0, 2)])), ("poller", (2_000, [(0, 1), (1, 1)])),
        ("writer", (15_000, 0, 1)), ("writer", (31_000, 0, 2)),
        ("bystander", ([3_000, 63_000],)), ("writer", (1_023_000, 1, 3)),
    ],
    "mode": "step", "slices": [],
}


@settings(max_examples=300, deadline=None)
@given(scenarios())
@example(ON_TICK)
@example(SLICED)
@example(SHARED)
def test_skipping_poll_matches_reference(scenario):
    assert_same(scenario)


def test_poll_skips_ticks_before_the_horizon():
    """A lone poller with a far writer resumes once, not once per tick."""
    eng = Engine()
    view = PhysicalMemory([PAGE_4K]).map_region(np.arange(1))
    resumes = []

    def writer():
        yield eng.sleep(900_000_000)
        write_u64(view, 0, 1)

    def counted(gen):
        value = None
        while True:
            try:
                target = gen.send(value)
            except StopIteration:
                return
            value = yield target
            resumes.append(eng.now)

    eng.spawn(writer())
    eng.spawn(counted(poll_u64_at_least(eng, view, 0, 1)))
    eng.run()
    # the reference loop reads ~900 times; this one resumes once
    assert len(resumes) == 1
    assert resumes[0] == next(t for t in ticks(0, 2000) if t >= 900_000_000)


# -- the lookahead contract ------------------------------------------------


def _parked_poller():
    """An engine stepped until a poller is parked on a far horizon."""
    eng = Engine()
    view = PhysicalMemory([PAGE_4K]).map_region(np.arange(1))

    def far():
        yield eng.sleep(1_000_000)

    eng.spawn(far())
    eng.spawn(poll_u64_at_least(eng, view, 0, 1))
    eng.step()  # far() queues its wakeup at 1 ms
    eng.step()  # the poller is granted 1 ms and sleeps past it
    assert eng.now == 0
    return eng


@pytest.mark.parametrize("reenter", ["step", "run"])
def test_event_below_granted_horizon_is_refused(reenter):
    eng = _parked_poller()
    eng.call_at(5, lambda: None)
    with pytest.raises(SimError, match=r"queued at 5 ns.*horizon 1000000 ns"):
        getattr(eng, reenter)()


def test_event_at_granted_horizon_is_allowed():
    eng = _parked_poller()
    eng.call_at(1_000_000, lambda: None)
    eng.run(until_ns=2_000_000)
    assert eng.now == 2_000_000


def test_quiet_until_is_capped_by_the_run_horizon():
    eng = Engine()
    seen = []

    def probe():
        seen.append(eng.quiet_until())
        yield eng.sleep(0)

    def far():
        yield eng.sleep(10_000)

    assert eng.quiet_until() is None
    eng.spawn(far())
    eng.run(until_ns=0)  # far() is now parked at 10 us
    eng.spawn(probe())
    eng.run(until_ns=4_000)
    eng.spawn(probe())
    eng.run()
    assert seen == [4_000, 10_000]
    assert eng.quiet_until() is None
