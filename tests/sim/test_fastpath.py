"""The hot-path record and the engine's two drain loops.

``Engine.run`` drains the queue inline when no observer is attached and
through :meth:`Engine.step` when one is; the observer decides, not a
flag. Both loops must honour the same run-boundary semantics.
"""

import pytest

from repro.obs.engine_hooks import EngineObserver
from repro.sim import Engine
from repro.sim.fastpath import FASTPATH


def test_flags_default_on():
    # The record perfbench prints on its config line: every hot path on.
    assert FASTPATH.as_dict() == {
        "engine_slots": True,
        "ipi_batching": True,
        "walk_cache": True,
        "range_vectorize": True,
        "fault_vectorize": True,
    }


def _engine(observed):
    return Engine(obs=EngineObserver()) if observed else Engine()


@pytest.mark.parametrize("observed", [False, True])
def test_run_until_executes_events_exactly_at_boundary(observed):
    """Events scheduled exactly at until_ns run; the clock lands on until_ns."""
    eng = _engine(observed)
    fired = []
    eng.call_at(50, fired.append, "early")
    eng.call_at(100, fired.append, "boundary")
    eng.call_at(101, fired.append, "late")
    eng.run(until_ns=100)
    assert fired == ["early", "boundary"]
    assert eng.now == 100
    assert eng.queue_len == 1
    eng.run()
    assert fired == ["early", "boundary", "late"]
    assert eng.now == 101


@pytest.mark.parametrize("observed", [False, True])
def test_run_until_past_queue_advances_clock(observed):
    eng = _engine(observed)
    eng.call_at(10, lambda: None)
    eng.run(until_ns=500)
    assert eng.now == 500


@pytest.mark.parametrize("observed", [False, True])
def test_processes_identical_under_both_paths(observed):
    """A process mix (timeouts, events, interrupts) ends at the same instant."""
    eng = _engine(observed)
    ev = eng.event("go")

    def pinger():
        yield eng.sleep(7)
        ev.trigger("ping")
        yield eng.sleep(5)
        return eng.now

    def waiter():
        got = yield ev
        yield eng.sleep(3)
        return (got, eng.now)

    p1 = eng.spawn(pinger())
    p2 = eng.spawn(waiter())
    eng.run()
    assert p1.result == 12
    assert p2.result == ("ping", 10)
