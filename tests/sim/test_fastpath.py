"""Fast-path flag plumbing and engine run-boundary semantics."""

import json
import os
import subprocess
import sys

import pytest

from repro.sim import Engine, fastpath
from repro.sim.fastpath import FASTPATH


def _repo_root():
    return os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def test_flags_default_on():
    # A fresh interpreter without REPRO_FASTPATH, whatever this one has.
    code = (
        "import json; from repro.sim.fastpath import FASTPATH; "
        "print(json.dumps(FASTPATH.as_dict()))"
    )
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("REPRO_FASTPATH", None)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, cwd=_repo_root(),
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {
        "engine_slots": True,
        "ipi_batching": True,
        "walk_cache": True,
        "range_vectorize": True,
        "fault_vectorize": True,
    }


def test_disabled_context_restores():
    with fastpath.enabled():  # the pre-context state, set explicitly
        with fastpath.disabled():
            assert not FASTPATH.engine_slots
            assert not FASTPATH.walk_cache
        assert FASTPATH.engine_slots
        assert FASTPATH.walk_cache


def test_configured_single_flag():
    before = FASTPATH.as_dict()
    with fastpath.configured(walk_cache=not before["walk_cache"]):
        assert FASTPATH.walk_cache is not before["walk_cache"]
        # others untouched
        assert FASTPATH.as_dict() == {**before, "walk_cache": FASTPATH.walk_cache}
    assert FASTPATH.as_dict() == before


def test_configured_rejects_unknown_flag():
    with pytest.raises(ValueError, match="unknown fast-path flag"):
        with fastpath.configured(warp_drive=True):
            pass


def test_configured_restores_on_exception():
    before = FASTPATH.ipi_batching
    with pytest.raises(RuntimeError):
        with fastpath.configured(ipi_batching=not before):
            assert FASTPATH.ipi_batching is not before
            raise RuntimeError("boom")
    assert FASTPATH.ipi_batching is before


def test_env_override_disables_all():
    code = (
        "from repro.sim.fastpath import FASTPATH; "
        "print(int(FASTPATH.any_enabled))"
    )
    env = dict(os.environ, REPRO_FASTPATH="0", PYTHONPATH="src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, cwd=_repo_root(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize("fast", [True, False])
def test_run_until_executes_events_exactly_at_boundary(fast):
    """Events scheduled exactly at until_ns run; the clock lands on until_ns."""
    ctx = fastpath.enabled() if fast else fastpath.disabled()
    with ctx:
        eng = Engine()
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


@pytest.mark.parametrize("fast", [True, False])
def test_run_until_past_queue_advances_clock(fast):
    ctx = fastpath.enabled() if fast else fastpath.disabled()
    with ctx:
        eng = Engine()
        eng.call_at(10, lambda: None)
        eng.run(until_ns=500)
        assert eng.now == 500


@pytest.mark.parametrize("fast", [True, False])
def test_processes_identical_under_both_paths(fast):
    """A process mix (timeouts, events, interrupts) ends at the same instant."""
    ctx = fastpath.enabled() if fast else fastpath.disabled()
    with ctx:
        eng = Engine()
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
