"""Unit tests for the analytic noise model."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.costs import CostModel
from repro.kernels.noise import (
    PeriodicNoise,
    attach_noise_profile,
    kitten_noise_profile,
    linux_noise_profile,
    splitmix64,
)


def test_splitmix64_deterministic_and_spread():
    a = splitmix64(1)
    assert a == splitmix64(1)
    assert splitmix64(2) != a
    # crude uniformity check over the top byte
    tops = {splitmix64(i) >> 56 for i in range(512)}
    assert len(tops) > 100


def test_periodic_noise_events_without_jitter():
    src = PeriodicNoise(1000, 10, tag="t")
    events = src.events_in(0, 5000)
    assert events == [(0, 10), (1000, 10), (2000, 10), (3000, 10), (4000, 10)]


def test_periodic_noise_window_edges():
    src = PeriodicNoise(1000, 10, tag="t")
    assert src.events_in(1000, 1001) == [(1000, 10)]
    assert src.events_in(1001, 2000) == []
    assert src.events_in(500, 400) == []


def test_periodic_noise_phase():
    src = PeriodicNoise(1000, 10, tag="t", phase_ns=300)
    assert src.events_in(0, 2000) == [(300, 10), (1300, 10)]


def test_stolen_in_clips_to_window():
    src = PeriodicNoise(1000, 100, tag="t")
    # event at t=1000 lasts to 1100; window [1050, 2000) overlaps 50ns
    # plus the event at t=2000 not started yet -> excluded
    assert src.stolen_in(1050, 2000) == 50
    # full window
    assert src.stolen_in(0, 3000) == 300


def test_stolen_in_counts_straddling_event():
    src = PeriodicNoise(1_000_000, 500_000, tag="t")
    # event at t=0 runs to 500k; window starting inside it must count the tail
    assert src.stolen_in(100_000, 200_000) == 100_000


def test_jitter_is_deterministic_and_bounded():
    a = PeriodicNoise(1000, 10, tag="t", seed=7, jitter_frac=0.3)
    b = PeriodicNoise(1000, 10, tag="t", seed=7, jitter_frac=0.3)
    ea, eb = a.events_in(0, 100_000), b.events_in(0, 100_000)
    assert ea == eb
    for (start, _d), k in zip(ea, range(len(ea))):
        assert abs(start - k * 1000) <= 300 + 1


def test_different_seeds_differ():
    a = PeriodicNoise(1000, 10, tag="t", seed=1, jitter_frac=0.3)
    b = PeriodicNoise(1000, 10, tag="t", seed=2, jitter_frac=0.3)
    assert a.events_in(0, 50_000) != b.events_in(0, 50_000)


def test_exponential_durations_have_requested_mean():
    src = PeriodicNoise(1000, 500, tag="t", seed=3, exp_duration=True)
    events = src.events_in(0, 20_000_000)
    durs = [d for _s, d in events]
    mean = sum(durs) / len(durs)
    assert 400 <= mean <= 600
    assert max(durs) > 1500  # heavy tail present


def test_validation():
    with pytest.raises(ValueError):
        PeriodicNoise(0, 10, tag="t")
    with pytest.raises(ValueError):
        PeriodicNoise(1000, 10, tag="t", jitter_frac=0.9)


def test_kitten_profile_is_quiet_linux_is_loud():
    costs = CostModel()
    second = 1_000_000_000
    kitten = kitten_noise_profile(costs, seed=1)
    linux = linux_noise_profile(costs, seed=1)
    k_stolen = sum(s.stolen_in(0, 10 * second) for s in kitten)
    l_stolen = sum(s.stolen_in(0, 10 * second) for s in linux)
    k_frac = k_stolen / (10 * second)
    l_frac = l_stolen / (10 * second)
    assert k_frac < 0.005  # Kitten steals well under half a percent
    assert l_frac > 3 * k_frac  # Linux is markedly noisier


def test_attach_noise_profile_covers_all_cores(rig):
    _eng, _node, linux, kitten = rig
    attach_noise_profile(linux, seed=5)
    attach_noise_profile(kitten, seed=5)
    assert set(linux.noise_sources) == {c.core_id for c in linux.cores}
    tags = {s.tag for s in kitten.noise_sources[kitten.cores[0].core_id]}
    assert tags == {"hw-baseline", "smi"}
    tags = {s.tag for s in linux.noise_sources[linux.cores[0].core_id]}
    assert "daemon" in tags and "tick" in tags


# -- the occurrence index against a brute-force reference ----------------------


def reference_events(src, t0, t1):
    """Per-call enumeration: derive every occurrence that can start in the
    window and keep those that do (the definition the index must match)."""
    if t1 <= t0:
        return []
    k_lo = max(0, (t0 - src.phase_ns) // src.period_ns - 1)
    k_hi = (t1 - src.phase_ns) // src.period_ns + 1
    out = []
    for k in range(k_lo, k_hi + 1):
        start, dur = src._occurrence(k)
        if t0 <= start < t1:
            out.append((start, dur))
    return out


def reference_stolen(src, t0, t1):
    total = 0
    for start, dur in reference_events(src, max(0, t0 - src.lookback_ns()), t1):
        lo, hi = max(start, t0), min(start + dur, t1)
        if hi > lo:
            total += hi - lo
    return total


@st.composite
def noise_sources(draw):
    period = draw(st.integers(1, 2_000_000))
    return PeriodicNoise(
        period,
        draw(st.integers(0, 3 * period)),
        tag="t",
        seed=draw(st.integers(0, 2**32)),
        jitter_frac=draw(st.floats(0.0, 0.5)),
        exp_duration=draw(st.booleans()),
        phase_ns=draw(st.integers(-3 * period, 3 * period)),
    )


@st.composite
def query_walks(draw):
    """A source, a start time and a walk of query windows over it."""
    src = draw(noise_sources())
    period = src.period_ns
    t = draw(st.integers(0, 50 * period))
    moves = draw(st.lists(st.tuples(
        st.sampled_from(["forward", "overlap", "backward", "jump"]),
        st.integers(0, 40 * period),
        st.integers(-2 * period, 60 * period),
    ), min_size=1, max_size=25))
    return src, t, moves


#: Jitter-free constant-length sources take the closed-form batch; a
#: negative phase puts the first occurrences before 0 (the clamp).
BULK_WALK = [("forward", 0, 7_000), ("backward", 0, 3_000),
             ("jump", 1_000, 2_500), ("backward", 11_000_000, 40_000),
             ("overlap", 4_000, 500)]


@settings(max_examples=150, deadline=None)
@given(query_walks())
@example((PeriodicNoise(1_000, 300, tag="t", phase_ns=-2_500), 0, BULK_WALK))
@example((PeriodicNoise(1_000, 3_000, tag="t", phase_ns=-999), 0, BULK_WALK))
@example((PeriodicNoise(700, 0, tag="t", phase_ns=-2_100), 0, BULK_WALK))
@example((PeriodicNoise(1_000_000, 3_000, tag="tick"), 5,
          [("forward", 0, 235_000_000), ("jump", 7, 1_000_000)]))
def test_index_matches_reference_enumeration(walk):
    src, t, moves = walk
    period = src.period_ns
    for move, step, width in moves:
        if move == "forward":
            t += step
        elif move == "overlap":
            t += step // 4
        elif move == "backward":
            t -= step
        else:
            t += 10_000 * period + step
        t1 = t + width
        assert src.events_in(t, t1) == reference_events(src, t, t1)
        assert src.stolen_in(t, t1) == reference_stolen(src, t, t1)


def test_index_matches_reference_on_the_linux_profile():
    ms = 1_000_000
    for src in linux_noise_profile(CostModel(), seed=9):
        for t0 in range(0, 3000 * ms, 37 * ms):
            for t1 in (t0 + ms // 3, t0 + 235 * ms, t0 + 900 * ms):
                assert src.stolen_in(t0, t1) == reference_stolen(src, t0, t1)
                assert src.events_in(t0, t1) == reference_events(src, t0, t1)


def test_index_retention_stays_bounded():
    ms = 1_000_000
    tick, daemon, _smi = linux_noise_profile(CostModel(), seed=2)
    assert tick.period_ns == ms
    counts = {"tick": [], "daemon": []}
    for t0 in range(0, 100_000 * ms, ms):
        for tag, src in (("tick", tick), ("daemon", daemon)):
            src.stolen_in(t0, t0 + 235 * ms)
            counts[tag].append(len(src._index.starts))
    # 100k tick occurrences were swept; a few hundred stay live per window.
    assert max(counts["tick"]) <= 4096
    half = len(counts["tick"]) // 2
    assert max(counts["tick"][half:]) <= max(counts["tick"][:half])
    assert max(counts["daemon"]) <= 4096
