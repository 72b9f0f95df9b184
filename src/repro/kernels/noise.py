"""OS noise models: Kitten's near-silent profile vs. Linux's fullweight one.

Noise sources are *analytic*: each can enumerate its detour events inside
any time window deterministically (a splitmix64 hash keyed by source seed
and occurrence index supplies jitter), so workloads can account for noise
without simulating millions of tick events, and the Selfish Detour
benchmark (Fig. 7) can enumerate exact event lists.

Occurrence ``k`` of a :class:`PeriodicNoise` source is a pure function of
``k``, and starts never decrease with ``k`` (jitter is at most half a
period). Each source therefore answers queries from a bounded, sliding
index of its own occurrences — start/duration lists plus duration prefix
sums, bisected on start — instead of re-deriving every occurrence of
every window. Virtual time mostly moves forward, so the index extends
lazily at its head, drops its dead prefix as queries advance, restarts
when a query jumps past it, and serves a query that falls behind it from
a throwaway index. Every answer is exactly the one the per-occurrence
definition gives, including the fixed :meth:`PeriodicNoise.lookback_ns`
cutoff that bounds how far back a straddling detour is looked for.

Profiles (constants in :class:`~repro.hw.costs.CostModel`):

* **Kitten** — a frequent ≈12 µs hardware baseline plus periodic ≈100 µs
  SMIs; the paper's Fig. 7 bottom panel.
* **Linux** — a 1 kHz timer tick plus background daemon bursts with
  exponentially distributed lengths; the heavy tail drives the Linux-only
  variance of Figs. 8 and 9.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, islice
from typing import Callable, List, Sequence, Tuple

from repro.hw.costs import CostModel


def splitmix64(x: int) -> int:
    """The splitmix64 mixing function: deterministic, well-distributed."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _unit(seed: int, k: int, salt: int) -> float:
    """Deterministic uniform in [0, 1) for occurrence ``k`` of a source."""
    return splitmix64(splitmix64(seed * 0x100000001B3 + salt) ^ k) / 2**64


class NoiseSource:
    """Base interface: enumerate and integrate detours in a window."""

    tag = "noise"

    def events_in(self, t0: int, t1: int) -> List[Tuple[int, int]]:
        """(start_ns, duration_ns) of every detour starting in [t0, t1)."""
        raise NotImplementedError

    def stolen_in(self, t0: int, t1: int) -> int:
        """Nanoseconds stolen from the app in [t0, t1), clipped to it."""
        raise NotImplementedError


class _OccurrenceIndex:
    """Occurrences ``base, base + 1, ...`` of one source, in parallel lists.

    ``cum[i]`` is the summed duration of the entries before ``i`` (up to a
    constant, so dropping a prefix keeps differences valid). ``dmax``
    bounds every duration the index ever held: a detour starting at or
    before ``t - dmax`` has ended by ``t``.
    """

    __slots__ = ("base", "starts", "durs", "cum", "dmax")

    #: Dead entries (behind every recent query) kept before a trim; a trim
    #: also waits until they outnumber the live ones, so it is amortized.
    TRIM_MIN = 512

    def __init__(self, base: int):
        self.reset(base)

    def reset(self, base: int) -> None:
        self.base = base
        self.starts: List[int] = []
        self.durs: List[int] = []
        self.cum: List[int] = [0]
        self.dmax = 0

    def extend(self, k_hi: int,
               batch: Callable[[int, int], Tuple[Sequence[int], Sequence[int]]]
               ) -> None:
        """Derive occurrences up to and including ``k_hi``;
        ``batch(first, last)`` returns their starts and durations."""
        first = self.base + len(self.starts)
        if k_hi < first:
            return
        starts, durs = batch(first, k_hi)
        self.starts.extend(starts)
        self.durs.extend(durs)
        self.cum.extend(islice(accumulate(durs, initial=self.cum[-1]), 1, None))
        self.dmax = max(self.dmax, max(durs))

    def trim(self, k_lo: int) -> None:
        """Drop entries before ``k_lo`` once enough of them are dead."""
        dead = k_lo - self.base
        if dead > self.TRIM_MIN and 2 * dead > len(self.starts):
            del self.starts[:dead]
            del self.durs[:dead]
            del self.cum[:dead]
            self.base = k_lo


class PeriodicNoise(NoiseSource):
    """Detours every ``period_ns`` with optional phase jitter and
    exponentially distributed duration.

    ``duration_ns`` is the mean; with ``exp_duration`` the k-th event's
    length is ``-ln(u_k) * duration_ns`` (heavy tail, daemon-like),
    otherwise it is constant (tick/SMI-like). Phase jitter displaces each
    occurrence by up to ``jitter_frac`` of a period.
    """

    def __init__(self, period_ns: int, duration_ns: int, tag: str,
                 seed: int = 0, jitter_frac: float = 0.0,
                 exp_duration: bool = False, phase_ns: int = 0):
        if period_ns <= 0 or duration_ns < 0:
            raise ValueError("period must be positive, duration non-negative")
        if not 0.0 <= jitter_frac <= 0.5:
            raise ValueError("jitter_frac must be in [0, 0.5]")
        self.period_ns = period_ns
        self.duration_ns = duration_ns
        self.tag = tag
        self.seed = seed
        self.jitter_frac = jitter_frac
        self.exp_duration = exp_duration
        self.phase_ns = phase_ns
        self._index = _OccurrenceIndex(0)
        #: Jitter-free constant-length sources on an integer grid (the
        #: Linux tick) derive occurrences in bulk; the others one by one.
        fixed = not (jitter_frac or exp_duration) and all(
            isinstance(v, int) for v in (period_ns, phase_ns))
        self._batch = self._batch_fixed if fixed else self._batch_each

    def _occurrence(self, k: int) -> Tuple[int, int]:
        start = self.phase_ns + k * self.period_ns
        if self.jitter_frac:
            start += int(
                (2 * _unit(self.seed, k, 1) - 1) * self.jitter_frac * self.period_ns
            )
        if self.exp_duration:
            u = max(_unit(self.seed, k, 2), 1e-12)
            dur = int(-math.log(u) * self.duration_ns)
        else:
            dur = self.duration_ns
        return max(start, 0), dur

    def _batch_each(self, first: int, last: int) -> Tuple[Sequence[int], Sequence[int]]:
        """Occurrences ``first..last``, one :meth:`_occurrence` each."""
        return tuple(zip(*map(self._occurrence, range(first, last + 1))))

    def _batch_fixed(self, first: int, last: int) -> Tuple[Sequence[int], Sequence[int]]:
        """Occurrences ``first..last`` of a source without jitter or
        random durations: :meth:`_occurrence` in closed form."""
        period = self.period_ns
        starts = range(self.phase_ns + first * period,
                       self.phase_ns + (last + 1) * period, period)
        if starts[0] < 0:
            starts = [max(start, 0) for start in starts]
        return starts, [self.duration_ns] * len(starts)

    def _locate(self, t0: int, t1: int) -> Tuple[_OccurrenceIndex, int, int]:
        """``(index, i, j)``: entries ``i..j-1`` of ``index`` are the
        occurrences starting in [t0, t1) among ``k_lo..k_hi``, the
        occurrences that can start there (``t0 < t1``)."""
        k_lo = max(0, (t0 - self.phase_ns) // self.period_ns - 1)
        k_hi = (t1 - self.phase_ns) // self.period_ns + 1
        index = self._index
        if k_lo < index.base:
            index = _OccurrenceIndex(k_lo)
        elif k_lo > index.base + len(index.starts):
            index.reset(k_lo)
        else:
            index.trim(k_lo)
        index.extend(k_hi, self._batch)
        lo, hi = k_lo - index.base, k_hi - index.base + 1
        i = bisect_left(index.starts, t0, lo, hi)
        return index, i, bisect_left(index.starts, t1, i, hi)

    def events_in(self, t0: int, t1: int) -> List[Tuple[int, int]]:
        """(start_ns, duration_ns) of occurrences starting in [t0, t1)."""
        if t1 <= t0:
            return []
        index, i, j = self._locate(t0, t1)
        return list(zip(index.starts[i:j], index.durs[i:j]))

    def stolen_in(self, t0: int, t1: int) -> int:
        """Nanoseconds stolen in [t0, t1): every occurrence starting in
        [t0 - lookback, t1), clipped to the window."""
        if t1 <= t0:
            return 0
        index, a, b = self._locate(max(0, t0 - self.lookback_ns()), t1)
        starts, durs, dmax = index.starts, index.durs, index.dmax
        i = bisect_left(starts, t0, a, b)
        total = 0
        # Started before t0: only the part after t0 counts.
        for n in range(bisect_right(starts, t0 - dmax, a, i), i):
            end = starts[n] + durs[n]
            if end > t0:
                total += min(end, t1) - t0
        # Started inside: whole durations, less any overhang past t1.
        total += index.cum[b] - index.cum[i]
        for n in range(bisect_right(starts, t1 - dmax, i, b), b):
            over = starts[n] + durs[n] - t1
            if over > 0:
                total -= over
        return total

    def lookback_ns(self) -> int:
        """How far before a window a straddling detour is looked for."""
        # Exponential durations are effectively bounded by ~30 means.
        return (30 if self.exp_duration else 2) * max(self.duration_ns, self.period_ns)


def kitten_noise_profile(costs: CostModel, seed: int = 0) -> List[NoiseSource]:
    """Fig. 7's Kitten profile: hardware baseline + SMIs."""
    return [
        PeriodicNoise(
            costs.kitten_baseline_period_ns,
            costs.kitten_baseline_detour_ns,
            tag="hw-baseline",
            seed=seed * 31 + 1,
            jitter_frac=0.2,
        ),
        PeriodicNoise(
            costs.smi_period_ns,
            costs.smi_detour_ns,
            tag="smi",
            seed=seed * 31 + 2,
            jitter_frac=0.05,
        ),
    ]


def linux_noise_profile(costs: CostModel, seed: int = 0) -> List[NoiseSource]:
    """Fullweight Linux: timer ticks plus heavy-tailed daemon bursts."""
    return [
        PeriodicNoise(
            costs.linux_tick_period_ns,
            costs.linux_tick_cost_ns,
            tag="tick",
            seed=seed * 31 + 3,
        ),
        PeriodicNoise(
            costs.linux_daemon_period_ns,
            costs.linux_daemon_burst_ns,
            tag="daemon",
            seed=seed * 31 + 4,
            jitter_frac=0.5,
            exp_duration=True,
        ),
        # SMIs hit regardless of the OS.
        PeriodicNoise(
            costs.smi_period_ns,
            costs.smi_detour_ns,
            tag="smi",
            seed=seed * 31 + 5,
            jitter_frac=0.05,
        ),
    ]


def attach_noise_profile(kernel, seed: int = 0) -> None:
    """Install the kernel-appropriate noise profile on every core it owns."""
    maker = (
        kitten_noise_profile
        if kernel.kernel_type == "kitten"
        else linux_noise_profile
    )
    for core in kernel.cores:
        kernel.noise_sources[core.core_id] = maker(
            kernel.costs, seed=seed * 1009 + core.core_id
        )
