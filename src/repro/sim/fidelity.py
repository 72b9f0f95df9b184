"""Fidelity switchboard: columnar-fast vs radix-detailed storage twins.

Virtuoso-style simulators split every subsystem into a *fast functional*
model and a *detailed* one and let runs pick per-component fidelity.
This module is that switch for the repro core, and the simulator's only
one: it selects a *storage layout* twin, bound once at object
construction. (The algorithmic hot paths — slot scheduling, the walk
cache, vectorized range operations, batched IPI rounds and demand
faults — have no switch; see docs/COSTMODEL.md § Fast paths.)

* ``fast`` — structure-of-arrays backing stores: the page table keeps
  one flat PFN column plus one flag-bitmask column (``uint16``) in an
  arena of 512-entry leaf rows, so range operations are single numpy
  slices and flag-only sweeps touch a quarter of the bytes.
* ``detailed`` — hardware-shaped radix trees: PML4 → PDPT → PD → PT
  dicts with per-leaf 512-entry packed-PTE arrays, exactly the walk a
  real MMU performs.

The two modes are **semantics-preserving** twins (docs/COSTMODEL.md):
identical virtual end times, identical counters, byte-identical trace
exports. ``tests/sim/test_fidelity_diff.py`` proves it differentially,
and ``repro lint`` REP005 enforces gate hygiene on ``FIDELITY`` reads.

Flipping ``FIDELITY`` mid-process does *not* retroactively convert live
objects — the mode is read in constructors. Scope a whole scenario
inside :func:`configured` /:func:`detailed` to compare modes.

``REPRO_FIDELITY=fast|detailed`` selects the starting mode (default
``fast``); anything else fails loudly at import.
"""
from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Iterator

MODES = ("fast", "detailed")


@dataclass
class Fidelity:
    """The process-wide fidelity mode, read at object construction."""

    mode: str = "fast"

    @property
    def columnar(self) -> bool:
        """True when constructors should bind structure-of-arrays stores."""
        return self.mode == "fast"

    @property
    def detailed(self) -> bool:
        """True when constructors should bind hardware-shaped stores."""
        return self.mode == "detailed"

    def set_mode(self, mode: str) -> None:
        """Switch modes; affects objects constructed from now on."""
        if mode not in MODES:
            raise ValueError(f"unknown fidelity mode {mode!r} (expected one of {MODES})")
        self.mode = mode


#: The process-wide switchboard. Constructors read it once, so a toggle
#: affects only objects built afterwards (see the module docstring).
FIDELITY = Fidelity()

FIDELITY.set_mode(os.environ.get("REPRO_FIDELITY", "fast").lower())


@contextlib.contextmanager
def configured(mode: str) -> Iterator[Fidelity]:
    """Scoped mode override: set ``mode``, restore on exit.

    >>> with configured("detailed"):
    ...     pass
    """
    saved = FIDELITY.mode
    FIDELITY.set_mode(mode)
    try:
        yield FIDELITY
    finally:
        FIDELITY.mode = saved


@contextlib.contextmanager
def detailed() -> Iterator[Fidelity]:
    """Scoped detailed mode (hardware-shaped radix stores)."""
    with configured("detailed") as f:
        yield f


@contextlib.contextmanager
def fast() -> Iterator[Fidelity]:
    """Scoped fast mode (useful when the env var selected detailed)."""
    with configured("fast") as f:
        yield f
