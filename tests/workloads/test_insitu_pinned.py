"""A small Fig. 8 cell, pinned to its simulated outputs.

Polls skip backoff ticks that cannot hit, STREAM verifies with a NaN
scan, and jitter-free noise derives its occurrences in bulk. None of
that may move a simulated result. The constants below were recorded
before those changes, on both single-node rigs with poll signalling and
recurring attaches: ``(sim_time_s, attach_times_s, stream_times_s,
analytics_faults, engine end ns)`` per (execution, rig, seed).
"""

import pytest

from repro.bench.configs import build_insitu_rig
from repro.hw.costs import MB
from repro.workloads.hpccg import HpccgProblem
from repro.workloads.insitu import InSituConfig

PINNED = {
    ("async", "kitten_linux", 3): (
        0.180293525,
        (0.00121484,) * 8,
        (0.02125675, 0.024465045, 0.02115975, 0.02115675,
         0.02115675, 0.02115675, 0.02115675, 0.02115675),
        0, 200_913_945,
    ),
    ("async", "kitten_linux", 4): (
        0.176770008,
        (0.00121484,) * 8,
        (0.02115675, 0.02115975, 0.02115675, 0.02115675,
         0.02115675, 0.02115675, 0.021353034, 0.02115675),
        0, 197_701_934,
    ),
    ("async", "linux_linux", 3): (
        0.225212089,
        (0.00046756,) * 8,
        (0.024465045, 0.02115975, 0.02115675, 0.02115675,
         0.02115675, 0.02115675, 0.02115975, 0.02115675),
        32768, 261_286_950,
    ),
    ("async", "linux_linux", 4): (
        0.222874793,
        (0.00046756,) * 8,
        (0.02115675, 0.02115675, 0.02115975, 0.02115675,
         0.021350034, 0.02115675, 0.02115675, 0.02115675),
        32768, 258_168_939,
    ),
    ("sync", "kitten_linux", 3): (
        0.31699537,
        (0.00121484,) * 8,
        (0.02125675, 0.02115675, 0.02115675, 0.02115675,
         0.02115975, 0.02115675, 0.02115675, 0.02115675),
        0, 317_054_370,
    ),
    ("sync", "kitten_linux", 4): (
        0.31788337,
        (0.00121484,) * 8,
        (0.02115675, 0.02115675, 0.02115675, 0.021350034,
         0.02115975, 0.02115675, 0.02115675, 0.02115675),
        0, 317_942_370,
    ),
    ("sync", "linux_linux", 3): (
        0.378682623,
        (0.00046756,) * 8,
        (0.024465045, 0.02115675, 0.02115675, 0.02115675,
         0.02115675, 0.02115975, 0.02115675, 0.025083076),
        32768, 386_189_648,
    ),
    ("sync", "linux_linux", 4): (
        0.371327185,
        (0.00046756,) * 8,
        (0.02115675, 0.02115675, 0.02115975, 0.02115675,
         0.02115675, 0.02115675, 0.02115675, 0.02115975),
        32768, 378_834_210,
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda key: "-".join(map(str, key)))
def test_small_fig8_cell_is_pinned(key):
    execution, rig_name, seed = key
    cfg = InSituConfig(
        execution=execution, attach="recurring", signal_mode="poll",
        iterations=40, comm_interval=5, data_bytes=16 * MB,
        problem=HpccgProblem(24, 24, 24),
    )
    rig = build_insitu_rig(rig_name, cfg, seed=seed)
    res = rig["workload"].run()
    assert res.data_marks_verified and res.stream_verified
    got = (res.sim_time_s, tuple(res.attach_times_s),
           tuple(res.stream_times_s), res.analytics_faults,
           rig["engine"].now)
    assert got == PINNED[key]
