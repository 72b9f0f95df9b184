"""The benchmark's own tests, at tiny scale.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import layertrace  # noqa: E402
import run as bench  # noqa: E402
import scenarios  # noqa: E402

#: Tiny scale: a few rounds per pass, two passes plus the probe.
SCALE = 0.03
SECONDS = 0.01

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def invoke(workload, seed=1, trace=False):
    """Run the benchmark in-process; returns (exit code, report, result)."""
    out = io.StringIO()
    code = bench.run(workload, seed, SECONDS, trace, scale=SCALE, out=out)
    text = out.getvalue()
    result = json.loads(text.strip().splitlines()[-1])
    return code, text, result


def test_spec_follows_the_contract_and_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert sorted(WORKLOADS) == sorted(scenarios.WORKLOADS)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert [(n, u) for n, u in bench.END_TO_END] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        bench._per_layer_catalogue()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_reported_with_its_unit(workload):
    code, text, result = invoke(workload)
    assert code == 0, text
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in expected.items():
        assert re.search(rf"^  {re.escape(name)} .* {re.escape(unit)}$", text,
                         re.M), name
    assert "ops_failed_frac" in text and "sim_digest" in text
    if workload == "attach_bulk":
        assert "model_err_pct" in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_reported_and_zero_predictions_hold(
        workload):
    code, text, result = invoke(workload, trace=True)
    assert code == 0, text
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected

    def value(name):
        return metrics[name]["value"]

    assert value("sim.events") > 0 and value("xemem.get.calls") > 0
    assert (value("virt.entries_inserted") > 0) == (workload == "attach_bulk")
    assert (value("kernels.noise.calls") > 0) == (workload == "insitu_composed")
    assert (value("xemem.overload.offered") > 0) == (
        workload == "serve_overload")
    if workload != "serve_overload":
        assert all(value(n) == 0 for n in expected if n.startswith("faults."))
    assert value("bench.trace_coverage") == pytest.approx(1.0, abs=1e-6)


def test_virtual_clock_outputs_repeat_on_one_seed_and_move_with_the_seed():
    sim = [m for m, _ in bench.END_TO_END if m.startswith("sim_")]
    runs = [invoke("serve_sessions", seed=s) for s in (4, 4, 5)]

    def digest(text):
        return re.search(r"sim_digest\s+([0-9a-f]{64})", text).group(1)

    first, again, other = runs
    assert [first[2]["metrics"][m] for m in sim] == \
        [again[2]["metrics"][m] for m in sim]
    assert digest(first[1]) == digest(again[1])
    assert digest(first[1]) != digest(other[1])


def test_a_corrupted_payload_trips_the_gate(monkeypatch):
    stamp = scenarios._stamp

    def corrupt(view, seed, seg, gen, npages):
        stamp(view, seed, seg, gen + 1, npages)

    monkeypatch.setattr(scenarios, "_stamp", corrupt)
    code, text, result = invoke("attach_bulk")
    assert code == 1
    assert result["correct"] is False
    assert "CHECK FAILED payload.read_back" in text


def test_a_mismatched_digest_trips_the_gate(monkeypatch):
    passes = iter(range(1000))
    monkeypatch.setattr(scenarios.Ledger, "digest",
                        lambda self: f"pass-{next(passes)}")
    code, text, result = invoke("serve_sessions")
    assert code == 1 and result["correct"] is False
    assert "CHECK FAILED digest.same_seed" in text


def test_an_unhooked_layer_trips_the_trace_health_check(monkeypatch):
    wrap = layertrace.LayerTracer.wrap

    def skip_virt(self, owner, attr, layer, name, **kw):
        if layer != "virt":
            wrap(self, owner, attr, layer, name, **kw)

    monkeypatch.setattr(layertrace.LayerTracer, "wrap", skip_virt)
    code, text, _ = invoke("attach_bulk", trace=True)
    assert code == 1
    assert "CHECK FAILED trace.busy.virt" in text


def test_gate_names_each_failed_check():
    class Fake:
        checks = [("admission.ledger_identity", False, "offered=3 != 2")]
        ok, failed, started, settled = 5, 0, 5, 5
        digest = prefix_digest = "a"

    failures = bench.gate("serve_overload", [Fake(), Fake()], "a", [])
    names = [f.split(":")[0] for f in failures]
    assert names == ["admission.ledger_identity", "admission.ledger_identity",
                     "digest.seed_sensitive"]


def test_exits_nonzero_without_a_result_when_the_simulator_is_missing(
        tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "attach_bulk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
