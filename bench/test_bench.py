"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench

Checks that every metric BENCHMARK.json names is reported with its
unit, that the correctness gate counts known-bad input as failed, and
that the benchmark refuses to run without the program's sources.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

IMPORT_S = run.load_culsim()

import battery  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {name: dataclasses.replace(w, ops_per_core=30)
        for name, w in battery.SIM_WORKLOADS.items()}


def _units(key):
    return {m["name"]: m["unit"] for m in BENCH[key]}


def _run(workload, trace):
    lines, checks, metrics = run.run_workload(
        workload, seed=3, seconds=0, trace=trace, import_s=IMPORT_S, sizes=TINY
    )
    assert checks.failures == [], checks.failures
    assert checks.attempted > 0
    return lines, metrics


def test_benchmark_json_lists_the_workloads_and_paths():
    assert [w["name"] for w in BENCH["workloads"]] == list(battery.WORKLOADS)
    assert BENCH["paths"] == ["bench"]
    assert any(m["name"] == "setup_s" for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", battery.WORKLOADS)
def test_every_metric_reported_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, metrics = _run(workload, trace)
        assert {k: v["unit"] for k, v in metrics.items()} == _units(key)
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
        if trace == 0:
            assert all(v["value"] > 0 for v in metrics.values())
            text = "\n".join(lines)
            assert "failed_frac" in text and "digest sha256:" in text
            rates = (("explore_states_per_s",) if workload == "explore" else
                     ("snoop_cycles_per_s", "snoop_ops_per_s",
                      "directory_cycles_per_s", "directory_ops_per_s"))
            for rate in rates:
                assert f" {rate} " in text


def test_mutated_tables_fail_the_clean_battery():
    checks = battery.Checks()
    battery.explore_iteration(
        0, checks, mutations=frozenset({"snoopee:M:ReadShared:drop_dirty"})
    )
    assert checks.failures
    assert any("clean oracle not ok" in f for f in checks.failures)
    assert len(checks.failures) / checks.attempted > 0


def test_wrong_final_image_is_a_failure(monkeypatch):
    honest = battery.baseline.DirectorySimulation.coherent_image

    def tampered(self):
        image = honest(self)
        addr = next(iter(image))
        image[addr] = bytes(len(image[addr]))
        return image

    monkeypatch.setattr(battery.baseline.DirectorySimulation, "coherent_image", tampered)
    checks = battery.Checks()
    battery.sim_iteration(TINY["sharing"], 1, checks)
    assert "snoop and directory final images differ" in checks.failures
    assert any("directory model: final image differs" in f for f in checks.failures)


def test_spans_round_trip_and_missing_hooks_are_absent(monkeypatch, tmp_path):
    missing = spans.Hook("verify.gone", "culsim.verify", None, "_no_such_function")
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + (missing,))
    tracer = spans.Tracer()
    tracer.install()
    try:
        battery.sim_iteration(TINY["checked"], 2, battery.Checks())
    finally:
        tracer.uninstall()
    assert tracer.missing == ["verify.gone"]
    summary = tracer.summarize()
    assert summary["sim.snapshot_invariants"]["calls"] > 0
    assert summary["verify.check_swmr"]["calls"] > 0
    for rec in summary.values():
        assert rec["self_s"] <= rec["s"] + 1e-9
    path = tmp_path / "spans.bin"
    tracer.write(path)
    data = spans.read_spans(path)
    assert data["count"] == len(tracer) > 0
    assert all(-1 <= p < i for i, p in enumerate(data["parent"]))
    assert all(s <= e for s, e in zip(data["start"], data["end"]))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sharing", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
