"""What a run loads and builds before its first cycle: the explorer's
module only with monitors on, and no cache way before its set's first
fill."""
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from culsim import verify
from culsim.baseline import DirectorySimulation
from culsim.cli import WorkloadSpec, gen_workload
from culsim.protocol import CoreOp, OpKind
from culsim.sim import SimConfig, build

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORTS = """
import sys
import culsim, culsim.cli, culsim.sim, culsim.baseline
from culsim import baseline, sim
print("culsim.verify" in sys.modules)
sim.build(sim.SimConfig())
baseline.DirectorySimulation(sim.SimConfig())
print("culsim.verify" in sys.modules)
sim.build(sim.SimConfig(), monitor=True)
print("culsim.verify" in sys.modules)
"""


def test_only_a_monitored_model_loads_the_explorer():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", IMPORTS], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.split() == ["False", "False", "True"]


@pytest.mark.parametrize("model", [build, DirectorySimulation])
def test_monitors_read_the_checks_off_verify_at_each_call(monkeypatch, model):
    # a wrapper set on `verify` after the build sees every check, as the
    # benchmark's span hooks do
    cfg = SimConfig()
    sim = model(cfg, monitor=True)
    calls = Counter()
    for name in ("check_swmr", "check_value"):
        def counted(view, check=getattr(verify, name), name=name):
            calls[name] += 1
            return check(view)
        monkeypatch.setattr(verify, name, counted)
    spec = WorkloadSpec("false_sharing", ops_per_core=50)
    sim.run(gen_workload(spec, cfg.n_cores, cfg.line_size))
    assert calls["check_swmr"] > 0 and calls["check_value"] > 0


def test_a_build_makes_no_way_and_a_first_fill_builds_its_set_only():
    tracemalloc.start()
    try:
        sim = build(SimConfig(n_cores=4, cache_size=1 << 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000  # every way built: about 43 MB
    cache = sim.caches[0]
    assert all(ways is None for c in sim.caches for ways in c.sets + c.isets)
    sim.run([[CoreOp(OpKind.LOAD, 0x1230)], [], [], []])
    built = [i for i, ways in enumerate(cache.sets) if ways is not None]
    set_idx = 0x1230 // cache.line_size % cache.n_sets
    assert built == [set_idx]
    assert cache.index[0x1230] is cache.sets[set_idx][0]  # a fresh set's first fill takes way 0
    assert all(ways is None for ways in cache.isets)
