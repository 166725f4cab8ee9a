"""Every config knob changes a run.

One row per leaf key of `SimConfig().to_dict()`: a small case and an
alternative value that must change the `run --model both` report (its
`config` section aside). A knob without a row fails the key check, so a
new knob has to show an effect before it ships.
"""
import json

import pytest

from culsim.cli import main
from culsim.sim import SimConfig

RANDOM4 = (
    "n_cores = 4\ncache_size = 1024\nways = 2\n",
    ["--workload", "uniform_random", "--working-set", "64", "--ops", "300"],
)
# core 1 fetches the lines core 0 has just dirtied: a coherent icache
# snoops them out of core 0, a non-coherent one reads memory. The snoop
# model alone: the directory has no coherent icache
IFETCH_TRACE = "0 W 0x1000 0x1\n0 W 0x1010 0x2\n1 IF 0x1000\n1 IF 0x1010\n"
IFETCH = ("", ["--trace", "TRACE", "--model", "snoop"])

KNOBS = {
    "n_cores": (RANDOM4, 3),
    "line_size": (RANDOM4, 32),
    "cache_size": (RANDOM4, 2048),
    "ways": (RANDOM4, 4),
    "coherent_ifetch": (IFETCH, "true"),
    "latencies.l1_hit": (RANDOM4, 2),
    "latencies.snoop_hop": (RANDOM4, 2),
    "latencies.ccu_stage": (RANDOM4, 2),
    "latencies.mem_read": (RANDOM4, 10),
    "fifo_depths.writeback": (RANDOM4, 1),
    "fifo_depths.collision_capacity": (RANDOM4, 1),
    "seed": (RANDOM4, 1),
}


def leaf_keys(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def report(tmp_path, case, extra=""):
    config_text, args = case
    config = tmp_path / "knob.cfg"
    config.write_text(config_text + extra)
    trace = tmp_path / "trace.txt"
    trace.write_text(IFETCH_TRACE)
    out = tmp_path / "report.json"
    argv = ["run", "--model", "both", "--config", str(config), "--report", str(out)]
    assert main(argv + [str(trace) if a == "TRACE" else a for a in args]) == 0
    body = json.loads(out.read_text())
    del body["config"]
    return body


def test_every_knob_has_a_row():
    assert sorted(KNOBS) == sorted(leaf_keys(SimConfig().to_dict()))


@pytest.mark.parametrize("key", sorted(KNOBS))
def test_knob_changes_the_report(key, tmp_path, monkeypatch):
    monkeypatch.delenv("CULSIM_SEED", raising=False)
    case, alternative = KNOBS[key]
    assert report(tmp_path, case, f"{key} = {alternative}\n") != report(tmp_path, case)
