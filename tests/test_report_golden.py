"""Golden `culsim run --model both` reports: exit code and a digest of the
JSON report (without its `config` section) for a fixed matrix of
workloads, working sets, monitors and configurations.

Any change to either model's internals must keep every case identical.
After an intended change to simulated behaviour, rewrite the data file
with `PYTHONPATH=src python tests/test_report_golden.py --regen`; it
prints every column that moves as old -> new, under its case's name.
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from culsim.cli import WORKLOAD_KINDS, main

DATA = Path(__file__).with_name("data") / "report_golden.json"

TINY_CONFIG = """\
cache_size = 64
ways = 2
fifo_depths.writeback = 1
fifo_depths.collision_capacity = 1
latencies.mem_read = 1
"""

# one coherent transaction at a time, in both models
CAPACITY1_CONFIG = "fifo_depths.collision_capacity = 1\n"

# every latency a snoop round trip and a fill cross away from its
# default: a CR moves on `snoop_hop` cycles after its snoop is served
LATENCY_CONFIG = """\
latencies.snoop_hop = 3
latencies.ccu_stage = 2
latencies.mem_read = 7
latencies.l1_hit = 2
"""

# a memory read's data is due the cycle after it issues
MEMREAD1_CONFIG = "latencies.mem_read = 1\n"

# instruction fetches race with stores and loads to the same lines on
# three cores: the icache fill, its invalidation or permitted staleness
# all run. Both models fill a non-coherent icache from memory; with
# coherent ifetch on, the directory refuses the first ifetch (exit 5)
IFETCH_TRACE = """\
0 IF 1000
1 IF 1000
2 IF 1000
0 W 1000 11
1 IF 1000
2 R 1000
1 IF 1010
2 IF 1010
2 W 1010 22
0 IF 1010
1 R 1010
0 IF 1000
1 W 1020 33
2 IF 1020
0 IF 1020
1 IF 1000
2 IF 1010
0 R 1020
"""


def cases():
    out = {}
    for kind in WORKLOAD_KINDS:
        for ws in (8, 2000):
            out[f"{kind}/{ws}"] = ["--workload", kind, "--working-set", str(ws)]
            out[f"{kind}/{ws}/check"] = out[f"{kind}/{ws}"] + ["--check"]
    checked = ["--workload", "uniform_random", "--working-set", "16", "--check"]
    out["uniform_random/16/check/ifetch3"] = checked + ["--cores", "3", "--coherent-ifetch"]
    out["uniform_random/16/check/cores4"] = checked + ["--cores", "4"]
    out["uniform_random/16/check/capacity1"] = checked + ["--config", "CAPACITY1"]
    out["uniform_random/16/check/tiny"] = checked + ["--config", "TINY"]
    latencies = ["--cores", "4", "--check", "--config", "LATENCY"]
    mem_read1 = ["--cores", "4", "--check", "--config", "MEMREAD1"]
    for kind, ws in (("uniform_random", 16), ("producer_consumer", 8), ("migratory", 8)):
        out[f"{kind}/{ws}/check/cores4/latencies"] = [
            "--workload", kind, "--working-set", str(ws)] + latencies
        out[f"{kind}/{ws}/check/cores4/mem_read1"] = [
            "--workload", kind, "--working-set", str(ws)] + mem_read1
    out["uniform_random/2000/check/cores4/mem_read1"] = [
        "--workload", "uniform_random", "--working-set", "2000"] + mem_read1
    traced = ["--trace", "IFETCH_TRACE", "--cores", "3", "--check"]
    out["trace/ifetch/check"] = traced
    out["trace/ifetch/check/coherent"] = traced + ["--coherent-ifetch"]
    # argparse keeps the last --model: the snoop half of the row above
    out["trace/ifetch/check/coherent/snoop"] = traced + ["--coherent-ifetch", "--model", "snoop"]
    return out


CASES = cases()


def run_case(args) -> dict:
    """Exit code and report digest of one case; `report` is None when the
    run exits before it writes one."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "tiny.cfg"
        config.write_text(TINY_CONFIG)
        capacity1 = Path(tmp) / "capacity1.cfg"
        capacity1.write_text(CAPACITY1_CONFIG)
        latency = Path(tmp) / "latency.cfg"
        latency.write_text(LATENCY_CONFIG)
        mem_read1 = Path(tmp) / "mem_read1.cfg"
        mem_read1.write_text(MEMREAD1_CONFIG)
        trace = Path(tmp) / "ifetch.trace"
        trace.write_text(IFETCH_TRACE)
        report = Path(tmp) / "report.json"
        argv = ["run", "--model", "both", "--ops", "200", "--report", str(report)]
        files = {"TINY": str(config), "CAPACITY1": str(capacity1), "LATENCY": str(latency),
                 "MEMREAD1": str(mem_read1), "IFETCH_TRACE": str(trace)}
        argv += [files.get(a, a) for a in args]
        code = main(argv)
        if not report.exists():
            return {"exit": code, "report": None}
        body = json.loads(report.read_text())
    del body["config"]
    text = json.dumps(body, sort_keys=True)
    return {"exit": code, "report": "sha256:" + hashlib.sha256(text.encode()).hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, golden):
    assert run_case(CASES[case]) == golden[case]


def regen() -> None:
    """Rewrite the data file, printing each column that moves."""
    old = json.loads(DATA.read_text()) if DATA.exists() else {}
    rows = {case: run_case(args) for case, args in sorted(CASES.items())}
    for case, row in rows.items():
        before = old.get(case, {})
        for col in sorted(set(row) | set(before)):
            if row.get(col) != before.get(col):
                print(f"{case}: {col}: {before.get(col)} -> {row.get(col)}")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("{\n" + ",\n".join(f"{json.dumps(case)}: {json.dumps(row, sort_keys=True)}"
                                        for case, row in rows.items()) + "\n}\n")


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    regen()
