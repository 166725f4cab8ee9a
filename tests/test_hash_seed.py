"""Outputs do not depend on the process's hash seed.

The protocol enums hash by identity, so no report or verdict may depend
on the iteration order of a set or dict keyed by hash. Each command runs
in a fresh interpreter under two hash seeds and must give the same bytes.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import culsim

SRC = str(Path(culsim.__file__).resolve().parent.parent)
CLI = "import sys; from culsim.cli import main; sys.exit(main(sys.argv[1:]))"


def run_cli(args, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CLI, *args], env=env,
                          capture_output=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("args", [
    ["run", "--model", "both", "--workload", "migratory", "--cores", "4", "--ops", "300",
     "--check", "--report", "{report}"],
    ["verify"],
])
def test_outputs_are_identical_under_two_hash_seeds(tmp_path, args):
    outputs = []
    for hash_seed in (0, 1):
        report = tmp_path / f"report-{hash_seed}.json"
        code, out, err = run_cli([a.format(report=report) for a in args], hash_seed)
        assert code == 0, err.decode()
        outputs.append((out, report.read_bytes() if report.exists() else None))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] or outputs[0][1]  # something was compared
