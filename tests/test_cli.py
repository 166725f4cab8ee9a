import json

import pytest

from culsim.cli import (
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_VIOLATION,
    TraceError,
    WorkloadSpec,
    gen_workload,
    main,
    parse_trace,
)
from culsim.protocol import OpKind
from culsim.sim import Simulation


# -- trace parsing -----------------------------------------------------------------

def test_parse_trace_basic():
    streams = parse_trace("0 W 0x40 0x1\n1 R 0x40\n", n_cores=2)
    assert len(streams[0]) == 1 and len(streams[1]) == 1
    op = streams[0][0]
    assert op.kind is OpKind.STORE and op.address == 0x40 and op.value == 1
    assert streams[1][0].kind is OpKind.LOAD


def test_parse_trace_ignores_comments_and_blanks():
    streams = parse_trace("# header\n\n0 IF 0x80\n   \n", n_cores=2)
    assert streams[0][0].kind is OpKind.IFETCH


def test_parse_trace_missing_store_value():
    with pytest.raises(TraceError, match="line 1"):
        parse_trace("0 W 0x40\n", n_cores=2)


def test_parse_trace_bad_core_id():
    with pytest.raises(TraceError, match="out of range"):
        parse_trace("5 R 0x40\n", n_cores=2)


def test_parse_trace_error_carries_column():
    with pytest.raises(TraceError, match="column 3"):
        parse_trace("0 Q 0x40\n", n_cores=2)


def test_parse_trace_rejects_value_on_load():
    with pytest.raises(TraceError, match="only stores"):
        parse_trace("0 R 0x40 0x1\n", n_cores=2)


@pytest.mark.parametrize("value", ["1FFFFFFFF", "100000000", "-5"])
def test_parse_trace_rejects_store_value_outside_32_bits(value):
    with pytest.raises(TraceError, match=f"line 2, column 11: value '{value}' outside"):
        parse_trace(f"0 R 0x40\n1 W 0x40  {value}\n", n_cores=2)


def test_parse_trace_accepts_the_widest_32_bit_value():
    (_, (op,)) = parse_trace("1 W 0x40 FFFFFFFF\n", n_cores=2)
    assert op.value == 0xFFFFFFFF


# -- workload generation ----------------------------------------------------------------

def test_private_workload_addresses_disjoint_across_cores():
    spec = WorkloadSpec("private", ops_per_core=100, working_set=4, seed=2)
    streams = gen_workload(spec, 4, 16)
    per_core = [{op.address for op in ops} for ops in streams]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (per_core[i] & per_core[j])


def test_workloads_are_pure_functions_of_the_spec():
    spec = WorkloadSpec("uniform_random", ops_per_core=50, seed=42)
    assert gen_workload(spec, 2, 16) == gen_workload(spec, 2, 16)
    other = WorkloadSpec("uniform_random", ops_per_core=50, seed=43)
    assert gen_workload(other, 2, 16) != gen_workload(spec, 2, 16)


def test_false_sharing_same_lines_distinct_offsets():
    spec = WorkloadSpec("false_sharing", ops_per_core=20, working_set=2, seed=0)
    streams = gen_workload(spec, 2, 16)
    lines = [{op.address & ~15 for op in ops} for ops in streams]
    offsets = [{op.address & 15 for op in ops} for ops in streams]
    assert lines[0] == lines[1]
    assert not (offsets[0] & offsets[1])


def test_producer_consumer_shape():
    spec = WorkloadSpec("producer_consumer", ops_per_core=10, working_set=2, seed=0)
    streams = gen_workload(spec, 2, 16)
    assert all(op.kind is OpKind.STORE for op in streams[0])
    assert all(op.kind is OpKind.LOAD for op in streams[1])
    assert {op.address for op in streams[0]} == {op.address for op in streams[1]}


def test_ops_per_core_respected():
    spec = WorkloadSpec("migratory", ops_per_core=37, seed=1)
    streams = gen_workload(spec, 3, 16)
    assert all(len(ops) == 37 for ops in streams)


def test_unknown_workload_kind_rejected():
    with pytest.raises(ValueError):
        WorkloadSpec("bogus")


# -- experiment runs ----------------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_run_trace_with_monitors(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text("0 W 0x40 0x1\n1 R 0x40\n0 W 0x40 0x2\n1 R 0x40\n")
    report = tmp_path / "r.json"
    code = run_cli(
        "run", "--model", "snoop", "--trace", str(trace), "--check",
        "--report", str(report),
    )
    assert code == EXIT_OK
    data = json.loads(report.read_text())
    assert data["model"] == "snoop"
    assert data["stats"]["cores"][0]["stores"] == 2
    assert data["config"]["n_cores"] == 2


def test_reports_are_byte_identical_for_equal_inputs(tmp_path):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "--model", "both", "--workload", "migratory", "--ops", "200",
            "--seed", "7"]
    assert run_cli(*args, "--report", str(r1)) == EXIT_OK
    assert run_cli(*args, "--report", str(r2)) == EXIT_OK
    assert r1.read_bytes() == r2.read_bytes()


def test_both_model_report_contains_comparison(tmp_path):
    report = tmp_path / "r.json"
    code = run_cli(
        "run", "--model", "both", "--workload", "producer_consumer",
        "--ops", "400", "--report", str(report),
    )
    assert code == EXIT_OK
    data = json.loads(report.read_text())
    comp = data["comparison"]
    assert comp["final_images_equal"] is True
    assert comp["snoop_cycles"] < comp["directory_cycles"]
    assert float(comp["directory_over_snoop_cycles"]) > 1.0


@pytest.mark.parametrize("source", ["ops", "trace"])
def test_both_models_with_no_ops_report_no_ratio(tmp_path, source):
    if source == "ops":
        flags = ("--ops", "0")
    else:
        trace = tmp_path / "empty.txt"
        trace.write_text("")
        flags = ("--trace", str(trace))
    report = tmp_path / "r.json"
    code = run_cli("run", "--model", "both", *flags, "--report", str(report))
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    comp = doc["comparison"]
    assert comp["snoop_cycles"] == comp["directory_cycles"] == 0
    assert comp["directory_over_snoop_cycles"] is None
    assert comp["final_images_equal"] is True
    # no misses: no average, rather than a zero-cycle one
    assert doc["stats"]["snoop"]["avg_miss_latency"] is None
    assert doc["stats"]["directory"]["avg_miss_latency"] is None


def test_config_file_and_env_seed(tmp_path, monkeypatch):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n_cores = 3\nlatencies.mem_read = 5\n")
    report = tmp_path / "r.json"
    monkeypatch.setenv("CULSIM_SEED", "0x77")
    code = run_cli(
        "run", "--config", str(cfg), "--workload", "uniform_random",
        "--ops", "50", "--report", str(report),
    )
    assert code == EXIT_OK
    data = json.loads(report.read_text())
    assert data["config"]["n_cores"] == 3
    assert data["config"]["latencies"]["mem_read"] == 5
    assert data["config"]["seed"] == 0x77


def test_unparsable_culsim_seed_names_the_variable_and_exits_5(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CULSIM_SEED", "abc")
    report = tmp_path / "r.json"
    code = run_cli("run", "--ops", "10", "--report", str(report))
    assert code == EXIT_BAD_INPUT
    assert capsys.readouterr().err == "culsim: CULSIM_SEED: 'abc' is not an integer\n"
    assert not report.exists()


@pytest.mark.parametrize("env, flags, message", [
    ("-1", (), "CULSIM_SEED: -1 does not fit in 64 bits"),
    ("0x10000000000000000", (), "CULSIM_SEED: 18446744073709551616 does not fit in 64 bits"),
    (None, ("--seed", "-1"), "--seed: -1 does not fit in 64 bits"),
    ("7", ("--seed", "-1"), "--seed: -1 does not fit in 64 bits"),
])
def test_out_of_range_seed_names_its_source_and_exits_5(tmp_path, capsys, monkeypatch,
                                                         env, flags, message):
    if env is None:
        monkeypatch.delenv("CULSIM_SEED", raising=False)
    else:
        monkeypatch.setenv("CULSIM_SEED", env)
    report = tmp_path / "r.json"
    code = run_cli("run", "--ops", "10", *flags, "--report", str(report))
    assert code == EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"culsim: {message}\n"
    assert not report.exists()


def test_bad_config_exits_5(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("bogus_key = 1\n")
    code = run_cli("run", "--config", str(cfg))
    assert code == EXIT_BAD_INPUT
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("cache_size", [0, -64, -128])
def test_config_with_no_cache_set_exits_5(tmp_path, capsys, cache_size):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"cache_size = {cache_size}\nways = 4\nline_size = 16\n")
    report = tmp_path / "r.json"
    code = run_cli("run", "--model", "both", "--config", str(cfg), "--report", str(report))
    assert code == EXIT_BAD_INPUT
    assert "cache_size" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("model", ["directory", "both"])
def test_coherent_ifetch_in_the_directory_exits_5(tmp_path, capsys, monkeypatch, model):
    # refused before either model runs: the snoop model is never entered
    entered = []
    monkeypatch.setattr(Simulation, "run", lambda self, *args, **kw: entered.append(self))
    trace = tmp_path / "t.txt"
    trace.write_text("0 R 0x40\n1 IF 0x84\n")
    report = tmp_path / "r.json"
    code = run_cli("run", "--model", model, "--coherent-ifetch", "--trace", str(trace),
                   "--report", str(report))
    assert code == EXIT_BAD_INPUT
    assert "core 1: ifetch of 0x84" in capsys.readouterr().err
    assert not report.exists()
    assert entered == []


def test_bad_trace_exits_5(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("0 W 0x40\n")
    code = run_cli("run", "--trace", str(trace))
    assert code == EXIT_BAD_INPUT


@pytest.mark.parametrize("flags, message", [
    (("--watchdog", "0"), "watchdog"),
    (("--watchdog", "-5"), "watchdog"),
    (("--working-set", "0"), "working_set"),
    (("--ops", "-3"), "ops_per_core"),
])
def test_out_of_range_run_inputs_exit_5(tmp_path, capsys, flags, message):
    report = tmp_path / "r.json"
    code = run_cli("run", "--model", "both", *flags, "--report", str(report))
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("culsim: ") and message in err
    assert not report.exists()


@pytest.mark.parametrize("address", ["1FFFFFFF0", "100000000", "-10"])
def test_trace_address_outside_physical_range_exits_5(tmp_path, capsys, address):
    trace = tmp_path / "t.txt"
    trace.write_text(f"0 R 0x40\n1 W {address} 0x1\n")
    report = tmp_path / "r.json"
    code = run_cli("run", "--model", "both", "--trace", str(trace), "--report", str(report))
    assert code == EXIT_BAD_INPUT
    # refused while parsing, before either model runs
    assert (f"trace line 2, column 5: address '{address}' outside the physical address range"
            in capsys.readouterr().err)
    assert not report.exists()


def test_trace_store_value_outside_32_bits_exits_5(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("0 W 0x40 1FFFFFFFF\n")
    report = tmp_path / "r.json"
    code = run_cli("run", "--model", "both", "--trace", str(trace), "--report", str(report))
    assert code == EXIT_BAD_INPUT
    assert "trace line 1, column 10: value '1FFFFFFFF' outside" in capsys.readouterr().err
    assert not report.exists()


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--model", "nonsense")
    assert exc.value.code == 2


def test_serialize_is_no_option_and_exits_2(capsys):
    # one transaction at a time is a config: fifo_depths.collision_capacity = 1
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--serialize")
    assert exc.value.code == 2
    assert "unrecognized arguments: --serialize" in capsys.readouterr().err


def test_a_memory_read_longer_than_the_watchdog_is_no_deadlock(tmp_path):
    # each miss waits 20,000 cycles on memory with nothing else due: the
    # wait is scheduled, so the default 10,000-cycle watchdog must not trip
    cfg = tmp_path / "slow.cfg"
    cfg.write_text("latencies.mem_read = 20000\n")
    report = tmp_path / "r.json"
    code = run_cli("run", "--model", "both", "--ops", "5", "--config", str(cfg),
                   "--report", str(report))
    assert code == EXIT_OK
    stats = json.loads(report.read_text())["stats"]
    assert (stats["snoop"]["cycles"], stats["directory"]["cycles"]) == (100_035, 100_041)


def test_mem_image_preload(tmp_path):
    img = tmp_path / "mem.txt"
    img.write_text("1000 " + " ".join(["5a"] * 16) + "\n")
    trace = tmp_path / "t.txt"
    trace.write_text("0 R 0x1000\n")
    report = tmp_path / "r.json"
    code = run_cli("run", "--trace", str(trace), "--mem-image", str(img),
                   "--report", str(report))
    assert code == EXIT_OK
    data = json.loads(report.read_text())
    assert data["final_memory"]["0x1000"] == "5a" * 16


@pytest.mark.parametrize("flag, missing", [
    ("--trace", "missing.txt"),
    ("--config", "missing.cfg"),
    ("--mem-image", "missing.img"),
    ("--litmus", "missing.litmus"),
    ("--report", "no/dir/r.json"),
])
def test_a_file_that_cannot_be_opened_exits_5_naming_it(tmp_path, capsys, flag, missing):
    path = str(tmp_path / missing)
    if flag == "--litmus":
        argv = ("verify", flag, path, "--report", str(tmp_path / "v.json"))
    else:
        argv = ("run", "--ops", "5", flag, path)
    assert run_cli(*argv) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err == f"culsim: {path}: No such file or directory\n"


# -- verify runs ------------------------------------------------------------------------------

def test_verify_default_passes(tmp_path):
    report = tmp_path / "v.json"
    code = run_cli("verify", "--report", str(report))
    assert code == EXIT_OK
    data = json.loads(report.read_text())
    assert data["oracle"]["ok"] is True
    assert all(e["forbidden_seen"] == 0 for e in data["litmus"])


def test_verify_with_mutation_exits_1(tmp_path, capsys):
    report = tmp_path / "v.json"
    code = run_cli(
        "verify", "--mutate", "snoopee:M:ReadUnique:keep", "--report", str(report)
    )
    assert code == EXIT_VIOLATION
    data = json.loads(report.read_text())
    assert data["oracle"]["ok"] is False
    err = capsys.readouterr().err
    assert "counterexample" in err
    # each traced counterexample names the battery program it came from
    for v in data["oracle"]["violations"]:
        where = v["program"]
        assert sorted(where) == ["coherent_ifetch", "cores", "dcache_capacity", "index"]
        if v["trace"]:
            assert (f"counterexample ({v['kind']}) in battery program {where['index']} "
                    f"({where['cores']} cores, ") in err
    assert all("program" not in v for e in data["litmus"] for v in e["violations"])


def test_verify_four_cores_same_verdict(tmp_path):
    report = tmp_path / "v.json"
    code = run_cli("verify", "--cores", "4", "--report", str(report))
    assert code == EXIT_OK


def test_verify_external_litmus_file(tmp_path):
    lit = tmp_path / "extra.litmus"
    lit.write_text(
        "test extra-corw\n"
        "core 0: R x -> r0 ; W x=1\n"
        "forbid 0:r0=1\n"
    )
    report = tmp_path / "v.json"
    code = run_cli("verify", "--litmus", str(lit), "--report", str(report))
    assert code == EXIT_OK
    data = json.loads(report.read_text())
    assert any(e["name"] == "extra-corw" for e in data["litmus"])


def test_verify_litmus_forbid_on_an_unconfigured_core_exits_5(tmp_path, capsys):
    lit = tmp_path / "extra.litmus"
    lit.write_text("test far\ncore 0: W x=1\ncore 1: R x\nforbid 3:r0=1\n")
    code = run_cli("verify", "--litmus", str(lit), "--report", str(tmp_path / "v.json"))
    assert code == EXIT_BAD_INPUT
    assert "litmus test far: core(s) [3] outside the 2 configured cores" in capsys.readouterr().err


def test_verify_litmus_forbid_on_a_register_no_op_reads_exits_5(tmp_path, capsys):
    lit = tmp_path / "unread.litmus"
    lit.write_text("test unread\ncore 0: W x=1\ncore 1: R x\nforbid 1:r7=5\n")
    report = tmp_path / "v.json"
    code = run_cli("verify", "--litmus", str(lit), "--report", str(report))
    assert code == EXIT_BAD_INPUT
    assert "litmus test unread: register(s) ['1:r7'] read by no op" in capsys.readouterr().err
    assert not report.exists()


def test_verify_litmus_forbid_on_an_address_nothing_uses_exits_5(tmp_path, capsys):
    lit = tmp_path / "unused.litmus"
    lit.write_text("test unused\ncore 0: W x=1\ncore 1: R x\nforbid y=0\n")
    report = tmp_path / "v.json"
    code = run_cli("verify", "--litmus", str(lit), "--report", str(report))
    assert code == EXIT_BAD_INPUT
    assert ("litmus test unused: address(es) ['0x110'] named by no op or init"
            in capsys.readouterr().err)
    assert not report.exists()


@pytest.mark.parametrize("cores", ["1", "5"])
def test_verify_rejects_core_count_outside_bounds(tmp_path, capsys, cores):
    report = tmp_path / "v.json"
    code = run_cli("verify", "--cores", cores, "--report", str(report))
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("culsim: ") and err.count("\n") == 1
    assert not report.exists()


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_verify_budget_below_one_exits_5(tmp_path, capsys, budget):
    report = tmp_path / "v.json"
    code = run_cli("verify", "--budget", budget, "--report", str(report))
    assert code == EXIT_BAD_INPUT
    assert f"state_budget: {budget} must be >= 1" in capsys.readouterr().err
    assert not report.exists()


def test_verify_budget_bounds_the_oracle_battery(tmp_path):
    report = tmp_path / "v.json"
    code = run_cli("verify", "--budget", "100", "--report", str(report))
    assert code == EXIT_BUDGET
    data = json.loads(report.read_text())
    assert data["oracle"]["ok"] is False
    assert any(v["kind"] == "budget" for v in data["oracle"]["violations"])
