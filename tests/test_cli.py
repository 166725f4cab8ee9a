import hashlib
import json
import time

import pytest

from culsim import verify
from culsim.cache import ConfigError
from culsim.cli import (
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_VIOLATION,
    WORKLOAD_KINDS,
    TraceError,
    WorkloadSpec,
    gen_workload,
    main,
    parse_trace,
)
from culsim.protocol import OpKind
from culsim.sim import Kernel, Simulation


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


# sha256 over every op's repr((kind value, address, value)) of the grid below
STREAMS_SHA256 = "ed8d37752b34b3a8744c0c23dd1bdd7d4b95ca3491f861bd1c9825e0006c9f0e"


def test_generated_streams_are_pinned():
    # every kind, seed, sharing fraction and core count draws the same
    # ops in the same order as the reference generator did
    digest = hashlib.sha256()
    for kind in WORKLOAD_KINDS:
        for seed in (0, 1):
            for sharing in (0.0, 0.5, 1.0):
                for cores in (2, 4):
                    spec = WorkloadSpec(kind, ops_per_core=300, working_set=40,
                                        sharing_fraction=sharing, seed=seed)
                    for ops in gen_workload(spec, cores, 16):
                        for op in ops:
                            digest.update(repr((op.kind.value, op.address, op.value)).encode())
    assert digest.hexdigest() == STREAMS_SHA256


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


# 300,000 lines of 4,096 bytes: the shared set fits in 32 bits, the four
# private sets above it do not
_WIDE = ("--cores", "4", "--working-set", "300000", "--ops", "10")


@pytest.mark.parametrize("flags, refused", [
    (("--workload", "private"), True),
    (("--workload", "read_mostly"), True),
    (("--workload", "uniform_random"), True),
    (("--workload", "uniform_random", "--sharing", "0"), True),
    (("--workload", "uniform_random", "--sharing", "1"), False),  # shared set only
    (("--workload", "producer_consumer"), False),
    (("--workload", "migratory"), False),
    (("--workload", "false_sharing"), False),
    (("--workload", "producer_consumer", "--working-set", "1048576"), True),
])
def test_a_workload_that_can_draw_past_32_bits_is_refused_before_any_draw(
        tmp_path, capsys, flags, refused):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("line_size = 4096\ncache_size = 65536\n")
    report = tmp_path / "r.json"
    code = run_cli("run", "--config", str(cfg), *_WIDE, *flags, "--report", str(report))
    if refused:
        assert code == EXIT_BAD_INPUT
        assert "outside the physical address range" in capsys.readouterr().err
        assert not report.exists()
    else:
        assert code == EXIT_OK


@pytest.mark.parametrize("kind", ["private", "read_mostly", "uniform_random"])
def test_the_address_bound_depends_on_the_spec_not_the_draw(kind):
    # a spec whose private sets pass 32 bits is refused at any seed, even
    # with no op to draw
    for seed in range(3):
        for ops in (0, 1):
            with pytest.raises(ConfigError, match=f"reach 0x16e360000 for {kind}"):
                gen_workload(WorkloadSpec(kind, ops, 300_000, seed=seed), 4, 4096)


def test_a_large_working_set_builds_no_address_lists(tmp_path):
    report = tmp_path / "r.json"
    start = time.perf_counter()
    code = run_cli("run", "--model", "both", "--workload", "uniform_random",
                   "--working-set", str(1 << 22), "--ops", "10", "--report", str(report))
    assert code == EXIT_OK
    assert time.perf_counter() - start < 0.5


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


@pytest.mark.parametrize("cache_size", [0, -64, -128, 1 << 30])
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


@pytest.mark.parametrize("argv", [("run", "--model", "both", "--ops", "3000"), ("verify",)])
def test_a_report_that_cannot_be_opened_fails_before_anything_runs(tmp_path, capsys,
                                                                   monkeypatch, argv):
    def ran(*args, **kwargs):
        raise AssertionError("a model or the explorer ran before the report was opened")

    monkeypatch.setattr(Kernel, "run", ran)
    monkeypatch.setattr(verify, "oracle_tables", ran)
    path = str(tmp_path / "no" / "dir" / "r.json")
    assert run_cli(*argv, "--report", path) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"culsim: {path}: No such file or directory\n"


@pytest.mark.parametrize("flag", ["--trace", "--config", "--mem-image", "--litmus"])
def test_an_input_file_that_is_not_utf8_exits_5_naming_it(tmp_path, capsys, flag):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"\xff\xfe0 R 0x40\n")
    report = tmp_path / "r.json"
    command = "verify" if flag == "--litmus" else "run"
    assert run_cli(command, flag, str(path), "--report", str(report)) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"culsim: {path}: not UTF-8 text\n"
    assert not report.exists()


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


def test_verify_reports_name_their_cores_mutations_and_budget(tmp_path):
    reports = []
    for argv in ((), ("--cores", "3"), ("--budget", "50000", "--mutate",
                                        "snoopee:M:ReadUnique:keep")):
        path = tmp_path / f"v{len(reports)}.json"
        run_cli("verify", *argv, "--report", str(path))
        reports.append(path.read_text())
    default, three, mutated = map(json.loads, reports)
    assert reports[0] != reports[1]
    assert (default["cores"], default["mutations"], default["budget"]) == (
        2, [], verify.ExploreConfig.state_budget)
    assert three["cores"] == 3
    assert (mutated["mutations"], mutated["budget"]) == (["snoopee:M:ReadUnique:keep"], 50000)


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


@pytest.mark.parametrize("text, message", [
    ("test t\ncore 0: R\n", "litmus line 2: expected 'R <sym> [-> r<k>]', got 'R'"),
    ("test t\ncore 0: W x=1 ; IF\n", "litmus line 2: expected 'IF <sym> [-> r<k>]', got 'IF'"),
    ("test t\ncore 0: R x -> r0 junk\n", "litmus line 2: expected 'R <sym> [-> r<k>]'"),
    ("test t\ncore 0: W =1\n", "litmus line 2: expected 'W <sym>=<val>', got 'W =1'"),
    ("test t\ncore 0: W x=1 junk\n",
     "litmus line 2: expected 'W <sym>=<val>', got 'W x=1 junk'"),
    ("test t\ncore 0: R x ; W\n", "litmus line 2: expected 'W <sym>=<val>', got 'W'"),
    ("test t\ncore 0: W x=\n", "litmus line 2: expected 'W <sym>=<val>', got 'W x='"),
    ("test wide\ncore 0: W x=1 ; W y=2\ncore 1: R z\n",
     "litmus test wide: 3 line addresses, over the explorer bound of 2"),
    ("test long\ncore 0: " + " ; ".join(["R x"] * 7) + "\n",
     "litmus test long: 7 ops on a core, over the explorer bound of 6"),
    ("test t\ninit =1\n", "litmus line 2: expected '<sym>=<val>', got '=1'"),
    ("test t\ncore 0: R x\nforbid =1\n",
     "litmus line 3: expected '<core>:r<k>=<val> or <sym>=<val>', got '=1'"),
    ("test\ncore 0: R x\n", "litmus line 1: expected 'test <name>', got 'test'"),
    ("test t\ncore 0: R x\nforbid 0:r0\n",
     "litmus line 3: expected '<core>:r<k>=<val> or <sym>=<val>', got '0:r0'"),
    ("test t\ninit x\n", "litmus line 2: expected '<sym>=<val>', got 'x'"),
    ("test t\ncore 0: R x\nforbid 0:=1\n",
     "litmus line 3: expected '<core>:r<k>=<val>', got '0:=1'"),
    ("test t\ncore 0: W x=-1\n",
     "litmus line 2: 'W x=-1': value -1 outside the 32-bit word range"),
    ("test t\ncore 0: W x=99999999999999\n",
     "litmus line 2: 'W x=99999999999999': value 99999999999999 outside the 32-bit word range"),
    ("test t\ninit x=0x100000000\n",
     "litmus line 2: 'x=0x100000000': value 4294967296 outside the 32-bit word range"),
    ("test t\ncore 0: R x\nforbid 0:r0=-1\n",
     "litmus line 3: '0:r0=-1': value -1 outside the 32-bit word range"),
    ("test a\ncore 0: R x\ntest a\ncore 0: R x\n", "litmus line 3: a second test named 'a'"),
    ("test t\ncore 0: W x=1\ncore 1: R x -> r0 ; R x -> r0\nforbid 1:r0=1\n",
     "litmus line 3: register 'r0' bound twice on core 1"),
    ("test t\ninit x y=1\ncore 0: R x\n", "litmus line 2: expected '<sym>=<val>', got 'x y=1'"),
    ("test t\ncore 0: R x ; R x\nforbid 0:rr1=1\n",
     "litmus line 3: expected '<core>:r<k>=<val>', got '0:rr1=1'"),
    ("test t\ncore 0: R x ; R x\nforbid 0:1=1\n",
     "litmus line 3: expected '<core>:r<k>=<val>', got '0:1=1'"),
    # an empty clause would match every outcome: the run would exit 1
    ("test t\ncore 0: W x=1\nforbid\n",
     "litmus line 3: expected 'forbid <atom> [<atom>]...', got 'forbid'"),
    ("test t\ncore 0: R x=1\n", "litmus line 2: expected 'R <sym> [-> r<k>]', got 'R x=1'"),
    ("test t\ncore x: R y\n",
     "litmus line 2: expected 'core <id>: <op> [; <op>]...', got 'core x: R y'"),
    ("test t\ncore 0 R x\n",
     "litmus line 2: expected 'core <id>: <op> [; <op>]...', got 'core 0 R x'"),
    # a report entry is known by its test's name alone
    ("test CoWW\ncore 0: W x=1\n", "litmus test CoWW: a built-in test has that name"),
], ids=["R-without-symbol", "IF-without-symbol", "stray-token", "W-without-symbol",
        "W-stray-token", "W-alone", "W-without-value", "three-lines", "seven-ops",
        "init-without-symbol", "forbid-without-symbol", "unnamed-test",
        "forbid-without-value", "init-without-value", "forbid-without-register",
        "W-negative", "W-over-a-word", "init-over-a-word", "forbid-negative",
        "test-named-twice", "register-bound-twice", "init-two-names", "forbid-rr1",
        "forbid-register-without-r", "bare-forbid", "R-symbol-with-equals",
        "core-id-not-a-number", "core-without-colon", "built-in-name"])
def test_verify_refuses_a_bad_litmus_file_before_anything_runs(tmp_path, capsys, text,
                                                               message):
    lit = tmp_path / "bad.litmus"
    lit.write_text(text)
    report = tmp_path / "v.json"
    code = run_cli("verify", "--litmus", str(lit), "--report", str(report))
    assert code == EXIT_BAD_INPUT
    assert message in capsys.readouterr().err
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
