import json

import pytest

from culsim.baseline import DirectorySimulation
from culsim.cache import ConfigError
from culsim.cli import WorkloadSpec, gen_workload, main
from culsim.protocol import CoreOp, LineState, OpKind
from culsim.sim import (
    CoherenceViolation,
    DeadlockError,
    FifoDepths,
    Latencies,
    SimConfig,
    build,
    parse_config,
)
from culsim import protocol, verify

from test_baseline import fill_the_fifo, watched_fills


def loads(addr, n=1):
    return [CoreOp(OpKind.LOAD, addr) for _ in range(n)]


def stores(addr, values):
    return [CoreOp(OpKind.STORE, addr, value=v) for v in values]


# -- configuration -----------------------------------------------------------

def test_build_default_topology():
    sim = build(SimConfig())
    assert len(sim.caches) == 2
    assert sim.cycle == 0
    assert all(not list(c.valid_lines()) for c in sim.caches)


def test_bad_geometry_reports_field():
    with pytest.raises(ConfigError, match="cache_size"):
        build(SimConfig(ways=3, cache_size=8192, line_size=16))


def test_core_count_range():
    with pytest.raises(ConfigError, match="n_cores"):
        build(SimConfig(n_cores=5))
    with pytest.raises(ConfigError, match="n_cores"):
        build(SimConfig(n_cores=1))


def test_parse_config_round_trip():
    cfg = parse_config(
        "n_cores = 4\n"
        "line_size = 32\n"
        "# comment\n"
        "coherent_ifetch = true\n"
        "latencies.mem_read = 7\n"
        "fifo_depths.writeback = 2\n"
        "seed = 0xDEAD\n"
    )
    assert cfg.n_cores == 4
    assert cfg.line_size == 32
    assert cfg.coherent_ifetch
    assert cfg.latencies.mem_read == 7
    assert cfg.fifo_depths.writeback == 2
    assert cfg.seed == 0xDEAD


@pytest.mark.parametrize("cache_size", [0, -64, -128])
def test_parse_config_rejects_a_cache_without_a_set(cache_size):
    # 0 and negative multiples of ways*line_size pass the divisibility check
    with pytest.raises(ConfigError, match="cache_size"):
        parse_config(f"cache_size = {cache_size}\nways = 4\nline_size = 16\n")


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("cache_sz = 1024\n")
    with pytest.raises(ConfigError, match="latencies.bogus"):
        parse_config("latencies.bogus = 1\n")
    with pytest.raises(ConfigError, match="unknown key 'latencies.mem_write'"):
        parse_config("latencies.mem_write = 20\n")  # removed: it never changed a cycle
    with pytest.raises(ConfigError, match="unknown key 'fifo_depths.handshake'"):
        parse_config("fifo_depths.handshake = 2\n")  # removed: it never changed a cycle


# -- basic runs -----------------------------------------------------------------

def test_idle_step_only_advances_time():
    sim = build(SimConfig())
    sim.step()
    assert sim.cycle == 1
    assert sim.stats.cores[0].ops == 0


def test_empty_streams_finish_immediately():
    sim = build(SimConfig())
    stats = sim.run([[], []])
    assert stats.cycles <= 2
    assert all(c.ops == 0 for c in stats.cores)


def test_single_load_cold_cache():
    sim = build(SimConfig(), monitor=True)
    stats = sim.run([loads(0x100), []])
    cs = stats.cores[0]
    assert (cs.ops, cs.misses, cs.hits) == (1, 1, 0)
    assert stats.mem_reads == 1
    assert sim.caches[0].lookup(0x100).state is LineState.EXCLUSIVE


def test_load_hit_latency_is_l1_hit():
    sim = build(SimConfig(latencies=Latencies(l1_hit=3)))
    # warm the line first
    sim.run([loads(0x100), []])
    port = sim.ports[0]
    port.stream.extend(loads(0x100))
    start = sim.cycle
    # dispatch next cycle's phase and execute until serviced
    while port.current is None:
        sim.step()
    issue_cycle = sim.cycle  # op was dispatched at end of previous cycle
    sim.step()  # op wins the port here
    assert port.ready_at == issue_cycle + 3


def test_determinism_identical_runs():
    def one():
        sim = build(SimConfig(n_cores=3))
        s0 = stores(0x100, [1, 2, 3]) + loads(0x200, 2)
        s1 = loads(0x100, 3) + stores(0x200, [7])
        s2 = loads(0x100, 2) + loads(0x200, 2)
        stats = sim.run([s0, s1, s2])
        return stats.to_dict(), sim.coherent_image()

    assert one() == one()


def test_hits_plus_misses_equals_ops():
    sim = build(SimConfig())
    stats = sim.run([stores(0x100, [1, 2, 3, 4]), loads(0x100, 4)])
    for cs in stats.cores:
        assert cs.hits + cs.misses == cs.loads + cs.stores + cs.ifetches


# -- coherence behavior -----------------------------------------------------------

def test_cache_to_cache_transfer_avoids_memory():
    sim = build(SimConfig(), monitor=True)
    producer = stores(0x200, [5, 6, 7, 8])
    consumer = loads(0x200, 4)
    stats = sim.run([producer, consumer])
    assert stats.mem_reads == 1  # initial fill only
    assert stats.cache_to_cache_transfers >= 1
    assert stats.cores[1].snoop_served_misses >= 1


def test_racing_upgrades_stay_coherent_under_monitoring():
    sim = build(SimConfig(n_cores=4), monitor=True)
    streams = [
        loads(0x300) + stores(0x300, [c + 1]) + loads(0x300)
        for c in range(4)
    ]
    stats = sim.run(streams)
    view = sim.snapshot_invariants()
    assert not verify.check_swmr(view)
    assert not verify.check_value(view)


@pytest.mark.parametrize(
    "kind, working_set, cores, ifetch, ops, seed",
    [
        ("false_sharing", 8, 4, False, 40, 0),
        ("false_sharing", 8, 4, False, 40, 1),
        ("false_sharing", 8, 4, False, 40, 2),
        ("uniform_random", 64, 3, True, 250, 0),
    ],
)
def test_monitor_counts_dirty_data_in_flight(kind, working_set, cores, ifetch, ops, seed):
    # A ReadUnique that has already taken dirty data from the Owned holder
    # while a Shared sharer is not yet snooped leaves the line clean in
    # every cache but newer than memory; the CD beats or the transaction
    # buffer carry dirty responsibility meanwhile.
    cfg = SimConfig(n_cores=cores, coherent_ifetch=ifetch, seed=seed)
    spec = WorkloadSpec(kind=kind, ops_per_core=ops, working_set=working_set, seed=seed)
    sim = build(cfg, monitor=True)
    stats = sim.run(gen_workload(spec, cores, cfg.line_size))
    assert sum(c.ops for c in stats.cores) == cores * ops


def test_writeback_on_dirty_eviction():
    cfg = SimConfig(cache_size=64, ways=1, line_size=16)  # 4 sets, direct mapped
    sim = build(cfg, monitor=True)
    stride = 4 * 16  # same set
    ops = stores(0x100, [1]) + stores(0x100 + stride, [2]) + loads(0x100)
    stats = sim.run([ops, []])
    assert stats.cores[0].writebacks >= 1
    assert stats.mem_writes >= 1
    assert sim.coherent_image()[0x100][:4] == (1).to_bytes(4, "little")


def test_snapshot_empty_on_idle_system():
    sim = build(SimConfig())
    assert sim.snapshot_invariants() == {}


def test_snapshot_after_exclusive_fill():
    sim = build(SimConfig())
    sim.run([loads(0x100), []])
    view = sim.snapshot_invariants()
    copies, mem_value = view[0x100]
    assert [(c.core, c.state) for c in copies] == [(0, LineState.EXCLUSIVE)]
    assert mem_value == bytes(16)


# -- pipelining and serialization ----------------------------------------------------

def test_distinct_lines_pipeline_faster_than_serialized():
    def cycles(capacity):
        sim = build(SimConfig(fifo_depths=FifoDepths(collision_capacity=capacity)))
        return sim.run([loads(0x100), loads(0x200)]).cycles

    assert cycles(8) < cycles(1)


def test_same_line_transactions_never_overlap():
    sim = build(SimConfig(n_cores=4), monitor=True)
    streams = [stores(0x400, [c]) for c in range(4)]
    sim.run(streams)  # the monitor asserts per-line exclusion every cycle


# -- ifetch ---------------------------------------------------------------------------

def test_coherent_ifetch_served_from_writer_cache():
    sim = build(SimConfig(coherent_ifetch=True), monitor=True)
    stats = sim.run([stores(0x500, [0xAB]), [CoreOp(OpKind.IFETCH, 0x500)]])
    assert sim.ports[1].observations[-1] == 0xAB or stats.mem_reads >= 1


def test_noncoherent_ifetch_misses_go_straight_to_memory():
    sim = build(SimConfig(coherent_ifetch=False))
    stats = sim.run([[CoreOp(OpKind.IFETCH, 0x500)], []])
    assert stats.mem_reads == 1
    assert stats.cores[0].ifetches == 1
    line = sim.caches[0].lookup(0x500, icache=True)
    assert line.state is LineState.SHARED


@pytest.mark.parametrize("model", [build, DirectorySimulation], ids=["snoop", "directory"])
def test_non_coherent_ifetch_miss_queues_its_read_at_the_memory_port(model):
    cfg = SimConfig(latencies=Latencies(ccu_stage=3))
    sim = model(cfg)
    op = sim.ports[1].current = CoreOp(OpKind.IFETCH, 0x504)
    assert sim._access(1, op, now=5) is False  # nothing for the model to submit
    assert list(sim.mem_port.read_queue) == [(5 + 3, 0x500, sim.ports[1])]
    assert sim.caches[1].miss is not None and not sim.decoder.pending


# Shipped mutations that run on the workload below without a monitor trip,
# and why. Any other outcome than a trip or completion fails the test.
MASKED_MUTATIONS = {
    "reissue:disabled": (
        "with the reissue rows patched to keep each kind, a pending CleanUnique "
        "that loses its copy enters the Decoder unchanged; on this run none "
        "loses it. Seeds 1 and 2 of the same workload do, and end in a "
        "CoherenceViolation 'CleanUnique completion without a local copy' "
        "(test_lost_copy_ends_the_run_as_a_violation). Masked for the snoop "
        "model only: the directory model ends in the same violation on this "
        "very run (test_baseline.py::test_directory_under_each_shipped_mutation), "
        "so `run --model both` reports it"
    ),
}


@pytest.mark.parametrize("mutation", verify.SHIPPED_MUTATIONS)
def test_monitors_catch_each_shipped_mutation(monkeypatch, mutation):
    # the timed model runs the mutated rows the explorer certifies
    monkeypatch.setattr(protocol, "TABLES", protocol.TABLES.mutated({mutation}))
    cfg = SimConfig(n_cores=3)
    streams = gen_workload(WorkloadSpec(kind="false_sharing", ops_per_core=500), 3,
                           cfg.line_size)
    sim = build(cfg, monitor=True)
    if mutation in MASKED_MUTATIONS:
        sim.run(streams)
    else:
        with pytest.raises(CoherenceViolation):
            sim.run(streams)


@pytest.mark.parametrize("seed", [1, 2])
def test_lost_copy_ends_the_run_as_a_violation(monkeypatch, tmp_path, seed):
    # without the reissue row a CleanUnique whose copy a racing snoop took
    # enters unchanged and completes with nothing to upgrade
    monkeypatch.setattr(protocol, "TABLES", protocol.TABLES.mutated({"reissue:disabled"}))
    cfg = SimConfig(n_cores=3)
    spec = WorkloadSpec(kind="false_sharing", ops_per_core=500, seed=seed)
    sim = build(cfg, monitor=True)
    with pytest.raises(CoherenceViolation) as exc:
        sim.run(gen_workload(spec, 3, cfg.line_size))
    head, _, dump = str(exc.value).partition("\n")
    assert head == f"cycle {sim.cycle}: line 0x1000: CleanUnique completion without a local copy"
    assert dump == sim._dump_state()

    report = tmp_path / "report.json"
    code = main(["run", "--model", "snoop", "--workload", "false_sharing", "--cores", "3",
                 "--ops", "500", "--seed", str(seed), "--report", str(report)])
    assert code == 1
    assert json.loads(report.read_text())["violations"] == [str(exc.value)]


# -- SRAM port arbitration ------------------------------------------------------------

def test_a_due_snoop_takes_the_port_before_the_core_store():
    sim = build(SimConfig())
    sim.ports[0].stream.append(CoreOp(OpKind.LOAD, 0x100))
    while not sim.ccu.ac_outbox[1]:
        sim.step()
    due = sim.ccu.ac_outbox[1][0][0]
    while sim.cycle < due - 1:
        sim.step()
    # core 1's store issues at the end of this cycle: it requests the port
    # in the same cycle the snoop of core 0's miss arrives
    store = CoreOp(OpKind.STORE, 0x200, value=7)
    sim.ports[1].stream.append(store)
    sim.step()
    assert sim.cycle == due and sim.ports[1].current is store
    sim.step()
    assert not sim.ccu.ac_outbox[1] and len(sim.ccu.cr_inbox) == 1  # snoop served
    assert sim.ports[1].current is store and sim.caches[1].miss is None
    assert sim.stats.cores[1].misses == 0
    sim.step()
    assert sim.caches[1].miss is not None and sim.stats.cores[1].misses == 1  # store ran


def test_a_due_r_completion_takes_the_port_before_a_snoop():
    cfg = SimConfig(n_cores=4)
    sim = build(cfg)
    streams = gen_workload(WorkloadSpec(kind="false_sharing", ops_per_core=50), 4,
                           cfg.line_size)
    for port, ops in zip(sim.ports, streams):
        port.stream.extend(ops)

    def both_due():
        for core in range(cfg.n_cores):
            txn = sim.ccu.take_r(core, sim.cycle)
            acs = sim.ccu.ac_outbox[core]
            if txn is not None and acs and acs[0][0] <= sim.cycle:
                return core, txn, acs[0]
        return None

    while both_due() is None:
        assert sim.cycle < 1000, "no cycle with an R and a snoop due on one core"
        sim.step()
    core, txn, snoop = both_due()
    sim.step()
    assert txn not in sim.decoder.in_flight.values()  # the completion retired its transaction
    assert sim.ccu.ac_outbox[core][0] is snoop  # the snoop still waits
    sim.step()
    assert not sim.ccu.ac_outbox[core] or sim.ccu.ac_outbox[core][0] is not snoop


def test_a_refused_fill_changes_nothing_and_leaves_the_port_to_a_due_snoop():
    # one 1-way set: core 0's load of 0x200 evicts its dirty 0x100. The
    # write-back FIFO is kept full from the first fill attempt until core
    # 1's load of 0x100, issued then, has snooped core 0; the snoop is
    # served in a cycle whose fill was refused, and the fill goes through
    # once the FIFO's drain frees a slot.
    sim = build(SimConfig(cache_size=16, ways=1), monitor=True)
    sim.run([stores(0x100, [7]), []])
    snooped = []
    handle_snoop = sim.caches[0].handle_snoop

    def logged_snoop(*args):
        snooped.append(sim.cycle)
        return handle_snoop(*args)

    def keep_full():
        if not attempts:
            sim.ports[1].stream.append(CoreOp(OpKind.LOAD, 0x100))
        if not snooped:
            fill_the_fifo(sim)

    sim.caches[0].handle_snoop = logged_snoop
    attempts = watched_fills(sim, 0, keep_full)
    # stepped by hand, since `run` counts its ops up front
    sim.ports[0].stream.append(CoreOp(OpKind.LOAD, 0x200))
    while sim.ports[0].current is not None or not sim.ports[1].observations:
        assert sim.cycle < 1000
        sim.step()
    sim.run([[], []])  # drains the write-back FIFO
    *refused, (filled_at, filled, _, _) = attempts
    assert refused and filled
    for _cycle, went_through, before, after in refused:
        assert went_through is False and before == after  # nothing changed
    assert snooped == [refused[-1][0]]  # served in the last refused cycle
    assert filled_at == snooped[0] + 1  # the drain of that cycle freed a slot
    assert sim.ports[0].observations == [0] and sim.ports[1].observations == [7]
    assert sim.mem.peek(0x100)[:4] == (7).to_bytes(4, "little")


# -- failure handling -----------------------------------------------------------------

def test_watchdog_detects_wedged_pipeline():
    sim = build(SimConfig())
    sim.decoder.capacity = 0  # the Decoder can never admit the request
    with pytest.raises(DeadlockError, match="no forward progress") as exc:
        sim.run([loads(0x100), []], watchdog=50)
    # the last progress was the miss's submit at cycle 1: the trip comes
    # at 1 + 50 + 1, whether or not the idle cycles were stepped
    assert str(exc.value).splitlines()[1] == "cycle 52"
    assert sim.stats.ccu_collision_stalls == 51
    assert sim.stats.cores[0].stall_cycles == 52


def test_the_snoop_dump_shows_a_transaction_waiting_for_memory():
    # each transaction shows whether data is buffered and its CRs still to
    # come, and each R channel the transaction on its way and its arrival
    sim = build(SimConfig())
    dumps = []
    read = sim.mem.read

    def dumped(address, now, tag):  # the read issues: the transaction holds no data yet
        dumps.append(sim._dump_state())
        due = read(address, now, tag)
        dumps.append((now, due, sim._dump_state()))
        return due

    sim.mem.read = dumped
    sim.run([loads(0x100), []])
    before, (now, due, after) = dumps
    assert "txns=[(0, 0, 'ReadShared', '0x100', False)]" in before
    assert "ccu: cr_pending=[(0, 0)]" in before and "r_out=[[], []]" in before
    # the read latched the data and sent the transaction on to core 0's R
    # channel, in the cycle after the data is due and a completion stage on
    assert due == now + sim.config.latencies.mem_read
    assert "txns=[(0, 0, 'ReadShared', '0x100', True)]" in after
    assert f"r_out=[[(0, {due + 1 + sim.config.latencies.ccu_stage})], []]" in after


def test_run_requires_one_stream_per_core():
    sim = build(SimConfig())
    with pytest.raises(ConfigError, match="streams"):
        sim.run([[]])
