from dataclasses import replace

import pytest

from culsim.baseline import DirectorySimulation
from culsim.cache import ConfigError
from culsim.ccu import ProtocolFault
from culsim.cli import WorkloadSpec, gen_workload
from culsim.protocol import CoherentKind, CoreOp, LineState, OpKind, SnoopResponse
from culsim.sim import CoherenceViolation, DeadlockError, SimConfig, build
from culsim import protocol, verify


def loads(addr, n=1):
    return [CoreOp(OpKind.LOAD, addr) for _ in range(n)]


def stores(addr, values):
    return [CoreOp(OpKind.STORE, addr, value=v) for v in values]


# -- hop accounting ---------------------------------------------------------------

def phased(cfg, *phases):
    """Run the phases one after another on one directory model; per phase
    return the memory reads and the miss latency it added."""
    sim = DirectorySimulation(cfg, monitor=True)
    deltas = []
    for streams in phases:
        reads, latency = sim.stats.mem_reads, sim.stats.miss_latency_total
        sim.run(streams)
        deltas.append((sim.stats.mem_reads - reads, sim.stats.miss_latency_total - latency))
    return sim, deltas


def test_uncached_load_does_one_memory_read():
    sim, [(reads, _)] = phased(SimConfig(), [loads(0x100), []])
    assert reads == 1
    assert sim.stats.cores[0].misses == 1


def test_load_of_an_owned_line_is_served_by_the_owner():
    sim, [_, (reads, _)] = phased(SimConfig(), [stores(0x100, [7]), []], [[], loads(0x100)])
    assert reads == 0  # the owner supplies the fill, not memory
    assert sim.stats.cache_to_cache_transfers == 1
    assert sim.stats.cores[1].snoop_served_misses == 1


def test_store_pays_one_invalidation_round_trip_per_sharer():
    cfg = SimConfig(n_cores=4)
    cfg.latencies.snoop_hop = 3
    latency = {}
    for k in (2, 3):
        # cores 1..k share the line, then core 0 stores to it
        share = [[]] + [loads(0x100) if c <= k else [] for c in range(1, 4)]
        _, [_, (_, latency[k])] = phased(cfg, share, [stores(0x100, [5]), [], [], []])
    assert latency[3] - latency[2] == 2 * cfg.latencies.snoop_hop


def test_upgrade_from_shared_skips_the_memory_read():
    sim, [_, (reads, _)] = phased(
        SimConfig(), [loads(0x100), loads(0x100)], [stores(0x100, [3]), []]
    )
    assert reads == 0
    assert sim.caches[0].lookup(0x100).state is LineState.MODIFIED
    assert sim.caches[1].lookup(0x100) is None


# -- functional behavior ------------------------------------------------------------

def test_deterministic_runs():
    spec = WorkloadSpec("uniform_random", ops_per_core=200, seed=11)
    streams = gen_workload(spec, 2, 16)

    def once():
        sim = DirectorySimulation(SimConfig())
        stats = sim.run([list(s) for s in streams])
        return stats.to_dict(), sim.coherent_image()

    assert once() == once()


def test_directory_runs_stay_coherent_under_monitoring():
    spec = WorkloadSpec("uniform_random", ops_per_core=300, working_set=4, seed=3)
    streams = gen_workload(spec, 3, 16)
    cfg = SimConfig(n_cores=3)
    sim = DirectorySimulation(cfg, monitor=True)
    stats = sim.run(streams)
    view = sim.snapshot_invariants()
    assert not verify.check_swmr(view)
    assert not verify.check_value(view)
    for cs in stats.cores:
        assert cs.hits + cs.misses == cs.loads + cs.stores + cs.ifetches


def _run_false_sharing_3_cores():
    cfg = SimConfig(n_cores=3)
    streams = gen_workload(WorkloadSpec(kind="false_sharing", ops_per_core=500), 3,
                           cfg.line_size)
    return DirectorySimulation(cfg, monitor=True).run(streams).to_dict()


# How the directory's run ends under each shipped mutation: its probes
# run the snoopee rows, its installs the completion rows, and its cores
# the initiator and reissue rows, so every mutation trips it.
DIRECTORY_TRIPS = {
    "snoopee:M:ReadUnique:keep": "cycle 95: line 0x1020: unique copy on core 1 coexists",
    "snoopee:M:ReadShared:drop_dirty": "cycle 31: line 0x1000: clean copies differ from memory",
    "snoopee:S:CleanUnique:keep": "cycle 250: line 0x1010: unique copy on core 0 coexists",
    "snoopee:E:ReadShared:keep": "cycle 63: line 0x1010: unique copy on core 0 coexists",
    "initiator:Store:Shared:silent_upgrade": "cycle 240: line 0x1010: unique copy on core 0",
    "completion:ReadShared:ignore_shared": "cycle 32: line 0x1000: unique copy on core 1 coexists",
    "reissue:disabled": "cycle 729: line 0x1050: CleanUnique completion without a local copy",
}


def test_every_shipped_mutation_states_its_directory_verdict():
    assert DIRECTORY_TRIPS.keys() == set(verify.SHIPPED_MUTATIONS)


@pytest.mark.parametrize("mutation", verify.SHIPPED_MUTATIONS)
def test_directory_under_each_shipped_mutation(monkeypatch, mutation):
    monkeypatch.setattr(protocol, "TABLES", protocol.TABLES.mutated({mutation}))
    with pytest.raises(CoherenceViolation) as exc:
        _run_false_sharing_3_cores()
    assert str(exc.value).startswith(DIRECTORY_TRIPS[mutation])


def with_rows(table, rows):
    """The clean table set with the rows of `table` patched."""
    clean = protocol.TABLES
    return replace(clean, **{table: {**getattr(clean, table), **rows}})


def both_models(monkeypatch, tables, streams):
    """Run the streams on the snoop and the directory model, each built
    on `tables`."""
    monkeypatch.setattr(protocol, "TABLES", tables)
    sims = build(SimConfig(), monitor=True), DirectorySimulation(SimConfig(), monitor=True)
    for sim in sims:
        sim.run([list(ops) for ops in streams])
    return sims


def test_a_completion_row_reaches_both_models(monkeypatch):
    RS, S = CoherentKind.READ_SHARED, LineState.SHARED
    tables = with_rows("completion", {(RS, 0, 0, 0): S})
    for sim in both_models(monkeypatch, tables, [loads(0x100), []]):
        assert sim.caches[0].lookup(0x100).state is S, type(sim).__name__


def test_a_snoopee_row_reaches_both_models(monkeypatch):
    # an Exclusive owner that a read leaves Invalid, handing its data over
    answer = (LineState.INVALID, SnoopResponse(data_transfer=1))
    tables = with_rows("snoopee", {(LineState.EXCLUSIVE, kind): answer for kind in
                                   (CoherentKind.READ_SHARED, CoherentKind.READ_ONCE)})
    for sim in both_models(monkeypatch, tables, [loads(0x100), loads(0x104)]):
        assert sim.caches[0].lookup(0x100) is None, type(sim).__name__
        assert sim.stats.cores[1].snoop_served_misses == 1


def test_owner_forwarding_counts_as_cache_to_cache():
    sim = DirectorySimulation(SimConfig(), monitor=True)
    stats = sim.run([stores(0x100, [7]), loads(0x100)])
    assert stats.cache_to_cache_transfers == 1
    assert stats.cores[1].snoop_served_misses == 1
    # MESI: the downgraded owner wrote its dirty line back
    assert sim.mem.peek(0x100)[:4] == (7).to_bytes(4, "little")


def test_a_read_unique_forwarded_to_a_modified_owner_shows_as_one_owned_copy():
    # core 1 holds the line Modified; core 0's store forwards a ReadUnique
    # to it, which hands the dirty line to the transaction. Until the
    # install the transaction answers for the line as core 0's Owned copy,
    # and the monitors find nothing wrong
    sim = DirectorySimulation(SimConfig(), monitor=True)
    sim.run([[], stores(0x100, [7])])
    dirty = sim.caches[1].lookup(0x100).data
    between = []
    run_monitors = sim._run_monitors

    def monitors():
        txn = sim.decoder.in_flight.get(0x100)
        if txn is not None and txn.any_pass_dirty:
            view = sim.snapshot_invariants()
            between.append((view[0x100][0], verify.check_swmr(view) + verify.check_value(view)))
        run_monitors()

    sim._run_monitors = monitors
    sim.run([stores(0x100, [8]), []])
    assert between
    for copies, problems in between:
        assert copies == [verify.CopyView(0, LineState.OWNED, dirty, False)]
        assert problems == []
    assert sim.caches[0].lookup(0x100).state is LineState.MODIFIED
    assert sim.caches[1].lookup(0x100) is None


def test_private_workload_matches_snoop_memory_traffic():
    spec = WorkloadSpec("private", ops_per_core=300, working_set=4, seed=5)
    streams = gen_workload(spec, 2, 16)
    snoop = build(SimConfig())
    s_stats = snoop.run([list(s) for s in streams])
    d_stats = DirectorySimulation(SimConfig()).run([list(s) for s in streams])
    assert s_stats.mem_reads == d_stats.mem_reads


def test_final_images_match_snoop_model():
    for kind in ("producer_consumer", "migratory", "false_sharing", "uniform_random"):
        spec = WorkloadSpec(kind, ops_per_core=400, working_set=4, seed=9)
        streams = gen_workload(spec, 2, 16)
        snoop = build(SimConfig())
        snoop.run([list(s) for s in streams])
        dsim = DirectorySimulation(SimConfig())
        dsim.run([list(s) for s in streams])
        assert snoop.coherent_image() == dsim.coherent_image(), kind


def test_sharing_workloads_have_higher_directory_miss_latency():
    spec = WorkloadSpec("producer_consumer", ops_per_core=600, working_set=4, seed=1)
    streams = gen_workload(spec, 2, 16)
    snoop = build(SimConfig())
    s_stats = snoop.run([list(s) for s in streams])
    d_stats = DirectorySimulation(SimConfig()).run([list(s) for s in streams])
    assert d_stats.avg_miss_latency > s_stats.avg_miss_latency


def test_ifetch_fills_the_non_coherent_icache_from_memory():
    sim = DirectorySimulation(SimConfig(), monitor=True)
    stats = sim.run([[CoreOp(OpKind.IFETCH, 0x100)], []])
    assert stats.cores[0].ifetches == 1
    assert stats.cores[0].misses == 1
    assert sim.caches[0].lookup(0x100, icache=True).state is LineState.SHARED
    # the fill stays outside the coherence domain: no L1 holds a data copy
    # for the directory to read as owner or sharer
    assert sim._holders(0x100) == (None, [])
    assert stats.mem_reads == 1


def test_coherent_ifetch_is_refused_only_when_an_ifetch_runs():
    cfg = SimConfig(coherent_ifetch=True)
    DirectorySimulation(cfg, monitor=True).run([loads(0x100), stores(0x100, [1])])
    sim = DirectorySimulation(cfg, monitor=True)
    with pytest.raises(ConfigError, match="core 1: ifetch of 0x104"):
        sim.run([[], [CoreOp(OpKind.IFETCH, 0x104)]])
    assert sim.caches[1].miss is None


def test_dirty_eviction_updates_directory_and_memory():
    cfg = SimConfig(cache_size=64, ways=1, line_size=16)
    stride = 4 * 16
    ops = stores(0x100, [1]) + stores(0x100 + stride, [2]) + loads(0x100)
    sim = DirectorySimulation(cfg, monitor=True)
    stats = sim.run([ops, []])
    assert stats.cores[0].writebacks >= 1
    # the eviction reached the directory: the re-load found no holder and
    # memory's copy, and the core owns the line again
    assert sim.caches[0].lookup(0x100).state is LineState.EXCLUSIVE
    assert sim.caches[0].lookup(0x100 + stride) is None
    assert sim._holders(0x100) == (0, [])
    assert sim.mem.peek(0x100)[:4] == sim.caches[0].lookup(0x100).data[:4]


def test_directory_lookup_reads_owner_and_sharers_off_the_l1s():
    sim = DirectorySimulation(SimConfig(), monitor=True)
    sim.run([stores(0x100, [1]) + loads(0x120), loads(0x110) + loads(0x120)])
    states = {(core, addr): sim.caches[core].lookup(addr).state
              for core, addr in ((0, 0x100), (1, 0x110), (0, 0x120), (1, 0x120))}
    assert states == {(0, 0x100): LineState.MODIFIED, (1, 0x110): LineState.EXCLUSIVE,
                      (0, 0x120): LineState.SHARED, (1, 0x120): LineState.SHARED}
    assert sim._holders(0x100) == (0, [])  # Modified owns
    assert sim._holders(0x110) == (1, [])  # Exclusive owns
    assert sim._holders(0x120) == (None, [0, 1])  # Shared shares
    assert sim._holders(0x130) == (None, [])
    # an invalidation leaves the way's index entry in place until a fill
    # reuses the way; the way holds nothing
    sim.caches[1].lookup(0x120).state = LineState.INVALID
    assert sim.caches[1].index[0x120].state is LineState.INVALID
    assert sim._holders(0x120) == (None, [0])


def test_stale_owner_falls_back_to_memory():
    cfg = SimConfig(cache_size=16, ways=1)
    cfg.latencies.snoop_hop = 1
    cfg.latencies.mem_read = 1
    sim = DirectorySimulation(cfg, monitor=True)
    probes = []
    forward = sim._forward

    def recording_probe(txn, owner):
        probes.append((sim.cycle, owner, sim.caches[owner].lookup(txn.address) is not None))
        return forward(txn, owner)

    sim._forward = recording_probe
    stats = sim.run([loads(0x100) + loads(0x110), loads(0x110) + loads(0x100)])
    # core 0 forwards 0x110 from core 1; core 1's probe of 0x100 finds that
    # core 0 evicted it for 0x110, so memory serves the fill
    assert probes == [(14, 1, True), (15, 0, False)]
    assert (stats.cycles, stats.mem_reads, stats.cache_to_cache_transfers) == (19, 3, 1)
    assert stats.to_dict()["avg_miss_latency"] == "7.25"


def test_memory_served_miss_after_a_refused_probe_is_not_cache_to_cache():
    cfg = SimConfig(n_cores=3, cache_size=16, ways=1)
    cfg.fifo_depths.writeback = 1
    cfg.latencies.snoop_hop = 2
    cfg.latencies.mem_read = 1
    stats = DirectorySimulation(cfg, monitor=True).run([
        stores(0x120, [1]) + loads(0x100),
        stores(0x100, [2]) + loads(0x120) + loads(0x110),
        stores(0x100, [3]) + stores(0x110, [3]),
    ])
    # a probe refused by the full write-back FIFO finds its owner evicted
    # on the retry, so memory serves that miss, not the owner
    assert (stats.cycles, stats.mem_reads) == (43, 4)
    assert stats.cache_to_cache_transfers == 3
    assert stats.cores[1].snoop_served_misses == 1


def test_downgrade_write_back_goes_through_the_memory_port():
    sim = DirectorySimulation(SimConfig(), monitor=True)
    sim.run([stores(0x100, [7]), []])
    dirty = sim.caches[0].lookup(0x100).data
    drained = []
    port_step = sim.mem_port.step

    def recording_step(now, mem):
        drained.append((list(sim.mem_port.wb), mem.peek(0x100)))
        return port_step(now, mem)

    sim.mem_port.step = recording_step
    sim.run([[], loads(0x100)])
    queued = [(wb, mem) for wb, mem in drained if wb]
    # the downgraded line waits in the FIFO, memory still stale, until the port drains it
    assert queued == [([(0x100, dirty)], bytes(16))]
    assert sim.mem.peek(0x100) == dirty
    assert sim.stats.cores[0].writebacks == 1


def test_downgrade_waits_for_room_in_a_full_write_back_fifo():
    sim = DirectorySimulation(SimConfig(), monitor=True)
    sim.run([stores(0x100, [7]), []])
    attempts = []
    forward = sim._forward

    def probe_into_a_full_fifo(txn, owner):
        if not attempts:  # fill the FIFO just before the first attempt
            for i in range(sim.config.fifo_depths.writeback):
                assert sim.mem_port.push_wb(0x1000 + 16 * i, bytes(16))
        went_through = forward(txn, owner)
        attempts.append((sim.cycle, went_through, sim.caches[owner].lookup(0x100).state,
                         [addr for addr, _ in sim.mem_port.wb]))
        return went_through

    sim._forward = probe_into_a_full_fifo
    sim.run([[], loads(0x100)])
    (refused_at, went_through, state, queued), (retried_at, retried, _, _) = attempts
    assert not went_through and state is LineState.MODIFIED and 0x100 not in queued
    assert retried and retried_at == refused_at + 1
    assert sim.caches[0].lookup(0x100).state is LineState.SHARED
    assert sim.ports[1].observations == [7]
    assert sim.mem.peek(0x100) == sim.caches[0].lookup(0x100).data


def test_a_refused_downgrade_write_back_after_the_room_check_is_a_fault():
    sim = DirectorySimulation(SimConfig(), monitor=True)
    sim.run([stores(0x100, [7]), []])
    sim.mem_port.push_wb = lambda address, data: False  # refuses despite the room
    with pytest.raises(ProtocolFault, match="write-back refused after feasibility check"):
        sim.run([[], loads(0x100)])


def watched_fills(sim, core, before_attempt):
    """Log each fill attempt of `core`'s misses as (cycle, filled, the
    fill state before it, after it), calling `before_attempt()` first.
    The fill state is every line of the core's data cache (None for a set
    not yet built), its index, its round-robin pointers, its miss and the
    write-back FIFO."""
    attempts = []
    cache, wb = sim.caches[core], sim.mem_port.wb
    retire_miss = sim._retire_miss

    def fill_state():
        miss = cache.miss
        return ([ways and [(line.addr, line.state, line.data) for line in ways]
                 for ways in cache.sets],
                [(a, id(line)) for a, line in cache.index.items()], list(cache.rr), miss,
                miss and replace(miss), list(wb))

    def attempt(c, state, data, now):
        if c != core:
            return retire_miss(c, state, data, now)
        before_attempt()
        was = fill_state()
        filled = retire_miss(c, state, data, now)
        attempts.append((now, filled, was, fill_state()))
        return filled

    sim._retire_miss = attempt
    return attempts


def fill_the_fifo(sim):
    while not sim.mem_port.wb_full():
        assert sim.mem_port.push_wb(0x1000 + 16 * len(sim.mem_port.wb), bytes(16))


def test_a_fill_over_a_dirty_victim_waits_for_room_in_a_full_write_back_fifo():
    # one 1-way set: core 0's load of 0x200 evicts its dirty 0x100
    sim = DirectorySimulation(SimConfig(cache_size=16, ways=1), monitor=True)
    sim.run([stores(0x100, [7]), []])
    attempts = watched_fills(sim, 0, lambda: attempts or fill_the_fifo(sim))
    sim.run([loads(0x200), []])
    (refused_at, filled, before, after), (retried_at, retried, _, _) = attempts
    assert filled is False and before == after  # nothing changed
    assert retried and retried_at == refused_at + 1  # the drain freed a slot
    assert sim.ports[0].observations == [0] and sim.stats.cores[0].writebacks == 1
    assert sim.mem.peek(0x100)[:4] == (7).to_bytes(4, "little")


# -- kernel shared with the snoop model ------------------------------------------------

def test_watchdog_dumps_the_directory_state():
    sim = DirectorySimulation(SimConfig())
    sim.decoder.capacity = 0  # the Decoder can never admit the request
    with pytest.raises(DeadlockError, match="no forward progress for 1 cycles") as exc:
        sim.run([loads(0x100), []], watchdog=1)
    # last progress at cycle 1 (the miss's submit); trip at 1 + 1 + 1
    assert str(exc.value).splitlines()[1] == "cycle 3"
    assert "core 0: current=" in str(exc.value)
    assert "core 1: current=None" in str(exc.value)
    assert "decoder: pending={} hold=(0, 256) txns=[]" in str(exc.value)


def test_the_directory_dump_shows_a_journey_waiting_for_memory():
    sim = DirectorySimulation(SimConfig())
    dumps = []
    read = sim.mem.read

    def dumped(address, now, tag):  # the read issues: the journey still waits for it
        dumps.append(sim._dump_state())
        due = read(address, now, tag)
        dumps.append((now, due, sim._dump_state()))
        return due

    sim.mem.read = dumped
    sim.run([loads(0x100), []])
    dump, (now, due, issued) = dumps
    assert "core 0: current=CoreOp(kind=<OpKind.LOAD" in dump and "core 1: current=None" in dump
    # transaction 0, core 0's load miss on 0x100, holds no data: its journey waits for memory
    assert "txns=[(0, 0, 'ReadShared', '0x100', False)]" in dump
    assert "directory: wake=[(0, 'memory')]" in dump
    # the read latched the data and put the journey back on its wake heap,
    # at the requester a hop after the cycle after the data is due
    assert due == now + sim.config.latencies.mem_read
    assert "txns=[(0, 0, 'ReadShared', '0x100', True)]" in issued
    assert f"directory: wake=[(0, {due + 1 + sim.config.latencies.snoop_hop})]" in issued


def test_a_request_entering_as_a_non_snooping_kind_is_refused_at_its_grant(monkeypatch):
    # as in the snoop model: a CleanUnique whose copy an earlier upgrade
    # took enters as its reissue row's kind, here a ReadNoSnoop
    tables = protocol.TABLES
    reissue = {**tables.reissue, CoherentKind.CLEAN_UNIQUE: CoherentKind.READ_NO_SNOOP}
    monkeypatch.setattr(protocol, "TABLES", replace(tables, reissue=reissue))
    sim = DirectorySimulation(SimConfig(n_cores=3))
    streams = [loads(0x40) + stores(0x40, [core + 1]) for core in range(3)]
    with pytest.raises(ProtocolFault, match=r"^core 2: unexpected ReadNoSnoop request$"):
        sim.run(streams)
    assert 2 not in {txn.initiator for _due, _id, txn in sim.wake}
    assert sim.decoder.hold == (2, 0x40)


def test_run_requires_one_stream_per_core():
    with pytest.raises(ConfigError, match="streams"):
        DirectorySimulation(SimConfig()).run([[]])
