"""Acceptance suite: one test per release criterion.

Each test prints a PASS line on success so `pytest -v -s` doubles as the
acceptance report. Tolerances are exact (counter equality, forbidden
outcomes never observed) except the two documented directional checks,
which assert strict inequality without pinning a magnitude.
"""
import json

import pytest

from culsim import baseline, verify
from culsim.ccu import mux_grant
from culsim.cli import WorkloadSpec, gen_workload, main
from culsim.protocol import CoreOp, LineState, OpKind
from culsim.sim import FifoDepths, SimConfig, build


def ok(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_table1_fidelity():
    rows = {
        LineState.MODIFIED: (1, 0, 1),
        LineState.OWNED: (1, 1, 1),
        LineState.EXCLUSIVE: (1, 0, 0),
        LineState.SHARED: (1, 1, 0),
        LineState.INVALID: (0, 0, 0),
    }
    # the valid/shared/dirty flags are the properties the models run;
    # Invalid's don't-care shared/dirty bits read as zero
    for state, (valid, shared, dirty) in rows.items():
        assert state.is_valid == valid
        assert (state.is_valid and not state.is_unique) == shared
        assert state.is_dirty == dirty
    ok("table1-fidelity")


def test_oracle_certification_and_mutation_coverage():
    report = verify.oracle_tables()
    assert report.ok, report.violations
    assert all(
        report.initiator[p] == "certified" for p in verify.EXPECTED_INITIATOR_PAIRS
    )
    assert all(
        report.snoopee[p] == "certified" for p in verify.EXPECTED_SNOOPEE_PAIRS
    )
    assert len(verify.SHIPPED_MUTATIONS) >= 6
    for mutation in verify.SHIPPED_MUTATIONS:
        mutated = verify.oracle_tables(mutations=frozenset({mutation}))
        assert mutated.violations, f"{mutation} not caught"
        assert any(v.trace for v in mutated.violations), f"{mutation} lacks a trace"
    ok("oracle-certification")


def test_litmus_suite_all_core_counts_and_ifetch_modes():
    for n_cores in (2, 3, 4):
        for ifetch in (False, True):
            cfg = verify.ExploreConfig(n_cores=n_cores, coherent_ifetch=ifetch)
            for test in verify.COHERENCE_LITMUS:
                result = verify.run_litmus(test, cfg)
                assert result["exhausted"]
                assert result["forbidden_seen"] == 0, (test.name, n_cores, ifetch)
                assert result["violations"] == [], (test.name, n_cores, ifetch)
    ok("litmus-suite")


def test_exhaustive_racing_stores_reproducible_across_workers():
    x, y = 0x100, 0x110
    programs = [
        [("W", x, 1), ("W", y, 2), ("W", x, 3), ("W", y, 4)],
        [("W", y, 5), ("W", x, 6), ("W", y, 7), ("W", x, 8)],
    ]
    baseline_result = verify.explore(programs, verify.ExploreConfig(n_cores=2))
    assert baseline_result.exhausted
    assert baseline_result.violations == []
    for workers in (1, 2, 4):
        again = verify.explore(
            programs, verify.ExploreConfig(n_cores=2), workers=workers
        )
        assert again.reachable_states == baseline_result.reachable_states
        assert again.violations == []
    ok("exhaustive-exploration")


def test_cache_to_cache_transfer_counters():
    sim = build(SimConfig(), monitor=True)
    line = 0x200
    producer = [CoreOp(OpKind.STORE, line, value=v) for v in (1, 2, 3, 4)]
    consumer = [CoreOp(OpKind.LOAD, line) for _ in range(4)]
    stats = sim.run([producer, consumer])
    assert stats.mem_reads == 1  # the initial fill only
    assert stats.cache_to_cache_transfers >= 1
    ok("cache-to-cache-transfer")


def test_collision_serialization_and_pipelining():
    # same-line exclusion: the per-cycle monitor asserts it on a racy run
    sim = build(SimConfig(n_cores=4), monitor=True)
    streams = [[CoreOp(OpKind.STORE, 0x400, value=c)] for c in range(4)]
    sim.run(streams)

    # distinct lines issued back to back: pipelined beats a collision
    # capacity of 1, which admits one transaction at a time
    def total_cycles(capacity):
        s = build(SimConfig(fifo_depths=FifoDepths(collision_capacity=capacity)))
        return s.run(
            [[CoreOp(OpKind.LOAD, 0x100)], [CoreOp(OpKind.LOAD, 0x200)]]
        ).cycles

    assert total_cycles(8) < total_cycles(1)
    ok("collision-serialization-pipelining")


def test_priority_arbitration_all_pairs():
    # the data-cache SRAM port serves one requester a cycle: a due R
    # completion before a due snoop, and a due snoop before the core's op
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
    ok("priority-arbitration")


def test_round_robin_fairness_1000_grants():
    for n_cores in (2, 3, 4):
        pending = {c: (0, 0x40 * c) for c in range(n_cores)}  # core -> (arrival, line)
        counts = [0] * n_cores
        last = n_cores - 1
        for t in range(1000):
            winner = mux_grant(pending, last, n_cores)
            counts[winner] += 1
            last = winner
            pending[winner] = (t + 1, 0x40 * winner)
        assert max(counts) - min(counts) <= 1, counts
    ok("round-robin-fairness")


@pytest.mark.parametrize("kind", ["producer_consumer", "migratory"])
def test_directional_speedup_over_directory(kind):
    cfg = SimConfig()  # default latencies
    spec = WorkloadSpec(kind, ops_per_core=10_000, working_set=8, seed=2024)
    streams = gen_workload(spec, cfg.n_cores, cfg.line_size)
    snoop = build(SimConfig(), monitor=True)
    snoop_stats = snoop.run([list(s) for s in streams], watchdog=100_000)
    dir_sim = baseline.DirectorySimulation(SimConfig(), monitor=True)
    dir_stats = dir_sim.run([list(s) for s in streams], watchdog=100_000)
    assert snoop_stats.cycles < dir_stats.cycles, (
        kind, snoop_stats.cycles, dir_stats.cycles,
    )
    assert snoop.coherent_image() == dir_sim.coherent_image()
    ratio = dir_stats.cycles / snoop_stats.cycles
    ok(f"directional-speedup-{kind} (directory/snoop cycle ratio {ratio:.2f})")


def test_determinism_byte_identical_reports(tmp_path):
    args = [
        "run", "--model", "both", "--workload", "false_sharing",
        "--ops", "500", "--seed", "99",
    ]
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--report", str(r1)]) == 0
    assert main(args + ["--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    json.loads(r1.read_text())  # well-formed
    ok("determinism")


def test_coherent_ifetch_invalidation_vs_permitted_staleness():
    line = 0x600

    def smc_run(coherent):
        sim = build(SimConfig(coherent_ifetch=coherent), monitor=coherent)
        # writer delays behind unrelated loads so the second fetch
        # deterministically lands after the write completes
        writer = [CoreOp(OpKind.LOAD, 0x900 + 16 * i) for i in range(6)]
        writer.append(CoreOp(OpKind.STORE, line, value=0xBB))
        fetcher = [CoreOp(OpKind.IFETCH, line)]
        fetcher += [CoreOp(OpKind.LOAD, 0xA00 + 16 * i) for i in range(20)]
        fetcher.append(CoreOp(OpKind.IFETCH, line))
        sim.run([writer, fetcher])
        fetches = [sim.ports[1].observations[0], sim.ports[1].observations[-1]]
        return fetches

    first, last = smc_run(coherent=True)
    assert first == 0x00 and last == 0xBB  # stale copy was invalidated
    first, last = smc_run(coherent=False)
    assert first == 0x00 and last == 0x00  # staleness permitted when off
    ok("coherent-ifetch")
