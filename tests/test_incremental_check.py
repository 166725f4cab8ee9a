"""The per-cycle monitors check only the lines whose coherence view
changed in the step. These tests hold that incremental check against a
check of every resident and in-flight line: step by step on tiny drawn
configurations, and end to end on every shipped mutation. The view
itself is held step by step against a reference built from cache
lookups, the transactions the model's queues carry and the write-back
FIFO."""
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings

from culsim import protocol, verify
from culsim.baseline import DirectorySimulation
from culsim.cli import WorkloadSpec, gen_workload
from culsim.protocol import LineState
from culsim.sim import SimConfig, Simulation, build

from test_cache_index import LINES, one_at_a_time, runs
from test_in_flight import queued


def problems(view):
    return verify.check_swmr(view) + verify.check_value(view)


def cross_checked(sim):
    """Before each step's monitors run, compare the full view with the
    one of the step before: every line that changed must be marked, and
    the marked lines must give exactly the problems of the full view."""
    run_monitors = sim._run_monitors
    before = {}

    def monitors():
        nonlocal before
        full = sim.snapshot_invariants()
        for addr in (full.keys() | before.keys()) - sim.touched:
            assert full.get(addr) == before.get(addr), (sim.cycle, hex(addr))
        assert problems(sim.snapshot_invariants(sim.touched)) == problems(full)
        before = full
        run_monitors()

    sim._run_monitors = monitors
    return sim


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_incremental_view_agrees_with_full_scan_every_step(run):
    cfg, streams = run
    for sim in (  # the directory has no coherent icache
        build(cfg, monitor=True),
        build(one_at_a_time(cfg), monitor=True),
        DirectorySimulation(replace(cfg, coherent_ifetch=False), monitor=True),
    ):
        cross_checked(sim).run([list(s) for s in streams])


def reference_view(sim):
    """The coherence view built without `snapshot_invariants` or the
    Decoder's in-flight table: each line's valid copies found by `lookup`
    in every data cache and every coherent icache, then an Owned copy of
    the initiator for each transaction an entry of the model's queues
    carries that holds dirty responsibility (with its data, or with the
    initiator's copy's when none came), against memory as shadowed by the
    queued write-backs (the youngest per line)."""
    in_flight = {}
    for txn in {id(txn): txn for txn in queued(sim)}.values():
        if txn.any_pass_dirty:
            data = txn.data
            if data is None:
                line = sim.caches[txn.initiator].lookup(txn.address)
                data = line and line.data
            if data is not None:
                in_flight[txn.address] = [
                    verify.CopyView(txn.initiator, LineState.OWNED, data, False)]
    pending_wb = {}
    for addr, data in sim.mem_port.wb:
        pending_wb[addr] = data
    view = {}
    for addr in LINES:
        copies = []
        for core, cache in enumerate(sim.caches):
            for icache in (False, True) if cache.coherent_ifetch else (False,):
                line = cache.lookup(addr, icache=icache)
                if line is not None:
                    copies.append(verify.CopyView(core, line.state, line.data, icache))
        copies += in_flight.get(addr, [])
        view[addr] = (copies, pending_wb[addr] if addr in pending_wb else sim.mem.peek(addr))
    return view


def held_against_reference(sim):
    """Before each step's monitors run, compare the full view and the
    view of the marked lines with the reference view."""
    run_monitors = sim._run_monitors

    def monitors():
        reference = reference_view(sim)
        full = sim.snapshot_invariants()
        assert list(full) == sorted(full)
        assert full == {addr: v for addr, v in reference.items() if v[0]}, sim.cycle
        touched = sorted(sim.touched)
        assert sim.snapshot_invariants(touched) == {a: reference[a] for a in touched}, sim.cycle
        run_monitors()

    sim._run_monitors = monitors
    return sim


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_view_agrees_with_a_reference_built_from_lookups_every_step(run):
    cfg, streams = run
    for sim in (  # the directory has no coherent icache
        build(cfg, monitor=True),
        build(one_at_a_time(cfg), monitor=True),
        DirectorySimulation(replace(cfg, coherent_ifetch=False), monitor=True),
    ):
        held_against_reference(sim).run([list(s) for s in streams])


class FullScanSimulation(Simulation):
    """Checks every line with a copy in a cache or in flight each step."""

    def _run_monitors(self):
        self.touched.update(self.snapshot_invariants())
        super()._run_monitors()


def outcome(sim, streams):
    try:
        return "completed", sim.run([list(s) for s in streams]).to_dict()
    except RuntimeError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("mutation", verify.SHIPPED_MUTATIONS)
@pytest.mark.parametrize("n_cores", [3, 4])
def test_incremental_and_full_scan_monitors_end_alike(monkeypatch, mutation, n_cores):
    monkeypatch.setattr(protocol, "TABLES", protocol.TABLES.mutated({mutation}))
    cfg = SimConfig(n_cores=n_cores)
    for seed in range(4):
        spec = WorkloadSpec(kind="false_sharing", ops_per_core=500, seed=seed)
        streams = gen_workload(spec, n_cores, cfg.line_size)
        full = outcome(FullScanSimulation(cfg, monitor=True), streams)
        assert outcome(build(cfg, monitor=True), streams) == full, seed
