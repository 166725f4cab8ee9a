"""A perform-order witness of sequential consistency for the timed models
(Gibbons & Korach, SIAM J. Comput. 1997; compare TSOtool, Hangal et al.,
ISCA 2004).

An op performs at one of two points of `sim.Kernel`: a hit in `_access`
and a filled miss in `_retire_miss` (a fill it refuses performs nothing).
Logged there, in call order, as (cycle, core, op, word address, value),
the ops form one total order that keeps each core's program order.
Replayed on a flat word map, each load must read the last store to its
word, and the final map must equal `coherent_image()`: the log then
witnesses that the run was sequentially consistent. The stores are
renumbered so that each writes a distinct value, so a load that reads
any other store shows. A non-coherent icache may read stale data by
design, so its fetches are left out.
"""
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings

from culsim import protocol, verify
from culsim.baseline import DirectorySimulation
from culsim.cache import WORD_BYTES, word_at
from culsim.cli import WorkloadSpec, gen_workload
from culsim.protocol import IFETCH, STORE, CoreOp
from culsim.sim import CoherenceViolation, FifoDepths, SimConfig, build

from test_cache_index import one_at_a_time, runs


def renumbered(streams):
    """The streams with their k-th store, core by core, writing k."""
    values = iter(range(1, 1 << 32))
    return [[CoreOp(STORE, op.address, next(values)) if op.kind is STORE else op for op in ops]
            for ops in streams]


def witnessed(sim):
    """Log every op of `sim` as it performs."""
    log = []
    access, retire_miss = sim._access, sim._retire_miss

    def performed(core, op, now):
        value = op.value if op.kind is STORE else sim.ports[core].observations[-1]
        log.append((now, core, op, op.address & ~(WORD_BYTES - 1), value))

    def logged_access(core, op, now):
        result = access(core, op, now)
        if sim.ports[core].current is None:  # a hit performs at once
            performed(core, op, now)
        return result

    def logged_retire_miss(core, state, data, now):
        op = sim.ports[core].current
        filled = retire_miss(core, state, data, now)
        if filled:  # a refused fill performs nothing
            performed(core, op, now)
        return filled

    sim._access, sim._retire_miss = logged_access, logged_retire_miss
    return log


def witness_failure(sim, log):
    """The first op that breaks the replay, or a final image that differs
    from the replayed map, as a message; None when the log is a witness."""
    words = {}
    for cycle, core, op, word, value in log:
        if op.kind is IFETCH and not sim.config.coherent_ifetch:
            continue
        if op.kind is STORE:
            words[word] = value
        elif value != words.get(word, 0):
            return (f"cycle {cycle}: core {core} {op.kind.value} {word:#x} read {value}, "
                    f"expected {words.get(word, 0)}")
    line_size = sim.config.line_size
    image = {line + off: word_at(data, off)
             for line, data in sim.coherent_image().items()
             for off in range(0, line_size, WORD_BYTES)}
    image = {word: value for word, value in image.items() if value}  # stores write >= 1
    if image != words:
        return f"final image {image} differs from the replayed words {words}"
    return None


def models(cfg):
    """The snoop model, the same one transaction at a time (collision
    capacity 1), and the directory, which has no coherent icache."""
    return (build(cfg), build(one_at_a_time(cfg)),
            DirectorySimulation(replace(cfg, coherent_ifetch=False)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_every_run_has_a_perform_order_witness(run):
    cfg, streams = run
    streams = renumbered(streams)
    for sim in models(cfg):
        log = witnessed(sim)
        sim.run([list(s) for s in streams])
        assert len(log) == sum(map(len, streams))
        assert witness_failure(sim, log) is None


def test_runs_with_refused_fills_have_a_witness():
    # a depth-1 write-back FIFO behind 2-way 1 KiB caches over 64 lines:
    # some fills find a dirty victim while the FIFO is full, are refused
    # and perform only when they are retried
    cfg = SimConfig(n_cores=4, cache_size=1024, ways=2, fifo_depths=FifoDepths(writeback=1))
    spec = WorkloadSpec(kind="uniform_random", ops_per_core=300, working_set=64, seed=0)
    streams = renumbered(gen_workload(spec, cfg.n_cores, cfg.line_size))
    for sim in (build(cfg), DirectorySimulation(cfg)):
        log = witnessed(sim)
        refused = []
        logged = sim._retire_miss

        def counted(core, state, data, now):
            filled = logged(core, state, data, now)
            if not filled:
                refused.append(core)
            return filled

        sim._retire_miss = counted
        sim.run([list(s) for s in streams])
        assert refused
        assert len(log) == sum(map(len, streams))
        assert witness_failure(sim, log) is None


@pytest.mark.parametrize("mutation", verify.SHIPPED_MUTATIONS)
def test_a_mutated_snoop_model_has_no_witness(monkeypatch, mutation):
    # negative control: each shipped mutation, run in the snoop model
    # without monitors, either fails the witness or ends the run in a
    # CoherenceViolation (a CleanUnique completing without its copy)
    monkeypatch.setattr(protocol, "TABLES", protocol.TABLES.mutated({mutation}))
    cfg = SimConfig(n_cores=2)
    spec = WorkloadSpec(kind="false_sharing", ops_per_core=500, seed=1)
    streams = renumbered(gen_workload(spec, 2, cfg.line_size))
    sim = build(cfg)
    log = witnessed(sim)
    try:
        sim.run(streams)
    except CoherenceViolation:
        return
    assert witness_failure(sim, log) is not None
