"""`run()` skips cycles in which nothing can act; a cycle-by-cycle loop
over `step()` must reach the same stats, observations, final image and
cycle on every model. The loop also counts stall cycles the per-step
way, one per port that ends a step holding an op, as an oracle for the
per-op stall intervals the models count."""
from dataclasses import replace

from hypothesis import HealthCheck, given, settings

from culsim.baseline import DirectorySimulation
from culsim.protocol import CoreOp, OpKind
from culsim.sim import SimConfig, build

from test_cache_index import runs

MODELS = {
    "snoop": lambda cfg: build(cfg, monitor=True),
    "serialized": lambda cfg: build(cfg, serialize=True, monitor=True),
    # the directory has no coherent icache
    "directory": lambda cfg: DirectorySimulation(
        replace(cfg, coherent_ifetch=False), monitor=True),
}


def every_cycle(sim, streams):
    """The reference: one step() per simulated cycle until the work drains.
    Each port that ends a step holding an op counts a stall cycle, and
    the counts must equal the models' per-core stall_cycles."""
    for port, ops in zip(sim.ports, streams):
        port.stream.extend(ops)
    stalls = [0] * len(sim.ports)
    while sim._work_remaining():
        sim.step()
        for core, port in enumerate(sim.ports):
            if port.current is not None:
                stalls[core] += 1
        assert sim.cycle < 100_000, "reference run does not drain"
    assert [c.stall_cycles for c in sim.stats.cores] == stalls
    return sim.stats


def outcome(sim, stats):
    return (
        stats.to_dict(),
        [port.observations for port in sim.ports],
        sim.coherent_image(),
        sim.cycle,
    )


def counting_steps(sim):
    step = sim.step
    sim.steps = 0

    def counted():
        sim.steps += 1
        step()

    sim.step = counted
    return sim


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_skipping_run_matches_every_cycle_reference(run):
    cfg, streams = run
    for make in MODELS.values():
        skipping = make(cfg)
        reference = make(cfg)
        assert outcome(skipping, skipping.run([list(s) for s in streams])) == outcome(
            reference, every_cycle(reference, [list(s) for s in streams])
        )


def test_memory_latency_is_skipped_not_stepped():
    cfg = SimConfig()
    cfg.latencies.mem_read = 20
    streams = [
        [CoreOp(OpKind.LOAD, 0x1000 + 16 * i) for i in range(4)],
        [CoreOp(OpKind.STORE, 0x1000 + 16 * i, value=i + 1) for i in range(4)],
    ]
    for make in MODELS.values():
        skipping = counting_steps(make(cfg))
        stats = skipping.run([list(s) for s in streams])
        reference = make(cfg)
        assert outcome(skipping, stats) == outcome(
            reference, every_cycle(reference, [list(s) for s in streams])
        )
        assert skipping.steps < stats.cycles
