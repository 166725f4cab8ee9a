"""`run()` skips cycles in which nothing can act, counts the ops left,
stops once none is left and no write-back waits, and issues only once a
port may take an op; a cycle-by-cycle loop over `step()` that calls the
issue stage in every step must reach the same stats, observations,
final image and cycle on every model, also when a model runs again or
gets ops between steps. The loop also counts stall
cycles the per-step way, one per port that ends a step holding an op,
as an oracle for the per-op stall intervals the models count."""
from dataclasses import replace

from hypothesis import HealthCheck, given, settings

from culsim.baseline import DirectorySimulation
from culsim.protocol import CoreOp, OpKind
from culsim.sim import SimConfig, build

from test_cache_index import one_at_a_time, runs

MODELS = {
    "snoop": lambda cfg: build(cfg, monitor=True),
    "capacity 1": lambda cfg: build(one_at_a_time(cfg), monitor=True),
    # the directory has no coherent icache
    "directory": lambda cfg: DirectorySimulation(
        replace(cfg, coherent_ifetch=False), monitor=True),
}


def one_step(sim, gated, stalls):
    """Step once, with the issue stage called unless `gated`; each port
    that ends the step holding an op counts a stall cycle in `stalls`."""
    if not gated:
        sim._issue_at = 0
    sim.step()
    for core, port in enumerate(sim.ports):
        if port.current is not None:
            stalls[core] += 1


def work_left(sim):
    """A port holds an op or has ops to issue, or a write-back waits:
    every other queue entry belongs to an op not yet retired."""
    return bool(sim.mem_port.wb) or any(p.stream or p.current is not None for p in sim.ports)


def every_cycle(sim, streams, gated=False, stalls=None):
    """The reference: one step() per simulated cycle until the work drains,
    by default with the issue stage called in every step. The per-step
    stall counts, from the model's own when no op is in flight, must
    equal the models' per-core stall_cycles."""
    for port, ops in zip(sim.ports, streams):
        port.stream.extend(ops)
    if stalls is None:
        stalls = [c.stall_cycles for c in sim.stats.cores]
    while work_left(sim):
        one_step(sim, gated, stalls)
        assert sim.cycle < 100_000, "reference run does not drain"
    assert [c.stall_cycles for c in sim.stats.cores] == stalls
    return sim.stats


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_next_event_is_now_in_every_cycle_a_step_makes_progress(run):
    """The contract of the skip: `_next_event` reads only what a model
    declares (`_timed`, the Decoder, the write-back FIFO and the ports),
    so a queue left out of the declaration shows here as a step that acts
    in a cycle the scan would have skipped."""
    cfg, streams = run
    for name, make in MODELS.items():
        sim = make(cfg)
        for port, ops in zip(sim.ports, streams):
            port.stream.extend(ops)
        while work_left(sim):
            now = sim.cycle
            t = sim._next_event(now)
            one_step(sim, False, [0] * cfg.n_cores)
            assert t == now or not sim._progress, f"{name}: acts in cycle {now}, scan says {t}"
            assert sim.cycle < 100_000, "run does not drain"


def halves(streams):
    """Each core's first and second half of its ops (the models copy the
    ops they are fed)."""
    return ([s[: len(s) // 2] for s in streams], [s[len(s) // 2:] for s in streams])


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


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_second_run_of_a_warmed_model_matches_every_cycle_reference(run):
    cfg, streams = run
    first, second = halves(streams)
    for make in MODELS.values():
        warmed = make(cfg)
        warmed.run(first)
        stats = warmed.run(second)
        reference = make(cfg)
        every_cycle(reference, first)
        assert outcome(warmed, stats) == outcome(
            reference, every_cycle(reference, second)
        )


def staggered(sim, streams, gated):
    """Append each core's ops one step after the previous core's, to
    ports drained or still busy, then step until the work drains."""
    stalls = [c.stall_cycles for c in sim.stats.cores]
    for port, ops in zip(sim.ports, streams):
        port.stream.extend(ops)
        one_step(sim, gated, stalls)
    return every_cycle(sim, [[] for _ in streams], gated, stalls)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_ops_appended_between_steps_match_every_cycle_reference(run):
    cfg, streams = run
    first, second = halves(streams)
    for make in MODELS.values():
        appended = make(cfg)
        appended.run(first)
        stats = staggered(appended, second, gated=True)
        reference = make(cfg)
        every_cycle(reference, first)
        assert outcome(appended, stats) == outcome(
            reference, staggered(reference, second, gated=False)
        )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_a_run_ends_with_nothing_in_flight(run):
    """`run` stops once no op is left and the write-back FIFO is empty:
    every other queue entry, transaction and request belongs to an op
    not yet retired, so nothing of the fabric may outlive the ops."""
    cfg, streams = run
    for name, make in MODELS.items():
        sim = make(cfg)
        sim.run([list(s) for s in streams])
        decoder = sim.decoder
        assert not any(sim._timed) and not sim.mem_port.wb, name
        assert not decoder.pending and decoder.hold is None and not decoder.in_flight, name
        if isinstance(sim, DirectorySimulation):
            assert not sim.wake and not sim.txns, name
        else:
            assert not sim.ccu.txns and not sim.ccu.ready, name
        assert all(p.current is None and not p.stream for p in sim.ports), name
        assert all(cache.miss is None for cache in sim.caches), name
