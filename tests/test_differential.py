"""Differential stress test: the snoop model, the snoop model with a
collision capacity of 1 (one coherent transaction at a time), and the
directory baseline, all with
their per-cycle monitors on, must end with the same coherent memory
image. Every store writes a value fixed by its address, so the final
image does not depend on the interleaving."""
from dataclasses import replace

from hypothesis import HealthCheck, given, settings

from culsim.baseline import DirectorySimulation
from culsim.protocol import CoreOp, OpKind
from culsim.sim import build
from test_cache_index import one_at_a_time, runs


def address_valued(op):
    if op.kind is OpKind.STORE:
        return CoreOp(OpKind.STORE, op.address, value=(op.address >> 4) & 0xFF)
    return op


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_models_agree_on_the_final_image(run):
    cfg, streams = run
    streams = [[address_valued(op) for op in s] for s in streams]
    images = []
    # the directory has no coherent icache; ifetches write no memory
    for sim in (build(cfg, monitor=True), build(one_at_a_time(cfg), monitor=True),
                DirectorySimulation(replace(cfg, coherent_ifetch=False), monitor=True)):
        sim.run([list(s) for s in streams])
        images.append(sim.coherent_image())
    assert images[0] == images[1] == images[2]
