"""Closed-form uncontended miss latencies of both timed models.

Each row gives the cycles from a miss to its fill, as a formula in
`Latencies`, for one op of core 0 on an otherwise idle cluster, in the
snoop model and in the directory: a cold load miss that memory serves,
a load miss that a core holding the line Modified serves cache to
cache, and an ifetch miss that fills the non-coherent icache from
memory. The L1 hit latency is drawn too, and is in no row. The README
quotes the table.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from culsim.baseline import DirectorySimulation
from culsim.protocol import CoreOp, OpKind
from culsim.sim import Latencies, SimConfig, build

LINE = 0x40

# miss path -> (the op of the last core before it, core 0's op that
# misses, whether a core serves it, snoop model's cycles, directory's)
ROWS = {
    "cold load": (
        None, OpKind.LOAD, 0,
        lambda lat: 2 * lat.ccu_stage + 2 * lat.snoop_hop + lat.mem_read + 1,
        lambda lat: 3 + 2 * lat.snoop_hop + lat.ccu_stage + lat.mem_read),
    "cache-to-cache load": (
        OpKind.STORE, OpKind.LOAD, 1,
        lambda lat: 2 * lat.ccu_stage + 2 * lat.snoop_hop,
        lambda lat: 2 + 3 * lat.snoop_hop + lat.ccu_stage),
    "non-coherent ifetch": (
        None, OpKind.IFETCH, 0,
        lambda lat: lat.ccu_stage + lat.mem_read + 1,
        lambda lat: lat.ccu_stage + lat.mem_read + 1),
}

latencies = st.builds(Latencies, l1_hit=st.integers(1, 4), snoop_hop=st.integers(1, 4),
                      ccu_stage=st.integers(1, 4), mem_read=st.integers(1, 40))


def miss_latency(sim, streams):
    """The cycles the one miss of `streams` took, and how many misses a
    core served."""
    stats = sim.stats
    before = (stats.miss_latency_total, stats.miss_count, stats.cache_to_cache_transfers)
    stats = sim.run(streams)
    assert stats.miss_count == before[1] + 1
    return (stats.miss_latency_total - before[0],
            stats.cache_to_cache_transfers - before[2])


@pytest.mark.parametrize("path", ROWS)
@settings(max_examples=40, deadline=None)
@given(lat=latencies, n_cores=st.integers(2, 4))
def test_an_uncontended_miss_takes_its_closed_form_latency(path, lat, n_cores):
    first, op, served, snoop, directory = ROWS[path]
    idle = [[] for _ in range(n_cores - 1)]
    for model, cycles in ((build, snoop), (DirectorySimulation, directory)):
        sim = model(SimConfig(n_cores=n_cores, latencies=lat))
        if first is not None:  # the last core stores the line: it holds it Modified
            sim.run(idle + [[CoreOp(first, LINE, value=5)]])
        got = miss_latency(sim, [[CoreOp(op, LINE)]] + idle)
        assert got == (cycles(lat), served), model.__name__
