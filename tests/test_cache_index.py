"""Cross-check of CacheModel's address index against a full scan of the
way arrays, step by step (each line's stored address checked against the
set it sits in), on tiny configurations of both models with
drawn latencies, write-back FIFO depth and collision capacity."""
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from culsim.baseline import DirectorySimulation
from culsim.protocol import CoreOp, OpKind
from culsim.sim import FifoDepths, Latencies, SimConfig, build

LINE = 16
LINES = [0x1000 + i * LINE for i in range(10)]


def scan(cache, icache):
    """Every valid line and its address, found by walking all sets: the
    reference. A set not yet built (None) holds no valid line, and each
    valid line's address is a line address that maps to its set."""
    arrays = cache.isets if icache else cache.sets
    found = []
    for set_idx, ways in enumerate(arrays):
        for line in ways or ():
            if line.state.is_valid:
                assert line.addr % cache.line_size == 0
                assert line.addr // cache.line_size % cache.n_sets == set_idx
                found.append((line.addr, line))
    return found


def assert_index_matches_scan(cache):
    for icache in (False, True):
        expected = scan(cache, icache)
        assert sorted((a, id(line)) for a, line in cache.valid_lines(icache)) == sorted(
            (a, id(line)) for a, line in expected
        )
        by_addr = dict(expected)
        for addr in LINES:
            assert cache.lookup(addr + 4, icache=icache) is by_addr.get(addr)


ops = st.one_of(
    st.builds(lambda a: CoreOp(OpKind.LOAD, a), st.sampled_from(LINES)),
    st.builds(lambda a, v: CoreOp(OpKind.STORE, a, value=v),
              st.sampled_from(LINES), st.integers(1, 255)),
    st.builds(lambda a: CoreOp(OpKind.IFETCH, a), st.sampled_from(LINES)),
)


@st.composite
def runs(draw):
    ways = draw(st.sampled_from([1, 2]))
    cfg = SimConfig(
        n_cores=draw(st.integers(2, 4)),
        line_size=LINE,
        cache_size=draw(st.sampled_from([32, 64, 128])),
        ways=ways,
        coherent_ifetch=draw(st.booleans()),
        latencies=Latencies(
            l1_hit=draw(st.integers(1, 3)),
            snoop_hop=draw(st.integers(1, 3)),
            ccu_stage=draw(st.integers(1, 3)),
            mem_read=draw(st.integers(1, 20)),
        ),
        # capacity 1 makes both models stall in the shared Decoder
        fifo_depths=FifoDepths(
            writeback=draw(st.integers(1, 2)),
            collision_capacity=draw(st.sampled_from([1, 2, 8])),
        ),
    )
    streams = [draw(st.lists(ops, max_size=12)) for _ in range(cfg.n_cores)]
    return cfg, streams


def one_at_a_time(cfg):
    """`cfg` with a collision capacity of 1: the Decoder admits one
    coherent transaction at a time."""
    return replace(cfg, fifo_depths=replace(cfg.fifo_depths, collision_capacity=1))


def checked_every_step(sim):
    step = sim.step

    def step_and_check():
        step()
        for cache in sim.caches:
            assert_index_matches_scan(cache)

    sim.step = step_and_check
    return sim


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_index_agrees_with_full_scan_every_step(run):
    cfg, streams = run
    # the directory has no coherent icache: its ifetches fill non-coherently
    directory = DirectorySimulation(replace(cfg, coherent_ifetch=False), monitor=True)
    for sim in (build(cfg, monitor=True), directory):
        checked_every_step(sim).run([list(s) for s in streams])
