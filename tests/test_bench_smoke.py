"""Explorer throughput in the Tier-1 output (pytest-benchmark).

One timed round of the first racing shape of the benchmark; the state
count and verdict are pinned by the golden test, so this only times it.
"""
from culsim.verify import ExploreConfig, explore
from test_explore_golden import RACING_SHAPES


def test_explore_racing_program(benchmark):
    result = benchmark.pedantic(explore, args=(RACING_SHAPES[0], ExploreConfig(n_cores=3)),
                                rounds=1, iterations=1)
    assert result.exhausted and result.reachable_states > 0
