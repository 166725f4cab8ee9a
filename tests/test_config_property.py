"""Every config that `SimConfig.validate` accepts runs: a drawn geometry,
latency and FIFO depth either is refused by `validate()` with a
ConfigError, and then `culsim run` exits 5, or both models finish a short
`uniform_random` run with the per-cycle monitors on."""
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from culsim.cache import ConfigError
from culsim.cli import EXIT_BAD_INPUT, EXIT_OK, main
from culsim.sim import FifoDepths, Latencies, SimConfig


# a field and a value `validate` must refuse
BROKEN = [("ways", 0), ("line_size", 2), ("line_size", 6), ("latencies.l1_hit", 0),
          ("latencies.snoop_hop", 0), ("latencies.ccu_stage", 0), ("latencies.mem_read", 0),
          ("fifo_depths.writeback", 0), ("fifo_depths.collision_capacity", 0),
          ("cache_size", 1 << 21)]


@st.composite
def configs(draw):
    ways = draw(st.integers(1, 4))
    line_size = draw(st.sampled_from([4, 16, 32]))
    cfg = SimConfig(
        n_cores=draw(st.integers(2, 4)),
        line_size=line_size,
        # a multiple of one set, zero and negative ones included, sometimes
        # plus a byte so that no set size divides it
        cache_size=(draw(st.integers(-2, 8)) * ways * line_size
                    + draw(st.sampled_from([0, 0, 0, 1]))),
        ways=ways,
        coherent_ifetch=draw(st.booleans()),
        latencies=Latencies(*(draw(st.integers(1, 3)) for _ in range(3)),
                            mem_read=draw(st.integers(1, 20))),
        fifo_depths=FifoDepths(writeback=draw(st.integers(1, 3)),
                               collision_capacity=draw(st.integers(1, 3))),
    )
    if draw(st.integers(0, 3)) == 0:
        key, value = draw(st.sampled_from(BROKEN))
        group, _, sub = key.rpartition(".")
        setattr(getattr(cfg, group) if group else cfg, sub, value)
    return cfg


def config_text(cfg):
    lines = []
    for key, value in cfg.to_dict().items():
        if isinstance(value, dict):
            lines += [f"{key}.{sub} = {v}" for sub, v in value.items()]
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_accepted_config_runs(cfg):
    try:
        cfg.validate()
        expected = EXIT_OK
    except ConfigError:
        expected = EXIT_BAD_INPUT
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sim.cfg"
        path.write_text(config_text(cfg))
        code = main(["run", "--model", "both", "--config", str(path), "--check",
                     "--workload", "uniform_random", "--ops", "30", "--working-set", "6",
                     "--report", str(Path(tmp) / "report.json")])
    assert code == expected
