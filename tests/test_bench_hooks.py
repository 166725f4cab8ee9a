"""Every entry point the benchmark's traced run wraps must exist, and
every timed-model one must still be called.

`Tracer.install` skips a hook whose target is gone and reports its
metrics as absent, so a refactor that renames one would silently drop
per-layer numbers; and a refactor that stops calling a hooked method
leaves its metric reading 0. This test makes both loud instead.
"""
import importlib.util
import sys
from pathlib import Path

from culsim.baseline import DirectorySimulation
from culsim.protocol import CoreOp, OpKind
from culsim.sim import SimConfig, build

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# the modules whose every hook a monitored run of both models calls
TIMED_MODULES = ("culsim.sim", "culsim.cache", "culsim.ccu", "culsim.memsys",
                 "culsim.baseline")
MONITOR_HOOKS = ("verify.check_swmr", "verify.check_value")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up
    spec.loader.exec_module(spans)
    return spans


def test_every_bench_hook_resolves():
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.names == [hook.name for hook in spans.HOOKS]


def evicting_streams():
    """Both cores store to and read back three lines of one set of a
    one-way cache: the later core's misses are served by snoops, and its
    fills evict dirty lines, whose write-backs drain to memory."""
    lines = (0x000, 0x040, 0x080)  # one set of a 64-byte, one-way cache
    return [
        [op for i, line in enumerate(lines) for op in (
            CoreOp(OpKind.STORE, line, value=core * 8 + i + 1), CoreOp(OpKind.LOAD, line))]
        for core in range(2)
    ]


def test_every_timed_model_hook_is_called():
    spans = load_spans()
    tracer = spans.Tracer()
    config = SimConfig(cache_size=64, ways=1)
    try:
        tracer.install()
        for sim in (build(config, monitor=True), DirectorySimulation(config, monitor=True)):
            sim.run(evicting_streams())
            sim.coherent_image()
    finally:
        tracer.uninstall()
    calls = {name: record["calls"] for name, record in tracer.summarize().items()}
    hooked = [hook.name for hook in spans.HOOKS
              if hook.module in TIMED_MODULES or hook.name in MONITOR_HOOKS]
    assert len(hooked) == 21
    assert [name for name in hooked if not calls[name]] == []
