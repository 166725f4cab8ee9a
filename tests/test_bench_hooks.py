"""Every entry point the benchmark's traced run wraps must exist.

`Tracer.install` skips a hook whose target is gone and reports its
metrics as absent, so a refactor that renames one would silently drop
per-layer numbers; this test makes that loud instead.
"""
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_bench_hook_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.names == [hook.name for hook in spans.HOOKS]
