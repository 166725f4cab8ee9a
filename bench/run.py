"""culsim benchmark: one command, four workloads, checked outputs.

    python3 bench/run.py [--workload sharing|evicting|checked|explore|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each workload repeats its iteration for
--seconds of host time and reports medians and quartiles over the
iterations. --trace 0 prints the end-to-end metrics; --trace 1 first
runs untraced, then wraps culsim's entry points (see spans.py), prints
the per-layer metrics and the tracing overhead, and writes the spans to
.bench_out/spans-<workload>.bin. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See
bench/README.md for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import timed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"
IMPORT_REPEATS = 5
SPAN_BUDGET = 1_000_000  # about 40 MB of spans; bounds the traced run's memory
NOTE = ("simulated figures come from an unvalidated model (no latency is "
        "calibrated against hardware); modelled caches start empty on every iteration")

clock = time.perf_counter


def load_culsim() -> list:
    """Import culsim from SRC several times from a clean module table and
    return the (host s, reference s) import times; the modules of the
    last import stay loaded."""
    if not (SRC / "culsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no culsim sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    samples = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m == "culsim" or m.startswith("culsim.")]:
            del sys.modules[name]
        _, host, ref = timed(importlib.import_module, "culsim.cli")
        samples.append((host, ref))
    return samples


def quartiles(xs):
    """(q1, median, q3) of the samples."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(battery, workload, seed, seconds, checks, sizes=None):
    """Run iterations until `seconds` of host time have passed (at least
    one); every iteration must reproduce the first one's digest."""
    iterations = []
    t_end = clock() + seconds
    while not iterations or clock() < t_end:
        iterations.append(battery.run_iteration(workload, seed, checks, sizes))
    same_digest(checks, iterations[1:], iterations[0].digest, "the first iteration's")
    return iterations


def same_digest(checks, iterations, digest, whose):
    for it in iterations:
        checks.check(it.digest == digest, f"iteration digest differs from {whose}")


class Report:
    """Human-readable report lines for one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.lines = []

    def row(self, name, samples, unit):
        """A metric's median, quartiles and sample count; returns the median."""
        q1, med, q3 = quartiles(samples)
        self.lines.append(
            f"{self.workload:9s} {name:28s} {med:14.6g} {unit:8s}"
            f" q1 {q1:.6g}  q3 {q3:.6g}  n {len(samples)}"
        )
        return med

    def text(self, text):
        self.lines.append(f"{self.workload:9s} {text}")


def _totals(iterations, which):
    """Per iteration: summed host (0) or reference (1) seconds of its parts."""
    return [sum(part[which] for part in it.parts.values()) for it in iterations]


def end_to_end(workload, iterations, import_s, checks, report):
    parts = {p: [it.parts[p][0] for it in iterations] for p in iterations[0].parts}
    setups = [s for it in iterations for s in it.setup]
    counts = iterations[0].sim_counts

    report.row("import_s", [h for h, _ in import_s], "s")
    report.row("model_setup_s", [h for h, _ in setups], "s")
    setup_s = (statistics.median(r for _, r in import_s)
               + statistics.median(r for _, r in setups))
    report.text(f"{'setup_s':28s} {setup_s:14.6g} ref-s    import + model set-up medians")
    host = _totals(iterations, 0)
    ref = _totals(iterations, 1)
    report.row("wall_s", host, "s")
    wall_ref_s = report.row("wall_ref_s", ref, "ref-s")
    report.row("host_speed", [r / h for r, h in zip(ref, host)], "ratio")
    for part, samples in parts.items():
        report.row(f"{part}_s", samples, "s")
    if workload == "explore":
        report.row("explore_states_per_s", [counts["verify.states"] / t for t in host], "1/s")
    else:
        for model in ("snoop", "directory"):
            if f"{model}_cycles" in counts and model in parts:
                report.row(f"{model}_cycles_per_s",
                           [counts[f"{model}_cycles"] / t for t in parts[model]], "1/s")
                report.row(f"{model}_ops_per_s",
                           [counts["ops"] / t for t in parts[model]], "1/s")
    rss = peak_rss_mb()
    report.text(f"{'peak_rss_mb':28s} {rss:14.6g} MB       process peak so far")
    failed = len(checks.failures)
    report.text(f"{'failed_frac':28s} {failed / checks.attempted:14.6g} ratio"
                f"    {failed} failed of {checks.attempted} checked operations")
    for what in checks.failures[:20]:
        report.text(f"FAILED: {what}")
    report.text(f"digest {iterations[0].digest}")
    for key, value in counts.items():
        report.text(f"{'sim ' + key:28s} {value:14.6g}")
    return {
        "wall_ref_s": {"value": wall_ref_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


# hooks whose calls, inclusive time and self time are per-layer metrics
_CALLS = ("sim.step", "cache.core_access", "cache.handle_snoop", "cache.miss_complete",
          "cache.valid_lines", "ccu.submit", "memsys.read", "memsys.write",
          "baseline.step", "verify.check_swmr", "verify.check_value",
          "verify.explore", "verify.successors")
_INCLUSIVE = ("sim.snapshot_invariants", "cache.core_access", "cache.handle_snoop",
              "cache.miss_complete", "cache.valid_lines", "ccu.decoder_step",
              "ccu.snoop_unit_step", "ccu.completion_step", "ccu.memory_unit_step",
              "ccu.take_r", "memsys.take_completions", "baseline.snapshot_invariants",
              "verify.check_swmr", "verify.check_value", "verify.successors",
              "verify.state_violations", "verify.attach_traces", "cli.gen_workload")
_SELF = ("sim.step", "sim.run", "baseline.step", "baseline.run", "verify.explore")
_SIM_COUNTS = (("sim.stall_cycles", "cycles"), ("sim.avg_miss_latency", "cycles"),
               ("cache.hit_ratio", "ratio"), ("cache.retry_ratio", "ratio"),
               ("ccu.collision_stalls", "cycles"), ("baseline.collision_stalls", "cycles"))


def per_layer(summary, n, counts, overhead, spans_per_iteration):
    """Per-layer metrics, per traced iteration. A metric whose hook is
    missing from the program is left out (absent), not failed."""
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for hook in _CALLS:
        if hook in summary:
            put(f"{hook}.calls", summary[hook]["calls"] / n, "count")
    for hook in _INCLUSIVE:
        if hook in summary:
            put(f"{hook}.s", summary[hook]["s"] / n, "s")
    for hook in _SELF:
        if hook in summary:
            put(f"{hook}.self_s", summary[hook]["self_s"] / n, "s")
    step = summary.get("sim.step")
    if step is not None and not step["absent"]:
        put("sim.step.idle_frac", step["value"] / step["calls"] if step["calls"] else 0.0,
            "ratio")
    explore = summary.get("verify.explore")
    if explore is not None:
        put("verify.states", explore["value"] / n, "count")
        succ = summary.get("verify.successors")
        if succ is not None:
            found = explore["value"] - explore["calls"]  # roots are not successors
            put("verify.new_state_ratio", found / succ["value"] if succ["value"] else 0.0,
                "ratio")
    submit = summary.get("ccu.submit")
    if submit is not None:
        c2c = counts.get("ccu.c2c_transfers", 0)
        per_iter = submit["calls"] / n
        put("ccu.c2c_ratio", c2c / per_iter if per_iter else 0.0, "ratio")
    for name, unit in _SIM_COUNTS:
        put(name, counts.get(name, 0), unit)
    put("trace.overhead_ratio", overhead, "ratio")
    put("trace.spans", spans_per_iteration, "count")
    return metrics


def traced_run(battery, workload, seed, seconds, checks, report, sizes=None):
    """A third of `seconds` untraced, then traced iterations until the time
    is up or SPAN_BUDGET spans are held, then untraced for what is left."""
    import spans

    t_end = clock() + seconds
    untraced = measure(battery, workload, seed, seconds / 3, checks, sizes)
    tracer = spans.Tracer()
    tracer.install()
    traced = []
    try:
        while not traced or (clock() < t_end and len(tracer) < SPAN_BUDGET):
            tracer.iteration = len(traced)
            traced.append(battery.run_iteration(workload, seed, checks, sizes))
    finally:
        tracer.uninstall()
    if clock() < t_end:
        more = measure(battery, workload, seed, t_end - clock(), checks, sizes)
        same_digest(checks, more, untraced[0].digest, "the untraced run's")
        untraced += more
    same_digest(checks, traced, untraced[0].digest, "the untraced run's")
    path = SPAN_DIR / f"spans-{workload}.bin"
    tracer.write(path)
    wall_untraced = statistics.median(_totals(untraced, 1))
    wall_traced = statistics.median(_totals(traced, 1))
    overhead = wall_traced / wall_untraced
    summary = tracer.summarize()
    n = len(traced)
    metrics = per_layer(summary, n, traced[0].sim_counts, overhead, len(tracer) / n)
    missing = sorted(tracer.missing)
    report.text(f"traced {n} iteration(s), untraced {len(untraced)}; "
                f"wall_ref_s untraced {wall_untraced:.6g}, traced {wall_traced:.6g}")
    report.text(f"spans written to {path.relative_to(ROOT)} ({len(tracer)} spans)")
    if missing:
        report.text(f"absent (hook target missing): {', '.join(missing)}")
    for name, m in metrics.items():
        report.text(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    failed = len(checks.failures)
    report.text(f"{'failed_frac':34s} {failed / checks.attempted:14.6g} ratio")
    for what in checks.failures[:20]:
        report.text(f"FAILED: {what}")
    report.text(f"digest {traced[0].digest}")
    return metrics


def run_workload(workload, seed, seconds, trace, import_s, sizes=None):
    """One workload: returns (report lines, checks, metrics)."""
    import battery

    checks = battery.Checks()
    report = Report(workload)
    report.text(f"seed {seed}, {seconds:g} s, trace {int(trace)}; closed loop, one "
                "client per simulated core; one process, no workers")
    report.text(NOTE)
    if trace:
        metrics = traced_run(battery, workload, seed, seconds, checks, report, sizes)
    else:
        iterations = measure(battery, workload, seed, seconds, checks, sizes)
        metrics = end_to_end(workload, iterations, import_s, checks, report)
    return report.lines, checks, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("sharing", "evicting", "checked", "explore", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_s = load_culsim()
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: cannot load culsim: {exc}", file=sys.stderr)
        return 2
    import battery

    workloads = battery.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        lines, checks, m = run_workload(workload, args.seed, args.seconds,
                                        args.trace, import_s)
        print("\n".join(lines), flush=True)
        attempted += checks.attempted
        failed += len(checks.failures)
        if args.workload == "all":
            m = {f"{workload}.{k}": v for k, v in m.items()}
        metrics.update(m)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
