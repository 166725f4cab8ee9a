"""The benchmark's four workloads: inputs drawn from the seed, one timed
iteration of each, and the correctness checks counted in failed_frac.

Every iteration starts from freshly built models, so the modelled
caches start empty (users pay those cold misses on every run). Each
simulated core issues its next op only when the previous one has
completed: the load is a closed loop with one client per core.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from culsim import baseline, cli, sim, verify
from reference import timed

WORD_BYTES = 4  # culsim stores 32-bit little-endian words


@dataclass(frozen=True)
class SimWorkload:
    """A synthetic stream run on both the snoop and the directory model."""

    kind: str
    working_set: int
    cores: int
    ops_per_core: int
    monitor: bool


SIM_WORKLOADS = {
    "sharing": SimWorkload("false_sharing", 8, 4, 1000, monitor=False),
    "evicting": SimWorkload("uniform_random", 2000, 2, 2000, monitor=False),
    "checked": SimWorkload("false_sharing", 8, 2, 200, monitor=True),
}

# Racing programs for the explorer: 3 cores x 3 ops over two lines. The
# seed relabels cores, swaps the two lines and renames the stored values;
# such relabelings leave the reachable state count unchanged, so every
# seed explores different concrete states but the same amount of work.
_A, _B = 0x100, 0x110
RACING_SHAPES = (
    ((("R", _A), ("W", _A, 2), ("R", _B)),
     (("R", _B), ("W", _A, 5), ("R", _A)),
     (("W", _B, 7), ("R", _A), ("R", _B))),
    ((("R", _B), ("R", _A), ("R", _A)),
     (("W", _A, 4), ("R", _B), ("R", _B)),
     (("W", _A, 7), ("W", _A, 8), ("R", _A))),
)
ORACLE_MUTATION = "initiator:Store:Shared:silent_upgrade"
LITMUS_CORES = (2, 3, 4)

WORKLOADS = ("sharing", "evicting", "checked", "explore")


@dataclass
class Checks:
    """Counts checked operations; a failure is recorded, never retried."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Iteration:
    setup: List[Sequence[float]]  # (host s, reference s) per set-up
    parts: Dict[str, Sequence[float]]  # (host s, reference s) per timed part
    digest: str
    sim_counts: Dict[str, float]


def _digest(outputs) -> str:
    text = json.dumps(outputs, sort_keys=True, default=str)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _image_hex(image: Dict[int, bytes]) -> Dict[str, str]:
    return {f"{addr:#x}": bytes(data).hex() for addr, data in sorted(image.items())}


# --------------------------------------------------------------------------
# simulator workloads
# --------------------------------------------------------------------------

def expected_image(streams, line_size: int) -> Optional[Dict[int, bytes]]:
    """Final memory image implied by the streams alone, or None when some
    address is stored with two different values (then the image depends
    on the interleaving and this oracle does not apply)."""
    stored: Dict[int, int] = {}
    for ops in streams:
        for op in ops:
            if op.value is not None:
                if stored.setdefault(op.address, op.value) != op.value:
                    return None
    image: Dict[int, bytearray] = {}
    for addr, value in stored.items():
        line = image.setdefault(addr - addr % line_size, bytearray(line_size))
        off = addr % line_size & ~(WORD_BYTES - 1)
        line[off:off + WORD_BYTES] = (value & 0xFFFFFFFF).to_bytes(WORD_BYTES, "little")
    return {addr: bytes(data) for addr, data in image.items()}


def sim_setup(w: SimWorkload, seed: int):
    cfg = sim.SimConfig(n_cores=w.cores, seed=seed)
    cfg.validate()
    spec = cli.WorkloadSpec(
        w.kind, ops_per_core=w.ops_per_core, working_set=w.working_set, seed=seed
    )
    streams = cli.gen_workload(spec, cfg.n_cores, cfg.line_size)
    models = {
        "snoop": sim.build(cfg, monitor=w.monitor),
        "directory": baseline.DirectorySimulation(cfg, monitor=w.monitor),
    }
    return cfg, streams, models


def _accounting_ok(stats, streams) -> bool:
    for cs, ops in zip(stats.cores, streams):
        if cs.ops != len(ops) or cs.hits + cs.misses != cs.loads + cs.stores + cs.ifetches:
            return False
    return len(stats.cores) == len(streams)


def _run_model(model, streams):
    try:
        return model.run(streams)
    except (RuntimeError, AssertionError) as exc:  # monitor trip, deadlock, fault
        return exc


def sim_iteration(w: SimWorkload, seed: int, checks: Checks) -> Iteration:
    (cfg, streams, models), *setup = timed(sim_setup, w, seed)
    parts: Dict[str, Sequence[float]] = {}
    stats, images = {}, {}
    for name, model in models.items():
        result, *parts[name] = timed(_run_model, model, [list(s) for s in streams])
        if not checks.check(not isinstance(result, Exception),
                            f"{name} model: {type(result).__name__}: {result}"):
            continue
        stats[name] = result
        images[name] = model.coherent_image()
        checks.check(_accounting_ok(stats[name], streams),
                     f"{name} model: ops or hits+misses do not add up")
    if len(images) == 2:
        checks.check(images["snoop"] == images["directory"],
                     "snoop and directory final images differ")
    expected = expected_image(streams, cfg.line_size)
    if expected is not None:
        for name, image in images.items():
            extra = {a: d for a, d in image.items() if a not in expected and any(d)}
            got = {a: image.get(a, bytes(cfg.line_size)) for a in expected}
            checks.check(not extra and got == expected,
                         f"{name} model: final image differs from the stored values")
    outputs = {name: st.to_dict() for name, st in stats.items()}
    outputs.update({f"{name}_image": _image_hex(img) for name, img in images.items()})
    counts = _sim_counts(stats)
    counts["ops"] = sum(len(ops) for ops in streams)
    return Iteration([tuple(setup)], parts, _digest(outputs), counts)


def _sim_counts(stats) -> Dict[str, float]:
    """Simulated statistics the report prints; equal on every host."""
    counts: Dict[str, float] = {}
    snoop = stats.get("snoop")
    if snoop is not None:
        hits = sum(c.hits for c in snoop.cores)
        misses = sum(c.misses for c in snoop.cores)
        counts.update({
            "snoop_cycles": snoop.cycles,
            "sim.stall_cycles": sum(c.stall_cycles for c in snoop.cores),
            "sim.avg_miss_latency": float(snoop.avg_miss_latency or 0),
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache.retry_ratio": (
                sum(c.retries for c in snoop.cores) / misses if misses else 0.0
            ),
            "ccu.collision_stalls": snoop.ccu_collision_stalls,
            "ccu.c2c_transfers": snoop.cache_to_cache_transfers,
        })
    directory = stats.get("directory")
    if directory is not None:
        counts.update({
            "directory_cycles": directory.cycles,
            "baseline.collision_stalls": directory.ccu_collision_stalls,
        })
    return counts


# --------------------------------------------------------------------------
# explorer workload
# --------------------------------------------------------------------------

def relabel(shape, rng: random.Random):
    """Rename cores, lines and stored values of a racing program."""
    cores = list(range(len(shape)))
    rng.shuffle(cores)
    lines = {_A: _B, _B: _A} if rng.random() < 0.5 else {_A: _A, _B: _B}
    fresh = list(range(1, 1 + sum(len(p) for p in shape)))
    rng.shuffle(fresh)
    values: Dict[int, int] = {}
    programs = [None] * len(shape)
    for core, prog in zip(cores, shape):
        ops = []
        for op in prog:
            if op[0] == "W":
                ops.append(("W", lines[op[1]], values.setdefault(op[2], fresh[len(values)])))
            else:
                ops.append((op[0], lines[op[1]]))
        programs[core] = tuple(ops)
    return programs


@dataclass(frozen=True)
class ExploreInputs:
    racing: tuple
    racing_config: object
    litmus_configs: tuple


def explore_setup(seed: int, mutations: FrozenSet[str] = frozenset()) -> ExploreInputs:
    rng = random.Random(seed)
    return ExploreInputs(
        racing=tuple(relabel(shape, rng) for shape in RACING_SHAPES),
        racing_config=verify.ExploreConfig(n_cores=3, mutations=mutations),
        litmus_configs=tuple(
            verify.ExploreConfig(n_cores=n, coherent_ifetch=ifetch, mutations=mutations)
            for n in LITMUS_CORES for ifetch in (False, True)
        ),
    )


EXPLORE_SETUP_REPEATS = 20  # one set-up takes well under a millisecond


def _litmus(configs, checks: Checks) -> list:
    out = []
    for cfg in configs:
        for test in verify.COHERENCE_LITMUS:
            res = verify.run_litmus(test, cfg)
            where = f"litmus {test.name} at {cfg.n_cores} cores, ifetch {cfg.coherent_ifetch}"
            checks.check(res["exhausted"] and not res["forbidden_seen"]
                         and not res["violations"], where)
            out.append((where, res["reachable_states"], res["forbidden_seen"],
                        len(res["violations"]), res["observed_outcomes"]))
    return out


def explore_iteration(seed: int, checks: Checks,
                      mutations: FrozenSet[str] = frozenset()) -> Iteration:
    """`mutations` runs the battery that should be clean under mutated
    tables; the benchmark's self-test uses it as a known-bad input."""
    inputs, host, ref = timed(
        lambda: [explore_setup(seed, mutations) for _ in range(EXPLORE_SETUP_REPEATS)][-1]
    )
    setup = [(host / EXPLORE_SETUP_REPEATS, ref / EXPLORE_SETUP_REPEATS)]
    parts: Dict[str, Sequence[float]] = {}
    outputs: Dict[str, object] = {}

    clean, *parts["oracle_clean"] = timed(verify.oracle_tables, mutations=mutations)
    checks.check(clean.ok, "clean oracle not ok: "
                 + "; ".join(v.detail for v in clean.violations[:3]))
    outputs["oracle_clean"] = (clean.ok, clean.reachable_states, clean.table_lines())

    mutated, *parts["oracle_mutated"] = timed(
        verify.oracle_tables, mutations=mutations | {ORACLE_MUTATION}
    )
    checks.check(bool(mutated.violations) and any(v.trace for v in mutated.violations),
                 f"mutation {ORACLE_MUTATION} not caught with a counterexample trace")
    outputs["oracle_mutated"] = (
        mutated.ok, mutated.reachable_states,
        sorted((v.kind, v.detail, len(v.trace or ())) for v in mutated.violations),
    )

    litmus, *parts["litmus"] = timed(_litmus, inputs.litmus_configs, checks)
    outputs["litmus"] = litmus

    racing = []
    for i, programs in enumerate(inputs.racing):
        res, *parts[f"racing{i}"] = timed(
            verify.explore, programs, inputs.racing_config, workers=1
        )
        checks.check(res.exhausted and not res.violations,
                     f"racing program {i} {programs}: exhausted={res.exhausted}, "
                     f"{len(res.violations)} violation(s)")
        racing.append((programs, res.reachable_states, res.exhausted,
                       len(res.violations), sorted(res.outcomes)))
    outputs["racing"] = racing

    racing_states = sum(entry[1] for entry in racing)
    counts = {"verify.states": clean.reachable_states + mutated.reachable_states
              + sum(entry[1] for entry in litmus) + racing_states,
              "oracle_clean_states": clean.reachable_states,
              "oracle_mutated_states": mutated.reachable_states,
              "racing_states": racing_states}
    return Iteration(setup, parts, _digest(outputs), counts)


def run_iteration(workload: str, seed: int, checks: Checks,
                  sizes: Optional[Dict[str, SimWorkload]] = None) -> Iteration:
    if workload == "explore":
        return explore_iteration(seed, checks)
    return sim_iteration((sizes or SIM_WORKLOADS)[workload], seed, checks)
