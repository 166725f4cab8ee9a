"""Operator surface: traces, synthetic workloads, experiment and
verification runs with machine-readable JSON reports.

Exit codes (also in --help): 0 success, 1 coherence violation or
forbidden litmus outcome, 2 usage error, 3 explorer budget exceeded,
4 deadlock, 5 malformed input (config/trace/litmus/image) or a file that
cannot be read or written.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

from . import baseline
from .cache import ConfigError, PHYS_ADDR_BITS, WORD_BYTES
from .memsys import MemoryFault
from .protocol import LOAD, MUTATIONS, STORE, CoreOp, OpKind
from .sim import (
    WATCHDOG_CYCLES,
    CoherenceViolation,
    DeadlockError,
    SimConfig,
    _format_fraction,
    build,
    check_watchdog,
    parse_config,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_DEADLOCK = 4
EXIT_BAD_INPUT = 5

WORKLOAD_KINDS = (
    "private",
    "producer_consumer",
    "migratory",
    "false_sharing",
    "read_mostly",
    "uniform_random",
)

_BASE_ADDR = 0x1000


class TraceError(ValueError):
    pass


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str
    ops_per_core: int = 1000
    working_set: int = 8
    sharing_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(f"unknown workload kind '{self.kind}'")
        if not 0.0 <= self.sharing_fraction <= 1.0:
            raise ValueError("sharing_fraction must be within [0, 1]")
        if self.working_set < 1:
            raise ValueError(f"working_set: {self.working_set} must be >= 1")
        if self.ops_per_core < 0:
            raise ValueError(f"ops_per_core: {self.ops_per_core} must be >= 0")


def _value_of(addr: int) -> int:
    # write values are a pure function of the address so that racing
    # writes reach the same final image under any interleaving or model
    return (addr ^ 0x9E3779B9) & 0xFFFFFFFF


def gen_workload(spec: WorkloadSpec, n_cores: int, line_size: int) -> List[List[CoreOp]]:
    """Deterministic per-core op streams for a synthetic sharing pattern.

    The shared set is `working_set` lines from _BASE_ADDR; each core's
    private set is the next `working_set` lines, core by core. A line is
    drawn by its index in its set. A spec whose kind draws from a set
    that reaches past the physical address range is refused before any
    draw."""
    ws = spec.working_set
    private_base = _BASE_ADDR + ws * line_size
    # the highest line the kind can draw from: the last core's private
    # set, unless it draws only from the shared set
    if spec.kind == "private" or (
        spec.kind in ("read_mostly", "uniform_random") and spec.sharing_fraction < 1
    ):
        top = private_base + (n_cores * ws - 1) * line_size
    else:
        top = private_base - line_size
    if top + line_size > 1 << PHYS_ADDR_BITS:
        raise ConfigError(
            f"working_set: {ws} lines of {line_size} bytes reach {top:#x} for "
            f"{spec.kind} on {n_cores} cores, outside the physical address range")
    kind, sharing = spec.kind, spec.sharing_fraction
    streams: List[List[CoreOp]] = []
    for core in range(n_cores):
        rng = random.Random((spec.seed * 0x9E3779B97F4A7C15 + core + 1) & (2**64 - 1))
        draw, pick = rng.random, rng.randrange
        mine = private_base + core * ws * line_size
        ops: List[CoreOp] = []
        append = ops.append
        for i in range(spec.ops_per_core):
            if kind == "private":
                addr = mine + pick(ws) * line_size
                write = draw() < 0.5
            elif kind == "producer_consumer":
                addr = _BASE_ADDR + i % ws * line_size
                write = core == 0
            elif kind == "migratory":
                addr = _BASE_ADDR + (i // 2) % ws * line_size
                write = i % 2 == 1
            elif kind == "false_sharing":
                addr = _BASE_ADDR + i % ws * line_size + (core * WORD_BYTES) % line_size
                write = draw() < 0.5
            elif kind == "read_mostly":
                base = _BASE_ADDR if draw() < sharing else mine
                addr = base + pick(ws) * line_size
                write = draw() < 0.05
            else:  # uniform_random
                base = _BASE_ADDR if draw() < sharing else mine
                addr = base + pick(ws) * line_size
                write = draw() < 0.5
            if write:
                append(CoreOp(STORE, addr, _value_of(addr)))
            else:
                append(CoreOp(LOAD, addr))
        streams.append(ops)
    return streams


def parse_trace(text: str, n_cores: int) -> List[List[CoreOp]]:
    """Parse a trace: one op per line, `<core> <R|W|IF> <addr> [<value>]`,
    `#` comments, values required exactly for W. Errors carry the line
    and column of the offending field."""
    streams: List[List[CoreOp]] = [[] for _ in range(n_cores)]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        fields = []
        col = 0
        for chunk in line.split(" "):
            if chunk:
                fields.append((chunk, col + 1))
            col += len(chunk) + 1

        def fail(msg: str, column: int):
            raise TraceError(f"trace line {lineno}, column {column}: {msg}")

        if len(fields) < 3:
            fail("expected `<core> <R|W|IF> <addr> [<value>]`", len(line) + 1)
        (core_txt, c1), (op_txt, c2), (addr_txt, c3) = fields[:3]
        try:
            core = int(core_txt)
        except ValueError:
            fail(f"bad core id '{core_txt}'", c1)
        if not 0 <= core < n_cores:
            fail(f"core id {core} out of range for {n_cores} cores", c1)
        if op_txt not in ("R", "W", "IF"):
            fail(f"unknown op '{op_txt}'", c2)
        try:
            addr = int(addr_txt, 16)
        except ValueError:
            fail(f"bad address '{addr_txt}'", c3)
        if not 0 <= addr < 1 << PHYS_ADDR_BITS:
            fail(f"address '{addr_txt}' outside the physical address range", c3)
        if op_txt == "W":
            if len(fields) < 4:
                fail("store requires a value", len(line) + 1)
            val_txt, c4 = fields[3]
            try:
                value = int(val_txt, 16)
            except ValueError:
                fail(f"bad value '{val_txt}'", c4)
            if not 0 <= value < 1 << 8 * WORD_BYTES:
                fail(f"value '{val_txt}' outside the {8 * WORD_BYTES}-bit word range", c4)
            if len(fields) > 4:
                fail("trailing fields", fields[4][1])
            streams[core].append(CoreOp(OpKind.STORE, addr, value=value))
        else:
            if len(fields) > 3:
                fail("only stores carry a value", fields[3][1])
            kind = OpKind.LOAD if op_txt == "R" else OpKind.IFETCH
            streams[core].append(CoreOp(kind, addr))
    return streams


# --------------------------------------------------------------------------
# experiment runner
# --------------------------------------------------------------------------

def _read_text(path: str) -> str:
    """The text of an input file; one that is not UTF-8 is malformed
    input, named by its path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None


def _report_to(path: Optional[str]):
    """Where a run's JSON report goes: the --report file, opened here,
    before anything runs, so that one that cannot be written fails
    first; else stdout."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _load_config(args) -> SimConfig:
    if args.config:
        cfg = parse_config(_read_text(args.config))
    else:
        cfg = SimConfig()
    if args.cores is not None:
        cfg.n_cores = args.cores
    if args.coherent_ifetch:
        cfg.coherent_ifetch = True
    seed_source = None
    env_seed = os.environ.get("CULSIM_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed, 0)
        except ValueError as exc:
            raise ConfigError(f"CULSIM_SEED: {env_seed!r} is not an integer") from exc
        seed_source = "CULSIM_SEED"
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
        seed_source = "--seed"
    if seed_source is not None:
        cfg.check_seed(seed_source)
    cfg.validate()
    return cfg


def _image_hex(image: Dict[int, bytes]) -> Dict[str, str]:
    return {f"{addr:#x}": data.hex() for addr, data in sorted(image.items())}


def _build(model: str, cfg: SimConfig, streams, args):
    """The model, once it has checked the streams, with its memory image."""
    if model == "snoop":
        sim = build(cfg, monitor=args.check)
    else:
        sim = baseline.DirectorySimulation(cfg, monitor=args.check)
    sim.check_streams(streams)
    if args.mem_image:
        sim.mem.load_image(_read_text(args.mem_image))
    return sim


def _run(sim, streams, args):
    stats = sim.run([list(s) for s in streams], watchdog=args.watchdog)
    return stats, sim.coherent_image()


def run_experiment(args) -> int:
    cfg = _load_config(args)
    if args.trace:
        streams = parse_trace(_read_text(args.trace), cfg.n_cores)
    else:
        spec = WorkloadSpec(
            kind=args.workload,
            ops_per_core=args.ops,
            working_set=args.working_set,
            sharing_fraction=args.sharing,
            seed=cfg.seed,
        )
        streams = gen_workload(spec, cfg.n_cores, cfg.line_size)

    # both models take the streams, and the watchdog is checked, before either runs
    check_watchdog(args.watchdog)
    sims = [_build(model, cfg, streams, args) for model in
            (("snoop", "directory") if args.model == "both" else (args.model,))]
    with _report_to(args.report) as out:
        report: Dict[str, object] = {"config": cfg.to_dict(), "model": args.model}
        exit_code = EXIT_OK
        try:
            if args.model in ("snoop", "directory"):
                stats, image = _run(sims[0], streams, args)
                report["stats"] = stats.to_dict()
                report["final_memory"] = _image_hex(image)
            else:
                snoop_stats, snoop_image = _run(sims[0], streams, args)
                dir_stats, dir_image = _run(sims[1], streams, args)
                report["stats"] = {
                    "snoop": snoop_stats.to_dict(),
                    "directory": dir_stats.to_dict(),
                }
                ratio = (
                    _format_fraction(Fraction(dir_stats.cycles, snoop_stats.cycles))
                    if snoop_stats.cycles else None  # no ops: nothing to compare
                )
                report["comparison"] = {
                    "snoop_cycles": snoop_stats.cycles,
                    "directory_cycles": dir_stats.cycles,
                    "directory_over_snoop_cycles": ratio,
                    "final_images_equal": snoop_image == dir_image,
                }
                report["final_memory"] = _image_hex(snoop_image)
        except CoherenceViolation as exc:
            report["violations"] = [str(exc)]
            exit_code = EXIT_VIOLATION
        except DeadlockError as exc:
            report["violations"] = [f"deadlock: {exc}"]
            exit_code = EXIT_DEADLOCK
        _emit(report, out)
    return exit_code


def _emit(report: dict, out) -> None:
    out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# verification runner
# --------------------------------------------------------------------------

def run_verify(args) -> int:
    from . import verify  # the explorer loads only for `culsim verify`

    mutations = frozenset(args.mutate or ())
    budget = verify.ExploreConfig.state_budget if args.budget is None else args.budget
    configs = [
        verify.ExploreConfig(
            n_cores=args.cores,
            coherent_ifetch=ifetch,
            mutations=mutations,
            state_budget=budget,
        )
        for ifetch in (False, True)
    ]
    litmus_tests = list(verify.COHERENCE_LITMUS)
    if args.litmus:
        # a report entry is known by its test's name alone
        built_in = {test.name for test in litmus_tests}
        for test in verify.parse_litmus(_read_text(args.litmus)):
            if test.name in built_in:
                raise ValueError(f"litmus test {test.name}: a built-in test has that name")
            litmus_tests.append(test)

    for test in litmus_tests:
        verify.check_litmus(test, args.cores)
    with _report_to(args.report) as out:
        # what the run certified: its core count, mutations and state budget
        report: Dict[str, object] = {
            "cores": args.cores, "mutations": sorted(mutations), "budget": budget}
        exit_code = EXIT_OK
        oracle = verify.oracle_tables(mutations=mutations, state_budget=budget)
        report["oracle"] = {
            "ok": oracle.ok,
            "reachable_states": oracle.reachable_states,
            "tables": oracle.table_lines(),
            "violations": [v.to_dict() for v in oracle.violations],
        }
        if any(v.kind == "budget" for v in oracle.violations):
            exit_code = EXIT_BUDGET
        elif not oracle.ok:
            exit_code = EXIT_VIOLATION

        litmus_report = []
        for cfg in configs:
            for test in litmus_tests:
                res = verify.run_litmus(test, cfg)
                litmus_report.append(
                    {
                        "name": test.name,
                        "coherent_ifetch": cfg.coherent_ifetch,
                        "forbidden_seen": res["forbidden_seen"],
                        "reachable_states": res["reachable_states"],
                        "violations": [v.to_dict() for v in res["violations"]],
                        "exhausted": res["exhausted"],
                    }
                )
                if not res["exhausted"]:
                    exit_code = exit_code or EXIT_BUDGET
                if res["forbidden_seen"] or res["violations"]:
                    exit_code = EXIT_VIOLATION
        report["litmus"] = litmus_report

        for v in oracle.violations:
            if v.trace:
                where = v.program
                print(f"counterexample ({v.kind}) in battery program {where['index']} "
                      f"({where['cores']} cores, coherent ifetch "
                      f"{'on' if where['coherent_ifetch'] else 'off'}, dcache capacity "
                      f"{where['dcache_capacity'] or 'unbounded'}): {v.detail}", file=sys.stderr)
                for step in v.trace:
                    print(f"  {step}", file=sys.stderr)
        _emit(report, out)
    return exit_code


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="culsim",
        description="Snoop-based MOESI/ACE coherent-cluster simulator and verifier.",
        epilog=(
            "exit codes: 0 success; 1 coherence violation or forbidden litmus "
            "outcome; 2 usage error; 3 explorer budget exceeded; 4 deadlock; "
            "5 malformed input or a file that cannot be read or written. "
            "CULSIM_SEED overrides the config seed."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a simulation experiment")
    run_p.add_argument("--config", help="config file (key = value lines)")
    run_p.add_argument("--model", choices=("snoop", "directory", "both"), default="snoop")
    src = run_p.add_mutually_exclusive_group()
    src.add_argument("--trace", help="trace file: <core> <R|W|IF> <addr> [<value>]")
    src.add_argument("--workload", choices=WORKLOAD_KINDS, default="producer_consumer")
    run_p.add_argument("--ops", type=int, default=1000, help="ops per core (workloads)")
    run_p.add_argument("--working-set", type=int, default=8, help="lines in the shared set")
    run_p.add_argument("--sharing", type=float, default=0.5, help="shared-access fraction")
    run_p.add_argument("--seed", type=lambda s: int(s, 0), default=None)
    run_p.add_argument("--cores", type=int, default=None)
    run_p.add_argument("--coherent-ifetch", action="store_true")
    run_p.add_argument("--check", action="store_true", help="per-cycle invariant monitors")
    run_p.add_argument("--mem-image", help="memory preload file: <addr_hex> <byte_hex...>")
    run_p.add_argument("--watchdog", type=int, default=WATCHDOG_CYCLES)
    run_p.add_argument("--report", help="write the JSON report here instead of stdout")
    run_p.set_defaults(func=run_experiment)

    ver_p = sub.add_parser("verify", help="certify the protocol tables and litmus suite")
    ver_p.add_argument("--cores", type=int, default=2)
    ver_p.add_argument("--mutate", action="append",
                       help=f"inject a table mutation; one of {', '.join(MUTATIONS)}")
    ver_p.add_argument("--litmus", help="extra litmus definition file")
    ver_p.add_argument("--budget", type=int)
    ver_p.add_argument("--report", help="write the JSON report here instead of stdout")
    ver_p.set_defaults(func=run_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceError, MemoryFault, ValueError) as exc:
        print(f"culsim: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        if exc.filename is None:  # not an input file to read or the report to write
            raise
        print(f"culsim: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except DeadlockError as exc:
        print(f"culsim: deadlock: {exc}", file=sys.stderr)
        return EXIT_DEADLOCK


if __name__ == "__main__":
    sys.exit(main())
