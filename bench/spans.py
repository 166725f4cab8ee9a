"""Span recorder for the benchmark's traced run.

The benchmark times culsim's layers from the outside: `Tracer.install`
replaces each entry point listed in HOOKS with a wrapper that records
one span per call (name, start, end, parent span, workload iteration)
and `uninstall` puts the originals back. Spans are kept in flat arrays
in memory and written out once, when the run ends.

A hook whose target no longer exists (for example a private helper
renamed by a refactor) is skipped, and every metric derived from it is
reported as absent instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

_FIELDS = (("name", "H"), ("parent", "q"), ("iteration", "L"),
           ("start", "d"), ("end", "d"), ("value", "q"))


def _step_idle(sim, _result) -> Optional[int]:
    progress = getattr(sim, "_progress", None)
    return None if progress is None else int(not progress)


def _states(_machine, result) -> int:
    return result.reachable_states


def _successor_count(_machine, result) -> int:
    return len(result)


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point. `owner` is a class name in `module`, or
    None for a module-level function. `measure(self_or_first_arg, result)`
    stores one integer per span; returning None marks that value absent."""

    name: str
    module: str
    owner: Optional[str]
    attr: str
    measure: Optional[Callable] = None


HOOKS = (
    Hook("sim.run", "culsim.sim", "Simulation", "run"),
    Hook("sim.step", "culsim.sim", "Simulation", "step", _step_idle),
    Hook("sim.snapshot_invariants", "culsim.sim", "Simulation", "snapshot_invariants"),
    Hook("cache.core_access", "culsim.cache", "CacheModel", "core_access"),
    Hook("cache.handle_snoop", "culsim.cache", "CacheModel", "handle_snoop"),
    Hook("cache.miss_complete", "culsim.cache", "CacheModel", "miss_complete"),
    Hook("cache.valid_lines", "culsim.cache", "CacheModel", "valid_lines"),
    Hook("ccu.submit", "culsim.ccu", "Ccu", "submit"),
    Hook("ccu.decoder_step", "culsim.ccu", "Ccu", "decoder_step"),
    Hook("ccu.snoop_unit_step", "culsim.ccu", "Ccu", "snoop_unit_step"),
    Hook("ccu.completion_step", "culsim.ccu", "Ccu", "completion_step"),
    Hook("ccu.memory_unit_step", "culsim.ccu", "Ccu", "memory_unit_step"),
    Hook("ccu.take_r", "culsim.ccu", "Ccu", "take_r"),
    Hook("memsys.read", "culsim.memsys", "MemoryModel", "read"),
    Hook("memsys.write", "culsim.memsys", "MemoryModel", "write"),
    Hook("memsys.take_completions", "culsim.memsys", "MemoryModel", "take_completions"),
    Hook("baseline.run", "culsim.baseline", "DirectorySimulation", "run"),
    Hook("baseline.step", "culsim.baseline", "DirectorySimulation", "step"),
    Hook("baseline.snapshot_invariants", "culsim.baseline", "DirectorySimulation",
         "snapshot_invariants"),
    Hook("verify.check_swmr", "culsim.verify", None, "check_swmr"),
    Hook("verify.check_value", "culsim.verify", None, "check_value"),
    Hook("verify.explore", "culsim.verify", None, "explore", _states),
    Hook("verify.successors", "culsim.verify", "_Machine", "successors", _successor_count),
    Hook("verify.state_violations", "culsim.verify", "_Machine", "state_violations"),
    Hook("verify.attach_traces", "culsim.verify", None, "_attach_traces"),
    Hook("cli.gen_workload", "culsim.cli", None, "gen_workload"),
)

_ABSENT = -1


class Tracer:
    """Records spans of the HOOKS entry points while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.arrays = {field: array(code) for field, code in _FIELDS}
        self.iteration = 0
        self.missing: List[str] = []
        self._stack = [-1]
        self._restore: list = []

    def __len__(self) -> int:
        return len(self.arrays["start"])

    def install(self) -> None:
        for hook in HOOKS:
            module = importlib.import_module(hook.module)
            owner = module if hook.owner is None else getattr(module, hook.owner, None)
            original = getattr(owner, hook.attr, None) if owner is not None else None
            if original is None:
                self.missing.append(hook.name)
                continue
            setattr(owner, hook.attr, self._wrap(len(self.names), original, hook.measure))
            self.names.append(hook.name)
            self._restore.append((owner, hook.attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name_id: int, fn: Callable, measure: Optional[Callable]) -> Callable:
        a = self.arrays
        names, parents, iterations = a["name"], a["parent"], a["iteration"]
        starts, ends, values = a["start"], a["end"], a["value"]
        stack = self._stack
        clock = time.perf_counter
        # a generator's body runs while its caller iterates; materialising
        # it keeps that work inside the span (every caller drains it fully)
        materialise = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            iterations.append(self.iteration)
            starts.append(0.0)
            ends.append(0.0)
            values.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if materialise:
                    result = iter(list(result))
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if measure is not None:
                value = measure(args[0] if args else None, result)
                values[idx] = _ABSENT if value is None else value
            return result

        return traced

    # -- results ---------------------------------------------------------------

    def summarize(self) -> Dict[str, dict]:
        """Per hook name: calls, inclusive seconds, self seconds (minus the
        time of wrapped child spans), the sum of measured values and
        whether any value was absent. Values measured directly inside the
        counterexample rebuild (`_attach_traces`) are left out, so successor
        counts cover the search alone."""
        a = self.arrays
        names, parents, starts, ends, values = (
            a["name"], a["parent"], a["start"], a["end"], a["value"]
        )
        n = len(starts)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        rebuild = (
            self.names.index("verify.attach_traces")
            if "verify.attach_traces" in self.names else None
        )
        out = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0, "absent": False}
            for name in self.names
        }
        for i in range(n):
            rec = out[self.names[names[i]]]
            dur = ends[i] - starts[i]
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child[i]
            v = values[i]
            if v == _ABSENT:
                rec["absent"] = True
            elif parents[i] < 0 or names[parents[i]] != rebuild:
                rec["value"] += v
        return out

    def write(self, path: Path) -> None:
        """One JSON header line, then the span arrays in `fields` order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self),
            "fields": [[field, code] for field, code in _FIELDS],
            "clock": "time.perf_counter seconds",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _code in _FIELDS:
                self.arrays[field].tofile(fh)


def read_spans(path: Path) -> dict:
    """Inverse of Tracer.write: the header plus one array per field."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        for field, code in header["fields"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            header[field] = arr
    return header
