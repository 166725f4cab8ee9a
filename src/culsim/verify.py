"""Coherence correctness machinery.

Three layers:

* check_swmr / check_value validate a global snapshot view (from the
  cycle simulator or from the abstract machine below).
* explore() enumerates every interleaving of an untimed abstraction of
  the protocol over tiny programs, deduplicated by canonical state, and
  checks the single-writer and data-value invariants in every reachable
  state. It is the oracle certifying the transition tables in
  `protocol` and the miss retry/upgrade rules in `cache`.
* run_litmus / oracle_tables package the explorer into the coherence
  litmus suite and the exhaustive table-certification battery.

The abstraction drops time entirely: handshakes become atomic steps and
FIFO depths shrink to one, the adversarial case for ordering. Line data
collapses to one abstract word; a ghost copy of each line's
most-recently-written value makes stale-data bugs visible even when the
stale copy is immediately overwritten.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from .ccu import decode_and_snoop
from .protocol import (
    CoherentKind,
    DIRTY_STATES,
    Hit,
    LineState,
    OpKind,
    UNIQUE_KINDS,
    UNIQUE_STATES,
    completion_state,
    initiator_action,
    snoopee_transition,
)


class CopyView(NamedTuple):
    core: int
    state: LineState
    data: object
    icache: bool = False


def _by_address(problems: List[Tuple[int, str]]) -> List[str]:
    """Messages in line-address order; a line's own messages keep theirs."""
    problems.sort(key=lambda p: p[0])
    return [msg for _, msg in problems]


def check_swmr(view: Dict[int, Tuple[List[CopyView], object]]) -> List[str]:
    """Single-writer/multiple-reader check over a snapshot view.

    A Unique copy (Modified or Exclusive) must be the only valid copy of
    its line, and at most one copy may carry dirty responsibility
    (Modified or Owned). Problems come back ordered by line address.
    """
    problems = []
    for addr, (copies, _mem) in view.items():
        if len(copies) < 2:
            continue
        unique = next((c for c in copies if c.state in UNIQUE_STATES), None)
        if unique is not None:
            problems.append((addr, f"line {addr:#x}: unique copy on core {unique.core} "
                                   f"coexists with {len(copies) - 1} other cop(y/ies)"))
        n_dirty = sum(c.state in DIRTY_STATES for c in copies)
        if n_dirty >= 2:
            problems.append((addr, f"line {addr:#x}: {n_dirty} dirty-responsible copies"))
    return _by_address(problems)


def check_value(view: Dict[int, Tuple[List[CopyView], object]]) -> List[str]:
    """Data-value check over a snapshot view: all valid copies of a line
    agree, and if every copy is clean they agree with memory too.
    Problems come back ordered by line address."""
    problems = []
    for addr, (copies, mem) in view.items():
        if not copies:
            continue
        values = {bytes(c.data) if isinstance(c.data, (bytes, bytearray)) else c.data
                  for c in copies}
        if len(values) > 1:
            problems.append((addr, f"line {addr:#x}: valid copies disagree"))
        elif not any(c.state in DIRTY_STATES for c in copies):
            memval = bytes(mem) if isinstance(mem, (bytes, bytearray)) else mem
            if values != {memval}:
                problems.append((addr, f"line {addr:#x}: clean copies differ from memory"))
    return _by_address(problems)


# --------------------------------------------------------------------------
# Mutations: deliberate single-row corruptions of the protocol tables used
# as negative controls. Every shipped mutation must be caught by explore().
# --------------------------------------------------------------------------

_KIND_BY_NAME = {k.value: k for k in CoherentKind}
_STATE_BY_NAME = {s.value: s for s in LineState}

# id -> (snoopee override) rows: (state, kind) -> (next, data, pass_dirty, is_shared)
_SNOOPEE_MUTATIONS = {
    "snoopee:M:ReadUnique:keep": (
        (LineState.MODIFIED, CoherentKind.READ_UNIQUE),
        (LineState.MODIFIED, 1, 0, 1),
    ),
    "snoopee:M:ReadShared:drop_dirty": (
        (LineState.MODIFIED, CoherentKind.READ_SHARED),
        (LineState.SHARED, 1, 0, 1),
    ),
    "snoopee:S:CleanUnique:keep": (
        (LineState.SHARED, CoherentKind.CLEAN_UNIQUE),
        (LineState.SHARED, 0, 0, 1),
    ),
    "snoopee:E:ReadShared:keep": (
        (LineState.EXCLUSIVE, CoherentKind.READ_SHARED),
        (LineState.EXCLUSIVE, 1, 0, 0),
    ),
}

SHIPPED_MUTATIONS = tuple(_SNOOPEE_MUTATIONS) + (
    "initiator:Store:Shared:silent_upgrade",
    "completion:ReadShared:ignore_shared",
    "retry:disabled",
)


@dataclass(frozen=True)
class ExploreConfig:
    n_cores: int = 2
    coherent_ifetch: bool = False
    dcache_capacity: Optional[int] = None
    wb_depth: int = 1
    collision_capacity: int = 8
    mutations: FrozenSet[str] = frozenset()
    state_budget: int = 2_000_000

    def __post_init__(self):
        if self.n_cores > 4:
            raise ValueError("explorer bound: at most 4 cores")
        unknown = set(self.mutations) - set(SHIPPED_MUTATIONS)
        if unknown:
            raise ValueError(f"unknown mutation(s): {sorted(unknown)}")


class _MissRec(NamedTuple):
    kind: CoherentKind
    addr: int
    for_icache: bool
    accepted: bool
    targets: tuple  # remaining (core, probe_d, probe_i)
    any_shared: int
    any_dirty: int
    data: object  # buffered CD value, None until a responder transfers
    data_from: object  # first responding core, else None
    read_seen: bool
    invalidated: bool


class _AState(NamedTuple):
    pcs: tuple
    regs: tuple
    dcaches: tuple  # per core: tuple of (addr, LineState, value), sorted by addr
    icaches: tuple
    mem: tuple  # sorted (addr, value)
    miss: tuple  # per core: _MissRec | None
    collision: tuple  # sorted addrs in flight
    wb: tuple  # write-back FIFO, oldest first: (addr, value)
    ghost: tuple  # sorted (addr, value): last value written, in coherence order


def _lines_get(lines: tuple, addr: int):
    for a, st, val in lines:
        if a == addr:
            return st, val
    return None


def _lines_set(lines: tuple, addr: int, state: LineState, value) -> tuple:
    rest = tuple(e for e in lines if e[0] != addr)
    return tuple(sorted(rest + ((addr, state, value),)))


def _lines_del(lines: tuple, addr: int) -> tuple:
    return tuple(e for e in lines if e[0] != addr)


def _map_get(pairs: tuple, addr: int):
    for a, v in pairs:
        if a == addr:
            return v
    return 0


def _map_set(pairs: tuple, addr: int, value) -> tuple:
    rest = tuple(e for e in pairs if e[0] != addr)
    return tuple(sorted(rest + ((addr, value),)))


@dataclass
class Violation:
    kind: str
    detail: str
    trace: Optional[List[str]] = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail, "trace": self.trace}


@dataclass
class ExploreResult:
    reachable_states: int
    violations: List[Violation]
    outcomes: Set[tuple]
    exhausted: bool
    initiator_pairs: Set[tuple] = field(default_factory=set)
    snoopee_pairs: Set[tuple] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not self.violations and self.exhausted


class _Machine:
    """Untimed abstraction of one bounded protocol instance."""

    def __init__(self, programs: Sequence[Sequence[tuple]], config: ExploreConfig,
                 init_mem: Optional[Dict[int, int]] = None):
        if len(programs) != config.n_cores:
            raise ValueError("one program per core required")
        for prog in programs:
            if len(prog) > 6:
                raise ValueError("explorer bound: at most 6 ops per core")
        self.programs = [tuple(p) for p in programs]
        self.cfg = config
        addrs = {op[1] for prog in programs for op in prog}
        addrs |= set(init_mem or ())
        if len(addrs) > 2:
            raise ValueError("explorer bound: at most 2 line addresses")
        self.addrs = tuple(sorted(addrs))
        self.init_mem = dict(init_mem or {})
        self.init_cov: Set[tuple] = set()
        self.snoop_cov: Set[tuple] = set()
        muts = config.mutations
        self.snoopee_overrides = {
            _SNOOPEE_MUTATIONS[m][0]: _SNOOPEE_MUTATIONS[m][1]
            for m in muts if m in _SNOOPEE_MUTATIONS
        }
        self.silent_upgrade = "initiator:Store:Shared:silent_upgrade" in muts
        self.ignore_shared = "completion:ReadShared:ignore_shared" in muts
        self.retry_enabled = "retry:disabled" not in muts

    def initial(self) -> _AState:
        n = self.cfg.n_cores
        mem = tuple(sorted((a, self.init_mem.get(a, 0)) for a in self.addrs))
        return _AState(
            pcs=(0,) * n,
            regs=((),) * n,
            dcaches=((),) * n,
            icaches=((),) * n,
            mem=mem,
            miss=(None,) * n,
            collision=(),
            wb=(),
            ghost=mem,
        )

    # -- table access with mutation hooks ------------------------------------

    def _snoopee(self, state: LineState, kind: CoherentKind):
        lookup = CoherentKind.READ_SHARED if kind is CoherentKind.READ_ONCE else kind
        if (state, lookup) in self.snoopee_overrides:
            nxt, data, dirty, shared = self.snoopee_overrides[(state, lookup)]
            return nxt, data, dirty, shared
        nxt, resp = snoopee_transition(state, kind)
        return nxt, resp.data_transfer, resp.pass_dirty, resp.is_shared

    def _initiator(self, state: LineState, op: OpKind):
        if (
            self.silent_upgrade
            and op is OpKind.STORE
            and state is LineState.SHARED
        ):
            return Hit(LineState.MODIFIED)
        return initiator_action(state, op)

    def _completion(self, kind, any_shared, any_dirty, store_follows):
        if self.ignore_shared and kind is CoherentKind.READ_SHARED:
            any_shared = 0
        return completion_state(kind, any_shared, any_dirty, store_follows)

    # -- invariant checks ---------------------------------------------------------

    def state_violations(self, state: _AState) -> List[str]:
        view: Dict[int, Tuple[List[CopyView], object]] = {}
        for core in range(self.cfg.n_cores):
            for addr, st, val in state.dcaches[core]:
                view.setdefault(addr, ([], None))[0].append(CopyView(core, st, val))
            if self.cfg.coherent_ifetch:
                for addr, st, val in state.icaches[core]:
                    view.setdefault(addr, ([], None))[0].append(
                        CopyView(core, st, val, True)
                    )
        view = {a: (copies, _map_get(state.mem, a)) for a, (copies, _) in view.items()}
        problems = check_swmr(view)
        ghost = dict(state.ghost)
        for addr, (copies, _mem) in sorted(view.items()):
            for c in copies:
                if c.data != ghost[addr]:
                    problems.append(
                        f"line {addr:#x}: core {c.core} holds stale value "
                        f"{c.data} (authoritative {ghost[addr]})"
                    )
        # memory must be authoritative once a line is quiescent and clean
        inflight = {rec.addr for rec in state.miss if rec is not None and rec.accepted}
        wb_addrs = {a for a, _ in state.wb}
        for addr in self.addrs:
            if addr in inflight or addr in wb_addrs:
                continue
            if any(
                st.is_dirty
                for lines in state.dcaches
                for a, st, _ in lines
                if a == addr
            ):
                continue
            if _map_get(state.mem, addr) != ghost[addr]:
                problems.append(
                    f"line {addr:#x}: memory {_map_get(state.mem, addr)} lost the "
                    f"last write (authoritative {ghost[addr]})"
                )
        return problems

    # -- atomic steps ----------------------------------------------------------------

    def successors(self, state: _AState) -> List[Tuple[str, _AState, Optional[str]]]:
        out = []
        for core in range(self.cfg.n_cores):
            rec = state.miss[core]
            if rec is None and state.pcs[core] < len(self.programs[core]):
                out.append(self._issue(state, core))
            elif rec is not None and not rec.accepted:
                if (
                    rec.addr not in state.collision
                    and len(state.collision) < self.cfg.collision_capacity
                ):
                    out.append(self._accept(state, core))
            elif rec is not None:
                if rec.targets:
                    for idx in range(len(rec.targets)):
                        out.append(self._snoop(state, core, idx))
                else:
                    step = self._complete(state, core)
                    if step is not None:
                        out.append(step)
        if state.wb:
            out.append(self._drain(state))
        return out

    def _issue(self, state: _AState, core: int):
        op = self.programs[core][state.pcs[core]]
        verb, addr = op[0], op[1]
        label = f"core {core}: issue {verb} {addr:#x}"
        if verb == "IF":
            return self._issue_ifetch(state, core, addr, label)
        kind = OpKind.LOAD if verb == "R" else OpKind.STORE
        entry = _lines_get(state.dcaches[core], addr)
        cstate = entry[0] if entry else LineState.INVALID
        self.init_cov.add((cstate, kind))
        action = self._initiator(cstate, kind)
        if isinstance(action, Hit):
            lines = state.dcaches[core]
            if kind is OpKind.LOAD:
                regs = _tuple_put(state.regs, core, state.regs[core] + (entry[1],))
                lines = _lines_set(lines, addr, action.next, entry[1])
                new = state._replace(
                    pcs=_tuple_put(state.pcs, core, state.pcs[core] + 1),
                    regs=regs,
                    dcaches=_tuple_put(state.dcaches, core, lines),
                )
                return label, new, None
            value = op[2]
            lines = _lines_set(lines, addr, action.next, value)
            new = state._replace(
                pcs=_tuple_put(state.pcs, core, state.pcs[core] + 1),
                dcaches=_tuple_put(state.dcaches, core, lines),
                ghost=_map_set(state.ghost, addr, value),
            )
            return label, new, None
        rec = _MissRec(
            kind=action.kind, addr=addr, for_icache=False, accepted=False,
            targets=(), any_shared=0, any_dirty=0, data=None, data_from=None,
            read_seen=False, invalidated=False,
        )
        return label, state._replace(miss=_tuple_put(state.miss, core, rec)), None

    def _issue_ifetch(self, state: _AState, core: int, addr: int, label: str):
        entry = _lines_get(state.icaches[core], addr)
        istate = entry[0] if entry else LineState.INVALID
        self.init_cov.add((istate, OpKind.IFETCH))
        if entry is not None:
            regs = _tuple_put(state.regs, core, state.regs[core] + (entry[1],))
            new = state._replace(
                pcs=_tuple_put(state.pcs, core, state.pcs[core] + 1), regs=regs
            )
            return label, new, None
        if not self.cfg.coherent_ifetch:
            # non-coherent fill straight from memory; staleness permitted
            value = _map_get(state.mem, addr)
            lines = _lines_set(state.icaches[core], addr, LineState.SHARED, value)
            regs = _tuple_put(state.regs, core, state.regs[core] + (value,))
            new = state._replace(
                pcs=_tuple_put(state.pcs, core, state.pcs[core] + 1),
                regs=regs,
                icaches=_tuple_put(state.icaches, core, lines),
            )
            return label, new, None
        rec = _MissRec(
            kind=CoherentKind.READ_ONCE, addr=addr, for_icache=True, accepted=False,
            targets=(), any_shared=0, any_dirty=0, data=None, data_from=None,
            read_seen=False, invalidated=False,
        )
        return label, state._replace(miss=_tuple_put(state.miss, core, rec)), None

    def _accept(self, state: _AState, core: int):
        rec = state.miss[core]
        kind = rec.kind
        invalidated = rec.invalidated
        # a pending CleanUnique whose copy was snooped away is re-encoded
        # as ReadUnique before it enters the coherent pipeline
        if self.retry_enabled and kind is CoherentKind.CLEAN_UNIQUE and invalidated:
            kind = CoherentKind.READ_UNIQUE
            invalidated = False
        fanout = decode_and_snoop(
            core, kind, rec.addr, self.cfg.n_cores,
            self.cfg.coherent_ifetch, rec.for_icache,
        )
        targets = tuple((t, pd, pi) for t, _req, pd, pi in fanout)
        new_rec = rec._replace(
            kind=kind, accepted=True, targets=targets, invalidated=invalidated
        )
        new = state._replace(
            miss=_tuple_put(state.miss, core, new_rec),
            collision=tuple(sorted(state.collision + (rec.addr,))),
        )
        return f"core {core}: accept {kind.value} {rec.addr:#x}", new, None

    def _snoop(self, state: _AState, core: int, target_idx: int):
        rec = state.miss[core]
        target, probe_d, probe_i = rec.targets[target_idx]
        addr, kind = rec.addr, rec.kind
        label = f"core {core}: snoop core {target} ({kind.value} {addr:#x})"
        data_transfer = 0
        pass_dirty = 0
        is_shared = 0
        data_val = None
        invalidated_valid = False
        dcaches, icaches = state.dcaches, state.icaches

        if probe_d:
            entry = _lines_get(dcaches[target], addr)
            dstate = entry[0] if entry else LineState.INVALID
            self.snoop_cov.add((dstate, kind))
            nxt, dt, pd, sh = self._snoopee(dstate, kind)
            if entry is not None:
                if dt:
                    data_val = entry[1]
                if nxt is LineState.INVALID:
                    invalidated_valid = True
                    dcaches = _tuple_put(dcaches, target, _lines_del(dcaches[target], addr))
                else:
                    dcaches = _tuple_put(
                        dcaches, target, _lines_set(dcaches[target], addr, nxt, entry[1])
                    )
                data_transfer |= dt
                pass_dirty |= pd
                is_shared |= sh
        if probe_i and self.cfg.coherent_ifetch:
            entry = _lines_get(icaches[target], addr)
            istate = entry[0] if entry else LineState.INVALID
            self.snoop_cov.add((istate, kind))
            nxt, dt, _pd, sh = self._snoopee(istate, kind)
            if entry is not None:
                if dt and data_val is None:
                    data_val = entry[1]
                if nxt is LineState.INVALID:
                    icaches = _tuple_put(icaches, target, _lines_del(icaches[target], addr))
                data_transfer |= dt
                is_shared |= sh

        # side signals into the target's own pending miss
        miss = state.miss
        trec = miss[target]
        if trec is not None and trec.addr == addr:
            read_class = kind in (CoherentKind.READ_SHARED, CoherentKind.READ_ONCE)
            read_seen = trec.read_seen or (read_class and trec.kind in UNIQUE_KINDS)
            invalidated = trec.invalidated or invalidated_valid
            miss = _tuple_put(miss, target, trec._replace(
                read_seen=read_seen, invalidated=invalidated))
            trec = miss[target]

        rec = miss[core]
        new_data, new_from = rec.data, rec.data_from
        if data_transfer and new_from is None and new_data is None:
            new_data, new_from = data_val, target
        if pass_dirty and not data_transfer:
            # data-less handoff: the initiator's own copy takes Owned now
            entry = _lines_get(dcaches[core], addr)
            if entry is not None and not entry[0].is_dirty:
                dcaches = _tuple_put(
                    dcaches, core,
                    _lines_set(dcaches[core], addr, LineState.OWNED, entry[1]),
                )
        new_rec = rec._replace(
            targets=rec.targets[:target_idx] + rec.targets[target_idx + 1:],
            any_shared=rec.any_shared | is_shared,
            any_dirty=rec.any_dirty | pass_dirty,
            data=new_data,
            data_from=new_from,
        )
        new = state._replace(
            dcaches=dcaches, icaches=icaches,
            miss=_tuple_put(miss, core, new_rec),
        )
        return label, new, None

    def _complete(self, state: _AState, core: int):
        rec = state.miss[core]
        addr, kind = rec.addr, rec.kind
        ghost = dict(state.ghost)
        note = None

        if self.retry_enabled and kind in UNIQUE_KINDS and (rec.read_seen or rec.invalidated):
            # dirty responsibility collected by the discarded attempt must
            # survive it: transferred data drains to memory through the
            # write-back FIFO; a data-less handoff (CleanUnique probing a
            # dirty holder) lands on the initiator's own copy as Owned
            wb = state.wb
            dcaches = state.dcaches
            if rec.any_dirty:
                if rec.data is not None:
                    if len(wb) >= self.cfg.wb_depth:
                        return None
                    wb = wb + ((addr, rec.data),)
                else:
                    entry = _lines_get(dcaches[core], addr)
                    if entry is not None and not entry[0].is_dirty:
                        dcaches = _tuple_put(
                            dcaches, core,
                            _lines_set(dcaches[core], addr, LineState.OWNED, entry[1]),
                        )
            new_kind = kind
            if kind is CoherentKind.CLEAN_UNIQUE and rec.invalidated:
                new_kind = CoherentKind.READ_UNIQUE
            new_rec = rec._replace(
                kind=new_kind, accepted=False, targets=(), any_shared=0,
                any_dirty=0, data=None, data_from=None,
                read_seen=False, invalidated=False,
            )
            new = state._replace(
                dcaches=dcaches,
                miss=_tuple_put(state.miss, core, new_rec),
                collision=tuple(a for a in state.collision if a != addr),
                wb=wb,
            )
            return f"core {core}: retry as {new_kind.value} {addr:#x}", new, None

        # pick the data the install will use
        if kind is CoherentKind.CLEAN_UNIQUE:
            entry = _lines_get(state.dcaches[core], addr)
            if entry is None:
                base = 0
                note = f"line {addr:#x}: CleanUnique completed without a local copy"
            else:
                base = entry[1]
        elif rec.data_from is not None:
            base = rec.data
        else:
            if any(a == addr for a, _ in state.wb):
                return None  # memory read must wait for the same-line write-back
            base = _map_get(state.mem, addr)
        if note is None and base != ghost[addr]:
            note = (
                f"line {addr:#x}: completion used stale value {base} "
                f"(authoritative {ghost[addr]})"
            )

        op = self.programs[core][state.pcs[core]]
        store_follows = int(op[0] == "W")
        final = self._completion(kind, rec.any_shared, rec.any_dirty, store_follows)

        dcaches, icaches, wb = state.dcaches, state.icaches, state.wb
        regs = state.regs
        new_ghost = state.ghost
        if kind is CoherentKind.READ_ONCE:
            icaches = _tuple_put(
                icaches, core, _lines_set(icaches[core], addr, final, base)
            )
            regs = _tuple_put(regs, core, regs[core] + (base,))
        else:
            lines = dcaches[core]
            if store_follows:
                value = op[2]
                new_ghost = _map_set(new_ghost, addr, value)
            else:
                value = base
                regs = _tuple_put(regs, core, regs[core] + (base,))
            if kind is not CoherentKind.CLEAN_UNIQUE and _lines_get(lines, addr) is None:
                cap = self.cfg.dcache_capacity
                if cap is not None and len(lines) >= cap:
                    victim_addr, victim_state, victim_val = lines[0]
                    if victim_state.is_dirty:
                        if len(wb) >= self.cfg.wb_depth:
                            return None  # write-back FIFO full: install stalls
                        wb = wb + ((victim_addr, victim_val),)
                    lines = _lines_del(lines, victim_addr)
            if store_follows and final not in (LineState.MODIFIED, LineState.EXCLUSIVE):
                note = note or f"line {addr:#x}: store completion installed {final.value}"
            lines = _lines_set(
                lines, addr, LineState.MODIFIED if store_follows else final, value
            )
            dcaches = _tuple_put(dcaches, core, lines)

        new = state._replace(
            pcs=_tuple_put(state.pcs, core, state.pcs[core] + 1),
            regs=regs,
            dcaches=dcaches,
            icaches=icaches,
            miss=_tuple_put(state.miss, core, None),
            collision=tuple(a for a in state.collision if a != addr),
            wb=wb,
            ghost=new_ghost,
        )
        return f"core {core}: complete {kind.value} {addr:#x}", new, note

    def _drain(self, state: _AState):
        (addr, val), rest = state.wb[0], state.wb[1:]
        new = state._replace(wb=rest, mem=_map_set(state.mem, addr, val))
        return f"memory: drain write-back {addr:#x}", new, None

    # -- terminal observations ----------------------------------------------------

    def all_done(self, state: _AState) -> bool:
        return (
            all(state.pcs[c] >= len(self.programs[c]) for c in range(self.cfg.n_cores))
            and all(rec is None for rec in state.miss)
            and not state.wb
        )

    def observation(self, state: _AState) -> tuple:
        return (state.regs, state.ghost)


def _tuple_put(tup: tuple, idx: int, value) -> tuple:
    return tup[:idx] + (value,) + tup[idx + 1:]


def explore(
    programs: Sequence[Sequence[tuple]],
    config: ExploreConfig = ExploreConfig(),
    init_mem: Optional[Dict[int, int]] = None,
    workers: int = 1,
) -> ExploreResult:
    """Enumerate all interleavings of the abstract machine.

    Work is split by partitioning the root branching; partitions share
    the deduplication set, so the reachable-state count and the violation
    set are independent of the worker count. Counterexample traces are
    reconstructed afterwards by a deterministic breadth-first pass.
    """
    machine = _Machine(programs, config, init_mem)
    root = machine.initial()
    seen = {root}
    descriptors: Set[Tuple[str, str]] = set()
    outcomes: Set[tuple] = set()
    exhausted = True

    for problem in machine.state_violations(root):
        descriptors.add(("invariant", problem))
    root_succ = machine.successors(root)
    if not root_succ:
        outcomes.add(machine.observation(root))
        if not machine.all_done(root):
            descriptors.add(("deadlock", "no step possible from the initial state"))

    partitions = [root_succ[i::workers] for i in range(max(1, workers))]
    for part in partitions:
        stack = []
        for _label, succ, note in part:
            if note:
                descriptors.add(("stale-data", note))
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
                for problem in machine.state_violations(succ):
                    descriptors.add(("invariant", problem))
        while stack:
            if len(seen) > config.state_budget:
                exhausted = False
                break
            current = stack.pop()
            succs = machine.successors(current)
            if not succs:
                outcomes.add(machine.observation(current))
                if not machine.all_done(current):
                    descriptors.add(("deadlock", "pending work but no enabled step"))
                continue
            for _label, succ, note in succs:
                if note:
                    descriptors.add(("stale-data", note))
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
                    for problem in machine.state_violations(succ):
                        descriptors.add(("invariant", problem))
        if not exhausted:
            break

    violations = [Violation(kind, detail) for kind, detail in sorted(descriptors)]
    if violations and exhausted:
        _attach_traces(machine, root, violations)
    return ExploreResult(
        reachable_states=len(seen),
        violations=violations,
        outcomes=outcomes,
        exhausted=exhausted,
        initiator_pairs=set(machine.init_cov),
        snoopee_pairs=set(machine.snoop_cov),
    )


def _attach_traces(machine: _Machine, root: _AState, violations: List[Violation]) -> None:
    """Breadth-first replay assigning each violation its shortest,
    deterministically-first counterexample trace."""
    wanted = {(v.kind, v.detail): v for v in violations}
    path0 = []
    for problem in machine.state_violations(root):
        key = ("invariant", problem)
        if key in wanted and wanted[key].trace is None:
            wanted[key].trace = list(path0)
    queue = deque([(root, ())])
    seen = {root}
    while queue and any(v.trace is None for v in violations):
        current, path = queue.popleft()
        for label, succ, note in machine.successors(current):
            new_path = path + (label,)
            if note:
                key = ("stale-data", note)
                if key in wanted and wanted[key].trace is None:
                    wanted[key].trace = _number(new_path)
            if succ in seen:
                continue
            seen.add(succ)
            for problem in machine.state_violations(succ):
                key = ("invariant", problem)
                if key in wanted and wanted[key].trace is None:
                    wanted[key].trace = _number(new_path)
            if not machine.all_done(succ):
                queue.append((succ, new_path))


def _number(path: Tuple[str, ...]) -> List[str]:
    return [f"{i}. {label}" for i, label in enumerate(path, start=1)]


# --------------------------------------------------------------------------
# Litmus suite
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LitmusTest:
    """Tiny multi-core program with forbidden final observations.

    `forbidden` is a disjunction of conjunctions; each atom is either
    ('reg', core, read_index) = value or ('mem', addr) = value.
    """

    name: str
    programs: Dict[int, Tuple[tuple, ...]]
    init: Dict[int, int] = field(default_factory=dict)
    forbidden: Tuple[Tuple[Tuple[tuple, int], ...], ...] = ()


_X = 0x100

COHERENCE_LITMUS = (
    LitmusTest(
        "CoWW",
        programs={0: (("W", _X, 1), ("W", _X, 2))},
        forbidden=(((("mem", _X), 1),),),
    ),
    LitmusTest(
        "CoRR",
        programs={0: (("W", _X, 1),), 1: (("R", _X), ("R", _X))},
        forbidden=(((("reg", 1, 0), 1), (("reg", 1, 1), 0)),),
    ),
    LitmusTest(
        "CoRW1",
        programs={0: (("R", _X), ("W", _X, 1))},
        forbidden=(((("reg", 0, 0), 1),),),
    ),
    LitmusTest(
        "CoWR",
        programs={0: (("W", _X, 1), ("R", _X))},
        forbidden=(((("reg", 0, 0), 0),),),
    ),
)


def run_litmus(test: LitmusTest, config: ExploreConfig = ExploreConfig()) -> dict:
    """Enumerate all interleavings of a litmus test and report every final
    observation plus whether any forbidden one was reached."""
    programs = [tuple(test.programs.get(core, ())) for core in range(config.n_cores)]
    result = explore(programs, config, init_mem=test.init or None)
    forbidden_seen = False
    witnesses = []
    for regs, mem in result.outcomes:
        for clause in test.forbidden:
            if all(_eval_atom(atom, value, regs, mem) for atom, value in clause):
                forbidden_seen = True
                witnesses.append({"regs": regs, "mem": mem})
                break
    return {
        "name": test.name,
        "observed_outcomes": sorted(result.outcomes),
        "forbidden_seen": int(forbidden_seen),
        "witnesses": witnesses,
        "violations": result.violations,
        "exhausted": result.exhausted,
        "reachable_states": result.reachable_states,
    }


def _eval_atom(atom: tuple, value: int, regs: tuple, mem: tuple) -> bool:
    if atom[0] == "reg":
        _, core, idx = atom
        return idx < len(regs[core]) and regs[core][idx] == value
    _, addr = atom
    return dict(mem).get(addr, 0) == value


def parse_litmus(text: str) -> List[LitmusTest]:
    """Parse litmus definition text.

    Grammar (line oriented, `#` comments):
        test <name>
        init <sym>=<val>
        core <id>: <op> [; <op>]...      ops: W <sym>=<val> | R <sym> [-> r<k>] | IF <sym>
        forbid <core>:r<k>=<val> ... | <sym>=<val> ...
    """
    tests: List[LitmusTest] = []
    current: Optional[dict] = None
    symbols: Dict[str, int] = {}

    def lookup(sym: str) -> int:
        if sym not in symbols:
            symbols[sym] = _X + 0x10 * len(symbols)
        return symbols[sym]

    def flush():
        nonlocal current
        if current is not None:
            tests.append(
                LitmusTest(
                    name=current["name"],
                    programs={c: tuple(p) for c, p in current["programs"].items()},
                    init=current["init"],
                    forbidden=tuple(current["forbidden"]),
                )
            )
            current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, _, rest = line.partition(" ")
            if head == "test":
                flush()
                symbols.clear()
                current = {
                    "name": rest.strip(),
                    "programs": {},
                    "init": {},
                    "forbidden": [],
                    "regs": {},
                }
            elif current is None:
                raise ValueError("directive before 'test'")
            elif head == "init":
                sym, _, val = rest.partition("=")
                current["init"][lookup(sym.strip())] = int(val, 0)
            elif head == "core":
                cid_txt, _, ops_txt = rest.partition(":")
                core = int(cid_txt)
                ops = current["programs"].setdefault(core, [])
                for chunk in ops_txt.split(";"):
                    tokens = chunk.split()
                    if not tokens:
                        continue
                    if tokens[0] == "W":
                        sym, _, val = "".join(tokens[1:]).partition("=")
                        ops.append(("W", lookup(sym), int(val, 0)))
                    elif tokens[0] in ("R", "IF"):
                        sym = tokens[1]
                        reads = sum(1 for o in ops if o[0] in ("R", "IF"))
                        if len(tokens) >= 4 and tokens[2] == "->":
                            current["regs"][(core, tokens[3])] = reads
                        ops.append((tokens[0], lookup(sym)))
                    else:
                        raise ValueError(f"unknown op '{tokens[0]}'")
            elif head == "forbid":
                clause = []
                for atom_txt in rest.split():
                    lhs, _, val = atom_txt.partition("=")
                    if ":" in lhs:
                        core_txt, _, reg = lhs.partition(":")
                        core = int(core_txt)
                        idx = current["regs"].get((core, reg))
                        if idx is None:
                            idx = int(reg.lstrip("r"))
                        clause.append((("reg", core, idx), int(val, 0)))
                    else:
                        clause.append((("mem", lookup(lhs)), int(val, 0)))
                current["forbidden"].append(tuple(clause))
            else:
                raise ValueError(f"unknown directive '{head}'")
        except ValueError as exc:
            raise ValueError(f"litmus line {lineno}: {exc}") from exc
    flush()
    return tests


# --------------------------------------------------------------------------
# Table certification
# --------------------------------------------------------------------------

_A, _B = 0x100, 0x110

# Programs chosen so that exhaustive interleaving reaches every
# (state, core op) and (state, snoop) pair the protocol can produce.
_ORACLE_BATTERY = (
    # three-way sharing, upgrades from Shared and Owned, racing stores
    (3, False, None, [
        [("W", _A, 1), ("R", _A), ("W", _A, 2)],
        [("R", _A), ("R", _A), ("W", _A, 3)],
        [("R", _A), ("W", _A, 4)],
    ]),
    # Exclusive paths: silent upgrade, E snoopee rows
    (2, False, None, [
        [("R", _A), ("R", _A), ("W", _A, 5)],
        [("R", _A), ("W", _A, 6)],
    ]),
    # racing stores over two lines
    (2, False, None, [
        [("W", _A, 1), ("W", _B, 2)],
        [("W", _B, 3), ("W", _A, 4)],
    ]),
    # coherent instruction fetches against data writes
    (2, True, None, [
        [("W", _A, 1), ("W", _A, 2)],
        [("IF", _A), ("IF", _A)],
    ]),
    # ReadOnce probing Owned/Exclusive/Shared holders
    (3, True, None, [
        [("W", _A, 7)],
        [("R", _A)],
        [("IF", _A), ("R", _A)],
    ]),
    # eviction pressure: capacity-1 caches force dirty write-backs
    (2, False, 1, [
        [("W", _A, 1), ("W", _B, 2), ("R", _A)],
        [("R", _B), ("W", _A, 3)],
    ]),
)

EXPECTED_INITIATOR_PAIRS = frozenset(
    {(s, op) for s in LineState for op in (OpKind.LOAD, OpKind.STORE)}
    | {(LineState.SHARED, OpKind.IFETCH), (LineState.INVALID, OpKind.IFETCH)}
)

_SNOOP_KINDS = (
    CoherentKind.READ_SHARED,
    CoherentKind.READ_UNIQUE,
    CoherentKind.CLEAN_UNIQUE,
    CoherentKind.READ_ONCE,
)

# CleanUnique implies the initiator still holds a valid copy, so no other
# cache can be probed in a Unique state: those two rows are defensive only.
UNREACHABLE_SNOOPEE_PAIRS = frozenset(
    {
        (LineState.MODIFIED, CoherentKind.CLEAN_UNIQUE),
        (LineState.EXCLUSIVE, CoherentKind.CLEAN_UNIQUE),
    }
)

EXPECTED_SNOOPEE_PAIRS = (
    frozenset({(s, k) for s in LineState for k in _SNOOP_KINDS})
    - UNREACHABLE_SNOOPEE_PAIRS
)


@dataclass
class OracleReport:
    ok: bool
    initiator: Dict[tuple, str]
    snoopee: Dict[tuple, str]
    violations: List[Violation]
    reachable_states: int

    def table_lines(self) -> List[str]:
        lines = []
        for (state, op), status in sorted(
            self.initiator.items(), key=lambda e: (e[0][0].value, e[0][1].value)
        ):
            lines.append(f"initiator ({state.value}, {op.value}): {status}")
        for (state, kind), status in sorted(
            self.snoopee.items(), key=lambda e: (e[0][0].value, e[0][1].value)
        ):
            lines.append(f"snoopee ({state.value}, {kind.value}): {status}")
        return lines


def oracle_tables(mutations: FrozenSet[str] = frozenset(), workers: int = 1) -> OracleReport:
    """Certify the protocol tables by exhaustive exploration of a program
    battery covering every reachable (state, op) and (state, snoop) pair."""
    init_cov: Set[tuple] = set()
    snoop_cov: Set[tuple] = set()
    violations: List[Violation] = []
    total_states = 0
    for n_cores, ifetch, capacity, programs in _ORACLE_BATTERY:
        cfg = ExploreConfig(
            n_cores=n_cores,
            coherent_ifetch=ifetch,
            dcache_capacity=capacity,
            mutations=mutations,
        )
        result = explore(programs, cfg, workers=workers)
        init_cov |= result.initiator_pairs
        snoop_cov |= result.snoopee_pairs
        violations.extend(result.violations)
        total_states += result.reachable_states
        if not result.exhausted:
            violations.append(Violation("budget", "exploration was not exhaustive"))

    initiator = {}
    for pair in sorted(EXPECTED_INITIATOR_PAIRS, key=lambda p: (p[0].value, p[1].value)):
        covered = pair in init_cov
        initiator[pair] = "certified" if covered and not violations else (
            "uncovered" if not covered else "violated"
        )
    for state in LineState:
        for op in (OpKind.LOAD, OpKind.STORE, OpKind.IFETCH):
            if (state, op) not in EXPECTED_INITIATOR_PAIRS:
                status = "unexpectedly-reached" if (state, op) in init_cov else "unreachable-by-design"
                initiator[(state, op)] = status

    snoopee = {}
    for state in LineState:
        for kind in _SNOOP_KINDS:
            pair = (state, kind)
            if pair in UNREACHABLE_SNOOPEE_PAIRS:
                snoopee[pair] = (
                    "unexpectedly-reached" if pair in snoop_cov else "unreachable-by-design"
                )
            else:
                covered = pair in snoop_cov
                snoopee[pair] = "certified" if covered and not violations else (
                    "uncovered" if not covered else "violated"
                )

    ok = (
        not violations
        and EXPECTED_INITIATOR_PAIRS <= init_cov
        and EXPECTED_SNOOPEE_PAIRS <= snoop_cov
        and not (UNREACHABLE_SNOOPEE_PAIRS & snoop_cov)
    )
    return OracleReport(
        ok=ok,
        initiator=initiator,
        snoopee=snoopee,
        violations=violations,
        reachable_states=total_states,
    )
