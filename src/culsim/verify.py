"""Coherence correctness machinery.

Three layers:

* check_swmr / check_value validate a global snapshot view (from the
  cycle simulator or from the abstract machine below). Each is one
  pass over each line's copies, comparing states by identity and data
  by `==`, and sorts its messages by line address only when it found
  any; they are the only copy of the single-writer and value rules.
* explore() enumerates every interleaving of an untimed abstraction of
  the protocol over tiny programs by one breadth-first search,
  deduplicated by canonical state, and checks the single-writer and
  data-value invariants in every reachable state. Two partial-order
  rules (`_Machine.reduced`) keep every outcome, deadlock, violation and
  coverage pair but visit fewer states: a snoop that finds no copy and
  cannot find one later runs inside the accept or eviction that makes it
  so (`_Machine._settle`), and a load that misses from Invalid as a
  ReadShared is a state's only step (`_Machine.successors`). Each counterexample trace is the shortest one
  in that reduced graph, read back from the search's parent links, so
  it lists no such silent snoop, and a state budget counts its states.
  It is the oracle certifying `protocol.TABLES`, the one table set the
  cycle simulator, the directory baseline and the explorer index, plus
  the Decoder's admission rule `ccu.admits`. A mutation
  (`SHIPPED_MUTATIONS`, the ids of `protocol.MUTATIONS`) is run as
  `TABLES.mutated(ids)`, here or in a timed model.
* run_litmus / oracle_tables package the explorer into the coherence
  litmus suite and the exhaustive table-certification battery.

The abstraction drops time entirely: handshakes become atomic steps and
FIFO depths shrink to one, the adversarial case for ordering. Line data
collapses to one abstract word; a ghost copy of each line's
most-recently-written value makes stale-data bugs visible even when the
stale copy is immediately overwritten.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from .ccu import admits, snoop_targets
from .memsys import fifo_full, read_waits
from .protocol import (
    CoherentKind,
    DIRTY_STATES,
    EXCLUSIVE,
    Hit,
    LineState,
    MODIFIED,
    MUTATIONS,
    OpKind,
    OWNED,
    TABLES,
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
    (Modified or Owned). One pass over each line's copies finds the
    first unique copy and counts the dirty ones. Problems come back
    ordered by line address.
    """
    problems = []
    for addr, (copies, _mem) in view.items():
        if len(copies) < 2:
            continue
        unique = None
        n_dirty = 0
        for c in copies:
            state = c.state
            if state is MODIFIED:
                n_dirty += 1
                if unique is None:
                    unique = c
            elif state is OWNED:
                n_dirty += 1
            elif state is EXCLUSIVE and unique is None:
                unique = c
        if unique is not None:
            problems.append((addr, f"line {addr:#x}: unique copy on core {unique.core} "
                                   f"coexists with {len(copies) - 1} other cop(y/ies)"))
        if n_dirty >= 2:
            problems.append((addr, f"line {addr:#x}: {n_dirty} dirty-responsible copies"))
    return _by_address(problems) if problems else problems


def check_value(view: Dict[int, Tuple[List[CopyView], object]]) -> List[str]:
    """Data-value check over a snapshot view: all valid copies of a line
    agree, and if every copy is clean they agree with memory too.
    One pass over each line's copies compares every copy's data with the
    first one's by `==` (bytes and bytearray compare by content, an int
    never equals either) and notes whether any copy is dirty. Problems
    come back ordered by line address."""
    problems = []
    for addr, (copies, mem) in view.items():
        if not copies:
            continue
        value = copies[0].data
        dirty = False
        for c in copies:
            if c.data != value:
                problems.append((addr, f"line {addr:#x}: valid copies disagree"))
                break
            if c.state is MODIFIED or c.state is OWNED:
                dirty = True
        else:
            if not dirty and value != mem:
                problems.append((addr, f"line {addr:#x}: clean copies differ from memory"))
    return _by_address(problems) if problems else problems


# Deliberate row patches on `protocol.TABLES`; every shipped one must be
# caught by explore().
SHIPPED_MUTATIONS = tuple(MUTATIONS)


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
        if not 2 <= self.n_cores <= 4:
            raise ValueError(f"explorer bound: 2 to 4 cores, got {self.n_cores}")
        unknown = set(self.mutations) - set(SHIPPED_MUTATIONS)
        if unknown:
            raise ValueError(f"unknown mutation(s): {sorted(unknown)}")
        for name in ("state_budget", "wb_depth", "collision_capacity", "dcache_capacity"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name}: {value} must be >= 1")


@dataclass
class Violation:
    kind: str
    detail: str
    trace: Optional[List[str]] = None
    # an oracle violation's battery program: its index in _ORACLE_BATTERY,
    # core count, coherent ifetch and dcache capacity
    program: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "detail": self.detail, "trace": self.trace}
        if self.program is not None:
            out["program"] = self.program
        return out


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


# --------------------------------------------------------------------------
# Packed abstract state. A state is one immutable bytes value, one byte per
# field; a step copies it into a bytearray, patches it and freezes it. Lines
# are numbered by their position in the machine's sorted address list, and
# line states, transaction kinds and core ops are small int codes (positions
# below). A data value is its index in `machine.vals`, (None,) + the sorted
# stored and initial values and 0, so code 0 is "no value"; messages and
# observations decode through `vals` to the real value.
#
#   per core c, at machine.core_at[c]:
#     pc, then the miss record: kind code (0: no miss), flag bits, line,
#     bitmask of the snoop targets still to probe (bit j is entry j of the
#     fan-out), buffered CD value (0 until a responder transfers: a valid
#     copy's value code is at least 1); then a register slot per read op,
#     op pc filling slot machine.n_read[c][pc] (unfilled slots hold 0)
#   per line l, at machine.line_at[l]:
#     memory value, ghost value (last write in coherence order), then per
#     core: dcache state and value, icache state and value (absent lines
#     hold _I and 0)
#   then: bitmask of the lines in flight (machine.coll_at), and to the end
#     the write-back FIFO, oldest first, as (line, value) byte pairs
# --------------------------------------------------------------------------

_STATES = (LineState.INVALID, LineState.MODIFIED, LineState.OWNED,
           LineState.EXCLUSIVE, LineState.SHARED)
_I, _M, _O, _E, _S = range(5)
_IS_DIRTY = tuple(s in DIRTY_STATES for s in _STATES)

_KINDS = (None, CoherentKind.READ_SHARED, CoherentKind.READ_UNIQUE,
          CoherentKind.CLEAN_UNIQUE, CoherentKind.READ_ONCE)
_RS, _CU, _RO = 1, 3, 4

_OPS = (OpKind.LOAD, OpKind.STORE, OpKind.IFETCH)
_LOAD, _STORE, _IFETCH = range(3)
_OP_OF_VERB = {"R": _LOAD, "W": _STORE, "IF": _IFETCH}

# per-core slots; the register slots follow
_PC, _MK, _MF, _ML, _MM, _MD = range(6)
_CORE_SLOTS = 6
# miss flag bits
_ACCEPTED, _ANY_SHARED, _ANY_DIRTY = 1, 2, 4
# per-line slots; each core's four cache slots follow at 2 + 4 * core
_MEM, _GHOST = 0, 1

_POPCOUNT = (0, 1, 1, 2)  # lines in flight, at most two lines

# successor labels: (_ISSUE, core, pc), (_ACCEPT | _COMPLETE, core, kind,
# line), (_SNOOP, core, kind, line, target), (_DRAIN, line)
_ISSUE, _ACCEPT, _SNOOP, _COMPLETE, _DRAIN = range(5)


class _Machine:
    """Untimed abstraction of one bounded protocol instance."""

    # Apply both partial-order rules: fold each silent snoop into the step
    # that makes it silent (`_settle`) and take a lone load miss as a
    # state's only step (`lone_load`). Read when a machine is built; a
    # machine built without it has every enabled step of every state (the
    # full search).
    reduced = True

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
        self.init_cov: Set[Tuple[int, int]] = set()  # (state code, op code)
        self.snoop_cov: Set[Tuple[int, int]] = set()  # (state code, kind code)
        line_no = {a: i for i, a in enumerate(self.addrs)}
        stored = {op[2] for prog in self.programs for op in prog if op[0] == "W"}
        self.vals = (None,) + tuple(sorted({0} | set(self.init_mem.values()) | stored))
        self.ops = [
            tuple((_OP_OF_VERB[op[0]], line_no[op[1]],
                   self.vals.index(op[2]) if op[0] == "W" else None) for op in prog)
            for prog in self.programs
        ]
        self.n_read = tuple(tuple(accumulate((op[0] != _STORE for op in ops), initial=0))
                            for ops in self.ops)
        self._build_tables()

        n, width = config.n_cores, 2 + 4 * config.n_cores
        *self.core_at, self.tail_at = accumulate(
            (_CORE_SLOTS + row[-1] for row in self.n_read), initial=0)
        self.line_at = tuple(self.tail_at + l * width for l in range(len(self.addrs)))
        self.line_spans = tuple((at, at + width) for at in self.line_at)
        self.dpos = tuple(tuple(at + 2 + 4 * c for at in self.line_at) for c in range(n))
        self.ipos = tuple(tuple(p + 2 for p in row) for row in self.dpos)
        self.coll_at = self.tail_at + len(self.addrs) * width
        self.wb_at = self.coll_at + 1
        self.silent = self._silent_table()
        # lone_load[core][pc] -> the dcache slot of a load whose miss from
        # Invalid is a ReadShared, else 0 (and 0 past the last op); all 0
        # in a machine that is not `reduced`
        rs_miss = self.reduced and self.initiator[_I][_LOAD] == (False, _RS)
        lone_load = tuple(
            tuple(self.dpos[c][line] if rs_miss and op == _LOAD else 0
                  for op, line, _value in ops) + (0,)
            for c, ops in enumerate(self.ops))
        # (core, offset of its slots, op count, lone_load row) in successor order
        self.dispatch = tuple(zip(range(n), self.core_at, map(len, self.ops), lone_load))
        self._line_checks: Dict[tuple, Tuple[tuple, tuple, tuple]] = {}
        self._tail_checks: Dict[bytes, Tuple[str, ...]] = {}

    def _build_tables(self) -> None:
        """Int-coded copies of `protocol.TABLES` with the configured
        mutations applied, and of the Decoder's rules in `ccu`."""
        tables = TABLES.mutated(self.cfg.mutations)
        state_code = {s: i for i, s in enumerate(_STATES)}
        kind_code = {k: i for i, k in enumerate(_KINDS)}  # None -> 0

        # initiator[state][op] -> (True, next state) for a hit, else (False, kind)
        self.initiator = tuple(
            tuple((True, state_code[a.next]) if isinstance(a, Hit) else (False, kind_code[a.kind])
                  for a in (tables.initiator[state, op] for op in _OPS))
            for state in _STATES
        )
        # snoopee[state][kind] -> (next state, data_transfer, pass_dirty, is_shared)
        self.snoopee = tuple(
            (None,) + tuple((state_code[nxt], r.data_transfer, r.pass_dirty, r.is_shared)
                            for nxt, r in (tables.snoopee[state, kind] for kind in _KINDS[1:]))
            for state in _STATES
        )
        # completion[kind, any_shared, any_dirty, store_follows] -> install state
        self.completion = {
            (kind_code[kind], shared, dirty, store): state_code[final]
            for (kind, shared, dirty, store), final in tables.completion.items()
        }
        # reissue[kind] -> kind a miss whose copy a snoop took enters as
        self.reissue = (0,) + tuple(kind_code[tables.reissue[kind]] for kind in _KINDS[1:])
        # take_owned[state] -> a local copy after a data-less dirty handoff
        self.take_owned = tuple(state_code[tables.take_owned[s]] for s in _STATES)
        # admit[mask of lines in flight][line] -> the Decoder lets the miss in
        self.admit = tuple(
            tuple(admits(mask >> line & 1, _POPCOUNT[mask], self.cfg.collision_capacity)
                  for line in (0, 1))
            for mask in range(4)
        )

        # fanout[core][kind] -> ((target, probe_d, probe_i), ...) in probe
        # order; an ifetch miss (ReadOnce) comes from the icache
        self.fanout = tuple(
            (None,) + tuple(
                snoop_targets(core, self.cfg.n_cores, self.cfg.coherent_ifetch,
                              kind is CoherentKind.READ_ONCE)
                for kind in _KINDS[1:]
            )
            for core in range(self.cfg.n_cores)
        )

    def _silent_table(self) -> tuple:
        """silent[core][kind][line] -> per entry j of the fan-out: (bit j,
        the slots the snoop probes (one twice if it probes one structure),
        the target's slot offset, per target pc whether an op from there
        on, looked up from Invalid on the line, hits and so could make the
        snoop find a copy). Every entry is empty in a machine that is not
        `reduced`."""

        def later(target, line):
            marks = [l == line and self.initiator[_I][op][0] for op, l, _value in self.ops[target]]
            return tuple(any(marks[pc:]) for pc in range(len(marks) + 1))

        def entry(line, j, target, probe_d, probe_i):
            probed = [pos[target][line] for pos, on in (
                (self.dpos, probe_d), (self.ipos, probe_i and self.cfg.coherent_ifetch)) if on]
            return (1 << j, probed[0], probed[-1], self.core_at[target], later(target, line))

        return tuple(
            (None,) + tuple(
                tuple(tuple(entry(line, j, *probe)
                            for j, probe in enumerate(fanout[kind] if self.reduced else ()))
                      for line in range(len(self.addrs)))
                for kind in range(1, len(_KINDS))
            )
            for core, fanout in enumerate(self.fanout)
        )

    def initial(self) -> bytes:
        state = bytearray(self.tail_at)  # every core idle at pc 0, no registers
        for addr in self.addrs:
            value = self.vals.index(self.init_mem.get(addr, 0))
            state += bytes((value, value) + (_I, 0, _I, 0) * self.cfg.n_cores)
        return bytes(state + b"\0")  # no line in flight, empty write-back FIFO

    def coverage(self) -> Tuple[Set[tuple], Set[tuple]]:
        """Initiator (LineState, OpKind) and snoopee (LineState,
        CoherentKind) pairs the successor steps have looked up."""
        return (
            {(_STATES[s], _OPS[op]) for s, op in self.init_cov},
            {(_STATES[s], _KINDS[k]) for s, k in self.snoop_cov},
        )

    # -- invariant checks ---------------------------------------------------------

    def state_violations(self, state: bytes) -> Tuple[str, ...]:
        """SWMR messages of every line by address, then stale-copy
        messages, then lost-write messages, memoized on the state's tail
        (line slots, collision mask and write-back FIFO), all they read. A
        new tail is checked per line, memoized on the line and its slots."""
        tail = state[self.tail_at:]
        messages = self._tail_checks.get(tail)
        if messages is not None:
            return messages
        # the collision mask is exactly the lines with an accepted miss:
        # accept sets a line's bit, completion clears it, and a
        # line in the mask admits no second accept
        in_flight = state[self.coll_at]
        in_wb = 0
        for line in state[self.wb_at::2]:
            in_wb |= 1 << line
        memo = self._line_checks
        parts = []
        for line, (lo, hi) in enumerate(self.line_spans):
            # the messages name the line's address, so the line is in the key
            key = (line, state[lo:hi], in_flight >> line & 1, in_wb >> line & 1)
            found = memo.get(key)
            if found is None:
                found = memo[key] = self._line_violations(*key)
            if found[0] or found[1] or found[2]:
                parts.append(found)
        messages = self._tail_checks[tail] = tuple(
            msg for i in (0, 1, 2) for found in parts for msg in found[i])
        return messages

    def _line_violations(self, line: int, slots: bytes, in_flight: int,
                         in_wb: int) -> Tuple[tuple, tuple, tuple]:
        addr, vals = self.addrs[line], self.vals
        mem, ghost = slots[_MEM], slots[_GHOST]
        copies = []
        dirty = False
        for core in range(self.cfg.n_cores):
            dstate, dval, istate, ival = slots[2 + 4 * core:6 + 4 * core]
            if dstate:
                copies.append(CopyView(core, _STATES[dstate], dval))
                dirty = dirty or _IS_DIRTY[dstate]
            if istate and self.cfg.coherent_ifetch:
                copies.append(CopyView(core, _STATES[istate], ival, True))
        swmr = tuple(check_swmr({addr: (copies, mem)}))
        stale = tuple(
            f"line {addr:#x}: core {c.core} holds stale value {vals[c.data]} "
            f"(authoritative {vals[ghost]})"
            for c in copies if c.data != ghost
        )
        # memory must be authoritative once a line is quiescent and clean
        lost = ()
        if not (in_flight or in_wb or dirty) and mem != ghost:
            lost = (f"line {addr:#x}: memory {vals[mem]} lost the last write "
                    f"(authoritative {vals[ghost]})",)
        return swmr, stale, lost

    # -- atomic steps ----------------------------------------------------------------

    def successors(self, state: bytes) -> List[Tuple[tuple, bytes, Optional[str]]]:
        """(label, next state, stale-data note or None) per enabled step:
        cores in order, a core's snoop targets in fan-out order, the
        write-back drain last. The issue of the first lone load miss in
        that order, if there is one, is the only step.

        A lone load is an idle core's next op when it is a Load, the
        core's dcache holds its line Invalid, and the table row (Invalid,
        Load) misses as ReadShared. The issue reads the core's pc and
        dcache slot, which only the core's own steps change (no snoop
        gives a copy), and writes only the core's miss kind and line,
        which only the core's own later steps read. So the issue commutes
        with every other step and leaves the state tail, all the invariant
        checks read, unchanged. It stays enabled until taken, and no issue
        lies on a cycle since a core's pc never decreases.
        Taking it alone keeps every outcome, deadlock and violation (the
        ample-set conditions of Peled, CAV 1993)."""
        for core, at, _n_ops, lone_load in self.dispatch:
            if not state[at + _MK]:
                pos = lone_load[state[at + _PC]]
                if pos and not state[pos]:
                    return [self._issue(state, core)]
        out = []
        for core, at, n_ops, _lone_load in self.dispatch:
            kind = state[at + _MK]
            if not kind:
                if state[at + _PC] < n_ops:
                    out.append(self._issue(state, core))
            elif not state[at + _MF] & _ACCEPTED:
                if self.admit[state[self.coll_at]][state[at + _ML]]:
                    out.append(self._accept(state, core))
            elif state[at + _MM]:
                mask, j = state[at + _MM], 0
                while mask:
                    if mask & 1:
                        out.append(self._snoop(state, core, j))
                    mask >>= 1
                    j += 1
            else:
                step = self._complete(state, core)
                if step is not None:
                    out.append(step)
        if len(state) > self.wb_at:
            out.append(self._drain(state))
        return out

    def _settle(self, new: bytearray, core: int) -> None:
        """Run, in place, every silent snoop pending in `core`'s mask. A
        pending snoop is silent when its target holds the line Invalid in
        every structure the snoop probes and has no op left that, looked
        up from Invalid on the line, hits.

        Such a snoop does what `_snoop` does when it finds no copy: it
        clears its bit of the initiator's mask and records the (Invalid,
        kind) coverage pair, and changes no cache slot.
        While the line is in flight the collision rule admits no other
        miss on it, so no other step can give the target a copy or read
        that bit: the snoop stays silent and commutes with every step. It
        leaves the state tail, all the invariant checks read, unchanged. So it is folded
        into the step that made it silent, and the state in between is
        never stored (Godefroid's persistent sets, LNCS 1032, 1996). Only
        an accept sets mask bits, and only a capacity eviction can take
        the copy a pending snoop would find, so those two steps call
        this."""
        at = self.core_at[core]
        mask, kind, line = new[at + _MM], new[at + _MK], new[at + _ML]
        for bit, p1, p2, tat, later in self.silent[core][kind][line]:
            if mask & bit and not (new[p1] or new[p2] or later[new[tat + _PC]]):
                mask ^= bit
                self.snoop_cov.add((_I, kind))
        new[at + _MM] = mask

    def _issue(self, state: bytes, core: int):
        at = self.core_at[core]
        pc = state[at + _PC]
        op, line, value = self.ops[core][pc]
        label = (_ISSUE, core, pc)
        new = bytearray(state)
        reg = at + _CORE_SLOTS + self.n_read[core][pc]
        pos = (self.ipos if op == _IFETCH else self.dpos)[core][line]
        cstate = state[pos]
        self.init_cov.add((cstate, op))
        hit, code = self.initiator[cstate][op]
        if hit:
            new[pos] = code
            if op == _STORE:
                new[pos + 1] = new[self.line_at[line] + _GHOST] = value
            else:
                new[reg] = state[pos + 1]
        elif op == _IFETCH and not self.cfg.coherent_ifetch:
            # non-coherent fill straight from memory; staleness permitted
            value = state[self.line_at[line] + _MEM]
            new[pos], new[pos + 1] = _S, value
            new[reg] = value
        else:
            new[at + _MK], new[at + _ML] = code, line
            return label, bytes(new), None
        new[at + _PC] = pc + 1
        return label, bytes(new), None

    def _accept(self, state: bytes, core: int):
        at = self.core_at[core]
        kind, line = state[at + _MK], state[at + _ML]
        # a miss whose dcache no longer holds its line enters as the
        # reissue row says (a CleanUnique whose copy a snoop took asks
        # for the data), as `cache.CacheModel.entry_kind` does
        if not state[self.dpos[core][line]]:
            kind = self.reissue[kind]
        new = bytearray(state)
        new[at + _MK] = kind
        new[at + _MF] = _ACCEPTED
        new[at + _MM] = (1 << len(self.fanout[core][kind])) - 1
        new[self.coll_at] |= 1 << line
        self._settle(new, core)
        return (_ACCEPT, core, kind, line), bytes(new), None

    def _snoop(self, state: bytes, core: int, j: int):
        at = self.core_at[core]
        kind, line = state[at + _MK], state[at + _ML]
        target, probe_d, probe_i = self.fanout[core][kind][j]
        data_transfer = pass_dirty = is_shared = data_val = 0
        new = bytearray(state)

        if probe_d:
            pos = self.dpos[target][line]
            dstate = state[pos]
            self.snoop_cov.add((dstate, kind))
            nxt, dt, pd, sh = self.snoopee[dstate][kind]
            if dstate:
                if dt:
                    data_val = state[pos + 1]
                if nxt == _I:
                    new[pos] = new[pos + 1] = _I
                else:
                    new[pos] = nxt
                data_transfer |= dt
                pass_dirty |= pd
                is_shared |= sh
        if probe_i and self.cfg.coherent_ifetch:
            pos = self.ipos[target][line]
            istate = state[pos]
            self.snoop_cov.add((istate, kind))
            nxt, dt, _pd, sh = self.snoopee[istate][kind]
            if istate:
                if dt and not data_val:
                    data_val = state[pos + 1]
                if nxt == _I:
                    new[pos] = new[pos + 1] = _I
                data_transfer |= dt
                is_shared |= sh

        if data_transfer and not new[at + _MD]:
            new[at + _MD] = data_val
        if pass_dirty and not data_transfer:
            # data-less handoff: the initiator's own copy takes Owned now
            pos = self.dpos[core][line]
            new[pos] = self.take_owned[new[pos]]
        new[at + _MM] &= ~(1 << j)
        if is_shared:
            new[at + _MF] |= _ANY_SHARED
        if pass_dirty:
            new[at + _MF] |= _ANY_DIRTY
        return (_SNOOP, core, kind, line, target), bytes(new), None

    def _complete(self, state: bytes, core: int):
        at = self.core_at[core]
        kind, flags, line = state[at + _MK], state[at + _MF], state[at + _ML]
        addr = self.addrs[line]
        dpos = self.dpos[core][line]
        wb = state[self.wb_at:]
        new = bytearray(state)

        # pick the data the install will use
        note = None
        ghost = state[self.line_at[line] + _GHOST]
        if kind == _CU:
            if state[dpos]:
                base = state[dpos + 1]
            else:
                base = self.vals.index(0)
                note = f"line {addr:#x}: CleanUnique completed without a local copy"
        elif state[at + _MD]:
            base = state[at + _MD]
        else:
            if read_waits(line, zip(wb[::2], wb[1::2])):
                return None  # memory read must wait for the same-line write-back
            base = state[self.line_at[line] + _MEM]
        if note is None and base != ghost:
            note = (f"line {addr:#x}: completion used stale value {self.vals[base]} "
                    f"(authoritative {self.vals[ghost]})")

        pc = state[at + _PC]
        op, _line, value = self.ops[core][pc]
        store_follows = int(op == _STORE)
        final = self.completion[
            kind, bool(flags & _ANY_SHARED), bool(flags & _ANY_DIRTY), store_follows
        ]

        reg = at + _CORE_SLOTS + self.n_read[core][pc]
        evicted = None
        if kind == _RO:
            pos = self.ipos[core][line]
            new[pos], new[pos + 1] = final, base
            new[reg] = base
        else:
            if store_follows:
                new[self.line_at[line] + _GHOST] = value
            else:
                value = new[reg] = base
            cap = self.cfg.dcache_capacity
            if kind != _CU and not state[dpos] and cap is not None:
                resident = [l for l, pos in enumerate(self.dpos[core]) if state[pos]]
                if len(resident) >= cap:
                    victim = resident[0]  # the lowest-address resident line
                    pos = self.dpos[core][victim]
                    if _IS_DIRTY[state[pos]]:
                        if fifo_full(wb[::2], self.cfg.wb_depth):
                            return None  # write-back FIFO full: install stalls
                        new.extend((victim, state[pos + 1]))
                    new[pos] = new[pos + 1] = _I
                    evicted = victim
            if store_follows and final not in (_M, _E):
                note = note or f"line {addr:#x}: store completion installed {_STATES[final].value}"
            new[dpos] = _M if store_follows else final
            new[dpos + 1] = value

        new[at + _PC] = pc + 1
        new[at + _MK:at + _CORE_SLOTS] = bytes(_CORE_SLOTS - _MK)  # no miss
        new[self.coll_at] &= ~(1 << line)
        if evicted is not None:
            # the evicted copy may have been all a pending snoop could find
            for other, oat, _n_ops, _lone in self.dispatch:
                if new[oat + _MM] and new[oat + _ML] == evicted:
                    self._settle(new, other)
        return (_COMPLETE, core, kind, line), bytes(new), note

    def _drain(self, state: bytes):
        line, value = state[self.wb_at], state[self.wb_at + 1]
        new = bytearray(state)
        del new[self.wb_at:self.wb_at + 2]
        new[self.line_at[line] + _MEM] = value
        return (_DRAIN, line), bytes(new), None

    # -- terminal observations and labels -------------------------------------------

    def all_done(self, state: bytes) -> bool:
        return len(state) == self.wb_at and all(
            not state[at + _MK] and state[at + _PC] >= len(ops)
            for at, ops in zip(self.core_at, self.ops)
        )

    def observation(self, state: bytes) -> tuple:
        """(per-core register tuples, sorted (addr, last written value))."""
        regs = (state[at + _CORE_SLOTS:at + _CORE_SLOTS + n[state[at + _PC]]]
                for at, n in zip(self.core_at, self.n_read))
        return (
            tuple(tuple(self.vals[v] for v in filled) for filled in regs),
            tuple((a, self.vals[state[at + _GHOST]]) for a, at in zip(self.addrs, self.line_at)),
        )

    def label_text(self, label: tuple) -> str:
        what = label[0]
        if what == _DRAIN:
            return f"memory: drain write-back {self.addrs[label[1]]:#x}"
        core = label[1]
        if what == _ISSUE:
            op = self.programs[core][label[2]]
            return f"core {core}: issue {op[0]} {op[1]:#x}"
        kind, addr = _KINDS[label[2]].value, self.addrs[label[3]]
        if what == _SNOOP:
            return f"core {core}: snoop core {label[4]} ({kind} {addr:#x})"
        verb = "accept" if what == _ACCEPT else "complete"
        return f"core {core}: {verb} {kind} {addr:#x}"


def explore(
    programs: Sequence[Sequence[tuple]],
    config: ExploreConfig = ExploreConfig(),
    init_mem: Optional[Dict[int, int]] = None,
    workers: int = 1,
) -> ExploreResult:
    """Enumerate all interleavings of the abstract machine by one
    breadth-first search over its deduplicated states.

    States are expanded in discovery order, each one's successors in
    `successors()` order, and every state keeps the index of the state
    that discovered it. A silent snoop runs inside the step that makes
    it silent, and a lone load miss is a state's only successor, so the
    other interleavings of those steps are not visited. A counterexample
    trace is the parent chain of the violation's first sighting, so it is
    the shortest one in this reduced graph and, among those, the first
    found; it names no silent snoop. `config.state_budget` counts the
    states of the reduced graph, and a cut keeps the first states in
    breadth-first order. `workers` is validated and otherwise ignored:
    the search runs in this process.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    machine = _Machine(programs, config, init_mem)
    successors, state_violations = machine.successors, machine.state_violations
    root = machine.initial()
    seen = {root}
    order = [root]  # every state in breadth-first order
    parent = array("I", [0])  # index in `order` of each state's discoverer
    # first sighting per descriptor: (state index, label of the step out of
    # it or None); a deadlock has no trace
    first: Dict[Tuple[str, str], Optional[tuple]] = {}
    outcomes: Set[tuple] = set()
    exhausted = True

    for problem in state_violations(root):
        first.setdefault(("invariant", problem), (0, None))
    add, append_state, append_parent = seen.add, order.append, parent.append
    for i, current in enumerate(order):  # `order` grows while it is walked
        succs = successors(current)
        if not succs:
            outcomes.add(machine.observation(current))
            if not machine.all_done(current):
                first.setdefault(("deadlock", "pending work but no enabled step" if i
                                  else "no step possible from the initial state"), None)
        for label, succ, note in succs:
            if note:
                first.setdefault(("stale-data", note), (i, label))
            n_seen = len(seen)
            add(succ)  # one hash per probe: a new state grows the set
            if len(seen) > n_seen:
                for problem in state_violations(succ):
                    first.setdefault(("invariant", problem), (len(order), None))
                append_state(succ)
                append_parent(i)
        if len(order) > config.state_budget and i + 1 < len(order):
            exhausted = False
            break

    violations = [Violation(kind, detail) for kind, detail in sorted(first)]
    if violations and exhausted:
        _attach_traces(machine, order, parent, first, violations)
    initiator_pairs, snoopee_pairs = machine.coverage()
    return ExploreResult(
        reachable_states=len(order),
        violations=violations,
        outcomes=outcomes,
        exhausted=exhausted,
        initiator_pairs=initiator_pairs,
        snoopee_pairs=snoopee_pairs,
    )


def _attach_traces(machine: _Machine, order: List[bytes], parent: array,
                   first: Dict[Tuple[str, str], Optional[tuple]],
                   violations: List[Violation]) -> None:
    """Give each violation but a deadlock the parent chain of its first
    sighting as its trace. A step's label is the first of the parent's
    successors that yields the child: the step that discovered it."""
    for violation in violations:
        sighting = first[violation.kind, violation.detail]
        if sighting is None:
            continue
        index, last = sighting
        labels = [] if last is None else [last]
        while index:
            up, child = parent[index], order[index]
            labels.append(next(label for label, succ, _note in machine.successors(order[up])
                               if succ == child))
            index = up
        violation.trace = [f"{i}. {machine.label_text(label)}"
                           for i, label in enumerate(reversed(labels), start=1)]


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
    named = set(test.programs)
    named.update(atom[1] for clause in test.forbidden for atom, _ in clause if atom[0] == "reg")
    outside = sorted(c for c in named if not 0 <= c < config.n_cores)
    if outside:
        raise ValueError(f"litmus test {test.name}: core(s) {outside} outside "
                         f"the {config.n_cores} configured cores")
    # a register is the result of one R or IF op: an atom on any other
    # can never match, so its clause would pass unseen
    reads = {core: sum(op[0] in ("R", "IF") for op in ops) for core, ops in test.programs.items()}
    unread = sorted({f"{atom[1]}:r{atom[2]}" for clause in test.forbidden for atom, _ in clause
                     if atom[0] == "reg" and not 0 <= atom[2] < reads.get(atom[1], 0)})
    if unread:
        raise ValueError(f"litmus test {test.name}: register(s) {unread} read by no op")
    # a memory atom on a line no op or init names reads the zero fill:
    # it says nothing about the program
    used = set(test.init).union(op[1] for ops in test.programs.values() for op in ops)
    unused = sorted({atom[1] for clause in test.forbidden for atom, _ in clause
                     if atom[0] == "mem" and atom[1] not in used})
    if unused:
        raise ValueError(f"litmus test {test.name}: address(es) "
                         f"{[hex(a) for a in unused]} named by no op or init")
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
        return regs[core][idx] == value
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


def oracle_tables(mutations: FrozenSet[str] = frozenset(),
                  state_budget: int = ExploreConfig.state_budget) -> OracleReport:
    """Certify the protocol tables by exhaustive exploration of a program
    battery covering every reachable (state, op) and (state, snoop) pair.
    `state_budget` bounds each battery program; a program that exceeds
    it adds a "budget" violation."""
    init_cov: Set[tuple] = set()
    snoop_cov: Set[tuple] = set()
    violations: List[Violation] = []
    total_states = 0
    for index, (n_cores, ifetch, capacity, programs) in enumerate(_ORACLE_BATTERY):
        cfg = ExploreConfig(
            n_cores=n_cores,
            coherent_ifetch=ifetch,
            dcache_capacity=capacity,
            mutations=mutations,
            state_budget=state_budget,
        )
        result = explore(programs, cfg)
        init_cov |= result.initiator_pairs
        snoop_cov |= result.snoopee_pairs
        total_states += result.reachable_states
        if not result.exhausted:
            result.violations.append(Violation("budget", "exploration was not exhaustive"))
        where = {"index": index, "cores": n_cores, "coherent_ifetch": ifetch,
                 "dcache_capacity": capacity}
        for violation in result.violations:
            violation.program = where
        violations.extend(result.violations)

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
