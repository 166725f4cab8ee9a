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
  data-value invariants in every reachable state: once per distinct
  state tail (line slots, collision mask and write-back FIFO), all the
  checks read, on the first state that has it. Two partial-order
  rules (`_Machine.reduced`) keep every outcome, deadlock, violation and
  coverage pair but visit fewer states: a snoop that finds no copy and
  cannot find one later runs inside the accept or eviction that makes it
  so (`_Machine._settle`), and an idle core's miss from Invalid is a
  state's only step (`_Machine.successors`). Each counterexample trace
  is the shortest one in that reduced graph, read back from the search's
  parent links, so it lists no such silent snoop, and a state budget
  counts its states.
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

import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, count
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .cache import WORD_BYTES, CopyView
from .ccu import admits, snoop_targets
from .memsys import fifo_full, read_waits
from .protocol import (
    CoherentKind,
    DATA_KINDS,
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
    """One bounded explorer instance. `dcache_capacity` bounds the lines
    a data cache holds (None: both fit); a fill into a full one evicts its
    lowest-address resident line, where the timed caches evict round robin
    per set. At the explorer's bound of 2 lines only capacity 1 evicts, so
    the victim is forced and the two agree; lifting the bound needs a
    nondeterministic victim."""

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
_RO = 4

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

# the explorer's bound: a program names at most MAX_LINES line addresses
# (its init included) and gives each core at most MAX_OPS_PER_CORE ops
MAX_LINES = 2
MAX_OPS_PER_CORE = 6

# successor labels: (_ISSUE, core, pc), (_ACCEPT | _COMPLETE, core, kind,
# line), (_SNOOP, core, kind, line, target), (_DRAIN, line)
_ISSUE, _ACCEPT, _SNOOP, _COMPLETE, _DRAIN = range(5)


@lru_cache(maxsize=None)
def _coded_tables(mutations: FrozenSet[str]) -> tuple:
    """The int-coded rows of `TABLES.mutated(mutations)`, once per set."""
    tables = TABLES.mutated(mutations)
    state_code = {s: i for i, s in enumerate(_STATES)}
    kind_code = {k: i for i, k in enumerate(_KINDS)}  # None -> 0
    # a data source as its value slot's offset from the dcache slot; 0: none
    value_at = {None: 0, "d": 1, "i": 3}
    # initiator[state][op] -> (True, next state) for a hit, else (False, kind)
    initiator = tuple(
        tuple((True, state_code[a.next]) if isinstance(a, Hit) else (False, kind_code[a.kind])
              for a in (tables.initiator[state, op] for op in _OPS))
        for state in _STATES
    )
    # probe[dstate][istate][kind] -> (dcache next, icache next,
    # data_transfer, pass_dirty, is_shared, value_at of the data)
    probe = tuple(tuple((None,) + tuple(
        (state_code[dnext], state_code[inext], r.data_transfer, r.pass_dirty, r.is_shared,
         value_at[source])
        for dnext, inext, r, source in (tables.probe[d, i, kind] for kind in _KINDS[1:])
    ) for i in _STATES) for d in _STATES)
    # completion[kind, any_shared, any_dirty, store_follows] -> install state
    completion = {
        (kind_code[kind], shared, dirty, store): state_code[final]
        for (kind, shared, dirty, store), final in tables.completion.items()
    }
    # reissue[kind] -> kind a miss whose copy a snoop took enters as
    reissue = (0,) + tuple(kind_code[tables.reissue[kind]] for kind in _KINDS[1:])
    # carries_data[kind] -> its completion installs a line, not an upgrade
    carries_data = (False,) + tuple(kind in DATA_KINDS for kind in _KINDS[1:])
    return initiator, probe, completion, reissue, carries_data


@lru_cache(maxsize=None)
def _config_tables(n_cores: int, coherent_ifetch: bool, collision_capacity: int) -> tuple:
    """The lookups a machine reads off its configuration alone, once per
    configuration."""
    # admit[mask of lines in flight][line] -> the Decoder lets the miss in
    admit = tuple(
        tuple(admits(mask >> line & 1, bin(mask).count("1"), collision_capacity)
              for line in range(MAX_LINES))
        for mask in range(1 << MAX_LINES)
    )
    # fanout[core][kind] -> ((target, probe_d, probe_i), ...) in probe
    # order; an ifetch miss (ReadOnce) comes from the icache
    fanout = tuple(
        (None,) + tuple(
            snoop_targets(core, n_cores, coherent_ifetch, kind is CoherentKind.READ_ONCE)
            for kind in _KINDS[1:]
        )
        for core in range(n_cores)
    )
    return admit, fanout


class _Machine:
    """Untimed abstraction of one bounded protocol instance."""

    # Apply both partial-order rules: fold each silent snoop into the step
    # that makes it silent (`_settle`) and take a lone miss as a state's
    # only step (`lone_miss`). Read when a machine is built; a
    # machine built without it has every enabled step of every state (the
    # full search).
    reduced = True

    def __init__(self, programs: Sequence[Sequence[tuple]], config: ExploreConfig,
                 init_mem: Optional[Dict[int, int]] = None):
        if len(programs) != config.n_cores:
            raise ValueError("one program per core required")
        for prog in programs:
            if len(prog) > MAX_OPS_PER_CORE:
                raise ValueError(f"explorer bound: at most {MAX_OPS_PER_CORE} ops per core")
        self.programs = [tuple(p) for p in programs]
        self.cfg = config
        addrs = {op[1] for prog in programs for op in prog}
        addrs |= set(init_mem or ())
        if len(addrs) > MAX_LINES:
            raise ValueError(f"explorer bound: at most {MAX_LINES} line addresses")
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
        # int-coded rows of `protocol.TABLES` under the configured mutations
        (self.initiator, self.probe, self.completion, self.reissue,
         self.carries_data) = _coded_tables(frozenset(config.mutations))
        self.admit, self.fanout = _config_tables(
            config.n_cores, config.coherent_ifetch, config.collision_capacity)

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
        # lone_miss[core][pc] -> the slot an op looks up if, from Invalid,
        # it misses to the Decoder, else 0 (and 0 past the last op); all 0
        # in a machine that is not `reduced`. Every op misses from Invalid
        # (`protocol.Tables` refuses an Invalid row that hits), but a
        # non-coherent ifetch fills its icache from memory instead
        misses = tuple(self.reduced and (op != _IFETCH or config.coherent_ifetch)
                       for op in range(3))
        lone_miss = tuple(
            tuple((self.ipos if op == _IFETCH else self.dpos)[c][line] if misses[op] else 0
                  for op, line, _value in ops) + (0,)
            for c, ops in enumerate(self.ops))
        # (core, offset of its slots, op count, lone_miss row) in successor order
        self.dispatch = tuple(zip(range(n), self.core_at, map(len, self.ops), lone_miss))
        self._line_checks = {}

    def _silent_table(self) -> tuple:
        """silent[core][kind][line] -> per entry j of the fan-out: (bit j,
        the slots the snoop probes (one twice if it probes one structure)).
        Every entry is empty in a machine that is not `reduced`. Kinds of
        one fan-out (a core's three data-side kinds) share one row."""
        lines = range(len(self.addrs))
        table = []
        for fanouts in self.fanout:
            rows = {}  # fan-out -> its row per line
            per_kind = [None]
            for fanout in fanouts[1:] if self.reduced else ((),) * (len(fanouts) - 1):
                row = rows.get(fanout)
                if row is None:  # entry j: target t, probes dcache d, icache i
                    row = rows[fanout] = tuple(tuple(
                        (1 << j, (self.dpos if d else self.ipos)[t][line],
                         (self.ipos if i else self.dpos)[t][line])
                        for j, (t, d, i) in enumerate(fanout)) for line in lines)
                per_kind.append(row)
            table.append(tuple(per_kind))
        return tuple(table)

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
        messages, then lost-write messages. They read only the state's
        tail (line slots, collision mask and write-back FIFO), so
        `explore` calls this once per distinct tail, on its first state.
        Each line is checked once per machine, memoized on the line and
        its slots (as () if it has none)."""
        # the collision mask is exactly the lines with an accepted miss:
        # accept sets a line's bit, completion clears it, and a
        # line in the mask admits no second accept
        in_flight = state[self.coll_at]
        in_wb = 0
        if len(state) > self.wb_at:
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
            if found:
                parts.append(found)
        if not parts:
            return ()
        return tuple(msg for i in (0, 1, 2) for found in parts for msg in found[i])

    def _line_violations(self, line: int, slots: bytes, in_flight: int,
                         in_wb: int) -> tuple:
        addr, vals = self.addrs[line], self.vals
        mem, ghost = slots[_MEM], slots[_GHOST]
        copies = []
        stale = ()
        dirty = False
        for core in range(self.cfg.n_cores):
            at = 2 + 4 * core
            dstate, istate = slots[at], slots[at + 2]
            if dstate:
                copies.append(CopyView(core, _STATES[dstate], slots[at + 1]))
                dirty = dirty or _IS_DIRTY[dstate]
            if istate and self.cfg.coherent_ifetch:
                copies.append(CopyView(core, _STATES[istate], slots[at + 3], True))
        for c in copies:
            if c.data != ghost:
                stale += (f"line {addr:#x}: core {c.core} holds stale value {vals[c.data]} "
                          f"(authoritative {vals[ghost]})",)
        swmr = tuple(check_swmr({addr: (copies, mem)}))
        # memory must be authoritative once a line is quiescent and clean
        lost = ()
        if not (in_flight or in_wb or dirty) and mem != ghost:
            lost = (f"line {addr:#x}: memory {vals[mem]} lost the last write "
                    f"(authoritative {vals[ghost]})",)
        return (swmr, stale, lost) if swmr or stale or lost else ()

    # -- atomic steps ----------------------------------------------------------------

    def successors(self, state: bytes) -> List[Tuple[tuple, bytes, Optional[str]]]:
        """(label, next state, stale-data note or None) per enabled step:
        cores in order, a core's snoop targets in fan-out order, the
        write-back drain last. The issue of the first lone miss in that
        order, if there is one, is the only step.

        A lone miss is an idle core's next op when it is a Load or a
        Store on a line its dcache holds Invalid, or an IFetch on a line
        its icache holds Invalid with coherent ifetch on. Such an op
        misses, since `protocol.Tables` refuses an Invalid initiator row
        that hits. The issue reads the
        core's pc, its idle miss slot and that Invalid slot. No other
        core's step changes these: a probe row writes only a valid slot
        (`protocol.Tables` refuses an Invalid snoopee row that changes
        the state), only the core's own completion fills or evicts its
        lines, and the core is idle. The issue writes only the core's
        miss kind and line; another core reads those only once the miss
        has a snoop mask (`_complete`'s eviction settle). So the issue
        commutes with every other step and leaves the state tail, all the
        invariant checks read, unchanged. It stays enabled until taken, and no issue
        lies on a cycle since a core's pc never decreases.
        Taking it alone keeps every outcome, deadlock and violation (the
        ample-set conditions of Peled, CAV 1993).

        One walk over the cores both builds the steps and looks for a lone
        miss, so the steps built for earlier cores before one is found are
        dropped. Their only lasting effect is the coverage pairs they look
        up. Each such step reads no slot the issue writes and stays
        enabled after it, and lone misses run out since pcs only grow, so
        an exhaustive search builds it later, from a state it reaches
        anyway, with the same lookups: its coverage is unchanged."""
        out = []
        for core, at, n_ops, lone_miss in self.dispatch:
            kind = state[at + _MK]
            if not kind:
                pc = state[at + _PC]
                pos = lone_miss[pc]
                if pos and not state[pos]:
                    return [self._issue(state, core)]
                if pc < n_ops:
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
        every structure the snoop probes.

        Such a snoop does what `_snoop` does when it finds no copy: it
        clears its bit of the initiator's mask and records the (Invalid,
        kind) coverage pair, and changes no cache slot and no miss flag,
        since `protocol.Tables` refuses an Invalid snoopee row whose next
        state is valid or whose CR has a bit set.
        The target's own ops cannot give it a copy either: `protocol.Tables`
        refuses an Invalid initiator row that hits, so only a miss fills
        the line, and while the line is in flight the collision rule
        admits no other miss on it. So no step can give the target a copy
        or read that bit: the snoop stays silent and commutes with every step. It
        leaves the state tail, all the invariant checks read, unchanged. So it is folded
        into the step that made it silent, and the state in between is
        never stored (Godefroid's persistent sets, LNCS 1032, 1996). Only
        an accept sets mask bits, and only a capacity eviction can take
        the copy a pending snoop would find, so those two steps call
        this."""
        at = self.core_at[core]
        mask, kind, line = new[at + _MM], new[at + _MK], new[at + _ML]
        for bit, p1, p2 in self.silent[core][kind][line]:
            if mask & bit and not (new[p1] or new[p2]):
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
        """Probe fan-out entry `j` of the core's miss and fold its CR.

        A data-less PassDirty (a CleanUnique stripping a dirty holder)
        needs no handoff rule: it only sets the miss's dirty flag, and
        the initiator's copy stays as it was until the completion
        installs Modified. No check misses the responsibility meanwhile:
        `_line_violations` never compares clean copies with memory, and
        skips the lost-write check while the line is in flight."""
        at = self.core_at[core]
        kind, line = state[at + _MK], state[at + _ML]
        target, probe_d, probe_i = self.fanout[core][kind][j]
        dpos, ipos = self.dpos[target][line], self.ipos[target][line]
        # a structure that is not probed answers as Invalid
        dstate = state[dpos] if probe_d else _I
        istate = state[ipos] if probe_i else _I
        if probe_d:
            self.snoop_cov.add((dstate, kind))
        if probe_i:
            self.snoop_cov.add((istate, kind))
        dnext, inext, data_transfer, pass_dirty, is_shared, value_at = \
            self.probe[dstate][istate][kind]
        new = bytearray(state)
        if dstate:
            new[dpos] = dnext
            if dnext == _I:
                new[dpos + 1] = 0
        if istate:
            new[ipos] = inext
            if inext == _I:
                new[ipos + 1] = 0

        if data_transfer and not new[at + _MD]:
            new[at + _MD] = state[dpos + value_at]
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
        new = bytearray(state)

        # pick the data the install will use
        note = None
        ghost = state[self.line_at[line] + _GHOST]
        carries_data = self.carries_data[kind]
        if not carries_data:  # an upgrade of the copy it holds
            if state[dpos]:
                base = state[dpos + 1]
            else:
                base = self.vals.index(0)
                note = f"line {addr:#x}: CleanUnique completed without a local copy"
        elif state[at + _MD]:
            base = state[at + _MD]
        else:
            if len(state) > self.wb_at:
                wb = state[self.wb_at:]
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
            if carries_data and not state[dpos] and cap is not None:
                resident = [l for l, pos in enumerate(self.dpos[core]) if state[pos]]
                if len(resident) >= cap:
                    victim = resident[0]  # the lowest-address resident line
                    pos = self.dpos[core][victim]
                    if _IS_DIRTY[state[pos]]:
                        if fifo_full(state[self.wb_at::2], self.cfg.wb_depth):
                            return None  # write-back FIFO full: install stalls
                        new.extend((victim, state[pos + 1]))
                    new[pos] = new[pos + 1] = _I
                    evicted = victim
            if store_follows and final not in (_M, _E):
                note = note or f"line {addr:#x}: store completion installed {_STATES[final].value}"
            new[dpos] = final
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
    that discovered it. The invariant checks read only a state's tail, so
    after the search they run once per distinct tail, on the first state
    that has it: the first sighting of each problem they find. A silent
    snoop runs inside the step that makes it silent, and a lone miss is a
    state's only successor, so the other interleavings of those steps
    are not visited. A counterexample trace is the parent chain of the
    violation's first sighting, so it is the shortest one in this reduced
    graph and, among those, the first found; it names no silent snoop. `config.state_budget` counts the
    states of the reduced graph, and a cut keeps the first states in
    breadth-first order. `workers` is validated and otherwise ignored:
    the search runs in this process.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    machine = _Machine(programs, config, init_mem)
    successors, tail_at = machine.successors, machine.tail_at
    root = machine.initial()
    seen = {root}
    order = [root]  # every state in breadth-first order
    parent = array("I", [0])  # index in `order` of each state's discoverer
    # index in `order` of the first state with each distinct tail, in
    # index order: the tail is all the invariant checks read
    tails = {root[tail_at:]: 0}
    # first sighting per descriptor: (state index, label of the step out of
    # it or None); a deadlock has no trace
    first: Dict[Tuple[str, str], Optional[tuple]] = {}
    outcomes: Set[tuple] = set()
    exhausted = True

    add, append_state, append_parent = seen.add, order.append, parent.append
    first_with_tail, budget = tails.setdefault, config.state_budget
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
            if succ in seen:
                continue
            add(succ)
            first_with_tail(succ[tail_at:], len(order))
            append_state(succ)
            append_parent(i)
        if len(order) > budget and i + 1 < len(order):
            exhausted = False
            break

    # tails in index order, so each problem keeps its lowest state index
    state_violations = machine.state_violations
    for index in tails.values():
        for problem in state_violations(order[index]):
            first.setdefault(("invariant", problem), (index, None))
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
    successors that yields the child: the step that discovered it. Chains
    share their shallow links, so each state's label is found once."""
    found: Dict[int, tuple] = {}  # state index -> the label of the step into it
    for violation in violations:
        sighting = first[violation.kind, violation.detail]
        if sighting is None:
            continue
        index, last = sighting
        labels = [] if last is None else [last]
        while index:
            up = parent[index]
            label = found.get(index)
            if label is None:
                child = order[index]
                label = found[index] = next(
                    step for step, succ, _note in machine.successors(order[up])
                    if succ == child)
            labels.append(label)
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


def check_litmus(test: LitmusTest, n_cores: int) -> None:
    """Refuse a litmus test that names a core outside `n_cores`, that
    exceeds the explorer's bound, or whose forbidden outcome names a
    register or an address nothing gives a value."""
    named = set(test.programs)
    named.update(atom[1] for clause in test.forbidden for atom, _ in clause if atom[0] == "reg")
    outside = sorted(c for c in named if not 0 <= c < n_cores)
    if outside:
        raise ValueError(f"litmus test {test.name}: core(s) {outside} outside "
                         f"the {n_cores} configured cores")
    longest = max(map(len, test.programs.values()), default=0)
    if longest > MAX_OPS_PER_CORE:
        raise ValueError(f"litmus test {test.name}: {longest} ops on a core, over the "
                         f"explorer bound of {MAX_OPS_PER_CORE}")
    used = set(test.init).union(op[1] for ops in test.programs.values() for op in ops)
    if len(used) > MAX_LINES:
        raise ValueError(f"litmus test {test.name}: {len(used)} line addresses, over the "
                         f"explorer bound of {MAX_LINES}")
    # a register is the result of one R or IF op: an atom on any other
    # can never match, so its clause would pass unseen
    reads = {core: sum(op[0] in ("R", "IF") for op in ops) for core, ops in test.programs.items()}
    unread = sorted({f"{atom[1]}:r{atom[2]}" for clause in test.forbidden for atom, _ in clause
                     if atom[0] == "reg" and not 0 <= atom[2] < reads.get(atom[1], 0)})
    if unread:
        raise ValueError(f"litmus test {test.name}: register(s) {unread} read by no op")
    # a memory atom on a line no op or init names reads the zero fill:
    # it says nothing about the program
    unused = sorted({atom[1] for clause in test.forbidden for atom, _ in clause
                     if atom[0] == "mem" and atom[1] not in used})
    if unused:
        raise ValueError(f"litmus test {test.name}: address(es) "
                         f"{[hex(a) for a in unused]} named by no op or init")


def run_litmus(test: LitmusTest, config: ExploreConfig = ExploreConfig()) -> dict:
    """Enumerate all interleavings of a litmus test and report every final
    observation plus whether any forbidden one was reached."""
    check_litmus(test, config.n_cores)
    programs = [tuple(test.programs.get(core, ())) for core in range(config.n_cores)]
    result = explore(programs, config, init_mem=test.init or None)
    witnesses = []
    for regs, mem in result.outcomes:
        for clause in test.forbidden:
            if all(_eval_atom(atom, value, regs, mem) for atom, value in clause):
                witnesses.append({"regs": regs, "mem": mem})
                break
    return {
        "name": test.name,
        "observed_outcomes": sorted(result.outcomes),
        "forbidden_seen": int(bool(witnesses)),
        "witnesses": witnesses,
        "violations": result.violations,
        "exhausted": result.exhausted,
        "reachable_states": result.reachable_states,
    }


def _eval_atom(atom: tuple, value: int, regs: tuple, mem: tuple) -> bool:
    if atom[0] == "reg":  # ("reg", core, read index)
        return regs[atom[1]][atom[2]] == value
    return dict(mem).get(atom[1], 0) == value


# every `<name>=<val>` (an `init`, a W op, a `forbid` atom) is read by this
# one rule: a name is one token without `=`, and spaces may surround the `=`
_ASSIGN = re.compile(r"([^\s=]+)\s*=\s*([^\s=]+)")
# an R or IF op, its words one space apart: `R|IF <sym> [-> <reg>]`
_READ = re.compile(r"(?:R|IF) ([^\s=]+)(?: -> ([^\s=]+))?")
# the id and the ops of a `core` line
_CORE = re.compile(r"(-?\d+)\s*:(.*)")
# a `forbid` atom's register: a name an op bound with `->`, or `r<k>`
_REGISTER = re.compile(r"(-?\d+):(r(-?\d+)|.+)")


def _assignment(text: str, shape: str, start: int = 0) -> Tuple[str, int]:
    """`text[start:]` read as `<name>=<val>`, its value a 32-bit word
    (`int(val, 0)`, 0 to 2**32 - 1); a refusal quotes all of `text`."""
    match = _ASSIGN.fullmatch(text, start)
    try:
        if match is None:
            raise ValueError
        value = int(match[2], 0)
    except ValueError:
        raise ValueError(f"expected '{shape}', got '{text}'") from None
    if not 0 <= value < 1 << 8 * WORD_BYTES:
        raise ValueError(
            f"'{text}': value {value} outside the {8 * WORD_BYTES}-bit word range")
    return match[1], value


def parse_litmus(text: str) -> List[LitmusTest]:
    """Parse litmus definition text.

    Grammar (line oriented, `#` comments, words apart by any whitespace):
        test <name>
        init <sym>=<val>
        core <id>: <op> [; <op>]...      ops: W <sym>=<val> | R|IF <sym> [-> <reg>]
        forbid <atom> [<atom>]...        atoms: <core>:<reg>=<val> | <sym>=<val>
    Every `<name>=<val>` is read by one rule: the name is one token
    without `=`, spaces may surround the `=`, and `<val>` is a 32-bit word
    (`int(val, 0)`, 0 to 2**32 - 1). Each `<sym>` is an address, one line
    apart in order of first use within its test. A `<reg>` bound by
    `-> <reg>` holds its read's index on its core; in an atom, any other
    `r<k>` is the core's k-th R or IF op. A line off this grammar, a second
    test of one name and a register bound twice on one core are refused
    as `litmus line N: ...`.
    """
    records: List[tuple] = []  # (name, programs, init, forbidden) per test, in order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split(maxsplit=1)
        if not words:
            continue
        head, rest = words[0], "".join(words[1:]).strip()
        try:
            if head == "test":
                if not rest:
                    raise ValueError("expected 'test <name>', got 'test'")
                if any(record[0] == rest for record in records):
                    raise ValueError(f"a second test named '{rest}'")
                programs, init, forbidden = {}, {}, []
                symbols = defaultdict(count(_X, 0x10).__next__)  # sym -> address
                registers = {}  # (core, reg) -> index of the read that binds it
                records.append((rest, programs, init, forbidden))
            elif not records:
                raise ValueError("directive before 'test'")
            elif head == "init":
                sym, value = _assignment(rest, "<sym>=<val>")
                init[symbols[sym]] = value
            elif head == "core":
                parts = _CORE.fullmatch(rest)
                if parts is None:
                    raise ValueError(f"expected 'core <id>: <op> [; <op>]...', got 'core {rest}'")
                core = int(parts[1])
                ops = programs.setdefault(core, [])
                for chunk in parts[2].split(";"):
                    op = " ".join(chunk.split())
                    verb = op.partition(" ")[0]
                    if verb == "W":
                        sym, value = _assignment(op, "W <sym>=<val>", start=2)
                        ops.append(("W", symbols[sym], value))
                    elif verb in ("R", "IF"):
                        read = _READ.fullmatch(op)
                        if read is None:
                            raise ValueError(f"expected '{verb} <sym> [-> r<k>]', got '{op}'")
                        sym, reg = read.groups()
                        if reg is not None:  # the register holds this read's index
                            if (core, reg) in registers:
                                raise ValueError(f"register '{reg}' bound twice on core {core}")
                            registers[core, reg] = sum(o[0] != "W" for o in ops)
                        ops.append((verb, symbols[sym]))
                    elif op:
                        raise ValueError(f"unknown op '{verb}'")
            elif head == "forbid":
                if not rest:
                    raise ValueError("expected 'forbid <atom> [<atom>]...', got 'forbid'")
                clause = []
                for atom_txt in _ASSIGN.sub(r"\1=\2", rest).split():
                    lhs, value = _assignment(atom_txt, "<core>:r<k>=<val> or <sym>=<val>")
                    if ":" not in lhs:
                        clause.append((("mem", symbols[lhs]), value))
                        continue
                    ref = _REGISTER.fullmatch(lhs)  # a bound name first, else `r<k>`
                    index = ref and registers.get((int(ref[1]), ref[2]), ref[3] and int(ref[3]))
                    if index is None:
                        raise ValueError(f"expected '<core>:r<k>=<val>', got '{atom_txt}'")
                    clause.append((("reg", int(ref[1]), index), value))
                forbidden.append(tuple(clause))
            else:
                raise ValueError(f"unknown directive '{head}'")
        except ValueError as exc:
            raise ValueError(f"litmus line {lineno}: {exc}") from exc
    return [LitmusTest(name, {core: tuple(ops) for core, ops in programs.items()}, init,
                       tuple(forbidden)) for name, programs, init, forbidden in records]


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

_SNOOP_KINDS = _KINDS[1:]

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

    def status(pair, expected, covered):
        if pair not in expected:
            return "unexpectedly-reached" if pair in covered else "unreachable-by-design"
        return "uncovered" if pair not in covered else "violated" if violations else "certified"

    initiator = {(s, op): status((s, op), EXPECTED_INITIATOR_PAIRS, init_cov)
                 for s in LineState for op in OpKind}
    snoopee = {(s, k): status((s, k), EXPECTED_SNOOPEE_PAIRS, snoop_cov)
               for s in LineState for k in _SNOOP_KINDS}
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
