"""MOESI/ACE coherence protocol tables.

The rules are pure functions, and `TABLES` holds them as rows built
once over their full domains. Both timed models read `TABLES` when they
are built and the bounded model checker int-codes the same rows, so
every row that runs is certified by the checker's exhaustive runs
(verify.oracle_tables). The MESI directory baseline runs the same
initiator, reissue, snoopee and completion rows; its one rule of its
own is that an owner a row leaves Owned writes back and stays Shared. `MUTATIONS` are deliberate row patches on it,
applied by `Tables.mutated`.

A line's state is stored as a `LineState` beside its tag and data. In
hardware it is three status flags; `is_valid`, `is_unique` and
`is_dirty` read them off (shared = valid and not unique):

    state      ACE alias     valid shared dirty
    Modified   UniqueDirty     1     0      1
    Owned      SharedDirty     1     1      1
    Exclusive  UniqueClean     1     0      0
    Shared     SharedClean     1     1      0
    Invalid    Invalid         0     -      -

Invalid's shared/dirty bits are don't-care in hardware; the properties
read them as zero.

A data-less dirty handoff (a CleanUnique whose snoop strips a dirty
holder: PassDirty without data) needs no row. The transaction in flight
holds the responsibility until its completion installs Modified, and the
initiator's copy stays as it was meanwhile; the monitors of both timed
models show that transaction as an Owned copy
(`sim.Kernel.snapshot_invariants`).

The enum members the timed models compare against are also bound once
here as module-level names (`INVALID`, `READ_ONCE`, `STORE`, `OWNED`,
...), and their hot paths read those names, not the enum class.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Union


class LineState(Enum):
    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    # members are singletons compared by identity, so the C-level
    # identity hash serves the hot table lookups (Enum's hashes the name)
    __hash__ = object.__hash__

    @property
    def is_valid(self) -> bool:
        return self is not INVALID

    @property
    def is_dirty(self) -> bool:
        return self in DIRTY_STATES

    @property
    def is_unique(self) -> bool:
        return self in UNIQUE_STATES


# Enum members bound as plain names. `EnumType` defines `__getattr__`,
# which puts every attribute read on an enum class, `LineState.INVALID`
# included, on a slow Python-level path (about 10x a global read on
# CPython 3.11); code that runs per simulated event reads these names.
MODIFIED = LineState.MODIFIED
OWNED = LineState.OWNED
EXCLUSIVE = LineState.EXCLUSIVE
SHARED = LineState.SHARED
INVALID = LineState.INVALID

# States carrying dirty responsibility / excluding every other copy.
DIRTY_STATES = frozenset({LineState.MODIFIED, LineState.OWNED})
UNIQUE_STATES = frozenset({LineState.MODIFIED, LineState.EXCLUSIVE})


class CoherentKind(Enum):
    READ_SHARED = "ReadShared"
    READ_UNIQUE = "ReadUnique"
    CLEAN_UNIQUE = "CleanUnique"
    READ_ONCE = "ReadOnce"
    READ_NO_SNOOP = "ReadNoSnoop"

    __hash__ = object.__hash__


CLEAN_UNIQUE = CoherentKind.CLEAN_UNIQUE
READ_ONCE = CoherentKind.READ_ONCE
READ_NO_SNOOP = CoherentKind.READ_NO_SNOOP

# Transactions that fan out snoops to the other caches. A ReadNoSnoop (a
# non-coherent icache fill) goes straight to the memory interface.
SNOOPING_KINDS = frozenset(
    {
        CoherentKind.READ_SHARED,
        CoherentKind.READ_UNIQUE,
        CoherentKind.CLEAN_UNIQUE,
        CoherentKind.READ_ONCE,
    }
)

# Transactions whose completion claims unique access.
UNIQUE_KINDS = frozenset({CoherentKind.READ_UNIQUE, CoherentKind.CLEAN_UNIQUE})

# Transactions whose completion carries a line back; a CleanUnique's upgrades its own copy.
DATA_KINDS = frozenset(
    {CoherentKind.READ_SHARED, CoherentKind.READ_UNIQUE, CoherentKind.READ_ONCE,
     CoherentKind.READ_NO_SNOOP}
)


class OpKind(Enum):
    LOAD = "Load"
    STORE = "Store"
    IFETCH = "IFetch"

    __hash__ = object.__hash__


LOAD = OpKind.LOAD
STORE = OpKind.STORE
IFETCH = OpKind.IFETCH


@dataclass(slots=True)
class CoreOp:
    """One memory operation issued by a core.

    Stores carry the word value to write; loads and ifetches do not.
    Not frozen, so its `__init__` sets plain slots: a workload builds
    thousands of ops. No model writes to an op, and none hashes one.
    """

    kind: OpKind
    address: int
    value: Optional[int] = None

    def __post_init__(self):
        if self.kind is STORE:
            if self.value is None:
                raise ValueError("Store requires a value")
        elif self.value is not None:
            raise ValueError(f"{self.kind.value} must not carry a value")


@dataclass(frozen=True)
class SnoopResponse:
    """Snoop response (CR) bits. data_transfer=0 means no CD data follows."""

    data_transfer: int = 0
    pass_dirty: int = 0
    is_shared: int = 0


@dataclass(frozen=True)
class Hit:
    next: LineState


@dataclass(frozen=True)
class Issue:
    kind: CoherentKind


def initiator_action(state: LineState, op: OpKind) -> Union[Hit, Issue]:
    """What a cache controller does with a core op against a line state.

    Loads and ifetches hit on any valid state without a state change.
    Stores hit only with write permission (Modified, or Exclusive which
    silently upgrades); a store against a shared copy must first gain
    uniqueness with CleanUnique. Misses issue the matching data request:

        Load  miss -> ReadShared     Store miss -> ReadUnique
        Store on Shared/Owned -> CleanUnique
        IFetch miss (coherent icache) -> ReadOnce
    """
    if op in (OpKind.LOAD, OpKind.IFETCH):
        if state is LineState.INVALID:
            kind = CoherentKind.READ_SHARED if op is OpKind.LOAD else CoherentKind.READ_ONCE
            return Issue(kind)
        return Hit(state)
    # Store
    if state is LineState.MODIFIED:
        return Hit(LineState.MODIFIED)
    if state is LineState.EXCLUSIVE:
        return Hit(LineState.MODIFIED)
    if state in (LineState.SHARED, LineState.OWNED):
        return Issue(CoherentKind.CLEAN_UNIQUE)
    return Issue(CoherentKind.READ_UNIQUE)


# Snoopee transition table: (state, snoop kind) -> (next state, CR bits).
# Row layout: next, data_transfer, pass_dirty, is_shared.
#
# ReadShared keeps dirty responsibility at the snoopee (M -> Owned) and
# has every valid snoopee supply data, maximizing cache-to-cache service.
# ReadUnique/CleanUnique invalidate; a dirty snoopee hands responsibility
# over with pass_dirty=1 (CleanUnique without data: the initiator already
# holds an identical copy). ReadOnce behaves like ReadShared here.
_S = LineState
_SNOOPEE = {
    (_S.MODIFIED, CoherentKind.READ_SHARED): (_S.OWNED, 1, 0, 1),
    (_S.OWNED, CoherentKind.READ_SHARED): (_S.OWNED, 1, 0, 1),
    (_S.EXCLUSIVE, CoherentKind.READ_SHARED): (_S.SHARED, 1, 0, 1),
    (_S.SHARED, CoherentKind.READ_SHARED): (_S.SHARED, 1, 0, 1),
    (_S.INVALID, CoherentKind.READ_SHARED): (_S.INVALID, 0, 0, 0),
    (_S.MODIFIED, CoherentKind.READ_UNIQUE): (_S.INVALID, 1, 1, 0),
    (_S.OWNED, CoherentKind.READ_UNIQUE): (_S.INVALID, 1, 1, 0),
    (_S.EXCLUSIVE, CoherentKind.READ_UNIQUE): (_S.INVALID, 1, 0, 0),
    (_S.SHARED, CoherentKind.READ_UNIQUE): (_S.INVALID, 1, 0, 0),
    (_S.INVALID, CoherentKind.READ_UNIQUE): (_S.INVALID, 0, 0, 0),
    (_S.MODIFIED, CoherentKind.CLEAN_UNIQUE): (_S.INVALID, 0, 1, 0),
    (_S.OWNED, CoherentKind.CLEAN_UNIQUE): (_S.INVALID, 0, 1, 0),
    (_S.EXCLUSIVE, CoherentKind.CLEAN_UNIQUE): (_S.INVALID, 0, 0, 0),
    (_S.SHARED, CoherentKind.CLEAN_UNIQUE): (_S.INVALID, 0, 0, 0),
    (_S.INVALID, CoherentKind.CLEAN_UNIQUE): (_S.INVALID, 0, 0, 0),
}


def snoopee_transition(state: LineState, kind: CoherentKind) -> tuple:
    """Next state and CR response of a snooped cache line."""
    if kind is CoherentKind.READ_ONCE:
        kind = CoherentKind.READ_SHARED
    nxt, data, dirty, shared = _SNOOPEE[(state, kind)]
    return nxt, SnoopResponse(data_transfer=data, pass_dirty=dirty, is_shared=shared)


def completion_state(
    kind: CoherentKind, any_is_shared: int, any_pass_dirty: int, store_follows: int
) -> LineState:
    """Install state for a completed transaction given the CR aggregate.

    ReadShared takes Owned when a snoopee handed dirty responsibility
    over, Shared when anyone kept a copy, Exclusive when the line is the
    sole copy. Unique-access completions install Modified as soon as the
    line is (or is about to become) dirty. ReadOnce installs the line in
    the instruction cache as Shared and leaves data caches untouched.
    """
    if kind is CoherentKind.READ_SHARED:
        if any_pass_dirty:
            return LineState.OWNED
        return LineState.SHARED if any_is_shared else LineState.EXCLUSIVE
    if kind in UNIQUE_KINDS:
        if any_pass_dirty or store_follows:
            return LineState.MODIFIED
        return LineState.EXCLUSIVE
    if kind is CoherentKind.READ_ONCE:
        return LineState.SHARED
    raise ValueError(f"{kind.value} has no coherent completion")


def reissue_kind(kind: CoherentKind) -> CoherentKind:
    """Kind a miss whose data cache no longer holds its line enters the
    coherency unit as: a CleanUnique whose copy a snoop took needs the
    data now, so it becomes ReadUnique; a miss from Invalid keeps its kind.

    This is the only racing-miss rule, applied once, as the request
    enters. The Decoder admits one transaction per line (`ccu.admits`),
    so a foreign snoop reaches a miss only while it waits before the
    Decoder; once it has entered, its own snoop fan-out makes its line
    unique again, and it always completes."""
    if kind is CoherentKind.CLEAN_UNIQUE:
        return CoherentKind.READ_UNIQUE
    return kind


def probe_rows(snoopee: Mapping) -> dict:
    """One core's answer to a snoop: each structure takes its snoopee row,
    and the two CRs merge into one. Data comes from the dcache first,
    PassDirty only from the dcache, IsShared from either; a structure that
    is not probed answers as Invalid. Equal CRs share one object."""
    responses = {(r.data_transfer, r.pass_dirty, r.is_shared): r for _, r in snoopee.values()}
    rows = {}
    for (dstate, kind), (dnext, d) in snoopee.items():
        for istate in LineState:
            inext, i = snoopee[istate, kind]
            bits = (d.data_transfer | i.data_transfer, d.pass_dirty, d.is_shared | i.is_shared)
            resp = responses.setdefault(bits, SnoopResponse(*bits))
            source = "d" if d.data_transfer else "i" if i.data_transfer else None
            rows[dstate, istate, kind] = (dnext, inext, resp, source)
    return rows


@dataclass(frozen=True)
class Tables:
    """The rules above as read-only rows:

        initiator[state, op]                        -> Hit | Issue
        snoopee[state, snooping kind]               -> (next state, SnoopResponse)
        completion[kind, shared, pass_dirty, store] -> install state
        reissue[kind]                               -> kind a miss whose data cache lost its line enters as
        probe[dstate, istate, kind]                 -> (dnext, inext, CR, data from "d"/"i"/None)

    `probe` is no field: `probe_rows` derives it from `snoopee` as a Tables is built.
    Three kinds of row are refused, each by name:

    * an initiator row on Invalid that hits: a hit needs a valid line;
    * a Store row that issues ReadOnce, and a reissue row that maps a
      kind some Store row issues to ReadOnce: a ReadOnce fills the
      instruction cache, and a store writes the data cache;
    * a snoopee row on Invalid whose next state is valid or whose CR has
      a bit set: an Invalid line has nothing to give or to change, and
      the explorer writes only valid slots on a snoop.
    """

    initiator: Mapping
    snoopee: Mapping
    completion: Mapping
    reissue: Mapping

    def __post_init__(self):
        store_kinds = set()
        for (state, op), row in self.initiator.items():
            if state is INVALID and isinstance(row, Hit):
                raise ValueError(f"initiator row ({state.value}, {op.value}) -> "
                                 f"Hit({row.next.value}): a hit needs a valid line")
            if op is STORE and isinstance(row, Issue):
                if row.kind is READ_ONCE:
                    raise ValueError(f"initiator row ({state.value}, {op.value}) -> "
                                     f"Issue(ReadOnce): a ReadOnce fills the icache, "
                                     f"not the data cache a store writes")
                store_kinds.add(row.kind)
        for kind, reissued in self.reissue.items():
            if kind in store_kinds and reissued is READ_ONCE:
                raise ValueError(f"reissue row {kind.value} -> ReadOnce: a Store row issues "
                                 f"{kind.value}, and a ReadOnce fills the icache, "
                                 f"not the data cache a store writes")
        for (state, kind), (nxt, resp) in self.snoopee.items():
            if state is INVALID and (nxt is not INVALID or resp.data_transfer
                                     or resp.pass_dirty or resp.is_shared):
                raise ValueError(f"snoopee row ({state.value}, {kind.value}) -> "
                                 f"({nxt.value}, {resp}): a snoop changes nothing "
                                 f"on an Invalid line")
        for f in fields(self):
            object.__setattr__(self, f.name, MappingProxyType(dict(getattr(self, f.name))))
        object.__setattr__(self, "probe", MappingProxyType(probe_rows(self.snoopee)))

    def mutated(self, ids: Iterable[str]) -> Tables:
        """A copy with the row patches of each `MUTATIONS` id applied."""
        ids = sorted(set(ids))
        unknown = [m for m in ids if m not in MUTATIONS]
        if unknown:
            raise ValueError(f"unknown mutation(s): {unknown}")
        rows = {f.name: dict(getattr(self, f.name)) for f in fields(self)}
        for m in ids:
            for table, key, row in MUTATIONS[m]:
                rows[table][key] = row
        return Tables(**rows)


_BITS = (0, 1)
_SNOOPING = tuple(k for k in CoherentKind if k in SNOOPING_KINDS)

TABLES = Tables(
    initiator={(s, op): initiator_action(s, op) for s in LineState for op in OpKind},
    snoopee={(s, k): snoopee_transition(s, k) for s in LineState for k in _SNOOPING},
    completion={(k, sh, pd, st): completion_state(k, sh, pd, st)
                for k in _SNOOPING for sh in _BITS for pd in _BITS for st in _BITS},
    reissue={k: reissue_kind(k) for k in CoherentKind},
)


def _snoopee_patch(state: LineState, kind: CoherentKind, nxt: LineState,
                   data: int, pass_dirty: int, shared: int) -> tuple:
    # a snoopee answers ReadOnce as ReadShared, so both rows take the patch
    row = (nxt, SnoopResponse(data, pass_dirty, shared))
    kinds = (kind, CoherentKind.READ_ONCE) if kind is CoherentKind.READ_SHARED else (kind,)
    return tuple(("snoopee", (state, k), row) for k in kinds)


# Deliberate corruptions, the negative controls of the checker: id ->
# (table, key, row) patches. Every one must be caught by explore().
MUTATIONS = {
    "snoopee:M:ReadUnique:keep": _snoopee_patch(
        _S.MODIFIED, CoherentKind.READ_UNIQUE, _S.MODIFIED, 1, 0, 1),
    "snoopee:M:ReadShared:drop_dirty": _snoopee_patch(
        _S.MODIFIED, CoherentKind.READ_SHARED, _S.SHARED, 1, 0, 1),
    "snoopee:S:CleanUnique:keep": _snoopee_patch(
        _S.SHARED, CoherentKind.CLEAN_UNIQUE, _S.SHARED, 0, 0, 1),
    "snoopee:E:ReadShared:keep": _snoopee_patch(
        _S.EXCLUSIVE, CoherentKind.READ_SHARED, _S.EXCLUSIVE, 1, 0, 0),
    "initiator:Store:Shared:silent_upgrade": (
        ("initiator", (_S.SHARED, OpKind.STORE), Hit(_S.MODIFIED)),),
    "completion:ReadShared:ignore_shared": tuple(
        ("completion", (CoherentKind.READ_SHARED, 1, pd, st),
         completion_state(CoherentKind.READ_SHARED, 0, pd, st))
        for pd in _BITS for st in _BITS),
    "reissue:disabled": tuple(("reissue", k, k) for k in TABLES.reissue),
}
