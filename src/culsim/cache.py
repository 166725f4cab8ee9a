"""L1 cache model: set-associative write-back data cache plus an optional
coherent instruction cache.

The data cache SRAM has a single read/write port; the snoop model's
cache controllers serve one requester on it a cycle (sim.Simulation).
Every core op takes one path, `core_access`: one lookup of its
initiator row, on the instruction cache for an ifetch and on the data
cache otherwise. A pending miss is the only copy of its request: the
coherency unit reads the kind off it, a ReadOnce or ReadNoSnoop fills
the instruction cache, and `entry_kind` applies the reissue row
(`protocol.reissue_kind`) as the request enters. `miss_complete` fills
it and performs its op in one call, or refuses a fill whose victim is
dirty while the write-back FIFO is full.

The instruction cache has its own port and only ever holds lines in
Shared or Invalid; a non-coherent one misses with ReadNoSnoop.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import protocol
from .protocol import (
    CoherentKind,
    CoreOp,
    DATA_KINDS,
    DIRTY_STATES,
    Hit,
    IFETCH,
    INVALID,
    LineState,
    READ_NO_SNOOP,
    READ_ONCE,
    STORE,
    SnoopResponse,
)

WORD_BYTES = 4
PHYS_ADDR_BITS = 32


class ConfigError(ValueError):
    """Bad geometry or out-of-range configuration value."""


class LostCopy(RuntimeError):
    """A CleanUnique completed after its local copy was invalidated: the
    upgrade has nothing to install into."""

    def __init__(self, address: int):
        super().__init__("CleanUnique completion without a local copy")
        self.address = address


def word_at(data: bytes, offset: int) -> int:
    off = offset & ~(WORD_BYTES - 1)
    return int.from_bytes(data[off : off + WORD_BYTES], "little")


def set_word(data: bytes, offset: int, value: int) -> bytes:
    off = offset & ~(WORD_BYTES - 1)
    word = (value & 0xFFFFFFFF).to_bytes(WORD_BYTES, "little")
    return data[:off] + word + data[off + WORD_BYTES :]


@dataclass(slots=True)
class CacheLine:
    addr: int = 0  # the line address the way holds, or last held
    state: LineState = INVALID
    data: bytes = b""


class CopyView(NamedTuple):
    """One valid copy of a line in a coherence view: the core holding
    it, its state and data, and whether the icache holds it. The
    invariant checks (`verify.check_swmr`, `check_value`) read these."""

    core: int
    state: LineState
    data: object
    icache: bool = False


# what a probe of a structure it skips, or of a line it lacks, reads:
# an Invalid line, which `handle_snoop` never writes
_NO_LINE = CacheLine()


@dataclass(slots=True)
class MissStatus:
    """The single outstanding miss of one core, and the only copy of its
    request."""

    address: int
    kind: CoherentKind


def _fill_way(ways: List[CacheLine], rr_way: int) -> CacheLine:
    """The line a fill of a set takes: its first free way, else the
    round-robin victim `rr_way`."""
    for line in ways:
        if line.state is INVALID:
            return line
    return ways[rr_way]


class CacheModel:
    """One core's cache subsystem (data cache + optional coherent icache),
    of the geometry `sim.SimConfig.validate` accepts. It indexes the
    `protocol.TABLES` in place when it was built.

    `touched`, when a set, collects the address of every line whose state
    or data this cache changes, for the invariant monitors; the kernel
    sets it only when monitors are on."""

    touched: Optional[set] = None

    def __init__(
        self,
        core_id: int,
        line_size: int = 16,
        cache_size: int = 8192,
        ways: int = 4,
        coherent_ifetch: bool = False,
    ):
        self.core_id = core_id
        self.line_size = line_size
        self.ways = ways
        self.n_sets = cache_size // (ways * line_size)
        self.coherent_ifetch = coherent_ifetch
        # a set's ways, or None until its first fill (`_install`) builds them
        self.sets: List[Optional[List[CacheLine]]] = [None] * self.n_sets
        self.isets: List[Optional[List[CacheLine]]] = [None] * self.n_sets
        # line address -> the line last filled with it, per array. Only
        # _install writes these; a reader must check the line's state, since
        # invalidations leave the entry in place.
        self.index: Dict[int, CacheLine] = {}
        self.iindex: Dict[int, CacheLine] = {}
        # each set's round-robin victim way, in 4 bytes a set (a list
        # takes 8)
        self.rr = array("I", [0]) * self.n_sets
        self.irr = array("I", [0]) * self.n_sets
        self.miss: Optional[MissStatus] = None
        self.tables = protocol.TABLES

    # -- lookup ----------------------------------------------------------

    def lookup(self, address: int, icache: bool = False) -> Optional[CacheLine]:
        """The valid line holding `address`, or None on miss."""
        line = (self.iindex if icache else self.index).get(address - address % self.line_size)
        if line is not None and line.state is not INVALID:
            return line
        return None

    # -- core side ---------------------------------------------------------

    def core_access(self, op: CoreOp) -> Optional[int]:
        """Look the op up in its initiator row, an ifetch on the
        instruction cache and a load or store on the data cache. A hit
        performs and returns the word read, or None for a store; a miss
        sets `miss` and returns None. Ops are where addresses enter the
        caches, so the physical range is checked here."""
        if not 0 <= op.address < 1 << PHYS_ADDR_BITS:
            raise ConfigError(f"address {op.address:#x} outside the physical address range")
        if self.miss is not None:
            raise RuntimeError(f"core {self.core_id}: second outstanding miss")
        kind = op.kind
        offset = op.address % self.line_size
        address = op.address - offset
        # an Invalid way reads as the miss it is
        line = (self.iindex if kind is IFETCH else self.index).get(address, _NO_LINE)
        state = line.state
        action = self.tables.initiator[state, kind]
        if isinstance(action, Hit):
            if self.touched is not None and (
                kind is STORE or action.next is not state
            ):
                self.touched.add(address)
            line.state = action.next
            if kind is STORE:
                line.data = set_word(line.data, offset, op.value)
                return None
            return word_at(line.data, offset)
        nc = kind is IFETCH and not self.coherent_ifetch
        self.miss = MissStatus(address, READ_NO_SNOOP if nc else action.kind)
        return None

    # -- snoop side --------------------------------------------------------

    def handle_snoop(
        self, kind: CoherentKind, address: int, probe_dcache: bool = True,
        probe_icache: bool = False,
    ) -> Tuple[SnoopResponse, Optional[bytes]]:
        """Apply one AC probe, a snooping `kind` on the line address
        `address`, to this core's cache subsystem: its probe row
        (`protocol.Tables.probe`) gives both structures' next states and
        the core's one CR. Data leaves on the CD channel as the bytes of
        the line the row names. On the timed path the probe is a
        `ccu.Transaction`'s kind and line, which the Decoder checked as
        it entered.

        The monitors are told of the line only when the view may change:
        a probed copy is valid, or the CR passes dirty (its transaction
        then answers for the line, `sim.Kernel.snapshot_invariants`)."""
        # an Invalid way reads as no copy, and its row changes nothing
        dline = self.index.get(address, _NO_LINE) if probe_dcache else _NO_LINE
        iline = (self.iindex.get(address, _NO_LINE) if probe_icache and self.coherent_ifetch
                 else _NO_LINE)
        dnext, inext, resp, source = self.tables.probe[dline.state, iline.state, kind]
        if self.touched is not None and (
            dline.state is not INVALID or iline.state is not INVALID or resp.pass_dirty
        ):
            self.touched.add(address)
        if dline.state is not INVALID:
            dline.state = dnext
        if iline.state is not INVALID:
            iline.state = inext
        return resp, None if source is None else (dline if source == "d" else iline).data

    def entry_kind(self) -> CoherentKind:
        """The kind the pending miss enters the coherency unit as, kept in
        the miss: the reissue row's when the data cache no longer holds
        the line (a CleanUnique whose copy a snoop took asks for the
        data), else the kind it missed with. Only a snoop can take the
        copy before then, since the core installs nothing else meanwhile."""
        ms = self.miss
        # `ms.address` is a line address
        if self.index.get(ms.address, _NO_LINE).state is INVALID:
            ms.kind = self.tables.reissue[ms.kind]
        return ms.kind

    # -- miss completion ----------------------------------------------------

    def miss_complete(
        self, state: LineState, data: Optional[bytes], op: CoreOp, wb_room: bool,
    ) -> Optional[Tuple[Optional[int], Optional[Tuple[int, bytes]]]]:
        """Fill the outstanding miss with its transaction's result and
        perform on the line `op`, the core's op that missed, as a hit
        does: a store writes its word, a load or ifetch reads one. A data
        fill installs `data` in `state` (`_install`), into the instruction
        cache for a ReadOnce or ReadNoSnoop; a CleanUnique upgrades the
        copy it holds in place.

        None, with nothing changed, when the fill's victim is dirty and
        `wb_room` is false (the write-back FIFO is full); else the word
        read (None for a store) and the dirty victim's (line address,
        data) for the write-back FIFO, or None."""
        ms = self.miss
        if ms is None:
            raise RuntimeError(f"core {self.core_id}: miss_complete with no outstanding miss")
        if ms.kind in DATA_KINDS:
            icache = ms.kind is READ_ONCE or ms.kind is READ_NO_SNOOP
            filled = self._install(ms.address, state, data, icache, wb_room)
            if filled is None:
                return None
            line, writeback = filled
        else:  # an upgrade of the copy it holds
            line = self.index.get(ms.address, _NO_LINE)  # `ms.address` is a line address
            if line.state is INVALID:
                raise LostCopy(ms.address)
            if self.touched is not None:
                self.touched.add(ms.address)
            writeback = None
            line.state = state
        self.miss = None
        offset = op.address % self.line_size
        if op.kind is STORE:
            line.data = set_word(line.data, offset, op.value)
            return None, writeback
        return word_at(line.data, offset), writeback

    def _install(
        self, address: int, state: LineState, data: Optional[bytes], icache: bool,
        wb_room: bool = True,
    ) -> Optional[Tuple[CacheLine, Optional[Tuple[int, bytes]]]]:
        """Fill the line address `address` into the way `_fill_way` picks,
        evicting the way's valid line: None, with nothing changed, when
        that line is dirty and `wb_room` is false; else the filled line
        and the dirty victim's (line address, data), or None. An icache
        line is never dirty. A set's first fill builds its ways and takes
        way 0, with no victim. The victim's address is the one its line
        holds (`CacheLine.addr`)."""
        set_idx = address // self.line_size % self.n_sets
        sets = self.isets if icache else self.sets
        ways = sets[set_idx]
        if ways is None:
            ways = sets[set_idx] = [CacheLine() for _ in range(self.ways)]
        rr = self.irr if icache else self.rr
        line = _fill_way(ways, rr[set_idx])
        dirty = line.state in DIRTY_STATES
        if dirty and not wb_room:
            return None
        index = self.iindex if icache else self.index
        old = line.addr
        writeback = (old, line.data) if dirty else None
        # an Invalid way may keep the address of a line since refilled
        # elsewhere in the set; that newer entry must survive
        if index.get(old) is line:
            del index[old]
        index[address] = line
        if self.touched is not None:
            self.touched.add(address)
            if line.state is not INVALID:
                self.touched.add(old)
        line.addr = address
        line.state = state
        line.data = bytes(data) if data is not None else bytes(self.line_size)
        rr[set_idx] = (rr[set_idx] + 1) % self.ways
        return line, writeback

    # -- inspection ----------------------------------------------------------

    def valid_lines(self, icache: bool = False):
        """Yield (line_address, line) for every valid entry, in fill order."""
        for addr, line in (self.iindex if icache else self.index).items():
            if line.state.is_valid:
                yield addr, line
