"""Cache coherency unit.

Serializes the cores' snooping requests through the `Decoder` (round-robin
mux and per-line mutual exclusion, pipelined across distinct lines; the
directory shares it), fans out snoops, aggregates the CR responses of
each transaction, buffers first-responder CD data, and drains
write-backs to memory through the bounded FIFO of its memory port. Every
entry of its queues (AC snoops, CR responses, memory reads, R bursts)
carries the transaction it belongs to.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .cache import CacheModel
from .memsys import MemoryPort
from .protocol import (
    CoherentKind,
    DATA_KINDS,
    DECODED,
    DONE,
    MEM_ACCESS,
    Phase,
    RESPONDING,
    SNOOPING,
    SNOOPING_KINDS,
    SnoopRequest,
    SnoopResponse,
)


class ProtocolFault(RuntimeError):
    """Internal protocol violation (e.g. a core's second pending request)."""


def mux_grant(pending: Dict[int, int], last_granted: int, n_cores: int) -> int:
    """Pick the next coherent request: earliest arrival cycle wins,
    same-cycle ties rotate round-robin starting after last_granted."""
    if not pending:
        raise ValueError("mux_grant with nothing pending")
    best = min(pending.values())
    for i in range(1, n_cores + 1):
        core = (last_granted + i) % n_cores
        if pending.get(core) == best:
            return core
    raise AssertionError("unreachable")


@dataclass(slots=True)
class CcuTransaction:
    id: int
    initiator: int
    kind: CoherentKind
    address: int
    phase: Phase = DECODED
    cr_pending: int = 0
    any_is_shared: int = 0
    any_pass_dirty: int = 0
    data: Optional[bytes] = None
    data_source: Optional[int] = None  # first responding core, None = memory/no data

    def advance(self, phase: Phase) -> None:
        if phase < self.phase:
            raise ProtocolFault(
                f"txn {self.id}: phase moved backwards {self.phase.name} -> {phase.name}")
        self.phase = phase


def admits(line_in_flight: bool, n_in_flight: int, capacity: int) -> bool:
    """The collision rule: a request enters only while no transaction on
    its line is in flight and the table of in-flight lines has room."""
    return not line_in_flight and n_in_flight < capacity


class Decoder:
    """Coherent request intake: at most one waiting request per core,
    granted by `mux_grant`; a granted request is held until `admits`
    lets it in, and every cycle it waits counts a stall. It queues only
    each request's arrival and line: the rest of the request is the
    core's pending miss, which the model reads when the request enters."""

    def __init__(self, n_cores: int, capacity: int):
        self.n_cores = n_cores
        self.capacity = capacity
        self.pending: Dict[int, Tuple[int, int]] = {}  # core -> (arrival, line)
        self.hold: Optional[Tuple[int, int]] = None  # (core, line)
        self.last_granted = n_cores - 1
        self.in_flight: set = set()
        self.stalls = 0

    def submit(self, core: int, line: int, now: int) -> None:
        if core in self.pending:
            raise ProtocolFault(f"core {core}: coherent request while one is pending")
        self.pending[core] = (now, line)

    def grant(self) -> Optional[Tuple[int, int]]:
        """The (core, line) request that enters now, or None when none
        waits or the held one stalls; every waiting request was submitted
        by now, so all of them compete."""
        if self.hold is None:
            if not self.pending:
                return None
            if len(self.pending) == 1:
                core = next(iter(self.pending))
            else:
                arrivals = {c: r[0] for c, r in self.pending.items()}
                core = mux_grant(arrivals, self.last_granted, self.n_cores)
            self.last_granted = core
            self.hold = (core, self.pending.pop(core)[1])
        line = self.hold[1]
        if not admits(line in self.in_flight, len(self.in_flight), self.capacity):
            self.stalls += 1
            return None
        self.in_flight.add(line)
        granted, self.hold = self.hold, None
        return granted

    def can_grant(self) -> bool:
        """True when `grant` would do more than count a stall: a request
        waits for the mux, or the held one may enter."""
        if self.hold is None:
            return bool(self.pending)
        return admits(self.hold[1] in self.in_flight, len(self.in_flight), self.capacity)

    def release(self, line: int) -> None:
        self.in_flight.discard(line)


def snoop_targets(
    initiator: int, n_cores: int, coherent_ifetch: bool, from_icache: bool = False,
) -> Tuple[Tuple[int, bool, bool], ...]:
    """Snoop fan-out of a request, as (core, probe_d, probe_i) in probe
    order; it depends on neither the request's kind nor its line.

    Every cache except the initiating one is probed: other cores'
    data caches always, instruction caches only when they are coherent,
    and the initiator core's own sibling structure (its icache for a
    data-side request, its dcache for a coherent ifetch) so one core's
    split caches can never disagree about uniqueness.
    """
    fanout = []
    for core in range(n_cores):
        if core == initiator:
            probe_d = from_icache
            probe_i = coherent_ifetch and not from_icache
        else:
            probe_d = True
            probe_i = coherent_ifetch
        if probe_d or probe_i:
            fanout.append((core, probe_d, probe_i))
    return tuple(fanout)


class Ccu:
    """The coherency unit of the cores whose caches (`cache.CacheModel`,
    one per core, of one configuration) it is built on: a request it
    admits is read off its core's pending miss."""

    # when a set, collects the line of every transaction whose data in
    # flight changes or leaves with it, for the invariant monitors
    touched: Optional[set] = None

    def __init__(
        self,
        caches: Sequence[CacheModel],
        ccu_stage: int = 1,
        snoop_hop: int = 1,
        wb_depth: int = 4,
        collision_capacity: int = 8,
    ):
        self.caches = caches
        self.ccu_stage = ccu_stage
        self.snoop_hop = snoop_hop
        n_cores, coherent_ifetch = len(caches), caches[0].coherent_ifetch

        self.decoder = Decoder(n_cores, collision_capacity)
        # fanout[initiator][from_icache] -> snoop_targets of its requests
        self.fanout = tuple(
            tuple(snoop_targets(core, n_cores, coherent_ifetch, from_icache)
                  for from_icache in (False, True))
            for core in range(n_cores)
        )
        self.txns: Dict[int, CcuTransaction] = {}
        self.next_id = 0
        # (due, txn, request, probe_d, probe_i) awaiting delivery per core
        self.ac_outbox: List[Deque[tuple]] = [deque() for _ in range(n_cores)]
        self.cr_inbox: Deque[tuple] = deque()  # (due, from_core, txn, resp, data)
        # transactions whose last CR came in this cycle, for completion_step
        self.ready: List[CcuTransaction] = []
        # (due, txn) of the R burst on its way to the initiator
        self.r_outbox: List[Deque[Tuple[int, CcuTransaction]]] = [
            deque() for _ in range(n_cores)]
        self.mem_port = MemoryPort(wb_depth)
        self.c2c_transfers = 0

    # -- request intake ------------------------------------------------------

    def submit(self, core: int, now: int) -> None:
        """Accept the snooping request of a core's pending miss; it waits
        for the decoder. A non-coherent ifetch fill (`sim.Kernel._access`)
        and write-backs (mem_port.push_wb) bypass this path."""
        ms = self.caches[core].miss
        if ms.kind not in SNOOPING_KINDS:
            raise ProtocolFault(f"core {core}: unexpected {ms.kind.value} request")
        self.decoder.submit(core, ms.address, now)

    # -- pipeline stages -------------------------------------------------------

    def decoder_step(self, now: int) -> Optional[CcuTransaction]:
        """Let at most one coherent request through the Decoder and fan
        out its snoops; the request enters as its miss's `entry_kind`."""
        granted = self.decoder.grant()
        if granted is None:
            return None
        core, address = granted
        cache = self.caches[core]
        kind = cache.entry_kind()
        txn = CcuTransaction(id=self.next_id, initiator=core, kind=kind, address=address)
        self.next_id += 1
        self.txns[txn.id] = txn
        fanout = self.fanout[core][cache.miss.for_icache]
        req = SnoopRequest(kind=kind, address=address)
        due = now + self.ccu_stage + self.snoop_hop
        for target, probe_d, probe_i in fanout:
            self.ac_outbox[target].append((due, txn, req, probe_d, probe_i))
        txn.cr_pending = len(fanout)
        txn.advance(SNOOPING)
        return txn

    def collect_cr(self, from_core: int, txn: CcuTransaction, resp: SnoopResponse,
                   data: Optional[bytes]) -> None:
        """Fold one CR (+CD) of a core into its transaction's aggregate.
        The first responder that transfers data supplies the line."""
        if self.touched is not None:
            self.touched.add(txn.address)
        txn.cr_pending -= 1
        txn.any_is_shared |= resp.is_shared
        txn.any_pass_dirty |= resp.pass_dirty
        if resp.data_transfer and txn.data_source is None and txn.data is None:
            txn.data = bytes(data)
            txn.data_source = from_core
        if txn.cr_pending == 0:
            txn.advance(RESPONDING)
            self.ready.append(txn)

    def snoop_unit_step(self, now: int) -> None:
        while self.cr_inbox and self.cr_inbox[0][0] <= now:
            _, from_core, txn, resp, data = self.cr_inbox.popleft()
            self.collect_cr(from_core, txn, resp, data)

    def completion_step(self, now: int) -> None:
        """Move the transactions whose CRs are all in toward the R
        channel, in id order: snoop data is forwarded directly (no memory
        read); transactions with no responder data fetch the line from
        memory first (`memory_data`)."""
        ready = self.ready
        if not ready:
            return
        self.ready = []
        if len(ready) > 1:
            ready.sort(key=lambda t: t.id)
        for txn in ready:
            if txn.kind in DATA_KINDS and txn.data is None:
                txn.advance(MEM_ACCESS)
                self.mem_port.read_queue.append((now, txn.address, txn))
                continue
            if txn.data_source is not None:
                self.c2c_transfers += 1
            self.r_outbox[txn.initiator].append((now + self.ccu_stage, txn))

    def memory_unit_step(self, now: int, mem) -> bool:
        """Issue at most one operation on the serialized memory port."""
        return self.mem_port.step(now, mem)

    def memory_data(self, txn: CcuTransaction, data: bytes, now: int) -> None:
        """The memory read of a transaction returned its line in cycle
        `now`: the completion stage sends it on in the next cycle."""
        if self.touched is not None:
            self.touched.add(txn.address)
        txn.data = bytes(data)
        self.r_outbox[txn.initiator].append((now + 1 + self.ccu_stage, txn))

    def take_r(self, core: int, now: int) -> Optional[CcuTransaction]:
        """Transaction whose R burst is at the initiator this cycle, if any."""
        box = self.r_outbox[core]
        if box and box[0][0] <= now:
            return box[0][1]
        return None

    def finish(self, txn: CcuTransaction) -> None:
        """Retire a transaction: the initiator consumed the R burst and
        applied the miss; its line leaves the Decoder."""
        del self.txns[txn.id]
        if self.touched is not None:
            self.touched.add(txn.address)
        txn.advance(DONE)
        box = self.r_outbox[txn.initiator]
        if box and box[0][1] is txn:
            box.popleft()
        self.decoder.release(txn.address)
