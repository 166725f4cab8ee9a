"""Cache coherency unit.

Serializes the cores' snooping requests through the `Decoder` (round-robin
mux and per-line mutual exclusion, pipelined across distinct lines; the
directory shares it), fans out snoops, folds each CR response into its
transaction in the cycle its snoop is served, buffers first-responder CD
data, and drains write-backs to memory through the bounded FIFO of its
memory port. The kernel (`sim.Kernel`) builds the Decoder and the
memory port and hands them in. The Decoder opens each `Transaction`, the one record of a
request in flight in both timed models, from its core's pending miss,
and its in-flight table holds it, under its line, until the kernel ends
it at the fill (`sim.Kernel._complete`); every entry of the CCU's queues
(AC snoops, transactions whose last CR is on its way, memory reads, R
bursts) carries the transaction it belongs to.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from .cache import CacheModel
from .memsys import MemoryPort
from .protocol import (
    CoherentKind,
    DATA_KINDS,
    READ_ONCE,
    SNOOPING_KINDS,
    SnoopResponse,
)


class ProtocolFault(RuntimeError):
    """Internal protocol violation (e.g. a core's second pending request)."""


def mux_grant(pending: Dict[int, Tuple[int, int]], last_granted: int, n_cores: int) -> int:
    """Pick the next coherent request from a Decoder's `core -> (arrival,
    line)` table: the earliest arrival cycle wins, same-cycle ties rotate
    round-robin starting after last_granted. One walk over the cores in
    that order keeps the first earliest arrival."""
    if not pending:
        raise ValueError("mux_grant with nothing pending")
    best = best_at = None
    for i in range(last_granted + 1, last_granted + 1 + n_cores):
        core = i % n_cores
        request = pending.get(core)
        if request is not None and (best_at is None or request[0] < best_at):
            best, best_at = core, request[0]
    return best


@dataclass(slots=True)
class Transaction:
    """One request in flight, in either timed model: the Decoder opens it
    (`Decoder.grant`) and the kernel ends it at the fill, in the state its
    completion row gives for the aggregate `fold` built. Both models fold
    CRs through `fold`: the snoop model every snoopee's, the directory its
    forwarded owner's. The journey is the directory's."""

    id: int
    initiator: int
    kind: CoherentKind
    address: int  # a line address
    data: Optional[bytes] = None
    data_source: Optional[int] = None  # the core that supplied the line, None = memory/no data
    cr_pending: int = 0
    any_is_shared: int = 0
    any_pass_dirty: int = 0
    journey: Optional[Iterator[Optional[int]]] = field(default=None, repr=False)

    def fold(self, core: int, resp: SnoopResponse, data: Optional[bytes]) -> None:
        """Fold one core's CR (+CD) into the aggregate: IsShared and
        PassDirty are OR-ed in, and the first responder that transfers
        data supplies the line. No memory data is buffered before the
        last CR folds, so no data yet means no responder has transferred."""
        self.any_is_shared |= resp.is_shared
        self.any_pass_dirty |= resp.pass_dirty
        if resp.data_transfer and self.data is None:
            self.data = bytes(data)
            self.data_source = core


def admits(line_in_flight: bool, n_in_flight: int, capacity: int) -> bool:
    """The collision rule: a request enters only while no transaction on
    its line is in flight and the table of in-flight lines has room."""
    return not line_in_flight and n_in_flight < capacity


class Decoder:
    """Coherent request intake of the cores whose caches it is built on:
    at most one waiting request per core, granted by `mux_grant`; a
    granted request is held until `admits` lets it in, and every cycle it
    waits counts a stall. It queues only each request's arrival and line,
    in `pending`, which is also the table `mux_grant` reads: the rest of
    the request is the core's pending miss, read when the request enters.
    The transaction a request opens is numbered and recorded here alone:
    `in_flight` maps each line in flight to its transaction."""

    def __init__(self, caches: Sequence[CacheModel], capacity: int):
        self.caches = caches
        self.n_cores = n_cores = len(caches)
        self.capacity = capacity
        self.pending: Dict[int, Tuple[int, int]] = {}  # core -> (arrival, line)
        self.hold: Optional[Tuple[int, int]] = None  # (core, line)
        self.last_granted = n_cores - 1
        self.in_flight: Dict[int, Transaction] = {}  # line -> its transaction, in grant order
        self.grants = 0
        self.stalls = 0

    def submit(self, core: int, now: int) -> None:
        """Queue the request of the core's pending miss, on its line."""
        if core in self.pending:
            raise ProtocolFault(f"core {core}: coherent request while one is pending")
        self.pending[core] = (now, self.caches[core].miss.address)

    def grant(self) -> Optional[Transaction]:
        """The transaction that enters now, numbered by its grant and
        recorded in `in_flight` under its line, or None when no request
        waits or the held one stalls; every waiting request was submitted
        by now, so all of them compete. It enters as its miss's
        `entry_kind`, which must be a snooping kind (a reissue row may
        name any kind)."""
        if self.hold is None:
            if not self.pending:
                return None
            if len(self.pending) == 1:
                core = next(iter(self.pending))
            else:
                core = mux_grant(self.pending, self.last_granted, self.n_cores)
            self.last_granted = core
            self.hold = (core, self.pending.pop(core)[1])
        core, line = self.hold
        if not admits(line in self.in_flight, len(self.in_flight), self.capacity):
            self.stalls += 1
            return None
        kind = self.caches[core].entry_kind()
        if kind not in SNOOPING_KINDS:
            raise ProtocolFault(f"core {core}: unexpected {kind.value} request")
        txn = self.in_flight[line] = Transaction(self.grants, core, kind, line)
        self.grants += 1
        self.hold = None
        return txn

    def can_grant(self) -> bool:
        """True when `grant` would do more than count a stall: a request
        waits for the mux, or the held one may enter."""
        if self.hold is None:
            return bool(self.pending)
        return admits(self.hold[1] in self.in_flight, len(self.in_flight), self.capacity)

    def release(self, line: int) -> None:
        del self.in_flight[line]


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
    one per core, of one configuration) it is built on, in front of the
    kernel's Decoder and memory port: a request it admits is read off
    its core's pending miss."""

    # when a set, collects the line of every transaction whose copy in
    # the monitors' view changes: a transaction shows there only while it
    # holds dirty responsibility (`any_pass_dirty`). A CR folds in the
    # cycle its snoop is served, and the snooped cache marked the line
    # whenever the fold can change the view (`CacheModel.handle_snoop`);
    # the end of a transaction marked it through the initiator's fill
    # (`CacheModel.miss_complete`). The caches share this set, so only a
    # memory read's data is marked here
    touched: Optional[set] = None

    def __init__(
        self,
        caches: Sequence[CacheModel],
        decoder: Decoder,
        mem_port: MemoryPort,
        ccu_stage: int = 1,
        snoop_hop: int = 1,
    ):
        self.decoder = decoder
        self.mem_port = mem_port
        self.ccu_stage = ccu_stage
        self.snoop_hop = snoop_hop
        n_cores, coherent_ifetch = len(caches), caches[0].coherent_ifetch
        # fanout[initiator][from_icache] -> snoop_targets of its requests;
        # a request comes from the icache when it is a ReadOnce
        self.fanout = tuple(
            tuple(snoop_targets(core, n_cores, coherent_ifetch, from_icache)
                  for from_icache in (False, True))
            for core in range(n_cores)
        )
        # (due, txn, probe_d, probe_i) awaiting delivery per core; the
        # transaction's kind and line are the probe `handle_snoop` takes
        self.ac_outbox: List[Deque[tuple]] = [deque() for _ in range(n_cores)]
        # (due, txn) of each transaction whose last CR folded, on its way
        # to the completion stage
        self.cr_inbox: Deque[Tuple[int, Transaction]] = deque()
        # (due, txn) of the R burst on its way to the initiator
        self.r_outbox: List[Deque[Tuple[int, Transaction]]] = [
            deque() for _ in range(n_cores)]

    # -- request intake ------------------------------------------------------

    def submit(self, core: int, now: int) -> None:
        """Accept the request of a core's pending miss; it waits for the
        decoder, whose grant refuses a kind that does not snoop. A
        non-coherent ifetch fill (`sim.Kernel._access`) and write-backs
        (mem_port.push_wb) bypass this path."""
        self.decoder.submit(core, now)

    # -- pipeline stages -------------------------------------------------------

    def decoder_step(self, now: int) -> Optional[Transaction]:
        """Let at most one coherent request through the Decoder and fan
        out its snoops. Each AC entry carries the new transaction."""
        txn = self.decoder.grant()
        if txn is None:
            return None
        fanout = self.fanout[txn.initiator][txn.kind is READ_ONCE]
        due = now + self.ccu_stage + self.snoop_hop
        for target, probe_d, probe_i in fanout:
            self.ac_outbox[target].append((due, txn, probe_d, probe_i))
        txn.cr_pending = len(fanout)
        return txn

    def collect_cr(self, from_core: int, txn: Transaction, resp: SnoopResponse,
                   data: Optional[bytes], now: int) -> None:
        """Fold one CR (+CD) of a core into its transaction
        (`Transaction.fold`) in the cycle `now` its snoop is served, one
        fewer pending. Every CR takes one hop to the snoop unit, so the
        last one's transaction goes on to `completion_step` a hop later;
        its memory read is issued only then."""
        txn.cr_pending -= 1
        txn.fold(from_core, resp, data)
        if not txn.cr_pending:
            self.cr_inbox.append((now + self.snoop_hop, txn))

    def snoop_unit_step(self, now: int) -> None:
        """The transactions whose last CR has reached the snoop unit by
        `now` go on to `completion_step` in this cycle, in id order."""
        inbox = self.cr_inbox
        ready = []
        while inbox and inbox[0][0] <= now:
            ready.append(inbox.popleft()[1])
        if ready:
            if len(ready) > 1:
                ready.sort(key=lambda t: t.id)
            self.completion_step(now, ready)

    def completion_step(self, now: int, ready: List[Transaction]) -> None:
        """Move the transactions whose CRs are all in toward the R
        channel: snoop data is forwarded directly (no memory read);
        transactions with no responder data fetch the line from memory
        first (`memory_data`)."""
        for txn in ready:
            if txn.kind in DATA_KINDS and txn.data is None:
                self.mem_port.read_queue.append((now, txn.address, txn))
                continue
            self.r_outbox[txn.initiator].append((now + self.ccu_stage, txn))

    def memory_unit_step(self, now: int, mem) -> bool:
        """Issue at most one operation on the serialized memory port."""
        return self.mem_port.step(now, mem)

    def memory_data(self, txn: Transaction, data: bytes, now: int) -> None:
        """The memory read of a transaction returned its line in cycle
        `now`: the completion stage sends it on in the next cycle."""
        if self.touched is not None and txn.any_pass_dirty:
            self.touched.add(txn.address)
        txn.data = bytes(data)
        self.r_outbox[txn.initiator].append((now + 1 + self.ccu_stage, txn))

    def take_r(self, core: int, now: int) -> Optional[Transaction]:
        """Transaction whose R burst is at the initiator this cycle, if any."""
        box = self.r_outbox[core]
        if box and box[0][0] <= now:
            return box[0][1]
        return None

    def finish(self, txn: Transaction) -> None:
        """The initiator consumed the R burst of a transaction the kernel
        ended (`sim.Kernel._complete`): the burst leaves the R channel.
        The fill that ended it marked the line in `touched` already, and
        its burst is the head `take_r` returned."""
        self.r_outbox[txn.initiator].popleft()
