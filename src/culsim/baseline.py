"""Directory-based coherence baseline.

A deliberately simple MESI directory co-located with memory: requests
indirect through the home node (three hops when an owner must forward),
invalidations are sequential round-trips, and an owner downgraded by a
read miss writes its dirty line back to memory. Per-hop latency equals
the snoop model's snoop_hop, and requests enter through the snoop
model's `ccu.Decoder` (same mux, same per-line serialization, same
stall count), so measured differences come from protocol structure
rather than tuned constants.

The directory runs the protocol's rows, not rules of its own: the
forward to the owner and each sharer's invalidation are a
`CacheModel.handle_snoop` by the snoopee row, the owner's CR folds into
the transaction (`ccu.Transaction.fold`), whose IsShared the lookup
sets when the line has an owner or a sharer, and `Kernel._complete`
installs by the completion row. One rule is MESI's own, since MESI has
no Owned state: an owner that its row leaves Owned writes its line back
and stays Shared (`_forward`).

The cores, memory port, Decoder, op accounting, the fill of every miss
(`Kernel._retire_miss`, the non-coherent ifetch fill included) and run
loop come from `sim.Kernel`, shared with the snoop simulator, so SimStats
fields mean the same thing in both reports; there is no coherent icache.
A transaction is the snoop model's record too (`ccu.Transaction`): the
Decoder opens it from the core's miss, with its entry kind, and holds it
under its line until `Kernel._complete` ends it at the install.
Every memory write, the downgrade of a forwarded read included, queues
in the write-back FIFO of the memory port.

The directory is precise: every install, invalidation, downgrade and
eviction reaches it in the cycle the cache changes. So it stores
nothing of its own; its lookup reads the owner (the core holding the
line Modified or Exclusive) and the sharers (Shared) off the L1s.

Each transaction is one generator, `DirectorySimulation._journey`: the
hop to the home node, the directory lookup, then the forward to the
owner or the sharers' invalidations and a memory read, then the hop back
and the install. Between its steps a journey waits on the `wake` heap,
ordered by due cycle and then transaction id (accept order), or on its
memory read, which puts it back on `wake` as it issues, due at the
requester a hop after the cycle after its data.
"""
from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterator, List, Optional, Tuple

from .cache import ConfigError
from .ccu import ProtocolFault, Transaction
from .protocol import CoreOp, DATA_KINDS, IFETCH, INVALID, OWNED, SHARED, STORE
from .sim import Kernel, SimConfig


class DirectorySimulation(Kernel):
    def __init__(self, config: SimConfig, monitor: bool = False):
        super().__init__(config, monitor)
        # (due, txn id, txn) of each journey waiting out a delay
        self.wake: List[Tuple[int, int, Transaction]] = []
        wake = self.wake
        self._timed = (self.mem_port.read_queue, self.mem.inflight, wake)
        back = 1 + config.latencies.snoop_hop

        def memory_data(txn, data: bytes, due: int) -> bool:
            # `MemoryModel.pass_on`, closed over the heap, not the model
            if type(txn) is not Transaction:
                return False
            txn.data = data
            heappush(wake, (due + back, txn.id, txn))
            return True

        self.mem.pass_on = memory_data
        self._ports = tuple(zip(range(config.n_cores), self.ports, self.caches))

    # -- cycle ---------------------------------------------------------------

    def _phases(self, now: int) -> None:
        # only what is due acts: a journey whose delay has run out (a
        # step pushes its next wake at least a cycle on, so all those
        # popped here are due now and run in accept order), the Decoder
        # while a request waits (its stall count moves only in grant), a
        # port with a fill or an op to run, the memory port while it
        # holds an operation, a due non-coherent fill's data
        wake = self.wake
        while wake and wake[0][0] <= now:
            self._advance(heappop(wake)[2], now)
        if self.decoder.pending or self.decoder.hold is not None:
            self._accept(now)
        for core, port, cache in self._ports:
            if port.nc_fill is not None:
                self._apply_nc_fill(core, now)
            elif port.current is not None and cache.miss is None:
                self._core_op(core, now)
        mem_port = self.mem_port
        if (mem_port.read_queue or mem_port.wb) and mem_port.step(now, self.mem):
            self._progress = True
        inflight = self.mem.inflight
        if inflight and inflight[0][0] <= now:
            self._memory_responses(now)

    def _accept(self, now: int) -> None:
        txn = self.decoder.grant()
        if txn is None:
            return
        txn.journey = self._journey(txn)
        heappush(self.wake, (now + 1, txn.id, txn))  # it starts the cycle after the accept
        self._progress = True

    def _advance(self, txn: Transaction, now: int) -> None:
        """Run the transaction's journey up to its next wait."""
        self._progress = True
        wait = next(txn.journey, False)  # False: the journey is over
        if wait is None:
            self.mem_port.read_queue.append((now, txn.address, txn))
        elif wait is not False:
            heappush(self.wake, (now + wait, txn.id, txn))

    def _journey(self, txn: Transaction) -> Iterator[Optional[int]]:
        """One transaction, hop by hop. Yields a delay in cycles, or None
        to wait for the memory read of the line (its data lands in
        `txn.data`, and the read wakes it at the requester); a step the
        write-back FIFO refuses (a downgrade, or the install over a dirty
        victim) yields 1 and is retried the next cycle. The install ends
        the transaction (`Kernel._complete`)."""
        hop = self.config.latencies.snoop_hop
        core = txn.initiator
        yield hop  # requester -> home
        yield self.config.latencies.ccu_stage  # directory lookup
        owner, sharers = self._holders(txn.address)
        txn.any_is_shared = 1 if owner is not None or sharers else 0
        if owner not in (None, core):
            yield hop  # home -> owner
            while not self._forward(txn, owner):
                yield 1
        elif self.ports[core].current.kind is STORE:
            for sharer in sharers:
                if sharer == core:
                    continue
                yield hop  # home -> sharer
                # its snoopee row; an invalidation's ack carries no data
                self.caches[sharer].handle_snoop(txn.kind, txn.address)
                yield hop  # its acknowledgement -> home
        if txn.data is None and txn.kind in DATA_KINDS:
            yield None  # memory read, and its data -> requester
        else:
            yield hop  # -> requester
        while not self._complete(txn, self.cycle):
            yield 1

    def _holders(self, addr: int) -> Tuple[Optional[int], List[int]]:
        """The directory lookup, read off the L1s: the owner (the core
        holding the line Modified or Exclusive) and the sharers (Shared),
        in core order."""
        owner, sharers = None, []
        for core, _port, cache in self._ports:
            line = cache.index.get(addr)  # `addr` is a line address
            if line is not None:
                state = line.state
                if state is SHARED:
                    sharers.append(core)
                elif state is not INVALID:  # Modified or Exclusive, MESI's other states
                    owner = core
        return owner, sharers

    def _forward(self, txn: Transaction, owner: int) -> bool:
        """Forward the request to the owner found at lookup: it answers by
        its snoopee row (`CacheModel.handle_snoop`) and its CR folds into
        the transaction, so it supplies the line cache to cache. A stale
        owner (it evicted the line since the lookup) leaves `txn.data`
        empty, for memory to fill. MESI has no Owned state: an owner that
        its row leaves Owned writes its line back and stays Shared. False,
        with nothing changed, while that write-back finds the FIFO full."""
        cache = self.caches[owner]
        line = cache.index.get(txn.address)  # `txn.address` is a line address
        if line is None or line.state is INVALID:
            return True
        if (cache.tables.snoopee[line.state, txn.kind][0] is OWNED
                and self.mem_port.wb_full()):
            return False
        resp, data = cache.handle_snoop(txn.kind, txn.address)
        txn.fold(owner, resp, data)
        if line.state is OWNED:
            if not self.mem_port.push_wb(txn.address, line.data):
                raise ProtocolFault("write-back refused after feasibility check")
            self._stats.cores[owner].writebacks += 1
            line.state = SHARED
        return True

    def check_streams(self, streams: List[List[CoreOp]]) -> None:
        """Also refuse an IF op while coherent ifetch is on: the directory
        has no coherent icache."""
        super().check_streams(streams)
        if self.config.coherent_ifetch:
            for core, ops in enumerate(streams):
                op = next((op for op in ops if op.kind is IFETCH), None)
                if op is not None:
                    raise ConfigError(f"core {core}: ifetch of {op.address:#x} with coherent "
                                      "ifetch on: the directory has no coherent icache")

    def _core_op(self, core: int, now: int) -> None:
        self._progress = True
        if self._access(core, self.ports[core].current, now):
            self.decoder.submit(core, now)

    def _dump_lines(self) -> List[str]:
        # per journey: its transaction's id and the cycle it wakes (or "memory")
        due = {txn_id: cycle for cycle, txn_id, _ in self.wake}
        wakes = [(t.id, due.get(t.id, "memory")) for t in self.decoder.in_flight.values()]
        return [f"  directory: wake={wakes}"]
