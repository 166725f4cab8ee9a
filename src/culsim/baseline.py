"""Directory-based coherence baseline.

A deliberately simple MESI directory co-located with memory: requests
indirect through the home node (three hops when an owner must forward),
invalidations are sequential round-trips, and an owner downgraded by a
read miss writes its dirty line back to memory. Per-hop latency equals
the snoop model's snoop_hop, and requests enter through the snoop
model's `ccu.Decoder` (same mux, same per-line serialization, same
stall count), so measured differences come from protocol structure
rather than tuned constants.

The cores, memory port, op accounting, non-coherent ifetch fill and run
loop come from `sim.Kernel`, shared with the snoop simulator, so SimStats
fields mean the same thing in both reports; there is no coherent icache.
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
memory read, whose data puts it back on `wake` for the next cycle.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterator, List, Optional, Tuple

from .cache import ConfigError
from .ccu import Decoder, ProtocolFault
from .memsys import MemoryPort
from .protocol import (
    CLEAN_UNIQUE,
    CoreOp,
    EXCLUSIVE,
    IFETCH,
    INVALID,
    LineState,
    MODIFIED,
    SHARED,
    STORE,
)
from .sim import Kernel, SimConfig


@dataclass
class _DirTxn:
    id: int
    core: int
    addr: int
    journey: Iterator[Optional[int]] = field(init=False, repr=False)
    data: Optional[bytes] = None


class DirectorySimulation(Kernel):
    def __init__(self, config: SimConfig, monitor: bool = False):
        super().__init__(config, monitor)
        self.mem_port = MemoryPort(config.fifo_depths.writeback)
        self.mem_port.touched = self.touched
        self.decoder = Decoder(config.n_cores, config.fifo_depths.collision_capacity)
        self.txns: List[_DirTxn] = []  # in accept order, for `_dump_lines`
        self.next_id = 0
        # (due, txn id, txn) of each journey waiting out a delay
        self.wake: List[Tuple[int, int, _DirTxn]] = []
        self._timed = (self.mem_port.read_queue, self.mem.inflight, self.wake)

    # -- cycle ---------------------------------------------------------------

    def _phases(self, now: int) -> None:
        # only what is due acts: a journey whose delay has run out (a
        # step pushes its next wake at least a cycle on, so all those
        # popped here are due now and run in accept order), the Decoder
        # while a request waits (its stall count moves only in grant), a
        # port with a fill or an op to run, the memory port while it
        # holds an operation, a due read's data
        wake = self.wake
        while wake and wake[0][0] <= now:
            self._advance(heappop(wake)[2], now)
        if self.decoder.pending or self.decoder.hold is not None:
            self._accept(now)
        for core, port in enumerate(self.ports):
            if port.nc_fill is not None:
                self._apply_nc_fill(core, now)
            elif port.current is not None and self.caches[core].miss is None:
                self._core_op(core, now)
        mem_port = self.mem_port
        if (mem_port.read_queue or mem_port.wb) and mem_port.step(now, self.mem):
            self._progress = True
        inflight = self.mem.inflight
        if inflight and inflight[0][0] <= now:
            self._memory_responses(now)

    def _memory_data(self, txn: _DirTxn, data: bytes, now: int) -> None:
        txn.data = data
        heappush(self.wake, (now + 1, txn.id, txn))

    def _accept(self, now: int) -> None:
        granted = self.decoder.grant()
        self.stats.ccu_collision_stalls = self.decoder.stalls
        if granted is None:
            return
        core, addr = granted
        txn = _DirTxn(id=self.next_id, core=core, addr=addr)
        self.next_id += 1
        txn.journey = self._journey(txn)
        self.txns.append(txn)
        heappush(self.wake, (now + 1, txn.id, txn))  # it starts the cycle after the accept
        self._progress = True

    def _advance(self, txn: _DirTxn, now: int) -> None:
        """Run the transaction's journey up to its next wait."""
        self._progress = True
        wait = next(txn.journey, False)
        if wait is False:
            self.txns.remove(txn)
        elif wait is None:
            self.mem_port.read_queue.append((now, txn.addr, txn))
        else:
            heappush(self.wake, (now + wait, txn.id, txn))

    def _journey(self, txn: _DirTxn) -> Iterator[Optional[int]]:
        """One transaction, hop by hop. Yields a delay in cycles, or None
        to wait for the memory read of the line (its data lands in
        `txn.data`); a step the write-back FIFO refuses yields 1 and is
        retried the next cycle."""
        hop = self.config.latencies.snoop_hop
        yield hop  # requester -> home
        yield self.config.latencies.ccu_stage  # directory lookup
        owner, sharers = self._holders(txn.addr)
        upgrade = self.caches[txn.core].entry_kind() is CLEAN_UNIQUE
        store = self.ports[txn.core].current.kind is STORE
        if store:
            state = MODIFIED
        elif owner is None and not sharers:
            state = EXCLUSIVE
        else:
            state = SHARED
        if owner not in (None, txn.core):
            yield hop  # home -> owner
            while not self._apply_probe(txn, owner):
                yield 1
        elif store:
            for sharer in sharers:
                if sharer == txn.core:
                    continue
                yield hop  # home -> sharer
                self._apply_invalidate(txn, sharer)
                yield hop  # its acknowledgement -> home
        if txn.data is None and not upgrade:
            yield None  # memory read
        yield hop  # -> requester
        while not self._apply_install(txn, state):
            yield 1

    def _holders(self, addr: int) -> Tuple[Optional[int], List[int]]:
        """The directory lookup, read off the L1s: the owner (the core
        holding the line Modified or Exclusive) and the sharers (Shared),
        in core order."""
        owner, sharers = None, []
        for core, cache in enumerate(self.caches):
            hit = cache.lookup(addr)
            if hit is not None:
                if hit[1].state is SHARED:
                    sharers.append(core)
                else:  # Modified or Exclusive: MESI has no other valid state
                    owner = core
        return owner, sharers

    def _apply_invalidate(self, txn: _DirTxn, target: int) -> None:
        hit = self.caches[target].lookup(txn.addr)
        if hit is not None:
            if self.touched is not None:
                self.touched.add(txn.addr)
            hit[1].state = INVALID

    def _apply_probe(self, txn: _DirTxn, owner: int) -> bool:
        """Forward the request to the owner found at lookup, which supplies
        the line cache to cache: a read downgrades the owner to Shared (its
        dirty data queues for memory; False while the write-back FIFO is
        full), a write invalidates it. A stale owner (it evicted the line
        since the lookup) leaves `txn.data` empty, for memory to fill."""
        hit = self.caches[owner].lookup(txn.addr)
        if hit is None:
            return True
        line = hit[1]
        if self.ports[txn.core].current.kind is STORE:
            line.state = INVALID
        else:
            if line.state is MODIFIED:
                # MESI has no dirty-shared state: the downgrade writes back
                if not self.mem_port.push_wb(txn.addr, line.data):
                    return False
                self.stats.cores[owner].writebacks += 1
            line.state = SHARED
        if self.touched is not None:
            self.touched.add(txn.addr)
        txn.data = line.data
        self.stats.cores[txn.core].snoop_served_misses += 1
        self.stats.cache_to_cache_transfers += 1
        return True

    def _apply_install(self, txn: _DirTxn, state: LineState) -> bool:
        core = txn.core
        cache = self.caches[core]
        if not self._victim_fits(cache):
            return False
        result = cache.miss_complete(state, txn.data)
        if result.writeback is not None:
            if not self.mem_port.push_wb(*result.writeback):
                raise ProtocolFault("write-back refused after feasibility check")
            self.stats.cores[core].writebacks += 1
        self.decoder.release(txn.addr)
        self._retire_miss(core, self.cycle)
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
        if self._access(core, self.ports[core].current, now) is not None:
            self.decoder.submit(core, self.caches[core].miss.address, now)

    def _dump_lines(self) -> List[str]:
        due = {txn_id: cycle for cycle, txn_id, _ in self.wake}
        txns = [(t.core, self.ports[t.core].current.kind.value, hex(t.addr),
                 due.get(t.id, "memory")) for t in self.txns]
        d = self.decoder
        return [f"  directory: pending={d.pending} hold={d.hold} txns={txns} "
                f"in_flight={sorted(d.in_flight)}"]
