"""Flat backing store behind the coherency unit.

Stands in for the shared last-level cache plus main memory: a sparse
line-addressed store with a fixed read latency. Writes take effect at
issue (so same-line ordering is trivial); a read latches its data at
issue and is due the configured latency later, so a model may take it
at issue (`MemoryModel.pass_on`). MemoryPort is the single serialized
port both timed models put in front of it.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .cache import PHYS_ADDR_BITS


class MemoryFault(ValueError):
    """Misaligned or otherwise illegal memory access."""


class MemoryModel:
    # when set, offered each read at issue as (tag, data, due): one it
    # takes (returns True) skips `inflight`. It must not refer back to
    # the model, or a reference cycle keeps finished models alive
    pass_on: Optional[Callable[[object, bytes, int], bool]] = None

    def __init__(self, line_size: int, read_latency: int):
        self.line_size = line_size
        self.read_latency = read_latency
        self.contents: Dict[int, bytes] = {}
        # (due_cycle, tag, addr, data) for reads awaiting their response;
        # the latency is fixed, so issue order is due order
        self.inflight: Deque[Tuple[int, object, int, bytes]] = deque()
        self.reads = 0
        self.writes = 0

    def _check_aligned(self, address: int) -> None:
        if address % self.line_size != 0:
            raise MemoryFault(f"address {address:#x} not aligned to {self.line_size}-byte lines")
        if address < 0 or address >= 1 << PHYS_ADDR_BITS:
            raise MemoryFault(f"address {address:#x} outside the "
                              f"{PHYS_ADDR_BITS}-bit physical range")

    def peek(self, address: int) -> bytes:
        """Current line value without timing side effects (zero fill)."""
        self._check_aligned(address)
        return self.contents.get(address, bytes(self.line_size))

    def read(self, address: int, now: int, tag: object) -> int:
        """Issue a line read; unless `pass_on` takes it, the response is
        collected via take_completions.

        Returns the completion cycle. The data is latched at issue, which
        preserves issue order against later writes to the same line.
        """
        self._check_aligned(address)
        data = self.contents.get(address)
        if data is None:  # never written: a zero line
            data = bytes(self.line_size)
        due = now + self.read_latency
        self.reads += 1
        pass_on = self.pass_on
        if pass_on is None or not pass_on(tag, data, due):
            self.inflight.append((due, tag, address, data))
        return due

    def write(self, address: int, data: bytes) -> None:
        """Issue a line write; contents update immediately."""
        self._check_aligned(address)
        if len(data) != self.line_size:
            raise MemoryFault(f"write of {len(data)} bytes to {self.line_size}-byte line")
        self.contents[address] = bytes(data)
        self.writes += 1

    def take_completions(self, now: int) -> List[Tuple[object, int, bytes]]:
        """Pop all read responses due at or before `now`, in issue order."""
        inflight = self.inflight
        done = []
        while inflight and inflight[0][0] <= now:
            _due, tag, addr, data = inflight.popleft()
            done.append((tag, addr, data))
        return done

    def load_image(self, text: str) -> None:
        """Preload memory from line-oriented text: `<addr_hex> <byte_hex...>`."""
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            try:
                addr = int(fields[0], 16)
                data = bytes(int(b, 16) for b in fields[1:])
            except ValueError as exc:
                raise MemoryFault(f"memory image line {lineno}: {exc}") from exc
            self._check_aligned(addr)
            if len(data) != self.line_size:
                raise MemoryFault(
                    f"memory image line {lineno}: {len(data)} bytes, expected {self.line_size}"
                )
            self.contents[addr] = data


def fifo_full(queue, depth: int) -> bool:
    """A bounded FIFO takes no entry once it holds `depth` of them."""
    return len(queue) >= depth


def read_waits(address, writebacks) -> bool:
    """A line read never passes a queued (address, data) write-back to it."""
    for a, _ in writebacks:
        if a == address:
            return True
    return False


class MemoryPort:
    """Single serialized memory port, at most one operation per cycle.

    Line reads queue in order as (ready_at, addr, tag); write-backs wait
    in a bounded FIFO. A read never passes a write-back to the same line
    still queued in the FIFO, and the FIFO drains when no read can issue.
    `touched`, when a set, collects the address of every write-back
    queued, for the invariant monitors; a drain changes no line's view,
    since the queued value already shadowed memory.
    """

    touched: Optional[set] = None

    def __init__(self, wb_depth: int):
        self.read_queue: Deque[Tuple[int, int, object]] = deque()
        self.wb: Deque[Tuple[int, bytes]] = deque()
        self.wb_depth = wb_depth

    def wb_full(self) -> bool:
        return fifo_full(self.wb, self.wb_depth)

    def push_wb(self, address: int, data: bytes) -> bool:
        """Queue a write-back; False when the FIFO is full (caller stalls)."""
        if self.wb_full():
            return False
        if self.touched is not None:
            self.touched.add(address)
        self.wb.append((address, bytes(data)))
        return True

    def step(self, now: int, mem: MemoryModel) -> bool:
        """Issue at most one operation; True when one was issued."""
        if self.read_queue and self.read_queue[0][0] <= now:
            _, address, tag = self.read_queue[0]
            if not read_waits(address, self.wb):
                self.read_queue.popleft()
                mem.read(address, now, tag)
                return True
        if self.wb:
            address, data = self.wb.popleft()
            mem.write(address, data)
            return True
        return False
