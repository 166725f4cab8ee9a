"""Cycle-driven simulation kernel.

Instantiates N cores' caches, the coherency unit and the backing store
from a SimConfig, advances everything cycle by cycle and collects
SimStats. Runs are bit-for-bit deterministic for equal (config, streams).
`Kernel` is the part the directory baseline shares: op issue and
accounting, the run loop and watchdog, monitors and the final image.

An op retires at one of two points: a hit in `Kernel._access`, or the
fill of its miss in `Kernel._retire_miss`, which every model's fill
goes through (the snoop model's R completion, the directory's install
and the non-coherent ifetch fill). A fill whose dirty victim finds the
write-back FIFO full is refused, changes nothing, and is tried again.

`step()` advances exactly one cycle, and calls only the phases whose
queue head is due in it: a stage with nothing due does nothing when
called, so skipping it changes no count. `run()` loops over `step()`
while ops are left (a counter the two retire points decrement) or
write-backs wait, and also skips the cycles in which no phase can act:
after a step that made no progress it jumps `cycle` to the earliest due
time of any queue. Every transaction, queue entry and memory read
belongs to an op not yet retired, so once no op is left only the
write-back FIFO can hold work. Only a state with ops left and nothing
due is a deadlock: it jumps to the watchdog's deadline and trips it,
while a wait on a due head, however long, never does. A core's stall
cycles are counted per op, from its issue to its retire (or to a
watchdog trip), so every count matches a cycle-by-cycle run.

The invariant monitors' checks, `check_swmr` and `check_value`, live in
`verify`, the explorer's module. Only a model built with monitors loads
it, in `Kernel.__init__`, so importing this module or running without
monitors never loads the explorer.

The kernel builds the memory port and the request Decoder both models
use. The Decoder opens each `ccu.Transaction` from its core's miss and
holds it under its line, and `Kernel._complete` ends it at the fill, in
either model: it looks the install state up in the completion row of
the transaction's kind and CR aggregate (`Transaction.fold`), retires
the miss, releases the line and counts a snoop-served miss. The monitors
read dirty responsibility in flight off the same table: a transaction
that a snoopee handed it to answers for its line as an Owned copy. A
model declares itself through the hooks `Kernel` lists: `_phases`,
`mem.pass_on`, `_timed` and `_dump_lines`. From `_timed` and the
Decoder the kernel derives the next due cycle.

Component evaluation order within a cycle: cache controllers (each
serving one requester on its SRAM port, snoops due at the head of the
CCU's AC queues before the core's op), CCU stages (decoder, snoop unit,
memory unit), memory, stream issue — so coherency updates always land
before the core requests of the same cycle.
"""
from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .cache import CacheModel, ConfigError, CopyView, LostCopy
from .ccu import Ccu, Decoder, ProtocolFault, Transaction
from .memsys import MemoryModel, MemoryPort
from .protocol import IFETCH, INVALID, LOAD, OWNED, READ_NO_SNOOP, SHARED, STORE, CoreOp, LineState


# cycles without progress, with nothing due, after which `Kernel.run`
# reports a deadlock
WATCHDOG_CYCLES = 10000

_NEVER = float("inf")

# the largest cache_size accepted: a set's ways are built by its first
# fill, so memory grows with the lines a run touches; a run that fills
# every set of both arrays takes about 11 MB a core at 1 MiB
MAX_CACHE_SIZE = 1 << 20


def check_watchdog(watchdog: int) -> None:
    """Refuse a watchdog that would trip before any cycle could pass."""
    if watchdog < 1:
        raise ConfigError(f"watchdog: {watchdog} must be >= 1")


class DeadlockError(RuntimeError):
    """Watchdog fired: pending work but no forward progress."""


class CoherenceViolation(RuntimeError):
    """A per-cycle invariant monitor tripped."""


@dataclass
class Latencies:
    l1_hit: int = 1
    snoop_hop: int = 1
    ccu_stage: int = 1
    mem_read: int = 20


@dataclass
class FifoDepths:
    writeback: int = 4
    collision_capacity: int = 8


@dataclass
class SimConfig:
    n_cores: int = 2
    line_size: int = 16
    cache_size: int = 8192
    ways: int = 4
    coherent_ifetch: bool = False
    latencies: Latencies = field(default_factory=Latencies)
    fifo_depths: FifoDepths = field(default_factory=FifoDepths)
    seed: int = 0

    def validate(self) -> None:
        if not 2 <= self.n_cores <= 4:
            raise ConfigError(f"n_cores: {self.n_cores} outside the supported range 2..4")
        if self.line_size < 4 or self.line_size & (self.line_size - 1):
            raise ConfigError(f"line_size: {self.line_size} is not a power of two >= 4")
        if self.ways < 1:
            raise ConfigError(f"ways: {self.ways} must be >= 1")
        if self.cache_size < 1 or self.cache_size % (self.ways * self.line_size) != 0:
            raise ConfigError(
                f"cache_size: {self.cache_size} not a positive multiple of ways*line_size"
            )
        if self.cache_size > MAX_CACHE_SIZE:
            raise ConfigError(f"cache_size: {self.cache_size} over the 1 MiB bound")
        for name in ("l1_hit", "snoop_hop", "ccu_stage", "mem_read"):
            if getattr(self.latencies, name) < 1:
                raise ConfigError(f"latencies.{name}: must be >= 1")
        for name in ("writeback", "collision_capacity"):
            if getattr(self.fifo_depths, name) < 1:
                raise ConfigError(f"fifo_depths.{name}: must be >= 1")
        self.check_seed()

    def check_seed(self, source: str = "seed") -> None:
        """Refuse a seed outside 0..2**64-1, naming `source`, where it came from."""
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"{source}: {self.seed} does not fit in 64 bits")

    def to_dict(self) -> dict:
        return asdict(self)


_BOOL_VALUES = {"1": True, "0": False, "true": True, "false": False}


def parse_config(text: str) -> SimConfig:
    """Parse `key = value` config text; nested fields use dotted names
    (e.g. latencies.mem_read). Unknown keys are errors."""
    cfg = SimConfig()
    scalar = {f.name for f in fields(SimConfig)} - {"latencies", "fifo_depths"}
    nested = {"latencies": cfg.latencies, "fifo_depths": cfg.fifo_depths}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, _, value = (p.strip() for p in line.partition("="))
        try:
            if key == "coherent_ifetch":
                cfg.coherent_ifetch = _BOOL_VALUES[value.lower()]
            elif key in scalar:
                setattr(cfg, key, int(value, 0))
            elif "." in key:
                group, _, sub = key.partition(".")
                if group not in nested or sub not in vars(nested[group]):
                    raise ConfigError(f"config line {lineno}: unknown key '{key}'")
                setattr(nested[group], sub, int(value, 0))
            else:
                raise ConfigError(f"config line {lineno}: unknown key '{key}'")
        except (ValueError, KeyError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"config line {lineno}: bad value for '{key}'") from exc
    cfg.validate()
    return cfg


@dataclass
class CoreStats:
    loads: int = 0
    stores: int = 0
    ifetches: int = 0
    hits: int = 0
    misses: int = 0
    snoop_served_misses: int = 0
    writebacks: int = 0
    # always 0 since a miss that has entered the Decoder always completes;
    # kept so that reports keep their fields
    retries: int = 0
    stall_cycles: int = 0

    @property
    def ops(self) -> int:
        return self.loads + self.stores + self.ifetches

    def to_dict(self) -> dict:
        return {"ops": self.ops, **vars(self)}


def _format_fraction(value: Optional[Fraction]) -> Optional[str]:
    """Two decimals, exactly rounded; None (JSON null) stays None."""
    if value is None:
        return None
    cents = round(value * 100)
    return f"{cents // 100}.{cents % 100:02d}"


@dataclass
class SimStats:
    """A run's statistics. `cycles`, `mem_reads`, `mem_writes` and
    `ccu_collision_stalls` are copies of counts their components keep
    (`Kernel.cycle`, `MemoryModel.reads` and `writes`, `Decoder.stalls`):
    the kernel fills them in when its `stats` is read (`Kernel.stats`),
    not as it runs. `cache_to_cache_transfers` is the sum of the cores'
    snoop-served misses. The rest are counted here."""

    cycles: int = 0
    mem_reads: int = 0
    mem_writes: int = 0
    ccu_collision_stalls: int = 0
    miss_latency_total: int = 0
    miss_count: int = 0
    cores: List[CoreStats] = field(default_factory=list)

    @property
    def cache_to_cache_transfers(self) -> int:
        return sum(c.snoop_served_misses for c in self.cores)

    @property
    def avg_miss_latency(self) -> Optional[Fraction]:
        if self.miss_count == 0:
            return None
        return Fraction(self.miss_latency_total, self.miss_count)

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "mem_reads": self.mem_reads,
            "mem_writes": self.mem_writes,
            "ccu_collision_stalls": self.ccu_collision_stalls,
            "cache_to_cache_transfers": self.cache_to_cache_transfers,
            "avg_miss_latency": _format_fraction(self.avg_miss_latency),
            "cores": [c.to_dict() for c in self.cores],
        }


@dataclass
class _Port:
    """One core's in-order issue state: at most one op in flight."""

    stream: Deque[CoreOp] = field(default_factory=deque)
    current: Optional[CoreOp] = None
    miss_start: int = 0
    issued_at: int = 0
    ready_at: int = 0
    nc_fill: Optional[bytes] = None
    observations: List[int] = field(default_factory=list)


class Kernel:
    """The part of a timed model that the snoop cluster and the directory
    baseline share: cores and their L1s, memory, op issue and accounting,
    the non-coherent ifetch fill, per-cycle bookkeeping, the run loop with
    its watchdog, and the invariant monitors. A model supplies its
    coherence fabric as `_phases` (everything of a cycle before stream
    issue, `_apply_nc_fill` and `_memory_responses` included), takes its
    transactions' memory reads at issue as `mem.pass_on` and lists its
    own queues as `_dump_lines`. It uses the kernel's `mem_port`, the
    MemoryPort in front of `mem`, and `decoder`, the request Decoder,
    which opens each transaction and whose in-flight table the monitors
    read dirty responsibility in flight off; it ends each one with `_complete`,
    which installs by the transaction's completion row, and declares its
    time: `_timed` holds, once and for good, every queue of its fabric
    whose entries start with their due cycle (none is ever rebound);
    besides those, only the Decoder and the write-back FIFO may act with
    no due head. With monitors on, its components share the kernel's
    `touched` set, and the model marks there every line whose view it
    changes without a component's help.

    A step pays only for the work due in it: `_phases` calls a stage only
    when its queue head is due, and `_issue` runs only from `_issue_at`
    on, the first cycle in which a free port may take an op. `run` counts
    the ops left (`_ops_left`); the two retire points, a hit in `_access`
    and a miss's fill in `_retire_miss`, decrement it and lower
    `_issue_at`. A count that a component keeps is stored only there:
    the private record `_stats` holds the rest, and the `stats` property
    copies the component counts in when it is read."""

    _timed: Tuple[Sequence[tuple], ...]

    def __init__(self, config: SimConfig, monitor: bool):
        config.validate()
        self.config = config
        self.caches = [
            CacheModel(
                core_id=i,
                line_size=config.line_size,
                cache_size=config.cache_size,
                ways=config.ways,
                coherent_ifetch=config.coherent_ifetch,
            )
            for i in range(config.n_cores)
        ]
        self.mem = MemoryModel(config.line_size, config.latencies.mem_read)
        self.ports = [_Port() for _ in range(config.n_cores)]
        self.cycle = 0
        self._stats = SimStats(cores=[CoreStats() for _ in range(config.n_cores)])
        self._progress = True
        self._last_progress = 0
        self._ops_left = 0
        self._issue_at = 0
        # with monitors on, the addresses of the lines whose coherence
        # view changed since the last check: each component that changes
        # a view marks its line here
        self.touched: Optional[set] = set() if monitor else None
        for cache in self.caches:
            cache.touched = self.touched
        self.mem_port = MemoryPort(config.fifo_depths.writeback)
        self.mem_port.touched = self.touched
        self.decoder = Decoder(self.caches, config.fifo_depths.collision_capacity)
        if monitor:
            # only a monitored model loads the explorer's module, for its
            # checks; `_run_monitors` reads them off it at each call
            from . import verify
            self._verify = verify
        # (core, line index, coherent icache's line index or None) per
        # core: what `snapshot_invariants` reads a line's copies from
        self._line_indexes = tuple(
            (cache.core_id, cache.index, cache.iindex if cache.coherent_ifetch else None)
            for cache in self.caches
        )

    @property
    def stats(self) -> SimStats:
        """The run's statistics as of now. The counts that a component
        keeps (the cycle, memory reads and writes, the Decoder's stalls)
        are stored only there and copied into the record here, so a step
        pays for none of them."""
        stats = self._stats
        stats.cycles = self.cycle
        stats.mem_reads = self.mem.reads
        stats.mem_writes = self.mem.writes
        stats.ccu_collision_stalls = self.decoder.stalls
        return stats

    # -- per cycle -------------------------------------------------------------

    def step(self) -> None:
        now = self.cycle
        self._progress = False
        try:
            self._phases(now)
        except LostCopy as exc:
            raise CoherenceViolation(
                f"cycle {now}: line {exc.address:#x}: {exc}\n" + self._dump_state()
            ) from exc
        if now >= self._issue_at:
            self._issue(now)
        if self.touched is not None:
            self._run_monitors()
        if self._progress:
            self._last_progress = now
        self.cycle = now + 1

    def _issue(self, now: int) -> None:
        """Hand each free port its next op, and set `_issue_at` to the
        earliest `ready_at` of a port still free, or to the next cycle
        while a free port's stream is empty (ops may be appended to it
        between steps). A port that took an op lowers it at its retire."""
        issue_at = _NEVER
        for port, stats in zip(self.ports, self._stats.cores):
            if port.current is not None:
                continue
            if not port.stream:
                if now + 1 < issue_at:
                    issue_at = now + 1
            elif now < port.ready_at:
                if port.ready_at < issue_at:
                    issue_at = port.ready_at
            else:
                op = port.current = port.stream.popleft()
                port.issued_at = now
                if op.kind is LOAD:
                    stats.loads += 1
                elif op.kind is STORE:
                    stats.stores += 1
                else:
                    stats.ifetches += 1
                self._progress = True
        self._issue_at = issue_at

    def _access(self, core: int, op: CoreOp, now: int) -> bool:
        """Run op against the core's cache (`CacheModel.core_access`),
        which parks a miss in `cache.miss`. A hit retires the op. A miss
        parks the port, and a non-coherent ifetch miss queues its memory
        read. True only for a miss the model's fabric must take."""
        port = self.ports[core]
        stats = self._stats.cores[core]
        cache = self.caches[core]
        value = cache.core_access(op)
        miss = cache.miss
        if miss is None:
            stats.hits += 1
            stats.stall_cycles += now - port.issued_at
            if value is not None:
                port.observations.append(value)
            port.current = None
            port.ready_at = ready = now + self.config.latencies.l1_hit
            if ready < self._issue_at:
                self._issue_at = ready
            self._ops_left -= 1
            return False
        stats.misses += 1
        port.miss_start = now
        if miss.kind is READ_NO_SNOOP:
            self.mem_port.read_queue.append(
                (now + self.config.latencies.ccu_stage, miss.address, port)
            )
            return False
        return True

    def _retire_miss(self, core: int, state: LineState, data: Optional[bytes],
                     now: int) -> bool:
        """The one point where a miss performs: fill the core's line with
        `data` in `state` and run its op there (`CacheModel.miss_complete`:
        a store writes its word, a load or ifetch observes one), queue a
        dirty victim for memory, and retire the op, so that the port may
        issue again this cycle. False, with nothing changed, while the
        victim is dirty and the write-back FIFO is full."""
        port = self.ports[core]
        mem_port = self.mem_port
        filled = self.caches[core].miss_complete(state, data, port.current,
                                                 not mem_port.wb_full())
        if filled is None:
            return False
        value, writeback = filled
        stats = self._stats.cores[core]
        if writeback is not None:
            if not mem_port.push_wb(*writeback):
                raise ProtocolFault("write-back refused after feasibility check")
            stats.writebacks += 1
        if value is not None:
            port.observations.append(value)
        self._stats.miss_latency_total += now - port.miss_start
        self._stats.miss_count += 1
        stats.stall_cycles += now - port.issued_at
        port.current = None
        port.ready_at = now
        if now < self._issue_at:
            self._issue_at = now
        self._ops_left -= 1
        return True

    def _complete(self, txn: Transaction, now: int) -> bool:
        """End a transaction at its fill (`_retire_miss`), in the state of
        its completion row (`Tables.completion`: kind, CR aggregate, and
        whether a store follows): its line leaves the Decoder, and a line
        a core supplied counts a snoop-served miss. False, with nothing
        changed, while the fill is refused."""
        core = txn.initiator
        state = self.caches[core].tables.completion[
            txn.kind, txn.any_is_shared, txn.any_pass_dirty,
            int(self.ports[core].current.kind is STORE)]
        if not self._retire_miss(core, state, txn.data, now):
            return False
        self.decoder.release(txn.address)
        if txn.data_source is not None:
            self._stats.cores[core].snoop_served_misses += 1
        return True

    def _apply_nc_fill(self, core: int, now: int) -> None:
        """Fill the core's non-coherent ifetch miss with its memory data."""
        port = self.ports[core]
        self._retire_miss(core, SHARED, port.nc_fill, now)  # an icache fill is never refused
        port.nc_fill = None
        self._progress = True

    def _memory_responses(self, now: int) -> None:
        """Hand each due read's data to its core's port (a non-coherent fill)."""
        for port, _addr, data in self.mem.take_completions(now):
            port.nc_fill = data
        self._progress = True

    # -- monitors / inspection ------------------------------------------------

    def _run_monitors(self) -> None:
        """Check the lines whose view changed this step. A line's check
        reads only its own view, so the others, clean when last checked,
        are still clean."""
        touched = self.touched
        if not touched:
            return
        view = self.snapshot_invariants(touched)
        touched.clear()
        verify = self._verify
        problems = verify.check_swmr(view) + verify.check_value(view)
        if problems:
            raise CoherenceViolation(f"cycle {self.cycle}: " + "; ".join(problems))

    def snapshot_invariants(self, lines=None) -> dict:
        """Coherence view of the line addresses `lines` (by default every
        line with a copy in a cache or in flight, in address order): per
        line, all valid copies plus the memory-side value — the input
        format of verify.check_swmr and check_value. A line's copies come
        per core, data cache first, then the one in flight. Write-backs
        still queued at the memory port are committed writes, so they
        shadow the memory array. Non-coherent instruction caches are
        outside the coherency domain and are not part of the view.

        Dirty responsibility in flight answers for its line like an
        Owned copy of the initiator: a transaction holds it once a
        snoopee handed it over (`any_pass_dirty`), until its completion
        installs. This is the one handoff rule, in both models: a
        data-less handoff (a CleanUnique stripping a dirty holder) leaves
        the initiator's copy as it was, and the transaction answers with
        that copy's data. Without it a line whose dirty holder was already
        snooped looks clean-everywhere but newer than memory.

        Each line costs one dict read per cache in the view and one in
        the Decoder's in-flight table: the copies are read straight from
        each core's line index (`_line_indexes`), and the write-back FIFO
        is copied only while it holds entries. Every address here is a
        line address the caches or the transactions hold, so memory is
        read without `peek`'s checks."""
        in_flight = self.decoder.in_flight
        full = lines is None
        if full:
            lines = {addr for addr, txn in in_flight.items() if txn.any_pass_dirty}
            for cache in self.caches:
                lines.update(addr for addr, _ in cache.valid_lines())
                if cache.coherent_ifetch:
                    lines.update(addr for addr, _ in cache.valid_lines(icache=True))
            lines = sorted(lines)
        wb = self.mem_port.wb
        pending_wb = dict(wb) if wb else {}  # youngest same-line entry wins
        contents, zero = self.mem.contents, bytes(self.mem.line_size)
        copy_view = CopyView
        view: Dict[int, Tuple[list, bytes]] = {}
        for addr in lines:
            copies = []
            for core, index, iindex in self._line_indexes:
                line = index.get(addr)
                if line is not None and line.state is not INVALID:
                    copies.append(copy_view(core, line.state, line.data, False))
                if iindex is not None:
                    line = iindex.get(addr)
                    if line is not None and line.state is not INVALID:
                        copies.append(copy_view(core, line.state, line.data, True))
            txn = in_flight.get(addr)
            if txn is not None and txn.any_pass_dirty:
                data = txn.data
                if data is None:  # no data came: the initiator's copy, if it holds one
                    line = self.caches[txn.initiator].index.get(addr)
                    if line is not None and line.state is not INVALID:
                        data = line.data
                if data is not None:
                    copies.append(copy_view(txn.initiator, OWNED, data, False))
                elif full and not copies:  # the full view lists lines with a copy
                    continue
            view[addr] = (copies, pending_wb[addr] if addr in pending_wb else contents.get(addr, zero))
        return view

    def _dump_state(self) -> str:
        lines = [f"cycle {self.cycle}"]
        for core, port in enumerate(self.ports):
            lines.append(
                f"  core {core}: current={port.current} "
                f"miss={self.caches[core].miss} stream_left={len(port.stream)}"
            )
        # per transaction: id, initiator, kind, line, and whether data is buffered
        d = self.decoder
        txns = [(t.id, t.initiator, t.kind.value, hex(t.address), t.data is not None)
                for t in d.in_flight.values()]
        lines.append(f"  decoder: pending={d.pending} hold={d.hold} txns={txns}")
        lines += self._dump_lines()
        lines.append(
            f"  mem: reads_queued={len(self.mem_port.read_queue)} "
            f"wb={len(self.mem_port.wb)} inflight={len(self.mem.inflight)}"
        )
        return "\n".join(lines)

    # -- time advance ------------------------------------------------------------

    def _next_event(self, now: int) -> float:
        """Earliest cycle from `now` on in which a phase can act, given
        the state at the start of cycle `now` (any state, not only one
        left by an idle step): the write-back FIFO drains whenever it
        holds an entry, else the Decoder may grant now, else the earliest
        head of a timed queue or port is due; infinite when nothing is.

        It returns `now` at the first thing found able to act: most calls
        after an idle step find a head already due, and the minimum is
        needed only when none is. Only a held request needs the Decoder's
        admission test (`can_grant`); with none held or waiting it has
        nothing to grant."""
        decoder = self.decoder
        if self.mem_port.wb:
            return now
        if (decoder.pending or decoder.hold is not None) and decoder.can_grant():
            return now
        t = _NEVER
        for queue in self._timed:
            if queue:
                due = queue[0][0]
                if due <= now:
                    return now
                if due < t:
                    t = due
        for port, cache in zip(self.ports, self.caches):
            if port.current is None:
                if port.stream:
                    ready = port.ready_at
                    if ready <= now:
                        return now
                    if ready < t:
                        t = ready
            elif cache.miss is None or port.nc_fill is not None:
                return now
        return t

    def _skip_idle(self, limit: int) -> None:
        """Jump to the next cycle in which something can act, counting the
        skipped cycles' collision stalls as steps would. Waiting for a
        due queue head is no deadlock: a head due at the watchdog's
        deadline `limit` or later restarts the count from its cycle. With
        nothing due the jump goes to `limit`, where the watchdog trips,
        unless the run has drained."""
        now = self.cycle
        t = self._next_event(now)
        if t <= now:
            return  # something acts now
        if t == _NEVER:
            if not self._ops_left:
                return  # the run has drained
            t = limit
        elif t >= limit:
            self._last_progress = t
        if self.decoder.hold is not None:  # it cannot enter before t
            self.decoder.stalls += t - now
        self.cycle = t

    # -- driving ---------------------------------------------------------------

    def check_streams(self, streams: List[List[CoreOp]]) -> None:
        """Refuse, before cycle 0, per-core op streams this model cannot run."""
        if len(streams) != self.config.n_cores:
            raise ConfigError(
                f"streams: got {len(streams)} streams for {self.config.n_cores} cores"
            )

    def run(self, streams: List[List[CoreOp]], watchdog: int = WATCHDOG_CYCLES) -> SimStats:
        """Feed per-core op streams and advance until everything drains,
        skipping cycles in which nothing can act. Returns `stats`, filled
        in as of the run's end."""
        check_watchdog(watchdog)
        self.check_streams(streams)
        for port, ops in zip(self.ports, streams):
            port.stream.extend(ops)
        self._ops_left = sum(len(p.stream) + (p.current is not None) for p in self.ports)
        self._last_progress = self.cycle
        while self._ops_left or self.mem_port.wb:
            self.step()
            if not self._progress:
                self._skip_idle(self._last_progress + watchdog + 1)
            if self.cycle - self._last_progress > watchdog:
                for port, stats in zip(self.ports, self._stats.cores):
                    if port.current is not None:  # close the open stall intervals
                        stats.stall_cycles += self.cycle - port.issued_at
                raise DeadlockError(
                    f"no forward progress for {watchdog} cycles\n" + self._dump_state()
                )
        for core, cs in enumerate(self._stats.cores):
            if cs.hits + cs.misses != cs.ops:
                raise AssertionError(
                    f"core {core}: hits+misses != ops ({cs.hits}+{cs.misses} != {cs.ops})"
                )
        return self.stats

    def coherent_image(self) -> Dict[int, bytes]:
        """Final memory image with dirty owners overriding memory."""
        image = dict(self.mem.contents)
        for cache in self.caches:
            for addr, line in cache.valid_lines():
                if line.state.is_dirty:
                    image[addr] = line.data
        return image


def build(config: SimConfig, monitor: bool = False) -> "Simulation":
    """Instantiate a simulation: caches empty, cycle 0."""
    return Simulation(config, monitor=monitor)


class Simulation(Kernel):
    """The snoop cluster: the cores' cache controllers and the coherency unit."""

    def __init__(self, config: SimConfig, monitor: bool = False):
        super().__init__(config, monitor)
        lat = config.latencies
        self.ccu = ccu = Ccu(self.caches, self.decoder, self.mem_port,
                             lat.ccu_stage, lat.snoop_hop)
        self._timed = (self.mem_port.read_queue, self.mem.inflight, ccu.cr_inbox,
                       *ccu.r_outbox, *ccu.ac_outbox)
        ccu.touched = self.touched
        self.mem.pass_on = ccu.memory_data
        self._controllers = tuple(
            zip(range(config.n_cores), self.ports, self.caches, ccu.r_outbox, ccu.ac_outbox)
        )

    # -- per-cycle phases ------------------------------------------------------

    def _phases(self, now: int) -> None:
        # a stage is called only while the head of its queue is due
        ccu = self.ccu
        for core, port, cache, rs, acs in self._controllers:
            # each core's SRAM port serves one requester a cycle, in
            # priority order: an R completion (the head of the core's R
            # channel is due), then a non-coherent fill, then a due snoop,
            # then the core's load or store (a core has at most one op
            # pending). A pending ifetch leaves the port idle and runs
            # below. A snoop probes with its transaction's kind and line,
            # and its CR folds into the transaction as it leaves
            # (`Ccu.collect_cr`).
            txn = ccu.take_r(core, now) if rs and rs[0][0] <= now else None
            op = port.current
            if txn is not None and self._complete(txn, now):
                ccu.finish(txn)  # a refused fill leaves the port to the requesters below
            elif port.nc_fill is not None:
                self._apply_nc_fill(core, now)
            elif acs and acs[0][0] <= now:
                _due, snoop, probe_d, probe_i = acs.popleft()
                resp, data = cache.handle_snoop(snoop.kind, snoop.address, probe_d, probe_i)
                ccu.collect_cr(core, snoop, resp, data, now)
            elif op is None or cache.miss is not None:
                continue
            elif op.kind is not IFETCH:
                if self._access(core, op, now):
                    ccu.submit(core, now)
            self._progress = True
            # the icache has its own port: an ifetch runs whatever the
            # data-cache port served
            op = port.current
            if op is not None and cache.miss is None and op.kind is IFETCH:
                if self._access(core, op, now):
                    ccu.submit(core, now)
        decoder = self.decoder
        if decoder.hold is not None or decoder.pending:
            if ccu.decoder_step(now) is not None:
                self._progress = True
        if ccu.cr_inbox and ccu.cr_inbox[0][0] <= now:
            ccu.snoop_unit_step(now)
        mem_port = self.mem_port
        if (mem_port.read_queue or mem_port.wb) and ccu.memory_unit_step(now, self.mem):
            self._progress = True
        inflight = self.mem.inflight
        if inflight and inflight[0][0] <= now:
            self._memory_responses(now)

    # -- monitors / inspection ------------------------------------------------

    def _dump_lines(self) -> List[str]:
        # per transaction: its id and the CRs still to come; per core,
        # (id, arrival) of the R burst on its way
        ccu = self.ccu
        crs = [(t.id, t.cr_pending) for t in self.decoder.in_flight.values()]
        r_out = [[(t.id, due) for due, t in box] for box in ccu.r_outbox]
        return [f"  ccu: cr_pending={crs} ac_out={[len(q) for q in ccu.ac_outbox]} r_out={r_out}"]
