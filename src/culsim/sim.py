"""Cycle-driven simulation kernel.

Instantiates N cores' caches, the coherency unit and the backing store
from a SimConfig, advances everything cycle by cycle and collects
SimStats. Runs are bit-for-bit deterministic for equal (config, streams).
`Kernel` is the part the directory baseline shares: op issue and
accounting, the run loop and watchdog, monitors and the final image.

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

A model declares itself through the hooks `Kernel` lists: `_phases`,
`_memory_data`, `_timed`, `_in_flight_copies`, `_dump_lines`, `mem_port`
and `decoder`. From `_timed` and the Decoder the kernel derives the next
due cycle.

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

from .cache import (
    CacheModel,
    ConfigError,
    LostCopy,
    Served,
    word_at,
)
from .ccu import Ccu, Decoder, ProtocolFault
from .memsys import MemoryModel, MemoryPort
from .protocol import IFETCH, INVALID, LOAD, OWNED, READ_NO_SNOOP, SHARED, STORE, CoreOp
from . import verify


# cycles without progress, with nothing due, after which `Kernel.run`
# reports a deadlock
WATCHDOG_CYCLES = 10000

_NEVER = float("inf")


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
    ops: int = 0
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

    def to_dict(self) -> dict:
        return vars(self).copy()


def _format_fraction(value: Optional[Fraction]) -> Optional[str]:
    """Two decimals, exactly rounded; None (JSON null) stays None."""
    if value is None:
        return None
    cents = round(value * 100)
    return f"{cents // 100}.{cents % 100:02d}"


@dataclass
class SimStats:
    cycles: int = 0
    mem_reads: int = 0
    mem_writes: int = 0
    ccu_collision_stalls: int = 0
    cache_to_cache_transfers: int = 0
    miss_latency_total: int = 0
    miss_count: int = 0
    cores: List[CoreStats] = field(default_factory=list)

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
    issue, `_apply_nc_fill` and `_memory_responses` included), the data
    of its memory reads as `_memory_data`, dirty data outside the caches
    as `_in_flight_copies` and its own state as `_dump_lines`. It sets
    `mem_port` to the MemoryPort in front of `mem` and `decoder` to its
    request Decoder, and declares its time: `_timed` holds, once and for
    good, every queue of its fabric whose entries start with their due
    cycle (none is ever rebound); besides those, only the Decoder and the
    write-back FIFO may act with no due head. With monitors on, its
    components share the kernel's `touched` set, and the model marks
    there every line whose view it changes without a component's help.

    A step pays only for the work due in it: `_phases` calls a stage only
    when its queue head is due, and `_issue` runs only from `_issue_at`
    on, the first cycle in which a free port may take an op. `run` counts
    the ops left (`_ops_left`); the retire points, the `Served` branch of
    `_access` and `_retire_miss`, decrement it and lower `_issue_at`."""

    mem_port: MemoryPort
    decoder: Decoder
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
        self.stats = SimStats(cores=[CoreStats() for _ in range(config.n_cores)])
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
        # (core, line index, coherent icache's line index or None) per
        # core: what `snapshot_invariants` reads a line's copies from
        self._line_indexes = tuple(
            (cache.core_id, cache.index, cache.iindex if cache.coherent_ifetch else None)
            for cache in self.caches
        )

    def _in_flight_copies(self, lines=None) -> Dict[int, List[verify.CopyView]]:
        """Copies of lines held outside the caches, by line address; only
        those of `lines` are needed, unless it is None."""
        return {}

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
        self.stats.cycles = self.cycle
        self.stats.mem_reads = self.mem.reads
        self.stats.mem_writes = self.mem.writes

    def _issue(self, now: int) -> None:
        """Hand each free port its next op, and set `_issue_at` to the
        earliest `ready_at` of a port still free, or to the next cycle
        while a free port's stream is empty (ops may be appended to it
        between steps). A port that took an op lowers it at its retire."""
        issue_at = _NEVER
        for port, stats in zip(self.ports, self.stats.cores):
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
                stats.ops += 1
                if op.kind is LOAD:
                    stats.loads += 1
                elif op.kind is STORE:
                    stats.stores += 1
                else:
                    stats.ifetches += 1
                self._progress = True
        self._issue_at = issue_at

    def _access(self, core: int, op: CoreOp, now: int):
        """Run op against the core's cache. A hit retires the op and returns
        None; a miss parks the port and returns the cache's miss result,
        but a non-coherent ifetch queues its memory read and returns None."""
        port = self.ports[core]
        stats = self.stats.cores[core]
        result = self.caches[core].core_access(op)
        if isinstance(result, Served):
            stats.hits += 1
            stats.stall_cycles += now - port.issued_at
            if result.value is not None:
                port.observations.append(result.value)
            port.current = None
            port.ready_at = ready = now + self.config.latencies.l1_hit
            if ready < self._issue_at:
                self._issue_at = ready
            self._ops_left -= 1
            return None
        stats.misses += 1
        port.miss_start = now
        if result.kind is READ_NO_SNOOP:
            self.mem_port.read_queue.append(
                (now + self.config.latencies.ccu_stage, self.caches[core].miss.address, port)
            )
            return None
        return result

    def _victim_fits(self, cache: CacheModel) -> bool:
        """A dirty victim may evict only while the write-back FIFO has room."""
        victim = cache.needs_eviction()
        return victim is None or not victim.state.is_dirty or not self.mem_port.wb_full()

    def _retire_miss(self, core: int, now: int) -> None:
        """The core's miss has filled: a store writes its word into the
        new line, a load or ifetch observes one, and the port may issue
        again this cycle."""
        port = self.ports[core]
        cache = self.caches[core]
        op = port.current
        if op.kind is STORE:
            cache.write_word(op.address, op.value)
        else:
            hit = cache.lookup(op.address, icache=op.kind is IFETCH)
            port.observations.append(word_at(hit[1].data, op.address % self.config.line_size))
        self.stats.miss_latency_total += now - port.miss_start
        self.stats.miss_count += 1
        self.stats.cores[core].stall_cycles += now - port.issued_at
        port.current = None
        port.ready_at = now
        if now < self._issue_at:
            self._issue_at = now
        self._ops_left -= 1

    def _apply_nc_fill(self, core: int, now: int) -> None:
        """Install the memory data of the core's non-coherent ifetch miss."""
        port = self.ports[core]
        self.caches[core].miss_complete(SHARED, port.nc_fill)
        port.nc_fill = None
        self._retire_miss(core, now)
        self._progress = True

    def _memory_responses(self, now: int) -> None:
        """Hand a due read's data to its core's port (a non-coherent fill) or the model."""
        for tag, _addr, data in self.mem.take_completions(now):
            if isinstance(tag, _Port):
                tag.nc_fill = data
            else:
                self._memory_data(tag, data, now)
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
        problems = verify.check_swmr(view) + verify.check_value(view)
        if problems:
            raise CoherenceViolation(f"cycle {self.cycle}: " + "; ".join(problems))

    def snapshot_invariants(self, lines=None) -> dict:
        """Coherence view of the line addresses `lines` (by default every
        line with a copy in a cache or in flight, in address order): per
        line, all valid copies plus the memory-side value — the input
        format of verify.check_swmr and check_value. A line's copies come
        per core, data cache first, then those in flight. Write-backs
        still queued at the memory port are committed writes, so they
        shadow the memory array. Non-coherent instruction caches are
        outside the coherency domain and are not part of the view.

        Each line costs one dict read per cache in the view: the copies
        are read straight from each core's line index (`_line_indexes`),
        and the write-back FIFO is copied only while it holds entries.
        Every address here is a line address the caches or the
        transactions hold, so memory is read without `peek`'s checks."""
        in_flight = self._in_flight_copies(lines)
        if lines is None:
            lines = set(in_flight)
            for cache in self.caches:
                lines.update(addr for addr, _ in cache.valid_lines())
                if cache.coherent_ifetch:
                    lines.update(addr for addr, _ in cache.valid_lines(icache=True))
            lines = sorted(lines)
        wb = self.mem_port.wb
        pending_wb = dict(wb) if wb else {}  # youngest same-line entry wins
        contents, zero = self.mem.contents, bytes(self.mem.line_size)
        copy_view = verify.CopyView
        view: Dict[int, Tuple[list, bytes]] = {}
        for addr in lines:
            copies = []
            for core, index, iindex in self._line_indexes:
                hit = index.get(addr)
                if hit is not None:
                    line = hit[1]
                    if line.state is not INVALID:
                        copies.append(copy_view(core, line.state, line.data, False))
                if iindex is not None:
                    hit = iindex.get(addr)
                    if hit is not None:
                        line = hit[1]
                        if line.state is not INVALID:
                            copies.append(copy_view(core, line.state, line.data, True))
            if addr in in_flight:
                copies += in_flight[addr]
            view[addr] = (copies, pending_wb[addr] if addr in pending_wb else contents.get(addr, zero))
        return view

    def _dump_state(self) -> str:
        lines = [f"cycle {self.cycle}"]
        for core, port in enumerate(self.ports):
            lines.append(
                f"  core {core}: current={port.current} "
                f"miss={self.caches[core].miss} stream_left={len(port.stream)}"
            )
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
        head of a timed queue or port is due; infinite when nothing is."""
        if self.mem_port.wb or self.decoder.can_grant():
            return now
        t = _NEVER
        for queue in self._timed:
            if queue and queue[0][0] < t:
                t = queue[0][0]
        for port, cache in zip(self.ports, self.caches):
            if port.current is None:
                if port.stream and port.ready_at < t:
                    t = port.ready_at
            elif cache.miss is None or port.nc_fill is not None:
                return now
        return t if t > now else now

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
            self.stats.ccu_collision_stalls = self.decoder.stalls
        self.cycle = self.stats.cycles = t

    # -- driving ---------------------------------------------------------------

    def check_streams(self, streams: List[List[CoreOp]]) -> None:
        """Refuse, before cycle 0, per-core op streams this model cannot run."""
        if len(streams) != self.config.n_cores:
            raise ConfigError(
                f"streams: got {len(streams)} streams for {self.config.n_cores} cores"
            )

    def run(self, streams: List[List[CoreOp]], watchdog: int = WATCHDOG_CYCLES) -> SimStats:
        """Feed per-core op streams and advance until everything drains,
        skipping cycles in which nothing can act."""
        if watchdog < 1:
            raise ConfigError(f"watchdog: {watchdog} must be >= 1")
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
                for port, stats in zip(self.ports, self.stats.cores):
                    if port.current is not None:  # close the open stall intervals
                        stats.stall_cycles += self.cycle - port.issued_at
                raise DeadlockError(
                    f"no forward progress for {watchdog} cycles\n" + self._dump_state()
                )
        for core, cs in enumerate(self.stats.cores):
            expected = cs.loads + cs.stores + cs.ifetches
            if cs.hits + cs.misses != expected:
                raise AssertionError(
                    f"core {core}: hits+misses != ops ({cs.hits}+{cs.misses} != {expected})"
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
        self.ccu = Ccu(
            self.caches,
            ccu_stage=lat.ccu_stage,
            snoop_hop=lat.snoop_hop,
            wb_depth=config.fifo_depths.writeback,
            collision_capacity=config.fifo_depths.collision_capacity,
        )
        ccu = self.ccu
        self.mem_port = ccu.mem_port
        self.decoder = ccu.decoder
        self._timed = (self.mem_port.read_queue, self.mem.inflight, ccu.cr_inbox,
                       *ccu.r_outbox, *ccu.ac_outbox)
        ccu.touched = self.mem_port.touched = self.touched
        self._controllers = tuple(
            zip(range(config.n_cores), self.ports, self.caches, ccu.r_outbox, ccu.ac_outbox)
        )

    # -- per-cycle phases ------------------------------------------------------

    def _phases(self, now: int) -> None:
        # a stage is called only while the head of its queue is due
        ccu = self.ccu
        for core, port, cache, rs, acs in self._controllers:
            if (
                port.current is not None and cache.miss is None
                or port.nc_fill is not None
                or rs and rs[0][0] <= now
                or acs and acs[0][0] <= now
            ):
                self._cache_controllers(core, port, cache, acs, now)
        decoder = self.decoder
        if decoder.hold is not None or decoder.pending:
            if ccu.decoder_step(now) is not None:
                self._progress = True
            self.stats.ccu_collision_stalls = decoder.stalls
        if ccu.cr_inbox and ccu.cr_inbox[0][0] <= now:
            ccu.snoop_unit_step(now)
        if ccu.ready:
            ccu.completion_step(now)
            self.stats.cache_to_cache_transfers = ccu.c2c_transfers
        mem_port = self.mem_port
        if (mem_port.read_queue or mem_port.wb) and ccu.memory_unit_step(now, self.mem):
            self._progress = True
        inflight = self.mem.inflight
        if inflight and inflight[0][0] <= now:
            self._memory_responses(now)

    def _cache_controllers(self, core: int, port: _Port, cache: CacheModel, acs,
                           now: int) -> None:
        # the SRAM port serves one requester a cycle, in priority order:
        # an R completion, then a non-coherent fill, then a due snoop,
        # then the core's load or store (a core has at most one op
        # pending). A pending ifetch leaves the port idle and runs below.
        txn = self.ccu.take_r(core, now)
        op = port.current
        if txn is not None and self._victim_fits(cache):
            self._apply_completion(core, txn, now)
        elif port.nc_fill is not None:
            self._apply_nc_fill(core, now)
        elif acs and acs[0][0] <= now:
            self._process_snoop(core, now)
        elif op is None or cache.miss is not None:
            return
        elif op.kind is not IFETCH:
            self._execute_op(core, op, now)
        self._progress = True

        # The icache has its own port: ifetches run regardless of the
        # data-cache arbitration outcome.
        op = port.current
        if op is not None and cache.miss is None and op.kind is IFETCH:
            self._execute_op(core, op, now)

    def _execute_op(self, core: int, op: CoreOp, now: int) -> None:
        if self._access(core, op, now) is not None:
            self.ccu.submit(core, now)

    def _process_snoop(self, core: int, now: int) -> None:
        _due, txn, req, probe_d, probe_i = self.ccu.ac_outbox[core].popleft()
        resp, data = self.caches[core].handle_snoop(req, probe_dcache=probe_d,
                                                    probe_icache=probe_i)
        self.ccu.cr_inbox.append((now + self.config.latencies.snoop_hop, core, txn, resp, data))
        if resp.pass_dirty and data is None:
            # data-less dirty handoff (CleanUnique stripping a dirty
            # holder): responsibility lands on the initiator's copy now,
            # so no cycle ever shows the line clean-everywhere but stale
            self.caches[txn.initiator].take_dirty_responsibility(req.address)

    def _apply_completion(self, core: int, txn, now: int) -> None:
        cache = self.caches[core]
        op = self.ports[core].current
        stats = self.stats.cores[core]
        store_follows = int(op.kind is STORE)
        resp_state = cache.tables.completion[
            txn.kind, txn.any_is_shared, txn.any_pass_dirty, store_follows
        ]
        result = cache.miss_complete(resp_state, txn.data)
        self.ccu.finish(txn)
        if result.writeback is not None:
            if not self.mem_port.push_wb(*result.writeback):
                raise ProtocolFault("write-back refused after feasibility check")
            stats.writebacks += 1
        if txn.data_source is not None:
            stats.snoop_served_misses += 1
        self._retire_miss(core, now)

    def _memory_data(self, txn, data: bytes, now: int) -> None:
        self.ccu.memory_data(txn, data, now)

    # -- monitors / inspection ------------------------------------------------

    def _run_monitors(self) -> None:
        txns = self.ccu.txns
        if len(txns) > 1:
            addresses = [t.address for t in txns.values()]
            if len(addresses) != len(set(addresses)):
                raise CoherenceViolation(
                    f"cycle {self.cycle}: two in-flight transactions share a line"
                )
        super()._run_monitors()

    def _in_flight_copies(self, lines=None) -> Dict[int, List[verify.CopyView]]:
        # Dirty data in flight answers for its line like an Owned copy:
        # CD data queued with pass_dirty, and a transaction's buffered
        # data once a snoopee handed dirty responsibility over. Without them a line whose dirty holder was
        # already snooped looks clean-everywhere but newer than memory.
        ccu = self.ccu
        copies: Dict[int, List[verify.CopyView]] = {}
        # every CR and buffered line belongs to a transaction, whose line
        # the Decoder holds in flight until the transaction finishes
        in_flight = ccu.decoder.in_flight
        if not in_flight or lines is not None and in_flight.isdisjoint(lines):
            return copies
        for _due, core, txn, resp, data in ccu.cr_inbox:
            if resp.pass_dirty and data is not None:
                copies.setdefault(txn.address, []).append(
                    verify.CopyView(core, OWNED, data, False)
                )
        for txn in ccu.txns.values():
            if txn.any_pass_dirty and txn.data is not None:
                copies.setdefault(txn.address, []).append(
                    verify.CopyView(txn.initiator, OWNED, txn.data, False)
                )
        return copies

    def _dump_lines(self) -> List[str]:
        ccu = self.ccu
        txns = [(t.id, t.kind.value, hex(t.address), t.phase.name) for t in ccu.txns.values()]
        d = ccu.decoder
        return [
            f"  ccu: pending={d.pending} hold={d.hold} txns={txns} "
            f"in_flight={sorted(d.in_flight)} ac_out={[len(q) for q in ccu.ac_outbox]}"
        ]
