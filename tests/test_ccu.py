from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from culsim import protocol
from culsim.cache import CacheLine, CacheModel, MissStatus
from culsim.ccu import (
    Ccu,
    Decoder,
    ProtocolFault,
    Transaction,
    admits,
    mux_grant,
    snoop_targets,
)
from culsim.memsys import MemoryModel, MemoryPort
from culsim.protocol import CoherentKind, CoreOp, LineState, OpKind, SnoopResponse
from culsim.sim import CoherenceViolation, Latencies, SimConfig, build

RS, RU, CU, RO = (
    CoherentKind.READ_SHARED,
    CoherentKind.READ_UNIQUE,
    CoherentKind.CLEAN_UNIQUE,
    CoherentKind.READ_ONCE,
)


# -- mux ------------------------------------------------------------------------

# mux_grant reads a Decoder's pending table: core -> (arrival, line)

def test_mux_same_cycle_tie_rotates_after_last_granted():
    assert mux_grant({0: (5, 0x40), 1: (5, 0x80)}, last_granted=0, n_cores=2) == 1
    assert mux_grant({0: (5, 0x40), 1: (5, 0x80)}, last_granted=1, n_cores=2) == 0


def test_mux_single_pending():
    assert mux_grant({1: (9, 0x40)}, last_granted=0, n_cores=2) == 1


def test_mux_earliest_arrival_wins():
    assert mux_grant({0: (5, 0x40), 1: (3, 0x80)}, last_granted=1, n_cores=2) == 1


def test_mux_rejects_empty():
    with pytest.raises(ValueError):
        mux_grant({}, 0, 2)


def test_round_robin_fairness_under_continuous_pending():
    n = 4
    pending = {c: (0, 0x40 * c) for c in range(n)}
    counts = [0] * n
    last = n - 1
    for t in range(1000):
        winner = mux_grant(pending, last, n)
        counts[winner] += 1
        last = winner
        pending[winner] = (t + 1, 0x40 * winner)  # re-request immediately
    assert max(counts) - min(counts) <= 1


def test_round_robin_fairness_equal_arrivals():
    n = 3
    counts = [0] * n
    last = n - 1
    for _ in range(1000):
        winner = mux_grant({c: (7, 0x40 * c) for c in range(n)}, last, n)
        counts[winner] += 1
        last = winner
    assert max(counts) - min(counts) <= 1


@st.composite
def pending_tables(draw):
    """A Decoder's drawn pending table (core -> (arrival, line)) over 2-4
    cores, with arrivals close enough to tie, the order the requests were
    submitted in, and any last grant."""
    n_cores = draw(st.integers(2, 4))
    cores = draw(st.lists(st.integers(0, n_cores - 1), min_size=1, unique=True))
    pending = {core: (draw(st.integers(0, 2)), 0x40 * (core + 1)) for core in cores}
    return n_cores, pending, draw(st.integers(0, n_cores - 1))


def decoder_on(n_cores, capacity):
    """A Decoder on the empty caches of `n_cores` cores."""
    return Decoder([CacheModel(core) for core in range(n_cores)], capacity)


def submit(decoder, core, line, now):
    """Park a ReadShared miss on `line` in the core's cache, as its miss
    handler does, and submit its request."""
    decoder.caches[core].miss = MissStatus(line, RS)
    decoder.submit(core, now)


def entered(txn):
    """The (core, line) of the transaction a grant opened, or None."""
    return txn and (txn.initiator, txn.address)


def reference_grant(pending, last_granted, n_cores):
    """Brute force: among the earliest arrivals, the core first after
    last_granted in round-robin order."""
    earliest = min(arrival for arrival, _line in pending.values())
    tied = [core for core, (arrival, _line) in pending.items() if arrival == earliest]
    return min(tied, key=lambda core: (core - last_granted - 1) % n_cores)


@given(pending_tables())
def test_mux_grant_and_decoder_grant_pick_the_reference_winner(table):
    n_cores, pending, last_granted = table
    winner = reference_grant(pending, last_granted, n_cores)
    assert mux_grant(pending, last_granted, n_cores) == winner
    # the Decoder grants the same request, one alone included
    decoder = decoder_on(n_cores, capacity=n_cores)
    decoder.last_granted = last_granted
    for core, (arrival, line) in pending.items():
        submit(decoder, core, line, arrival)
    assert entered(decoder.grant()) == (winner, pending[winner][1])
    assert decoder.last_granted == winner
    assert sorted(decoder.pending) == sorted(set(pending) - {winner})


# -- decoder and collision rule --------------------------------------------------------

def test_admits_only_a_free_line_while_the_table_has_room():
    assert admits(False, 0, 1)
    assert not admits(True, 1, 8)  # same line in flight
    assert not admits(False, 2, 2)  # table full


def test_collision_empty_proceeds_and_inserts():
    decoder = decoder_on(2, capacity=8)
    submit(decoder, 0, 0x40, now=0)
    txn = decoder.grant()
    assert txn == Transaction(0, 0, RS, 0x40)  # read off the core's miss
    assert decoder.in_flight == {0x40: txn}
    assert not decoder.pending and decoder.hold is None


def test_collision_same_line_stalls():
    decoder = decoder_on(2, capacity=8)
    submit(decoder, 0, 0x40, now=0)
    decoder.grant()
    submit(decoder, 1, 0x40, now=1)
    assert decoder.grant() is None
    assert decoder.hold == (1, 0x40) and decoder.stalls == 1
    decoder.release(0x40)
    assert entered(decoder.grant()) == (1, 0x40)


def test_collision_distinct_lines_proceed():
    # each grant is numbered in order, and its transaction held under its line
    decoder = decoder_on(2, capacity=8)
    submit(decoder, 0, 0x40, now=0)
    submit(decoder, 1, 0x50, now=0)
    first, second = decoder.grant(), decoder.grant()
    assert [(t.id, t.initiator, t.address) for t in (first, second)] == [
        (0, 0, 0x40), (1, 1, 0x50)]
    assert decoder.in_flight == {0x40: first, 0x50: second}
    decoder.release(0x40)
    submit(decoder, 0, 0x40, now=1)
    third = decoder.grant()
    assert (third.id, third.initiator, third.address) == (2, 0, 0x40)
    assert list(decoder.in_flight) == [0x50, 0x40]  # in grant order


def test_collision_full_table_stalls():
    decoder = decoder_on(3, capacity=2)
    for core, line in enumerate((0x00, 0x10, 0x20)):
        submit(decoder, core, line, now=0)
    assert decoder.grant() and decoder.grant()
    assert decoder.grant() is None
    decoder.release(0x00)
    assert entered(decoder.grant()) == (2, 0x20)


def test_a_lone_request_is_granted_and_rotates_the_tie_break():
    decoder = decoder_on(3, capacity=8)
    submit(decoder, 1, 0x40, now=0)
    assert entered(decoder.grant()) == (1, 0x40)
    # core 1 was granted last, so a same-cycle tie goes to core 2 first
    submit(decoder, 0, 0x80, now=1)
    submit(decoder, 2, 0xC0, now=1)
    assert decoder.grant().initiator == 2


def test_decoder_refuses_a_second_request_from_one_core():
    decoder = decoder_on(2, capacity=8)
    submit(decoder, 0, 0x40, now=0)
    with pytest.raises(ProtocolFault, match="pending"):
        submit(decoder, 0, 0x80, now=1)


# -- snoop fan-out ----------------------------------------------------------------------

def test_dual_core_fanout_excludes_initiator():
    assert snoop_targets(0, n_cores=2, coherent_ifetch=False) == ((1, True, False),)


def test_quad_core_fanout():
    fanout = snoop_targets(2, n_cores=4, coherent_ifetch=False)
    assert [c for c, _pd, _pi in fanout] == [0, 1, 3]


def test_coherent_ifetch_probes_sibling_icache():
    fanout = snoop_targets(0, n_cores=2, coherent_ifetch=True)
    assert fanout == ((0, False, True), (1, True, True))


def test_read_once_probes_own_dcache():
    fanout = snoop_targets(1, n_cores=2, coherent_ifetch=True, from_icache=True)
    assert fanout == ((0, True, True), (1, True, False))


# -- engine-level behavior -----------------------------------------------------------------

def make_ccu(n_cores=2, coherent_ifetch=False, wb_depth=4, collision_capacity=8):
    caches = [CacheModel(core, coherent_ifetch=coherent_ifetch) for core in range(n_cores)]
    return Ccu(caches, Decoder(caches, collision_capacity), MemoryPort(wb_depth))


def request(ccu, core, kind, line, now):
    """Park a miss of `kind` on `line` in the core's cache, as its miss
    handler does, and submit its request."""
    ccu.decoder.caches[core].miss = MissStatus(line, kind)
    ccu.submit(core, now)


def upgrade(ccu, core, line, now):
    """The core holds `line` Shared, and a store to it submits a CleanUnique."""
    cache = ccu.decoder.caches[core]
    cache._install(line, LineState.SHARED, bytes(16), icache=False)
    assert cache.core_access(CoreOp(OpKind.STORE, line, value=1)) is None
    assert cache.miss.kind is CU
    ccu.submit(core, now)


def test_decoder_pipelines_distinct_lines():
    ccu = make_ccu()
    request(ccu, 0, RS, 0x40, now=0)
    request(ccu, 1, RS, 0x80, now=0)
    t0 = ccu.decoder_step(0)
    t1 = ccu.decoder_step(1)
    assert t0 is not None and t1 is not None
    assert list(ccu.decoder.in_flight.values()) == [t0, t1]  # both in flight simultaneously


def test_decoder_serializes_same_line():
    ccu = make_ccu(n_cores=3)
    request(ccu, 0, RS, 0x40, now=0)
    request(ccu, 1, RU, 0x40, now=0)
    first = ccu.decoder_step(0)
    assert first is not None
    assert ccu.decoder_step(1) is None  # collision holds the second
    assert ccu.decoder.stalls >= 1
    ccu.decoder.release(first.address)  # its fill ends it
    assert ccu.decoder_step(2) is not None


def test_capacity_one_admits_one_transaction_at_a_time():
    ccu = make_ccu(collision_capacity=1)
    request(ccu, 0, RS, 0x40, now=0)
    request(ccu, 1, RS, 0x80, now=0)
    first = ccu.decoder_step(0)
    assert first is not None
    assert ccu.decoder_step(1) is None
    ccu.decoder.release(first.address)  # its fill ends it
    assert ccu.decoder_step(2) is not None


def test_collect_cr_first_responder_supplies_data():
    ccu = make_ccu(n_cores=3)
    request(ccu, 0, RS, 0x40, now=0)
    txn = ccu.decoder_step(0)
    line_a, line_b = bytes([1]) * 16, bytes([2]) * 16
    ccu.collect_cr(1, txn, SnoopResponse(data_transfer=1, is_shared=1), line_a, now=3)
    ccu.collect_cr(2, txn, SnoopResponse(data_transfer=1, is_shared=1), line_b, now=3)
    assert txn.data == line_a
    assert txn.data_source == 1
    assert txn.any_is_shared == 1 and txn.any_pass_dirty == 0


def test_collect_cr_aggregates_with_or_semantics():
    ccu = make_ccu(n_cores=3)
    request(ccu, 0, RU, 0x40, now=0)
    txn = ccu.decoder_step(0)
    ccu.collect_cr(1, txn, SnoopResponse(), None, now=3)
    assert txn.cr_pending == 1 and not ccu.cr_inbox
    ccu.collect_cr(2, txn, SnoopResponse(data_transfer=1, pass_dirty=1), bytes(16), now=4)
    assert txn.any_pass_dirty == 1
    assert txn.cr_pending == 0
    # the last CR brought the data: the transaction is on the R channel
    # a hop and a completion stage later, and skips the snoop unit
    assert list(ccu.r_outbox[0]) == [(4 + ccu.snoop_hop + ccu.ccu_stage, txn)]
    assert not ccu.cr_inbox


def test_collect_cr_all_deny_leaves_no_source():
    ccu = make_ccu(n_cores=3)
    request(ccu, 0, RS, 0x40, now=0)
    txn = ccu.decoder_step(0)
    ccu.collect_cr(1, txn, SnoopResponse(), None, now=3)
    ccu.collect_cr(2, txn, SnoopResponse(), None, now=3)
    assert txn.data_source is None and txn.data is None
    # with no data for a data kind, the last CR sends the transaction to
    # the snoop unit, a hop later, to read memory
    assert list(ccu.cr_inbox) == [(3 + ccu.snoop_hop, txn)] and not any(ccu.r_outbox)


def test_transactions_ready_in_one_cycle_move_on_in_id_order():
    ccu = make_ccu()
    request(ccu, 0, RS, 0x40, now=0)
    request(ccu, 1, RS, 0x80, now=0)
    first, second = ccu.decoder_step(0), ccu.decoder_step(1)
    assert (first.id, second.id) == (0, 1)
    # each has one CR to come, and in cycle 4 core 0 answers the second
    # one before core 1 answers the first
    ccu.collect_cr(0, second, SnoopResponse(), None, now=4)
    ccu.collect_cr(1, first, SnoopResponse(), None, now=4)
    ccu.snoop_unit_step(4)  # neither has reached the snoop unit yet
    assert ccu.cr_inbox and not ccu.mem_port.read_queue
    ccu.snoop_unit_step(5)  # both move on in this cycle
    assert not ccu.cr_inbox
    assert [(due, tag) for due, _, tag in ccu.mem_port.read_queue] == [(5, first), (5, second)]
    # the reads issue in reverse, both with data due in cycle 29
    assert ccu.memory_data(second, bytes([1]) * 16, 29)
    assert ccu.memory_data(first, bytes([2]) * 16, 29)
    # each is on its R channel as the completion stage would send it on,
    # in the cycle after its data is due
    assert [list(box) for box in ccu.r_outbox] == [[(31, first)], [(31, second)]]
    assert ccu.take_r(0, 31) is first and ccu.take_r(1, 31) is second
    assert first.data == bytes([2]) * 16


@pytest.mark.parametrize("hop", [1, 3])
def test_a_cr_folds_as_its_snoop_is_served_and_completes_a_hop_later(hop):
    # core 1 holds the line Modified; core 0's load snoops it, and the CR
    # is in the transaction in the cycle core 1 serves the snoop
    stage = 2
    sim = build(SimConfig(latencies=Latencies(snoop_hop=hop, ccu_stage=stage)))
    sim.run([[], [CoreOp(OpKind.STORE, 0x40, value=7)]])
    ccu, owner = sim.ccu, sim.caches[1]
    served, folded, completed, filled = [], [], [], []
    handle_snoop, collect_cr = owner.handle_snoop, ccu.collect_cr
    completion_step, complete = ccu.completion_step, sim._complete

    def snoop(*args):
        served.append(sim.cycle)
        return handle_snoop(*args)

    def collect(from_core, txn, resp, data, now):
        collect_cr(from_core, txn, resp, data, now)
        folded.append((now, from_core, txn.data_source, txn.cr_pending, list(ccu.r_outbox[0])))

    def completion(now, ready):
        completed.append((now, ready))
        completion_step(now, ready)

    def fill(txn, now):
        filled.append(now)
        return complete(txn, now)

    owner.handle_snoop, ccu.collect_cr, ccu.completion_step = snoop, collect, completion
    sim._complete = fill
    sim.run([[CoreOp(OpKind.LOAD, 0x40)], []])
    [at] = served
    [(now, core, source, pending, r_channel)] = folded
    [(due, txn)] = r_channel
    # the CR reaches the snoop unit a hop later, and the transaction, which
    # holds the line, is at the initiator a completion stage after that:
    # it needs no memory read, so the completion stage does not run
    assert (now, core, source, pending, due) == (at, 1, 1, 0, at + hop + stage)
    assert completed == [] and filled == [due]
    assert txn.data == owner.lookup(0x40).data


def test_writeback_fifo_drains_in_order():
    ccu = make_ccu()
    mem = MemoryModel(16, 1)
    a, b = bytes([3]) * 16, bytes([4]) * 16
    assert ccu.mem_port.push_wb(0x40, a)
    assert ccu.mem_port.push_wb(0x80, b)
    ccu.memory_unit_step(0, mem)
    assert mem.contents.get(0x40) == a and 0x80 not in mem.contents
    ccu.memory_unit_step(1, mem)
    assert mem.contents.get(0x80) == b


def test_writeback_fifo_backpressures_when_full():
    ccu = make_ccu(wb_depth=1)
    assert ccu.mem_port.push_wb(0x40, bytes(16))
    assert not ccu.mem_port.push_wb(0x80, bytes(16))  # caller must stall


def test_memory_reads_wait_for_same_line_writeback():
    ccu = make_ccu()
    mem = MemoryModel(16, 1)
    ccu.mem_port.push_wb(0x40, bytes([9]) * 16)
    ccu.mem_port.read_queue.append((1, 0x40, 0))
    ccu.memory_unit_step(5, mem)
    assert mem.reads == 0 and mem.writes == 1  # drain first
    ccu.memory_unit_step(6, mem)
    assert mem.reads == 1
    _, _, data = mem.take_completions(10)[0]
    assert data == bytes([9]) * 16


def test_submit_sends_snooping_kinds_to_the_decoder():
    for kind in (RS, RU, CU, RO):
        ccu = make_ccu()
        request(ccu, 1, kind, 0x40, now=3)
        assert ccu.decoder.pending == {1: (3, 0x40)}
        assert not ccu.mem_port.read_queue


@pytest.mark.parametrize("kind", [CoherentKind.READ_NO_SNOOP])
def test_submit_refuses_kinds_no_cache_sends(kind):
    # write-backs go through mem_port.push_wb and a non-coherent ifetch
    # fill straight to the memory port (sim.Kernel), never through submit;
    # the Decoder's grant is the one point that refuses such a request
    ccu = make_ccu()
    request(ccu, 0, kind, 0x40, now=0)
    with pytest.raises(ProtocolFault, match=f"core 0: unexpected {kind.value} request"):
        ccu.decoder_step(0)
    assert not ccu.decoder.in_flight and not any(ccu.ac_outbox)
    assert not ccu.mem_port.read_queue


# -- the entry rule: a request is read off its miss as it enters ------------------------

def test_a_queued_clean_unique_that_lost_its_copy_enters_as_read_unique():
    ccu = make_ccu()
    upgrade(ccu, 0, 0x40, now=0)
    ccu.decoder.caches[0].handle_snoop(RU, 0x40)  # another core's snoop takes the copy
    txn = ccu.decoder_step(1)
    assert txn.kind is RU and ccu.decoder.caches[0].miss.kind is RU
    # its snoops go out as ReadUnique too
    assert [entry[1].kind for entry in ccu.ac_outbox[1]] == [RU]


def test_a_held_clean_unique_that_lost_its_copy_enters_as_read_unique():
    ccu = make_ccu()
    request(ccu, 0, RU, 0x40, now=0)
    first = ccu.decoder_step(0)
    upgrade(ccu, 1, 0x40, now=0)
    assert ccu.decoder_step(1) is None and ccu.decoder.hold == (1, 0x40)
    _due, txn, probe_d, probe_i = ccu.ac_outbox[1].popleft()
    # core 0's ReadUnique takes the copy
    ccu.decoder.caches[1].handle_snoop(txn.kind, txn.address, probe_d, probe_i)
    ccu.decoder.release(first.address)  # its fill ends it
    assert ccu.decoder_step(2).kind is RU


def test_a_request_entering_as_a_non_snooping_kind_is_refused_before_its_snoops():
    ccu = make_ccu()
    upgrade(ccu, 0, 0x40, now=0)
    ccu.decoder.caches[0].handle_snoop(RU, 0x40)  # the CleanUnique loses its copy
    cache = ccu.decoder.caches[0]
    cache.tables = replace(cache.tables, reissue={**cache.tables.reissue,
                                                  CU: CoherentKind.READ_NO_SNOOP})
    with pytest.raises(ProtocolFault, match="core 0: unexpected ReadNoSnoop request"):
        ccu.decoder_step(1)
    assert not any(ccu.ac_outbox) and not ccu.decoder.in_flight


def test_per_event_records_are_slotted():
    records = (
        Transaction(0, 0, RS, 0x40),
        MissStatus(0x40, RS),
        CacheLine(),
    )
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_a_clean_unique_that_keeps_its_copy_enters_unchanged():
    ccu = make_ccu()
    upgrade(ccu, 0, 0x40, now=0)
    ccu.decoder.caches[0].handle_snoop(RS, 0x40)  # a read leaves the copy Shared
    assert ccu.decoder_step(1).kind is CU


def test_without_the_reissue_row_a_clean_unique_that_lost_its_copy_stays_one(monkeypatch):
    monkeypatch.setattr(protocol, "TABLES", protocol.TABLES.mutated({"reissue:disabled"}))
    ccu = make_ccu()
    upgrade(ccu, 0, 0x40, now=0)
    ccu.decoder.caches[0].handle_snoop(RU, 0x40)
    assert ccu.decoder_step(1).kind is CU
    # in a run, both cores read one line and then upgrade it: the later
    # CleanUnique loses its copy to the earlier one, enters unchanged and
    # completes with nothing to upgrade
    load, store = CoreOp(OpKind.LOAD, 0x40), CoreOp(OpKind.STORE, 0x40, value=1)
    streams = [[load, load, store], [load, store]]
    with pytest.raises(CoherenceViolation, match="CleanUnique completion without a local copy"):
        build(SimConfig()).run(streams)
