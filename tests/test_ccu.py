import pytest

from culsim import protocol
from culsim.cache import CacheModel, MissStatus, NeedsMiss
from culsim.ccu import (
    Ccu,
    Decoder,
    Phase,
    ProtocolFault,
    admits,
    mux_grant,
    snoop_targets,
)
from culsim.memsys import MemoryModel
from culsim.protocol import CoherentKind, CoreOp, LineState, OpKind, SnoopRequest, SnoopResponse
from culsim.sim import CoherenceViolation, SimConfig, build

RS, RU, CU, RO = (
    CoherentKind.READ_SHARED,
    CoherentKind.READ_UNIQUE,
    CoherentKind.CLEAN_UNIQUE,
    CoherentKind.READ_ONCE,
)


# -- mux ------------------------------------------------------------------------

def test_mux_same_cycle_tie_rotates_after_last_granted():
    assert mux_grant({0: 5, 1: 5}, last_granted=0, n_cores=2) == 1
    assert mux_grant({0: 5, 1: 5}, last_granted=1, n_cores=2) == 0


def test_mux_single_pending():
    assert mux_grant({1: 9}, last_granted=0, n_cores=2) == 1


def test_mux_earliest_arrival_wins():
    assert mux_grant({0: 5, 1: 3}, last_granted=1, n_cores=2) == 1


def test_mux_rejects_empty():
    with pytest.raises(ValueError):
        mux_grant({}, 0, 2)


def test_round_robin_fairness_under_continuous_pending():
    n = 4
    arrivals = {c: 0 for c in range(n)}
    counts = [0] * n
    last = n - 1
    for t in range(1000):
        winner = mux_grant(arrivals, last, n)
        counts[winner] += 1
        last = winner
        arrivals[winner] = t + 1  # re-request immediately
    assert max(counts) - min(counts) <= 1


def test_round_robin_fairness_equal_arrivals():
    n = 3
    counts = [0] * n
    last = n - 1
    for _ in range(1000):
        winner = mux_grant({c: 7 for c in range(n)}, last, n)
        counts[winner] += 1
        last = winner
    assert max(counts) - min(counts) <= 1


# -- decoder and collision rule --------------------------------------------------------

def test_admits_only_a_free_line_while_the_table_has_room():
    assert admits(False, 0, 1)
    assert not admits(True, 1, 8)  # same line in flight
    assert not admits(False, 2, 2)  # table full


def test_collision_empty_proceeds_and_inserts():
    decoder = Decoder(n_cores=2, capacity=8)
    decoder.submit(0, 0x40, now=0)
    assert decoder.grant() == (0, 0x40)
    assert 0x40 in decoder.in_flight
    assert not decoder.pending and decoder.hold is None


def test_collision_same_line_stalls():
    decoder = Decoder(n_cores=2, capacity=8)
    decoder.submit(0, 0x40, now=0)
    decoder.grant()
    decoder.submit(1, 0x40, now=1)
    assert decoder.grant() is None
    assert decoder.hold == (1, 0x40) and decoder.stalls == 1
    decoder.release(0x40)
    assert decoder.grant() == (1, 0x40)


def test_collision_distinct_lines_proceed():
    decoder = Decoder(n_cores=2, capacity=8)
    decoder.submit(0, 0x40, now=0)
    decoder.submit(1, 0x50, now=0)
    assert decoder.grant() is not None
    assert decoder.grant() is not None


def test_collision_full_table_stalls():
    decoder = Decoder(n_cores=3, capacity=2)
    for core, line in enumerate((0x00, 0x10, 0x20)):
        decoder.submit(core, line, now=0)
    assert decoder.grant() and decoder.grant()
    assert decoder.grant() is None
    decoder.release(0x00)
    assert decoder.grant() == (2, 0x20)


def test_a_lone_request_is_granted_and_rotates_the_tie_break():
    decoder = Decoder(n_cores=3, capacity=8)
    decoder.submit(1, 0x40, now=0)
    assert decoder.grant() == (1, 0x40)
    # core 1 was granted last, so a same-cycle tie goes to core 2 first
    decoder.submit(0, 0x80, now=1)
    decoder.submit(2, 0xC0, now=1)
    assert decoder.grant()[0] == 2


def test_decoder_refuses_a_second_request_from_one_core():
    decoder = Decoder(n_cores=2, capacity=8)
    decoder.submit(0, 0x40, now=0)
    with pytest.raises(ProtocolFault, match="pending"):
        decoder.submit(0, 0x80, now=1)


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

def make_ccu(n_cores=2, coherent_ifetch=False, **kw):
    return Ccu([CacheModel(core, coherent_ifetch=coherent_ifetch) for core in range(n_cores)],
               **kw)


def request(ccu, core, kind, line, now):
    """Park a miss of `kind` on `line` in the core's cache, as its miss
    handler does, and submit its request."""
    ccu.caches[core].miss = MissStatus(line, kind, for_icache=kind is RO)
    ccu.submit(core, now)


def upgrade(ccu, core, line, now):
    """The core holds `line` Shared, and a store to it submits a CleanUnique."""
    cache = ccu.caches[core]
    cache._install(line, LineState.SHARED, bytes(16), icache=False)
    assert cache.core_access(CoreOp(OpKind.STORE, line, value=1)) == NeedsMiss(CU)
    ccu.submit(core, now)


def test_decoder_pipelines_distinct_lines():
    ccu = make_ccu()
    request(ccu, 0, RS, 0x40, now=0)
    request(ccu, 1, RS, 0x80, now=0)
    t0 = ccu.decoder_step(0)
    t1 = ccu.decoder_step(1)
    assert t0 is not None and t1 is not None
    assert len(ccu.txns) == 2  # both in flight simultaneously


def test_decoder_serializes_same_line():
    ccu = make_ccu(n_cores=3)
    request(ccu, 0, RS, 0x40, now=0)
    request(ccu, 1, RU, 0x40, now=0)
    first = ccu.decoder_step(0)
    assert first is not None
    assert ccu.decoder_step(1) is None  # collision holds the second
    assert ccu.decoder.stalls >= 1
    ccu.finish(first)
    assert ccu.decoder_step(2) is not None


def test_a_transaction_phase_never_moves_backwards():
    ccu = make_ccu()
    request(ccu, 0, RS, 0x40, now=0)
    txn = ccu.decoder_step(0)
    assert txn.phase is Phase.SNOOPING
    with pytest.raises(ProtocolFault, match="SNOOPING -> DECODED"):
        txn.advance(Phase.DECODED)
    txn.advance(Phase.SNOOPING)  # staying put is allowed
    assert txn.phase is Phase.SNOOPING


def test_capacity_one_admits_one_transaction_at_a_time():
    ccu = make_ccu(collision_capacity=1)
    request(ccu, 0, RS, 0x40, now=0)
    request(ccu, 1, RS, 0x80, now=0)
    first = ccu.decoder_step(0)
    assert first is not None
    assert ccu.decoder_step(1) is None
    ccu.finish(first)
    assert ccu.decoder_step(2) is not None


def test_collect_cr_first_responder_supplies_data():
    ccu = make_ccu(n_cores=3)
    request(ccu, 0, RS, 0x40, now=0)
    txn = ccu.decoder_step(0)
    line_a, line_b = bytes([1]) * 16, bytes([2]) * 16
    ccu.collect_cr(1, txn, SnoopResponse(data_transfer=1, is_shared=1), line_a)
    ccu.collect_cr(2, txn, SnoopResponse(data_transfer=1, is_shared=1), line_b)
    assert txn.data == line_a
    assert txn.data_source == 1
    assert txn.any_is_shared == 1 and txn.any_pass_dirty == 0


def test_collect_cr_aggregates_with_or_semantics():
    ccu = make_ccu(n_cores=3)
    request(ccu, 0, RU, 0x40, now=0)
    txn = ccu.decoder_step(0)
    ccu.collect_cr(1, txn, SnoopResponse(), None)
    ccu.collect_cr(2, txn, SnoopResponse(data_transfer=1, pass_dirty=1), bytes(16))
    assert txn.any_pass_dirty == 1
    assert txn.cr_pending == 0


def test_collect_cr_all_deny_leaves_no_source():
    ccu = make_ccu(n_cores=3)
    request(ccu, 0, RS, 0x40, now=0)
    txn = ccu.decoder_step(0)
    ccu.collect_cr(1, txn, SnoopResponse(), None)
    ccu.collect_cr(2, txn, SnoopResponse(), None)
    assert txn.data_source is None and txn.data is None


def test_transactions_ready_in_one_cycle_move_on_in_id_order():
    ccu = make_ccu()
    request(ccu, 0, RS, 0x40, now=0)
    request(ccu, 1, RS, 0x80, now=0)
    first, second = ccu.decoder_step(0), ccu.decoder_step(1)
    assert (first.id, second.id) == (0, 1)
    ccu.collect_cr(0, second, SnoopResponse(), None)  # core 0 answers the second one first
    ccu.collect_cr(1, first, SnoopResponse(), None)
    ccu.completion_step(5)
    assert [tag for _, _, tag in ccu.mem_port.read_queue] == [first, second]
    ccu.memory_data(second, bytes([1]) * 16, 29)  # and the data arrive in reverse too
    ccu.memory_data(first, bytes([2]) * 16, 29)
    # the completion stage sends each fill on in the cycle after its data
    assert [list(box) for box in ccu.r_outbox] == [[(31, first)], [(31, second)]]
    assert ccu.take_r(0, 31) is first and ccu.take_r(1, 31) is second
    assert first.data == bytes([2]) * 16


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


@pytest.mark.parametrize("kind", [CoherentKind.WRITE_BACK, CoherentKind.WRITE_NO_SNOOP,
                                  CoherentKind.READ_NO_SNOOP])
def test_submit_refuses_kinds_no_cache_sends(kind):
    # write-backs go through mem_port.push_wb and a non-coherent ifetch
    # fill straight to the memory port (sim.Kernel), never through submit
    ccu = make_ccu()
    with pytest.raises(ProtocolFault, match=kind.value):
        request(ccu, 0, kind, 0x40, now=0)
    assert not ccu.decoder.pending and not ccu.mem_port.read_queue


# -- the entry rule: a request is read off its miss as it enters ------------------------

def test_a_queued_clean_unique_that_lost_its_copy_enters_as_read_unique():
    ccu = make_ccu()
    upgrade(ccu, 0, 0x40, now=0)
    ccu.caches[0].handle_snoop(SnoopRequest(RU, 0x40))  # another core's snoop takes the copy
    txn = ccu.decoder_step(1)
    assert txn.kind is RU and ccu.caches[0].miss.kind is RU
    # its snoops go out as ReadUnique too
    assert [entry[2].kind for entry in ccu.ac_outbox[1]] == [RU]


def test_a_held_clean_unique_that_lost_its_copy_enters_as_read_unique():
    ccu = make_ccu()
    request(ccu, 0, RU, 0x40, now=0)
    first = ccu.decoder_step(0)
    upgrade(ccu, 1, 0x40, now=0)
    assert ccu.decoder_step(1) is None and ccu.decoder.hold == (1, 0x40)
    _due, _txn, req, probe_d, probe_i = ccu.ac_outbox[1].popleft()
    ccu.caches[1].handle_snoop(req, probe_d, probe_i)  # core 0's ReadUnique takes the copy
    ccu.finish(first)
    assert ccu.decoder_step(2).kind is RU


def test_a_clean_unique_that_keeps_its_copy_enters_unchanged():
    ccu = make_ccu()
    upgrade(ccu, 0, 0x40, now=0)
    ccu.caches[0].handle_snoop(SnoopRequest(RS, 0x40))  # a read leaves the copy Shared
    assert ccu.decoder_step(1).kind is CU


def test_without_the_reissue_row_a_clean_unique_that_lost_its_copy_stays_one(monkeypatch):
    monkeypatch.setattr(protocol, "TABLES", protocol.TABLES.mutated({"reissue:disabled"}))
    ccu = make_ccu()
    upgrade(ccu, 0, 0x40, now=0)
    ccu.caches[0].handle_snoop(SnoopRequest(RU, 0x40))
    assert ccu.decoder_step(1).kind is CU
    # in a run, both cores read one line and then upgrade it: the later
    # CleanUnique loses its copy to the earlier one, enters unchanged and
    # completes with nothing to upgrade
    load, store = CoreOp(OpKind.LOAD, 0x40), CoreOp(OpKind.STORE, 0x40, value=1)
    streams = [[load, load, store], [load, store]]
    with pytest.raises(CoherenceViolation, match="CleanUnique completion without a local copy"):
        build(SimConfig()).run(streams)
