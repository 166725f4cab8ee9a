import pytest

from culsim.cache import (
    CacheModel,
    ConfigError,
    LostCopy,
    set_word,
    word_at,
)
from culsim import protocol
from culsim.sim import SimConfig, build
from culsim.verify import check_swmr, check_value
from culsim.protocol import (
    MUTATIONS,
    CoherentKind,
    CoreOp,
    Hit,
    Issue,
    LineState,
    OpKind,
    UNIQUE_KINDS,
)

M, O, E, S, I = (
    LineState.MODIFIED,
    LineState.OWNED,
    LineState.EXCLUSIVE,
    LineState.SHARED,
    LineState.INVALID,
)


def make_cache(**kw):
    kw.setdefault("core_id", 0)
    kw.setdefault("line_size", 16)
    kw.setdefault("cache_size", 256)  # 4 sets x 4 ways for quick eviction tests
    kw.setdefault("ways", 4)
    return CacheModel(**kw)


def fill(cache, address, state, byte=0xAB, icache=False):
    data = bytes([byte]) * cache.line_size
    cache._install(address - address % cache.line_size, state, data, icache=icache)
    return data


# -- lookup ----------------------------------------------------------------------

def test_lookup_empty_cache_misses():
    assert make_cache().lookup(0x40) is None


def test_lookup_after_install_hits():
    cache = make_cache()
    fill(cache, 0x40, S)
    line = cache.lookup(0x40)
    assert line.state is S and line.addr == 0x40
    assert cache.lookup(0x40 + cache.line_size) is None  # different line


# -- core access -------------------------------------------------------------------

def test_core_access_out_of_range_is_config_error():
    for address in (1 << 32, -16):
        for op in (CoreOp(OpKind.LOAD, address), CoreOp(OpKind.STORE, address, value=1),
                   CoreOp(OpKind.IFETCH, address)):
            cache = make_cache()
            with pytest.raises(ConfigError, match="outside the physical address range"):
                cache.core_access(op)
            assert cache.miss is None


def test_store_hit_on_exclusive_turns_modified():
    cache = make_cache()
    fill(cache, 0x40, E)
    assert cache.core_access(CoreOp(OpKind.STORE, 0x44, value=0xDEAD)) is None
    assert cache.miss is None
    line = cache.lookup(0x40)
    assert line.state is M
    assert line.state.is_dirty and line.state.is_unique
    assert word_at(line.data, 4) == 0xDEAD


def test_load_miss_issues_read_shared():
    cache = make_cache()
    assert cache.core_access(CoreOp(OpKind.LOAD, 0x40)) is None
    assert cache.miss.kind is CoherentKind.READ_SHARED
    assert cache.miss.address == 0x40
    assert cache.miss.kind not in UNIQUE_KINDS


def test_store_hit_on_shared_needs_clean_unique():
    cache = make_cache()
    fill(cache, 0x40, S)
    assert cache.core_access(CoreOp(OpKind.STORE, 0x40, value=1)) is None
    assert cache.miss.kind is CoherentKind.CLEAN_UNIQUE
    assert cache.miss.kind in UNIQUE_KINDS


def test_load_hit_returns_word():
    cache = make_cache()
    data = fill(cache, 0x40, E, byte=0x11)
    assert cache.core_access(CoreOp(OpKind.LOAD, 0x48)) == word_at(data, 8)
    assert cache.miss is None


def with_initiator_row(state, op, row):
    """The clean table set with the one initiator row (state, op) patched."""
    clean = protocol.TABLES
    return protocol.Tables(initiator={**clean.initiator, (state, op): row},
                           snoopee=clean.snoopee, completion=clean.completion,
                           reissue=clean.reissue)


@pytest.mark.parametrize("coherent_ifetch", [False, True], ids=["nc-ifetch", "coherent-ifetch"])
@pytest.mark.parametrize("op", list(OpKind), ids=lambda op: op.value)
@pytest.mark.parametrize("state", list(LineState), ids=lambda state: state.value)
def test_every_initiator_row_reaches_the_cache(state, op, coherent_ifetch):
    # an ifetch is looked up in the icache, a load or store in the dcache;
    # a non-coherent icache misses with ReadNoSnoop whatever the row names
    value = 1 if op is OpKind.STORE else None
    rows = [Issue(kind) for kind in CoherentKind if kind in protocol.SNOOPING_KINDS]
    if state is not I:
        rows.append(Hit(S if state is E else E))
    for row in rows:
        if row == protocol.TABLES.initiator[state, op]:
            continue
        if op is OpKind.STORE and row == Issue(CoherentKind.READ_ONCE):
            # a ReadOnce fills the icache, not the data cache a store writes
            with pytest.raises(ValueError, match=rf"initiator row \({state.value}, Store\) "
                                                 r"-> Issue\(ReadOnce\)"):
                with_initiator_row(state, op, row)
            continue
        cache = make_cache(coherent_ifetch=coherent_ifetch)
        cache.tables = with_initiator_row(state, op, row)
        if state is not I:
            data = fill(cache, 0x40, state, icache=op is OpKind.IFETCH)
        result = cache.core_access(CoreOp(op, 0x44, value=value))
        if isinstance(row, Hit):
            assert cache.miss is None
            assert result == (None if value else word_at(data, 4))
            assert cache.lookup(0x40, icache=op is OpKind.IFETCH).state is row.next
            continue
        assert result is None
        nc = op is OpKind.IFETCH and not coherent_ifetch
        assert cache.miss.address == 0x40
        assert cache.miss.kind is (CoherentKind.READ_NO_SNOOP if nc else row.kind)


def test_second_outstanding_miss_is_rejected():
    cache = make_cache()
    cache.core_access(CoreOp(OpKind.LOAD, 0x40))
    with pytest.raises(RuntimeError):
        cache.core_access(CoreOp(OpKind.LOAD, 0x80))


# -- snoop handling -----------------------------------------------------------------

def test_snoop_miss_transfers_nothing():
    cache = make_cache()
    resp, data = cache.handle_snoop(CoherentKind.READ_SHARED, 0x40)
    assert resp.data_transfer == 0 and data is None
    assert cache.miss is None


def test_snoop_read_unique_invalidates_and_hands_dirty_off():
    cache = make_cache()
    filled = fill(cache, 0x40, M)
    resp, data = cache.handle_snoop(CoherentKind.READ_UNIQUE, 0x40)
    assert (resp.data_transfer, resp.pass_dirty) == (1, 1)
    assert data == filled
    assert cache.lookup(0x40) is None


def test_clean_unique_that_lost_its_copy_enters_as_read_unique():
    cache = make_cache()
    fill(cache, 0x40, S)
    cache.core_access(CoreOp(OpKind.STORE, 0x40, value=1))  # pending CleanUnique
    cache.handle_snoop(CoherentKind.READ_UNIQUE, 0x40)
    assert cache.lookup(0x40) is None
    assert cache.miss.kind is CoherentKind.CLEAN_UNIQUE  # a snoop leaves the request alone
    assert cache.entry_kind() is CoherentKind.READ_UNIQUE
    assert cache.miss.kind is CoherentKind.READ_UNIQUE


@pytest.mark.parametrize("op, kind", [(OpKind.LOAD, CoherentKind.READ_SHARED),
                                      (OpKind.STORE, CoherentKind.READ_UNIQUE)])
def test_miss_from_invalid_enters_unchanged(op, kind):
    cache = make_cache()
    cache.core_access(CoreOp(op, 0x40, value=1 if op is OpKind.STORE else None))
    cache.handle_snoop(CoherentKind.READ_SHARED, 0x40)
    assert cache.entry_kind() is kind and cache.miss.kind is kind


def test_stored_flags_match_protocol_next_state():
    for state in (M, O, E, S):
        for kind in (CoherentKind.READ_SHARED, CoherentKind.READ_UNIQUE):
            cache = make_cache()
            fill(cache, 0x40, state)
            cache.handle_snoop(kind, 0x40)
            hit = cache.lookup(0x40)
            from culsim.protocol import snoopee_transition

            expected = snoopee_transition(state, kind)[0]
            got = hit.state if hit else I
            assert got is expected


# -- miss completion -----------------------------------------------------------------

def test_clean_completion_installs():
    cache = make_cache()
    load = CoreOp(OpKind.LOAD, 0x44)
    cache.core_access(load)
    data = bytes(range(16))
    assert cache.miss_complete(S, data, load, True) == (word_at(data, 4), None)
    assert cache.lookup(0x40).state is S
    assert cache.miss is None


def test_clean_unique_completion_without_its_copy_raises_lost_copy():
    # such a miss enters as a ReadUnique (`entry_kind`); a CleanUnique
    # that completes anyway has nothing to upgrade
    cache = make_cache()
    fill(cache, 0x40, S)
    store = CoreOp(OpKind.STORE, 0x40, value=1)
    cache.core_access(store)
    cache.handle_snoop(CoherentKind.READ_UNIQUE, 0x40)
    with pytest.raises(LostCopy) as exc:
        cache.miss_complete(M, None, store, True)
    assert exc.value.address == 0x40


def test_read_unique_completion_after_a_snoop_read_installs():
    # a snoop read reaches a miss only before it enters; its own snoops
    # then take the reader's copy, so the completion installs
    cache = make_cache()
    store = CoreOp(OpKind.STORE, 0x40, value=1)
    cache.core_access(store)
    cache.handle_snoop(CoherentKind.READ_SHARED, 0x40)
    assert cache.miss_complete(M, bytes(16), store, True) == (None, None)
    line = cache.lookup(0x40)
    assert line.state is M and word_at(line.data, 0) == 1 and cache.miss is None


def test_clean_unique_completion_upgrades_in_place():
    cache = make_cache()
    data = fill(cache, 0x40, S, byte=0x3C)
    store = CoreOp(OpKind.STORE, 0x44, value=1)
    cache.core_access(store)
    # an upgrade has no victim, so a full write-back FIFO cannot refuse it
    assert cache.miss_complete(M, None, store, False) == (None, None)
    line = cache.lookup(0x40)
    assert line.state is M
    assert line.data == set_word(data, 4, 1)


def test_a_data_less_handoff_stays_with_its_transaction_until_the_completion():
    # core 1 holds the line Owned and core 0 Shared; core 0's store
    # upgrades with a CleanUnique, whose snoop strips core 1 with
    # PassDirty and no data. The transaction answers for the line until
    # its completion, and core 0's copy stays Shared meanwhile.
    sim = build(SimConfig(), monitor=True)
    sim.run([[], [CoreOp(OpKind.STORE, 0x40, value=1)]])
    sim.run([[CoreOp(OpKind.LOAD, 0x40)], []])
    mine, theirs = sim.caches
    assert (mine.lookup(0x40).state, theirs.lookup(0x40).state) == (S, O)
    between = []
    run_monitors = sim._run_monitors

    def monitors():
        if mine.miss is not None and theirs.lookup(0x40) is None:
            line = mine.lookup(0x40)
            view = sim.snapshot_invariants()
            copies = [(c.core, c.state, c.data) for c in view[0x40][0]]
            between.append((line.state, copies, line.data, check_swmr(view) + check_value(view)))
        run_monitors()

    sim._run_monitors = monitors
    sim.run([[CoreOp(OpKind.STORE, 0x40, value=2)], []])
    assert between
    for state, copies, data, problems in between:
        assert state is S
        # core 0's Shared copy, then its transaction's Owned one
        assert copies == [(0, S, data), (0, O, data)]
        assert problems == []
    assert mine.lookup(0x40).state is M and theirs.lookup(0x40) is None


# -- eviction -------------------------------------------------------------------------

def set_addresses(cache, set_idx):
    # addresses mapping to one set: stride = n_sets * line_size
    stride = cache.n_sets * cache.line_size
    return [set_idx * cache.line_size + k * stride for k in range(cache.ways + 1)]


def load_miss(cache, address, state=E, byte=0x11, wb_room=True):
    """Miss on a load of `address` and complete it: the eviction path."""
    load = CoreOp(OpKind.LOAD, address)
    assert cache.core_access(load) is None and cache.miss is not None
    return cache.miss_complete(state, bytes([byte]) * cache.line_size, load, wb_room)


def test_miss_into_set_with_free_way_evicts_nothing():
    cache = make_cache()
    addrs = set_addresses(cache, 0)
    fill(cache, addrs[0], S)
    assert load_miss(cache, addrs[1], byte=0x11) == (0x11111111, None)  # invalid way used
    assert sorted(a for a, _ in cache.valid_lines()) == addrs[:2]


def test_clean_victim_eviction_produces_no_writeback():
    cache = make_cache()
    addrs = set_addresses(cache, 0)
    for a in addrs[: cache.ways]:
        fill(cache, a, S)
    _, writeback = load_miss(cache, addrs[cache.ways], wb_room=False)
    assert writeback is None  # clean victim: nothing to write back, nothing to refuse
    valid = sorted(a for a, _ in cache.valid_lines())
    assert valid == addrs[1:]  # but the victim is gone
    assert cache.lookup(addrs[0]) is None


def test_dirty_victim_eviction_emits_writeback():
    cache = make_cache()
    addrs = set_addresses(cache, 1)
    victims = []
    for a in addrs[: cache.ways]:
        victims.append(fill(cache, a, O))
    _, writeback = load_miss(cache, addrs[cache.ways])
    assert writeback == (addrs[0], victims[0])
    assert cache.lookup(addrs[0]) is None


def test_a_fill_over_a_dirty_victim_without_write_back_room_is_refused():
    cache = make_cache()
    addrs = set_addresses(cache, 2)
    for byte, a in enumerate(addrs[: cache.ways]):
        fill(cache, a, M, byte=byte)
    load = CoreOp(OpKind.LOAD, addrs[cache.ways])
    cache.core_access(load)
    def entries():  # each index entry's address and line, by identity
        return [(a, id(line)) for a, line in cache.index.items()]

    miss, rr, index = cache.miss, list(cache.rr), entries()
    lines = [(line.addr, line.state, line.data) for line in cache.sets[2]]
    data = bytes([0x77]) * 16
    assert cache.miss_complete(E, data, load, False) is None
    assert (cache.miss, list(cache.rr), entries()) == (miss, rr, index)
    assert [(line.addr, line.state, line.data) for line in cache.sets[2]] == lines
    # with room the same fill goes through, evicting the round-robin victim
    assert cache.miss_complete(E, data, load, True) == (0x77777777, (addrs[0], bytes(16)))
    line = cache.lookup(addrs[cache.ways])
    assert line is cache.sets[2][0] and line.state is E and cache.miss is None


def test_refill_over_stale_way_keeps_newer_copy_indexed():
    cache = make_cache(cache_size=64, ways=2)
    b, a, c = set_addresses(cache, 0)
    fill(cache, b, S)  # way 0
    fill(cache, a, S)  # way 1
    for addr in (a, b):
        cache.handle_snoop(CoherentKind.READ_UNIQUE, addr)
    load_miss(cache, a)  # refilled into way 0; way 1 keeps a's stale address
    load_miss(cache, c)  # overwrites the stale way 1
    assert cache.lookup(a) is cache.sets[0][0]
    assert sorted(addr for addr, _ in cache.valid_lines()) == [a, c]


def test_install_into_full_set_evicts_round_robin():
    cache = make_cache()
    addrs = set_addresses(cache, 2)
    for a in addrs[: cache.ways]:
        fill(cache, a, M, byte=0x55)
    _, writeback = load_miss(cache, addrs[cache.ways])
    assert writeback == (addrs[0], bytes([0x55]) * 16)
    assert cache.lookup(addrs[cache.ways]) is not None


def test_a_fill_takes_the_first_free_way_else_the_round_robin_victim():
    cache = make_cache()
    addrs = set_addresses(cache, 2)
    for a in addrs[:3]:
        fill(cache, a, M)
    cache.handle_snoop(CoherentKind.READ_UNIQUE, addrs[1])  # frees way 1
    # ways 1 and 3 are free: the first is taken, so no victim to refuse
    assert load_miss(cache, addrs[3], wb_room=False) == (0x11111111, None)
    assert cache.lookup(addrs[3]) is cache.sets[2][1]
    fill(cache, addrs[1], S)  # into way 3: the set is full
    way = cache.rr[2]
    assert cache.lookup(addrs[3]) is cache.sets[2][way]
    assert load_miss(cache, addrs[4], wb_room=False) == (0x11111111, None)  # a clean victim
    assert cache.lookup(addrs[4]) is cache.sets[2][way] and cache.lookup(addrs[3]) is None


# -- instruction cache ---------------------------------------------------------------

def test_noncoherent_ifetch_misses_with_read_no_snoop():
    cache = make_cache(coherent_ifetch=False)
    assert cache.core_access(CoreOp(OpKind.IFETCH, 0x44)) is None
    assert (cache.miss.address, cache.miss.kind) == (0x40, CoherentKind.READ_NO_SNOOP)


def test_coherent_ifetch_misses_with_read_once():
    cache = make_cache(coherent_ifetch=True)
    assert cache.core_access(CoreOp(OpKind.IFETCH, 0x40)) is None
    assert cache.miss.kind is CoherentKind.READ_ONCE


def test_ifetch_hit_serves_without_traffic():
    cache = make_cache(coherent_ifetch=True)
    data = fill(cache, 0x40, S, byte=0x77, icache=True)
    assert cache.core_access(CoreOp(OpKind.IFETCH, 0x44)) == word_at(data, 4)
    assert cache.miss is None


def test_coherent_icache_lines_only_shared_or_invalid():
    cache = make_cache(coherent_ifetch=True)
    fetch = CoreOp(OpKind.IFETCH, 0x40)
    cache.core_access(fetch)
    assert cache.miss_complete(S, bytes([1]) * 16, fetch, True) == (0x01010101, None)
    for _addr, line in cache.valid_lines(icache=True):
        assert line.state is S
    cache.handle_snoop(
        CoherentKind.READ_UNIQUE, 0x40, probe_dcache=False, probe_icache=True
    )
    assert cache.lookup(0x40, icache=True) is None


def test_snoop_probes_merge_dcache_and_icache():
    cache = make_cache(coherent_ifetch=True)
    fill(cache, 0x40, S, icache=True)
    resp, data = cache.handle_snoop(
        CoherentKind.READ_SHARED, 0x40, probe_dcache=True, probe_icache=True
    )
    assert resp.is_shared == 1 and resp.data_transfer == 1
    assert data is not None


@pytest.mark.parametrize("mutation", [m for m in MUTATIONS if m.startswith("snoopee:")])
def test_snoop_answers_with_the_probe_row_of_its_tables(monkeypatch, mutation):
    # a cache built under a mutated table set merges its two structures'
    # answers by that set's probe row, mutated snoopee row included
    clean = protocol.TABLES
    tables = clean.mutated({mutation})
    monkeypatch.setattr(protocol, "TABLES", tables)
    (_table, (state, kind), _row), *_ = MUTATIONS[mutation]
    assert tables.probe[state, S, kind] != clean.probe[state, S, kind]
    cache = make_cache(coherent_ifetch=True)
    sent = {"d": fill(cache, 0x40, state, byte=0x11),
            "i": fill(cache, 0x40, S, byte=0x22, icache=True), None: None}
    resp, data = cache.handle_snoop(kind, 0x40, probe_dcache=True,
                                    probe_icache=True)
    dnext, inext, expected, source = tables.probe[state, S, kind]
    assert (resp, data) == (expected, sent[source])
    hit, ihit = cache.lookup(0x40), cache.lookup(0x40, icache=True)
    assert (hit.state if hit else I, ihit.state if ihit else I) == (dnext, inext)


# -- helpers ---------------------------------------------------------------------------

def test_word_helpers_round_trip():
    line = bytes(range(16))
    updated = set_word(line, 4, 0xA1B2C3D4)
    assert word_at(updated, 4) == 0xA1B2C3D4
    assert word_at(updated, 0) == word_at(line, 0)
    assert len(updated) == 16
