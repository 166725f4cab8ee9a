import re
from dataclasses import fields

import pytest

from culsim import protocol
from culsim.protocol import (
    CoherentKind,
    CoreOp,
    Hit,
    Issue,
    LineState,
    MUTATIONS,
    OpKind,
    SNOOPING_KINDS,
    SnoopResponse,
    TABLES,
    Tables,
    completion_state,
    initiator_action,
    reissue_kind,
    snoopee_transition,
)

M, O, E, S, I = (
    LineState.MODIFIED,
    LineState.OWNED,
    LineState.EXCLUSIVE,
    LineState.SHARED,
    LineState.INVALID,
)

RS, RU, CU, RO = (
    CoherentKind.READ_SHARED,
    CoherentKind.READ_UNIQUE,
    CoherentKind.CLEAN_UNIQUE,
    CoherentKind.READ_ONCE,
)


TABLE_ROWS = [
    (M, (1, 0, 1), "UniqueDirty"),
    (O, (1, 1, 1), "SharedDirty"),
    (E, (1, 0, 0), "UniqueClean"),
    (S, (1, 1, 0), "SharedClean"),
    (I, (0, 0, 0), "Invalid"),
]


def status_flags(state):
    """The (valid, shared, dirty) status flags the state properties read."""
    return (int(state.is_valid), int(state.is_valid and not state.is_unique),
            int(state.is_dirty))


@pytest.mark.parametrize("state,flags,alias", TABLE_ROWS)
def test_status_flag_rows(state, flags, alias):
    # the module docstring's table documents the encoding: its row must
    # agree with the properties the models run
    row = next(line.split() for line in protocol.__doc__.splitlines()
               if line.split()[:1] == [state.name.capitalize()])
    assert row[1] == alias
    assert tuple(int(bit) if bit != "-" else 0 for bit in row[2:]) == flags
    assert status_flags(state) == flags


def test_flag_round_trip_all_states():
    # distinct states have distinct flags, so the flags name the state
    assert len({status_flags(state) for state in LineState}) == len(LineState)


def test_invalid_ignores_dont_care_bits():
    assert status_flags(I) == (0, 0, 0)
    assert not I.is_unique and not I.is_dirty


def test_state_of_flags_total_over_valid_encodings():
    valid = {status_flags(state) for state in LineState if state.is_valid}
    assert valid == {(1, shared, dirty) for shared in (0, 1) for dirty in (0, 1)}


# -- initiator table ---------------------------------------------------------

def test_loads_hit_any_valid_state_without_change():
    for state in (M, O, E, S):
        assert initiator_action(state, OpKind.LOAD) == Hit(state)
        assert initiator_action(state, OpKind.IFETCH) == Hit(state)


def test_store_hits():
    assert initiator_action(M, OpKind.STORE) == Hit(M)
    assert initiator_action(E, OpKind.STORE) == Hit(M)  # silent upgrade


def test_store_against_shared_copies_upgrades():
    assert initiator_action(S, OpKind.STORE) == Issue(CU)
    assert initiator_action(O, OpKind.STORE) == Issue(CU)


def test_misses():
    assert initiator_action(I, OpKind.LOAD) == Issue(RS)
    assert initiator_action(I, OpKind.STORE) == Issue(RU)
    assert initiator_action(I, OpKind.IFETCH) == Issue(RO)


# -- snoopee table -----------------------------------------------------------

def test_invalid_snoopee_never_responds():
    for kind in (RS, RU, CU, RO):
        nxt, resp = snoopee_transition(I, kind)
        assert nxt is I
        assert resp == SnoopResponse()


def test_read_shared_keeps_dirty_at_snoopee():
    nxt, resp = snoopee_transition(M, RS)
    assert nxt is O
    assert resp == SnoopResponse(data_transfer=1, pass_dirty=0, is_shared=1)


def test_read_shared_rows():
    assert snoopee_transition(O, RS) == (O, SnoopResponse(1, 0, 1))
    assert snoopee_transition(E, RS) == (S, SnoopResponse(1, 0, 1))
    assert snoopee_transition(S, RS) == (S, SnoopResponse(1, 0, 1))


def test_read_unique_hands_dirty_off_exactly_once():
    assert snoopee_transition(M, RU) == (I, SnoopResponse(1, 1, 0))
    assert snoopee_transition(O, RU) == (I, SnoopResponse(1, 1, 0))
    assert snoopee_transition(E, RU) == (I, SnoopResponse(1, 0, 0))
    assert snoopee_transition(S, RU) == (I, SnoopResponse(1, 0, 0))


def test_clean_unique_invalidates_without_data():
    assert snoopee_transition(M, CU) == (I, SnoopResponse(0, 1, 0))
    assert snoopee_transition(O, CU) == (I, SnoopResponse(0, 1, 0))
    assert snoopee_transition(E, CU) == (I, SnoopResponse(0, 0, 0))
    assert snoopee_transition(S, CU) == (I, SnoopResponse(0, 0, 0))


def test_read_once_aliases_read_shared_for_snoopees():
    for state in LineState:
        assert snoopee_transition(state, RO) == snoopee_transition(state, RS)


def test_only_dirty_states_pass_dirty():
    for state in LineState:
        for kind in (RS, RU, CU, RO):
            _, resp = snoopee_transition(state, kind)
            if resp.pass_dirty:
                assert state.is_dirty


def test_response_consistent_with_next_state():
    # a snoopee that keeps a copy must have claimed is_shared
    for state in (M, O, E, S):
        for kind in (RS, RU, CU, RO):
            nxt, resp = snoopee_transition(state, kind)
            if nxt in (S, O):
                assert resp.is_shared == 1
            if nxt is I and state.is_dirty:
                assert resp.pass_dirty == 1


# -- completion rules ---------------------------------------------------------

def test_read_shared_completions():
    assert completion_state(RS, 0, 0, 0) is E  # sole copy may be held unique
    assert completion_state(RS, 1, 0, 0) is S
    assert completion_state(RS, 1, 1, 0) is O  # dirty handed to the reader
    assert completion_state(RS, 0, 1, 0) is O


def test_unique_completions():
    assert completion_state(RU, 0, 0, 1) is M  # store makes the line dirty
    assert completion_state(RU, 0, 1, 0) is M
    assert completion_state(RU, 0, 0, 0) is E
    assert completion_state(CU, 0, 0, 1) is M
    assert completion_state(CU, 1, 0, 0) is E


def test_read_once_installs_shared():
    assert completion_state(RO, 0, 0, 0) is S
    assert completion_state(RO, 1, 1, 0) is S


def test_non_coherent_kinds_have_no_completion():
    with pytest.raises(ValueError):
        completion_state(CoherentKind.READ_NO_SNOOP, 0, 0, 0)


# -- racing-miss rules --------------------------------------------------------

RNS = CoherentKind.READ_NO_SNOOP

# kind -> (kind a miss whose copy a snoop took is issued as, its reissue row)
REISSUE_ROWS = [
    (RS, (RS, RS)),
    (RU, (RU, RU)),
    (CU, (RU, RU)),
    (RO, (RO, RO)),
    (RNS, (RNS, RNS)),
]


@pytest.mark.parametrize("kind,row", REISSUE_ROWS)
def test_reissue_kind_table(kind, row):
    assert (reissue_kind(kind), TABLES.reissue[kind]) == row


def test_reissue_rows_cover_every_kind():
    assert [kind for kind, _ in REISSUE_ROWS] == list(CoherentKind) == list(TABLES.reissue)


# -- the table set ------------------------------------------------------------

def test_table_rows_equal_their_functions_over_the_full_domain():
    bits = (0, 1)
    assert dict(TABLES.initiator) == {
        (s, op): initiator_action(s, op) for s in LineState for op in OpKind
    }
    assert dict(TABLES.snoopee) == {
        (s, k): snoopee_transition(s, k) for s in LineState for k in SNOOPING_KINDS
    }
    assert dict(TABLES.completion) == {
        (k, sh, pd, st): completion_state(k, sh, pd, st)
        for k in SNOOPING_KINDS for sh in bits for pd in bits for st in bits
    }
    assert dict(TABLES.reissue) == {k: reissue_kind(k) for k in CoherentKind}


def written_out_merge(snoopee):
    """The probe merge spelled out: both structures take their snoopee
    row; data from the dcache first, PassDirty only from the dcache,
    IsShared from either."""
    rows = {}
    for d in LineState:
        for i in LineState:
            for k in SNOOPING_KINDS:
                dnext, dresp = snoopee[d, k]
                inext, iresp = snoopee[i, k]
                if dresp.data_transfer:
                    source = "d"
                elif iresp.data_transfer:
                    source = "i"
                else:
                    source = None
                merged = SnoopResponse(
                    data_transfer=max(dresp.data_transfer, iresp.data_transfer),
                    pass_dirty=dresp.pass_dirty,
                    is_shared=max(dresp.is_shared, iresp.is_shared),
                )
                rows[d, i, k] = (dnext, inext, merged, source)
    return rows


def test_probe_rows_merge_the_snoopee_rows_over_the_full_domain():
    clean = {(s, k): snoopee_transition(s, k) for s in LineState for k in SNOOPING_KINDS}
    assert len(TABLES.probe) == 5 * 5 * 4
    assert dict(TABLES.probe) == written_out_merge(clean)
    # a few rows by hand: an unprobed icache answers as Invalid
    assert TABLES.probe[M, I, RS] == (O, I, SnoopResponse(1, 0, 1), "d")
    assert TABLES.probe[I, S, RO] == (I, S, SnoopResponse(1, 0, 1), "i")
    assert TABLES.probe[O, S, RU] == (I, I, SnoopResponse(1, 1, 0), "d")
    assert TABLES.probe[S, S, CU] == (I, I, SnoopResponse(), None)


@pytest.mark.parametrize("mutation", [m for m in MUTATIONS if m.startswith("snoopee:")])
def test_a_snoopee_mutation_reaches_the_probe_rows(mutation):
    mutated = TABLES.mutated({mutation})
    assert dict(mutated.probe) == written_out_merge(mutated.snoopee)
    assert mutated.probe != TABLES.probe


def test_tables_are_read_only():
    with pytest.raises(TypeError):
        TABLES.snoopee[M, RU] = (M, SnoopResponse(1, 0, 1))
    with pytest.raises(TypeError):
        TABLES.probe[M, I, RS] = (M, I, SnoopResponse(), None)


@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_each_mutation_patches_a_copy(mutation):
    patches = MUTATIONS[mutation]
    mutated = TABLES.mutated({mutation})
    assert all(getattr(mutated, table)[key] == row for table, key, row in patches)
    assert any(getattr(TABLES, table)[key] != row for table, key, row in patches)
    # snoopees answer ReadOnce as ReadShared, mutated or not
    for state in LineState:
        assert mutated.snoopee[state, RO] == mutated.snoopee[state, RS]


@pytest.mark.parametrize("op", list(OpKind), ids=lambda op: op.value)
def test_tables_refuse_a_hit_on_invalid(op):
    # a hit needs a line: neither the caches nor the explorer has one to hit on
    rows = {**TABLES.initiator, (I, op): Hit(S)}
    message = f"initiator row (I, {op.value}) -> Hit(S): a hit needs a valid line"
    with pytest.raises(ValueError, match=re.escape(message)):
        Tables(rows, TABLES.snoopee, TABLES.completion, TABLES.reissue)


@pytest.mark.parametrize("state", list(LineState), ids=lambda state: state.value)
def test_tables_refuse_a_store_row_that_issues_read_once(state):
    # a ReadOnce fills the icache, so the store would find no line to write
    rows = {**TABLES.initiator, (state, OpKind.STORE): Issue(RO)}
    message = (f"initiator row ({state.value}, Store) -> Issue(ReadOnce): a ReadOnce "
               f"fills the icache, not the data cache a store writes")
    with pytest.raises(ValueError, match=re.escape(message)):
        Tables(rows, TABLES.snoopee, TABLES.completion, TABLES.reissue)


@pytest.mark.parametrize("kind", [RU, CU], ids=lambda kind: kind.value)
def test_tables_refuse_a_reissue_row_that_turns_a_store_miss_into_read_once(kind):
    rows = {**TABLES.reissue, kind: RO}
    message = (f"reissue row {kind.value} -> ReadOnce: a Store row issues {kind.value}, "
               f"and a ReadOnce fills the icache, not the data cache a store writes")
    with pytest.raises(ValueError, match=re.escape(message)):
        Tables(TABLES.initiator, TABLES.snoopee, TABLES.completion, rows)
    # a kind no Store row issues may enter as ReadOnce
    Tables(TABLES.initiator, TABLES.snoopee, TABLES.completion, {**TABLES.reissue, RS: RO})


@pytest.mark.parametrize("row", [(S, SnoopResponse()), (I, SnoopResponse(1, 0, 0)),
                                 (I, SnoopResponse(0, 1, 0)), (I, SnoopResponse(0, 0, 1))],
                         ids=["valid-next", "data", "pass-dirty", "shared"])
@pytest.mark.parametrize("kind", sorted(SNOOPING_KINDS, key=lambda k: k.value),
                         ids=lambda kind: kind.value)
def test_tables_refuse_an_invalid_snoopee_row_that_changes_anything(kind, row):
    # the explorer's snoop writes only valid slots and folds a snoop that
    # finds no copy as changing nothing, where the caches apply the row
    rows = {**TABLES.snoopee, (I, kind): row}
    message = (f"snoopee row (I, {kind.value}) -> ({row[0].value}, {row[1]}): "
               f"a snoop changes nothing on an Invalid line")
    with pytest.raises(ValueError, match=re.escape(message)):
        Tables(TABLES.initiator, rows, TABLES.completion, TABLES.reissue)


def test_mutated_with_no_ids_equals_the_clean_tables():
    assert TABLES.mutated(()) == TABLES
    # probe is derived from snoopee, not a field that == or mutated reads;
    # a data-less dirty handoff has no row (its transaction holds it)
    assert [f.name for f in fields(Tables)] == ["initiator", "snoopee", "completion", "reissue"]


# -- message types ------------------------------------------------------------

def test_core_op_validation():
    assert CoreOp(OpKind.STORE, 0x40, value=7).value == 7
    assert CoreOp(OpKind.LOAD, 0x40).value is None
    assert CoreOp(OpKind.IFETCH, 0x40).value is None
    with pytest.raises(ValueError):
        CoreOp(OpKind.STORE, 0x40)
    with pytest.raises(ValueError):
        CoreOp(OpKind.LOAD, 0x40, value=1)
