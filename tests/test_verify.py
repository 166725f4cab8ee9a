import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from culsim import protocol, verify
from culsim.protocol import (
    DATA_KINDS,
    TABLES,
    CoherentKind,
    CoreOp,
    Hit,
    Issue,
    LineState,
    OpKind,
    SnoopResponse,
    Tables,
)
from culsim.sim import SimConfig, build
from culsim.verify import (
    _ACCEPT,
    _ANY_DIRTY,
    _COMPLETE,
    _DRAIN,
    _E,
    _I,
    _ISSUE,
    _KINDS,
    _MD,
    _MF,
    _MK,
    _ML,
    _MM,
    _OPS,
    _OP_OF_VERB,
    _ORACLE_BATTERY,
    _PC,
    _SNOOP,
    _STATES,
    _Machine,
    COHERENCE_LITMUS,
    CopyView,
    EXPECTED_INITIATOR_PAIRS,
    EXPECTED_SNOOPEE_PAIRS,
    ExploreConfig,
    LitmusTest,
    MAX_LINES,
    MAX_OPS_PER_CORE,
    SHIPPED_MUTATIONS,
    UNREACHABLE_SNOOPEE_PAIRS,
    _coded_tables,
    check_litmus,
    check_swmr,
    check_value,
    explore,
    oracle_tables,
    parse_litmus,
    run_litmus,
)
from sc_reference import in_sc_scope, sc_outcomes
from test_explore_golden import CASES, RACING_SHAPES, TWIN_SHAPES, full_search, verdict

M, O, E, S = (
    LineState.MODIFIED,
    LineState.OWNED,
    LineState.EXCLUSIVE,
    LineState.SHARED,
)

X, Y = 0x100, 0x110


def view(*copies, mem=0, addr=X):
    return {addr: ([CopyView(c, st, val) for c, st, val in copies], mem)}


# -- invariant checks -----------------------------------------------------------

def test_swmr_single_modified_ok():
    assert check_swmr(view((0, M, 1))) == []


def test_swmr_unique_with_company_is_violation():
    assert check_swmr(view((0, M, 1), (1, S, 1)))
    assert check_swmr(view((0, E, 0), (1, S, 0)))


def test_swmr_owned_sharing_ok():
    assert check_swmr(view((0, O, 1), (1, S, 1), (2, S, 1))) == []


def test_swmr_two_dirty_responsible_is_violation():
    assert check_swmr(view((0, O, 1), (1, O, 1)))
    assert check_swmr(view((0, O, 1), (1, M, 1)))


def test_value_dirty_owner_may_outrun_memory():
    assert check_value(view((0, M, 5), mem=0)) == []


def test_value_disagreeing_copies_is_violation():
    assert check_value(view((0, S, 1), (1, S, 2)))


def test_value_clean_copy_must_match_memory():
    assert check_value(view((0, E, 5), mem=0))
    assert check_value(view((0, E, 5), mem=5)) == []


def test_value_compares_bytes_and_bytearray_by_content():
    same = [CopyView(0, S, b"\x05"), CopyView(1, S, bytearray(b"\x05"))]
    assert check_value({X: (same, b"\x05")}) == []
    other = [CopyView(0, S, b"\x05"), CopyView(1, S, bytearray(b"\x06"))]
    assert check_value({X: (other, b"\x05")}) == ["line 0x100: valid copies disagree"]


def test_value_an_int_never_equals_bytes():
    copies = [CopyView(0, S, 5), CopyView(1, S, b"\x05")]
    assert check_value({X: (copies, 5)}) == ["line 0x100: valid copies disagree"]
    assert check_value(view((0, E, 5), mem=b"\x05")) == [
        "line 0x100: clean copies differ from memory"]


def test_value_clean_bytearray_copy_equal_to_bytes_memory_passes():
    assert check_value(view((0, S, bytearray(b"\x05\x00")), mem=b"\x05\x00")) == []
    assert check_value(view((0, S, bytearray(b"\x05\x00")), mem=b"\x05\x01")) == [
        "line 0x100: clean copies differ from memory"]


# Sort-first implementations the single-pass checks must reproduce exactly.

def reference_check_swmr(view):
    problems = []
    for addr, (copies, _mem) in sorted(view.items()):
        if not copies:
            continue
        unique = [c for c in copies if c.state.is_unique]
        dirty = [c for c in copies if c.state.is_dirty]
        if unique and len(copies) >= 2:
            problems.append(
                f"line {addr:#x}: unique copy on core {unique[0].core} "
                f"coexists with {len(copies) - 1} other cop(y/ies)"
            )
        if len(dirty) >= 2:
            problems.append(f"line {addr:#x}: {len(dirty)} dirty-responsible copies")
    return problems


def reference_check_value(view):
    problems = []
    for addr, (copies, mem) in sorted(view.items()):
        if not copies:
            continue
        values = {bytes(c.data) if isinstance(c.data, (bytes, bytearray)) else c.data
                  for c in copies}
        if len(values) > 1:
            problems.append(f"line {addr:#x}: valid copies disagree")
            continue
        if all(not c.state.is_dirty for c in copies):
            memval = bytes(mem) if isinstance(mem, (bytes, bytearray)) else mem
            if values != {memval}:
                problems.append(f"line {addr:#x}: clean copies differ from memory")
    return problems


def test_checks_match_sort_first_reference_on_unsorted_view():
    # several violating lines inserted out of address order, 1-copy lines,
    # a line with two problems, bytes and bytearray data next to the
    # explorer's plain ints
    unsorted = {
        0x130: ([CopyView(0, M, b"\x01"), CopyView(1, O, bytearray(b"\x02"))], b"\x00"),
        0x100: ([CopyView(2, E, 7)], 3),
        0x120: ([CopyView(0, S, bytearray(b"\x05")), CopyView(1, S, b"\x05")], b"\x05"),
        0x110: ([CopyView(1, S, 1), CopyView(0, E, 1), CopyView(2, S, 1)], 0),
        0x140: ([], 0),
        0x0F0: ([CopyView(3, O, 4), CopyView(1, M, 4)], 4),
    }
    assert check_swmr(unsorted) == reference_check_swmr(unsorted)
    assert check_value(unsorted) == reference_check_value(unsorted)
    assert len(check_swmr(unsorted)) == 5 and len(check_value(unsorted)) == 3


_bits = st.sampled_from([b"\x00", b"\x01"])
_data = st.one_of(st.integers(0, 2), _bits, _bits.map(bytearray))
_copy = st.builds(CopyView, st.integers(0, 3), st.sampled_from([M, O, E, S]), _data)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 15).map(lambda i: 0x100 + 0x10 * i),
              st.lists(_copy, max_size=4),
              _data),
    max_size=8, unique_by=lambda line: line[0],
))
def test_checks_match_sort_first_reference(lines):
    view = {addr: (copies, mem) for addr, copies, mem in lines}
    assert check_swmr(view) == reference_check_swmr(view)
    assert check_value(view) == reference_check_value(view)


# -- explorer basics ---------------------------------------------------------------

def test_single_load_structural_lower_bound():
    result = explore([[("R", X)], []], ExploreConfig(n_cores=2))
    assert result.reachable_states >= 3  # pre-issue, in-flight, installed
    assert result.violations == []
    assert result.exhausted


def test_explorer_bounds_enforced():
    with pytest.raises(ValueError):
        explore([[("R", X)]] * 5, ExploreConfig(n_cores=2))
    with pytest.raises(ValueError):
        explore([[("R", a) for a in (0x1, 0x2, 0x3)], []], ExploreConfig(n_cores=2))
    with pytest.raises(ValueError):
        explore([[("R", X)] * 7, []], ExploreConfig(n_cores=2))


@pytest.mark.parametrize("n_cores", [0, 1, 5])
def test_explore_config_rejects_cores_outside_two_to_four(n_cores):
    with pytest.raises(ValueError, match="2 to 4 cores"):
        ExploreConfig(n_cores=n_cores)


@pytest.mark.parametrize("field", ["state_budget", "wb_depth", "collision_capacity",
                                   "dcache_capacity"])
@pytest.mark.parametrize("value", [0, -1])
def test_explore_config_rejects_bounds_below_one(field, value):
    with pytest.raises(ValueError, match=f"{field}: {value} must be >= 1"):
        ExploreConfig(**{field: value})


def test_explore_config_accepts_bounds_of_one():
    cfg = ExploreConfig(wb_depth=1, collision_capacity=1, dcache_capacity=1)
    assert explore([[("R", X)], []], cfg).ok
    assert not explore([[("R", X)], []], ExploreConfig(state_budget=1)).exhausted


def test_explore_rejects_fewer_than_one_worker():
    with pytest.raises(ValueError, match="workers"):
        explore([[("R", X)], []], ExploreConfig(n_cores=2), workers=0)


def test_litmus_core_outside_config_is_rejected():
    (three_core,) = parse_litmus("test t\ncore 0: W x=1\ncore 2: R x\n")
    with pytest.raises(ValueError, match=r"core\(s\) \[2\] outside the 2 configured"):
        run_litmus(three_core, ExploreConfig(n_cores=2))
    assert run_litmus(three_core, ExploreConfig(n_cores=3))["exhausted"]
    # a forbid atom names a core too
    (far_atom,) = parse_litmus("test u\ncore 0: W x=1\ncore 1: R x\nforbid 3:r0=1\n")
    with pytest.raises(ValueError, match=r"litmus test u: core\(s\) \[3\] outside the 2"):
        run_litmus(far_atom, ExploreConfig(n_cores=2))
    # at 4 cores that core exists but runs no op, so it has no register
    with pytest.raises(ValueError, match=r"register\(s\) \['3:r0'\] read by no op"):
        run_litmus(far_atom, ExploreConfig(n_cores=4))


def test_litmus_register_no_op_reads_is_rejected():
    # core 1 has one read, so only its r0 exists; core 0 only writes
    for atom in ("1:r7=5", "1:r1=0", "0:r0=1", "1:r-1=5"):
        (test,) = parse_litmus(f"test t\ncore 0: W x=1\ncore 1: R x\nforbid 1:r0=1 {atom}\n")
        reg = atom.partition("=")[0]
        with pytest.raises(ValueError, match=rf"litmus test t: register\(s\) \['{reg}'\] read by no"):
            run_litmus(test, ExploreConfig(n_cores=2))
    (named,) = parse_litmus("test n\ncore 0: W x=1\ncore 1: R x -> ra; R x -> rb\n"
                            "forbid 1:ra=1 1:rb=0\n")
    assert run_litmus(named, ExploreConfig(n_cores=2))["forbidden_seen"] == 0


def test_litmus_memory_atom_on_an_address_nothing_uses_is_rejected():
    # y is named by no op and no init: it would read the zero fill, so
    # `forbid y=0` would always fire and `forbid y=1` never
    for value in (0, 1):
        (test,) = parse_litmus(f"test t\ncore 0: W x=1\ncore 1: R x\nforbid y={value}\n")
        with pytest.raises(ValueError,
                           match=r"litmus test t: address\(es\) \['0x110'\] named by no op or init"):
            run_litmus(test, ExploreConfig(n_cores=2))
    # an init, or any op on it, names it
    for text in ("init y=0\ncore 0: W x=1\ncore 1: R x\n", "core 0: W x=1\ncore 1: R x; R y\n"):
        (test,) = parse_litmus(f"test n\n{text}forbid y=1\n")
        assert run_litmus(test, ExploreConfig(n_cores=2))["forbidden_seen"] == 0


# SB, MP, LB, WRC and IRIW, kept out of COHERENCE_LITMUS: they state that
# the cluster is sequentially consistent, they do not detect a fault
SC_LITMUS = parse_litmus((Path(__file__).parent / "data" / "sc_litmus.txt").read_text())


def test_the_sc_litmus_file_holds_the_five_shapes():
    assert [t.name for t in SC_LITMUS] == ["SB", "MP", "LB", "WRC", "IRIW"]
    assert not {t.name for t in SC_LITMUS} & {t.name for t in COHERENCE_LITMUS}


@pytest.mark.parametrize("test", SC_LITMUS, ids=lambda t: t.name)
def test_no_sc_litmus_shape_reaches_its_forbidden_outcome(test):
    n_cores = max(test.programs) + 1  # the cores the shape names
    programs = [test.programs.get(core, ()) for core in range(n_cores)]
    for coherent_ifetch in (False, True):
        for capacity in (1, 8):
            cfg = ExploreConfig(n_cores=n_cores, coherent_ifetch=coherent_ifetch,
                                collision_capacity=capacity)
            result = run_litmus(test, cfg)
            assert result["exhausted"] and not result["violations"]
            assert result["forbidden_seen"] == 0
            assert set(result["observed_outcomes"]) == sc_outcomes(programs, test.init or None)


def test_violations_name_each_line_with_identical_contents():
    # both lines reach the same copies, memory and ghost values; each one's
    # SWMR break must be reported under its own address
    prog = [[("R", X), ("R", Y)], [("R", X), ("R", Y)]]
    cfg = ExploreConfig(mutations=frozenset({"snoopee:E:ReadShared:keep"}))
    details = {v.detail for v in explore(prog, cfg).violations}
    assert details == {
        f"line {addr:#x}: unique copy on core 0 coexists with 1 other cop(y/ies)"
        for addr in (X, Y)
    }


def test_explorer_determinism_across_runs_and_workers():
    prog = [[("R", X), ("W", X, 1)], [("R", X), ("W", X, 2)]]
    results = [
        explore(prog, ExploreConfig(n_cores=2), workers=w).reachable_states
        for w in (1, 1, 2, 3, 7)
    ]
    assert len(set(results)) == 1


def test_racing_upgrades_clean_with_reissue_rule():
    prog = [[("R", X), ("W", X, 1)], [("R", X), ("W", X, 2)]]
    result = explore(prog, ExploreConfig(n_cores=2))
    assert result.violations == []


def test_reissue_rule_negative_control():
    # with the rule disabled, an upgrade whose copy a racing store's snoop
    # took enters as CleanUnique and completes without a local copy
    prog = [[("R", X), ("W", X, 1)], [("R", X), ("W", X, 2)]]
    result = explore(
        prog, ExploreConfig(n_cores=2, mutations=frozenset({"reissue:disabled"}))
    )
    assert any(v.trace and "CleanUnique completed without a local copy" in v.detail
               for v in result.violations)


def test_machine_tables_are_derived_from_protocol():
    # every int table of the explorer decodes back to the rows of
    # protocol.TABLES, clean and under each shipped mutation
    prog = [[("W", X, 1)], [("W", X, 2)]]
    for ids in [frozenset()] + [frozenset({m}) for m in SHIPPED_MUTATIONS]:
        tables = TABLES.mutated(ids)
        machine = _Machine(prog, ExploreConfig(n_cores=2, mutations=ids))
        for s, state in enumerate(_STATES):
            for o, op in enumerate(_OPS):
                hit, code = machine.initiator[s][o]
                action = Hit(_STATES[code]) if hit else Issue(_KINDS[code])
                assert action == tables.initiator[state, op]
            for i, istate in enumerate(_STATES):
                for k, kind in enumerate(_KINDS[1:], start=1):
                    dnext, inext, data, dirty, shared, value_at = machine.probe[s][i][k]
                    # the data source as its value slot's offset from the dcache slot
                    source = {0: None, 1: "d", 3: "i"}[value_at]
                    row = (_STATES[dnext], _STATES[inext], SnoopResponse(data, dirty, shared),
                           source)
                    assert row == tables.probe[state, istate, kind]
        assert {
            (_KINDS[k], shared, dirty, store): _STATES[final]
            for (k, shared, dirty, store), final in machine.completion.items()
        } == dict(tables.completion)
        assert machine.reissue[0] == 0  # no miss
        assert machine.carries_data == tuple(k in DATA_KINDS for k in _KINDS)
        for k, kind in enumerate(_KINDS[1:], start=1):
            assert _KINDS[machine.reissue[k]] is tables.reissue[kind]
    with pytest.raises(ValueError, match="unknown mutation"):
        TABLES.mutated({"reissue:sometimes"})


@pytest.fixture
def patched_row(monkeypatch):
    """Patch one row of the table set every engine reads, for the timed
    models (`protocol.TABLES`) and the explorer (its int-coded copy)."""

    def patch(table, key, row):
        rows = {f.name: dict(getattr(TABLES, f.name)) for f in fields(Tables)}
        rows[table][key] = row
        tables = Tables(**rows)
        monkeypatch.setattr(protocol, "TABLES", tables)
        monkeypatch.setattr(verify, "TABLES", tables)
        _coded_tables.cache_clear()
        return tables

    yield patch
    _coded_tables.cache_clear()  # the clean rows again once the patch is undone


def test_a_store_completion_installs_its_completion_row(patched_row):
    # a lone store misses from Invalid with ReadUnique, and no snoopee
    # answers shared or dirty: its completion row is (ReadUnique, 0, 0, 1)
    patched_row("completion", (CoherentKind.READ_UNIQUE, 0, 0, 1), LineState.EXCLUSIVE)
    sim = build(SimConfig())
    sim.run([[CoreOp(OpKind.STORE, X, value=1)], []])
    assert sim.caches[0].lookup(X).state is E
    machine = _Machine([[("W", X, 1)], []], ExploreConfig(n_cores=2))
    pos = machine.dpos[0][0]
    completions = [succ[pos] for state in _reachable(machine)
                   for label, succ, _note in machine.successors(state) if label[0] == _COMPLETE]
    assert completions == [_E]


def test_budget_exhaustion_is_flagged():
    prog = [[("W", X, 1), ("W", Y, 2)], [("W", Y, 3), ("W", X, 4)]]
    result = explore(prog, ExploreConfig(n_cores=2, state_budget=10))
    assert not result.exhausted


def test_writeback_pressure_with_depth_one_fifo():
    cfg = ExploreConfig(n_cores=2, dcache_capacity=1, wb_depth=1)
    prog = [[("W", X, 1), ("W", Y, 2), ("R", X)], [("R", Y), ("W", X, 3)]]
    result = explore(prog, cfg)
    assert result.violations == []  # back-pressure never loses data
    assert result.exhausted


def test_counterexample_traces_are_numbered_steps():
    result = explore(
        [[("W", X, 1)], [("R", X), ("R", X)]],
        ExploreConfig(n_cores=2, mutations=frozenset({"snoopee:M:ReadShared:drop_dirty"})),
    )
    assert result.violations
    trace = next(v.trace for v in result.violations if v.trace)
    assert trace[0].startswith("1. ")


# -- value codes: states store an index into the machine's value table -------------

def test_outcomes_keep_negative_and_large_values():
    prog = [[("W", X, -5), ("R", Y)], [("W", X, 10**9), ("R", X)]]
    result = explore(prog, ExploreConfig(n_cores=2), init_mem={Y: 7})
    assert result.violations == [] and result.exhausted
    assert result.outcomes == {
        (((7,), (10**9,)), ((X, 10**9), (Y, 7))),  # core 0's store came first
        (((7,), (10**9,)), ((X, -5), (Y, 7))),     # core 1 read before core 0 stored
        (((7,), (-5,)), ((X, -5), (Y, 7))),        # core 0 stored between
    }


def test_data_messages_name_the_stored_value():
    result = explore(
        [[("W", X, 300)], [("R", X)]],
        ExploreConfig(n_cores=2, mutations=frozenset({"snoopee:M:ReadShared:drop_dirty"})),
    )
    assert any("300" in v.detail and ("stale" in v.detail or "lost the last write" in v.detail)
               for v in result.violations)


def _reachable(machine):
    frontier, seen = [machine.initial()], set()
    while frontier:
        state = frontier.pop()
        assert type(state) is bytes
        if state not in seen:
            seen.add(state)
            frontier.extend(succ for _label, succ, _note in machine.successors(state))
    return seen


def test_machine_states_are_bytes():
    machine = _Machine([[("W", X, 1), ("R", Y)], [("R", X), ("W", Y, 2), ("R", X)]],
                       ExploreConfig(n_cores=2, dcache_capacity=1))
    assert len(_reachable(machine)) > 100


def test_explore_memory_stays_small():
    # the racing program's seen set of 1-byte-per-field states, its
    # breadth-first order and parent indices peak near 1.13 MB for the
    # 6,180 states of its full search (0.45 MB for its 2,734 reduced
    # states; a tuple per state took 6.7 MB for 10,661 states); 2 MB leaves
    # room for allocator and interpreter differences and still fails on a
    # return to tuple states
    tracemalloc.start()
    try:
        with full_search():
            result = explore(RACING_SHAPES[0], ExploreConfig(n_cores=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exhausted
    assert peak < 2 * 2**20


# -- partial-order reduction ------------------------------------------------------------

@st.composite
def _reduction_cases(draw):
    """A program of 2-4 cores over one or two lines and a config to run it."""
    n_cores = draw(st.integers(2, 4))
    lines = (X, Y)[:draw(st.integers(1, 2))]
    value = iter(range(1, 100))
    op = st.tuples(st.sampled_from(("R", "W", "IF")), st.sampled_from(lines))
    programs = [[("W", addr, next(value)) if verb == "W" else (verb, addr)
                 for verb, addr in draw(st.lists(op, max_size=3 if n_cores < 4 else 2))]
                for _ in range(n_cores)]
    cfg = ExploreConfig(
        n_cores=n_cores,
        coherent_ifetch=draw(st.booleans()),
        dcache_capacity=draw(st.sampled_from((1, None))),
        wb_depth=draw(st.integers(1, 2)),
        collision_capacity=draw(st.integers(1, 8)),
        mutations=frozenset(draw(st.lists(st.sampled_from(SHIPPED_MUTATIONS), max_size=1))),
        state_budget=20_000,  # bounds the time of a rare large full search
    )
    init_mem = draw(st.sampled_from((None, {X: 9})))
    return programs, cfg, init_mem


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_reduction_cases())
def test_both_reductions_keep_every_verdict(case):
    with full_search():
        full = explore(*case)
    assume(full.exhausted)
    reduced = explore(*case)
    assert verdict(reduced) == verdict(full)
    assert reduced.reachable_states <= full.reachable_states
    programs, cfg, init_mem = case
    if in_sc_scope(programs, cfg):
        assert reduced.outcomes == sc_outcomes(programs, init_mem)


@pytest.fixture(scope="module")
def drop_dirty():
    """(reduced machine, full machine, states the reduced machine reaches)
    per program of the battery, the twin-line shapes and the racing
    shapes, under a mutation that makes both rules fire often."""
    mutation = "snoopee:M:ReadShared:drop_dirty"
    racing = [(shape, ExploreConfig(n_cores=3, mutations=frozenset({mutation})))
              for shape in RACING_SHAPES]
    out = []
    for programs, cfg in _mutation_cases(mutation) + racing:
        with full_search():
            full = _Machine(programs, cfg)
        machine = _Machine(programs, cfg)
        out.append((machine, full, _reachable(machine)))
    return out


def _changed(state, succ):
    return [i for i, (a, b) in enumerate(zip(state, succ)) if a != b]


def test_a_fold_is_the_snoops_that_find_no_copy(drop_dirty):
    # an accept or a completion clears exactly the silent bits of the
    # unfolded step, each one a snoop that changes only its bit of the
    # initiator's mask, and running those snoops gives the folded state
    folded = 0
    for machine, full, states in drop_dirty:
        for state in states:
            for label, succ, note in full.successors(state):
                if label[0] not in (_ACCEPT, _COMPLETE):
                    continue
                step = (machine._accept if label[0] == _ACCEPT else machine._complete)(
                    state, label[1])
                assert step[0] == label and step[2] == note and len(step[1]) == len(succ)
                for core, at, _n_ops, _lone in full.dispatch:
                    pending, left = succ[at + _MM], step[1][at + _MM]
                    assert pending & ~left == _silent_bits(full, succ, core) == pending ^ left
                    for j in range(8):
                        if (pending & ~left) >> j & 1:
                            snooped = full._snoop(succ, core, j)[1]
                            assert _changed(succ, snooped) == [at + _MM]
                            succ = snooped
                            folded += 1
                assert succ == step[1]
    assert folded > 1000


def test_a_lone_miss_writes_only_its_miss_kind_and_line(drop_dirty):
    alone = {"R": 0, "W": 0, "IF": 0}
    for machine, full, states in drop_dirty:
        for state in states:
            steps, every = machine.successors(state), full.successors(state)
            if len(steps) != 1 or steps[0][0][0] != _ISSUE or len(every) == 1:
                continue
            label, succ, note = steps[0]
            _issue, core, pc = label
            at = machine.core_at[core]
            verb, addr = machine.programs[core][pc][:2]
            line = machine.addrs.index(addr)
            op = _OP_OF_VERB[verb]
            pos = (machine.ipos if verb == "IF" else machine.dpos)[core][line]
            assert not state[at + _MK] and not state[pos]
            assert verb != "IF" or machine.cfg.coherent_ifetch
            assert set(_changed(state, succ)) <= {at + _MK, at + _ML}
            assert machine.initiator[_I][op] == (False, succ[at + _MK])
            assert (succ[at + _ML], note) == (line, None)
            assert (label, succ, note) in every
            alone[verb] += 1
    assert sum(alone.values()) > 200 and all(alone.values()), alone


def _first_lone_miss(machine, state):
    """The first core, in dispatch order, that is idle and whose next op
    misses from Invalid to the Decoder, or None."""
    for core, at, n_ops, _lone in machine.dispatch:
        pc = state[at + _PC]
        if state[at + _MK] or pc >= n_ops:
            continue
        verb, addr = machine.programs[core][pc][:2]
        if verb == "IF" and not machine.cfg.coherent_ifetch:
            continue
        pos = (machine.ipos if verb == "IF" else machine.dpos)[core][machine.addrs.index(addr)]
        if not state[pos] and not machine.initiator[_I][_OP_OF_VERB[verb]][0]:
            return core
    return None


def test_a_lone_miss_behind_an_earlier_core_records_only_coverage_the_full_search_does(
        drop_dirty):
    # `successors` may build steps of earlier cores before it meets the
    # lone miss and returns it alone. Those dropped steps may only record
    # coverage pairs that the full search records in the same state or,
    # for the snoops an accept or eviction folds, one step later
    behind = 0
    for machine, full, states in drop_dirty:
        for state in states:
            core = _first_lone_miss(machine, state)
            every = full.successors(state)
            if core is None or not any(label[0] != _DRAIN and label[1] < core
                                       for label, _succ, _note in every):
                continue
            pc = state[machine.core_at[core] + _PC]
            assert machine.successors(state) == [
                step for step in every if step[0] == (_ISSUE, core, pc)]
            behind += 1
            # fresh machines, so each records only this state's lookups
            reduced = _Machine(machine.programs, machine.cfg)
            with full_search():
                unreduced = _Machine(machine.programs, machine.cfg)
            reduced.successors(state)
            succs = unreduced.successors(state)
            assert reduced.init_cov <= unreduced.init_cov
            for _label, succ, _note in succs:
                unreduced.successors(succ)
            assert reduced.snoop_cov <= unreduced.snoop_cov
    assert behind > 100, behind


def test_a_non_coherent_ifetch_is_never_taken_alone():
    # its issue reads memory and fills an icache slot in the state tail;
    # with coherent ifetch on, the same program's fetches do go alone
    programs = ((("IF", X), ("IF", X)), (("W", X, 1), ("R", X)))
    for coherent in (False, True):
        cfg = ExploreConfig(coherent_ifetch=coherent)
        machine = _Machine(programs, cfg)
        with full_search():
            full = _Machine(programs, cfg)
        alone = 0
        for state in _reachable(machine):
            steps = machine.successors(state)
            if len(steps) == 1 and steps[0][0][0] == _ISSUE and len(full.successors(state)) > 1:
                _issue, core, pc = steps[0][0]
                alone += machine.programs[core][pc][0] == "IF"
        assert bool(alone) == coherent, (coherent, alone)


# the 4-core program of the README's explorer section
FOUR_CORE_RACING = (
    (("R", X), ("W", X, 2), ("R", Y)),
    (("R", Y), ("W", X, 5), ("R", X)),
    (("W", Y, 7), ("R", X), ("R", Y)),
    (("W", X, 9), ("R", Y), ("R", X)),
)


def _silent_bits(machine, state, core) -> int:
    """The bits of `core`'s pending snoops that are silent: the target has
    no copy in the structures the snoop probes and no op left that, looked
    up from Invalid on the line, hits."""
    at = machine.core_at[core]
    kind, line, mask = state[at + _MK], state[at + _ML], state[at + _MM]
    silent = 0
    for j, (target, probe_d, probe_i) in enumerate(machine.fanout[core][kind] if mask else ()):
        tat = machine.core_at[target]
        copy = (probe_d and state[machine.dpos[target][line]]
                or probe_i and machine.cfg.coherent_ifetch and state[machine.ipos[target][line]])
        later = any(l == line and machine.initiator[_I][op][0]
                    for op, l, _value in machine.ops[target][state[tat + _PC]:])
        if mask >> j & 1 and not (copy or later):
            silent |= 1 << j
    return silent


def test_no_stored_state_has_a_pending_silent_snoop(monkeypatch):
    # an exhaustive search expands every state it stores, so a check in
    # `successors` sees them all; the full search stores such states, so
    # the check can fail
    successors = _Machine.successors
    counts = {"states": 0, "pending": 0}

    def checked(self, state):
        counts["states"] += 1
        counts["pending"] += any(_silent_bits(self, state, core)
                                 for core in range(self.cfg.n_cores))
        return successors(self, state)

    monkeypatch.setattr(_Machine, "successors", checked)
    with full_search():
        explore(RACING_SHAPES[0], ExploreConfig(n_cores=3))
    assert counts["pending"] > 1000
    counts.update(states=0, pending=0)
    for run in CASES.values():
        run()
    explore(FOUR_CORE_RACING, ExploreConfig(n_cores=4))
    assert counts["pending"] == 0 and counts["states"] > 100_000


# each core mixes loads, stores and ifetches on both lines
MIXED_OPS = (
    (("R", X), ("W", Y, 1), ("IF", X)),
    (("IF", Y), ("R", Y), ("W", X, 2)),
    (("W", X, 3), ("IF", X), ("R", Y)),
    (("R", Y), ("IF", Y), ("W", Y, 4)),
)


def _direct_silent(machine, core, kind, line) -> tuple:
    """silent[core][kind][line] derived entry by entry from the fan-out
    and the slot offsets."""
    fanout = machine.fanout[core][kind] if machine.reduced else ()
    entries = []
    for j, (target, probe_d, probe_i) in enumerate(fanout):
        probed = [pos[target][line] for pos, on in ((machine.dpos, probe_d),
                                                    (machine.ipos, probe_i)) if on]
        entries.append((1 << j, probed[0], probed[-1]))
    return tuple(entries)


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("ifetch", [False, True])
@pytest.mark.parametrize("n_cores", [2, 3, 4])
def test_silent_table_matches_a_direct_derivation(monkeypatch, n_cores, ifetch, reduced):
    monkeypatch.setattr(_Machine, "reduced", reduced)
    machine = _Machine(MIXED_OPS[:n_cores], ExploreConfig(n_cores=n_cores, coherent_ifetch=ifetch))
    for core in range(n_cores):
        assert machine.silent[core][0] is None
        for kind in range(1, len(_KINDS)):
            for line in range(len(machine.addrs)):
                assert machine.silent[core][kind][line] == _direct_silent(
                    machine, core, kind, line)
            # kinds of one fan-out share one row
            for other in range(1, kind):
                if machine.fanout[core][other] == machine.fanout[core][kind] or not reduced:
                    assert machine.silent[core][other] is machine.silent[core][kind]


# -- mutations ------------------------------------------------------------------------

@pytest.mark.parametrize("mutation", SHIPPED_MUTATIONS)
def test_every_shipped_mutation_is_caught(mutation):
    report = oracle_tables(mutations=frozenset({mutation}))
    assert not report.ok
    assert report.violations
    assert any(v.trace for v in report.violations)


def _mutation_cases(mutation):
    """(programs, config) of the oracle battery and the twin-line shapes
    under one mutation."""
    ids = frozenset({mutation})
    cases = [(programs, ExploreConfig(n_cores=n, coherent_ifetch=ifetch,
                                      dcache_capacity=capacity, mutations=ids))
             for n, ifetch, capacity, programs in _ORACLE_BATTERY]
    return cases + [(shape, ExploreConfig(mutations=ids)) for shape in TWIN_SHAPES]


def _first_depths(machine):
    """Shortest distance from the initial state to the first sighting of
    each violation: a state that shows an invariant break, or a step that
    carries a stale-data note. A level-by-level search of its own."""
    root = machine.initial()
    depth = {("invariant", p): 0 for p in machine.state_violations(root)}
    level, seen, d = [root], {root}, 0
    while level:
        d, next_level = d + 1, []
        for state in level:
            for _label, succ, note in machine.successors(state):
                if note:
                    depth.setdefault(("stale-data", note), d)
                if succ not in seen:
                    seen.add(succ)
                    next_level.append(succ)
                    for problem in machine.state_violations(succ):
                        depth.setdefault(("invariant", problem), d)
        level = next_level
    return depth


def _replay(machine, trace):
    """Follow a numbered trace by label text; the last state and the last
    step's stale-data note."""
    state, note = machine.initial(), None
    for i, step in enumerate(trace, start=1):
        number, _, text = step.partition(". ")
        assert number == str(i)
        state, note = next((succ, note) for label, succ, note in machine.successors(state)
                           if machine.label_text(label) == text)
    return state, note


@pytest.mark.parametrize("mutation", SHIPPED_MUTATIONS)
def test_traces_replay_to_their_violation_at_the_shortest_depth(mutation):
    traced = 0
    for programs, cfg in _mutation_cases(mutation):
        result = explore(programs, cfg)
        machine = _Machine(programs, cfg)
        depths = _first_depths(machine)
        for v in result.violations:
            if v.kind == "deadlock":
                assert v.trace is None
                continue
            state, note = _replay(machine, v.trace)
            if v.kind == "invariant":
                assert v.detail in machine.state_violations(state)
            else:
                assert v.kind == "stale-data" and note == v.detail
            assert len(v.trace) == depths[v.kind, v.detail]
            traced += 1
    assert traced


@pytest.mark.parametrize("mutation", SHIPPED_MUTATIONS)
def test_oracle_traces_replay_on_the_battery_program_they_name(mutation):
    report = oracle_tables(mutations=frozenset({mutation}))
    traced = 0
    for v in report.violations:
        where = v.program
        n_cores, ifetch, capacity, programs = _ORACLE_BATTERY[where["index"]]
        assert (where["cores"], where["coherent_ifetch"], where["dcache_capacity"]) == (
            n_cores, ifetch, capacity)
        if v.trace is None:
            continue
        machine = _Machine(programs, ExploreConfig(
            n_cores=n_cores, coherent_ifetch=ifetch, dcache_capacity=capacity,
            mutations=frozenset({mutation})))
        state, note = _replay(machine, v.trace)
        if v.kind == "invariant":
            assert v.detail in machine.state_violations(state)
        else:
            assert v.kind == "stale-data" and note == v.detail
        assert v.to_dict()["program"] == where
        traced += 1
    assert traced


@pytest.mark.parametrize("mutation", SHIPPED_MUTATIONS)
def test_explore_searches_the_state_space_once(mutation, monkeypatch):
    # the traces come from the search's parent links: besides one call per
    # reachable state, successors are looked up again once per state on
    # the traces' chains. A trace prefix names one such state (the last
    # step of a stale-data trace leaves its chain)
    calls = 0
    successors = _Machine.successors

    def counted(self, state):
        nonlocal calls
        calls += 1
        return successors(self, state)

    monkeypatch.setattr(_Machine, "successors", counted)
    allowed = 0
    for programs, cfg in _mutation_cases(mutation):
        result = explore(programs, cfg)
        assert result.exhausted
        links = {tuple(v.trace[:n])
                 for v in result.violations if v.trace
                 for n in range(1, len(v.trace) + (v.kind != "stale-data"))}
        allowed += result.reachable_states + len(links)
    assert calls <= allowed


@pytest.mark.parametrize("mutation", SHIPPED_MUTATIONS)
def test_explore_checks_each_distinct_tail_once(mutation, monkeypatch):
    # the invariant checks read only a state's tail, so the search checks
    # one state per distinct tail among the reachable states
    checked = []
    state_violations = _Machine.state_violations

    def counted(self, state):
        checked.append(state[self.tail_at:])
        return state_violations(self, state)

    monkeypatch.setattr(_Machine, "state_violations", counted)
    for programs, cfg in _mutation_cases(mutation):
        checked.clear()
        assert explore(programs, cfg).exhausted
        machine = _Machine(programs, cfg)
        tails = {state[machine.tail_at:] for state in _reachable(machine)}
        assert len(checked) == len(tails) and set(checked) == tails


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError, match="unknown mutation"):
        ExploreConfig(mutations=frozenset({"snoopee:bogus"}))


# -- oracle certification ----------------------------------------------------------------

def test_oracle_tables_certify_clean_protocol():
    report = oracle_tables()
    assert report.ok
    assert not report.violations
    for pair in EXPECTED_INITIATOR_PAIRS:
        assert report.initiator[pair] == "certified"
    for pair in EXPECTED_SNOOPEE_PAIRS:
        assert report.snoopee[pair] == "certified"
    for pair in UNREACHABLE_SNOOPEE_PAIRS:
        assert report.snoopee[pair] == "unreachable-by-design"


def test_oracle_report_table_lines():
    report = oracle_tables()
    lines = report.table_lines()
    assert any("initiator (I, Load): certified" in l for l in lines)
    assert any("snoopee (M, ReadShared): certified" in l for l in lines)


# -- litmus ---------------------------------------------------------------------------------

@pytest.mark.parametrize("n_cores", [2, 3, 4])
@pytest.mark.parametrize("ifetch", [False, True])
@pytest.mark.parametrize("test", COHERENCE_LITMUS, ids=lambda t: t.name)
def test_litmus_suite_all_configs(test, n_cores, ifetch):
    result = run_litmus(test, ExploreConfig(n_cores=n_cores, coherent_ifetch=ifetch))
    assert result["forbidden_seen"] == 0
    assert result["violations"] == []
    assert result["exhausted"]


def test_litmus_coww_final_value_is_last_write():
    result = run_litmus(COHERENCE_LITMUS[0], ExploreConfig(n_cores=2))
    finals = {dict(mem)[X] for _regs, mem in result["observed_outcomes"]}
    assert finals == {2}


def test_litmus_corr_observes_other_legal_outcomes():
    result = run_litmus(COHERENCE_LITMUS[1], ExploreConfig(n_cores=2))
    reads = {regs[1] for regs, _mem in result["observed_outcomes"]}
    assert (0, 0) in reads and (1, 1) in reads and (0, 1) in reads
    assert (1, 0) not in reads


def test_upgrade_litmus_catches_surviving_sharers_under_mutation():
    # an upgrade-shaped variant of CoRR: the writer holds the line Shared
    # first, so the store goes out as CleanUnique and a snoopee that
    # ignores it keeps a stale copy
    prog = [[("R", X), ("W", X, 1)], [("R", X), ("R", X)]]
    result = explore(
        prog,
        ExploreConfig(n_cores=2, mutations=frozenset({"snoopee:S:CleanUnique:keep"})),
    )
    assert result.violations
    assert any("stale" in v.detail for v in result.violations)


def test_self_modifying_code_litmus_with_coherent_ifetch():
    prog = [[("W", X, 1), ("W", X, 2)], [("IF", X), ("IF", X)]]
    result = explore(prog, ExploreConfig(n_cores=2, coherent_ifetch=True))
    assert result.violations == []  # icache copies always track the writer
    stale_then_fresh = {regs[1] for regs, _ in result.outcomes}
    assert all(a <= b for a, b in stale_then_fresh)  # fetches never go backwards


def test_noncoherent_ifetch_permits_staleness():
    prog = [[("W", X, 1), ("W", X, 2)], [("IF", X), ("IF", X)]]
    result = explore(prog, ExploreConfig(n_cores=2, coherent_ifetch=False))
    assert result.violations == []
    assert any(regs[1][1] < 2 and dict(mem)[X] == 2 for regs, mem in result.outcomes)


# -- litmus file parsing -------------------------------------------------------------------

LITMUS_TEXT = """
# classic coherence shapes
test my-corr
init x=0
core 0: W x=1
core 1: R x -> r0 ; R x -> r1
forbid 1:r0=1 1:r1=0

test my-coww
core 0: W x=1 ; W x=2
forbid x=1
"""


def test_parse_litmus_file():
    tests = parse_litmus(LITMUS_TEXT)
    assert [t.name for t in tests] == ["my-corr", "my-coww"]
    corr, coww = tests
    assert corr.programs[1] == (("R", 0x100), ("R", 0x100))
    assert corr.forbidden == ((((("reg", 1, 0)), 1), ((("reg", 1, 1)), 0)),)
    for test in tests:
        result = run_litmus(test, ExploreConfig(n_cores=2))
        assert result["forbidden_seen"] == 0


@pytest.mark.parametrize("ops", ["R", "IF", "R x y", "R x -> r0 junk", "IF x ->",
                                 "W =1", "W x=1 junk", "W", "W x=", "W x y=1", "W x=one",
                                 "W x==1"])
def test_parse_litmus_refuses_a_malformed_read(ops):
    verb = ops.split()[0]
    shape = "<sym>=<val>" if verb == "W" else "<sym> [-> r<k>]"
    message = f"litmus line 3: expected '{verb} {shape}', got '{ops}'"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_litmus(f"test t\ncore 0: W x=1\ncore 1: {ops}\n")


@pytest.mark.parametrize("write", ["W x=2", "W x = 2", "W x =2", "W x= 0x2"])
def test_parse_litmus_reads_a_write_with_or_without_spaces(write):
    (test,) = parse_litmus(f"test t\ninit x = 0\ncore 0: {write}\ncore 1: R x\n")
    assert test.init == {0x100: 0}
    assert test.programs[0] == (("W", 0x100, 2),)


def test_parse_litmus_splits_a_head_on_any_whitespace():
    (test,) = parse_litmus("test\tt\ncore\t0:\tR x\nforbid\t0:r0 =\t1\n")
    assert test == LitmusTest("t", programs={0: (("R", 0x100),)},
                              forbidden=(((("reg", 0, 0), 1),),))


def test_parse_litmus_reads_the_widest_word_anywhere_a_value_goes():
    (test,) = parse_litmus("test t\ninit x=0xFFFFFFFF\ncore 0: W x=4294967295 ; R x\n"
                           "forbid 0:r0=0xFFFFFFFF x=0\n")
    assert test.init == {0x100: 0xFFFFFFFF}
    assert test.programs[0] == (("W", 0x100, 0xFFFFFFFF), ("R", 0x100))
    assert test.forbidden == (((("reg", 0, 0), 0xFFFFFFFF), (("mem", 0x100), 0)),)


def test_parse_litmus_reads_a_named_register():
    (test,) = parse_litmus("test t\ncore 0: R x ; IF x -> r9\nforbid 0:r9=1\n")
    assert test.programs[0] == (("R", 0x100), ("IF", 0x100))
    assert test.forbidden == (((("reg", 0, 1), 1),),)


@pytest.mark.parametrize("programs, init, message", [
    ({0: (("W", X, 1), ("W", Y, 2)), 1: (("R", X + 0x20),)}, {},
     "3 line addresses, over the explorer bound of 2"),
    ({0: (("R", X),), 1: (("R", Y),)}, {X + 0x20: 1},
     "3 line addresses, over the explorer bound of 2"),
    ({0: (("R", X),) * (MAX_OPS_PER_CORE + 1)}, {},
     f"{MAX_OPS_PER_CORE + 1} ops on a core, over the explorer bound of {MAX_OPS_PER_CORE}"),
])
def test_check_litmus_refuses_a_test_over_the_explorer_bound(programs, init, message):
    test = LitmusTest("big", programs=programs, init=init)
    with pytest.raises(ValueError, match=re.escape(f"litmus test big: {message}")):
        check_litmus(test, n_cores=2)
    # the explorer refuses the same programs by the same bound
    with pytest.raises(ValueError, match="explorer bound"):
        explore([programs.get(c, ()) for c in range(2)], ExploreConfig(), init_mem=init)


def test_check_litmus_accepts_a_test_at_the_explorer_bound():
    ops = (("W", X, 1), ("R", Y)) * (MAX_OPS_PER_CORE // 2)
    assert len({op[1] for op in ops}) == MAX_LINES and len(ops) == MAX_OPS_PER_CORE
    check_litmus(LitmusTest("edge", programs={0: ops}), n_cores=2)


def test_parse_litmus_hex_value_is_reported_when_forbidden():
    (test,) = parse_litmus("test big\ncore 0: W x=0x1234\ncore 1: R x -> r0\n"
                           "forbid 1:r0=0x1234\n")
    result = run_litmus(test, ExploreConfig(n_cores=2))
    assert result["forbidden_seen"] == 1
    assert {w["regs"] for w in result["witnesses"]} == {((), (0x1234,))}


def test_parse_litmus_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_litmus("test t\ncore 0: Q x=1\n")


_NAMES = st.text("abrxyz_.0123456789", min_size=1, max_size=3)
_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_GAP = st.sampled_from([" ", "  ", "\t", " \t "])  # spacing that must hold whitespace
_WORD = st.integers(0, 2 ** 32 - 1)


@st.composite
def _litmus_tests(draw):
    """A small litmus test and its text, with random spacing around each
    `=`, `;` and `->`: 1-3 cores, up to 6 ops, one or two symbols."""
    syms = draw(st.lists(_NAMES, min_size=1, max_size=2, unique=True))
    addresses = {}

    def address(sym):  # symbols take lines in order of first use in the text
        return addresses.setdefault(sym, 0x100 + 0x10 * len(addresses))

    def assign(name, value):
        return f"{name}{draw(_SPACE)}={draw(_SPACE)}{draw(st.sampled_from([str, hex]))(value)}"

    lines = [f"test{draw(_GAP)}t"]
    init = {}
    for sym in draw(st.lists(st.sampled_from(syms), max_size=2, unique=True)):
        init[address(sym)] = value = draw(_WORD)
        lines.append(f"init{draw(_GAP)}{assign(sym, value)}")
    cores = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    budget = draw(st.integers(0, 6))
    programs, registers = {}, {}  # registers: (core, name) -> read index
    for core in cores:
        ops, texts = [], []
        for _ in range(draw(st.integers(0, budget))):
            verb, sym = draw(st.sampled_from(["W", "R", "IF"])), draw(st.sampled_from(syms))
            if verb == "W":
                value = draw(_WORD)
                ops.append(("W", address(sym), value))
                texts.append(f"W{draw(_GAP)}{assign(sym, value)}")
                continue
            texts.append(f"{verb}{draw(_GAP)}{sym}")
            reg = draw(st.one_of(st.none(), _NAMES))
            if reg is not None and (core, reg) not in registers:
                registers[core, reg] = sum(op[0] != "W" for op in ops)
                texts[-1] += f"{draw(_GAP)}->{draw(_GAP)}{reg}"
            ops.append((verb, address(sym)))
        budget -= len(ops)
        programs[core] = tuple(ops)
        body = f"{draw(_SPACE)};{draw(_SPACE)}".join(texts)
        lines.append(f"core{draw(_GAP)}{core}{draw(_SPACE)}:{draw(_SPACE)}{body}")
    forbidden = []
    for _ in range(draw(st.integers(0, 2))):
        atoms, texts = [], []
        for _ in range(draw(st.integers(1, 3))):
            value = draw(_WORD)
            if draw(st.booleans()):
                sym = draw(st.sampled_from(syms))
                atoms.append((("mem", address(sym)), value))
                texts.append(assign(sym, value))
                continue
            # a name bound on the core, or `r<k>`: the k-th read unless bound
            core, k = draw(st.sampled_from(cores)), draw(st.integers(0, 3))
            reg = draw(st.sampled_from([name for c, name in registers if c == core] + [f"r{k}"]))
            atoms.append((("reg", core, registers.get((core, reg), k)), value))
            texts.append(assign(f"{core}:{reg}", value))
        forbidden.append(tuple(atoms))
        lines.append(f"forbid{draw(_GAP)}{draw(_GAP).join(texts)}")
    return "\n".join(lines) + "\n", LitmusTest("t", programs, init, tuple(forbidden))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_litmus_tests())
def test_parse_litmus_reads_back_the_test_it_is_given(case):
    text, test = case
    assert parse_litmus(text) == [test]


_SHIPPED_LITMUS = [(Path(__file__).parent / "data" / "sc_litmus.txt").read_text(), LITMUS_TEXT]


@st.composite
def _mutated_litmus(draw):
    """A shipped litmus text after a few character edits."""
    text = draw(st.sampled_from(_SHIPPED_LITMUS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        new = draw(st.sampled_from(list(" \t\n=;:#->rxyRWIF019") + ["", "forbid", "test a"]))
        text = text[:at] + new + text[at + draw(st.integers(0, 2)):]
    return text


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_litmus())
def test_parse_litmus_returns_or_refuses_by_line(text):
    try:
        parse_litmus(text)
    except ValueError as exc:
        assert str(exc).startswith("litmus line ")


def test_a_data_less_pass_dirty_snoop_leaves_the_initiator_copy_as_it_was():
    # core 1 writes the line (Modified), core 0 reads it (Shared, core 1
    # Owned) and then writes it: the CleanUnique's snoop strips core 1
    # with PassDirty and no data, which only sets the miss's dirty flag
    machine = _Machine([[("R", X), ("W", X, 2)], [("W", X, 1)]], ExploreConfig(n_cores=2))
    at, pos = machine.core_at[0], machine.dpos[0][0]
    handoffs = 0
    for state in _reachable(machine):
        for label, succ, _note in machine.successors(state):
            if (label[0] == _SNOOP and label[1] == 0 and not succ[at + _MD]
                    and succ[at + _MF] & ~state[at + _MF] & _ANY_DIRTY):
                assert succ[pos:pos + 2] == state[pos:pos + 2] and _STATES[state[pos]] is S
                handoffs += 1
    assert handoffs
