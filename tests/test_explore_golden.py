"""Golden explorer results: state counts, coverage and digests of the
outcomes and violations (with traces) for a fixed set of cases.

Every case runs twice. The full search (`full_search()`: neither
partial-order rule of `_Machine.reduced` applies) must match the pinned
`states`, `exhausted`, coverage pairs and `digest`, so any change to the
explorer's internals keeps the explored machine itself identical. The
default, reduced search must match the `reduced_states` and
`reduced_digest` columns, and on every exhausted case it must reach the
full search's outcomes, violation kinds and details, coverage pairs and
`exhausted` flag. After a change to the reduction, rewrite the
`reduced_*` columns with `PYTHONPATH=src python
tests/test_explore_golden.py --regen`; it prints every column that
moves as old -> new, then the reduced and full state totals over all
cases, and stops, naming the cases, if any full-search column would
change. After an intended change to the explored model,
pass `--regen-full` instead.
"""
import hashlib
import json
import random
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from culsim.verify import (
    COHERENCE_LITMUS,
    SHIPPED_MUTATIONS,
    ExploreConfig,
    OracleReport,
    _Machine,
    explore,
    oracle_tables,
)
from sc_reference import in_sc_scope, sc_outcomes

DATA = Path(__file__).with_name("data") / "explore_golden.json"

X, Y = 0x100, 0x110

# the two racing shapes the benchmark relabels per seed
RACING_SHAPES = (
    ((("R", X), ("W", X, 2), ("R", Y)),
     (("R", Y), ("W", X, 5), ("R", X)),
     (("W", Y, 7), ("R", X), ("R", Y))),
    ((("R", Y), ("R", X), ("R", X)),
     (("W", X, 4), ("R", Y), ("R", Y)),
     (("W", X, 7), ("W", X, 8), ("R", X))),
)

# two lines whose slots are identical in many states (same ops, same
# values): a per-line cache of checks must still report each line's address
TWIN_SHAPES = (
    ((("R", X), ("R", Y)), (("R", X), ("R", Y))),
    ((("W", X, 3), ("W", Y, 3)), (("R", Y), ("R", X))),
)

N_RANDOM = 30


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _violations(violations):
    return [[v.kind, v.detail, v.trace] for v in violations]


def _pairs(pairs):
    return sorted([s.value, k.value] for s, k in pairs)


@contextmanager
def full_search():
    """Explore the unreduced graph, every enabled step of every state, in
    the machines built inside the block."""
    _Machine.reduced = False
    try:
        yield
    finally:
        _Machine.reduced = True


def _summary(result) -> dict:
    if isinstance(result, OracleReport):
        return {
            "states": result.reachable_states,
            "ok": result.ok,
            "digest": _digest({"tables": result.table_lines(),
                               "violations": _violations(result.violations)}),
        }
    return {
        "states": result.reachable_states,
        "exhausted": result.exhausted,
        "initiator_pairs": _pairs(result.initiator_pairs),
        "snoopee_pairs": _pairs(result.snoopee_pairs),
        "digest": _digest({"outcomes": sorted(result.outcomes),
                           "violations": _violations(result.violations)}),
    }


def verdict(result):
    """What the reduction must keep: everything but state counts and the
    steps inside traces. The oracle's table lines are its coverage."""
    found = sorted((v.kind, v.detail) for v in result.violations)
    if isinstance(result, OracleReport):
        return result.ok, result.table_lines(), found
    return (result.exhausted, sorted(result.outcomes), found,
            _pairs(result.initiator_pairs), _pairs(result.snoopee_pairs))


def run_case(run):
    """(full search result, reduced search result, golden row) of a case."""
    with full_search():
        full = run()
    reduced = run()
    row = _summary(full)
    summary = _summary(reduced)
    row["reduced_states"], row["reduced_digest"] = summary["states"], summary["digest"]
    return full, reduced, row


def _random_case(seed):
    """A small random program and config; drawn from `seed` alone."""
    rng = random.Random(seed)
    n_cores = rng.choice((2, 3))
    lines = (X, Y)[:rng.choice((1, 2))]
    value = iter(range(1, 100))
    programs = []
    for _ in range(n_cores):
        ops = []
        for _ in range(rng.randint(0, 3)):
            verb, addr = rng.choice(("R", "W", "IF")), rng.choice(lines)
            ops.append(("W", addr, next(value)) if verb == "W" else (verb, addr))
        programs.append(ops)
    cfg = ExploreConfig(
        n_cores=n_cores,
        coherent_ifetch=rng.random() < 0.5,
        dcache_capacity=rng.choice((1, None)),
        wb_depth=rng.choice((1, 1, 2)),
        collision_capacity=rng.choice((1, 8, 8)),
        mutations=frozenset(rng.sample(SHIPPED_MUTATIONS, 1) if rng.random() < 0.3 else ()),
    )
    init_mem = {X: 9} if rng.random() < 0.2 else None
    return programs, cfg, init_mem


def explore_inputs():
    """(programs, config, init_mem) of every case that runs `explore`."""
    out = {}
    for test in COHERENCE_LITMUS:
        for n in (2, 3, 4):
            for ifetch in (False, True):
                programs = [test.programs.get(c, ()) for c in range(n)]
                cfg = ExploreConfig(n_cores=n, coherent_ifetch=ifetch)
                out[f"litmus/{test.name}/{n}/{int(ifetch)}"] = (programs, cfg, test.init or None)
    for i, shape in enumerate(RACING_SHAPES):
        out[f"racing/{i}"] = (shape, ExploreConfig(n_cores=3), None)
    for i, shape in enumerate(TWIN_SHAPES):
        for m in ("clean",) + SHIPPED_MUTATIONS:
            cfg = ExploreConfig(mutations=frozenset(() if m == "clean" else (m,)))
            out[f"twin/{i}/{m}"] = (shape, cfg, None)
    # a budget cut keeps the first states in breadth-first order and their
    # coverage; at 2,000 of 6,180 states it reaches no final state. The
    # two searches cut different graphs, so only its columns are pinned
    out["racing/0/budget"] = (RACING_SHAPES[0], ExploreConfig(n_cores=3, state_budget=2000), None)
    for seed in range(N_RANDOM):
        out[f"random/{seed}"] = _random_case(seed)
    return out


EXPLORE_INPUTS = explore_inputs()


def cases():
    out = {"oracle/clean": lambda: oracle_tables()}
    for m in SHIPPED_MUTATIONS:
        out[f"oracle/{m}"] = lambda m=m: oracle_tables(mutations=frozenset({m}))
    for case, args in EXPLORE_INPUTS.items():
        out[case] = lambda args=args: explore(*args)
    return out


CASES = cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_explorer_matches_golden(case, golden):
    full, reduced, row = run_case(CASES[case])
    assert row == golden[case]
    if getattr(full, "exhausted", True):  # an oracle run is cut by no budget here
        assert verdict(reduced) == verdict(full)


# the cases in SC's scope that no budget cuts
SC_CASES = sorted(
    case for case, (programs, cfg, _init) in EXPLORE_INPUTS.items()
    if in_sc_scope(programs, cfg) and cfg.state_budget == ExploreConfig.state_budget)


def test_sc_reference_cases_span_the_golden_kinds():
    kinds = {case.split("/")[0] for case in SC_CASES}
    assert kinds == {"litmus", "racing", "twin", "random"}


@pytest.mark.parametrize("case", SC_CASES)
def test_explorer_outcomes_are_sequentially_consistent(case):
    """The explorer reaches exactly the outcomes of the atomic
    interleavings (`sc_reference`). Equality, not inclusion, also shows
    that the reductions lose no outcome."""
    programs, cfg, init_mem = EXPLORE_INPUTS[case]
    result = explore(programs, cfg, init_mem)
    assert result.exhausted
    assert result.outcomes == sc_outcomes(programs, init_mem)


def _full_columns(row: dict) -> dict:
    return {k: v for k, v in row.items() if not k.startswith("reduced_")}


def regen(full: bool) -> None:
    """Rewrite the data file. Unless `full`, stop without writing if a
    full-search column of any case would change or a case is new."""
    old = json.loads(DATA.read_text()) if DATA.exists() else {}
    rows = {case: run_case(run)[2] for case, run in sorted(CASES.items())}
    for case, row in rows.items():
        before = old.get(case, {})
        for col in sorted(set(row) | set(before)):
            if row.get(col) != before.get(col):
                print(f"{case}: {col}: {before.get(col)} -> {row.get(col)}")
    for col in ("reduced_states", "states"):
        totals = [sum(r.get(col, 0) for r in rs.values()) for rs in (old, rows)]
        print(f"total {col} over {len(rows)} cases: {totals[0]:,} -> {totals[1]:,}")
    changed = [case for case, row in rows.items()
               if _full_columns(row) != _full_columns(old.get(case, {}))]
    if changed and not full:
        sys.exit("full-search columns would change; pass --regen-full if the explored "
                 "model changed on purpose:\n  " + "\n  ".join(changed))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("{\n" + ",\n".join(f"{json.dumps(case)}: {json.dumps(row, sort_keys=True)}"
                                        for case, row in rows.items()) + "\n}\n")


if __name__ == "__main__" and sys.argv[1:] in (["--regen"], ["--regen-full"]):
    regen(full=sys.argv[1] == "--regen-full")
