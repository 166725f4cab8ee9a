"""Sequential consistency as a reference for the explorer.

Each core has at most one op pending, so the cluster must be sequentially
consistent (Lamport, IEEE TC 1979): `explore` must reach exactly the
outcomes of running the programs' ops atomically in every interleaving.
"""


def in_sc_scope(programs, cfg) -> bool:
    """Whether SC is the spec of a run: clean tables, and IF ops only
    with coherent ifetch on (a non-coherent icache may read stale data
    by design)."""
    return not cfg.mutations and (
        cfg.coherent_ifetch or all(op[0] != "IF" for prog in programs for op in prog))


def sc_outcomes(programs, init_mem=None) -> set:
    """Every outcome of running the programs' ops atomically, one at a
    time, in every interleaving, on one flat memory: the sequentially
    consistent outcomes, in the shape of `ExploreResult.outcomes`."""
    addrs = sorted({op[1] for prog in programs for op in prog} | set(init_mem or ()))
    start = (tuple(0 for _ in programs),
             tuple((init_mem or {}).get(a, 0) for a in addrs),
             tuple(() for _ in programs))
    seen, todo, outcomes = {start}, [start], set()
    while todo:
        pcs, mem, regs = todo.pop()
        if all(pc == len(prog) for pc, prog in zip(pcs, programs)):
            outcomes.add((regs, tuple(zip(addrs, mem))))
        for core, (pc, prog) in enumerate(zip(pcs, programs)):
            if pc == len(prog):
                continue
            op, line = prog[pc], addrs.index(prog[pc][1])
            new_mem, new_regs = list(mem), list(regs)
            if op[0] == "W":
                new_mem[line] = op[2]
            else:  # a load or an instruction fetch reads the line
                new_regs[core] += (mem[line],)
            nxt = (pcs[:core] + (pc + 1,) + pcs[core + 1:], tuple(new_mem), tuple(new_regs))
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return outcomes
