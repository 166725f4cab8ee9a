"""Which snoop races the snoop model can reach, over the stress configs
of `test_cache_index.runs`; the answer is why a miss that has entered
the Decoder needs no completion-time retry.

The Decoder admits one transaction per line, so once a core's miss has
entered, the only snoop that reaches it for that line is its own
sibling probe: every race with another core's transaction happens while
the miss still waits before the Decoder. The request enters as its
miss's `entry_kind`, so a CleanUnique whose copy a snoop took by then
enters as a ReadUnique (`protocol.reissue_kind`). A snoop read that
reached a unique miss before it entered left a copy that the miss's own
snoops then take, so the miss completes with its line unique. The
models therefore have no retry: the explorer's SC oracle
(`sc_reference`) and the timed perform-order witness (`test_sc_witness`)
hold without one.
"""
from hypothesis import HealthCheck, given, settings

from culsim.sim import build
from test_cache_index import one_at_a_time, runs


def watched(sim):
    """Check every snoop as it is taken: none may reach a core on a line
    whose own transaction is in flight, unless it is that transaction's."""
    ccu = sim.ccu
    process_snoop = sim._process_snoop

    def checked_snoop(core, now):
        _due, txn_id, req, _probe_d, _probe_i = ccu.ac_outbox[core][0]
        for txn in ccu.txns.values():
            if txn.initiator == core and txn.address == req.address:
                assert txn.id == txn_id, (
                    f"cycle {now}: txn {txn_id} snoops core {core} on {req.address:#x} "
                    f"while the core's own txn {txn.id} is in flight"
                )
        process_snoop(core, now)

    sim._process_snoop = checked_snoop
    return sim


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_no_foreign_snoop_reaches_an_entered_miss(run):
    cfg, streams = run
    for config in (cfg, one_at_a_time(cfg)):
        watched(build(config)).run([list(s) for s in streams])
