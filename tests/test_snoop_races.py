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
import pytest
from hypothesis import HealthCheck, given, settings

from culsim.ccu import Transaction
from culsim.protocol import READ_ONCE, CoherentKind, CoreOp, OpKind
from culsim.sim import SimConfig, build
from test_cache_index import LINES, one_at_a_time, runs


def watched(sim):
    """Check every snoop as a cache takes it: none may reach a core on a
    line whose own transaction is in flight, unless it is that
    transaction's own sibling probe, of its kind and with the probe flags
    its fan-out gives its initiator (another core's probe always differs
    in them). Returns the (kind, line) of each snoop checked."""
    checked = []
    for core, cache in enumerate(sim.caches):
        cache.handle_snoop = _checking(sim, core, cache.handle_snoop, checked)
    return checked


def _checking(sim, core, handle_snoop, checked):
    def checked_snoop(kind, address, probe_dcache=True, probe_icache=False):
        checked.append((kind, address))
        txn = sim.decoder.in_flight.get(address)
        if txn is not None and txn.initiator == core:
            sibling = (core, probe_dcache, probe_icache)
            assert kind is txn.kind and sibling in sim.ccu.fanout[core][kind is READ_ONCE], (
                f"cycle {sim.cycle}: a {kind.value} snoop reaches core {core} on "
                f"{address:#x} while the core's own txn {txn.id} is in flight"
            )
        return handle_snoop(kind, address, probe_dcache, probe_icache)

    return checked_snoop


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_no_foreign_snoop_reaches_an_entered_miss(run):
    cfg, streams = run
    # core 0 first misses on a load, so every run snoops at least once
    streams = [[CoreOp(OpKind.LOAD, LINES[0]), *streams[0]], *streams[1:]]
    for config in (cfg, one_at_a_time(cfg)):
        sim = build(config)
        checked = watched(sim)
        sim.run([list(s) for s in streams])
        assert checked, "the watcher saw no snoop"


def test_the_watcher_trips_on_a_planted_foreign_snoop():
    sim = build(SimConfig())
    checked = watched(sim)
    sim.ports[0].stream.append(CoreOp(OpKind.STORE, LINES[0], value=1))
    sim._ops_left = 1
    while not sim.decoder.in_flight:  # core 0's ReadUnique enters the Decoder
        sim.step()
    (own,) = sim.decoder.in_flight.values()
    assert own.initiator == 0 and not sim.ccu.ac_outbox[0]
    # another core's transaction on the same line reaches core 0 now
    foreign = Transaction(own.id + 1, 1, CoherentKind.READ_UNIQUE, own.address)
    sim.ccu.ac_outbox[0].append((sim.cycle, foreign, True, False))
    with pytest.raises(AssertionError, match="while the core's own txn"):
        sim.step()
    assert checked == [(CoherentKind.READ_UNIQUE, own.address)]
