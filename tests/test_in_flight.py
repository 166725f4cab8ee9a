"""The Decoder's in-flight table is the one record of what is in flight.
After every step of both models, at collision capacity 1 and 8, every
transaction a queue holds is the one the table holds under its line,
every transaction in the table is in some queue, and the table holds
under each line a `ccu.Transaction` of that line, whose kind is its
initiator's pending miss's."""
from dataclasses import replace

from hypothesis import HealthCheck, given, settings

from culsim.baseline import DirectorySimulation
from culsim.ccu import Transaction
from culsim.sim import _Port, build

from test_cache_index import runs


def queued(sim):
    """Every transaction an entry of the model's queues carries: memory
    reads queued and in flight (but a non-coherent fill's, tagged with
    its `_Port`), and the snoop model's AC entries, the entries of the
    transactions whose last CR is on its way to the snoop unit and R
    entries, or the directory's `wake` heap."""
    tags = [tag for _ready, _addr, tag in sim.mem_port.read_queue]
    tags += [tag for _due, tag, _addr, _data in sim.mem.inflight]
    txns = [tag for tag in tags if not isinstance(tag, _Port)]
    if isinstance(sim, DirectorySimulation):
        return txns + [txn for _due, _id, txn in sim.wake]
    ccu = sim.ccu
    txns += [txn for box in ccu.ac_outbox for _due, txn, _pd, _pi in box]
    txns += [txn for _due, txn in ccu.cr_inbox]
    return txns + [txn for box in ccu.r_outbox for _due, txn in box]


def checked_every_step(sim):
    step = sim.step

    def step_and_check():
        step()
        in_flight = sim.decoder.in_flight
        txns = queued(sim)
        for txn in txns:
            assert in_flight.get(txn.address) is txn, f"cycle {sim.cycle}: {txn}"
        assert {id(t) for t in in_flight.values()} == {id(t) for t in txns}
        for line, txn in in_flight.items():
            assert isinstance(txn, Transaction), f"cycle {sim.cycle}: {txn}"
            miss = sim.caches[txn.initiator].miss
            assert (txn.kind, txn.address) == (miss.kind, miss.address) and line == miss.address

    sim.step = step_and_check
    return sim


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_every_queued_transaction_is_the_one_in_flight_on_its_line(run):
    cfg, streams = run
    for capacity in (1, 8):
        config = replace(cfg, fifo_depths=replace(cfg.fifo_depths, collision_capacity=capacity))
        # the directory has no coherent icache: its ifetches fill non-coherently
        directory = DirectorySimulation(replace(config, coherent_ifetch=False))
        for sim in (build(config), directory):
            checked_every_step(sim).run([list(s) for s in streams])
