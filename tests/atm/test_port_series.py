"""The port's two queue series against a plain StepProbe reference.

While no guaranteed (level-0) cell has been queued, an output port's
ABR queue series shares the total queue series' columns; the first
guaranteed enqueue gives it its own copy.  Every test here drives a port
and records the same two series the straightforward way — one
``StepProbe.record`` per probe after every arrival and every departure —
then requires the port's series to equal that reference exactly.
"""

import pytest

from repro.atm import Cell, OutputPort, PortAlgorithm
from repro.core import PhantomAlgorithm
from repro.obs import Tracer
from repro.scenarios import staggered_start
from repro.sim import Simulator, StepProbe, units

from tests.atm.test_link import Collector

CT = units.cell_time(150.0)
ABR, CBR = 1, 0


class ReferenceSeries(PortAlgorithm):
    """Records the port's queue lengths with plain ``StepProbe.record``
    after every departure (hook) and every arrival (:meth:`record`)."""

    def on_attach(self):
        self.queue = StepProbe("ref.queue")
        self.abr_queue = StepProbe("ref.abr_queue")

    def record(self):
        now = self.sim.now
        self.queue.record(now, self.port.queue_len)
        self.abr_queue.record(now, self.port.abr_queue_len)

    def on_departure(self, cell):
        self.record()


def run_port(arrivals, buffer_cells=None, tracer=None):
    """Feed ``(time, priority)`` arrivals to a 150 Mb/s port and run it
    to completion; returns the port and its reference series."""
    sim = Simulator()
    sim.tracer = tracer
    ref = ReferenceSeries()
    port = OutputPort(sim, "p", rate_mbps=150.0, sink=Collector(sim),
                      algorithm=ref, buffer_cells=buffer_cells)

    def arrive(cell):
        port.receive(cell)
        ref.record()

    for seq, (at, priority) in enumerate(arrivals):
        sim.schedule_at(at, arrive,
                        Cell(vc=f"p{priority}", seq=seq, priority=priority))
    sim.run()
    return port, ref


def assert_matches_reference(port, ref):
    assert port.queue_probe.times == ref.queue.times
    assert port.queue_probe.values == ref.queue.values
    assert port.abr_queue_probe.times == ref.abr_queue.times
    assert port.abr_queue_probe.values == ref.abr_queue.values


def shares_columns(port):
    return (port.abr_queue_probe.times is port.queue_probe.times
            and port.abr_queue_probe.values is port.queue_probe.values)


ABR_TRAIN = [(0.0, ABR), (0.0, ABR), (0.5 * CT, ABR), (4 * CT, ABR),
             (4 * CT, ABR), (9 * CT, ABR)]


def test_all_abr_port_shares_one_pair_of_columns():
    port, ref = run_port(ABR_TRAIN)
    assert shares_columns(port)
    assert len(port.queue_probe) > 2
    assert_matches_reference(port, ref)


def test_all_abr_bottleneck_of_a_network_shares_its_columns():
    run = staggered_start(PhantomAlgorithm, duration=0.02)
    port = run.bottleneck
    assert port.departures > 0
    assert shares_columns(port)


@pytest.mark.parametrize("arrivals", [
    # an ABR and a CBR arrival at one instant, in either order
    ABR_TRAIN[:3] + [(2 * CT, ABR), (2 * CT, CBR)] + ABR_TRAIN[3:],
    ABR_TRAIN[:3] + [(2 * CT, CBR), (2 * CT, ABR)] + ABR_TRAIN[3:],
    # a CBR arrival in the middle of a busy period
    ABR_TRAIN[:3] + [(1.5 * CT, CBR)] + ABR_TRAIN[3:],
    # a CBR cell is the very first arrival
    [(0.0, CBR)] + ABR_TRAIN,
    # out-of-range priorities clamp to level 0 and to the ABR level
    [(0.0, 5), (0.2 * CT, 5), (0.7 * CT, -1), (0.7 * CT, 5)],
], ids=["abr-then-cbr-same-instant", "cbr-then-abr-same-instant",
        "cbr-mid-busy-period", "cbr-first", "clamped-priorities"])
def test_first_guaranteed_cell_splits_the_series_exactly(arrivals):
    port, ref = run_port(arrivals)
    assert not shares_columns(port)
    assert port.abr_queue_probe.values != port.queue_probe.values
    assert_matches_reference(port, ref)


def test_dropped_guaranteed_cell_keeps_the_columns_shared():
    # the buffer is full when the CBR cell arrives: it is dropped before
    # it is queued, so the ABR level is still the whole queue
    arrivals = [(0.0, ABR), (0.0, ABR), (0.0, ABR), (0.0, CBR),
                (0.5 * CT, ABR), (3 * CT, ABR)]
    port, ref = run_port(arrivals, buffer_cells=2)
    assert port.drops == 3
    assert port.drops_by_vc == {"p1": 2, "p0": 1}
    assert shares_columns(port)
    assert_matches_reference(port, ref)


def test_drops_after_the_split_keep_both_series_exact():
    arrivals = [(0.0, CBR), (0.0, ABR), (0.0, ABR), (0.0, ABR),
                (0.5 * CT, CBR), (2.5 * CT, ABR), (2.5 * CT, CBR)]
    port, ref = run_port(arrivals, buffer_cells=2)
    assert port.drops > 0
    assert not shares_columns(port)
    assert_matches_reference(port, ref)


@pytest.mark.parametrize("arrivals", [
    ABR_TRAIN,
    ABR_TRAIN[:3] + [(1.5 * CT, CBR)] + ABR_TRAIN[3:],
], ids=["all-abr", "split"])
def test_traced_port_keeps_both_series_exact(arrivals):
    tracer = Tracer(categories=["port"])
    port, ref = run_port(arrivals, buffer_cells=3, tracer=tracer)
    assert any(kind == "port.enqueue" for _, kind, _, _ in tracer.events)
    assert_matches_reference(port, ref)
    untraced, _ = run_port(arrivals, buffer_cells=3)
    assert port.queue_probe.times == untraced.queue_probe.times
    assert port.abr_queue_probe.values == untraced.abr_queue_probe.values
