"""Empirical validation of the CTMC through the observability layer.

The acceptance check for the obs subsystem: one calibrated overloaded
configuration is simulated exactly (Gillespie), *measured through the
event bus, the flight log and the pipeline metrics of its replay* —
not through the simulator's own counters — and the measured quantities
must agree with the analytic steady state.  Because arrivals are Poisson, PASTA makes the fraction of
arrivals lost equal (in the limit) to the steady-state probability of
the loss states, i.e. Definition 3's loss probability.
"""

from types import SimpleNamespace

import pytest

from repro.markov.degradation import power_law
from repro.markov.metrics import category_probabilities, loss_probability
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG, StateCategory
from repro.obs.events import EventBus
from repro.obs.provenance import replay
from repro.obs.recorder import FlightRecorder, read_flight_log
from repro.sim.ctmc_sim import run_replication

# Calibrated overloaded configuration: lambda = 4 against mu1 = 6,
# xi1 = 8 with a small buffer gives a large, well-separated loss
# probability (~0.69), so agreement is meaningful rather than a
# comparison of two numbers near zero.
STG = RecoverySTG(
    arrival_rate=4.0,
    scan=power_law(6.0, 1.0),
    recovery=power_law(8.0, 1.0),
    recovery_buffer=3,
)
HORIZON = 2000.0
SEED = 1
TOLERANCE = 0.02


@pytest.fixture(scope="module")
def observed():
    """One trajectory recorded from its event bus and measured by the
    pipeline metrics of the log's replay."""
    bus = EventBus()
    flight = FlightRecorder(label="gillespie").attach(bus)
    flight.mark("start", 0.0, state="NORMAL")
    result = run_replication(STG, HORIZON, SEED, bus=bus)
    flight.mark("finalize", HORIZON)
    metrics = replay(read_flight_log(flight.text())).metrics
    return SimpleNamespace(metrics=metrics, result=result)


@pytest.fixture(scope="module")
def analytic():
    pi = steady_state(STG.ctmc())
    return {
        "loss": loss_probability(STG, pi),
        "categories": category_probabilities(STG, pi),
    }


class TestCtmcValidation:
    def test_measured_loss_fraction_matches_prediction(self, observed,
                                                       analytic):
        measured = observed.metrics.loss_fraction
        predicted = analytic["loss"]
        assert predicted > 0.5  # the configuration really is overloaded
        assert measured == pytest.approx(predicted, abs=TOLERANCE)

    def test_measured_occupancy_matches_steady_state(self, observed,
                                                     analytic):
        occ = observed.metrics.occupancy()
        for category in StateCategory:
            predicted = analytic["categories"][category]
            measured = occ.get(category.name, 0.0)
            assert measured == pytest.approx(predicted, abs=TOLERANCE)

    def test_metrics_agree_with_simulator_counters(self, observed):
        """The bus-derived numbers must equal the simulator's own
        bookkeeping — same trajectory, two independent observers."""
        m = observed.metrics
        result = observed.result
        assert m.alerts_lost.value == result.arrivals_lost
        assert (m.alerts_enqueued.value + m.alerts_lost.value
                == result.arrivals)
        assert m.loss_fraction == pytest.approx(
            result.alert_loss_fraction)

    def test_queue_high_water_bounded_by_buffers(self, observed):
        m = observed.metrics
        assert 0 < m.alert_depth.high_water <= STG.alert_buffer
        assert 0 < m.recovery_depth.high_water <= STG.recovery_buffer
