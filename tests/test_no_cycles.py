"""A tenant is freed by refcount: no reference cycle in the objects the
fleet and an observed system build.

A dropped cycle waits for the cyclic collector, which then walks every
live object of the process: a 250-tenant plane left behind about 100k
objects of cyclic garbage, and the collection landed in whatever ran
next.  Under ``gc.DEBUG_SAVEALL`` the collector keeps everything it
finds unreachable in ``gc.garbage``, so after ``del`` and
``gc.collect()`` no object of a ``repro`` module may be there.
"""

import gc

from repro.fleet.control import FleetConfig, FleetControlPlane
from repro.ids.alerts import Alert
from repro.obs.events import EventBus
from repro.obs.health import HealthMonitor, ModelPrediction
from repro.markov.stg import RecoverySTG
from repro.scenarios.figure1 import build_figure1
from repro.system import SelfHealingSystem


def cyclic_repro_garbage(build):
    """The ``repro`` objects the cyclic collector finds once the object
    ``build()`` returns is dropped (type names, sorted)."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        built = build()
        del built
        gc.collect()
        return sorted({
            type(obj).__qualname__ for obj in gc.garbage
            if type(obj).__module__.startswith("repro")
        })
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def fleet_config():
    return FleetConfig(tenants=4, duration=4.0, tick=0.5, seed=3)


class TestFreedByRefcount:
    def test_constructed_plane(self):
        assert cyclic_repro_garbage(
            lambda: FleetControlPlane(fleet_config())) == []

    def test_finished_plane(self):
        def finished():
            plane = FleetControlPlane(fleet_config())
            report = plane.run()
            assert report.heals > 0
            return plane

        assert cyclic_repro_garbage(finished) == []

    def test_observed_system_with_health_monitor(self):
        prediction = ModelPrediction.from_stg(RecoverySTG.paper_default())

        def observed():
            scenario = build_figure1(attacked=True)
            bus = EventBus()
            system = SelfHealingSystem(scenario.manager, bus=bus)
            monitor = HealthMonitor(prediction).attach(bus)
            assert system.submit_alert(Alert(0.0, scenario.malicious_uid))
            assert system.sweep()
            monitor.finalize()
            assert monitor.conformance.violation_count == 0
            assert monitor.conformance.events_seen > 0
            return system, monitor

        assert cyclic_repro_garbage(observed) == []
