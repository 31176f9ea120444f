"""Tests for the dynamic Eraser-style race sanitizer.

The verdicts here depend only on locksets, never on an unlucky
interleaving: the canary threads run strictly back to back and the
removed-lock mutations are still caught every time.  The static twin
of the registry canary lives in test_lint_races.py.
"""

import threading

import pytest

from repro.lint.sanitizer import RaceSanitizer, TrackedLock
from repro.obs import locks as locks_mod
from repro.obs.events import AlertEnqueued, EventBus
from repro.obs.locks import HierarchyLock, enable_checks, make_lock, make_rlock
from repro.obs.metrics import MetricsRegistry


def run_in_thread(fn, name="t"):
    """Run ``fn`` on a fresh named thread and join it — sequential
    execution, distinct thread identity."""
    out, errs = [], []

    def body():
        try:
            out.append(fn())
        except BaseException as exc:  # pragma: no cover - failure path
            errs.append(exc)

    t = threading.Thread(target=body, name=name)
    t.start()
    t.join()
    if errs:
        raise errs[0]
    return out[0]


def rules_of(san):
    return sorted(d.rule for d in san.violations)


class _NopLock:
    """A lock-shaped object that synchronizes nothing — the mutation
    operator for the removed-lock canaries."""

    def acquire(self, blocking=True, timeout=-1):
        return True

    def release(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class TestEraserStateMachine:
    def test_single_thread_stays_exclusive(self):
        san = RaceSanitizer()
        for _ in range(5):
            san.note_access("v", write=True)
        assert san.violations == ()

    def test_cross_thread_write_without_lock_flagged(self):
        san = RaceSanitizer()
        run_in_thread(lambda: san.note_access("v", write=True), "t1")
        run_in_thread(lambda: san.note_access("v", write=True), "t2")
        assert rules_of(san) == ["RACE101"]
        (diag,) = san.violations
        assert "t2" in diag.message and "t1" in diag.message

    def test_cross_thread_reads_only_not_flagged(self):
        san = RaceSanitizer()
        run_in_thread(lambda: san.note_access("v", write=False), "t1")
        run_in_thread(lambda: san.note_access("v", write=False), "t2")
        assert san.violations == ()

    def test_common_lock_keeps_candidate_set_nonempty(self):
        san = RaceSanitizer()
        lock = san.wrap_lock("L")

        def access():
            with lock:
                san.note_access("v", write=True)

        run_in_thread(access, "t1")
        run_in_thread(access, "t2")
        run_in_thread(access, "t3")
        assert san.violations == ()

    def test_disjoint_locks_empty_the_candidate_set(self):
        # C(v) initializes at the first cross-thread access ({B}) and
        # is intersected on the next ({A} & {B} = {}) — three accesses
        # drain it, per the Eraser refinement rule.
        san = RaceSanitizer()
        a, b = san.wrap_lock("A"), san.wrap_lock("B")

        def with_lock(lock):
            with lock:
                san.note_access("v", write=True)

        run_in_thread(lambda: with_lock(a), "t1")
        run_in_thread(lambda: with_lock(b), "t2")
        run_in_thread(lambda: with_lock(a), "t3")
        assert rules_of(san) == ["RACE101"]

    def test_violation_reported_once_per_var(self):
        san = RaceSanitizer()
        for i in range(4):
            run_in_thread(lambda: san.note_access("v", write=True), f"t{i}")
        assert rules_of(san) == ["RACE101"]

    def test_verdict_is_deterministic(self):
        # Same program, three runs: identical rule sequence each time.
        outcomes = []
        for _ in range(3):
            san = RaceSanitizer()
            run_in_thread(lambda: san.note_access("v", write=True), "t1")
            run_in_thread(lambda: san.note_access("v", write=True), "t2")
            outcomes.append(rules_of(san))
        assert outcomes == [["RACE101"]] * 3


class TestLockOrderRuntime:
    def test_inverted_acquisition_order_flagged(self):
        san = RaceSanitizer()
        a, b = san.wrap_lock("A"), san.wrap_lock("B")

        def ab():
            with a:
                with b:
                    pass

        def ba():
            with b:
                with a:
                    pass

        run_in_thread(ab, "t1")
        run_in_thread(ba, "t2")
        assert "RACE102" in rules_of(san)

    def test_consistent_order_clean(self):
        san = RaceSanitizer()
        a, b = san.wrap_lock("A"), san.wrap_lock("B")

        def ab():
            with a:
                with b:
                    pass

        run_in_thread(ab, "t1")
        run_in_thread(ab, "t2")
        assert san.violations == ()

    def test_inversion_reported_once_per_pair(self):
        san = RaceSanitizer()
        a, b = san.wrap_lock("A"), san.wrap_lock("B")

        def ab():
            with a:
                with b:
                    pass

        def ba():
            with b:
                with a:
                    pass

        for i in range(3):
            run_in_thread(ab, f"f{i}")
            run_in_thread(ba, f"r{i}")
        assert rules_of(san).count("RACE102") == 1


class TestInstrumentedMetrics:
    def test_locked_registry_clean_across_threads(self):
        san = RaceSanitizer()
        reg = MetricsRegistry()
        san.instrument_metrics(reg)
        run_in_thread(lambda: reg.counter("hits").inc(), "t1")
        run_in_thread(lambda: reg.counter("hits").inc(), "t2")
        run_in_thread(lambda: reg.gauge("depth").set(3.0), "t3")
        assert san.violations == ()

    def test_registry_lock_deletion_caught(self):
        # THE dynamic mutation canary: after instrumentation, replace
        # the registry lock with a no-op.  _get_or_create's
        # check-then-insert then runs with an empty lockset and the
        # second thread's create must trip RACE101 on the metrics map.
        san = RaceSanitizer()
        reg = MetricsRegistry()
        san.instrument_metrics(reg)
        reg._lock = _NopLock()  # the mutation
        run_in_thread(lambda: reg.counter("a"), "t1")
        run_in_thread(lambda: reg.counter("b"), "t2")
        assert rules_of(san) == ["RACE101"]
        (diag,) = san.violations
        assert diag.where == "registry._metrics"

    def test_metric_lock_deletion_caught(self):
        san = RaceSanitizer()
        reg = MetricsRegistry()
        c = reg.counter("hits")
        san.instrument_metrics(reg)
        c._lock = _NopLock()  # the mutation
        run_in_thread(c.inc, "t1")
        run_in_thread(c.inc, "t2")
        assert "RACE101" in rules_of(san)
        assert any(d.where == "metric[hits]" for d in san.violations)

    def test_canary_detection_is_deterministic(self):
        for _ in range(3):
            san = RaceSanitizer()
            reg = MetricsRegistry()
            san.instrument_metrics(reg)
            reg._lock = _NopLock()
            run_in_thread(lambda: reg.counter("a"), "t1")
            run_in_thread(lambda: reg.counter("b"), "t2")
            assert rules_of(san) == ["RACE101"]


class TestInstrumentedBus:
    def test_locked_bus_clean(self):
        san = RaceSanitizer()
        bus = EventBus()
        san.instrument_bus(bus)
        run_in_thread(lambda: bus.subscribe(lambda e: None), "t1")
        run_in_thread(lambda: bus.subscribe(lambda e: None), "t2")
        run_in_thread(
            lambda: bus.publish(AlertEnqueued(0.0, uid="u", queue_depth=1)),
            "t3")
        assert san.violations == ()

    def test_bus_lock_deletion_caught(self):
        san = RaceSanitizer()
        bus = EventBus()
        san.instrument_bus(bus)
        bus._lock = _NopLock()  # the mutation
        run_in_thread(lambda: bus.subscribe(lambda e: None), "t1")
        run_in_thread(lambda: bus.subscribe(lambda e: None), "t2")
        assert rules_of(san) == ["RACE101"]


class TestLockHierarchy:
    @pytest.fixture(autouse=True)
    def restore_flag(self):
        yield
        enable_checks(False)

    def test_plain_locks_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOCK_ORDER", raising=False)
        enable_checks(False)
        assert not isinstance(make_lock("registry"), HierarchyLock)
        assert not isinstance(make_rlock("server"), HierarchyLock)

    def test_unknown_tier_rejected_even_unchecked(self):
        with pytest.raises(ValueError):
            make_lock("nonsense")

    def test_in_order_acquisition_allowed(self):
        enable_checks(True)
        server, registry, metric = (
            make_rlock("server"), make_lock("registry"), make_lock("metric"))
        assert isinstance(server, HierarchyLock)

        def nest():
            with server:
                with registry:
                    with metric:
                        pass

        run_in_thread(nest)

    def test_out_of_order_acquisition_asserts(self):
        enable_checks(True)
        registry, server = make_lock("registry"), make_rlock("server")

        def invert():
            with registry:
                with server:
                    pass

        with pytest.raises(AssertionError, match="hierarchy violation"):
            run_in_thread(invert)

    def test_reentrant_reacquisition_allowed(self):
        enable_checks(True)
        server = make_rlock("server")

        def reenter():
            with server:
                with server:
                    pass

        run_in_thread(reenter)

    def test_env_var_enables_checks(self, monkeypatch):
        enable_checks(False)
        monkeypatch.setenv("REPRO_LOCK_ORDER", "1")
        assert locks_mod.checks_enabled()
        assert isinstance(make_lock("bus"), HierarchyLock)

    def test_real_tree_obeys_hierarchy(self):
        # Build the instrumented stack with assertions on: registry
        # and metric locks must nest under the server RLock cleanly.
        enable_checks(True)
        try:
            from repro.obs.server import TelemetryServer

            reg = MetricsRegistry()
            reg.counter("x").inc()
            server = TelemetryServer(registry=reg)

            def render():
                with server.lock:
                    server.render_metrics()

            run_in_thread(render)
        finally:
            enable_checks(False)


class TestTrackedLock:
    def test_proxies_real_lock(self):
        san = RaceSanitizer()
        inner = threading.Lock()
        lock = san.wrap_lock("L", inner=inner)
        with lock:
            assert inner.locked()
        assert not inner.locked()

    def test_report_is_lint_report(self):
        san = RaceSanitizer()
        run_in_thread(lambda: san.note_access("v", write=True), "t1")
        run_in_thread(lambda: san.note_access("v", write=True), "t2")
        report = san.report()
        assert report.exit_code == 2
        assert "RACE101" in report.render_text()
