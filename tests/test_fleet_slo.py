"""Property tests for the fleet SLO rollup (`repro.fleet.slo`).

The fleet ``/slo`` view must not depend on how the control plane
happens to enumerate its shards.  Hypothesis pins what the design
claims:

- **permutation**: ``rollup(perm(verdicts)) == rollup(verdicts)`` for
  any ordering of the tenants;
- **sums**: merged counts are the sums of the tenants' counts, and
  latencies the sorted union of theirs.

Plus the deterministic edge cases (duplicates, empties, percentiles).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FleetError
from repro.fleet.slo import TenantVerdict, percentile, rollup
from repro.obs.health import ConformanceReport, SloState

import pytest


def make_report(arrivals=0, losses=0, scans=0, recoveries=0,
                verdict="OK", drifts=(), conformance="OK",
                violations=0):
    return ConformanceReport(
        duration=10.0,
        arrivals=arrivals,
        losses=losses,
        scans=scans,
        recoveries=recoveries,
        predicted_loss=0.01,
        loss_objective=0.03,
        slo_states=(("loss", verdict), ("conformance", conformance)),
        slo_transitions=0,
        drifts=tuple(drifts),
        violations=violations,
    )


verdicts_st = st.sampled_from(list(SloState))

tenant_verdict_st = st.builds(
    lambda idx, verdict, arrivals, losses, heals, audits, lat,
    conformance, violations:
        TenantVerdict(
            tenant=f"t{idx:04d}",
            verdict=verdict,
            report=make_report(
                arrivals=arrivals + losses,
                losses=losses,
                scans=arrivals,
                recoveries=heals,
                verdict=verdict.value,
                conformance=conformance.value,
                violations=violations,
            ),
            attacks=arrivals + losses,
            heals=heals,
            audits_ok=audits,
            latencies=tuple(lat),
        ),
    idx=st.integers(0, 9999),
    verdict=verdicts_st,
    arrivals=st.integers(0, 50),
    losses=st.integers(0, 10),
    heals=st.integers(0, 20),
    audits=st.booleans(),
    lat=st.lists(st.floats(0.001, 100.0), max_size=5),
    conformance=st.sampled_from([SloState.OK, SloState.BREACH]),
    violations=st.integers(0, 7),
)

#: Unique-by-tenant verdict lists (rollup rejects duplicates).
fleet_st = st.lists(
    tenant_verdict_st, min_size=1, max_size=12,
    unique_by=lambda t: t.tenant,
)


class TestPermutationInvariance:
    @settings(max_examples=60)
    @given(verdicts=fleet_st, seed=st.randoms())
    def test_rollup_invariant_under_tenant_permutation(self, verdicts,
                                                       seed):
        shuffled = list(verdicts)
        seed.shuffle(shuffled)
        assert rollup(shuffled) == rollup(verdicts)
        assert rollup(shuffled).as_dict() == rollup(verdicts).as_dict()

    @settings(max_examples=60)
    @given(verdicts=fleet_st)
    def test_verdict_is_worst_of(self, verdicts):
        health = rollup(verdicts)
        severity = {SloState.OK: 0, SloState.WARN: 1, SloState.BREACH: 2}
        worst = max((t.verdict for t in verdicts),
                    key=lambda s: severity[s])
        assert health.verdict is worst
        assert sum(health.by_state.values()) == len(verdicts)


class TestRepartitionInvariance:
    @settings(max_examples=40)
    @given(verdicts=fleet_st)
    def test_merged_counts_are_sums(self, verdicts):
        merged = rollup(verdicts).merged
        assert merged.arrivals == sum(t.report.arrivals for t in verdicts)
        assert merged.losses == sum(t.report.losses for t in verdicts)
        assert merged.violations == sum(
            t.report.violations for t in verdicts
        )

    @settings(max_examples=40)
    @given(verdicts=fleet_st)
    def test_latencies_are_the_sorted_union(self, verdicts):
        lat = rollup(verdicts).latencies
        expected = sorted(
            x for t in verdicts for x in t.latencies
        )
        assert lat == expected


class TestRollupEdges:
    def test_empty_rollup_rejected(self):
        with pytest.raises(FleetError):
            rollup([])

    def test_duplicate_tenant_rejected(self):
        t = TenantVerdict("t1", SloState.OK, make_report())
        with pytest.raises(FleetError, match="duplicate tenant"):
            rollup([t, t])

    def test_worst_tenants_orders_by_severity_then_losses(self):
        ok = TenantVerdict("a", SloState.OK, make_report())
        lossy = TenantVerdict("b", SloState.WARN,
                              make_report(arrivals=10, losses=2,
                                          verdict="WARN"))
        bad = TenantVerdict("c", SloState.BREACH,
                            make_report(arrivals=10, losses=1,
                                        verdict="BREACH"))
        health = rollup([ok, lossy, bad])
        assert [t.tenant for t in health.worst_tenants()] \
            == ["c", "b", "a"]

    def test_as_dict_schema(self):
        t = TenantVerdict("t1", SloState.OK,
                          make_report(arrivals=5), latencies=(1.0, 2.0))
        d = rollup([t]).as_dict()
        assert d["fleet"] is True
        assert d["tenants"] == 1
        assert d["latency"]["samples"] == 2
        assert d["latency"]["p50"] == 1.0
        assert d["latency"]["p99"] == 2.0


class TestConformanceRollup:
    """The third (LTLf conformance) SLO in the fleet drill-down."""

    @settings(max_examples=60)
    @given(verdicts=fleet_st, seed=st.randoms())
    def test_violation_total_invariant_under_permutation(self, verdicts,
                                                         seed):
        shuffled = list(verdicts)
        seed.shuffle(shuffled)
        assert (rollup(shuffled).merged.violations
                == rollup(verdicts).merged.violations)
        assert (rollup(shuffled).as_dict()["violations"]
                == rollup(verdicts).as_dict()["violations"])

    @settings(max_examples=40)
    @given(verdicts=fleet_st)
    def test_tenant_row_exposes_conformance_verdict(self, verdicts):
        for row in rollup(verdicts).as_dict()["worst_tenants"]:
            tenant = next(t for t in verdicts if t.tenant == row["tenant"])
            assert row["conformance"] == tenant.conformance.value
            assert row["violations"] == tenant.report.violations

    def test_conformance_verdict_reads_the_slo_state(self):
        bad = TenantVerdict(
            "t1", SloState.BREACH,
            make_report(verdict="OK", conformance="BREACH", violations=3),
        )
        assert bad.conformance is SloState.BREACH
        assert bad.as_dict()["conformance"] == "BREACH"
        assert bad.as_dict()["violations"] == 3

    def test_conformance_defaults_ok_without_the_slo(self):
        report = ConformanceReport(
            duration=1.0, arrivals=0, losses=0, scans=0, recoveries=0,
            predicted_loss=0.0, loss_objective=1.0,
            slo_states=(("loss", "OK"),), slo_transitions=0,
        )
        assert TenantVerdict("t1", SloState.OK, report).conformance \
            is SloState.OK


class TestPercentile:
    def test_nearest_rank_is_an_observed_value(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 50) == 3.0
        assert percentile(values, 99) == 5.0
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_empty_and_bounds(self):
        assert percentile([], 50) == 0.0
        with pytest.raises(FleetError):
            percentile([1.0], 101)
        with pytest.raises(FleetError):
            percentile([1.0], -1)

    @settings(max_examples=50)
    @given(values=st.lists(st.floats(0, 1e6), min_size=1, max_size=50),
           q=st.floats(0, 100))
    def test_result_always_observed(self, values, q):
        values.sort()
        assert percentile(values, q) in values
