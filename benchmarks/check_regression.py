#!/usr/bin/env python
"""Benchmark regression gate.

Compares freshly produced ``BENCH_ctmc.json`` / ``BENCH_sim.json``
(from ``benchmarks/bench_scale.py --out-dir ...``) and, when present,
``BENCH_fleet.json`` (from ``benchmarks/bench_fleet.py``) and
``BENCH_profile.json`` (from ``benchmarks/bench_profile.py``) against
the committed baselines at the repository root and fails (exit 1) when:

- either file is structurally invalid (wrong benchmark name, empty
  results);
- a correctness invariant broke: any CTMC backend disagreement
  (``max_abs_diff``) above ``--max-abs-diff``, any simulation row
  with ``results_identical: false`` (workers=K must reproduce
  workers=1 bit-exactly), any fleet row with ``audits_ok: false``, or
  any profile row below its attribution floor / with an unstable
  structure digest, or a fullstack profile rebuilding the dependency
  closure for more than one alert in ten
  (``closure_recomputations_per_alert`` above
  ``MAX_CLOSURE_PER_ALERT``) or building other than one dependency
  index per heal (``index_builds_per_heal`` not
  ``INDEX_BUILDS_PER_HEAL``) or building a Theorem 3 order that nothing
  reads (``actions_planned`` above 0 on the unobserved run) or
  deciding Theorem 1 more than once per heal (``undo_analyses_per_heal``
  above ``MAX_UNDO_ANALYSES_PER_HEAL``, on the unobserved and the
  observed run), an
  observed fullstack profile with no heal order phase or building more
  than one Theorem 3 order per heal (``orders_per_heal`` above
  ``MAX_ORDERS_PER_HEAL``), or the heals and audits touching
  more store names per heal at the long horizon than
  ``MAX_STORE_SCALING`` times the short horizon's, or the fleet-observe
  row missing, replaying its tenants' events for more than
  ``MAX_OBSERVE_SHARE`` of its run's wall, publishing more than
  ``MAX_EVENTS_PER_HEALED_ALERT`` events per healed alert (or more than
  the committed row of the same shape), publishing any event of a
  ``ABSENT_EVENT_KINDS`` kind, or other than
  ``UNIT_EMITTED_PER_SCAN`` ``UnitEmitted`` per scan;
- on rows present in *both* files (matched by ``buffer`` for the CTMC
  sweep, ``replications`` for the simulation batch, ``(tenants,
  duration)`` for the fleet sweep), a speedup or the fleet's alert
  throughput fell by more than ``--tolerance`` (default 25%) relative
  to the committed value.

Quick CI sweeps use smaller problem sizes than the committed full
sweep, so their rows may not overlap at all — the correctness checks
still run, and the speedup comparison simply has nothing to compare
(reported, not failed: timing comparisons across different machines
are noise anyway).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional, Tuple

#: Operations timed per CTMC row.
CTMC_OPS = ("steady_state", "transient", "passage", "cumulative")

#: ROADMAP item 1(c)'s gate: the fullstack profile may rebuild the
#: dependency closure for at most one alert in ten (once per heal, not
#: once per alert).
MAX_CLOSURE_PER_ALERT = 0.1

#: ROADMAP item 7's count gate: dependency indexes built per heal on the
#: unobserved fullstack run.  Each heal builds the one index it decides
#: on and counts it in ``closure_recomputations``, so it is exactly 1;
#: fewer means a build the counter misses, more a build beside the
#: heal's.
INDEX_BUILDS_PER_HEAL = 1.0

#: ROADMAP item 7's count gate: Theorem 1 computations
#: (``find_undo_tasks`` calls) per heal on the fullstack runs, unobserved
#: and observed.  The batch heal decides its batch once and a scan
#: decides nothing, so it is exactly 1; scans that decide their sets add
#: one per alert (17.5 on the full profile's unobserved row, 15.1 on the
#: quick one, when scans decided them eagerly).
MAX_UNDO_ANALYSES_PER_HEAL = 1.0

#: ROADMAP item 1's gate: Theorem 3 orders built per heal on the
#: observed run (an unobserved heal builds none).  The heal builds the
#: one order of its batch, so it is exactly 1; an order per scan makes
#: it the mean number of scans per heal.
MAX_ORDERS_PER_HEAL = 1.0

#: ROADMAP item 1's store gate: a heal and its audit touch the store
#: names written since the last one, so names touched per heal at the
#: long horizon stay within this factor of the short horizon's (a walk
#: over the whole store grows with it).
MAX_STORE_SCALING = 1.5

#: ROADMAP item 4's gate: the fleet-observe row's replay wall (every
#: tenant's events through fresh health monitors) as a share of its
#: fleet run's wall.  Measured on a 2-CPU VM, six processes each: 0.16
#: to 0.21 with the per-event isinstance dispatch and a letter dict per
#: property step, 0.12 to 0.13 with the typed dispatch and the compiled
#: property pack.
MAX_OBSERVE_SHARE = 0.15

#: Events a fleet publishes per healed alert: 17.83 on the row's shape
#: (8,859 events for 497 healed alerts), since a scan publishes one
#: event (18.82 while the analyzer published a second).  More means a
#: new event, or a second copy of one, on the observed path.
MAX_EVENTS_PER_HEALED_ALERT = 17.83

#: Event kinds the fleet-observe row must not publish: the analyzer's
#: retired per-scan event, and drops published by a tenant system's
#: own queues (a lost alert is its one ``AlertLost``; the row's plane
#: has no bus for its central queue's deferrals).
ABSENT_EVENT_KINDS = ("ScanStep", "QueueItemDropped")

#: ``UnitEmitted`` events per scan on the fleet-observe row: a scan is
#: one event, exactly.
UNIT_EMITTED_PER_SCAN = 1.0


def _load(path: pathlib.Path, expected_benchmark: str) -> dict:
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"FAIL: {path} does not exist")
    except ValueError as exc:
        raise SystemExit(f"FAIL: {path} is not valid JSON: {exc}")
    if doc.get("benchmark") != expected_benchmark:
        raise SystemExit(
            f"FAIL: {path}: benchmark is {doc.get('benchmark')!r}, "
            f"expected {expected_benchmark!r}"
        )
    if not isinstance(doc.get("results"), list) or not doc["results"]:
        raise SystemExit(f"FAIL: {path}: empty or missing results array")
    return doc


def check_ctmc(fresh: dict, baseline: dict, tolerance: float,
               max_abs_diff: float) -> List[str]:
    """Failures found in the CTMC backend sweep."""
    failures: List[str] = []
    for row in fresh["results"]:
        for op, diff in row.get("max_abs_diff", {}).items():
            if diff > max_abs_diff:
                failures.append(
                    f"ctmc buffer={row['buffer']}: dense and sparse "
                    f"backends disagree on {op} "
                    f"(max_abs_diff {diff:g} > {max_abs_diff:g})"
                )
    base_by_buffer: Dict[int, dict] = {
        row["buffer"]: row for row in baseline["results"]
    }
    compared = 0
    for row in fresh["results"]:
        base = base_by_buffer.get(row["buffer"])
        if base is None:
            continue
        for op in CTMC_OPS:
            if op not in row or op not in base:
                continue
            fresh_speedup = row[op].get("speedup")
            base_speedup = base[op].get("speedup")
            if not fresh_speedup or not base_speedup:
                continue
            compared += 1
            if fresh_speedup < base_speedup * (1.0 - tolerance):
                failures.append(
                    f"ctmc buffer={row['buffer']} {op}: speedup "
                    f"regressed {base_speedup:.2f}x -> "
                    f"{fresh_speedup:.2f}x "
                    f"(> {tolerance:.0%} below baseline)"
                )
    print(f"ctmc: {len(fresh['results'])} rows checked, "
          f"{compared} speedups compared against baseline")
    return failures


def check_sim(fresh: dict, baseline: dict, tolerance: float) -> List[str]:
    """Failures found in the simulation batch sweep.

    Rows may carry fields newer than the committed baseline (e.g. the
    health-monitor ``conformance_*`` columns) — unknown keys are
    ignored, and invariants on new keys only apply to rows that have
    them, so a fresh sweep stays comparable to an older baseline.
    """
    failures: List[str] = []
    for row in fresh["results"]:
        if not row.get("results_identical", False):
            failures.append(
                f"sim replications={row['replications']}: parallel "
                "results differ from serial (worker-count invariance "
                "broke)"
            )
        if "conformance_identical" in row \
                and not row["conformance_identical"]:
            failures.append(
                f"sim replications={row['replications']}: merged "
                "conformance verdict differs between serial and "
                "parallel (deterministic merge broke)"
            )
    base_by_reps: Dict[int, dict] = {
        row["replications"]: row for row in baseline["results"]
    }
    compared = 0
    for row in fresh["results"]:
        base = base_by_reps.get(row["replications"])
        if base is None:
            continue
        fresh_speedup = row.get("speedup")
        base_speedup = base.get("speedup")
        if not fresh_speedup or not base_speedup:
            continue
        compared += 1
        if fresh_speedup < base_speedup * (1.0 - tolerance):
            failures.append(
                f"sim replications={row['replications']}: speedup "
                f"regressed {base_speedup:.2f}x -> {fresh_speedup:.2f}x "
                f"(> {tolerance:.0%} below baseline)"
            )
    print(f"sim: {len(fresh['results'])} rows checked, "
          f"{compared} speedups compared against baseline")
    return failures


def check_fleet(fresh: dict, baseline: Optional[dict],
                tolerance: float) -> List[str]:
    """Failures found in the fleet control-plane sweep.

    The correctness invariant (end-to-end strict-correctness audits)
    always applies.  Throughput comparison needs a committed
    ``BENCH_fleet.json`` baseline with rows of the same shape, matched
    on ``(tenants, duration)``: a shorter run of the same fleet is a
    different measurement.  An absent baseline (older checkouts) is
    tolerated — the fleet benchmark is newer than the other two.
    """
    failures: List[str] = []
    for row in fresh["results"]:
        if not row.get("audits_ok", True):
            failures.append(
                f"fleet tenants={row['tenants']}: a tenant failed its "
                "end-to-end strict-correctness audit"
            )
    compared = 0
    if baseline is not None:
        base_by_shape: Dict[Tuple[int, float], dict] = {
            (row["tenants"], row["duration"]): row
            for row in baseline["results"]
        }
        for row in fresh["results"]:
            base = base_by_shape.get((row["tenants"], row["duration"]))
            if base is None:
                continue
            fresh_thr = row.get("throughput_alerts_per_s")
            base_thr = base.get("throughput_alerts_per_s")
            if not fresh_thr or not base_thr:
                continue
            compared += 1
            if fresh_thr < base_thr * (1.0 - tolerance):
                failures.append(
                    f"fleet tenants={row['tenants']} duration="
                    f"{row['duration']:g}: throughput "
                    f"regressed {base_thr:.0f} -> {fresh_thr:.0f} "
                    f"alerts/s (> {tolerance:.0%} below baseline)"
                )
    print(f"fleet: {len(fresh['results'])} rows checked, "
          f"{compared} throughputs compared against baseline")
    return failures


def _check_store_scaling(row: Optional[dict]) -> List[str]:
    """The store-scaling row exists, measured a non-zero count, and its
    per-heal count does not grow with the horizon."""
    if row is None:
        return ["profile: no store-scaling row — store names touched per "
                "heal are no longer measured"]
    items = row.get("line_items", {})
    short = items.get("short_per_heal") or 0.0
    long = items.get("long_per_heal") or 0.0
    if short <= 0:
        return ["profile store-scaling: no store names touched at the "
                "short horizon — the store_names_touched counter is not "
                "bumped"]
    if long > MAX_STORE_SCALING * short:
        return [f"profile store-scaling: {long:.1f} store names touched "
                f"per heal at the long horizon against {short:.1f} at the "
                f"short one (> {MAX_STORE_SCALING}x) — heals or audits walk "
                "the whole store again (ROADMAP 1)"]
    return []


def _check_fleet_observe(row: Optional[dict],
                         baseline: Dict[str, dict]) -> List[str]:
    """The fleet-observe row: present, observing within its budget, and
    publishing no more events per healed alert than before."""
    if row is None:
        return ["profile: no fleet-observe row — what observing costs "
                "the fleet is no longer measured"]
    items = row.get("line_items", {})
    failures = []
    share = items.get("replay_share")
    if share is None or share > MAX_OBSERVE_SHARE:
        failures.append(
            f"profile fleet-observe: replay_share {share} above "
            f"{MAX_OBSERVE_SHARE} — replaying the tenants' events costs "
            "more of the run than the typed dispatch did (ROADMAP 4)")
    per_heal = items.get("events_per_healed_alert")
    base = baseline.get("fleet-observe")
    limit = MAX_EVENTS_PER_HEALED_ALERT
    if base is not None and base.get("params") == row.get("params"):
        limit = min(limit, base.get("line_items", {}).get(
            "events_per_healed_alert", limit))
    if per_heal is None or per_heal > limit:
        failures.append(
            f"profile fleet-observe: {per_heal} events per healed alert, "
            f"above {limit} — the observed path publishes more events")
    by_kind = items.get("events_by_kind")
    if by_kind is None:
        failures.append("profile fleet-observe: no events_by_kind line "
                        "item — the event vocabulary is not counted")
    else:
        for kind in ABSENT_EVENT_KINDS:
            if by_kind.get(kind, 0) != 0:
                failures.append(
                    f"profile fleet-observe: {by_kind[kind]} {kind} "
                    "event(s), expected 0 — a scan or a lost alert "
                    "publishes a second event")
    per_scan = items.get("unit_emitted_per_scan")
    if per_scan != UNIT_EMITTED_PER_SCAN:
        failures.append(
            f"profile fleet-observe: {per_scan} UnitEmitted per scan, "
            f"expected exactly {UNIT_EMITTED_PER_SCAN}")
    return failures


def check_profile(fresh: dict, baseline: Optional[dict],
                  attribution_slack: float = 0.05) -> List[str]:
    """Failures found in the profiling-layer benchmark.

    Hard invariants (always): every row with an ``attribution_floor``
    meets it, every row's structure digest was stable across its two
    runs, the fullstack row names closure recomputation as a measured
    line item at no more than ``MAX_CLOSURE_PER_ALERT`` per alert and
    at ``INDEX_BUILDS_PER_HEAL`` per heal, builds no Theorem 3 order (``actions_planned`` 0: nothing observes
    its heals) and decides Theorem 1 at most
    ``MAX_UNDO_ANALYSES_PER_HEAL`` times per heal, the
    fullstack-observed row names the order-phase wall as
    ``plan_wall_s`` with at least one ``heal;heal.undo;heal.order``
    call, ``orders_per_heal`` at no more than
    ``MAX_ORDERS_PER_HEAL`` and decides Theorem 1 at most
    ``MAX_UNDO_ANALYSES_PER_HEAL`` times per heal, the store-scaling row
    stays within ``MAX_STORE_SCALING``, the parallel-batch row
    names fan-out overhead as one, the conformance row exists and
    found no violations on its honest run, and the fleet-observe row
    passes :func:`_check_fleet_observe`.  Baseline comparison (tolerated
    absent — the profile
    benchmark is the newest of the set) matches rows by scenario with
    identical ``params`` and fails only when attribution dropped more
    than ``attribution_slack`` absolute below the committed value;
    digests are *not* compared across commits (any behavior change
    legitimately moves them) and wall times are machine noise.
    """
    failures: List[str] = []
    by_scenario: Dict[str, dict] = {}
    for row in fresh["results"]:
        by_scenario[row["scenario"]] = row
        floor = row.get("attribution_floor")
        if floor and row.get("attribution", 0.0) < floor:
            failures.append(
                f"profile {row['scenario']}: attribution "
                f"{row.get('attribution', 0.0):.3f} below the "
                f"{floor:.2f} floor (un-instrumented driver time)"
            )
        if not row.get("digest_stable", False):
            failures.append(
                f"profile {row['scenario']}: structure digest differs "
                "between two identical runs (breakdown shape is "
                "nondeterministic)"
            )
    fullstack = by_scenario.get("fullstack")
    if fullstack is None:
        failures.append("profile: no fullstack row")
    else:
        items = fullstack.get("line_items", {})
        if items.get("closure_recomputations", 0) < 1:
            failures.append(
                "profile fullstack: closure_recomputations line item "
                "missing or zero — the closure rebuild cost (ROADMAP "
                "1(c)) is no longer measured"
            )
        per_alert = items.get("closure_recomputations_per_alert")
        if per_alert is None or per_alert > MAX_CLOSURE_PER_ALERT:
            failures.append(
                f"profile fullstack: closure_recomputations_per_alert "
                f"{per_alert} above {MAX_CLOSURE_PER_ALERT} — the "
                "dependency closure is rebuilt per alert again instead "
                "of built once per heal (ROADMAP 1(c))"
            )
        builds = items.get("index_builds_per_heal")
        if builds != INDEX_BUILDS_PER_HEAL:
            failures.append(
                f"profile fullstack: index_builds_per_heal {builds} is "
                f"not {INDEX_BUILDS_PER_HEAL} — a heal builds no counted "
                "dependency index, or indexes are built beside the "
                "heal's one (ROADMAP 1, 7)"
            )
        planned = items.get("actions_planned")
        if planned != 0:
            failures.append(
                f"profile fullstack: actions_planned {planned} on an "
                "unobserved run — Theorem 3 orders are built that "
                "nothing reads (ROADMAP 1)"
            )
        per_heal = items.get("undo_analyses_per_heal")
        if per_heal is None or per_heal > MAX_UNDO_ANALYSES_PER_HEAL:
            failures.append(
                f"profile fullstack: undo_analyses_per_heal {per_heal} "
                f"above {MAX_UNDO_ANALYSES_PER_HEAL} — unobserved scans "
                "decide Theorem 1 sets that nothing reads (ROADMAP 1, 7)"
            )
    observed = by_scenario.get("fullstack-observed")
    if observed is None:
        failures.append(
            "profile: no fullstack-observed row — the heal.order "
            "phase (Theorem 3 ordering) is no longer measured"
        )
    else:
        items = observed.get("line_items", {})
        per_heal = items.get("orders_per_heal")
        if per_heal is None or per_heal > MAX_ORDERS_PER_HEAL:
            failures.append(
                f"profile fullstack-observed: orders_per_heal "
                f"{per_heal} above {MAX_ORDERS_PER_HEAL} — Theorem 3 "
                "orders are built beside the heal's one order of its "
                "batch (ROADMAP 1)"
            )
        if "plan_wall_s" not in items or not items.get("plan_calls"):
            failures.append(
                "profile fullstack-observed: plan_wall_s line item "
                "missing or heal;heal.undo;heal.order has 0 calls — the "
                "heal.order phase (Theorem 3 ordering) is no longer "
                "measured"
            )
        per_heal = items.get("undo_analyses_per_heal")
        if per_heal is None or per_heal > MAX_UNDO_ANALYSES_PER_HEAL:
            failures.append(
                f"profile fullstack-observed: undo_analyses_per_heal "
                f"{per_heal} above {MAX_UNDO_ANALYSES_PER_HEAL} — "
                "observed scans decide Theorem 1 sets beside the heal's "
                "decisions of its batch (ROADMAP 1, 7)"
            )
    failures += _check_store_scaling(by_scenario.get("store-scaling"))
    parallel = by_scenario.get("batch-parallel")
    if parallel is None:
        failures.append("profile: no batch-parallel row")
    elif "fan_out_overhead_s" not in parallel.get("line_items", {}):
        failures.append(
            "profile batch-parallel: fan_out_overhead_s line item "
            "missing — the parallel overhead (ROADMAP item 3) is no "
            "longer measured"
        )
    conformance = by_scenario.get("conformance")
    if conformance is None:
        failures.append(
            "profile: no conformance row — the LTLf monitor's own cost "
            "is no longer measured"
        )
    elif conformance.get("line_items", {}).get("violations") != 0:
        failures.append(
            f"profile conformance: "
            f"{conformance.get('line_items', {}).get('violations')} "
            "violation(s) on an honest fullstack run (Definition 2 "
            "monitor or pipeline regressed)"
        )
    failures += _check_fleet_observe(
        by_scenario.get("fleet-observe"),
        {row["scenario"]: row for row in baseline["results"]}
        if baseline is not None else {})
    compared = 0
    if baseline is not None:
        base_by_scenario = {row["scenario"]: row
                            for row in baseline["results"]}
        for scenario, row in by_scenario.items():
            base = base_by_scenario.get(scenario)
            if base is None or base.get("params") != row.get("params"):
                continue
            base_attr = base.get("attribution")
            fresh_attr = row.get("attribution")
            if base_attr is None or fresh_attr is None:
                continue
            compared += 1
            if fresh_attr < base_attr - attribution_slack:
                failures.append(
                    f"profile {scenario}: attribution regressed "
                    f"{base_attr:.3f} -> {fresh_attr:.3f} "
                    f"(> {attribution_slack:.2f} absolute drop)"
                )
    print(f"profile: {len(fresh['results'])} rows checked, "
          f"{compared} attributions compared against baseline")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh-dir", type=pathlib.Path, required=True,
        help="directory holding the freshly produced BENCH_*.json")
    parser.add_argument(
        "--baseline-dir", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="directory holding the committed BENCH_*.json "
             "(default: the repository root)")
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed relative speedup drop on comparable rows "
             "(default 0.25 = 25%%)")
    parser.add_argument(
        "--max-abs-diff", type=float, default=1e-6,
        help="ceiling on dense-vs-sparse CTMC disagreement "
             "(default 1e-6)")
    args = parser.parse_args(argv)

    fresh_ctmc = _load(args.fresh_dir / "BENCH_ctmc.json",
                       "ctmc_backends")
    fresh_sim = _load(args.fresh_dir / "BENCH_sim.json", "sim_batch")
    base_ctmc = _load(args.baseline_dir / "BENCH_ctmc.json",
                      "ctmc_backends")
    base_sim = _load(args.baseline_dir / "BENCH_sim.json", "sim_batch")

    failures = (
        check_ctmc(fresh_ctmc, base_ctmc, args.tolerance,
                   args.max_abs_diff)
        + check_sim(fresh_sim, base_sim, args.tolerance)
    )

    # The fleet sweep is optional on both sides: a fresh run may skip
    # it, and older baselines predate it entirely.
    fresh_fleet_path = args.fresh_dir / "BENCH_fleet.json"
    if fresh_fleet_path.exists():
        fresh_fleet = _load(fresh_fleet_path, "fleet")
        base_fleet_path = args.baseline_dir / "BENCH_fleet.json"
        base_fleet = (_load(base_fleet_path, "fleet")
                      if base_fleet_path.exists() else None)
        failures += check_fleet(fresh_fleet, base_fleet, args.tolerance)
    else:
        print("fleet: no fresh BENCH_fleet.json, skipped")

    # Same for the profiling benchmark, the newest of the set.
    fresh_profile_path = args.fresh_dir / "BENCH_profile.json"
    if fresh_profile_path.exists():
        fresh_profile = _load(fresh_profile_path, "profile")
        base_profile_path = args.baseline_dir / "BENCH_profile.json"
        base_profile = (_load(base_profile_path, "profile")
                        if base_profile_path.exists() else None)
        failures += check_profile(fresh_profile, base_profile)
    else:
        print("profile: no fresh BENCH_profile.json, skipped")
    if failures:
        print(f"\nFAIL: {len(failures)} benchmark regression(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("OK: no benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
