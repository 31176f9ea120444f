"""The table-driven Gillespie loop against a state-keyed reference loop.

``GillespieSimulator`` runs over a compiled
:class:`~repro.markov.stg.JumpTable`: integer state indices, inline
exponential draws and a ``bisect`` successor pick.  The reference
below is the straightforward loop it replaces, keyed by :class:`State`
and drawing through ``rng.expovariate``.  Same seed, same RNG draws, so
every result field, the occupancy key order, the event stream and the
generator's final state must be exactly equal.

A second state-keyed loop samples the STG under MMPP (bursty) arrivals;
it is the independent oracle for the exact product-chain loss of
:mod:`repro.markov.bursty`.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
from typing import Dict, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import EXIT_DOMAIN_ERROR, main
from repro.errors import SimulationError
from repro.markov.degradation import power_law
from repro.markov.stg import RecoverySTG, State, StateCategory
from repro.obs.events import (
    AlertEnqueued,
    AlertLost,
    EventBus,
    EventRecorder,
    StateTransition,
    UnitEmitted,
)
from repro.markov.bursty import BurstModel, bursty_loss
from repro.sim.ctmc_sim import GillespieResult, GillespieSimulator


def _grouped(stg: RecoverySTG) -> Dict[State, Tuple[Tuple[State, float], ...]]:
    out: Dict[State, Tuple[Tuple[State, float], ...]] = {
        s: () for s in stg.states
    }
    grouped: Dict[State, Dict[State, float]] = {}
    for (src, dst), rate in stg.transition_rates().items():
        grouped.setdefault(src, {})[dst] = rate
    for src, dsts in grouped.items():
        out[src] = tuple(sorted(dsts.items()))
    return out


def _result(horizon, time_in, loss_time, arrivals, lost, jumps):
    result = GillespieResult(
        horizon=horizon,
        occupancy={s: t / horizon for s, t in time_in.items()},
        loss_time_fraction=loss_time / horizon,
        arrivals=arrivals,
        arrivals_lost=lost,
        jumps=jumps,
    )
    cat = {c: 0.0 for c in StateCategory}
    for s, frac in result.occupancy.items():
        cat[s.category] += frac
    result.category_occupancy = cat
    return result


def reference_run(stg, rng, horizon, start=None, bus=None,
                  max_jumps=50_000_000):
    """The state-keyed Gillespie loop."""
    if horizon <= 0:
        raise SimulationError(f"horizon must be > 0, got {horizon}")
    table = _grouped(stg)
    state = start if start is not None else stg.normal_state
    lam = stg.arrival_rate
    bus = bus if bus is not None and bus.active else None
    time_in: Dict[State, float] = {}
    now = 0.0
    jumps = arrivals = arrivals_lost = 0
    loss_states = set(stg.loss_states())
    loss_time = 0.0

    def poisson_count(mean: float) -> int:
        if mean <= 0:
            return 0
        count = 0
        acc = rng.expovariate(1.0)
        while acc < mean:
            count += 1
            acc += rng.expovariate(1.0)
        return count

    while now < horizon:
        if jumps >= max_jumps:
            raise SimulationError(
                f"exceeded {max_jumps} jumps before horizon {horizon}"
            )
        out = table[state]
        total = sum(rate for _, rate in out)
        dwell = rng.expovariate(total) if total > 0 else horizon - now
        end = min(now + dwell, horizon)
        elapsed = end - now
        time_in[state] = time_in.get(state, 0.0) + elapsed
        if state in loss_states:
            loss_time += elapsed
        if lam > 0 and state.alerts >= stg.alert_buffer:
            lost_here = poisson_count(lam * elapsed)
            arrivals += lost_here
            arrivals_lost += lost_here
            if bus is not None:
                for _ in range(lost_here):
                    bus.publish(AlertLost(end, uid="",
                                          queue_depth=state.alerts))
        now = end
        if now >= horizon or total <= 0:
            break
        x = rng.random() * total
        acc = 0.0
        nxt = out[-1][0]
        for dst, rate in out:
            acc += rate
            if x <= acc:
                nxt = dst
                break
        if nxt.alerts == state.alerts + 1:
            arrivals += 1
            if bus is not None:
                bus.publish(AlertEnqueued(now, uid="",
                                          queue_depth=nxt.alerts))
        elif bus is not None and nxt.units == state.units + 1:
            bus.publish(UnitEmitted(now, queue_depth=nxt.units))
        if bus is not None:
            bus.publish(StateTransition(
                now, old=str(state), new=str(nxt),
                old_category=state.category.name,
                new_category=nxt.category.name,
            ))
        state = nxt
        jumps += 1
    return _result(horizon, time_in, loss_time, arrivals, arrivals_lost,
                   jumps)


def reference_bursty_run(stg, burst, rng, horizon):
    """The state-keyed MMPP loop over the λ = 0 service transitions."""
    service_of = _grouped(RecoverySTG(
        arrival_rate=0.0, scan=stg.scan_schedule,
        recovery=stg.recovery_schedule,
        recovery_buffer=stg.recovery_buffer,
        alert_buffer=stg.alert_buffer,
    ))
    state = stg.normal_state
    in_burst = False
    time_in: Dict[State, float] = {}
    loss_states = set(stg.loss_states())
    loss_time = 0.0
    arrivals = arrivals_lost = jumps = 0
    now = 0.0
    while now < horizon:
        lam = burst.burst_rate if in_burst else burst.quiet_rate
        mod_rate = burst.decay_rate if in_burst else burst.onset_rate
        service = service_of[state]
        service_total = sum(r for _, r in service)
        arrival_rate = lam if state.alerts < stg.alert_buffer else 0.0
        lost_rate = lam - arrival_rate
        total = service_total + arrival_rate + lost_rate + mod_rate
        dwell = rng.expovariate(total) if total > 0 else horizon - now
        end = min(now + dwell, horizon)
        elapsed = end - now
        time_in[state] = time_in.get(state, 0.0) + elapsed
        if state in loss_states:
            loss_time += elapsed
        now = end
        if now >= horizon or total <= 0:
            break
        x = rng.random() * total
        if x < service_total:
            acc = 0.0
            for dst, rate in service:
                acc += rate
                if x <= acc:
                    state = dst
                    break
        elif x < service_total + arrival_rate:
            arrivals += 1
            state = State(state.alerts + 1, state.units)
        elif x < service_total + arrival_rate + lost_rate:
            arrivals += 1
            arrivals_lost += 1
        else:
            in_burst = not in_burst
        jumps += 1
    return _result(horizon, time_in, loss_time, arrivals, arrivals_lost,
                   jumps)


def assert_same_result(got: GillespieResult, want: GillespieResult) -> None:
    assert vars(got) == vars(want)
    assert list(got.occupancy) == list(want.occupancy)
    assert list(got.category_occupancy) == list(want.category_occupancy)


# -- strategies ---------------------------------------------------------------

LAMBDAS = st.one_of(
    st.just(0.0),
    st.floats(0.01, 0.5),     # mostly idle
    st.floats(20.0, 80.0),    # overloaded: parks on the loss edge
)


@st.composite
def stgs(draw) -> RecoverySTG:
    return RecoverySTG(
        arrival_rate=draw(LAMBDAS),
        scan=power_law(draw(st.floats(0.5, 30.0)),
                       draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))),
        recovery=power_law(draw(st.floats(0.5, 30.0)),
                           draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))),
        recovery_buffer=draw(st.integers(1, 6)),
        alert_buffer=draw(st.integers(1, 6)),
    )


@st.composite
def starts(draw, stg: RecoverySTG) -> Optional[State]:
    A, R = stg.alert_buffer, stg.recovery_buffer
    corners = [State(0, 0), State(A, 0), State(0, R), State(A, R)]
    return draw(st.one_of(
        st.none(),
        st.sampled_from(corners),
        st.builds(State, st.integers(0, A), st.integers(0, R)),
    ))


HORIZONS = st.sampled_from([0.01, 0.3, 2.0, 25.0, 150.0])


def _both(stg, seed, horizon, start=None, max_jumps=50_000_000,
          with_bus=False):
    """Run table and reference on equal seeds; return outcome, events
    and final RNG state of each."""
    runs = []
    for runner in ("table", "reference"):
        rng = random.Random(seed)
        bus = recorder = None
        if with_bus:
            bus = EventBus()
            recorder = EventRecorder().attach(bus)
        try:
            if runner == "table":
                out = GillespieSimulator(stg, rng, bus=bus).run(
                    horizon, start=start, max_jumps=max_jumps)
            else:
                out = reference_run(stg, rng, horizon, start=start, bus=bus,
                                    max_jumps=max_jumps)
        except SimulationError as exc:
            out = str(exc)
        runs.append((out, recorder.events if recorder else None,
                     rng.getstate()))
    return runs


class TestGillespieTable:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), stg=stgs(), seed=st.integers(0, 2**32),
           horizon=HORIZONS)
    def test_every_field_matches_the_reference(self, data, stg, seed,
                                               horizon):
        start = data.draw(starts(stg))
        (got, _, got_rng), (want, _, want_rng) = _both(
            stg, seed, horizon, start=start)
        assert_same_result(got, want)
        assert got_rng == want_rng

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), stg=stgs(), seed=st.integers(0, 2**32),
           horizon=HORIZONS)
    def test_event_stream_matches_the_reference(self, data, stg, seed,
                                                horizon):
        start = data.draw(starts(stg))
        (got, got_events, _), (want, want_events, _) = _both(
            stg, seed, horizon, start=start, with_bus=True)
        assert_same_result(got, want)
        assert got_events == want_events

    @settings(max_examples=60, deadline=None)
    @given(stg=stgs(), seed=st.integers(0, 2**32),
           max_jumps=st.integers(0, 40))
    def test_max_jumps_error_matches_the_reference(self, stg, seed,
                                                   max_jumps):
        (got, _, got_rng), (want, _, want_rng) = _both(
            stg, seed, 150.0, max_jumps=max_jumps)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_result(got, want)
        assert got_rng == want_rng

    def test_absorbing_start_sits_out_the_horizon(self):
        # λ = 0: NORMAL has no way out, so the run is one jump-free dwell.
        stg = RecoverySTG.paper_default(arrival_rate=0.0, buffer_size=3)
        (got, _, _), (want, _, _) = _both(stg, 5, 10.0)
        assert_same_result(got, want)
        assert got.jumps == 0
        assert got.occupancy == {State(0, 0): 1.0}

    def test_table_is_compiled_once_per_stg(self):
        stg = RecoverySTG.paper_default(arrival_rate=2.0, buffer_size=4)
        assert stg.jump_table() is stg.jump_table()
        other = RecoverySTG.paper_default(arrival_rate=2.0, buffer_size=4)
        assert other.jump_table() is not stg.jump_table()
        # Workers compile their own copy instead of receiving one.
        assert pickle.loads(pickle.dumps(stg))._jump_table is None

    def test_table_layout(self):
        stg = RecoverySTG.paper_default(arrival_rate=2.0, buffer_size=2)
        table = stg.jump_table()
        assert list(table.states) == stg.states
        i = table.index[State(1, 1)]
        # S:1/1 scans to (0, 2) at μ_1 = 15 or takes an arrival to (2, 1).
        assert table.cum[i] == [15.0, 17.0]
        assert table.total[i] == 17.0
        assert [table.states[j] for j in table.succ[i]] == [
            State(0, 2), State(2, 1), State(2, 1)]
        assert table.arrival[i] == [False, True, True]
        assert table.loss == [s.alerts == 2 for s in stg.states]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _stripped_events_sha256(path) -> str:
    """Digest of a flight log's event records with the ``record`` key
    dropped, one compact JSON object per line: the bytes the retired
    ``obs --events`` file held for the same run."""
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.pop("record") == "event":
            lines.append(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")))
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


class TestPinnedEventFiles:
    """Flight logs of seeded ``obs record`` runs.  The stripped-event
    digests were taken from ``obs --events`` files before the loop was
    table-driven (and before the flight log became the one event
    format), and re-taken when ``UnitEmitted`` lost its claim fields
    and again when it lost its constant ``units`` field; any change to
    draws or event order moves them."""

    def test_health_run(self, tmp_path, capsys):
        # --health rides a monitor on fullstack runs only: a gillespie
        # record refuses it instead of silently recording a plain run.
        log = tmp_path / "run.jsonl"
        code = main(["obs", "record", "--scenario", "gillespie", "--health",
                     "--lam", "6", "--buffer", "4", "--horizon", "200",
                     "--seed", "9", "--log", str(log)])
        err = capsys.readouterr().err
        assert code == EXIT_DOMAIN_ERROR
        assert err.startswith("error: --health ")
        assert "gillespie scenario has none" in err
        assert not log.exists()

    def test_plain_run(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        main(["obs", "record", "--scenario", "gillespie", "--lam", "3",
              "--buffer", "5", "--horizon", "300", "--seed", "4",
              "--log", str(log)])
        capsys.readouterr()
        assert len(log.read_text().splitlines()) == 3673  # 3,670 events
        assert _stripped_events_sha256(log) == (
            "63a362a56aca60debb6d01136015365e"
            "ae7de06c3fb2c03f445f2d13eb577613")
        assert _sha256(log) == (
            "02a0b1068bfcad5d854bf6aefe23e426"
            "9332a0f70188f2603e8b5d1b3cfc312a")


# -- the MMPP loop ---------------------------------------------------------------

class TestBurstyTable:
    """The state-keyed MMPP loop is the independent oracle for the exact
    product-chain loss: its long-run loss-time fraction must agree with
    :func:`~repro.markov.bursty.bursty_loss` within sampling error."""

    @pytest.mark.parametrize("buffer_size", [2, 5, 9])
    def test_paper_shapes(self, buffer_size):
        stg = RecoverySTG.paper_default(arrival_rate=3.0,
                                        buffer_size=buffer_size)
        burst = BurstModel.with_mean(3.0, 4.0, 2.0)
        sampled = reference_bursty_run(stg, burst, random.Random(1),
                                       20_000.0)
        # One run's loss-time fraction spreads by about 0.006 at this
        # horizon (bursts of mean length 2 every ~8 time units); the
        # bound is four of those.
        assert sampled.loss_time_fraction == pytest.approx(
            bursty_loss(stg, burst), abs=0.025
        )
