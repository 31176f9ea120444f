"""Extension G — the design toolkit: sensitivities and passage times.

Two quantitative instruments the paper's Section VI guidelines imply
but never compute:

- **elasticities** of the steady-state loss probability with respect to
  each design parameter — *where to spend* (faster analyzer vs faster
  scheduler vs more buffer);
- **mean time to first alert loss** — the exact form of Case 6's
  "resists about 5 time-units" reading, across attack rates.

Asserted shapes: attack rate raises loss and rates lower it (signs);
under ``1/k`` degradation the marginal buffer slot *increases* loss
(Figure 4(b)'s regime); time-to-loss falls monotonically with the
attack rate and explodes for the well-provisioned system.
"""

from __future__ import annotations

from repro.markov.passage import mean_time_to_loss
from repro.markov.sensitivity import loss_sensitivities
from repro.markov.stg import RecoverySTG
from repro.report.tables import Table

DESIGN_POINTS = [
    # (lambda, mu1, xi1, buffer)
    (0.5, 15.0, 20.0, 10),
    (1.0, 15.0, 20.0, 10),
    (1.0, 2.0, 3.0, 10),      # the paper's "poor" configuration
]
RATES_FOR_PASSAGE = [0.5, 1.0, 2.0, 4.0]


def compute_toolkit():
    sens_rows = []
    for lam, mu1, xi1, buffer_size in DESIGN_POINTS:
        sens = loss_sensitivities(
            lam=lam, mu1=mu1, xi1=xi1, buffer_size=buffer_size
        )
        sens_rows.append(((lam, mu1, xi1, buffer_size), sens))
    passage_rows = []
    for lam in RATES_FOR_PASSAGE:
        good = RecoverySTG.paper_default(arrival_rate=lam, buffer_size=8)
        poor = RecoverySTG.paper_default(
            arrival_rate=lam, mu1=2.0, xi1=3.0, buffer_size=8
        )
        passage_rows.append(
            (lam, mean_time_to_loss(good), mean_time_to_loss(poor))
        )
    return sens_rows, passage_rows


def test_design_toolkit(save_table, benchmark):
    sens_rows, passage_rows = benchmark.pedantic(
        compute_toolkit, rounds=1, iterations=1
    )

    sens_table = Table(
        "Extension G: elasticity of loss probability per parameter",
        ["lambda", "mu1", "xi1", "buffer", "E[lambda]", "E[mu1]",
         "E[xi1]", "d(loss)/slot"],
    )
    for (lam, mu1, xi1, buffer_size), sens in sens_rows:
        by = {s.parameter: s.elasticity for s in sens}
        # Signs: attacks hurt, processing rates help.
        assert by["lambda"] > 0
        assert by["mu1"] < 0 and by["xi1"] < 0
        sens_table.add_row(
            lam, mu1, xi1, buffer_size,
            by["lambda"], by["mu1"], by["xi1"], by["buffer"],
        )
    # The Figure 4(b) regime: one extra slot raises loss for the
    # healthy design under 1/k degradation.
    healthy = dict(
        (s.parameter, s.elasticity) for s in sens_rows[1][1]
    )
    assert healthy["buffer"] > 0

    passage_table = Table(
        "Extension G: mean time to first alert loss (buffer 8)",
        ["lambda", "good system (mu1=15, xi1=20)",
         "poor system (mu1=2, xi1=3)"],
    )
    for lam, good_t, poor_t in passage_rows:
        passage_table.add_row(lam, good_t, poor_t)
        assert good_t > poor_t  # provisioning buys survival time
    goods = [g for _, g, __ in passage_rows]
    poors = [p for _, __, p in passage_rows]
    assert goods == sorted(goods, reverse=True)
    assert poors == sorted(poors, reverse=True)
    # The well-provisioned system at its design rate effectively never
    # loses an alert; the poor one measures its life in tens of units.
    assert goods[0] > 1e5
    assert poors[1] < 100.0

    save_table(
        "design_toolkit",
        sens_table.render() + "\n\n" + passage_table.render(),
    )
