"""Section VI — the design-guideline procedure, automated.

Sizes recovery systems for several (λ, ε) targets, checks the
procedure's promises (feasible configurations meet ε with the smallest
adequate buffer; hopeless configurations are reported infeasible), and
measures peak resilience at the chosen design points.
"""

from __future__ import annotations

from repro.markov.degradation import power_law
from repro.markov.design import design_system, peak_resilience
from repro.markov.stg import RecoverySTG
from repro.report.tables import Table

TARGETS = [
    # (lambda, epsilon, mu1, xi1, alpha)  — alpha: degradation exponent
    (0.5, 1e-3, 15.0, 20.0, 1.0),
    (1.0, 1e-2, 15.0, 20.0, 1.0),
    (1.0, 1e-3, 15.0, 20.0, 0.5),
    (2.0, 1e-2, 15.0, 20.0, 0.5),
    (2.0, 1e-4, 2.0, 3.0, 1.0),     # hopeless: must be infeasible
]


def run_design_procedure():
    rows = []
    for lam, eps, mu1, xi1, alpha in TARGETS:
        result = design_system(
            arrival_rate=lam,
            epsilon=eps,
            scan=power_law(mu1, alpha),
            recovery=power_law(xi1, alpha),
            max_buffer=30,
        )
        if result.feasible:
            stg = RecoverySTG(
                arrival_rate=lam,
                scan=power_law(mu1, alpha),
                recovery=power_law(xi1, alpha),
                recovery_buffer=result.buffer_size,
            )
            resist = peak_resilience(
                stg, epsilon=max(eps, 0.01), horizon=20.0, step=0.5
            )
        else:
            resist = 0.0
        rows.append((lam, eps, mu1, xi1, alpha, result, resist))
    return rows


def test_design_guidelines(save_table, benchmark):
    rows = benchmark.pedantic(run_design_procedure, rounds=1, iterations=1)

    feasible = {i: r[5].feasible for i, r in enumerate(rows)}
    assert feasible[0] and feasible[1] and feasible[2] and feasible[3]
    assert not feasible[4]  # λ=2 with μ₁=2, ξ₁=3 cannot reach ε=1e-4

    for lam, eps, *_rest, result, resist in [
        (r[0], r[1], r[2], r[3], r[4], r[5], r[6]) for r in rows
    ]:
        if result.feasible:
            assert result.achieved_epsilon <= eps
            # Smallest adequate buffer: every smaller size missed ε.
            for n, loss in result.swept.items():
                if n < result.buffer_size:
                    assert loss > eps
            # A well-designed system absorbs its own design rate.
            assert resist >= 10.0

    table = Table(
        "Section VI: design procedure outcomes",
        ["lambda", "epsilon", "mu1", "xi1", "alpha",
         "feasible", "buffer", "achieved eps", "peak resilience"],
    )
    for lam, eps, mu1, xi1, alpha, result, resist in rows:
        table.add_row(
            lam, eps, mu1, xi1, alpha,
            "yes" if result.feasible else "NO",
            result.buffer_size, result.achieved_epsilon, resist,
        )
    save_table("design_guidelines", table.render())
