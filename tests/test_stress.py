"""Soak test: sustained operation across many epochs of random attacks.

A long-lived system alternates normal operation, attacks and heals for
many epochs; after every heal the whole accumulated history must still
audit as strictly correct against the original initial data.  This is
the closest in-process approximation of the paper's "system under
sustained attack" operating regime.
"""

import random

import pytest

from repro.core.epochs import EpochManager
from repro.ids.attacks import AttackCampaign
from repro.workflow.data import DataStore
from repro.workflow.spec import WorkflowSpec, workflow


def make_spec(name: str, rng: random.Random, shared=("pool", "meter")):
    """A small random linear workflow over private + shared objects."""
    n_tasks = rng.randint(2, 4)
    builder = workflow(name)
    prev = None
    coeff = rng.randint(2, 9)
    for i in range(n_tasks):
        tid = f"t{i}"
        own = f"{name}_o{i}"
        reads = [rng.choice(shared)]
        if prev is not None:
            reads.append(f"{name}_o{i-1}")
        writes = [own]
        if rng.random() < 0.5:
            writes.append(rng.choice(shared))

        def compute(d, _w=tuple(writes), _r=tuple(reads), _c=coeff + i):
            total = sum(int(d[k]) for k in _r)
            return {w: (total * _c + 1) % 9973 for w in _w}

        builder.task(tid, reads=reads, writes=writes, compute=compute)
        if prev is not None:
            builder.edge(prev, tid)
        prev = tid
    return builder.build()


@pytest.mark.parametrize("seed", [0, 1])
def test_many_epochs_of_attacks(seed):
    rng = random.Random(seed)
    initial = {"pool": 5, "meter": 11}
    mgr = EpochManager(DataStore(initial), initial)

    for epoch in range(6):
        campaign = AttackCampaign()
        attacked_names = []
        n_runs = rng.randint(2, 4)
        for i in range(n_runs):
            name = f"e{epoch}w{i}"
            spec = make_spec(name, rng)
            if rng.random() < 0.6:
                task = rng.choice(sorted(spec.tasks))
                campaign.transform_task(
                    task,
                    lambda inp, out: {
                        k: (v + 7777) % 9973 for k, v in out.items()
                    },
                    workflow_instance=name,
                )
                attacked_names.append(name)
            mgr.run_workflow_attacked(spec, campaign, name=name)
        report = mgr.heal(campaign.malicious_uids)
        # Every attacked instance that committed was repaired or removed.
        for uid in campaign.malicious_uids:
            assert uid in report.undone
        audit = mgr.audit()
        assert audit.ok, (epoch, audit.problems[:3])

    assert mgr.epoch == 6


def test_epoch_soak_with_forged_runs():
    rng = random.Random(42)
    initial = {"pool": 5, "meter": 11}
    mgr = EpochManager(DataStore(initial), initial)

    for epoch in range(4):
        legit = f"e{epoch}_legit"
        forged = f"e{epoch}_forged"
        mgr.run_workflow(make_spec(legit, rng), name=legit)
        mgr.run_workflow(make_spec(forged, rng), name=forged)
        report = mgr.heal([], forged_runs=[forged])
        assert all(u.startswith(forged) for u in report.abandoned)
        audit = mgr.audit()
        assert audit.ok, audit.problems[:3]
