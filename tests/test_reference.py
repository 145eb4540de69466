"""run_experiments against the plain per-client, per-step protocol of oracles.py.

The reference shares with the engine only the model inits and the anchors,
so an engine that stacks, fuses or reorders anything must still give every
client the loss terms, skips and accuracies of the protocol as README
states it.
"""

import functools
import math

import pytest

from fedstruct.data import generate_mixture, partition_dirichlet
from fedstruct.errors import NumericFailureError
from fedstruct.federation import (
    LOSS_TERMS,
    PROTOTYPE_MODES,
    SCENARIOS,
    RoundConfig,
    run_experiments,
)
from fedstruct.losses import KNOWN_LOSSES, AlignmentKind
from fedstruct.models import ArchitectureSpec
from oracles import reference_run

TERMS_RTOL = 1e-9  # perfbench's reference check holds loss terms to the same
ROUNDS = 3
# four Dirichlet(0.5) clients of 18, 20, 6 and 8 train rows under three
# architectures (a linear map, one and two tanh layers), two clients per
# round; at batch 5 the 6-row client drops a one-row remainder
ARCHS = [ArchitectureSpec((), 4), ArchitectureSpec((6,), 4), ArchitectureSpec((5, 3), 4)]
SEED = 125


def _shards():
    ds = generate_mixture(4, 5, 16, 1.0, 0.6, seed=SEED)
    return partition_dirichlet(ds, alpha=0.5, num_clients=4, seed=SEED)


def _cfgs(mode):
    return [RoundConfig(AlignmentKind.parse(loss, 0.5), lam=1.0, gamma=0.5, local_epochs=2,
                        batch_size=5, learning_rate=0.1, participation_fraction=0.5,
                        prototype_mode=mode) for loss in KNOWN_LOSSES]


def _differences(reports, reference) -> list[str]:
    """Where run_experiments' reports of one config differ from its reference run."""
    out = []
    for r, (rep, ref) in enumerate(zip(reports, reference)):
        for what, got, want in (("participants", rep.participants, ref["participants"]),
                                ("accuracies", rep.per_client_accuracy, ref["accuracies"]),
                                ("skips", rep.skipped_structural_steps, ref["skips"])):
            if got != want:
                out.append(f"round {r} {what}: {got} vs reference {want}")
        for i, want in ref["terms"].items():
            for term, w in zip(LOSS_TERMS, want):
                g = rep.loss_terms[i][term]
                if not math.isclose(g, w, rel_tol=TERMS_RTOL):
                    out.append(f"round {r} client {i} {term}: {g!r} vs reference {w!r}")
    return out


@functools.lru_cache(maxsize=None)
def _runs(scenario, mode, seed=SEED):
    """Every loss's run_experiments result in one scenario and prototype
    mode, at master seed `seed` on the shards of SEED."""
    shards, cfgs = _shards(), _cfgs(mode)
    kwargs = dict(rounds=ROUNDS, seed=seed, num_classes=4, scenario=scenario)
    results = run_experiments(shards, ARCHS, cfgs, **kwargs)
    assert not any(isinstance(r, NumericFailureError) for r in results)
    return shards, cfgs, kwargs, results


@pytest.mark.parametrize("mode", PROTOTYPE_MODES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_loss_follows_the_reference_protocol(scenario, mode):
    shards, cfgs, kwargs, results = _runs(scenario, mode)
    for cfg, reports in zip(cfgs, results):
        reference = reference_run(shards, ARCHS, cfg, **kwargs)
        assert len(reports) == len(reference) == ROUNDS
        assert _differences(reports, reference) == [], cfg.alignment.name


def test_a_multi_word_master_seed_follows_the_reference_protocol():
    # a master seed of 3 words gives every batch stream 6 entropy words,
    # more than SeedSequence's pool of 4, which the engine's seeding pass
    # must mix as numpy does; the reference builds its streams with numpy
    shards, cfgs, kwargs, results = _runs("hetero", "aggregate", 2**64 + SEED)
    for cfg, reports in zip(cfgs, results):
        reference = reference_run(shards, ARCHS, cfg, **kwargs)
        assert len(reports) == len(reference) == ROUNDS
        assert _differences(reports, reference) == [], cfg.alignment.name


def test_the_reference_configs_exercise_both_terms_and_the_skips():
    # terms that are all zero would agree whatever the engine did with them
    proto = inst = skips = 0
    for scenario in SCENARIOS:
        for mode in PROTOTYPE_MODES:
            shards, _, _, results = _runs(scenario, mode)
            for reports in results:
                for rep in reports:
                    proto += sum(t["proto"] != 0.0 for t in rep.loss_terms.values())
                    inst += sum(t["inst"] != 0.0 for t in rep.loss_terms.values())
                    skips += rep.skipped_structural_steps
    assert proto > 0 and inst > 0 and skips > 0
    # the aggregated global set lacks a class in round 1 and keeps one stale
    classes = [{int(c) for i in rep.participants for c in shards[i].train_labels}
               for rep in results[0]]
    assert classes[1] - classes[0]  # trained on in round 1, absent from round 0's uploads
    assert classes[0] - classes[1]  # uploaded in round 0 alone, kept for round 2
    # a participant's shard leaves a one-row remainder, which is dropped
    batch = _cfgs("aggregate")[0].batch_size
    assert any(shards[i].num_train % batch == 1 for i in results[0][0].participants)


def test_the_reference_fails_on_a_changed_gamma():
    # the reference run with gamma off by a relative 1e-6 must not pass
    shards, cfgs, kwargs, results = _runs("hetero", "aggregate")
    for cfg, reports in zip(cfgs, results):
        nudged = RoundConfig(**{**cfg.__dict__, "gamma": cfg.gamma * (1 + 1e-6)})
        differences = _differences(reports, reference_run(shards, ARCHS, nudged, **kwargs))
        assert any(" total: " in d for d in differences), cfg.alignment.name
