"""Lockstep replicas: every run of a run_experiments call is its solo run.

run_experiments advances the runs of one seed as replicas along a leading
axis of every array.  The contract is bit-identity, not a tolerance: each
replica's rounds.jsonl equals the one its config writes alone, and a
replica that diverges fails with its solo message while the others carry
on.  The stacked kernels are checked the same way against their slices.
"""

import copy
import io
import json

import numpy as np
import pytest

from fedstruct.config import architectures, config_from_dict, round_config
from fedstruct.errors import ContractError, DegenerateInputError, NumericFailureError
from fedstruct.federation import (
    PROTOTYPE_MODES,
    SCENARIOS,
    PrototypeSet,
    RoundConfig,
    _class_means,
    aggregate_prototypes,
    batch_prototypes,
    run_experiment,
    run_experiments,
)
from fedstruct.losses import (
    KNOWN_LOSSES,
    _PAIRWISE_KERNELS,
    _contrastive,
    loss_contrastive,
    pairwise_loss,
)
from fedstruct.models import (
    ArchitectureSpec,
    _backward_and_step,
    _forward,
    _softmax_cross_entropy,
    backward_and_step,
    build_model,
    forward,
    loss_supervised,
    replicate,
)
from fedstruct.runner import build_shards, run_scenario, run_scenarios, write_rounds_jsonl

# the README's demo.json at seed 1, and test_cli's TINY and UNSTABLE configs
DEMO = {
    "dataset": {"classes": 5, "input_dim": 8, "samples_per_class": 40},
    "partition": {"clients": 4, "alpha": 0.5},
    "training": {"rounds": 10, "batch_size": 16, "local_epochs": 1},
    "seed": 1,
}
TINY = {
    "dataset": {"classes": 3, "input_dim": 5, "samples_per_class": 20,
                "separation": 1.0, "noise": 0.5},
    "partition": {"clients": 2, "alpha": 5.0},
    "model": {"hidden_widths": [[], [8]], "feature_dim": 4},
    "training": {"rounds": 2, "batch_size": 8, "local_epochs": 1, "learning_rate": 0.1},
}
UNSTABLE = {
    "dataset": {"classes": 3, "input_dim": 6, "samples_per_class": 20,
                "separation": 1.0, "noise": 0.3},
    "partition": {"clients": 2, "alpha": 5.0},
    "model": {"hidden_widths": [[], [8]], "feature_dim": 4},
    "training": {"alignment": "mse", "rounds": 8, "batch_size": 8,
                 "local_epochs": 1, "learning_rate": 1000.0,
                 "prototype_mode": "fixed_hypersphere"},
}
# the five losses under five weight pairs, so that each alignment term sees
# a different set of loss kinds
MIXED = list(zip(KNOWN_LOSSES, (1.0, 0.5, 0.0, 2.0, 1.0), (1.0, 0.0, 2.0, 0.5, 1.0)))


def _setup(payload, scenario, mode):
    payload = copy.deepcopy(payload)
    payload["training"]["prototype_mode"] = mode
    cfg = config_from_dict(payload)
    _, shards = build_shards(cfg)
    kwargs = dict(rounds=cfg.training.rounds, seed=cfg.seed,
                  num_classes=cfg.dataset.classes, scenario=scenario)
    return cfg, shards, architectures(cfg), kwargs


def _round_config(cfg, loss, lam, gamma):
    point = copy.deepcopy(cfg)
    point.training.alignment, point.training.lam, point.training.gamma = loss, lam, gamma
    return round_config(point)


def _jsonl(reports) -> bytes:
    buf = io.StringIO()
    for rep in reports:
        buf.write(json.dumps(rep.to_json_dict(), sort_keys=True) + "\n")
    return buf.getvalue().encode()


def _solo(shards, archs, rc, kwargs):
    """The rounds.jsonl bytes of one config run alone, or its failure message."""
    try:
        return _jsonl(run_experiment(shards, archs, rc, **kwargs))
    except NumericFailureError as exc:
        return str(exc)


def _lockstep(shards, archs, rcs, kwargs):
    return [str(r) if isinstance(r, NumericFailureError) else _jsonl(r)
            for r in run_experiments(shards, archs, rcs, **kwargs)]


@pytest.mark.parametrize("mode", PROTOTYPE_MODES)
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("payload", [DEMO, TINY], ids=["demo", "tiny"])
def test_every_replica_equals_its_solo_run(payload, scenario, mode):
    cfg, shards, archs, kwargs = _setup(payload, scenario, mode)
    mixed = [_round_config(cfg, *point) for point in MIXED]
    grid = [_round_config(cfg, "gcsa", lam, gamma) for lam in (0.0, 2.0) for gamma in (0.0, 2.0)]
    for rcs in (mixed, grid):
        got = _lockstep(shards, archs, rcs, kwargs)
        want = [_solo(shards, archs, rc, kwargs) for rc in rcs]
        assert all(isinstance(w, bytes) for w in want)
        assert got == want


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_diverging_replicas_fail_alone_with_their_solo_message(scenario):
    cfg, shards, archs, kwargs = _setup(UNSTABLE, scenario, "fixed_hypersphere")
    weights = (0.0, 1000.0)
    rcs = [_round_config(cfg, "mse", lam, gamma) for lam in weights for gamma in weights]
    got = _lockstep(shards, archs, rcs, kwargs)
    want = [_solo(shards, archs, rc, kwargs) for rc in rcs]
    assert got == want
    assert isinstance(want[0], bytes)  # the weight-free baseline survives
    assert all(isinstance(w, str) and w.startswith("round ") for w in want[1:])


def test_replicas_that_skip_differently_equal_their_solo_runs():
    cfg, shards, archs, kwargs = _setup(UNSTABLE, "hetero", "fixed_hypersphere")
    weights = (0.0, 10.0, 1000.0)
    points = [(lam, gamma) for lam in weights for gamma in weights]
    rcs = [_round_config(cfg, "gcsa", lam, gamma) for lam, gamma in points]
    results = run_experiments(shards, archs, rcs, **kwargs)
    assert not any(isinstance(r, NumericFailureError) for r in results)
    # in some round the replicas that weight the proto term skip it unequally
    group = [[rep.skipped_structural_steps for rep in reports]
             for (lam, _), reports in zip(points, results) if lam > 0]
    assert any(len(set(counts)) > 1 for counts in zip(*group))
    assert [_jsonl(r) for r in results] == [_solo(shards, archs, rc, kwargs) for rc in rcs]


def test_configs_must_agree_outside_the_alignment_weights():
    cfg, shards, archs, kwargs = _setup(TINY, "hetero", "aggregate")
    rc = round_config(cfg)
    other = RoundConfig(**{**rc.__dict__, "learning_rate": 0.2})
    with pytest.raises(ContractError, match="may differ only"):
        run_experiments(shards, archs, [rc, other], **kwargs)
    faster = copy.deepcopy(cfg)
    faster.training.learning_rate = 0.2
    with pytest.raises(ContractError, match="may differ only"):
        run_scenarios([cfg, faster])


def test_run_scenarios_writes_each_run_as_if_alone(tmp_path):
    cfg = config_from_dict(copy.deepcopy(TINY))
    points = []
    for loss, lam, gamma in MIXED:
        point = copy.deepcopy(cfg)
        point.training.alignment, point.training.lam, point.training.gamma = loss, lam, gamma
        points.append(point)
    for point, run in zip(points, run_scenarios(points)):
        solo = run_scenario(point)
        write_rounds_jsonl(run.reports, tmp_path / "lockstep.jsonl")
        write_rounds_jsonl(solo.reports, tmp_path / "solo.jsonl")
        assert (tmp_path / "lockstep.jsonl").read_bytes() == (tmp_path / "solo.jsonl").read_bytes()


# ------------------------------------------------------------ stacked kernels

R = 3


def _stacks(rng, n=6, d=4, degenerate=1):
    """Three replicas of (n, d) pairs; replica `degenerate` has identical rows."""
    a = rng.standard_normal((R, n, d))
    b = rng.standard_normal((R, n, d))
    a[degenerate] = a[degenerate, 0]
    return a, b


def _slice_wise(fn, *stacks):
    """fn on each replica's slices: (value, grad), or the skip message."""
    out = []
    for r in range(R):
        try:
            out.append(fn(*(s[r] for s in stacks)))
        except DegenerateInputError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("name", sorted(_PAIRWISE_KERNELS))
def test_pairwise_kernels_equal_their_slices(name):
    rng = np.random.default_rng(11)
    for trial in range(20):
        a, b = _stacks(rng, n=int(rng.integers(3, 33)), d=int(rng.integers(2, 17)))
        if name in ("mse", "cosine"):
            a[1, 2] = 0.0  # a zero row: the only degenerate input of cosine
        values, grad, why = _PAIRWISE_KERNELS[name](a, b)
        for r, want in enumerate(_slice_wise(lambda x, y: pairwise_loss(name, x, y), a, b)):
            if isinstance(want, str):
                assert why[r] == want
            else:
                assert why[r] == ""
                assert values[r] == want.value
                assert np.array_equal(grad[r], want.grad)
        if name in ("gcsa", "rcsa"):
            # the replica with identical rows alone
            assert np.flatnonzero(why != "").tolist() == [1]


def test_contrastive_kernel_equals_its_slices():
    rng = np.random.default_rng(12)
    for trial in range(20):
        n, c = int(rng.integers(2, 33)), int(rng.integers(2, 11))
        z, _ = _stacks(rng, n=n)
        z[1, 0] = 0.0  # a zero embedding: replica 1 alone skips
        protos = rng.standard_normal((R, c, 4))
        labels = rng.integers(0, c, n)
        parts, why = _contrastive(z, protos, labels, 0.5)
        assert np.flatnonzero(why != "").tolist() == [1]
        slices = _slice_wise(lambda x, p: loss_contrastive(x, p, labels, 0.5), z, protos)
        for r, want in enumerate(slices):
            if isinstance(want, str):
                assert why[r] == want
                continue
            assert why[r] == ""
            for got, ref in ((parts.total, want.total), (parts.alignment, want.alignment),
                             (parts.uniformity, want.uniformity)):
                assert got.value[r] == ref.value
                assert np.array_equal(got.grad[r], ref.grad)


def test_model_kernels_equal_their_slices():
    rng = np.random.default_rng(13)
    spec = ArchitectureSpec((16, 8), 4)
    models = [build_model(spec, 5, 3, seed=s) for s in range(R)]
    stack = replicate(models[0], R)
    for layer, *per_model in zip(stack.extractor, *(m.extractor for m in models)):
        layer.weights[:] = np.stack([l.weights for l in per_model])
        layer.bias[:] = np.stack([l.bias for l in per_model])
    stack.classifier_weights[:] = np.stack([m.classifier_weights for m in models])
    stack.classifier_bias[:] = np.stack([m.classifier_bias for m in models])
    batch, labels = rng.standard_normal((32, 5)), rng.integers(0, 3, 32)
    grad_emb = rng.standard_normal((R, 32, 4))

    emb, logits, cache = _forward(stack, batch)
    sup, grad_logits = _softmax_cross_entropy(logits, labels)
    _backward_and_step(stack, cache, grad_logits, grad_emb, 0.3)
    for r, model in enumerate(models):
        emb_r, logits_r, cache_r = forward(model, batch)
        sup_r, grad_logits_r = loss_supervised(logits_r, labels)
        backward_and_step(model, cache_r, grad_logits_r, grad_emb[r], 0.3)
        assert np.array_equal(emb[r], emb_r) and np.array_equal(logits[r], logits_r)
        assert sup[r] == sup_r and np.array_equal(grad_logits[r], grad_logits_r)
        assert np.array_equal(stack.classifier_weights[r], model.classifier_weights)
        assert np.array_equal(stack.classifier_bias[r], model.classifier_bias)
        for layer, layer_r in zip(stack.extractor, model.extractor):
            assert np.array_equal(layer.weights[r], layer_r.weights)
            assert np.array_equal(layer.bias[r], layer_r.bias)


def test_prototype_kernels_equal_their_slices():
    rng = np.random.default_rng(14)
    for trial in range(20):
        n, c = int(rng.integers(2, 60)), int(rng.integers(2, 11))
        emb = rng.standard_normal((R, n, 8))
        labels = rng.integers(0, c, n)
        means, counts = _class_means(emb, labels, c)
        for r in range(R):
            solo = batch_prototypes(emb[r], labels, c)
            assert np.array_equal(means[r], solo.vectors)
            assert np.array_equal(counts, solo.counts)
        # nine uploads, so that summing them pairwise would round differently
        uploads = [PrototypeSet(rng.standard_normal((R, c, 8)), rng.integers(0, 3, c))
                   for _ in range(9)]
        previous = PrototypeSet(rng.standard_normal((R, c, 8)), rng.integers(0, 3, c))
        merged = aggregate_prototypes(uploads, previous)
        for r in range(R):
            solo = aggregate_prototypes(
                [PrototypeSet(u.vectors[r], u.counts) for u in uploads],
                PrototypeSet(previous.vectors[r], previous.counts),
            )
            assert np.array_equal(merged.vectors[r], solo.vectors)
            assert np.array_equal(merged.rows[r], solo.rows)
            assert np.array_equal(merged.counts, solo.counts)
