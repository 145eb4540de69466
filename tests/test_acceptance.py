"""Acceptance gate: ten scripted criteria over the full toolkit.

Each test prints exactly one "ACCEPTANCE <k>: PASS/FAIL - <detail>" line and
then asserts, so a plain pytest run doubles as the sign-off checklist.
Criteria with a pinned runtime budget assert elapsed wall time too.

Experiment-level criteria (6-8) share one cached desk-scale scenario:
10-class Gaussian mixture (100/class, 16 input dims), 8 clients under
Dir(0.1), the four-architecture extractor zoo, 30 rounds of 2 local epochs
at batch 32.  Mean best accuracy over seeds {0, 1, 2} is the comparison
statistic, in line with the small scale of the setup.
"""

import copy
import time
from functools import lru_cache

import numpy as np
import pytest

import test_golden
from fedstruct.config import ExperimentConfig, validate_config
from fedstruct.errors import NumericFailureError
from fedstruct.federation import (
    RoundConfig,
    fixed_hypersphere_prototypes,
    local_train_step,
)
from fedstruct.losses import (
    AlignmentKind,
    loss_contrastive,
    loss_cosine,
    loss_gcsa,
    loss_mse,
    loss_rcsa,
    procrustes_decompose,
)
from fedstruct.models import ArchitectureSpec, build_model
from fedstruct.runner import run_scenario, run_scenarios
from fedstruct.tensor import random_orthogonal
from fedstruct import cli

SEEDS = (0, 1, 2)


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def _desk_config(loss: str, lam: float, gamma: float, seed: int,
                 feature_dim: int = 8) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.seed = seed
    cfg.dataset.classes = 10
    cfg.dataset.input_dim = 16
    cfg.dataset.samples_per_class = 100
    cfg.dataset.separation = 0.7
    cfg.dataset.noise = 0.32
    cfg.partition.scheme = "dirichlet"
    cfg.partition.alpha = 0.1
    cfg.partition.clients = 8
    cfg.model.feature_dim = feature_dim
    cfg.model.hidden_widths = [[], [16], [32, 16], [64, 32, 16]]
    cfg.training.alignment = loss
    cfg.training.lam = lam
    cfg.training.gamma = gamma
    cfg.training.rounds = 30
    cfg.training.local_epochs = 2
    cfg.training.batch_size = 32
    cfg.training.learning_rate = 0.18
    cfg.training.prototype_mode = "fixed_hypersphere"
    return validate_config(cfg)


LOSSES = ("mse", "cosine", "gcsa", "rcsa", "contrastive")
GRID = (0.1, 1.0, 5.0)
# every desk run of criteria 7 and 8 at one seed, as (loss, lambda, gamma):
# the weight-free baseline, the five losses at (1.25, 1.0), and the gcsa and
# mse grids
DESK_RUNS = (
    [("gcsa", 0.0, 0.0)]
    + [(loss, 1.25, 1.0) for loss in LOSSES]
    + [(loss, lam, gamma) for loss in ("gcsa", "mse") for lam in GRID for gamma in GRID]
)


@lru_cache(maxsize=None)
def _desk_bests(seed: int) -> dict:
    """Best mean accuracy of every desk run at one seed, all in one lockstep
    run; NaN marks a diverged run."""
    runs = run_scenarios(_desk_config(*DESK_RUNS[0], seed), DESK_RUNS)
    return {
        run: float("nan") if isinstance(result, NumericFailureError) else result.best_mean_accuracy
        for run, result in zip(DESK_RUNS, runs)
    }


def _mean_best(loss: str, lam: float, gamma: float) -> float:
    if lam == 0.0 and gamma == 0.0:
        loss = "gcsa"  # weight-free runs are identical across alignment kinds
    return float(np.mean([_desk_bests(s)[(loss, lam, gamma)] for s in SEEDS]))


def test_acceptance_1_gcsa_similarity_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(3, 17))
        p = rng.standard_normal((n, d))
        alpha = float(rng.uniform(0.05, 10.0))
        rot = random_orthogonal(d, seed=int(rng.integers(0, 2**31)))
        b = rng.standard_normal(d)
        q = alpha * (p @ rot) + b
        worst = max(worst, loss_gcsa(p, q).value)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 5.0
    _report(1, ok, f"max GCSA under scale+rotation+translation {worst:.3e} "
                   f"over 200 trials ({dt:.2f}s)")


def test_acceptance_2_rcsa_rotation_invariance_translation_sensitivity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst_rot = 0.0
    min_shift = float("inf")
    for _ in range(200):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(3, 17))
        p = rng.standard_normal((n, d))
        rot = random_orthogonal(d, seed=int(rng.integers(0, 2**31)))
        b = rng.standard_normal(d)
        worst_rot = max(worst_rot, loss_rcsa(p, p @ rot).value)
        min_shift = min(min_shift, loss_rcsa(p, p + b).value)
    dt = time.perf_counter() - t0
    ok = worst_rot <= 1e-10 and min_shift > 1e-6 and dt < 5.0
    _report(2, ok, f"max RCSA under rotation {worst_rot:.3e}, min under "
                   f"translation {min_shift:.3e} over 200 trials ({dt:.2f}s)")


def test_acceptance_3_procrustes_decomposition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst_gap = 0.0
    worst_rigid = 0.0
    worst_shape = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(3, 17))
        p = rng.standard_normal((n, d))
        q = rng.standard_normal((n, d))
        dec = procrustes_decompose(p, q)
        worst_gap = max(worst_gap, abs(dec.l_coord - (dec.l_shape + dec.l_rigid)))
        worst_rigid = min(worst_rigid, dec.l_rigid)
        rot0 = random_orthogonal(d, seed=int(rng.integers(0, 2**31)))
        worst_shape = max(worst_shape, procrustes_decompose(p, p @ rot0).l_shape)
    dt = time.perf_counter() - t0
    ok = worst_gap <= 1e-9 and worst_rigid >= -1e-12 and worst_shape <= 1e-9 and dt < 10.0
    _report(3, ok, f"max |l_coord-(l_shape+l_rigid)| {worst_gap:.3e}, min l_rigid "
                   f"{worst_rigid:.3e}, max rotated l_shape {worst_shape:.3e} ({dt:.2f}s)")


def _fd_relative_error(value_fn, grad, point, step=1e-5):
    """Normwise relative error between grad and central differences of value_fn."""
    fd = np.zeros_like(point)
    it = np.nditer(point, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = point.copy()
        minus = point.copy()
        plus[idx] += step
        minus[idx] -= step
        fd[idx] = (value_fn(plus) - value_fn(minus)) / (2 * step)
        it.iternext()
    denom = max(float(np.linalg.norm(fd)), 1e-12)
    return float(np.linalg.norm(grad - fd)) / denom


def _composite_gradient_error(kind_name: str) -> float:
    """FD-check d(total)/d(params) through a tiny 3-class model."""
    rng = np.random.default_rng(42)
    batch = rng.standard_normal((9, 3))
    labels = np.array([0, 1, 2] * 3)
    protos = fixed_hypersphere_prototypes(3, 3, seed=7)
    cfg = RoundConfig(
        alignment=AlignmentKind.parse(kind_name, temperature=0.5),
        lam=0.8, gamma=0.6, local_epochs=1, batch_size=9, learning_rate=1.0,
    )
    base = build_model(ArchitectureSpec((4,), 3), 3, 3, seed=11)

    def params(model):
        out = []
        for layer in model.extractor:
            out.extend([layer.weights, layer.bias])
        out.extend([model.classifier_weights, model.classifier_bias])
        return out

    # learning_rate=1 turns (theta_before - theta_after) into the exact
    # analytic gradient of the composite objective
    stepped = copy.deepcopy(base)
    local_train_step(stepped, batch, labels, protos, cfg)
    analytic = [b - a for b, a in zip(params(base), params(stepped))]

    worst = 0.0
    step = 1e-5
    for pi, ref in enumerate(params(base)):
        fd = np.zeros_like(ref)
        it = np.nditer(ref, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            vals = []
            for delta in (step, -step):
                probe = copy.deepcopy(base)
                params(probe)[pi][idx] += delta
                _, br = local_train_step(probe, batch, labels, protos, cfg)
                vals.append(br.total)
            fd[idx] = (vals[0] - vals[1]) / (2 * step)
            it.iternext()
        denom = max(float(np.linalg.norm(fd)), 1e-12)
        worst = max(worst, float(np.linalg.norm(analytic[pi] - fd)) / denom)
    return worst


def test_acceptance_4_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    p = rng.standard_normal((5, 4))
    q = rng.standard_normal((5, 4))
    pair_losses = {
        "mse": loss_mse, "cosine": loss_cosine, "gcsa": loss_gcsa, "rcsa": loss_rcsa,
    }
    errors = {}
    for name, fn in pair_losses.items():
        errors[name] = _fd_relative_error(
            lambda x, fn=fn: fn(x, q).value, fn(p, q).grad, p
        )
    z = rng.standard_normal((6, 4))
    protos = rng.standard_normal((3, 4))
    labels = np.array([0, 1, 2, 0, 1, 2])
    errors["contrastive"] = _fd_relative_error(
        lambda x: loss_contrastive(x, protos, labels, 0.5).total.value,
        loss_contrastive(z, protos, labels, 0.5).total.grad,
        z,
    )
    for name in ("mse", "cosine", "gcsa", "rcsa", "contrastive"):
        errors[f"composite[{name}]"] = _composite_gradient_error(name)
    dt = time.perf_counter() - t0
    worst = max(errors.values())
    ok = worst <= 1e-4 and dt < 30.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in errors.items())
    _report(4, ok, f"max FD relative error {worst:.2e} ({detail}) ({dt:.2f}s)")


def test_acceptance_5_contrastive_decomposition():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        c = int(rng.integers(2, 7))
        z = rng.standard_normal((n, 4))
        protos = rng.standard_normal((c, 4))
        labels = rng.integers(0, c, size=n)
        parts = loss_contrastive(z, protos, labels, temperature=0.5)
        worst = max(
            worst,
            abs(parts.total.value - (parts.alignment.value + parts.uniformity.value)),
        )
    single = loss_contrastive(
        rng.standard_normal((4, 3)), rng.standard_normal((1, 3)),
        np.zeros(4, dtype=int), temperature=0.5,
    )
    ok = worst <= 1e-9 and abs(single.total.value) <= 1e-12
    _report(5, ok, f"max |total-(align+unif)| {worst:.3e} over 100 batches, "
                   f"single-class total {single.total.value:.3e}")


@pytest.mark.slow
def test_acceptance_6_dimensionality_ordering():
    from fedstruct.analysis import compare_scenarios

    t0 = time.perf_counter()
    holds = 0
    details = []
    for seed in SEEDS:
        runs = {}
        for scenario in ("homo_shared", "homo_local", "hetero"):
            cfg = _desk_config("gcsa", 0.0, 0.0, seed, feature_dim=16)
            runs[scenario] = run_scenario(cfg, scenario=scenario)
        comparison = compare_scenarios(
            runs["homo_shared"], runs["homo_local"], runs["hetero"]
        )
        holds += int(comparison.ordering_holds)
        details.append(
            f"seed {seed}: hetero {comparison.hetero_dim} vs "
            f"shared {comparison.homo_shared_dim}"
        )
    dt = time.perf_counter() - t0
    ok = holds == 3 and dt < 180.0
    _report(6, ok, f"threshold-dim ordering holds {holds}/3 "
                   f"({'; '.join(details)}) ({dt:.1f}s)")


@pytest.mark.slow
def test_acceptance_7_alignment_ordering():
    t0 = time.perf_counter()
    lam, gamma = 1.25, 1.0
    baseline = _mean_best("gcsa", 0.0, 0.0)
    best = {loss: _mean_best(loss, lam, gamma) for loss in LOSSES}
    margins = {
        "gcsa-mse": best["gcsa"] - best["mse"],
        "gcsa-cosine": best["gcsa"] - best["cosine"],
        "rcsa-mse": best["rcsa"] - best["mse"],
        "rcsa-cosine": best["rcsa"] - best["cosine"],
    }
    dt = time.perf_counter() - t0
    point = 0.01  # one accuracy point on the [0, 1] scale
    ok = (
        all(m >= point for m in margins.values())
        and all(v > baseline for v in best.values())
        and dt < 600.0
    )
    margin_txt = ", ".join(f"{k} {100 * v:+.2f}pt" for k, v in margins.items())
    best_txt = ", ".join(f"{k} {100 * v:.2f}%" for k, v in best.items())
    _report(7, ok, f"baseline {100 * baseline:.2f}%; {best_txt}; margins "
                   f"{margin_txt} ({dt:.1f}s)")


def test_acceptance_8_weight_grid_robustness():
    t0 = time.perf_counter()
    baseline = _mean_best("gcsa", 0.0, 0.0)
    gcsa_improvements = {}
    mse_improvements = {}
    for lam in GRID:
        for gamma in GRID:
            gcsa_improvements[(lam, gamma)] = _mean_best("gcsa", lam, gamma) - baseline
            mse_improvements[(lam, gamma)] = _mean_best("mse", lam, gamma) - baseline
    dt = time.perf_counter() - t0
    gcsa_ok = all(np.isfinite(v) and v >= 0.0 for v in gcsa_improvements.values())
    # a run that diverges to non-finite values is a failed configuration,
    # which counts against robustness exactly like a negative improvement
    mse_negative = sum(
        1 for v in mse_improvements.values() if not np.isfinite(v) or v < 0.0
    )
    ok = gcsa_ok and mse_negative >= 1 and dt < 1800.0
    gcsa_txt = ", ".join(
        f"({lam},{gamma}) {100 * v:+.2f}pt" for (lam, gamma), v in gcsa_improvements.items()
    )
    _report(8, ok, f"GCSA improvements all >= 0: {gcsa_ok} [{gcsa_txt}]; MSE "
                   f"negative-or-diverged at {mse_negative}/9 points ({dt:.1f}s)")


def test_acceptance_9_cli_determinism(tmp_path):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main([
            "run", "--seed", "0", "--rounds", "6", "--out", str(out),
        ])
        assert code == 0
        outs.append((out / "rounds.jsonl").read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    _report(9, ok, f"two identical runs wrote byte-identical rounds.jsonl "
                   f"({len(outs[0])} bytes)")


def test_acceptance_10_oracle_equivalence():
    worst = 0.0
    for (seed, n, d), expected in test_golden.GOLDEN.items():
        p, q = test_golden.golden_inputs(seed, n, d)
        dec = procrustes_decompose(p, q)
        produced = (
            loss_gcsa(p, q).value, loss_rcsa(p, q).value, loss_mse(p, q).value,
            loss_cosine(p, q).value, dec.l_coord, dec.l_shape, dec.l_rigid,
        )
        worst = max(worst, max(abs(a - b) for a, b in zip(produced, expected)))
    rng = np.random.default_rng(107)
    z = rng.standard_normal((4, 3))
    protos = rng.standard_normal((4, 3))[:3]
    parts = loss_contrastive(z, protos, np.array([0, 1, 2, 0]), temperature=0.5)
    for key, got in (("total", parts.total.value), ("align", parts.alignment.value),
                     ("unif", parts.uniformity.value)):
        worst = max(worst, abs(got - test_golden.CONTRASTIVE_GOLDEN[key]))
    ok = worst <= 1e-9
    _report(10, ok, f"max deviation from pre-build oracle values {worst:.3e} "
                    f"over {len(test_golden.GOLDEN)} frozen cases + contrastive")
