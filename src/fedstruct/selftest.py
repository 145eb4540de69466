"""Built-in property checks behind `fedstruct selftest`.

Each check is a small seeded experiment that must hold by construction
(invariances, exact decompositions, determinism).  Kept fast enough to run
casually; the full test suite under tests/ is the real gate.
"""

from __future__ import annotations

import json

import numpy as np

from .analysis import effective_dimensionality
from .config import ExperimentConfig
from .errors import DegenerateInputError
from .federation import (
    PrototypeSet,
    _entropy,
    _pcg64_state,
    _seed_states,
    aggregate_prototypes,
    fixed_hypersphere_prototypes,
)
from .losses import (
    PAIRWISE_LOSSES,
    AlignmentKind,
    check_gradient,
    loss_contrastive,
    loss_gcsa,
    loss_rcsa,
    procrustes_decompose,
)
from .runner import run_scenario
from .tensor import _svd_factors, random_orthogonal


def _require(condition, message: str) -> None:
    """Fail a check; unlike `assert`, this also holds under `python -O`."""
    if not condition:
        raise AssertionError(message)


def _check_gradients():
    rng = np.random.default_rng(2024)
    for name in PAIRWISE_LOSSES:
        for _ in range(3):
            a = rng.standard_normal((5, 4))
            b = rng.standard_normal((5, 4))
            rep = check_gradient(name, a, b)
            _require(rep.passed, f"{name} gradient rel err {rep.max_rel_err:.2e}")
    for _ in range(3):
        z = rng.standard_normal((6, 4))
        protos = rng.standard_normal((3, 4))
        labels = rng.integers(0, 3, 6)
        rep = check_gradient(AlignmentKind("contrastive", 0.5), z, protos, labels)
        _require(rep.passed, f"contrastive gradient rel err {rep.max_rel_err:.2e}")


def _check_invariances():
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = rng.standard_normal((6, 4))
        q = rng.standard_normal((6, 4))
        base = loss_gcsa(p, q).value
        rot = random_orthogonal(4, rng.integers(1 << 30))
        shift = rng.standard_normal(4)
        scale = float(rng.uniform(0.5, 3.0))
        moved = scale * (p @ rot) + shift
        _require(abs(loss_gcsa(moved, q).value - base) < 1e-9, "gcsa rigid invariance")
        rbase = loss_rcsa(p, q).value
        _require(abs(loss_rcsa(p @ rot, q).value - rbase) < 1e-9, "rcsa orthogonal invariance")


def _check_procrustes():
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = rng.standard_normal((7, 4))
        p = rng.standard_normal((7, 4))
        dec = procrustes_decompose(z, p)
        _require(abs(dec.l_coord - (dec.l_shape + dec.l_rigid)) < 1e-9, "additivity")
        _require(dec.l_rigid >= -1e-12, "rigid part nonnegative")


def _check_contrastive_split():
    rng = np.random.default_rng(13)
    z = rng.standard_normal((6, 5))
    protos = rng.standard_normal((4, 5))
    labels = rng.integers(0, 4, 6)
    parts = loss_contrastive(z, protos, labels, 0.5)
    split = parts.alignment.value + parts.uniformity.value
    _require(abs(parts.total.value - split) < 1e-12, "total = alignment + uniformity")
    _require(parts.total.value >= -1e-12, "contrastive total is nonnegative")
    single = loss_contrastive(z, protos[:1], np.zeros(6, dtype=np.int64), 0.5)
    _require(abs(single.total.value) < 1e-12, "single prototype cancels exactly")


def _check_aggregation():
    a = PrototypeSet(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 4.0], [0.0, 0.0]]), [1, 0, 2, 0])
    b = PrototypeSet(np.array([[4.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), [3, 0, 0, 0])
    prev = PrototypeSet(np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [9.0, 9.0]]), [0, 0, 0, 7])
    merged = aggregate_prototypes([a, b], previous=prev)
    _require(np.allclose(merged.vectors[0], [3.25, 0.0]), "count-weighted mean")
    _require(merged.counts[0] == 4, "summed counts")
    _require(np.allclose(merged.vectors[3], [9.0, 9.0]), "stale retention")
    _require(merged.classes() == [0, 2, 3], "absent class stays absent")


def _check_hypersphere():
    stacked = fixed_hypersphere_prototypes(2, 5, 99).vectors
    _require(float(stacked[0] @ stacked[1]) <= -1.0 + 1e-6, "antipodal pair")
    norms = np.linalg.norm(stacked, axis=1)
    _require(np.allclose(norms, 1.0, atol=1e-12), "unit norms")


def _check_svd():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((12, 7))
    u, s, vt = _svd_factors(m)
    err = np.max(np.abs((u * s) @ vt - m)) / np.max(np.abs(m))
    _require(err < 1e-12, f"svd reconstruction error {err:.2e}")
    rank1 = np.outer(np.arange(1.0, 5.0), np.ones(3))
    eff = effective_dimensionality(rank1)
    _require(eff.threshold_dim == 1 and abs(eff.participation_ratio - 1.0) < 1e-9,
             "rank-1 stack has one direction")


def _check_batch_streams():
    # the engine seeds its (seed, 1, round, client) batch streams without
    # SeedSequence; they must stay numpy's streams under the installed numpy
    rounds = np.array([0, 3, 149, 2**33], dtype=np.uint64)
    clients = np.array([0, 31, 2**32 - 1, 5], dtype=np.uint64)
    rng = np.random.Generator(np.random.PCG64(0))
    for seed in (0, 7, 2**64 + 3, 2**100 + 1):
        for words, r, i in zip(_seed_states(*_entropy(seed, 1, rounds, clients)).tolist(),
                               rounds.tolist(), clients.tolist()):
            rng.bit_generator.state = _pcg64_state(words)
            want = np.random.default_rng(np.random.SeedSequence([seed, 1, r, i]))
            _require(rng.bit_generator.state == want.bit_generator.state,
                     f"batch stream ({seed}, 1, {r}, {i}) is not numpy's SeedSequence stream")


def _tiny_config() -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.dataset.classes = 3
    cfg.dataset.input_dim = 6
    cfg.dataset.samples_per_class = 20
    cfg.partition.clients = 3
    cfg.partition.alpha = 1.0
    cfg.model.hidden_widths = [[], [8]]
    cfg.model.feature_dim = 4
    cfg.training.rounds = 2
    cfg.training.local_epochs = 1
    cfg.training.batch_size = 8
    cfg.seed = 5
    return cfg


def _check_determinism():
    blobs = []
    for _ in range(2):
        run = run_scenario(_tiny_config())
        blobs.append(
            "\n".join(json.dumps(r.to_json_dict(), sort_keys=True) for r in run.reports)
        )
    _require(blobs[0] == blobs[1], "seeded runs must be byte-identical")


def _check_degenerate_rejection():
    flat = np.ones((4, 3))
    try:
        loss_gcsa(flat, np.random.default_rng(1).standard_normal((4, 3)))
    except DegenerateInputError:
        pass
    else:
        raise AssertionError("identical rows must be rejected as degenerate")


CHECKS = [
    ("analytic gradients match central differences", _check_gradients),
    ("structural-loss invariances", _check_invariances),
    ("coordinate-loss decomposition", _check_procrustes),
    ("contrastive split identities", _check_contrastive_split),
    ("prototype aggregation", _check_aggregation),
    ("hypersphere prototypes", _check_hypersphere),
    ("svd + effective dimensionality", _check_svd),
    ("deterministic replay", _check_determinism),
    ("batch streams match numpy's SeedSequence", _check_batch_streams),
    ("degenerate input rejection", _check_degenerate_rejection),
]


def run_selftest() -> int:
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
