"""Synthetic labeled mixtures and non-IID client partitioners.

Datasets are Gaussian blobs around unit-direction class means scaled by a
separation factor, split 80/20 (stratified per class) at generation time so
every downstream partition sees a consistent train/test divide.  Two
partitioners are provided: symmetric-Dirichlet label skew and per-client
domain shift (rotation + translation of the feature space).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, PartitionFailureError
from .tensor import random_orthogonal

# Bounded retries for the Dirichlet partitioner before giving up.
MAX_PARTITION_ATTEMPTS = 200

# Config names of the two partitioners below; runner.build_shards dispatches on them.
PARTITION_SCHEMES = ("dirichlet", "domain_shift")


@dataclass
class LabeledDataset:
    features: np.ndarray  # (N, input_dim)
    labels: np.ndarray  # (N,) ints in [0, num_classes)
    test_mask: np.ndarray  # (N,) bool; True rows are held out
    num_classes: int


@dataclass
class DatasetShard:
    """One client's private slice, already materialized as arrays."""

    client_id: int
    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray

    @property
    def num_train(self) -> int:
        return int(self.train_labels.shape[0])


def generate_mixture(
    num_classes: int,
    input_dim: int,
    samples_per_class: int,
    class_separation: float,
    noise_scale: float,
    seed,
) -> LabeledDataset:
    """Isotropic Gaussian blobs around random unit directions.

    Class c's mean is class_separation * u_c with u_c a seeded random unit
    vector; samples are mean + noise_scale * N(0, I).  Rows are grouped by
    class; within each class block the last max(1, round(0.2 m)) rows are the
    test split (m >= 2 required so both splits are non-empty).
    """
    if num_classes < 2:
        raise ContractError(f"num_classes must be >= 2, got {num_classes}")
    if input_dim < 1:
        raise ContractError(f"input_dim must be >= 1, got {input_dim}")
    if samples_per_class < 2:
        raise ContractError(f"samples_per_class must be >= 2, got {samples_per_class}")
    if class_separation < 0 or noise_scale < 0:
        raise ContractError("class_separation and noise_scale must be nonnegative")
    m = samples_per_class
    n_test = max(1, round(0.2 * m))
    try:
        features = np.empty((num_classes * m, input_dim))
    except (ValueError, MemoryError) as exc:
        raise ContractError(
            f"cannot allocate {num_classes} classes x {m} samples x {input_dim} dims: {exc}"
        ) from exc
    rng = np.random.default_rng(seed)
    # huge scales overflow to inf (or inf - inf); the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(num_classes):
            direction = rng.standard_normal(input_dim)
            norm = np.linalg.norm(direction)
            while norm < 1e-8:  # pragma: no cover - probability zero
                direction = rng.standard_normal(input_dim)
                norm = np.linalg.norm(direction)
            mean = class_separation * direction / norm
            features[c * m : (c + 1) * m] = mean + noise_scale * rng.standard_normal((m, input_dim))
    if not np.isfinite(features).all():
        raise ContractError(f"class_separation {class_separation} and noise_scale {noise_scale} "
                            "overflow the float64 features")
    block_mask = np.arange(m) >= m - n_test
    return LabeledDataset(
        features=features,
        labels=np.repeat(np.arange(num_classes, dtype=np.int64), m),
        test_mask=np.tile(block_mask, num_classes),
        num_classes=num_classes,
    )


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of `total` items proportional to `weights`.

    Floor the ideal shares, then hand out the remainder by descending
    fractional part (ties broken by lower index, deterministically).
    """
    ideal = weights * total
    base = np.floor(ideal).astype(np.int64)
    leftover = int(total - base.sum())
    if leftover > 0:
        order = np.lexsort((np.arange(len(weights)), -(ideal - base)))
        base[order[:leftover]] += 1
    return base


def _class_pools(ds: LabeledDataset) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per class, its train rows and its test rows, each ascending."""
    return [(np.flatnonzero((ds.labels == c) & ~ds.test_mask),
             np.flatnonzero((ds.labels == c) & ds.test_mask)) for c in range(ds.num_classes)]


def _shards(ds: LabeledDataset, owner: np.ndarray, num_clients: int,
            transform=lambda i, x: x) -> list[DatasetShard]:
    """Client i's shard holds the rows with owner == i, in dataset order,
    its features mapped through transform(i, features)."""
    shards = []
    for i in range(num_clients):
        rows = np.flatnonzero(owner == i)
        tr, te = rows[~ds.test_mask[rows]], rows[ds.test_mask[rows]]
        shards.append(DatasetShard(i, transform(i, ds.features[tr]), ds.labels[tr],
                                   transform(i, ds.features[te]), ds.labels[te]))
    return shards


def _check_enough_rows(ds: LabeledDataset, num_clients: int, scheme: str) -> None:
    """Every client needs >= 2 train rows and >= 1 test row; fail before
    building any per-client state."""
    for split, rows, least in (("train", ~ds.test_mask, 2), ("test", ds.test_mask, 1)):
        n = int(np.count_nonzero(rows))
        if least * num_clients > n:
            raise PartitionFailureError(
                f"no valid {scheme}: {num_clients} clients cannot each get {least} of the "
                f"{n} {split} rows; reduce num_clients"
            )


def partition_dirichlet(
    ds: LabeledDataset, alpha: float, num_clients: int, seed
) -> list[DatasetShard]:
    """Symmetric-Dirichlet label-skew partition.

    For each class one proportion vector w ~ Dir(alpha * 1) is drawn and
    applied to BOTH the train and test rows of that class, so each client's
    test split mirrors its own label distribution (personalized evaluation).
    Integer allocation uses largest remainders.  A draw is valid only if every
    client gets >= 2 train samples from >= 2 distinct classes and >= 1 test
    sample; up to MAX_PARTITION_ATTEMPTS seeded redraws are made before
    raising PartitionFailureError.
    """
    if not (alpha > 0) or not np.isfinite(alpha):
        raise ContractError(f"alpha must be positive and finite, got {alpha}")
    if num_clients < 2:
        raise ContractError(f"num_clients must be >= 2, got {num_clients}")
    _check_enough_rows(ds, num_clients, f"Dirichlet partition (alpha={alpha})")
    pools = _class_pools(ds)
    clients = np.arange(num_clients)
    owner = np.empty(len(ds.labels), dtype=np.int64)
    for attempt in range(MAX_PARTITION_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), attempt]))
        for pool_pair in pools:
            w = rng.dirichlet(np.full(num_clients, alpha))
            for pool in pool_pair:  # train rows, then test rows
                owner[rng.permutation(pool)] = np.repeat(clients, _largest_remainder(w, len(pool)))
        has_class = np.zeros((num_clients, ds.num_classes), dtype=bool)
        has_class[owner[~ds.test_mask], ds.labels[~ds.test_mask]] = True
        test = np.bincount(owner[ds.test_mask], minlength=num_clients)
        # >= 2 distinct train classes implies >= 2 train rows
        if has_class.sum(axis=1).min() >= 2 and test.min() >= 1:
            return _shards(ds, owner, num_clients)
    raise PartitionFailureError(
        f"no valid Dirichlet partition after {MAX_PARTITION_ATTEMPTS} attempts "
        f"(alpha={alpha}, clients={num_clients}); try a larger alpha or fewer clients"
    )


def partition_domain_shift(
    ds: LabeledDataset,
    num_clients: int,
    shift_scale: float,
    seed,
    rotate: bool = True,
) -> list[DatasetShard]:
    """Balanced label split with a per-client affine domain transform.

    Rows of each class are dealt round-robin into near-equal chunks, then
    client i's features are mapped x -> x @ R_i + t_i with R_i a seeded
    random orthogonal matrix (identity when rotate=False) and t_i a random
    direction of length shift_scale.  Label distributions stay IID; the
    input domains drift apart.
    """
    if num_clients < 2:
        raise ContractError(f"num_clients must be >= 2, got {num_clients}")
    if shift_scale < 0 or not np.isfinite(shift_scale):
        raise ContractError(f"shift_scale must be finite and >= 0, got {shift_scale}")
    _check_enough_rows(ds, num_clients, "domain-shift partition")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 11]))
    owner = np.empty(len(ds.labels), dtype=np.int64)
    for c, pool_pair in enumerate(_class_pools(ds)):
        for pool in pool_pair:
            # offset the round-robin start per class so remainders spread out
            owner[rng.permutation(pool)] = (np.arange(len(pool)) - c) % num_clients
    train = np.bincount(owner[~ds.test_mask], minlength=num_clients)
    test = np.bincount(owner[ds.test_mask], minlength=num_clients)
    short = np.flatnonzero((train < 2) | (test < 1))
    if short.size:
        raise PartitionFailureError(
            f"domain-shift partition left client {short[0]} with too little data; "
            f"reduce num_clients"
        )
    dim = ds.features.shape[1]
    maps = []
    for i in range(num_clients):
        rot = (
            random_orthogonal(dim, np.random.SeedSequence([int(seed), 7, i]))
            if rotate
            else np.eye(dim)
        )
        direction = rng.standard_normal(dim)
        norm = np.linalg.norm(direction)
        shift = (shift_scale / norm) * direction if shift_scale > 0 and norm > 0 else np.zeros(dim)
        maps.append((rot, shift))
    return _shards(ds, owner, num_clients, lambda i, x: x @ maps[i][0] + maps[i][1])
