"""Client/server prototype-exchange protocol over heterogeneous models.

Clients never share parameters (except in the homo_shared scenario, which
shares one model by construction); the only cross-client channel is the set
of per-class prototype vectors in the common feature space.  Each local step
optimizes

    L = L_sup + lam * L_proto + gamma * L_inst

where L_proto aligns batch prototypes with global prototypes and L_inst
aligns individual embeddings with the prototypes of their own class, both
under a configurable alignment loss.  Structural losses are skipped (never
substituted) on batches without enough distinct classes, and classes absent
from the global set are excluded from alignment terms only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .analysis import effective_dimensionality
from .errors import ContractError, DegenerateInputError, NumericFailureError
from .losses import _PAIRWISE_KERNELS, AlignmentKind, _contrastive
from .models import (
    ArchitectureSpec,
    ClientModel,
    _backward_and_step,
    _softmax_cross_entropy,
    build_model,
    forward,
)
from .tensor import check_labels

logger = logging.getLogger(__name__)

# Structural losses need this many rows before they say anything meaningful.
MIN_STRUCTURAL_ROWS = 3

# the order in which `dimensionality` runs and compares the sharing regimes
SCENARIOS = ("homo_shared", "homo_local", "hetero")
PROTOTYPE_MODES = ("aggregate", "fixed_hypersphere")


@dataclass(frozen=True, eq=False)
class PrototypeSet:
    """Dense per-class prototypes: row c of `vectors` is class c's prototype
    and counts[c] the number of samples behind it.

    Class c is present exactly when counts[c] >= 1; the rows of absent
    classes are zero and never read as prototypes.  Both arrays are
    read-only copies, so a set never changes once built.
    """

    vectors: np.ndarray  # (C, d) float64
    counts: np.ndarray  # (C,) int64
    present: np.ndarray = field(init=False, repr=False)  # (C,) bool
    # the present rows stacked in class order, and each class's row in it
    # (-1 when absent); built once here so a training step only indexes
    rows: np.ndarray = field(init=False, repr=False)
    slot: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vectors = np.array(self.vectors, dtype=np.float64)
        counts = np.asarray(self.counts)
        if vectors.ndim != 2 or counts.shape != vectors.shape[:1]:
            raise ContractError(
                f"need (C, d) vectors and (C,) counts, got {vectors.shape} and {counts.shape}"
            )
        if counts.size and (not np.issubdtype(counts.dtype, np.integer) or counts.min() < 0):
            raise ContractError(f"counts must be integers >= 0, got {counts}")
        if not np.all(np.isfinite(vectors)):
            raise ContractError("prototype vectors have non-finite entries")
        counts = counts.astype(np.int64)
        present = counts >= 1
        vectors[~present] = 0.0
        slot = np.cumsum(present) - 1
        slot[~present] = -1
        for name, value in (("vectors", vectors), ("counts", counts), ("present", present),
                            ("rows", vectors[present]), ("slot", slot)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def num_classes(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def is_empty(self) -> bool:
        return not self.present.any()

    def classes(self) -> list[int]:
        """The present classes, ascending."""
        return np.flatnonzero(self.present).tolist()


def batch_prototypes(embeddings, labels, num_classes: int) -> PrototypeSet:
    """Per-class means of an embedding batch over classes 0..num_classes-1;
    classes without rows are absent."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2:
        raise ContractError(f"embeddings must be 2-D, got shape {embeddings.shape}")
    labels = check_labels(labels, embeddings.shape[0], num_classes)
    return PrototypeSet(*_class_means(embeddings, labels, num_classes))


def _class_means(embeddings, labels, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """(C, d) per-class means (zero rows for absent classes) and (C,) counts;
    labels must lie in [0, num_classes).  Rows are summed in batch order, so
    for d >= 2 each mean is bit-identical to embeddings[labels == c].mean(axis=0)
    (numpy sums a single column pairwise instead)."""
    counts = np.bincount(labels, minlength=num_classes)
    sums = np.zeros((num_classes, embeddings.shape[1]))
    np.add.at(sums, labels, embeddings)
    return sums / np.maximum(counts, 1)[:, None], counts


def aggregate_prototypes(uploads, previous: PrototypeSet | None = None) -> PrototypeSet:
    """Count-weighted average of client uploads, with stale retention.

    Classes present in any upload get the weighted mean (weights = per-class
    sample counts); classes only present in `previous` are carried over
    unchanged.  The server sees nothing but PrototypeSet values, all of one
    (classes, dim) shape.
    """
    uploads = list(uploads)
    for u in uploads:
        if not isinstance(u, PrototypeSet):
            raise TypeError(
                f"server aggregation accepts PrototypeSet uploads only, got {type(u).__name__}"
            )
    if previous is not None and not isinstance(previous, PrototypeSet):
        raise TypeError("previous must be a PrototypeSet or None")
    if not uploads:
        raise ContractError("need at least one upload")
    shapes = {u.vectors.shape for u in uploads + ([previous] if previous is not None else [])}
    if len(shapes) != 1:
        raise ContractError(f"uploads must share one (classes, dim) shape, got {sorted(shapes)}")
    counts = np.stack([u.counts for u in uploads])
    total = counts.sum(axis=0)
    # absent rows are zero with weight zero, so each adds +0.0 to its class's sum
    weighted = (counts[:, :, None] * np.stack([u.vectors for u in uploads])).sum(axis=0)
    vectors = weighted / np.maximum(total, 1)[:, None]
    if previous is not None:
        stale = previous.present & (total == 0)
        vectors[stale] = previous.vectors[stale]
        total = np.where(stale, previous.counts, total)
    return PrototypeSet(vectors, total)


def fixed_hypersphere_prototypes(num_classes: int, dim: int, seed) -> PrototypeSet:
    """Data-independent unit prototypes spread by pairwise repulsion.

    Seeded random unit start, then a fixed 1000 steps of inverse-square
    repulsion projected back to the sphere.  For 2 classes this converges to
    an antipodal pair; for 4 classes in 3 dimensions to a regular tetrahedron.
    """
    if num_classes < 1 or dim < 1:
        raise ContractError(f"need num_classes >= 1 and dim >= 1, got {num_classes}, {dim}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((num_classes, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    if num_classes > 1:
        eta = 0.1
        for _ in range(1000):
            diffs = x[:, None, :] - x[None, :, :]
            dist = np.linalg.norm(diffs, axis=2)
            np.fill_diagonal(dist, 1.0)
            np.clip(dist, 1e-6, None, out=dist)
            force = (diffs / dist[:, :, None] ** 3).sum(axis=1)
            x = x + eta * force
            x /= np.linalg.norm(x, axis=1, keepdims=True)
    return PrototypeSet(x, np.ones(num_classes, dtype=np.int64))


@dataclass(frozen=True)
class RoundConfig:
    """Hyper-parameters of the local objective and round scheduling."""

    alignment: AlignmentKind
    lam: float = 1.0  # weight of the prototype-level alignment term
    gamma: float = 1.0  # weight of the instance-level alignment term
    local_epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 0.05
    participation_fraction: float = 1.0
    prototype_mode: str = "aggregate"

    def __post_init__(self):
        if not isinstance(self.alignment, AlignmentKind):
            raise ContractError("alignment must be an AlignmentKind")
        if not (0.0 <= self.lam < np.inf and 0.0 <= self.gamma < np.inf):
            raise ContractError(f"lam/gamma must be finite and >= 0, got {self.lam}, {self.gamma}")
        if self.local_epochs < 1:
            raise ContractError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.batch_size < 2:
            raise ContractError(f"batch_size must be >= 2, got {self.batch_size}")
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise ContractError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 < self.participation_fraction <= 1.0):
            raise ContractError(
                f"participation_fraction must be in (0, 1], got {self.participation_fraction}"
            )
        if self.prototype_mode not in PROTOTYPE_MODES:
            raise ContractError(
                f"prototype_mode must be one of {PROTOTYPE_MODES}, got {self.prototype_mode!r}"
            )


@dataclass
class LossBreakdown:
    sup: float
    proto: float
    inst: float
    total: float
    skipped_structural: int


@dataclass
class ClientRoundMetrics:
    client_id: int
    steps: int
    mean_sup: float
    mean_proto: float
    mean_inst: float
    mean_total: float
    skipped_structural: int


def _proto_term(kind, emb, labels, global_protos):
    """Prototype-level loss and its gradient w.r.t. the embedding batch.

    Returns (value, grad, skipped) where skipped flags a structural/degenerate
    skip.  Classes missing from the global set are excluded.
    """
    means, counts = _class_means(emb, labels, global_protos.num_classes)
    common = np.flatnonzero((counts >= 1) & global_protos.present)
    if common.size == 0:
        return 0.0, None, 0
    local_mat = means[common]
    if kind.name == "contrastive":
        try:
            parts = _contrastive(
                local_mat, global_protos.rows, global_protos.slot[common], kind.temperature
            )
        except DegenerateInputError as exc:
            logger.debug("prototype-level contrastive skipped: %s", exc)
            return 0.0, None, 1
        value, grad_local = parts.total.value, parts.total.grad
    else:
        if kind.is_structural and common.size < MIN_STRUCTURAL_ROWS:
            logger.debug(
                "prototype-level %s skipped: %d shared classes < %d",
                kind.name, common.size, MIN_STRUCTURAL_ROWS,
            )
            return 0.0, None, 1
        try:
            lv = _PAIRWISE_KERNELS[kind.name](local_mat, global_protos.vectors[common])
        except DegenerateInputError as exc:
            logger.debug("prototype-level %s skipped: %s", kind.name, exc)
            return 0.0, None, 1
        value, grad_local = lv.value, lv.grad
    # batch prototype of class c is the mean of its members, so each member
    # receives grad_row(c) / count(c)
    per_class = np.zeros((global_protos.num_classes, emb.shape[1]))
    per_class[common] = grad_local / counts[common][:, None]
    return value, per_class[labels], 0


def _instance_term(kind, emb, labels, global_protos):
    """Instance-level loss and gradient: embeddings vs own-class prototypes."""
    known = global_protos.present[labels]
    every = known.all()
    if not (every or known.any()):
        return 0.0, None, 0
    sub, sub_labels = (emb, labels) if every else (emb[known], labels[known])
    if kind.name == "contrastive":
        try:
            parts = _contrastive(
                sub, global_protos.rows, global_protos.slot[sub_labels], kind.temperature
            )
        except DegenerateInputError as exc:
            logger.debug("instance-level contrastive skipped: %s", exc)
            return 0.0, None, 1
        value, grad_sub = parts.total.value, parts.total.grad
    else:
        if kind.is_structural and sub.shape[0] < MIN_STRUCTURAL_ROWS:
            logger.debug("instance-level %s skipped: %d rows", kind.name, sub.shape[0])
            return 0.0, None, 1
        try:
            lv = _PAIRWISE_KERNELS[kind.name](sub, global_protos.vectors[sub_labels])
        except DegenerateInputError as exc:
            logger.debug("instance-level %s skipped: %s", kind.name, exc)
            return 0.0, None, 1
        value, grad_sub = lv.value, lv.grad
    if every:
        return value, grad_sub, 0
    grad_emb = np.zeros_like(emb)
    grad_emb[known] = grad_sub
    return value, grad_emb, 0


def local_train_step(
    model: ClientModel,
    batch,
    labels,
    global_protos: PrototypeSet | None,
    cfg: RoundConfig,
) -> tuple[ClientModel, LossBreakdown]:
    """One SGD step of L_sup + lam*L_proto + gamma*L_inst on a batch.

    An empty (or None) global prototype set disables both alignment terms
    (the bootstrap round); classes absent from the global set are excluded
    from alignment but always contribute to the supervised loss.  The global
    set must cover the model's classes and feature space.  The batch, the
    labels and the global set are checked once; the loss and the update then
    run on unchecked kernels.
    """
    emb, logits, cache = forward(model, batch)
    labels = check_labels(labels, emb.shape[0], model.num_classes)
    if global_protos is not None and global_protos.vectors.shape != (
        model.num_classes, model.feature_dim
    ):
        raise ContractError(
            f"global prototypes {global_protos.vectors.shape} do not match the model's "
            f"({model.num_classes}, {model.feature_dim})"
        )
    sup_val, grad_logits = _softmax_cross_entropy(logits, labels)
    grad_emb = grad_logits @ model.classifier_weights.T

    proto_val = 0.0
    inst_val = 0.0
    skipped = 0
    # runaway-but-finite embeddings may overflow inside the alignment terms;
    # the non-finite check on `total` below turns that into a clean
    # NumericFailureError, so the IEEE warnings along the way are suppressed
    with np.errstate(over="ignore", invalid="ignore"):
        aligned = global_protos is not None and not global_protos.is_empty
        if aligned and (cfg.lam > 0 or cfg.gamma > 0):
            if logger.isEnabledFor(logging.DEBUG):
                missing = sorted(set(labels.tolist()) - set(global_protos.classes()))
                if missing:
                    logger.debug(
                        "classes %s missing from global set; excluded from alignment", missing
                    )
            if cfg.lam > 0:
                proto_val, g, s = _proto_term(cfg.alignment, emb, labels, global_protos)
                skipped += s
                if g is not None:
                    grad_emb = grad_emb + cfg.lam * g
            if cfg.gamma > 0:
                inst_val, g, s = _instance_term(cfg.alignment, emb, labels, global_protos)
                skipped += s
                if g is not None:
                    grad_emb = grad_emb + cfg.gamma * g

        total = sup_val + cfg.lam * proto_val + cfg.gamma * inst_val
    if not np.isfinite(total):
        raise NumericFailureError(f"non-finite training loss {total}")
    _backward_and_step(model, cache, grad_logits, grad_emb, cfg.learning_rate)
    return model, LossBreakdown(sup_val, proto_val, inst_val, total, skipped)


def client_round(
    model: ClientModel,
    shard,
    global_protos: PrototypeSet | None,
    cfg: RoundConfig,
    seed,
) -> tuple[ClientModel, ClientRoundMetrics]:
    """local_epochs of seeded mini-batch SGD on the client's train shard.

    Batches are contiguous chunks of a fresh permutation each epoch; a
    remainder of a single row is dropped (centered structure needs >= 2).
    The client's upload is computed by run_experiment once every participant
    has trained.
    """
    rng = np.random.default_rng(seed)
    n = shard.num_train
    if n < 2:
        raise ContractError(f"client {shard.client_id} has {n} train rows; need >= 2")
    sums = np.zeros(4)
    steps = 0
    skipped = 0
    try:
        for _ in range(cfg.local_epochs):
            perm = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                if idx.shape[0] < 2:
                    continue
                model, breakdown = local_train_step(
                    model,
                    shard.train_features[idx],
                    shard.train_labels[idx],
                    global_protos,
                    cfg,
                )
                sums += (breakdown.sup, breakdown.proto, breakdown.inst, breakdown.total)
                skipped += breakdown.skipped_structural
                steps += 1
    except NumericFailureError as exc:
        raise NumericFailureError(f"client {shard.client_id}: {exc}") from exc
    means = sums / steps if steps else np.zeros(4)
    metrics = ClientRoundMetrics(
        client_id=shard.client_id,
        steps=steps,
        mean_sup=float(means[0]),
        mean_proto=float(means[1]),
        mean_inst=float(means[2]),
        mean_total=float(means[3]),
        skipped_structural=skipped,
    )
    return model, metrics


def evaluate_accuracy(model: ClientModel, features, labels) -> float:
    """Top-1 accuracy of the classifier head on the given rows."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.shape[0] < 1:
        raise ContractError("cannot evaluate on an empty set")
    _, logits, _ = forward(model, features)
    return float(np.mean(np.argmax(logits, axis=1) == labels))


@dataclass
class RoundReport:
    round_index: int
    participants: list[int]
    per_client_accuracy: list[float]
    mean_accuracy: float
    best_mean_accuracy: float
    loss_terms: dict[int, dict[str, float]]
    skipped_structural_steps: int
    effective_dimensionality: int
    participation_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "round": self.round_index,
            "participants": list(self.participants),
            "per_client_accuracy": [float(a) for a in self.per_client_accuracy],
            "mean_accuracy": self.mean_accuracy,
            "best_mean_accuracy": self.best_mean_accuracy,
            "loss_terms": {
                str(cid): {k: float(v) for k, v in terms.items()}
                for cid, terms in sorted(self.loss_terms.items())
            },
            "skipped_structural_steps": self.skipped_structural_steps,
            "effective_dimensionality": self.effective_dimensionality,
            "participation_ratio": self.participation_ratio,
        }


def _stack_uploads(latest_uploads: dict[int, PrototypeSet]) -> np.ndarray | None:
    stacked = np.concatenate([latest_uploads[cid].rows for cid in sorted(latest_uploads)])
    return stacked if stacked.shape[0] >= 2 else None


def run_experiment(
    shards,
    archs: list[ArchitectureSpec],
    cfg: RoundConfig,
    rounds: int,
    seed: int,
    num_classes: int,
    scenario: str = "hetero",
    snapshot_dir=None,
    normalize_stacking: bool = False,
) -> list[RoundReport]:
    """Run the full protocol and return one report per round.

    Scenarios: "hetero" assigns architecture i mod len(archs) to client i;
    "homo_local" gives every client a private copy of archs[0] (distinct
    seeded inits); "homo_shared" trains ONE archs[0] model, visited
    sequentially by each participant within a round.  Uploads are computed
    after every participant has trained, from each participant's model over
    its whole train shard, so in homo_shared they all reflect the final
    post-round extractor.

    All randomness derives from the master seed: model init (0, i), batch
    order (1, round, client), participation (2, round), hypersphere (4).
    Reports are byte-deterministic for a fixed configuration.
    """
    if scenario not in SCENARIOS:
        raise ContractError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if rounds < 0:
        raise ContractError(f"rounds must be >= 0, got {rounds}")
    if not archs:
        raise ContractError("need at least one architecture")
    shards = list(shards)
    n_clients = len(shards)
    if n_clients < 1:
        raise ContractError("need at least one shard")
    input_dim = shards[0].train_features.shape[1]
    feature_dim = archs[0].feature_dim
    if any(a.feature_dim != feature_dim for a in archs):
        raise ContractError("all architectures must share one feature_dim")

    shared = scenario == "homo_shared"
    if shared:
        shared_model = build_model(
            archs[0], input_dim, num_classes, np.random.SeedSequence([seed, 0, 0]), 0
        )
        models = [shared_model] * n_clients
    else:
        models = []
        for i in range(n_clients):
            arch_id = i % len(archs) if scenario == "hetero" else 0
            models.append(
                build_model(
                    archs[arch_id],
                    input_dim,
                    num_classes,
                    np.random.SeedSequence([seed, 0, i]),
                    arch_id,
                )
            )

    if cfg.prototype_mode == "fixed_hypersphere":
        global_protos = fixed_hypersphere_prototypes(
            num_classes, feature_dim, np.random.SeedSequence([seed, 4])
        )
    else:
        global_protos = None  # no prototypes yet: round 0 runs supervised-only

    latest_uploads: dict[int, PrototypeSet] = {}
    reports: list[RoundReport] = []
    best = 0.0

    for r in range(rounds):
        if cfg.participation_fraction >= 1.0:
            participants = list(range(n_clients))
        else:
            k = max(1, round(cfg.participation_fraction * n_clients))
            rng = np.random.default_rng(np.random.SeedSequence([seed, 2, r]))
            participants = sorted(rng.choice(n_clients, size=k, replace=False).tolist())

        uploads: dict[int, PrototypeSet] = {}
        loss_terms: dict[int, dict[str, float]] = {}
        skipped = 0
        try:
            for i in participants:
                _, metrics = client_round(
                    models[i], shards[i], global_protos, cfg,
                    np.random.SeedSequence([seed, 1, r, i]),
                )
                loss_terms[i] = {
                    "sup": metrics.mean_sup,
                    "proto": metrics.mean_proto,
                    "inst": metrics.mean_inst,
                    "total": metrics.mean_total,
                }
                skipped += metrics.skipped_structural
            for i in participants:
                emb, _, _ = forward(models[i], shards[i].train_features)
                uploads[i] = batch_prototypes(emb, shards[i].train_labels, num_classes)
        except NumericFailureError as exc:
            raise NumericFailureError(f"round {r}: {exc}") from exc

        if cfg.prototype_mode == "aggregate":
            global_protos = aggregate_prototypes(
                [uploads[i] for i in participants], previous=global_protos
            )
        latest_uploads.update(uploads)

        accs = [
            evaluate_accuracy(models[i], shards[i].test_features, shards[i].test_labels)
            for i in range(n_clients)
        ]
        mean_acc = float(np.mean(accs))
        best = max(best, mean_acc)

        stacked = _stack_uploads(latest_uploads)
        if stacked is None:
            eff_dim, pr = 1, 1.0
        else:
            try:
                eff = effective_dimensionality(stacked, normalize_rows_first=normalize_stacking)
                eff_dim, pr = eff.threshold_dim, eff.participation_ratio
            except DegenerateInputError:
                logger.debug("round %d: degenerate prototype stack", r)
                eff_dim, pr = 1, 1.0

        reports.append(
            RoundReport(
                round_index=r,
                participants=participants,
                per_client_accuracy=accs,
                mean_accuracy=mean_acc,
                best_mean_accuracy=best,
                loss_terms=loss_terms,
                skipped_structural_steps=skipped,
                effective_dimensionality=eff_dim,
                participation_ratio=pr,
            )
        )
        if snapshot_dir is not None:
            _write_prototype_snapshot(global_protos, snapshot_dir, r)
    return reports


def _write_prototype_snapshot(protos: PrototypeSet, snapshot_dir, round_index: int) -> None:
    import csv
    import os

    os.makedirs(snapshot_dir, exist_ok=True)
    path = os.path.join(snapshot_dir, f"round_{round_index}.csv")
    dim = protos.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class"] + [f"v{k}" for k in range(dim)] + ["weight"])
        for c in protos.classes():
            writer.writerow(
                [c] + [repr(float(x)) for x in protos.vectors[c]] + [int(protos.counts[c])]
            )
