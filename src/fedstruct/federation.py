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
from .losses import AlignmentKind, loss_contrastive, pairwise_loss
from .models import (
    ArchitectureSpec,
    ClientModel,
    build_model,
    backward_and_step,
    forward,
    loss_supervised,
)

logger = logging.getLogger(__name__)

# Structural losses need this many rows before they say anything meaningful.
MIN_STRUCTURAL_ROWS = 3

# the order in which `dimensionality` runs and compares the sharing regimes
SCENARIOS = ("homo_shared", "homo_local", "hetero")
PROTOTYPE_MODES = ("aggregate", "fixed_hypersphere")


@dataclass
class PrototypeSet:
    """Per-class prototype vectors with their supporting sample counts."""

    vectors: dict[int, np.ndarray] = field(default_factory=dict)
    counts: dict[int, int] = field(default_factory=dict)

    def classes(self) -> list[int]:
        return sorted(self.vectors)

    @property
    def is_empty(self) -> bool:
        return not self.vectors

    @property
    def dim(self) -> int | None:
        for v in self.vectors.values():
            return int(v.shape[0])
        return None

    def set(self, cls: int, vector: np.ndarray, count: int) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1:
            raise ContractError(f"prototype for class {cls} must be 1-D")
        if not np.all(np.isfinite(vector)):
            raise ContractError(f"prototype for class {cls} has non-finite entries")
        if int(cls) < 0 or int(count) < 1:
            raise ContractError(f"need class >= 0 and count >= 1, got {cls}, {count}")
        if self.dim is not None and vector.shape[0] != self.dim:
            raise ContractError(
                f"prototype dim {vector.shape[0]} != existing dim {self.dim}"
            )
        self.vectors[int(cls)] = vector
        self.counts[int(cls)] = int(count)

    def stack(self, classes=None) -> np.ndarray:
        """Matrix of prototypes for `classes` (default: all, sorted)."""
        classes = self.classes() if classes is None else list(classes)
        if not classes:
            raise ContractError("cannot stack an empty class list")
        missing = [c for c in classes if c not in self.vectors]
        if missing:
            raise ContractError(f"classes {missing} not present in prototype set")
        return np.stack([self.vectors[c] for c in classes])


def batch_prototypes(embeddings, labels) -> PrototypeSet:
    """Per-class means of an embedding batch; only present classes appear."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if embeddings.ndim != 2 or labels.shape != (embeddings.shape[0],):
        raise ContractError(
            f"embeddings {embeddings.shape} / labels {labels.shape} inconsistent"
        )
    out = PrototypeSet()
    for c in np.unique(labels):
        members = labels == c
        out.set(int(c), embeddings[members].mean(axis=0), int(members.sum()))
    return out


def aggregate_prototypes(uploads, previous: PrototypeSet | None = None) -> PrototypeSet:
    """Count-weighted average of client uploads, with stale retention.

    Classes present in any upload get the weighted mean (weights = per-class
    sample counts); classes only present in `previous` are carried over
    unchanged.  The server sees nothing but PrototypeSet values.
    """
    uploads = list(uploads)
    for u in uploads:
        if not isinstance(u, PrototypeSet):
            raise TypeError(
                f"server aggregation accepts PrototypeSet uploads only, got {type(u).__name__}"
            )
    if previous is not None and not isinstance(previous, PrototypeSet):
        raise TypeError("previous must be a PrototypeSet or None")
    merged = PrototypeSet()
    fresh = sorted({c for u in uploads for c in u.vectors})
    for c in fresh:
        vecs = [u.vectors[c] for u in uploads if c in u.vectors]
        wts = np.array([u.counts[c] for u in uploads if c in u.vectors], dtype=np.float64)
        stacked = np.stack(vecs)
        mean = (wts[:, None] * stacked).sum(axis=0) / wts.sum()
        merged.set(c, mean, int(wts.sum()))
    if previous is not None:
        for c in previous.classes():
            if c not in merged.vectors:
                merged.set(c, previous.vectors[c], previous.counts[c])
    return merged


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
    out = PrototypeSet()
    for c in range(num_classes):
        out.set(c, x[c], 1)
    return out


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


def _alignment_available(global_protos: PrototypeSet | None) -> bool:
    return global_protos is not None and not global_protos.is_empty


def _proto_term(kind, emb, labels, global_protos, batch_set):
    """Prototype-level loss and its gradient w.r.t. the embedding batch.

    Returns (value, grad, skipped) where skipped flags a structural/degenerate
    skip.  Classes missing from the global set are excluded.
    """
    common = [c for c in batch_set.classes() if c in global_protos.vectors]
    if not common:
        return 0.0, None, 0
    local_mat = batch_set.stack(common)
    if kind.name == "contrastive":
        gcls = global_protos.classes()
        pos = {c: k for k, c in enumerate(gcls)}
        proto_labels = np.array([pos[c] for c in common], dtype=np.int64)
        try:
            parts = loss_contrastive(
                local_mat, global_protos.stack(gcls), proto_labels, kind.temperature
            )
        except DegenerateInputError as exc:
            logger.debug("prototype-level contrastive skipped: %s", exc)
            return 0.0, None, 1
        value, grad_local = parts.total.value, parts.total.grad
    else:
        if kind.is_structural and len(common) < MIN_STRUCTURAL_ROWS:
            logger.debug(
                "prototype-level %s skipped: %d shared classes < %d",
                kind.name, len(common), MIN_STRUCTURAL_ROWS,
            )
            return 0.0, None, 1
        try:
            lv = pairwise_loss(kind, local_mat, global_protos.stack(common))
        except DegenerateInputError as exc:
            logger.debug("prototype-level %s skipped: %s", kind.name, exc)
            return 0.0, None, 1
        value, grad_local = lv.value, lv.grad
    # batch prototype of class c is the mean of its members, so each member
    # receives grad_row(c) / count(c)
    grad_emb = np.zeros_like(emb)
    for row, c in enumerate(common):
        members = labels == c
        grad_emb[members] = grad_local[row] / batch_set.counts[c]
    return value, grad_emb, 0


def _instance_term(kind, emb, labels, global_protos):
    """Instance-level loss and gradient: embeddings vs own-class prototypes."""
    known = np.isin(labels, global_protos.classes())
    if not known.any():
        return 0.0, None, 0
    sub = emb[known]
    sub_labels = labels[known]
    if kind.name == "contrastive":
        gcls = global_protos.classes()
        pos = {c: k for k, c in enumerate(gcls)}
        mapped = np.array([pos[int(c)] for c in sub_labels], dtype=np.int64)
        try:
            parts = loss_contrastive(sub, global_protos.stack(gcls), mapped, kind.temperature)
        except DegenerateInputError as exc:
            logger.debug("instance-level contrastive skipped: %s", exc)
            return 0.0, None, 1
        value, grad_sub = parts.total.value, parts.total.grad
    else:
        if kind.is_structural and sub.shape[0] < MIN_STRUCTURAL_ROWS:
            logger.debug("instance-level %s skipped: %d rows", kind.name, sub.shape[0])
            return 0.0, None, 1
        targets = np.stack([global_protos.vectors[int(c)] for c in sub_labels])
        try:
            lv = pairwise_loss(kind, sub, targets)
        except DegenerateInputError as exc:
            logger.debug("instance-level %s skipped: %s", kind.name, exc)
            return 0.0, None, 1
        value, grad_sub = lv.value, lv.grad
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

    An empty global prototype set disables both alignment terms (the
    bootstrap round); classes absent from the global set are excluded from
    alignment but always contribute to the supervised loss.
    """
    labels = np.asarray(labels)
    emb, logits, cache = forward(model, batch)
    sup_val, grad_logits = loss_supervised(logits, labels)
    grad_emb = grad_logits @ model.classifier_weights.T

    proto_val = 0.0
    inst_val = 0.0
    skipped = 0
    # runaway-but-finite embeddings may overflow inside the alignment terms;
    # the non-finite check on `total` below turns that into a clean
    # NumericFailureError, so the IEEE warnings along the way are suppressed
    with np.errstate(over="ignore", invalid="ignore"):
        if _alignment_available(global_protos) and (cfg.lam > 0 or cfg.gamma > 0):
            missing = sorted(set(np.unique(labels).tolist()) - set(global_protos.classes()))
            if missing:
                logger.debug(
                    "classes %s missing from global set; excluded from alignment", missing
                )
            batch_set = batch_prototypes(emb, labels)
            if cfg.lam > 0:
                proto_val, g, s = _proto_term(
                    cfg.alignment, emb, labels, global_protos, batch_set
                )
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
    backward_and_step(model, cache, grad_logits, grad_emb, cfg.learning_rate)
    return model, LossBreakdown(sup_val, proto_val, inst_val, total, skipped)


def client_round(
    model: ClientModel,
    shard,
    global_protos: PrototypeSet | None,
    cfg: RoundConfig,
    seed,
) -> tuple[ClientModel, PrototypeSet, ClientRoundMetrics]:
    """local_epochs of seeded mini-batch SGD, then a full-shard prototype upload.

    Batches are contiguous chunks of a fresh permutation each epoch; a
    remainder of a single row is dropped (centered structure needs >= 2).
    The upload is computed from the post-training extractor over the whole
    train shard, so it reflects the client's final state.
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
    emb, _, _ = forward(model, shard.train_features)
    upload = batch_prototypes(emb, shard.train_labels)
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
    return model, upload, metrics


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
    rows = []
    for cid in sorted(latest_uploads):
        ps = latest_uploads[cid]
        for c in ps.classes():
            rows.append(ps.vectors[c])
    if len(rows) < 2:
        return None
    return np.stack(rows)


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
    sequentially by each participant within a round, with uploads recomputed
    from the final post-round extractor.

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
        global_protos = PrototypeSet()  # empty: round 0 runs supervised-only

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
        for i in participants:
            try:
                _, upload, metrics = client_round(
                    models[i], shards[i], global_protos, cfg,
                    np.random.SeedSequence([seed, 1, r, i]),
                )
            except NumericFailureError as exc:
                raise NumericFailureError(f"round {r}: {exc}") from exc
            uploads[i] = upload
            loss_terms[i] = {
                "sup": metrics.mean_sup,
                "proto": metrics.mean_proto,
                "inst": metrics.mean_inst,
                "total": metrics.mean_total,
            }
            skipped += metrics.skipped_structural
        if shared:
            # in the shared scenario every upload reflects the final
            # post-round extractor, not the mid-round states
            for i in participants:
                emb, _, _ = forward(models[i], shards[i].train_features)
                uploads[i] = batch_prototypes(emb, shards[i].train_labels)

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
    dim = protos.dim or 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class"] + [f"v{k}" for k in range(dim)] + ["weight"])
        for c in protos.classes():
            writer.writerow(
                [c] + [repr(float(x)) for x in protos.vectors[c]] + [protos.counts[c]]
            )
