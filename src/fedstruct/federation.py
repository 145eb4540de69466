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
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import effective_dimensionality, write_csv
from .errors import ContractError, DegenerateInputError, NumericFailureError, ReplicaFailure
from .losses import _PAIRWISE_KERNELS, AlignmentKind, _contrastive
from .models import (
    ArchitectureSpec,
    ClientModel,
    _backward_and_step,
    _check_finite,
    _forward,
    _softmax_cross_entropy,
    _stack_of_one,
    build_model,
    check_batch,
    replicate,
)
from .tensor import _kept, as_matrix, check_labels

logger = logging.getLogger(__name__)

# Structural losses need this many rows before they say anything meaningful.
MIN_STRUCTURAL_ROWS = 3

# the order in which `dimensionality` runs and compares the sharing regimes
SCENARIOS = ("homo_shared", "homo_local", "hetero")
PROTOTYPE_MODES = ("aggregate", "fixed_hypersphere")
# the RoundConfig fields in which the runs of one lockstep call may differ
PER_REPLICA_FIELDS = ("alignment", "lam", "gamma")
# the loss terms a round reports per client, in the columns of the terms table
LOSS_TERMS = ("sup", "proto", "inst", "total")


@dataclass(frozen=True, eq=False)
class PrototypeSet:
    """Dense per-class prototypes: row c of `vectors` is class c's prototype
    and counts[c] the number of samples behind it.

    Class c is present exactly when counts[c] >= 1; the rows of absent
    classes are zero and never read as prototypes.  Both arrays are
    read-only copies, so a set never changes once built.

    The replicas of a lockstep run (see run_experiments) keep one set with
    (R, C, d) vectors, one (C, d) slice per replica.  They share the counts,
    and with them which classes are present: counts follow from labels
    alone, and every replica sees the same labels.
    """

    vectors: np.ndarray  # (C, d) or (R, C, d) float64
    counts: np.ndarray  # (C,) int64
    present: np.ndarray = field(init=False, repr=False)  # (C,) bool
    # the present rows stacked in class order, and each class's row in it
    # (-1 when absent); built once here so a training step only indexes
    rows: np.ndarray = field(init=False, repr=False)
    slot: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vectors = np.array(self.vectors, dtype=np.float64)
        counts = np.asarray(self.counts)
        if vectors.ndim not in (2, 3) or counts.shape != vectors.shape[-2:-1]:
            raise ContractError(
                f"need (C, d) or (R, C, d) vectors and (C,) counts, got {vectors.shape} "
                f"and {counts.shape}"
            )
        if counts.size and (not np.issubdtype(counts.dtype, np.integer) or counts.min() < 0):
            raise ContractError(f"counts must be integers >= 0, got {counts}")
        if not np.all(np.isfinite(vectors)):
            raise ContractError("prototype vectors have non-finite entries")
        counts = counts.astype(np.int64)
        present = counts >= 1
        vectors[..., ~present, :] = 0.0
        slot = np.cumsum(present) - 1
        slot[~present] = -1
        for name, value in (("vectors", vectors), ("counts", counts), ("present", present),
                            ("rows", vectors[..., present, :]), ("slot", slot)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def num_classes(self) -> int:
        return int(self.vectors.shape[-2])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[-1])

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
    means, counts = _class_means(embeddings[None], labels, num_classes)
    return PrototypeSet(means[0], counts)


def _class_means(embeddings, labels, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """(R, C, d) per-class means of each replica of an (R, n, d) stack (zero
    rows for absent classes) and the (C,) counts; labels must lie in
    [0, num_classes).  Each sum starts at 0.0 and adds its rows in batch
    order (one weighted bincount over every replica), so for d >= 2 each
    mean is bit-identical to embeddings[r, labels == c].mean(axis=0) (numpy
    sums a single column pairwise instead)."""
    replicas, _, dim = embeddings.shape
    counts = np.bincount(labels, minlength=num_classes)
    # the flat index of (replica, class of row i, column) for every entry
    rows = np.arange(replicas)[:, None] * num_classes + labels
    slots = rows[:, :, None] * dim + np.arange(dim)
    sums = np.bincount(slots.ravel(), weights=embeddings.ravel(),
                       minlength=replicas * num_classes * dim)
    return sums.reshape(replicas, num_classes, dim) / np.maximum(counts, 1)[:, None], counts


def aggregate_prototypes(uploads, previous: PrototypeSet | None = None) -> PrototypeSet:
    """Count-weighted average of client uploads, with stale retention.

    Classes present in any upload get the weighted mean (weights = per-class
    sample counts); classes only present in `previous` are carried over
    unchanged.  The uploads and `previous` are PrototypeSet values of one
    shape: (classes, dim), or (replicas, classes, dim) for a lockstep stack.
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
        raise ContractError(f"uploads must share one vector shape, got {sorted(shapes)}")
    return _aggregate(np.stack([u.vectors for u in uploads], axis=-3),
                      np.stack([u.counts for u in uploads]), previous)


def _aggregate(stacked, counts, previous: PrototypeSet | None) -> PrototypeSet:
    """aggregate_prototypes over ([R,] U, C, d) upload vectors, zero where
    absent, and their (U, C) counts; a replica whose sum overflows fails."""
    total = counts.sum(axis=0)
    # absent rows are zero with weight zero, so each adds +0.0 to its class's
    # sum; the uploads are summed in order along the U axis
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = (counts[:, :, None] * stacked).sum(axis=-3)
    vectors = weighted / np.maximum(total, 1)[:, None]
    _check_finite((vectors,), "aggregation produced non-finite prototypes")
    if previous is not None:
        stale = previous.present & (total == 0)
        vectors[..., stale, :] = previous.vectors[..., stale, :]
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
    learning_rate: float = 0.18
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


# The training step below runs every replica of a lockstep stack at once.
# Each term's kernel sees only the replicas that weight it (> 0), grouped by
# loss kind; a kernel reports the replicas it must skip (see tensor.py),
# whose value then reads 0 and whose gradient is left out, exactly as in a
# run of one.


def _align(kind, rows, classes, protos, replicas):
    """Each replica's loss of `rows` (R, m, d) against the global prototypes
    of their `classes` (m,), `replicas` indexing the stack of `protos`:
    (values (R,), grad w.r.t. the rows or None, why)."""
    if kind.name == "contrastive":
        parts, why = _contrastive(rows, protos.rows[replicas], protos.slot[classes],
                                  kind.temperature)
        return parts.total.value, parts.total.grad, why
    if kind.is_structural and rows.shape[1] < MIN_STRUCTURAL_ROWS:
        why = np.full(rows.shape[0], f"{rows.shape[1]} rows < {MIN_STRUCTURAL_ROWS}", dtype=object)
        return np.zeros(rows.shape[0]), None, why
    return _PAIRWISE_KERNELS[kind.name](rows, protos.vectors[replicas].take(classes, axis=1))


def _proto_term(kind, means, counts, labels, protos, replicas):
    """Prototype-level loss of each replica's batch prototypes (`means`
    (R, C, d) and `counts`, from _class_means) against its global
    prototypes, and the gradient w.r.t. the batch embeddings: (values (R,),
    grad or None, why).  Classes missing from the global set are excluded."""
    common = np.flatnonzero((counts >= 1) & protos.present)
    if common.size == 0:
        return np.zeros(means.shape[0]), None, _kept(means.shape[0])
    values, grad_local, why = _align(kind, means.take(common, axis=1), common, protos, replicas)
    if grad_local is None:
        return values, None, why
    # batch prototype of class c is the mean of its members, so each member
    # receives grad_row(c) / count(c)
    per_class = np.zeros(means.shape)
    per_class[:, common] = grad_local / counts[common][:, None]
    return values, per_class[:, labels], why


def _instance_term(kind, emb, labels, protos, replicas):
    """Instance-level loss and gradient of each replica of `emb` (R, n, d):
    embeddings vs own-class prototypes."""
    known = protos.present[labels]
    every = known.all()
    if not (every or known.any()):
        return np.zeros(emb.shape[0]), None, _kept(emb.shape[0])
    sub, sub_labels = (emb, labels) if every else (emb.compress(known, axis=1), labels[known])
    values, grad_sub, why = _align(kind, sub, sub_labels, protos, replicas)
    if every or grad_sub is None:
        return values, grad_sub, why
    grad_emb = np.zeros_like(emb)
    grad_emb[:, known] = grad_sub
    return values, grad_emb, why


def _objective(cfgs: list[RoundConfig]) -> tuple[np.ndarray, list]:
    """The (2, R) lam and gamma of each replica of a stack, and the groups
    [(term, kind, replica positions)] of the replicas that weight a term
    (> 0) with one loss kind: term 0 (proto) before term 1 (inst), kinds in
    first-seen order, which fixes the order of the gradient sums."""
    weights = np.array([[c.lam for c in cfgs], [c.gamma for c in cfgs]], dtype=np.float64)
    groups: dict[tuple[int, AlignmentKind], list[int]] = {}
    for term, row in enumerate(weights):
        for pos, (c, w) in enumerate(zip(cfgs, row)):
            if w > 0:
                groups.setdefault((term, c.alignment), []).append(pos)
    return weights, [(term, kind, np.array(pos)) for (term, kind), pos in groups.items()]


def _train_step(model, batch, labels, protos, objective, learning_rate):
    """One SGD step of L_sup + lam*L_proto + gamma*L_inst for every replica
    of a stacked model on one shared batch; `objective` is _objective's.

    Returns each replica's [sup, proto, inst, total] as an (R, 4) array and
    its structural skips.  A replica whose forward pass, total loss or
    parameter gradient is non-finite fails with ReplicaFailure, before any
    replica's parameters change.
    """
    weights, groups = objective
    emb, logits, layers = _forward(model, batch)
    sup, grad_logits = _softmax_cross_entropy(logits, labels)
    grad_emb = grad_logits @ model.classifier_weights.swapaxes(1, 2)
    replicas = emb.shape[0]
    terms = np.zeros((4, replicas))  # sup, proto, inst and total, per replica
    terms[0] = sup
    skipped = np.zeros(replicas, dtype=np.int64)
    # runaway-but-finite embeddings may overflow inside the alignment terms;
    # the non-finite check on the totals below turns that into a clean
    # NumericFailureError, so the IEEE warnings along the way are suppressed
    with np.errstate(over="ignore", invalid="ignore"):
        if groups and protos is not None and not protos.is_empty:
            if logger.isEnabledFor(logging.DEBUG):
                missing = sorted(set(labels.tolist()) - set(protos.classes()))
                if missing:
                    logger.debug(
                        "classes %s missing from global set; excluded from alignment", missing
                    )
            if groups[0][0] == 0:  # a proto group, so the batch prototypes are needed
                means, counts = _class_means(emb, labels, protos.num_classes)
            for term, kind, positions in groups:
                if term == 0:
                    got, grad, why = _proto_term(kind, means[positions], counts, labels, protos,
                                                 positions)
                else:
                    got, grad, why = _instance_term(kind, emb[positions], labels, protos, positions)
                # record the values and add the weighted gradient of the
                # group's replicas that did not skip the term
                done = why == ""
                if not done.all():
                    for reason in why[~done]:
                        logger.debug("%s term of %s skipped: %s", LOSS_TERMS[1 + term],
                                     kind.name, reason)
                    skipped[positions[~done]] += 1
                ok = positions[done]
                terms[1 + term, ok] = got[done]
                if grad is not None:
                    grad_emb[ok] += weights[term, ok, None, None] * grad[done]
        # Python floats, one replica at a time, as in a run of one
        totals = [s + lam * p + gamma * i
                  for s, p, i, lam, gamma in zip(*terms[:3].tolist(), *weights.tolist())]
    bad = {r: f"non-finite training loss {t}" for r, t in enumerate(totals) if not math.isfinite(t)}
    if bad:
        raise ReplicaFailure(bad)
    _backward_and_step(model, layers, grad_logits, grad_emb, learning_rate)
    terms[3] = totals
    return terms.T, skipped


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
    labels and the global set are checked here; the step itself is the
    lockstep engine's, on a stack of one.
    """
    batch = check_batch(model, batch)
    labels = check_labels(labels, batch.shape[0], model.num_classes)
    if global_protos is not None and global_protos.vectors.shape != (
        model.num_classes, model.feature_dim
    ):
        raise ContractError(
            f"global prototypes {global_protos.vectors.shape} do not match the model's "
            f"({model.num_classes}, {model.feature_dim})"
        )
    stacked = None if global_protos is None else PrototypeSet(
        global_protos.vectors[None], global_protos.counts
    )
    terms, skipped = _train_step(
        _stack_of_one(model), batch, labels, stacked, _objective([cfg]), cfg.learning_rate
    )
    return model, LossBreakdown(*terms[0].tolist(), int(skipped[0]))


def _accuracy(model: ClientModel, features, labels) -> np.ndarray:
    """(R,) top-1 accuracies of a stacked model's classifier heads."""
    _, logits, _ = _forward(model, features, keep_layers=False)
    # an exact count over n: the mean of the hits, bit for bit
    return (np.argmax(logits, axis=2) == labels).sum(axis=1) / labels.shape[0]


def evaluate_accuracy(model: ClientModel, features, labels) -> float:
    """Top-1 accuracy of the classifier head on the given rows."""
    features = check_batch(model, features)
    if features.shape[0] < 1:
        raise ContractError("cannot evaluate on an empty set")
    labels = check_labels(labels, features.shape[0], model.num_classes)
    return float(_accuracy(_stack_of_one(model), features, labels)[0])


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
    sequentially by each participant within a round.  Each participant runs
    local_epochs of mini-batch SGD on its train shard: contiguous batches of
    a fresh permutation each epoch, where a remainder of a single row is
    dropped (centered structure needs >= 2).  Uploads are computed after
    every participant has trained, from each participant's model over its
    whole train shard, so in homo_shared they all reflect the final
    post-round extractor.

    All randomness derives from the master seed: model init (0, i), batch
    order (1, round, client), participation (2, round), hypersphere (4).
    Reports are byte-deterministic for a fixed configuration.  A numeric
    failure raises NumericFailureError naming the round (and the client, if
    it happened in training).  This is run_experiments with one config.
    """
    (result,) = run_experiments(
        shards, archs, [cfg], rounds, seed, num_classes, scenario,
        snapshot_dirs=[snapshot_dir], normalize_stacking=normalize_stacking,
    )
    if isinstance(result, NumericFailureError):
        raise result
    return result


def _check_shards(shards, num_classes: int) -> int:
    """Check every shard once, before any training: non-empty finite 2-D
    features with the first shard's column count, labels in [0, num_classes)
    and >= 2 train rows.  Returns the column count."""
    columns = None
    for s in shards:
        for split, features, labels in (("train", s.train_features, s.train_labels),
                                        ("test", s.test_features, s.test_labels)):
            try:
                x = as_matrix(features, "features")
                check_labels(labels, x.shape[0], num_classes)
            except ContractError as exc:
                raise ContractError(f"client {s.client_id}: {split} {exc}") from None
            columns = columns or x.shape[1]
            if x.shape[1] != columns:
                raise ContractError(f"client {s.client_id}: {split} features have {x.shape[1]} "
                                    f"columns, the first shard's {columns}")
        if s.num_train < 2:
            raise ContractError(f"client {s.client_id} has {s.num_train} train rows; need >= 2")
    return columns


class _Replicas:
    """The live replicas of a lockstep run and everything that carries the
    replica axis; a replica that fails leaves every stack at once."""

    def __init__(self, cfgs: list[RoundConfig], models, global_protos, clients: int,
                 num_classes: int, feature_dim: int):
        self.cfgs = cfgs
        self.live = list(range(len(cfgs)))  # the config index at each stack position
        self.models = models  # per client; homo_shared lists one stack n times
        self.global_protos = global_protos
        self.errors: dict[int, NumericFailureError] = {}
        self.objective = _objective(cfgs)
        # each client's latest upload, as _class_means returns it; a client
        # that has not uploaded yet has no present class
        self.latest = np.zeros((len(cfgs), clients, num_classes, feature_dim))
        self.latest_counts = np.zeros((clients, num_classes), dtype=np.int64)
        # the current round's mean loss terms per client and structural skips
        self.terms = np.zeros((len(cfgs), clients, 4))
        self.skips = np.zeros(len(cfgs), dtype=np.int64)

    def attempt(self, work, prefix: str):
        """work() over the live replicas.  A replica that fails is dropped
        with the message its own run would raise, and work() runs again on
        the others; their arithmetic does not depend on who else is in the
        stack.  Returns None once no replica is left."""
        while self.live:
            try:
                return work()
            except ReplicaFailure as exc:
                self._drop(exc.failures, prefix)
        return None

    def _drop(self, failures: dict[int, str], prefix: str) -> None:
        for pos, message in failures.items():
            self.errors[self.live[pos]] = NumericFailureError(prefix + message)
        keep = [pos for pos in range(len(self.live)) if pos not in failures]
        self.live = [self.live[pos] for pos in keep]
        stacks = {id(m): m.map_arrays(lambda a: a[keep]) for m in self.models}
        self.models = [stacks[id(m)] for m in self.models]
        if self.global_protos is not None:
            self.global_protos = PrototypeSet(self.global_protos.vectors[keep],
                                              self.global_protos.counts)
        self.objective = _objective([self.cfgs[k] for k in self.live])
        self.latest, self.terms, self.skips = self.latest[keep], self.terms[keep], self.skips[keep]


def run_experiments(
    shards,
    archs: list[ArchitectureSpec],
    cfgs: list[RoundConfig],
    rounds: int,
    seed: int,
    num_classes: int,
    scenario: str = "hetero",
    snapshot_dirs=None,
    normalize_stacking: bool = False,
) -> list[list[RoundReport] | NumericFailureError]:
    """Run the protocol once per config, all runs in lockstep.

    The configs may differ only in `alignment`, `lam` and `gamma`; the
    data, partition, model inits, participation draws and batch order are
    shared.  The runs therefore advance as R replicas of one run: every
    parameter and prototype array carries a leading replica axis, and each
    SGD step serves all replicas at once.  Every replica's arithmetic is its
    own run's, so each result equals run_experiment on that config alone,
    byte for byte.

    Returns, per config, its reports or the NumericFailureError that ended
    its run; a replica that fails leaves the stack and the others carry on.
    `snapshot_dirs`, if given, holds one prototype-snapshot directory (or
    None) per config.  See run_experiment for the protocol.
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
    input_dim = _check_shards(shards, num_classes)
    feature_dim = archs[0].feature_dim
    if any(a.feature_dim != feature_dim for a in archs):
        raise ContractError("all architectures must share one feature_dim")
    cfgs = list(cfgs)
    if not cfgs:
        raise ContractError("need at least one RoundConfig")
    shared = {tuple(getattr(c, f.name) for f in fields(RoundConfig)
                    if f.name not in PER_REPLICA_FIELDS) for c in cfgs}
    if len(shared) != 1:
        raise ContractError(f"lockstep configs may differ only in {PER_REPLICA_FIELDS}")
    snapshot_dirs = list(snapshot_dirs) if snapshot_dirs is not None else [None] * len(cfgs)
    if len(snapshot_dirs) != len(cfgs):
        raise ContractError(f"need one snapshot directory per config, got {len(snapshot_dirs)}")
    cfg = cfgs[0]  # for the fields every config shares
    copies = len(cfgs)

    def client_model(i):
        arch = archs[i % len(archs) if scenario == "hetero" else 0]
        model = build_model(arch, input_dim, num_classes, np.random.SeedSequence([seed, 0, i]))
        return replicate(model, copies)

    # homo_shared trains client 0's model, which every client visits in turn
    models = ([client_model(0)] * n_clients if scenario == "homo_shared"
              else [client_model(i) for i in range(n_clients)])

    if cfg.prototype_mode == "fixed_hypersphere":
        anchors = fixed_hypersphere_prototypes(
            num_classes, feature_dim, np.random.SeedSequence([seed, 4])
        )
        global_protos = PrototypeSet(np.repeat(anchors.vectors[None], copies, axis=0),
                                     anchors.counts)
    else:
        global_protos = None  # no prototypes yet: round 0 runs supervised-only

    state = _Replicas(cfgs, models, global_protos, n_clients, num_classes, feature_dim)
    reports: list[list[RoundReport]] = [[] for _ in cfgs]
    best = [0.0] * copies

    def results():
        return [state.errors.get(k, reports[k]) for k in range(copies)]

    for r in range(rounds):
        k = max(1, round(cfg.participation_fraction * n_clients))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2, r]))
        participants = sorted(rng.choice(n_clients, size=k, replace=False).tolist())

        state.terms[:] = 0.0
        state.skips[:] = 0
        for i in participants:
            shard = shards[i]
            rng = np.random.default_rng(np.random.SeedSequence([seed, 1, r, i]))
            n = shard.num_train
            steps = 0
            for _ in range(cfg.local_epochs):
                perm = rng.permutation(n)
                for start in range(0, n, cfg.batch_size):
                    idx = perm[start : start + cfg.batch_size]
                    if idx.shape[0] < 2:
                        continue
                    batch, labels = shard.train_features[idx], shard.train_labels[idx]
                    done = state.attempt(
                        lambda: _train_step(state.models[i], batch, labels, state.global_protos,
                                            state.objective, cfg.learning_rate),
                        f"round {r}: client {shard.client_id}: ",
                    )
                    if done is None:
                        return results()
                    state.terms[:, i] += done[0]
                    state.skips += done[1]
                    steps += 1
            state.terms[:, i] /= max(steps, 1)

        def finish_round():
            """The uploads, the new global prototypes and the accuracies."""
            for i in participants:
                emb = _forward(state.models[i], shards[i].train_features, keep_layers=False)[0]
                means, state.latest_counts[i] = _class_means(emb, shards[i].train_labels,
                                                             num_classes)
                _check_finite((means,), "upload produced non-finite prototypes")
                state.latest[:, i] = means
            protos = state.global_protos
            if cfg.prototype_mode == "aggregate":
                protos = _aggregate(state.latest[:, participants],
                                    state.latest_counts[participants], protos)
            return protos, np.stack([_accuracy(state.models[i], s.test_features, s.test_labels)
                                     for i, s in enumerate(shards)], axis=1)

        done = state.attempt(finish_round, f"round {r}: ")
        if done is None:
            return results()
        state.global_protos, accs = done

        for pos, k in enumerate(state.live):
            per_client = accs[pos].tolist()
            mean_acc = float(np.mean(per_client))
            best[k] = max(best[k], mean_acc)
            # the latest uploads' present rows, client by client, class by class
            eff_dim, pr = _spectrum(state.latest[pos][state.latest_counts >= 1],
                                    normalize_stacking, r)
            reports[k].append(
                RoundReport(
                    round_index=r,
                    participants=list(participants),
                    per_client_accuracy=per_client,
                    mean_accuracy=mean_acc,
                    best_mean_accuracy=best[k],
                    loss_terms={i: dict(zip(LOSS_TERMS, state.terms[pos, i].tolist()))
                                for i in participants},
                    skipped_structural_steps=int(state.skips[pos]),
                    effective_dimensionality=eff_dim,
                    participation_ratio=pr,
                )
            )
            if snapshot_dirs[k] is not None:
                _write_prototype_snapshot(state.global_protos, pos, snapshot_dirs[k], r)
    return results()


def _spectrum(stacked: np.ndarray, normalize: bool, round_index: int) -> tuple[int, float]:
    """Threshold dimension and participation ratio of a stack of prototype
    rows; (1, 1.0) for fewer than 2 rows or a degenerate stack."""
    try:
        if stacked.shape[0] >= 2:
            eff = effective_dimensionality(stacked, normalize_rows_first=normalize)
            return eff.threshold_dim, eff.participation_ratio
    except DegenerateInputError:
        logger.debug("round %d: degenerate prototype stack", round_index)
    return 1, 1.0


def _write_prototype_snapshot(protos: PrototypeSet, replica: int, snapshot_dir,
                              round_index: int) -> None:
    """Write one replica's slice of a stacked set as prototypes/round_<k>.csv."""
    os.makedirs(snapshot_dir, exist_ok=True)
    path = os.path.join(snapshot_dir, f"round_{round_index}.csv")
    vectors = protos.vectors[replica]
    write_csv(path, ["class"] + [f"v{k}" for k in range(protos.dim)] + ["weight"],
              ([c] + [repr(float(x)) for x in vectors[c]] + [int(protos.counts[c])]
               for c in protos.classes()))
