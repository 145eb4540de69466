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

import functools
import logging
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import _dimensionality, write_csv
from .errors import ContractError, DegenerateInputError, NumericFailureError
from .losses import _PAIRED_RAW_LOSSES, _PAIRWISE_KERNELS, _SIDES, AlignmentKind, _contrastive
from .models import (
    ArchitectureSpec,
    ClientModel,
    _backward_and_step,
    _check_finite,
    _forward,
    _raise_failure,
    _softmax_cross_entropy,
    build_model,
    replicate,
)
from .tensor import (
    _check_norms,
    _kept,
    _norms_ok,
    _quiet,
    _unit_rows,
    as_matrix,
    check_labels,
)

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
    # the present rows in class order, each class's row in them (-1 when
    # absent), their unit rows and norms, and whether every norm gives a unit
    # row (tensor._norms_ok); built once so a step only indexes
    rows: np.ndarray = field(init=False, repr=False)
    slot: np.ndarray = field(init=False, repr=False)
    unit: np.ndarray = field(init=False, repr=False)
    norms: np.ndarray = field(init=False, repr=False)
    norms_ok: bool = field(init=False, repr=False)

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
        rows = vectors[..., present, :]
        unit, norms = _unit_rows(rows)
        for name, value in (("vectors", vectors), ("counts", counts), ("present", present),
                            ("rows", rows), ("slot", slot), ("unit", unit), ("norms", norms)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "norms_ok", _norms_ok(norms))

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


def _class_means(embeddings, labels, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, C, d) per-class means of each slice of an (S, n, d) stack (zero
    rows for absent classes) and the counts of each label row: (C,) for
    labels (n,) shared by every slice, (L, C) for labels (L, n), L = 1 or S.
    Labels must lie in [0, num_classes).  Each sum starts at 0.0 and adds
    its rows in batch order (one weighted bincount over every slice), so for
    d >= 2 each mean is bit-identical to embeddings[s, labels[s] == c]
    .mean(axis=0) (numpy sums a single column pairwise instead)."""
    slices, _, dim = embeddings.shape
    # the flat index of (slice, class of row i) for every row, then of
    # (slice, class of row i, column) for every entry
    rows = np.arange(slices)[:, None] * num_classes + labels
    label_rows = labels.size // labels.shape[-1]
    counts = np.bincount(rows[:label_rows].ravel(), minlength=label_rows * num_classes)
    counts = counts.reshape(labels.shape[:-1] + (num_classes,))
    slots = rows[:, :, None] * dim + np.arange(dim)
    sums = np.bincount(slots.ravel(), weights=embeddings.ravel(),
                       minlength=slices * num_classes * dim)
    return sums.reshape(slices, num_classes, dim) / np.maximum(counts, 1)[..., None], counts


@_quiet
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
    protos, failed = _aggregate(np.stack([u.vectors for u in uploads], axis=-3),
                                np.stack([u.counts for u in uploads]), previous)
    _raise_failure(failed)
    return protos


def _aggregate(stacked, counts, previous: PrototypeSet | None):
    """aggregate_prototypes over ([R,] U, C, d) upload vectors, zero where
    absent, and their (U, C) counts, and its failures (see models.py): a
    replica whose sum overflows fails, and its vectors read 0."""
    total = counts.sum(axis=0)
    # absent rows are zero with weight zero, so each adds +0.0 to its class's
    # sum; the uploads are summed in order along the U axis
    weighted = (counts[:, :, None] * stacked).sum(axis=-3)
    vectors = weighted / np.maximum(total, 1)[:, None]
    failed = _check_finite((vectors,), "aggregation produced non-finite prototypes")
    vectors[list(failed)] = 0.0  # a PrototypeSet holds finite vectors only
    if previous is not None:
        stale = previous.present & (total == 0)
        vectors[..., stale, :] = previous.vectors[..., stale, :]
        total = np.where(stale, previous.counts, total)
    return PrototypeSet(vectors, total), failed


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


@functools.lru_cache(maxsize=16)
def _anchors(num_classes: int, dim: int, seed: int) -> PrototypeSet:
    """A run's fixed_hypersphere anchors, made once per process: the set is immutable."""
    return fixed_hypersphere_prototypes(num_classes, dim, np.random.SeedSequence([seed, 4]))


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


# The training step below runs every slice of a stack at once: the R
# replicas of a lockstep run, for each of K clients.  One alignment pass
# serves the clients of every stack of the step: there each term's kernel
# sees only the replicas that weight it (> 0), one slice per client and loss
# kind, and reports the slices it must skip (see tensor.py), whose value then
# reads 0 and whose gradient is left out, exactly as in a run of one.


def _positions(pos: list[int]) -> slice | np.ndarray:
    """Stack positions, as a slice (indexing gives a view) when they ascend by one."""
    return (slice(pos[0], pos[-1] + 1) if pos == list(range(pos[0], pos[-1] + 1))
            else np.array(pos))


def _objective(cfgs: list[RoundConfig]) -> tuple[np.ndarray, list]:
    """The (2, R) lam and gamma of each replica of a stack, and per term that
    some replica weights (> 0), term 0 (proto) before term 1 (inst): (term,
    the replicas that weight it, kind by kind, their _positions, [(kind, the
    slice of them that is its replicas, its pairwise kernel or None for
    contrastive)], (the number of them whose kinds take the rows and their
    targets as they are, and the number before the first contrastive one)).
    The kinds that take both sides as they are come first, then the pairwise
    kinds that take unit rows, then contrastive, each in first-seen order."""
    weights = np.array([[c.lam for c in cfgs], [c.gamma for c in cfgs]], dtype=np.float64)
    plan = []
    for term, row in enumerate(weights):
        kinds: dict[AlignmentKind, list[int]] = {}
        for pos in np.flatnonzero(row > 0).tolist():
            kinds.setdefault(cfgs[pos].alignment, []).append(pos)
        if kinds:
            order = sorted(kinds, key=lambda kind: (kind.name not in _PAIRED_RAW_LOSSES)
                           + (kind.name not in _PAIRWISE_KERNELS))
            weighted = [pos for kind in order for pos in kinds[kind]]
            bounds = np.cumsum([0] + [len(kinds[kind]) for kind in order]).tolist()
            raw = sum(len(kinds[kind]) for kind in order if kind.name in _PAIRED_RAW_LOSSES)
            paired = sum(len(kinds[kind]) for kind in order if kind.name in _PAIRWISE_KERNELS)
            plan.append((term, np.array(weighted), _positions(weighted),
                         [(kind, slice(lo, hi), _PAIRWISE_KERNELS.get(kind.name))
                          for kind, lo, hi in zip(order, bounds, bounds[1:])], (raw, paired)))
    return weights, plan


def _per_slice(per_client: np.ndarray, replicas: int) -> np.ndarray:
    """A (K, ...) array of per-client rows as one row per slice of a K·R
    stack: each row repeated R times, or left to broadcast when K = 1."""
    if per_client.shape[0] == 1 or replicas == 1:
        return per_client
    return np.repeat(per_client, replicas, axis=0)


def _concatenate(models: list[ClientModel]) -> ClientModel:
    """One stack of the given stacks of one architecture, in order."""
    return models[0].with_arrays([np.concatenate(arrays)
                                  for arrays in zip(*(m.arrays() for m in models))])


def _align(clients, protos: PrototypeSet, objective) -> None:
    """The alignment terms of every client of a step.  A client is (emb
    (R, n, d), labels (n,), terms (2, R), grad_emb (R, n, d), skipped (R,))
    over its R replica slices: its proto and inst values are recorded in
    `terms`, their weighted gradients added into `grad_emb` and the skips
    counted in `skipped`.

    One pass per term.  Each client's rows are those of the U replicas that
    weight the term; the clients whose rows agree in count (present classes
    for proto, batch or known rows for inst) stack them as one K·U stack,
    never padded (see _align_stack).  Per stack, the rows' unit rows and
    their global targets are made once, and each kind's kernel runs once on
    its slices of them."""
    weights, plan = objective
    if logger.isEnabledFor(logging.DEBUG):
        for _, labels, *_ in clients:
            missing = sorted(set(labels.tolist()) - set(protos.classes()))
            if missing:
                logger.debug("classes %s missing from global set; excluded from alignment",
                             missing)
    # each client's rows whose class the global set has, or None for all of them
    known = [None] * len(clients)
    if not protos.present.all():
        known = [None if mask.all() else mask
                 for mask in (protos.present[labels] for _, labels, *_ in clients)]
    for entry in plan:
        term, _, select = entry[:3]
        stacks: dict[int, list] = {}  # row count -> the clients of that count
        for client, mask in zip(clients, known):
            emb, labels = client[:2]
            if term == 0:  # the batch prototypes of the classes the global set has
                means, counts = _class_means(emb[select], labels, protos.num_classes)
                classes = np.flatnonzero((counts >= 1) & protos.present)
                rows, counts = means.take(classes, axis=1), counts[classes]
            else:  # the embeddings whose class the global set has
                rows, classes, counts = ((emb[select], labels, None) if mask is None else
                                         (emb[select].compress(mask, axis=1), labels[mask], None))
            if classes.size:
                stacks.setdefault(classes.size, []).append((client, rows, classes, counts, mask))
        for members in stacks.values():
            _align_stack(entry, members, protos, weights)


def _align_stack(entry, members, protos: PrototypeSet, weights) -> None:
    """One term of _align, its `entry` of the plan, over the K clients
    `members` whose rows agree in count m: each is (client, rows (U, m, d),
    their classes (m,), for proto the classes' counts (m,) (else None), and
    the client's known-row mask, None when the global set has every row's
    class)."""
    term, positions, select, kinds, (raw, paired) = entry
    replicas, clients = len(positions), len(members)
    m, dim = members[0][1].shape[1:]
    # replica-major: slice u·K + k is member k's u-th replica, so that each
    # kind's slices, its replicas of every member, are one run of the stack,
    # and the runs of the kinds that take unit rows are its tail; one member
    # serves its arrays as they are
    if clients == 1:
        rows, classes, owner = members[0][1], members[0][2][None], positions
    else:
        rows = np.stack([r for _, r, *_ in members], axis=1).reshape(-1, m, dim)
        classes = np.stack([c for _, _, c, *_ in members])
        owner = np.repeat(positions, clients)
    why = _kept(replicas * clients)  # the stack's one reason array; each kind writes its run
    # each slice's targets: the global rows of its replica and classes, as
    # they are for the first `raw` replicas, as unit rows and norms up to
    # `paired`; one norm test per side finds whether a row must be named
    if raw:
        target = positions[:raw, None, None] * protos.num_classes + classes
        matrix = protos.vectors.reshape(-1, dim).take(target.reshape(-1, m), axis=0)
    if raw < replicas:
        first = _unit_rows(rows[raw * clients:])
        first_ok = _norms_ok(first[1])
        slots = protos.slot[classes]
    if raw < paired:
        target = (positions[raw:paired, None, None] * protos.unit.shape[1] + slots).reshape(-1, m)
        second = protos.unit.reshape(-1, dim).take(target, axis=0), protos.norms.take(target)
    values, grads = [], []
    for kind, local, kernel in kinds:  # one call per kind, on its run of the stack
        part = slice(local.start * clients, local.stop * clients)
        here = why[part]
        if m < MIN_STRUCTURAL_ROWS and kind.is_structural:
            here[:] = f"{m} rows < {MIN_STRUCTURAL_ROWS}"
            got = np.zeros(here.shape), np.zeros((here.shape[0], m, dim))
        elif local.start < raw:
            got = kernel(rows[part], matrix[part], here)
        else:
            unit = slice(part.start - raw * clients, part.stop - raw * clients)
            if kernel is None:
                sides = (first[0][unit], first[1][unit], protos.unit.take(owner[part], axis=0),
                         protos.norms.take(owner[part], axis=0))
                names = ("embedding", "prototypes")
            else:
                sides, names = (first[0][unit], first[1][unit], second[0][unit],
                                second[1][unit]), _SIDES
            if not first_ok:
                _check_norms(sides[1], here, names[0])
            if not protos.norms_ok:
                _check_norms(sides[3], here, names[1])
            if kernel is None:
                labels = slots if clients == 1 else slots[np.arange(part.start, part.stop) % clients]
                align_val, ga, unif_val, gu = _contrastive(*sides, labels, kind.temperature, here)
                got = align_val + unif_val, ga + gu
            else:
                got = kernel(*sides, here)
        values.append(got[0])
        grads.append(got[1])
    values = (values[0] if len(values) == 1 else np.concatenate(values)).reshape(replicas, clients)
    grad = (grads[0] if len(grads) == 1 else np.concatenate(grads)).reshape(
        replicas, clients, m, dim)
    weight = weights[term, positions][:, None, None, None]
    if term == 0:
        # batch prototype of class c is the mean of its members, so each
        # member receives grad_row(c) / count(c)
        counts = np.stack([c for *_, c, _ in members]) if clients > 1 else members[0][3][None]
        grad = weight * (grad / counts[:, :, None])
    else:
        grad = weight * grad
    done = (why == "").reshape(replicas, clients)
    kept = done.all(axis=0).tolist()
    for k, ((emb, labels, terms, grad_emb, skipped), _, classes, _, known) in enumerate(members):
        mine = grad[:, k]
        if term == 0:  # each row its class's gradient; a row of a class the global set lacks 0
            mine = mine.take(np.searchsorted(classes, labels), axis=1, mode="clip")
            if known is not None:
                mine[:, ~known] = 0.0
        elif known is not None:  # an unknown row receives 0
            full = np.zeros((replicas,) + emb.shape[1:])
            full[:, known] = mine
            mine = full
        if kept[k]:
            terms[term, select] = values[:, k]
            grad_emb[select] += mine
            continue
        ok = done[:, k]
        for kind, local, _ in kinds:
            for reason in why.reshape(replicas, clients)[local, k][~ok[local]]:
                logger.debug("%s term of %s skipped: %s", LOSS_TERMS[1 + term], kind.name, reason)
        skipped[positions[~ok]] += 1
        terms[term, positions[ok]] = values[ok, k]
        grad_emb[positions[ok]] += mine[ok]


def _train_step(steps, protos, objective, learning_rate) -> list:
    """One SGD step of L_sup + lam*L_proto + gamma*L_inst for every slice of
    each stack of `steps`: (model, batch (K, n, input_dim), labels (K, n)),
    a stacked model of K clients, client-major, each with the R replicas of
    `objective` (_objective's) and its own batch.  Every stack runs its
    forward pass and cross-entropy, one alignment pass (_align) serves every
    client of every stack, and then each stack checks its totals and steps.

    Returns per stack each slice's [sup, proto, inst, total] as a (K·R, 4)
    array, its structural skips and its failures (see models.py): each
    slice whose forward pass, total loss or parameter gradient is
    non-finite, with the first of these it failed.  A failed slice keeps
    its parameters, and its terms are unspecified.
    """
    weights, plan = objective
    replicas = weights.shape[1]
    aligned = plan and protos is not None and not protos.is_empty
    passes, clients = [], []
    for model, batch, labels in steps:
        emb, logits, layers, failed = _forward(model, _per_slice(batch, replicas))
        sup, grad_logits = _softmax_cross_entropy(logits, _per_slice(labels, replicas))
        # a failed slice computes on, on values that may be non-finite
        grad_emb = grad_logits @ model.classifier_weights.swapaxes(1, 2)
        terms = np.zeros((4, emb.shape[0]))  # sup, proto, inst and total, per slice
        terms[0] = sup
        skipped = np.zeros(emb.shape[0], dtype=np.int64)
        if aligned:
            spans = [slice(k * replicas, (k + 1) * replicas) for k in range(labels.shape[0])]
            clients += [(emb[span], y, terms[1:3, span], grad_emb[span], skipped[span])
                        for span, y in zip(spans, labels)]
        passes.append((model, layers, grad_logits, grad_emb, terms, skipped, failed))
    if aligned:
        # runaway-but-finite embeddings may overflow inside the alignment
        # terms; the non-finite check on the totals below fails that slice
        _align(clients, protos, objective)
    lams, gammas = weights.tolist()
    done = []
    for model, layers, grad_logits, grad_emb, terms, skipped, failed in passes:
        if aligned:  # Python floats, one slice at a time, as in a run of one
            count = terms.shape[1] // replicas
            terms[3] = [s + lam * p + gamma * i for s, p, i, lam, gamma
                        in zip(*terms[:3].tolist(), lams * count, gammas * count)]
        else:  # s + lam * 0.0 + gamma * 0.0
            np.add(terms[0], 0.0, out=terms[3])
        if not math.isfinite(terms[3].sum()):
            failed = {**{s: f"non-finite training loss {t}" for s, t
                         in enumerate(terms[3].tolist()) if not math.isfinite(t)}, **failed}
        failed = _backward_and_step(model, layers, grad_logits, grad_emb, learning_rate, failed)
        done.append((terms.T, skipped, failed))
    return done


def _accuracy(model: ClientModel, features, labels) -> tuple[np.ndarray, dict[int, str]]:
    """(S,) top-1 accuracies of a stacked model's classifier heads, each
    slice on its own rows of the features and labels (see models.py), and
    the forward pass's failures."""
    _, logits, _, failed = _forward(model, features, keep_layers=False)
    # an exact count over n: the mean of the hits, bit for bit
    return (np.argmax(logits, axis=2) == labels).sum(axis=1) / labels.shape[-1], failed


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


def _stack_groups(clients, keys) -> list[list[int]]:
    """`clients` grouped by keys[i], each group in the given order and the
    groups in the order of their first member: the clients that train,
    upload or evaluate as one stack."""
    groups: dict = {}
    for i in clients:
        groups.setdefault(keys[i], []).append(i)
    return list(groups.values())


def _members(keys) -> dict:
    """Per key, the clients i with keys[i] == key, ascending."""
    members: dict = {}
    for i, key in enumerate(keys):
        members.setdefault(key, []).append(i)
    return members


def _stack_split(shards, keys, split: str) -> tuple[dict, list[int]]:
    """`split` (train or test) of every shard, stacked once per key: per key
    the (N, n, d) features and (N, n) labels of its N clients in client
    order, and each client's index in its key's stack."""
    stacks, index = {}, [0] * len(shards)
    for key, clients in _members(keys).items():
        stacks[key] = tuple(np.stack([getattr(shards[i], f"{split}_{name}") for i in clients])
                            for name in ("features", "labels"))
        for k, i in enumerate(clients):
            index[i] = k
    return stacks, index


def _words(value: int) -> list[int]:
    """The 32-bit words of an int >= 0, least significant first (one word
    for 0): the words SeedSequence reads an int as."""
    words = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _stream(words: list[int]) -> np.random.Generator:
    """default_rng(SeedSequence(ints)) for the concatenated words of the ints:
    the same bit generator state, without SeedSequence's conversion of a
    list of ints, which costs most of the generator."""
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


class _Replicas:
    """The live replicas of a lockstep run and everything that carries the
    replica axis; a replica that fails leaves every stack at once.

    The models live in one stack per architecture (under homo_shared, the
    one model's): R replicas per client, client-major in client order.  A
    round's phases stack clients too: the clients that share an
    architecture and a row count (of the rows the phase reads) run as one
    K·R stack, client-major, never padded: a view of the model stack when
    they are consecutive in it, trained in place, else a copy.  homo_shared's
    one stack serves all of its clients' uploads and evaluations at once
    (see models._forward).
    A phase runs once over its stacks under one error state, each slice
    recording its failures (see models.py), and then each replica that
    failed leaves with its solo run's first failure (_first_failures)."""

    def __init__(self, shards, archs: list[ArchitectureSpec], cfgs: list[RoundConfig],
                 seed: int, num_classes: int, scenario: str, input_dim: int):
        self.cfgs = cfgs
        self.live = list(range(len(cfgs)))  # the config index at each stack position
        self.errors: dict[int, NumericFailureError] = {}
        self.objective = _objective(cfgs)
        self.shards, self.seed = shards, seed
        # homo_shared trains client 0's model, which every client visits in turn
        self.shared = scenario == "homo_shared"
        arch_of = [i % len(archs) if scenario == "hetero" else 0 for i in range(len(shards))]
        # the model stacks, each client's R replicas from its own init, and
        # each client's stack and position in it
        owners = _members(arch_of[:1] if self.shared else arch_of).values()
        self.models = [_concatenate([replicate(build_model(archs[arch_of[i]], input_dim,
                                                           num_classes,
                                                           np.random.SeedSequence([seed, 0, i])),
                                               len(cfgs)) for i in clients])
                       for clients in owners]
        self.slot = [(0, 0)] * len(shards)  # homo_shared: every client's is the one model
        for m, clients in enumerate(owners):
            for pos, i in enumerate(clients):
                self.slot[i] = (m, pos)
        feature_dim = archs[0].feature_dim
        self.global_protos = None  # no prototypes yet: round 0 runs supervised-only
        if cfgs[0].prototype_mode == "fixed_hypersphere":
            anchors = _anchors(num_classes, feature_dim, seed)
            self.global_protos = PrototypeSet(np.repeat(anchors.vectors[None], len(cfgs), axis=0),
                                              anchors.counts)
        # the stack keys: each client's architecture and its train or test
        # row count, and each split's rows stacked once per key
        self.keys = {"train": [(a, s.num_train) for a, s in zip(arch_of, shards)],
                     "test": [(a, s.test_labels.shape[0]) for a, s in zip(arch_of, shards)]}
        self.inputs = {split: _stack_split(shards, keys, split)
                       for split, keys in self.keys.items()}
        # each client's latest upload, as _class_means returns it; a client
        # that has not uploaded yet has no present class
        self.latest = np.zeros((len(cfgs), len(shards), num_classes, feature_dim))
        self.latest_counts = np.zeros((len(shards), num_classes), dtype=np.int64)
        # the current round's mean loss terms per client and structural skips
        self.terms = np.zeros((len(cfgs), len(shards), 4))
        self.skips = np.zeros(len(cfgs), dtype=np.int64)
        # each client's test accuracy, as of the round its model last changed
        self.accuracies = np.zeros((len(cfgs), len(shards)))

    def _drop(self, failures: dict[int, str], prefix: str) -> None:
        """Fail the replica at each position of `failures` and take it out of every stack."""
        if not failures:
            return
        for pos, message in failures.items():
            self.errors[self.live[pos]] = NumericFailureError(prefix + message)
        replicas = len(self.live)
        keep = [pos for pos in range(replicas) if pos not in failures]
        self.models = [m.map_arrays(lambda a: a.reshape(-1, replicas, *a.shape[1:])[:, keep]
                                    .reshape(-1, *a.shape[1:])) for m in self.models]
        self.live = [self.live[pos] for pos in keep]
        if self.global_protos is not None:
            self.global_protos = PrototypeSet(self.global_protos.vectors[keep],
                                              self.global_protos.counts)
        self.objective = _objective([self.cfgs[k] for k in self.live])
        self.latest, self.terms, self.skips, self.accuracies = (
            self.latest[keep], self.terms[keep], self.skips[keep], self.accuracies[keep])

    def _first_failures(self, groups, failures, named: bool) -> dict[int, str]:
        """Each replica's failure in its solo run, whose participants take turns
        in ascending order: the lowest client's in failures, where slice k·R + r
        of failures[j] is client groups[j][k]'s replica r; named if `named`."""
        replicas, first = len(self.live), {}
        for i, r, message in sorted((g[s // replicas], s % replicas, m)
                                    for g, f in zip(groups, failures) for s, m in f.items()):
            first.setdefault(r, (f"client {self.shards[i].client_id}: " if named else "")
                             + message)
        return first

    def _gather(self, clients: list[int]) -> tuple[ClientModel, np.ndarray | None]:
        """The replica stacks of clients of one model stack as one K·R
        stack, client-major, and the rows of the model stack that it copies:
        consecutive clients as a view of the model stack (rows None), else a copy."""
        m, first = self.slot[clients[0]]
        stack, replicas = self.models[m], len(self.live)
        pos = [self.slot[i][1] for i in clients]
        if pos == list(range(first, first + len(pos))):
            if len(pos) * replicas == stack.classifier_bias.shape[0]:
                return stack, None
            span = slice(first * replicas, (first + len(pos)) * replicas)
            return stack.map_arrays(lambda a: a[span]), None
        rows = (np.array(pos)[:, None] * replicas + np.arange(replicas)).ravel()
        return stack.map_arrays(lambda a: a.take(rows, axis=0)), rows

    def _stack_inputs(self, clients, split: str):
        """The clients' stack (see _gather), with their features and labels
        of `split` (train or test), their rows of their key's stack (see
        _stack_split), as its per-slice rows; under homo_shared, the one
        model's stack, with (K, 1, n, d) features that each of its slices reads."""
        stacks, index = self.inputs[split]
        features, labels = stacks[self.keys[split][clients[0]]]
        rows = [index[i] for i in clients]
        if rows != list(range(features.shape[0])):  # not every client of the key
            features, labels = features.take(rows, axis=0), labels.take(rows, axis=0)
        replicas = len(self.live)
        if self.shared:
            return self.models[0], features[:, None], _per_slice(labels, replicas)
        return (self._gather(clients)[0], _per_slice(features, replicas),
                _per_slice(labels, replicas))

    @_quiet
    def train(self, r: int, participants: list[int]) -> bool:
        """The round's local training, one phase (see _local_training) over
        the stack groups of participants, or under homo_shared over its
        participants, one group each.  False once no replica is left."""
        groups = ([[i] for i in participants] if self.shared
                  else _stack_groups(participants, self.keys["train"]))
        failures = self._local_training(r, groups)
        self._drop(self._first_failures(groups, failures, named=True), f"round {r}: ")
        return bool(self.live)

    def _local_training(self, r: int, groups: list[list[int]]) -> list[dict[int, str]]:
        """The local epochs of the given stack groups, one tick (epoch, batch
        index) at a time: the groups with a batch at a tick take one
        _train_step together, except under homo_shared, whose participants
        take their ticks in turn on its one model.  Each client draws its
        batches from its own stream, and keeps its slice of its group's
        trained stack as its model, its mean loss terms and skips in the
        round's tables.  Returns per group each slice's first failure in
        tick order, the loss-term sum's last."""
        cfg = self.cfgs[0]  # for the fields every config shares
        replicas, (stacks, index) = len(self.live), self.inputs["train"]
        models, copied = zip(*(self._gather(g) for g in groups))
        # each group's key's train rows end to end, and its clients' row count
        keyed = [stacks[self.keys["train"][g[0]]] for g in groups]
        features = [f.reshape(-1, f.shape[2]) for f, _ in keyed]
        labels = [y.reshape(-1) for _, y in keyed]
        sizes = [f.shape[1] for f, _ in keyed]
        # each client's batch order of every epoch, as rows of its key's train rows
        entropy = _words(self.seed) + _words(1) + _words(r)
        perms = [np.array([[rng.permutation(n) for _ in range(cfg.local_epochs)] for rng in
                           (_stream(entropy + _words(i)) for i in g)])
                 + (np.array([index[i] for i in g]) * n)[:, None, None]
                 for g, n in zip(groups, sizes)]
        # the round's summed loss terms and skips of every slice, group by group
        bounds = np.cumsum([0] + [len(g) * replicas for g in groups]).tolist()
        sums, skips = np.zeros((bounds[-1], 4)), np.zeros(bounds[-1], dtype=np.int64)
        group_sums = [sums[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        group_skips = [skips[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        failures = [{} for _ in groups]
        steps = [0] * len(groups)
        # the ticks and the groups with a batch at each: a one-row remainder is dropped
        ticks = [(epoch, start, [j for j, n in enumerate(sizes) if n - start >= 2])
                 for epoch in range(cfg.local_epochs)
                 for start in range(0, max(sizes), cfg.batch_size)]
        if self.shared:
            ticks = [(epoch, start, [j]) for j in range(len(groups))
                     for epoch, start, tick in ticks if j in tick]
        for epoch, start, tick in ticks:
            if start == 0:  # each group's rows in this epoch's batch order
                shuffled = {j: (features[j].take(perms[j][:, epoch], axis=0),
                                labels[j].take(perms[j][:, epoch])) for j in tick}
            batch = slice(start, start + cfg.batch_size)
            done = _train_step([(models[j], shuffled[j][0][:, batch], shuffled[j][1][:, batch])
                                for j in tick],
                               self.global_protos, self.objective, cfg.learning_rate)
            for j, (terms, skipped, failed) in zip(tick, done):
                group_sums[j] += terms
                group_skips[j] += skipped
                steps[j] += 1
                if failed:
                    failures[j] = {**failed, **failures[j]}
        for g, model, rows in zip(groups, models, copied):
            if rows is not None:  # a copy: its clients' rows of their model stack
                stack = self.models[self.slot[g[0]][0]]
                for a, trained in zip(stack.arrays(), model.arrays()):
                    a[rows] = trained
        clients = [i for g in groups for i in g]
        means = sums / np.repeat(np.maximum(steps, 1), np.diff(bounds))[:, None]
        self.terms[:, clients] = means.reshape(len(clients), replicas, 4).swapaxes(0, 1)
        self.skips = skips.reshape(len(clients), replicas).sum(axis=0)
        return [_check_finite((s,), "loss-term sum overflowed", f)
                for s, f in zip(group_sums, failures)]

    @_quiet
    def finish(self, r: int, participants: list[int]) -> bool:
        """The uploads, the new global prototypes and the accuracies of the
        models that changed, stacked by model and row count.  A replica that
        fails takes its first failure in that order, as in its solo run.
        False once no replica is left."""
        replicas = len(self.live)
        groups, failures = _stack_groups(participants, self.keys["train"]), []
        for g in groups:
            model, features, labels = self._stack_inputs(g, "train")
            emb, _, _, failed = _forward(model, features, keep_layers=False)
            means, counts = _class_means(emb, labels, self.latest.shape[2])
            failures.append(_check_finite((means,), "upload produced non-finite prototypes",
                                          failed))
            self.latest[:, g] = means.reshape(len(g), replicas, *means.shape[1:]).swapaxes(0, 1)
            self.latest_counts[g] = counts[::replicas]
        failed = self._first_failures(groups, failures, named=False)
        if self.cfgs[0].prototype_mode == "aggregate":
            self.global_protos, aggregated = _aggregate(
                self.latest[:, participants], self.latest_counts[participants], self.global_protos)
            failed = {**aggregated, **failed}
        # the other clients' models are last round's, and so are their
        # accuracies, except in homo_shared
        changed = range(len(self.shards)) if r == 0 or self.shared else participants
        groups, failures = _stack_groups(changed, self.keys["test"]), []
        for g in groups:
            accuracies, evaluated = _accuracy(*self._stack_inputs(g, "test"))
            self.accuracies[:, g] = accuracies.reshape(len(g), -1).T
            failures.append(evaluated)
        self._drop({**self._first_failures(groups, failures, named=False), **failed},
                   f"round {r}: ")
        return bool(self.live)


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
    """Run the protocol once per config, all runs in lockstep, and return
    one report per round of each run.

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
    Reports are byte-deterministic for a fixed configuration.

    The configs may differ only in `alignment`, `lam` and `gamma`; the
    data, partition, model inits, participation draws and batch order are
    shared.  The runs therefore advance as R replicas of one run: every
    parameter and prototype array carries a leading replica axis, and each
    SGD step serves all replicas at once.  Within a round, the clients that
    share an architecture and a row count also run as one stack of K·R
    slices, each client with its own batches (homo_shared's training never
    stacks).  Every slice's arithmetic is its own run's, so each result
    equals that of its config run alone, byte for byte.

    Returns, per config, its reports or the NumericFailureError that ended
    its run, naming the round (and the client, if it happened in training);
    a replica that fails leaves the stack and the others carry on.
    `snapshot_dirs`, if given, holds one prototype-snapshot directory (or
    None) per config.
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
    if len({a.feature_dim for a in archs}) != 1:
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
    state = _Replicas(shards, archs, cfgs, seed, num_classes, scenario, input_dim)
    reports: list[list[RoundReport]] = [[] for _ in cfgs]
    best = [0.0] * len(cfgs)
    drawn = max(1, round(cfgs[0].participation_fraction * n_clients))
    for r in range(rounds):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2, r]))
        participants = sorted(rng.choice(n_clients, size=drawn, replace=False).tolist())
        if not (state.train(r, participants) and state.finish(r, participants)):
            break
        for pos, k in enumerate(state.live):
            per_client = state.accuracies[pos].tolist()
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
    return [state.errors.get(k, reports[k]) for k in range(len(cfgs))]


def _spectrum(stacked: np.ndarray, normalize: bool, round_index: int) -> tuple[int, float]:
    """Threshold dimension and participation ratio of a stack of prototype
    rows; (1, 1.0) for fewer than 2 rows or a degenerate stack."""
    try:
        if stacked.shape[0] >= 2:  # finite rows: the public checks would only repeat
            eff = _dimensionality(stacked, normalize)
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
