"""Heterogeneous MLP zoo: tanh feature extractors + linear classifier heads.

Forward, backward, and SGD steps are written out by hand on numpy arrays so
the arithmetic is fully inspectable and byte-deterministic.  Each client
model maps inputs -> shared feature space (dimension feature_dim) -> logits;
architectures differ only in their hidden widths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericFailureError
from .tensor import check_labels

@dataclass(frozen=True)
class ArchitectureSpec:
    """Hidden widths of one extractor; () means a single linear map to features."""

    hidden_widths: tuple[int, ...]
    feature_dim: int

    def __post_init__(self):
        if any((not isinstance(w, (int, np.integer))) or w < 1 for w in self.hidden_widths):
            raise ContractError(f"hidden widths must be positive ints, got {self.hidden_widths}")
        if self.feature_dim < 1:
            raise ContractError(f"feature_dim must be >= 1, got {self.feature_dim}")


@dataclass
class Layer:
    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    activation: str  # "tanh" or "linear"


@dataclass
class ClientModel:
    """One client's parameters.  A model from build_model is one replica
    (2-D weights); the kernels below take stacks, models whose every array
    has a leading axis of slices: the R replicas of one client (see
    `replicate`), or those of K clients, client-major."""

    extractor: list[Layer]
    classifier_weights: np.ndarray  # (feature_dim, num_classes)
    classifier_bias: np.ndarray  # (num_classes,)
    feature_dim: int

    @property
    def input_dim(self) -> int:
        return self.extractor[0].weights.shape[-2]

    @property
    def num_classes(self) -> int:
        return self.classifier_weights.shape[-1]

    def arrays(self) -> list[np.ndarray]:
        """Every parameter array, in the order map_arrays visits them."""
        return ([a for l in self.extractor for a in (l.weights, l.bias)]
                + [self.classifier_weights, self.classifier_bias])

    def with_arrays(self, arrays) -> "ClientModel":
        """A model of the same architecture holding `arrays`, listed in the
        order of arrays()."""
        it = iter(arrays)
        return self.map_arrays(lambda _: next(it))

    def map_arrays(self, fn) -> "ClientModel":
        """A model of the same architecture holding fn(array) for each array."""
        return ClientModel(
            [Layer(fn(l.weights), fn(l.bias), l.activation) for l in self.extractor],
            fn(self.classifier_weights),
            fn(self.classifier_bias),
            self.feature_dim,
        )


def replicate(model: ClientModel, copies: int) -> ClientModel:
    """A stack of `copies` identical replicas of a one-replica model."""
    return model.map_arrays(lambda a: np.repeat(a[None], copies, axis=0))


def _stack_of_one(model: ClientModel) -> ClientModel:
    """A one-replica model as a stack of one that shares its memory, so a
    kernel's in-place step updates the model itself."""
    return model.map_arrays(lambda a: a[None])


def build_model(
    spec: ArchitectureSpec,
    input_dim: int,
    num_classes: int,
    seed,
) -> ClientModel:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization.

    The draw order (per layer: weights then bias, classifier last) is part of
    the determinism contract.
    """
    if input_dim < 1 or num_classes < 2:
        raise ContractError(
            f"need input_dim >= 1 and num_classes >= 2, got {input_dim}, {num_classes}"
        )
    rng = np.random.default_rng(seed)
    widths = list(spec.hidden_widths) + [spec.feature_dim]
    fan_in = input_dim
    layers = []
    try:
        for i, width in enumerate(widths):
            s = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-s, s, size=(fan_in, width))
            b = rng.uniform(-s, s, size=(width,))
            act = "tanh" if i < len(widths) - 1 else "linear"
            layers.append(Layer(w, b, act))
            fan_in = width
        s = 1.0 / np.sqrt(spec.feature_dim)
        cw = rng.uniform(-s, s, size=(spec.feature_dim, num_classes))
        cb = rng.uniform(-s, s, size=(num_classes,))
    except (ValueError, MemoryError) as exc:
        raise ContractError(
            f"cannot allocate a model of widths {widths} on {input_dim} inputs and "
            f"{num_classes} classes: {exc}"
        ) from exc
    return ClientModel(layers, cw, cb, spec.feature_dim)


def forward(model: ClientModel, batch) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Return (embeddings, logits, layer_inputs) for an (n, input_dim) batch:
    layer_inputs[i] feeds extractor layer i, and layer_inputs[-1] is the
    embedding matrix."""
    batch = check_batch(model, batch)
    emb, logits, layer_inputs, failed = _forward(_stack_of_one(model), batch[None])
    _raise_failure(failed)
    return emb[0], logits[0], [x[0] for x in layer_inputs]


def check_batch(model: ClientModel, batch) -> np.ndarray:
    """`batch` as an (n, input_dim) float64 array."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.input_dim:
        raise ContractError(
            f"batch shape {batch.shape} incompatible with input_dim {model.input_dim}"
        )
    return batch


# forward, loss_supervised and backward_and_step are each their contract
# checks followed by one of the kernels below on a stack of one.  The kernels
# trust their inputs and take stacks of S slices (see ClientModel): a batch is
# (S, n, input_dim), or (1, n, input_dim) shared by every slice, and labels
# are (S, n), or (n,) or (1, n) shared.  Each slice's arithmetic is its run of
# one, whatever the other slices hold.  The non-finite checks are part of the
# kernels, so they fire on every path, per slice: a kernel returns its
# failures, {slice: its first check's message}; a failed slice's values are unspecified.


def _check_finite(arrays, message: str, failed: dict | None = None) -> dict[int, str]:
    """`failed` (failures so far, or None) and each other slice with a
    non-finite entry in any of the (S, ...) stacks, failed with `message`."""
    for a in arrays:
        if not np.isfinite(a).all():
            break
    else:
        return failed or {}
    ok = np.logical_and.reduce([np.isfinite(a).reshape(a.shape[0], -1).all(axis=1)
                                for a in arrays])
    return {**dict.fromkeys(np.flatnonzero(~ok).tolist(), message), **(failed or {})}


def _raise_failure(failed: dict[int, str]) -> None:
    """Raise the failure of a public kernel's stack of one, if it failed."""
    if failed:
        raise NumericFailureError(failed[min(failed)])


def _forward(model: ClientModel, batch: np.ndarray, keep_layers: bool = True):
    layer_inputs = [batch]
    # overflow is detected explicitly below, so the IEEE warnings that
    # precede the non-finite check are suppressed rather than surfaced
    with np.errstate(over="ignore", invalid="ignore"):
        # in place, so that a stack holds one array per layer; without
        # keep_layers (no backward pass follows) each layer's output is
        # dropped once the next one is computed
        h = batch
        for layer in model.extractor:
            h = h @ layer.weights
            h += layer.bias[:, None]
            if layer.activation == "tanh":
                np.tanh(h, out=h)
            if keep_layers:
                layer_inputs.append(h)
        embeddings = h
        logits = embeddings @ model.classifier_weights
        logits += model.classifier_bias[:, None]
    return embeddings, logits, layer_inputs, _check_finite(
        (embeddings, logits), "forward pass produced non-finite values")


def loss_supervised(logits, labels) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy; returns (value, grad_wrt_logits).

    grad = (softmax - onehot) / n, the standard stable form with shifted
    logits.  Uniform logits over C classes give exactly ln C.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ContractError(f"logits must be 2-D, got shape {logits.shape}")
    labels = check_labels(labels, *logits.shape)
    values, grad = _softmax_cross_entropy(logits[None], labels)
    return float(values[0]), grad[0]


def _softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """(S,) mean cross-entropies of an (S, n, C) stack of logits, and the
    gradient w.r.t. the logits."""
    # slice, row and label of every picked entry: one form for shared (n,)
    # and per-slice (S, n) labels, laid out (S, n) so that each slice's mean
    # sums its row as a run of one does
    picks = (np.arange(logits.shape[0])[:, None], np.arange(logits.shape[1]), labels)
    # shifting makes the softmax stable for any reasonable logits; extreme
    # (runaway-training) magnitudes may still overflow the mean, which the
    # caller's non-finite check fails, so the intermediate IEEE warnings are
    # suppressed
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = logits - logits.max(axis=2, keepdims=True)
        expz = np.exp(shifted)
        norm = expz.sum(axis=2)
        grad = expz / norm[:, :, None]  # the softmax, turned into the gradient below
        picked = shifted[picks] - np.log(norm)
        values = -(picked.sum(axis=1) / logits.shape[1])  # the mean, without its dispatch
    grad[picks] -= 1.0
    return values, grad / logits.shape[1]


def backward_and_step(
    model: ClientModel,
    layer_inputs: list[np.ndarray],
    grad_logits,
    grad_embeddings,
    learning_rate: float,
) -> ClientModel:
    """One in-place plain-SGD step from upstream gradients.

    grad_logits drives the classifier head; grad_embeddings must already
    contain the FULL gradient at the embedding layer (classifier path plus
    any alignment terms) and drives the extractor.  All parameter gradients
    are computed and checked finite before any parameter is touched, so a
    numeric failure never leaves a half-updated model.
    """
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    grad_embeddings = np.asarray(grad_embeddings, dtype=np.float64)
    embeddings = layer_inputs[-1]
    n = embeddings.shape[0]
    if grad_logits.shape != (n, model.num_classes):
        raise ContractError(
            f"grad_logits shape {grad_logits.shape} != ({n}, {model.num_classes})"
        )
    if grad_embeddings.shape != embeddings.shape:
        raise ContractError(
            f"grad_embeddings shape {grad_embeddings.shape} != {embeddings.shape}"
        )
    if not (learning_rate >= 0.0 and np.isfinite(learning_rate)):
        raise ContractError(f"learning_rate must be finite and >= 0, got {learning_rate}")
    _raise_failure(_backward_and_step(_stack_of_one(model), [x[None] for x in layer_inputs],
                                      grad_logits[None], grad_embeddings[None], learning_rate))
    return model


def _backward_and_step(
    model: ClientModel,
    layer_inputs: list[np.ndarray],
    grad_logits: np.ndarray,
    grad_embeddings: np.ndarray,
    learning_rate: float,
    failed: dict | None = None,
) -> dict[int, str]:
    """backward_and_step on each slice of a stack.  Returns `failed` (the
    slices that failed earlier in the step, or None) and the slices whose
    parameter gradient is non-finite; a failed slice keeps its parameters."""
    embeddings = layer_inputs[-1]
    grads = []
    # an overflow fails its slice in the non-finite check below, and an
    # update that overflows fails it in the next forward pass, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        gcw = embeddings.swapaxes(-1, -2) @ grad_logits
        gcb = grad_logits.sum(axis=1)
        g = grad_embeddings
        for i in range(len(model.extractor) - 1, -1, -1):
            layer = model.extractor[i]
            out = layer_inputs[i + 1]
            if layer.activation == "tanh":
                g = g * (1.0 - out * out)
            gw = layer_inputs[i].swapaxes(-1, -2) @ g
            gb = g.sum(axis=1)
            grads.append((i, gw, gb))
            if i > 0:
                g = g @ layer.weights.swapaxes(-1, -2)
        arrays = [gcw, gcb] + [x for _, gw, gb in grads for x in (gw, gb)]
        failed = _check_finite(arrays, "non-finite parameter gradient; step aborted", failed)
        if failed:  # a failed slice is not stepped
            for a in arrays:
                a[list(failed)] = 0.0
        model.classifier_weights -= learning_rate * gcw
        model.classifier_bias -= learning_rate * gcb
        for i, gw, gb in grads:
            model.extractor[i].weights -= learning_rate * gw
            model.extractor[i].bias -= learning_rate * gb
    return failed
