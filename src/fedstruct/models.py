"""Heterogeneous MLP zoo: tanh feature extractors + linear classifier heads.

Forward, backward, and SGD steps are written out by hand on numpy arrays so
the arithmetic is fully inspectable and byte-deterministic.  Each client
model maps inputs -> shared feature space (dimension feature_dim) -> logits;
architectures differ only in their hidden widths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericFailureError


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


# The kernels below trust their inputs and take stacks of S slices (see
# ClientModel): a batch is (S, n, input_dim), or (1, n, input_dim) shared by
# every slice, and labels are (S, n), or (n,) or (1, n) shared.  Each slice's
# arithmetic is its run of one, whatever the other slices hold.  The
# non-finite checks are part of the kernels, so they fire on every path, per
# slice: a kernel returns its failures, {slice: its first check's message}; a
# failed slice's values are unspecified.  The kernels run under their caller's
# error state (see tensor._quiet).


def _check_finite(arrays, message: str, failed: dict | None = None) -> dict[int, str]:
    """`failed` (failures so far, or None) and each other slice with a
    non-finite entry in any of the (S, ...) stacks, failed with `message`."""
    # a sum is non-finite whenever an entry is (and, rarely, when it
    # overflows), so each slice is tested only when some sum is not finite
    for a in arrays:
        if not math.isfinite(np.add.reduce(a, axis=None)):
            break
    else:
        return failed or {}
    ok = np.logical_and.reduce([np.isfinite(a).reshape(a.shape[0], -1).all(axis=1)
                                for a in arrays])
    return {**dict.fromkeys(np.flatnonzero(~ok).tolist(), message), **(failed or {})}


def _raise_failure(failed: dict[int, str]) -> None:
    """Raise the failure of a stack of one, if it failed."""
    if failed:
        raise NumericFailureError(failed[min(failed)])


def _forward(model: ClientModel, batch: np.ndarray, keep_layers: bool = True):
    """The embeddings, logits, layer inputs and failures of a stack:
    layer_inputs[i] feeds extractor layer i, and layer_inputs[-1] is the
    embeddings.  A (K, 1, n, input_dim) batch holds K clients' rows, each
    read by every slice of the stack (homo_shared's one model): its outputs
    are then the (K·S, ...) stacks, client-major, as if the stack were
    copied K times."""
    layer_inputs = [batch]
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
    if batch.ndim == 4:
        embeddings, logits = (a.reshape(-1, *a.shape[2:]) for a in (embeddings, logits))
    # BLAS may skip a zero weight, so finite logits do not prove finite embeddings
    return embeddings, logits, layer_inputs, _check_finite(
        (embeddings, logits), "forward pass produced non-finite values")


@functools.lru_cache(maxsize=64)
def _row_starts(slices: int, rows: int, classes: int) -> np.ndarray:
    """The read-only flat index of entry (s, i, 0) of an (S, n, C) array, laid out (S, n)."""
    starts = np.arange(0, slices * rows * classes, classes).reshape(slices, rows)
    starts.setflags(write=False)
    return starts


def _softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """(S,) mean softmax cross-entropies of an (S, n, C) stack of logits,
    and the gradient w.r.t. the logits, (softmax - onehot) / n.  Uniform
    logits over C classes give exactly ln C."""
    # the flat index of every picked entry (slice, row, label): one form for
    # shared (n,) and per-slice (S, n) labels, laid out (S, n) so that each
    # slice's mean sums its row as a run of one does
    picks = _row_starts(*logits.shape) + labels
    # shifting makes the softmax stable for any reasonable logits; extreme
    # (runaway-training) magnitudes may still overflow the mean, which the
    # caller's non-finite check fails
    shifted = logits - np.maximum.reduce(logits, axis=2, keepdims=True)
    picked = shifted.take(picks)
    grad = np.exp(shifted, out=shifted)  # turned into the softmax, then the gradient
    norm = np.add.reduce(grad, axis=2)
    grad /= norm[:, :, None]
    # the mean, without its dispatch: -(sum / n) is sum / -n, bit for bit
    values = np.add.reduce(picked - np.log(norm), axis=1) / -logits.shape[1]
    grad.put(picks, grad.take(picks) - 1.0)
    grad /= logits.shape[1]
    return values, grad


def _backward_and_step(
    model: ClientModel,
    layer_inputs: list[np.ndarray],
    grad_logits: np.ndarray,
    grad_embeddings: np.ndarray,
    learning_rate: float,
    failed: dict | None = None,
) -> dict[int, str]:
    """One in-place plain-SGD step of each slice of a stack from upstream
    gradients: grad_logits drives the classifier head, and grad_embeddings,
    the FULL gradient at the embedding layer (classifier path plus any
    alignment terms), drives the extractor.  Every parameter gradient is
    checked finite before any parameter is touched.  Returns `failed` (the
    slices that failed earlier in the step, or None) and the slices whose
    parameter gradient is non-finite; a failed slice keeps its parameters."""
    embeddings = layer_inputs[-1]
    grads = []
    # an overflow fails its slice in the non-finite check below, and an
    # update that overflows fails it in the next forward pass
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
