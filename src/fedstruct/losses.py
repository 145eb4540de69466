"""Alignment losses over prototype/embedding matrices, with analytic gradients.

Five losses are provided.  Two compare coordinates directly (mse, cosine),
two compare second-order structure and are therefore invariant to rigid
motions of the representation space (gcsa over centered Gram matrices, rcsa
over pairwise-distance descriptors), and one is a prototype-anchored
contrastive loss that decomposes exactly into alignment + uniformity parts.

Gradients are always with respect to the FIRST argument (the trainable side);
the second argument is treated as a frozen target.  All gradients are derived
by hand and validated against central differences in the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError
from .tensor import (
    _check_norms,
    _kept,
    _raise_skip,
    _unit_rows,
    as_matrix,
    check_labels,
    normalize_rows,
    svd,
)

# A matrix whose centered rows have Frobenius norm at or below
# GRAM_DEGENERATE_RTOL * max(1, ||P||_F) has no usable Gram structure
# (identical rows leave only round-off after centering, and near-zero Gram
# norms make the gradient blow up as 1/||K||).
GRAM_DEGENERATE_RTOL = 1e-10
# Distance descriptors with l2 norm at or below this are collapsed.
RDM_DEGENERATE_TOL = 1e-12

STRUCTURAL_LOSSES = ("gcsa", "rcsa")
PAIRWISE_LOSSES = ("mse", "cosine") + STRUCTURAL_LOSSES
KNOWN_LOSSES = PAIRWISE_LOSSES + ("contrastive",)
# The kernels below take each side of _UNIT_ROW_LOSSES as its unit rows and
# norms, the pairwise ones paired row by row; the other pairwise kernels take
# both sides as they are.
_UNIT_ROW_LOSSES = frozenset(("cosine", "rcsa", "contrastive"))
_PAIRED_RAW_LOSSES = frozenset(PAIRWISE_LOSSES) - _UNIT_ROW_LOSSES


@dataclass(frozen=True)
class AlignmentKind:
    """A validated loss selector: one of mse/cosine/gcsa/rcsa/contrastive."""

    name: str
    temperature: float | None = None

    def __post_init__(self):
        if self.name not in KNOWN_LOSSES:
            raise ContractError(
                f"unknown alignment loss {self.name!r}; expected one of {KNOWN_LOSSES}"
            )
        if self.name == "contrastive":
            if self.temperature is None or not (self.temperature > 0.0):
                raise ContractError(
                    f"contrastive needs temperature > 0, got {self.temperature!r}"
                )
        elif self.temperature is not None:
            raise ContractError(f"temperature is only meaningful for contrastive")

    @property
    def is_structural(self) -> bool:
        return self.name in STRUCTURAL_LOSSES

    @classmethod
    def parse(cls, text: str, temperature: float = 0.5) -> "AlignmentKind":
        """The kind named `text`; the temperature is checked even for losses that
        ignore it, so that one setting is valid for every loss."""
        contrastive = cls("contrastive", float(temperature))
        return contrastive if text == contrastive.name else cls(text)


@dataclass(frozen=True)
class LossValue:
    """A scalar loss and its gradient with respect to the first argument."""

    value: float
    grad: np.ndarray


@dataclass(frozen=True)
class ContrastiveParts:
    """Exact decomposition total = alignment + uniformity (gradients included)."""

    total: LossValue
    alignment: LossValue
    uniformity: LossValue


@dataclass(frozen=True)
class ProcrustesDecomposition:
    """Split of the row-normalized coordinate loss into shape + rigid parts.

    l_coord = ||Z^ - P^||_F^2 equals l_shape + l_rigid exactly, where
    l_shape = ||Z^ - P^ R*||_F^2 under the best orthogonal R* and
    l_rigid >= 0 is the part an orthogonal transform can remove.
    """

    l_coord: float
    l_shape: float
    l_rigid: float
    rotation: np.ndarray


@dataclass(frozen=True)
class GradientCheckReport:
    loss_name: str
    max_rel_err: float
    max_abs_err: float
    tolerance: float
    passed: bool


def _check_pair(a, b, same_cols: bool):
    a = as_matrix(a, "first matrix")
    b = as_matrix(b, "second matrix")
    if a.shape[0] != b.shape[0]:
        raise ContractError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    if same_cols and a.shape[1] != b.shape[1]:
        raise ContractError(f"column counts differ: {a.shape[1]} vs {b.shape[1]}")
    return a, b


# Each public loss below is its contract checks followed by one of these
# kernels on a stack of one.  A kernel trusts its inputs to be finite,
# C-contiguous (R, n, d) float64 stacks of compatible shapes (see tensor.py
# on stacks): numpy sums a row pairwise only where it is contiguous, and BLAS
# takes another path for strided vectors, so a replica of a strided stack
# could round differently from its run alone.
# The kernels of _UNIT_ROW_LOSSES take each side as its unit rows and norms
# (tensor._unit_rows) instead, so that a side normalised once serves several.
# It returns (values (R,), grad (R, n, d), why), with why the reason array of
# tensor.py: the training loop skips each replica whose value or gradient is
# undefined, and the public losses raise its reason as DegenerateInputError.


def loss_mse(a, b) -> LossValue:
    """Mean (over rows) squared Frobenius error; grad = 2(A-B)/n."""
    return pairwise_loss("mse", a, b)


def _mse(a, b):
    diff = a - b
    n = a.shape[1]
    return (diff * diff).sum(axis=(1, 2)) / n, 2.0 * diff / n, _kept(a.shape[0])


def loss_cosine(a, b) -> LossValue:
    """Mean (1 - cosine) over paired rows; zero rows are degenerate."""
    return pairwise_loss("cosine", a, b)


def _cosine(ah, na, bh, nb):
    why = _kept(ah.shape[0])
    _check_norms(na, why, "first matrix")
    _check_norms(nb, why, "second matrix")
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.sum(ah * bh, axis=2)
        n = ah.shape[1]
        values = (1.0 - cos).sum(axis=1) / n  # the mean, without its dispatch
        # d(1 - cos_i)/da_i = -(b^_i - cos_i a^_i)/||a_i||
        grad = -(bh - cos[:, :, None] * ah) / (n * na[:, :, None])
    return values, grad, why


def _centered(m):
    """Subtract each replica's mean row: its columns then each sum to zero."""
    return m - m.sum(axis=1, keepdims=True) / m.shape[1]


def _sum_sq(m) -> np.ndarray:
    """(R,) squared Frobenius norms of a contiguous (R, ...) stack, each one
    BLAS dot product (the np.linalg.norm(m[r]) ** 2 of a one-replica matrix)."""
    flat = m.reshape(m.shape[0], 1, -1)
    return (flat @ flat.swapaxes(1, 2))[:, 0, 0]


def _centered_or_degenerate(m, why, name):
    """The centered stack; a replica whose rows are (numerically) identical
    is skipped."""
    c = _centered(m)
    scale = np.maximum(1.0, np.sqrt(_sum_sq(m)))
    cn = np.sqrt(_sum_sq(c))
    for r in np.flatnonzero((cn <= GRAM_DEGENERATE_RTOL * scale) & (why == "")):
        why[r] = (f"{name} rows are (numerically) identical: centered norm "
                  f"{cn[r]:.3e} vs scale {scale[r]:.3e}")
    return c


def loss_gcsa(p, q) -> LossValue:
    """Gram cosine structural loss: 1 - <K_P, K_Q> / (||K_P|| ||K_Q||).

    K is the centered Gram matrix, so the value is invariant to translation,
    rotation/reflection, and positive rescaling of either argument; it is
    one minus the linear CKA of p and q.  Column counts of p and q may
    differ; row counts must match and be >= 2.
    """
    return pairwise_loss("gcsa", p, q)


def _gcsa(p, q):
    why = _kept(p.shape[0])
    pc = _centered_or_degenerate(p, why, "first matrix")
    qc = _centered_or_degenerate(q, why, "second matrix")
    # Feature space instead of the n x n Grams (the linear CKA identity):
    # <K_P, K_Q> = ||P_c^T Q_c||^2 and ||K_P|| = ||P_c^T P_c||, all Frobenius.
    pct = pc.swapaxes(1, 2)
    a = pct @ pc
    m = pct @ qc
    replicas = p.shape[0]
    values, coef_a, coef_q = [0.0] * replicas, [0.0] * replicas, [1.0] * replicas
    # the scalar factors are Python floats, one replica at a time: numpy's
    # array power rounds differently from Python's float power
    for r, (s, fa, gq) in enumerate(zip((m * m).sum(axis=(1, 2)).tolist(),
                                        _sum_sq(a).tolist(),
                                        _sum_sq(qc.swapaxes(1, 2) @ qc).tolist())):
        if why[r]:
            continue
        f = math.sqrt(fa)
        g = math.sqrt(gq)
        try:
            cube = f ** 3
        except OverflowError:  # a Python float power raises where numpy's gives inf
            why[r] = f"first matrix Gram norm {f:.3e} is too large to cube"
            continue
        values[r] = max(0.0, 1.0 - s / (f * g))
        coef_a[r] = s / (cube * g)
        coef_q[r] = f * g
    # dL/dK_P = (s / f^3 g) K_P - K_Q / (f g), pulled back through
    # K_P = C P (C P)^T with C the (symmetric, idempotent) centering map:
    # dL/dP = 2 C (dL/dK_P) P_c, where K_P P_c = P_c A and K_Q P_c = Q_c M^T.
    coef_a = np.array(coef_a)[:, None, None]
    coef_q = np.array(coef_q)[:, None, None]
    grad = 2.0 * _centered(coef_a * (pc @ a) - (qc @ m.swapaxes(1, 2)) / coef_q)
    return np.array(values), grad, why


def loss_rcsa(p, q) -> LossValue:
    """Distance-descriptor cosine structural loss.

    Rows are l2-normalized, the upper-triangular vector of squared pairwise
    distances is the descriptor, and the loss is 1 - cos(u, v).  Invariant to
    orthogonal transforms of either argument; translations change it.
    """
    return pairwise_loss("rcsa", p, q)


@functools.lru_cache(maxsize=64)
def _pair_tables(n: int) -> tuple[np.ndarray, ...]:
    """RCSA's read-only tables for n rows: each pair i < j's row, column, flat index; arange(n)."""
    rows, cols = np.triu_indices(n, k=1)
    tables = (rows, cols, rows * n + cols, np.arange(n))
    for t in tables:
        t.setflags(write=False)
    return tables


def _rcsa(ph, pn, qh, qn):
    replicas, n = ph.shape[:2]
    why = _kept(replicas)
    _check_norms(pn, why, "first matrix")
    _check_norms(qn, why, "second matrix")
    rows, cols, upper, diagonal = _pair_tables(n)

    def descriptor(mh):
        d = 2.0 - 2.0 * (mh @ mh.swapaxes(1, 2))
        np.clip(d, 0.0, None, out=d)
        return d.reshape(d.shape[0], n * n).take(upper, axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        u = descriptor(ph)
        v = descriptor(qh)
        values, coef_u, coef_v = [0.0] * replicas, [0.0] * replicas, [1.0] * replicas
        for r, (nu, nv, cu) in enumerate(zip(np.sqrt(_sum_sq(u)).tolist(),
                                             np.sqrt(_sum_sq(v)).tolist(),
                                             (u[:, None] @ v[:, :, None])[:, 0, 0].tolist())):
            if why[r]:
                continue
            if nu <= RDM_DEGENERATE_TOL:
                why[r] = f"first matrix distance descriptor collapsed (|u|={nu:.3e})"
            elif nv <= RDM_DEGENERATE_TOL:
                why[r] = f"second matrix distance descriptor collapsed (|v|={nv:.3e})"
            else:
                values[r] = max(0.0, 1.0 - cu / (nu * nv))
                coef_u[r] = cu / (nu ** 3 * nv)
                coef_v[r] = nu * nv
        # dL/du, scattered back into a symmetric weight matrix over pairs
        du = np.array(coef_u)[:, None] * u - v / np.array(coef_v)[:, None]
        w = np.zeros((replicas, n, n))
        w[:, rows, cols] = du
        w = w + w.swapaxes(1, 2)
        # d u_ij / d ph_i = 2 (ph_i - ph_j)  =>  grad wrt ph = 2 (diag(W 1) - W) ph
        lap = np.zeros_like(w)
        lap[:, diagonal, diagonal] = w.sum(axis=2)
        lap -= w
        grad_ph = 2.0 * (lap @ ph)
        # pull back through row normalization: project out the radial component
        radial = np.sum(grad_ph * ph, axis=2, keepdims=True)
        grad = (grad_ph - radial * ph) / pn[:, :, None]
    return np.array(values), grad, why


def loss_contrastive(z, prototypes, labels, temperature: float) -> ContrastiveParts:
    """Prototype-anchored contrastive loss with its exact two-term split.

    total_i = -cos(z_i, P_{y_i})/tau + log sum_j exp(cos(z_i, P_j)/tau),
    averaged over rows.  The first term (alignment) pulls each embedding to
    its class prototype; the second (uniformity) pushes away from all
    prototypes.  With a single prototype the two cancel exactly.  Gradients
    are with respect to z.
    """
    z = as_matrix(z, "embeddings")
    prototypes = as_matrix(prototypes, "prototypes")
    if z.shape[1] != prototypes.shape[1]:
        raise ContractError(
            f"embedding dim {z.shape[1]} != prototype dim {prototypes.shape[1]}"
        )
    if not (temperature > 0.0) or not np.isfinite(temperature):
        raise ContractError(f"temperature must be positive and finite, got {temperature!r}")
    labels = check_labels(labels, z.shape[0], prototypes.shape[0])
    parts, why = _contrastive(*_unit_rows(z[None]), *_unit_rows(prototypes[None]), labels,
                              temperature)
    _raise_skip(why)
    return ContrastiveParts(*(LossValue(float(part.value[0]), part.grad[0])
                              for part in (parts.total, parts.alignment, parts.uniformity)))


def _contrastive(zh, nz, ph, pn, labels, temperature: float):
    """ContrastiveParts of (R,) values and (R, n, d) gradients, and the
    reasons; labels are (n,), shared by every slice, or (R, n), one row per
    slice."""
    why = _kept(zh.shape[0])
    _check_norms(nz, why, "embedding")
    _check_norms(pn, why, "prototypes")

    n = zh.shape[1]
    # slice and row of every picked entry, as in models._softmax_cross_entropy
    picks = (np.arange(zh.shape[0])[:, None], np.arange(n), labels)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = zh @ ph.swapaxes(1, 2)  # (R, n, c) cosines in [-1, 1]
        scaled = sims / temperature
        shift = scaled.max(axis=2, keepdims=True)
        probs = np.exp(scaled - shift)
        norm = probs.sum(axis=2, keepdims=True)
        lse = shift[:, :, 0] + np.log(norm[:, :, 0])
        # three index arrays lay `picked` out (R, n), contiguous, so that each
        # replica's mean sums its row as a run of one does
        picked = sims[picks]

        # means, without their dispatch
        align_val = (-picked / temperature).sum(axis=1) / n
        unif_val = lse.sum(axis=1) / n

        # d cos(z_i, P_j) / d z_i = (ph_j - sims_ij zh_i) / ||z_i||
        inv = 1.0 / (n * temperature)
        ga = -inv * (ph[picks[0], labels] - picked[:, :, None] * zh) / nz[:, :, None]
        probs /= norm
        mix = probs @ ph
        mix_sim = np.sum(probs * sims, axis=2)
        gu = inv * (mix - mix_sim[:, :, None] * zh) / nz[:, :, None]

    parts = ContrastiveParts(
        total=LossValue(align_val + unif_val, ga + gu),
        alignment=LossValue(align_val, ga),
        uniformity=LossValue(unif_val, gu),
    )
    return parts, why


# the unchecked kernel of each pairwise loss (everything except contrastive)
_PAIRWISE_KERNELS = {"mse": _mse, "cosine": _cosine, "gcsa": _gcsa, "rcsa": _rcsa}


def pairwise_loss(kind: AlignmentKind | str, a, b) -> LossValue:
    """Dispatch one of the pairwise losses (everything except contrastive).

    Coordinate losses need equal column counts; structural ones compare
    only row geometry, so theirs may differ.
    """
    name = kind.name if isinstance(kind, AlignmentKind) else str(kind)
    if name not in _PAIRWISE_KERNELS:
        raise ContractError(f"{name!r} is not a pairwise loss")
    a, b = _check_pair(a, b, same_cols=name not in STRUCTURAL_LOSSES)
    if name in STRUCTURAL_LOSSES and a.shape[0] < 2:
        raise DegenerateInputError(f"need >= 2 rows, got {a.shape[0]}")
    sides = ((a[None], b[None]) if name not in _UNIT_ROW_LOSSES
             else _unit_rows(a[None]) + _unit_rows(b[None]))
    values, grad, why = _PAIRWISE_KERNELS[name](*sides)
    _raise_skip(why)
    return LossValue(float(values[0]), grad[0])


def procrustes_decompose(z, p) -> ProcrustesDecomposition:
    """Split the row-normalized coordinate loss into shape + rigid parts.

    Both inputs are row-normalized; R* = U V^T from the SVD of P^^T Z^ is the
    orthogonal transform minimizing ||Z^ - P^ R||_F.  The returned parts
    satisfy l_coord = l_shape + l_rigid exactly and l_rigid >= 0.
    """
    z, p = _check_pair(z, p, same_cols=True)
    zh = normalize_rows(z, "first matrix")
    ph = normalize_rows(p, "second matrix")
    res = svd(ph.T @ zh)
    r = res.left_factor @ res.right_factor.T
    pr = ph @ r
    l_coord = float(np.sum((zh - ph) ** 2))
    l_shape = float(np.sum((zh - pr) ** 2))
    l_rigid = 2.0 * float(np.sum(zh * pr) - np.sum(zh * ph))
    return ProcrustesDecomposition(l_coord, l_shape, l_rigid, r)


def numerical_gradient(f, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at x (same shape as x)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += step
        xm[idx] -= step
        grad[idx] = (f(xp) - f(xm)) / (2.0 * step)
        it.iternext()
    return grad


def check_gradient(kind, *args, step: float = 1e-5, tolerance: float = 1e-4) -> GradientCheckReport:
    """Validate an analytic gradient against central differences.

    For pairwise losses pass (a, b); for contrastive pass (z, prototypes,
    labels) and the total-loss gradient is checked.  The error measure is
    max|ga - gn| / max(max|gn|, 1e-12).
    """
    kind = kind if isinstance(kind, AlignmentKind) else AlignmentKind.parse(kind)
    if kind.name == "contrastive":
        z, protos, labels = args
        analytic = loss_contrastive(z, protos, labels, kind.temperature).total.grad
        fn = lambda x: loss_contrastive(x, protos, labels, kind.temperature).total.value
        base = np.asarray(z, dtype=np.float64)
    else:
        a, b = args
        analytic = pairwise_loss(kind, a, b).grad
        fn = lambda x: pairwise_loss(kind, x, b).value
        base = np.asarray(a, dtype=np.float64)
    numerical = numerical_gradient(fn, base, step=step)
    abs_err = float(np.max(np.abs(analytic - numerical)))
    rel_err = abs_err / max(float(np.max(np.abs(numerical))), 1e-12)
    return GradientCheckReport(
        loss_name=kind.name,
        max_rel_err=rel_err,
        max_abs_err=abs_err,
        tolerance=tolerance,
        passed=bool(rel_err <= tolerance),
    )
