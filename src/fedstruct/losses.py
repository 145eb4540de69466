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
from .models import _row_starts
from .tensor import (
    _check_norms,
    _kept,
    _quiet,
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
# (tensor._unit_rows) instead, so that a side normalised once serves several,
# and trust their callers to have checked those norms first (_check_sides):
# the training loop tests a whole stack's norms at once and names a row only
# when that test fails.
# A kernel takes last the (R,) reason array `why` of tensor.py, often a view
# of its caller's for a whole stack, and returns (values (R,), grad (R, n, d)).
# It skips each replica whose value or gradient is undefined by writing its
# reason into `why`, unless it holds one already; the training loop then
# leaves the replica out, and the public losses raise the reason as
# DegenerateInputError.  A skipped replica computes on, under its caller's
# error state (see tensor._quiet).


def _mse(a, b, why):
    """Mean (over rows) squared Frobenius error; grad = 2(A-B)/n."""
    diff = a - b
    n = a.shape[1]
    return np.add.reduce(diff * diff, axis=(1, 2)) / n, 2.0 * diff / n


def _cosine(ah, na, bh, nb, why):
    """Mean (1 - cosine) over paired rows."""
    cos = np.add.reduce(ah * bh, axis=2)
    n = ah.shape[1]
    values = np.add.reduce(1.0 - cos, axis=1) / n  # the mean, without its dispatch
    # d(1 - cos_i)/da_i = -(b^_i - cos_i a^_i)/||a_i||
    grad = -(bh - cos[:, :, None] * ah) / (n * na[:, :, None])
    return values, grad


def _centered(m):
    """Subtract each replica's mean row: its columns then each sum to zero."""
    return m - np.add.reduce(m, axis=1, keepdims=True) / m.shape[1]


def _sum_sq(m) -> np.ndarray:
    """(R,) squared Frobenius norms of a contiguous (R, ...) stack, each one
    BLAS dot product (the np.linalg.norm(m[r]) ** 2 of a one-replica matrix)."""
    flat = m.reshape(m.shape[0], 1, -1)
    return (flat @ flat.swapaxes(1, 2))[:, 0, 0]


# the names of a pairwise loss's two sides, in the order they are checked
_SIDES = ("first matrix", "second matrix")


def _centered_or_degenerate(m, why, names):
    """The centered stack of len(names) sides of R replicas, side-major; a
    replica is skipped whose rows are (numerically) identical on one side,
    or whose side's norm overflows, the first side's reason first."""
    c = _centered(m)
    scale = np.maximum(1.0, np.sqrt(_sum_sq(m)))
    cn = np.sqrt(_sum_sq(c))
    bad = cn <= GRAM_DEGENERATE_RTOL * scale
    if bad.any():
        for i in np.flatnonzero(bad).tolist():
            side, r = divmod(i, why.shape[0])
            if not why[r]:
                what = "norm overflows" if cn[i] == np.inf else "rows are (numerically) identical"
                why[r] = (f"{names[side]} {what}: centered norm {cn[i]:.3e} "
                          f"vs scale {scale[i]:.3e}")
    return c


def loss_gcsa(p, q) -> LossValue:
    """Gram cosine structural loss: 1 - <K_P, K_Q> / (||K_P|| ||K_Q||).

    K is the centered Gram matrix, so the value is invariant to translation,
    rotation/reflection, and positive rescaling of either argument; it is
    one minus the linear CKA of p and q.  Column counts of p and q may
    differ; row counts must match and be >= 2.
    """
    return pairwise_loss("gcsa", p, q)


def _gcsa(p, q, why):
    replicas = p.shape[0]
    # Feature space instead of the n x n Grams (the linear CKA identity):
    # <K_P, K_Q> = ||P_c^T Q_c||^2 and ||K_P|| = ||P_c^T P_c||, all Frobenius.
    if p.shape[2] == q.shape[2]:  # both sides as one stack, each slice computed as alone
        c = _centered_or_degenerate(np.concatenate([p, q]), why, _SIDES)
        pc, qc = c[:replicas], c[replicas:]
        grams = c.swapaxes(1, 2) @ c
        a, squares = grams[:replicas], _sum_sq(grams).tolist()
    else:
        pc = _centered_or_degenerate(p, why, _SIDES[:1])
        qc = _centered_or_degenerate(q, why, _SIDES[1:])
        a = pc.swapaxes(1, 2) @ pc
        squares = _sum_sq(a).tolist() + _sum_sq(qc.swapaxes(1, 2) @ qc).tolist()
    m = pc.swapaxes(1, 2) @ qc
    values, coef_a, coef_q = [0.0] * replicas, [0.0] * replicas, [1.0] * replicas
    # the scalar factors are Python floats, one replica at a time: numpy's
    # array power rounds differently from Python's float power
    for r, (s, fa, gq) in enumerate(zip(np.add.reduce(m * m, axis=(1, 2)).tolist(),
                                        squares[:replicas], squares[replicas:])):
        if why[r]:
            continue
        f = math.sqrt(fa)
        g = math.sqrt(gq)
        try:
            cube = f ** 3
        except OverflowError:  # a Python float power raises where numpy's gives inf
            why[r] = f"first matrix Gram norm {f:.3e} is too large to cube"
            continue
        if math.inf in (f, g):  # 1 - s/(f g) would read 1, with a zero gradient
            why[r] = f"{_SIDES[f < math.inf]} Gram norm overflows to inf"
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
    return np.array(values), grad


def loss_rcsa(p, q) -> LossValue:
    """Distance-descriptor cosine structural loss.

    Rows are l2-normalized, the upper-triangular vector of squared pairwise
    distances is the descriptor, and the loss is 1 - cos(u, v).  Invariant to
    orthogonal transforms of either argument; translations change it.
    """
    return pairwise_loss("rcsa", p, q)


@functools.lru_cache(maxsize=64)
def _pair_tables(n: int) -> tuple[np.ndarray, ...]:
    """RCSA's read-only tables for n rows: each pair i < j's row, column and flat index."""
    rows, cols = np.triu_indices(n, k=1)
    tables = (rows, cols, rows * n + cols)
    for t in tables:
        t.setflags(write=False)
    return tables


def _rcsa(ph, pn, qh, qn, why):
    replicas, n = ph.shape[:2]
    rows, cols, upper = _pair_tables(n)

    def descriptor(mh):
        d = 2.0 - 2.0 * (mh @ mh.swapaxes(1, 2))
        np.maximum(d, 0.0, out=d)  # clip: d is never -0.0, so no zero changes sign
        return d.reshape(d.shape[0], n * n).take(upper, axis=1)

    if ph.shape[2] == qh.shape[2]:  # both sides as one stack, each slice computed as alone
        both = descriptor(np.concatenate([ph, qh]))
        u, v = both[:replicas], both[replicas:]
    else:
        u, v = descriptor(ph), descriptor(qh)
        both = np.concatenate([u, v])
    norms = np.sqrt(_sum_sq(both)).tolist()
    values, coef_u, coef_v = [0.0] * replicas, [0.0] * replicas, [1.0] * replicas
    for r, (nu, nv, cu) in enumerate(zip(norms[:replicas], norms[replicas:],
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
    # d u_ij / d ph_i = 2 (ph_i - ph_j)  =>  grad wrt ph = 2 (diag(W 1) - W) ph;
    # W's diagonal is +0.0, so 0.0 - W off it and the row sums on it are the
    # entries of diag(W 1) - W, signed zeros included
    rowsum = np.add.reduce(w, axis=2)
    lap = np.subtract(0.0, w, out=w)
    lap.reshape(replicas, n * n)[:, ::n + 1] = rowsum
    grad_ph = 2.0 * (lap @ ph)
    # pull back through row normalization: project out the radial component
    radial = np.add.reduce(grad_ph * ph, axis=2, keepdims=True)
    grad = (grad_ph - radial * ph) / pn[:, :, None]
    return np.array(values), grad


@_quiet
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
    why = _kept(1)
    sides = _check_sides(z, prototypes, why, ("embedding", "prototypes"))
    align_val, ga, unif_val, gu = _contrastive(*sides, labels, temperature, why)
    _raise_skip(why)
    return ContrastiveParts(*(LossValue(float(value[0]), grad[0]) for value, grad in
                              ((align_val + unif_val, ga + gu), (align_val, ga), (unif_val, gu))))


def _contrastive(zh, nz, ph, pn, labels, temperature: float, why):
    """The alignment and uniformity parts, each (R,) values and (R, n, d)
    gradients, whose sums are the total's; labels are (n,), shared by every
    slice, or (R, n), one row per slice.  It skips no replica: a caller's
    norm checks are its only ones."""
    slices, n, dim = zh.shape
    classes = ph.shape[1]
    sims = zh @ ph.swapaxes(1, 2)  # (R, n, c) cosines in [-1, 1]
    scaled = sims / temperature
    shift = np.maximum.reduce(scaled, axis=2, keepdims=True)
    scaled -= shift
    probs = np.exp(scaled, out=scaled)
    norm = np.add.reduce(probs, axis=2, keepdims=True)
    lse = shift[:, :, 0] + np.log(norm[:, :, 0])
    # the picked entries by their flat index, laid out (R, n), contiguous, so
    # that each replica's mean sums its row as a run of one does
    picked = sims.take(_row_starts(slices, n, classes) + labels)

    # means, without their dispatch
    align_val = np.add.reduce(-picked / temperature, axis=1) / n
    unif_val = np.add.reduce(lse, axis=1) / n

    # d cos(z_i, P_j) / d z_i = (ph_j - sims_ij zh_i) / ||z_i||
    inv = 1.0 / (n * temperature)
    label_rows = ph.reshape(-1, dim).take(_row_starts(slices, 1, classes) + labels, axis=0)
    ga = -inv * (label_rows - picked[:, :, None] * zh) / nz[:, :, None]
    probs /= norm
    mix = probs @ ph
    mix_sim = np.add.reduce(probs * sims, axis=2)
    gu = inv * (mix - mix_sim[:, :, None] * zh) / nz[:, :, None]

    return align_val, ga, unif_val, gu


def _check_sides(a, b, why, names=_SIDES):
    """The unit rows and norms of both (n, d) sides as stacks of one, each
    side's norms checked (tensor._check_norms) in order."""
    sides = _unit_rows(a[None]) + _unit_rows(b[None])
    _check_norms(sides[1], why, names[0])
    _check_norms(sides[3], why, names[1])
    return sides


# the unchecked kernel of each pairwise loss (everything except contrastive)
_PAIRWISE_KERNELS = {"mse": _mse, "cosine": _cosine, "gcsa": _gcsa, "rcsa": _rcsa}


@_quiet
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
    why = _kept(1)
    sides = (_check_sides(a, b, why) if name in _UNIT_ROW_LOSSES else (a[None], b[None]))
    values, grad = _PAIRWISE_KERNELS[name](*sides, why)
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
