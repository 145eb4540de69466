"""Dense matrix kernel: validation, factorizations, row normalization.

All public functions take and return plain numpy arrays (float64, or integer
class labels for check_labels).  Inputs are validated against the operation
contracts and rejected with ContractError / DegenerateInputError rather than
silently propagating NaNs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError, NumericFailureError

# Row norms at or below this are treated as zero when normalizing.
EPS_NORM = 1e-12


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return `m` as a finite 2-D float64 array."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ContractError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ContractError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractError(f"{name} contains non-finite entries")
    return arr


def check_labels(labels, n: int, num_classes: int) -> np.ndarray:
    """`labels` as an array of n integer classes in [0, num_classes)."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ContractError(f"labels shape {labels.shape} != ({n},)")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(f"labels must be integers, got {labels.dtype}")
    if n and labels.min() < 0:
        raise ContractError(f"labels must be >= 0, got {int(labels.min())}")
    if n and labels.max() >= num_classes:
        raise ContractError(f"labels out of range [0, {num_classes}): got {int(labels.max())}")
    return labels


def normalize_rows(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Scale each row to unit l2 norm; zero rows and rows of norm inf are rejected."""
    why = _kept(1)
    unit, norms = _unit_rows(as_matrix(m, name)[None])
    _check_norms(norms, why, name)
    _raise_skip(why)
    return unit[0]


# The private kernels of the package work on stacks: arrays with a leading
# replica axis, one slice per replica of a lockstep run.  Each replica's
# slice is computed exactly as a stack of one would compute it, so a kernel
# that meets an undefined value reports it per replica, in an (R,) object
# array `why`: "" for each replica it kept, the reason for each one it
# skipped (why != "" is the skip mask), whose outputs are then unspecified.
# Checks run in order, and a replica keeps the reason of the first it fails.
#
# A kernel computes on through overflow and division by zero, and its
# callers check its results for non-finite values, so the IEEE warnings are
# silenced: once per public wrapper and once per phase of the protocol
# engine, by decorating it with _quiet.  Only _unit_rows, which every
# PrototypeSet calls as it is built, sets its own.
_quiet = np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _kept(replicas: int) -> np.ndarray:
    """The reasons of a stack of which no replica is skipped (yet)."""
    return np.full(replicas, "", dtype=object)


def _raise_skip(why: np.ndarray) -> None:
    """Raise DegenerateInputError for a stack of one whose replica was skipped."""
    if why[0]:
        raise DegenerateInputError(why[0])


def _unit_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a finite (..., n, d) stack scaled to unit l2 norm, and the
    (..., n) norms; see _check_norms for the rows whose unit row is undefined."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norms = np.linalg.norm(m, axis=-1)
        return m / norms[..., None], norms


def _check_norms(norms: np.ndarray, why: np.ndarray, name: str) -> None:
    """Skip each replica not yet skipped with a row norm <= EPS_NORM or inf,
    naming its first such row."""
    bad = (norms <= EPS_NORM) | (norms == np.inf)
    for r in np.flatnonzero(bad.any(axis=1) & (why == "")) if np.count_nonzero(bad) else ():
        k = int(np.argmax(bad[r]))
        why[r] = (f"{name} row {k} has norm inf" if norms[r, k] == np.inf
                  else f"{name} row {k} has norm {norms[r, k]:.3e} <= {EPS_NORM}")


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD A = U diag(s) V^T with s sorted descending and s >= 0."""

    singular_values: np.ndarray  # (k,)
    left_factor: np.ndarray  # (n, k), orthonormal columns
    right_factor: np.ndarray  # (d, k), orthonormal columns

    def reconstruct(self) -> np.ndarray:
        return (self.left_factor * self.singular_values) @ self.right_factor.T


def svd(m: np.ndarray) -> SvdResult:
    """Thin SVD with a deterministic sign convention.

    Each (u_k, v_k) pair is jointly flipped so the largest-magnitude entry of
    u_k is positive; U diag(s) V^T is unchanged by joint flips.
    """
    m = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
        raise NumericFailureError(f"SVD failed on shape {m.shape}: {exc}") from exc
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(s)) and np.all(np.isfinite(vt))):
        raise NumericFailureError(f"SVD produced non-finite factors on shape {m.shape}")
    v = vt.T
    # sign fix: pivot on the largest-|entry| of each left singular vector
    pivot = np.abs(u).argmax(axis=0)
    signs = np.where(u[pivot, np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
    return SvdResult(singular_values=s, left_factor=u * signs, right_factor=v * signs)


def random_orthogonal(dim: int, seed) -> np.ndarray:
    """Seeded random orthogonal matrix (QR of a Gaussian, sign-fixed).

    Columns are flipped so the result's own diagonal is nonnegative; column
    sign flips preserve orthogonality, the draw is deterministic, and dim=1
    always yields [[1.0]].
    """
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ContractError(f"dim must be a positive int, got {dim!r}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    return q * np.where(np.diag(q) < 0.0, -1.0, 1.0)
