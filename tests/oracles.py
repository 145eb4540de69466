"""Independent reference implementations of the structural-alignment formulas.

Everything here shares no code with the installed package.  The loop
routines are written with explicit Python loops over scalars; they exist to
generate frozen golden values and are far too slow for real use.
`gcsa_gram_form` is the one vectorized exception: GCSA and its gradient
straight from the n x n centered Gram matrices, to cross-check the package's
feature-space (d x d) kernel at sizes the loops cannot reach.

Run as a script to print golden values for the seeded test cases:

    python tests/oracles.py
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# scalar/loop helpers
# ---------------------------------------------------------------------------

def _rows(m):
    """Return a matrix as a list of lists of Python floats."""
    return [[float(x) for x in row] for row in m]


def center_rows_loop(m):
    rows = _rows(m)
    n = len(rows)
    d = len(rows[0])
    mean = [sum(rows[i][k] for i in range(n)) / n for k in range(d)]
    return [[rows[i][k] - mean[k] for k in range(d)] for i in range(n)]


def normalize_rows_loop(m):
    rows = _rows(m)
    out = []
    for row in rows:
        norm = math.sqrt(sum(x * x for x in row))
        if norm <= 1e-12:
            raise ValueError("zero row in oracle input")
        out.append([x / norm for x in row])
    return out


def gram_loop(rows):
    n = len(rows)
    d = len(rows[0])
    return [
        [sum(rows[i][k] * rows[j][k] for k in range(d)) for j in range(n)]
        for i in range(n)
    ]


def frob_inner_loop(a, b):
    return sum(a[i][j] * b[i][j] for i in range(len(a)) for j in range(len(a[0])))


def frob_norm_loop(a):
    return math.sqrt(frob_inner_loop(a, a))


# ---------------------------------------------------------------------------
# structural losses
# ---------------------------------------------------------------------------

def gcsa_loss_loop(p, q):
    """Gram-matrix cosine structural alignment loss, directly from the formula.

    1 - <K_P, K_Q>_F / (||K_P||_F ||K_Q||_F) with K the centered Gram matrix.
    """
    kp = gram_loop(center_rows_loop(p))
    kq = gram_loop(center_rows_loop(q))
    return 1.0 - frob_inner_loop(kp, kq) / (frob_norm_loop(kp) * frob_norm_loop(kq))


def gcsa_gram_form(p, q):
    """GCSA value and gradient w.r.t. p from the n x n centered Grams.

    L = 1 - s / (f g) with s = <K_P, K_Q>_F, f = ||K_P||_F, g = ||K_Q||_F and
    K = (C X)(C X)^T for the centering map C.  dL/dK_P = (s / f^3 g) K_P -
    K_Q / (f g) =: G (symmetric), and K_P's pull-back gives dL/dP = 2 C G C P.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n = p.shape[0]
    c = np.eye(n) - np.full((n, n), 1.0 / n)
    kp = (c @ p) @ (c @ p).T
    kq = (c @ q) @ (c @ q).T
    s = float(np.sum(kp * kq))
    f = float(np.sqrt(np.sum(kp * kp)))
    g = float(np.sqrt(np.sum(kq * kq)))
    gk = (s / (f ** 3 * g)) * kp - kq / (f * g)
    return 1.0 - s / (f * g), 2.0 * c @ gk @ c @ p


# ---------------------------------------------------------------------------
# per-side stacked kernels: bitwise references
# ---------------------------------------------------------------------------
# The package's GCSA and RCSA kernels treat both sides of a stack as one
# stack of 2R slices when their widths agree.  These are the same formulas
# one side at a time, numpy call for numpy call, on (R, n, d) stacks, with
# the reasons as a list: every slice of the fused kernels must equal them
# bit for bit.


def _sum_sq_stack(m):
    flat = m.reshape(m.shape[0], 1, -1)
    return (flat @ flat.swapaxes(1, 2))[:, 0, 0]


def _centered_stack(m):
    return m - m.sum(axis=1, keepdims=True) / m.shape[1]


def gcsa_per_side(p, q, why):
    """(values, grad) of GCSA over (R, n, d) stacks; writes into `why`."""
    for m, name in ((p, "first matrix"), (q, "second matrix")):
        c = _centered_stack(m)
        scale = np.maximum(1.0, np.sqrt(_sum_sq_stack(m)))
        cn = np.sqrt(_sum_sq_stack(c))
        for r in np.flatnonzero(cn <= 1e-10 * scale):
            if not why[r]:
                why[r] = (f"{name} rows are (numerically) identical: centered norm "
                          f"{cn[r]:.3e} vs scale {scale[r]:.3e}")
    pc, qc = _centered_stack(p), _centered_stack(q)
    pct = pc.swapaxes(1, 2)
    a = pct @ pc
    m = pct @ qc
    replicas = p.shape[0]
    values, coef_a, coef_q = [0.0] * replicas, [0.0] * replicas, [1.0] * replicas
    for r, (s, fa, gq) in enumerate(zip((m * m).sum(axis=(1, 2)).tolist(),
                                        _sum_sq_stack(a).tolist(),
                                        _sum_sq_stack(qc.swapaxes(1, 2) @ qc).tolist())):
        if why[r]:
            continue
        f, g = math.sqrt(fa), math.sqrt(gq)
        values[r] = max(0.0, 1.0 - s / (f * g))
        coef_a[r] = s / (f ** 3 * g)
        coef_q[r] = f * g
    coef_a = np.array(coef_a)[:, None, None]
    coef_q = np.array(coef_q)[:, None, None]
    grad = 2.0 * _centered_stack(coef_a * (pc @ a) - (qc @ m.swapaxes(1, 2)) / coef_q)
    return np.array(values), grad


def rcsa_per_side(ph, pn, qh, qn, why):
    """(values, grad) of RCSA over (R, n, d) stacks of unit rows and their
    norms, whose norms are checked already; writes into `why`."""
    replicas, n = ph.shape[:2]
    rows, cols = np.triu_indices(n, k=1)
    upper = rows * n + cols

    def descriptor(mh):
        d = 2.0 - 2.0 * (mh @ mh.swapaxes(1, 2))
        np.clip(d, 0.0, None, out=d)
        return d.reshape(d.shape[0], n * n).take(upper, axis=1)

    u, v = descriptor(ph), descriptor(qh)
    values, coef_u, coef_v = [0.0] * replicas, [0.0] * replicas, [1.0] * replicas
    for r, (nu, nv, cu) in enumerate(zip(np.sqrt(_sum_sq_stack(u)).tolist(),
                                         np.sqrt(_sum_sq_stack(v)).tolist(),
                                         (u[:, None] @ v[:, :, None])[:, 0, 0].tolist())):
        if why[r]:
            continue
        if nu <= 1e-12:
            why[r] = f"first matrix distance descriptor collapsed (|u|={nu:.3e})"
        elif nv <= 1e-12:
            why[r] = f"second matrix distance descriptor collapsed (|v|={nv:.3e})"
        else:
            values[r] = max(0.0, 1.0 - cu / (nu * nv))
            coef_u[r] = cu / (nu ** 3 * nv)
            coef_v[r] = nu * nv
    du = np.array(coef_u)[:, None] * u - v / np.array(coef_v)[:, None]
    w = np.zeros((replicas, n, n))
    w[:, rows, cols] = du
    w = w + w.swapaxes(1, 2)
    lap = np.zeros_like(w)
    lap[:, np.arange(n), np.arange(n)] = w.sum(axis=2)
    lap -= w
    grad_ph = 2.0 * (lap @ ph)
    radial = np.sum(grad_ph * ph, axis=2, keepdims=True)
    return np.array(values), (grad_ph - radial * ph) / pn[:, :, None]


def rdm_upper_loop(m):
    """Upper-triangular (i < j, row-major) squared distances of normalized rows."""
    rows = normalize_rows_loop(m)
    n = len(rows)
    d = len(rows[0])
    vec = []
    for i in range(n):
        for j in range(i + 1, n):
            vec.append(sum((rows[i][k] - rows[j][k]) ** 2 for k in range(d)))
    return vec


def rcsa_loss_loop(p, q):
    """Distance-matrix cosine structural alignment loss, directly from the formula."""
    u = rdm_upper_loop(p)
    v = rdm_upper_loop(q)
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return 1.0 - dot / (nu * nv)


def procrustes_loop(z, p):
    """Coordinate-loss decomposition on row-normalized inputs.

    Returns (l_coord, l_shape, l_rigid, r_star) where r_star is the rotation
    minimizing ||z_hat - p_hat @ R||_F over orthogonal R, obtained from the
    SVD of p_hat^T z_hat as R* = U V^T.
    """
    zh = normalize_rows_loop(z)
    ph = normalize_rows_loop(p)
    n = len(zh)
    d = len(zh[0])
    a = [[sum(ph[i][r] * zh[i][c] for i in range(n)) for c in range(d)] for r in range(d)]
    u_mat, _, vt_mat = np.linalg.svd(np.array(a, dtype=float))
    r = [
        [sum(float(u_mat[i][k]) * float(vt_mat[k][j]) for k in range(d)) for j in range(d)]
        for i in range(d)
    ]
    pr = [[sum(ph[i][k] * r[k][j] for k in range(d)) for j in range(d)] for i in range(n)]
    l_coord = sum((zh[i][k] - ph[i][k]) ** 2 for i in range(n) for k in range(d))
    l_shape = sum((zh[i][k] - pr[i][k]) ** 2 for i in range(n) for k in range(d))
    inner_zpr = sum(zh[i][k] * pr[i][k] for i in range(n) for k in range(d))
    inner_zp = sum(zh[i][k] * ph[i][k] for i in range(n) for k in range(d))
    l_rigid = 2.0 * (inner_zpr - inner_zp)
    return l_coord, l_shape, l_rigid, r

def mse_loss_loop(a, b):
    rows_a = _rows(a)
    rows_b = _rows(b)
    n = len(rows_a)
    return sum(
        (rows_a[i][k] - rows_b[i][k]) ** 2 for i in range(n) for k in range(len(rows_a[0]))
    ) / n


def cosine_loss_loop(a, b):
    ah = normalize_rows_loop(a)
    bh = normalize_rows_loop(b)
    n = len(ah)
    total = 0.0
    for i in range(n):
        total += 1.0 - sum(x * y for x, y in zip(ah[i], bh[i]))
    return total / n


def contrastive_loss_loop(z, prototypes, labels, temperature):
    """Prototype-anchored contrastive loss and its alignment/uniformity split."""
    zh = normalize_rows_loop(z)
    ph = normalize_rows_loop(prototypes)
    n = len(zh)
    align = 0.0
    unif = 0.0
    for i in range(n):
        sims = [sum(x * y for x, y in zip(zh[i], row)) for row in ph]
        align += -sims[int(labels[i])] / temperature
        unif += math.log(sum(math.exp(s / temperature) for s in sims))
    return align / n + unif / n, align / n, unif / n


# ---------------------------------------------------------------------------
# golden-value generation
# ---------------------------------------------------------------------------

GOLDEN_CASES = [(101, 4, 3), (102, 5, 4), (103, 6, 5), (104, 3, 3), (105, 8, 6)]


def golden_inputs(seed, n, d):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n, d))
    q = rng.standard_normal((n, d))
    return p, q


def _check_rotation_optimality(z, p, l_shape, trials=2000):
    """Brute-force check that no sampled rotation beats the SVD solution."""
    zh = np.array(normalize_rows_loop(z))
    ph = np.array(normalize_rows_loop(p))
    d = zh.shape[1]
    rng = np.random.default_rng(0)
    best = math.inf
    for _ in range(trials):
        qmat, rmat = np.linalg.qr(rng.standard_normal((d, d)))
        qmat = qmat * np.where(np.diag(rmat) < 0, -1.0, 1.0)
        val = float(np.sum((zh - ph @ qmat) ** 2))
        best = min(best, val)
    return best >= l_shape - 1e-9


def main():
    print("# golden structural-loss values (independent loop oracle)")
    for seed, n, d in GOLDEN_CASES:
        p, q = golden_inputs(seed, n, d)
        gcsa = gcsa_loss_loop(p, q)
        rcsa = rcsa_loss_loop(p, q)
        l_coord, l_shape, l_rigid, _ = procrustes_loop(p, q)
        mse = mse_loss_loop(p, q)
        cosine = cosine_loss_loop(p, q)
        additivity = abs(l_coord - (l_shape + l_rigid))
        opt_ok = _check_rotation_optimality(p, q, l_shape)
        print(f"case seed={seed} n={n} d={d}")
        print(f"  gcsa    = {gcsa!r}")
        print(f"  rcsa    = {rcsa!r}")
        print(f"  mse     = {mse!r}")
        print(f"  cosine  = {cosine!r}")
        print(f"  l_coord = {l_coord!r}")
        print(f"  l_shape = {l_shape!r}")
        print(f"  l_rigid = {l_rigid!r}")
        print(f"  additivity gap = {additivity:.3e}  rotation optimal vs sampling: {opt_ok}")
    lab = [0, 1, 2, 0]
    p, q = golden_inputs(107, 4, 3)
    total, align, unif = contrastive_loss_loop(p, q[:3], lab, 0.5)
    print("contrastive case seed=107 n=4 d=3 protos=3 tau=0.5 labels=[0,1,2,0]")
    print(f"  total = {total!r}")
    print(f"  align = {align!r}")
    print(f"  unif  = {unif!r}")


if __name__ == "__main__":
    main()
