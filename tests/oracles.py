"""Independent reference implementations of the structural-alignment formulas
and of the training protocol.

The loss routines share no code with the installed package.  The loop
routines are written with explicit Python loops over scalars; they exist to
generate frozen golden values and are far too slow for real use.
`gcsa_gram_form` is the one vectorized exception: GCSA and its gradient
straight from the n x n centered Gram matrices, to cross-check the package's
feature-space (d x d) kernel at sizes the loops cannot reach.

`reference_run` is the protocol as README states it, one client and one SGD
step at a time on 2-D arrays.  From the package it takes only `build_model`
and `fixed_hypersphere_prototypes`, so that its model inits and anchors are
the engine's; every forward pass, loss, gradient, step, upload, aggregation
and evaluation is its own.

Run as a script to print golden values for the seeded test cases:

    PYTHONPATH=src python tests/oracles.py
"""

import math

import numpy as np

from fedstruct.federation import fixed_hypersphere_prototypes
from fedstruct.models import build_model


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
# the protocol, one client and one step at a time
# ---------------------------------------------------------------------------
# A RoundConfig and the shards are read by their fields only.  The reference
# knows no numeric failure: it is run on configs that train finitely.

STRUCTURAL = ("gcsa", "rcsa")


def _forward_2d(model, x):
    """The logits of one model on (n, input_dim) rows, and the input of each
    extractor layer followed by the embeddings."""
    acts = [x]
    for layer in model.extractor:
        h = acts[-1] @ layer.weights + layer.bias
        acts.append(np.tanh(h) if layer.activation == "tanh" else h)
    return acts[-1] @ model.classifier_weights + model.classifier_bias, acts


def _cross_entropy(logits, labels):
    """Mean softmax cross-entropy and its gradient w.r.t. the logits."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    onehot = np.eye(logits.shape[1])[labels]
    value = float(np.mean(lse - shifted[np.arange(n), labels]))
    return value, (np.exp(shifted - lse[:, None]) - onehot) / n


def _sgd_step(model, acts, grad_logits, grad_emb, learning_rate):
    """Backpropagate from the logits and the (full) embedding gradient, then
    step every parameter."""
    pairs = [(model.classifier_weights, acts[-1].T @ grad_logits),
             (model.classifier_bias, grad_logits.sum(axis=0))]
    g = grad_emb
    for k in range(len(model.extractor) - 1, -1, -1):
        layer = model.extractor[k]
        if layer.activation == "tanh":
            g = g * (1.0 - acts[k + 1] ** 2)
        pairs += [(layer.weights, acts[k].T @ g), (layer.bias, g.sum(axis=0))]
        g = g @ layer.weights.T
    for param, grad in pairs:
        param -= learning_rate * grad


def _unit_rows_or_none(m):
    """m's unit rows and norms, or None when a row's norm is <= 1e-12 or inf."""
    norms = np.sqrt((m * m).sum(axis=1))
    if not np.all((norms > 1e-12) & (norms < np.inf)):
        return None
    return m / norms[:, None], norms


def _gcsa_degenerate(m):
    """Whether m's rows are (numerically) identical after centering."""
    centered = m - m.sum(axis=0) / m.shape[0]
    return np.linalg.norm(centered) <= 1e-10 * max(1.0, float(np.linalg.norm(m)))


def alignment_loss(kind, a, b, labels=None):
    """(value, gradient w.r.t. a) of one alignment loss, or None where the
    loss is undefined and a step skips it.  For contrastive, b holds every
    prototype and labels index its rows; otherwise a and b pair row by row."""
    name, n = kind.name, a.shape[0]
    if name == "mse":
        diff = a - b
        return float((diff * diff).sum()) / n, 2.0 * diff / n
    if name == "gcsa":
        return None if _gcsa_degenerate(a) or _gcsa_degenerate(b) else gcsa_gram_form(a, b)
    sides = _unit_rows_or_none(a), _unit_rows_or_none(b)
    if None in sides:
        return None
    (ah, na), (bh, nb) = sides
    if name == "cosine":
        cos = (ah * bh).sum(axis=1)
        return float(np.mean(1.0 - cos)), -(bh - cos[:, None] * ah) / (n * na[:, None])
    if name == "rcsa":
        why = [""]
        values, grad = rcsa_per_side(ah[None], na[None], bh[None], nb[None], why)
        return None if why[0] else (float(values[0]), grad[0])
    # contrastive: -cos(z_i, p_(y_i))/tau + log sum_j exp(cos(z_i, p_j)/tau)
    tau = kind.temperature
    sims = ah @ bh.T
    top = (sims / tau).max(axis=1, keepdims=True)
    probs = np.exp(sims / tau - top)
    lse = top[:, 0] + np.log(probs.sum(axis=1))
    probs /= probs.sum(axis=1, keepdims=True)
    picked = sims[np.arange(n), labels]
    # d cos(z_i, p_j)/d z_i = (p^_j - cos_ij z^_i) / ||z_i||
    pull = bh[labels] - picked[:, None] * ah
    push = probs @ bh - (probs * sims).sum(axis=1)[:, None] * ah
    return float(np.mean(lse - picked / tau)), (push - pull) / (n * tau * na[:, None])


def _alignment(emb, labels, protos, cfg):
    """The proto and inst values of one step, its skips and the weighted
    gradient of both terms w.r.t. the embeddings.  A term with weight 0 or
    no row whose class the global set has reads 0; a structural term on
    fewer than 3 rows, or a loss undefined for its rows, is skipped."""
    vectors, counts = protos
    present = counts >= 1
    slot = np.cumsum(present) - 1  # each class's row among the present ones
    known = present[labels]
    values, skips, grad = [0.0, 0.0], 0, np.zeros_like(emb)
    for term, weight in enumerate((cfg.lam, cfg.gamma)):
        if weight <= 0.0:
            continue
        if term == 0:  # the batch mean of each class the global set has
            classes = np.unique(labels[known])
            rows = np.array([emb[labels == c].mean(axis=0) for c in classes])
        else:  # each embedding whose class the global set has
            classes, rows = labels[known], emb[known]
        if classes.size == 0:
            continue
        if classes.size < 3 and cfg.alignment.name in STRUCTURAL:
            skips += 1
            continue
        if cfg.alignment.name == "contrastive":
            got = alignment_loss(cfg.alignment, rows, vectors[present], slot[classes])
        else:
            got = alignment_loss(cfg.alignment, rows, vectors[classes])
        if got is None:
            skips += 1
            continue
        values[term], g = got
        if term == 0:  # a class mean's gradient, shared among its rows
            for k, c in enumerate(classes):
                members = labels == c
                grad[members] += weight * g[k] / members.sum()
        else:
            grad[known] += weight * g
    return values, skips, grad


def _local_training(model, shard, protos, cfg, rng):
    """One participant's local epochs: its mean [sup, proto, inst, total]
    over its steps and its skips."""
    x, y = shard.train_features, shard.train_labels
    sums, steps, skips = np.zeros(4), 0, 0
    for _ in range(cfg.local_epochs):
        order = rng.permutation(y.shape[0])
        for start in range(0, y.shape[0] - 1, cfg.batch_size):  # a one-row remainder is dropped
            rows = order[start:start + cfg.batch_size]
            logits, acts = _forward_2d(model, x[rows])
            sup, grad_logits = _cross_entropy(logits, y[rows])
            grad_emb = grad_logits @ model.classifier_weights.T
            proto = inst = 0.0
            if protos is not None and (protos[1] >= 1).any():
                (proto, inst), skipped, grad = _alignment(acts[-1], y[rows], protos, cfg)
                grad_emb, skips = grad_emb + grad, skips + skipped
            sums += [sup, proto, inst, sup + cfg.lam * proto + cfg.gamma * inst]
            _sgd_step(model, acts, grad_logits, grad_emb, cfg.learning_rate)
            steps += 1
    return (sums / max(steps, 1)).tolist(), skips


def _upload(model, shard, num_classes):
    """Per-class means of the model's embeddings of the shard's train rows,
    zero for absent classes, and the class counts."""
    emb = _forward_2d(model, shard.train_features)[1][-1]
    counts = np.bincount(shard.train_labels, minlength=num_classes)
    vectors = np.zeros((num_classes, emb.shape[1]))
    for c in np.flatnonzero(counts):
        vectors[c] = emb[shard.train_labels == c].mean(axis=0)
    return vectors, counts


def _aggregate(uploads, previous):
    """Count-weighted mean of each class over the uploads that hold it; a
    class no upload holds keeps its previous prototype, if any."""
    vectors, counts = np.zeros_like(uploads[0][0]), np.zeros_like(uploads[0][1])
    for c in range(counts.shape[0]):
        holders = [(v[c], n[c]) for v, n in uploads if n[c] >= 1]
        if holders:
            counts[c] = sum(n for _, n in holders)
            vectors[c] = sum(n * v for v, n in holders) / counts[c]
        elif previous is not None and previous[1][c] >= 1:
            vectors[c], counts[c] = previous[0][c], previous[1][c]
    return vectors, counts


def reference_run(shards, archs, cfg, rounds, seed, num_classes, scenario="hetero"):
    """One config's run of the protocol: per round, a dict of its
    participants, every client's test accuracy, each participant's mean
    loss terms [sup, proto, inst, total] and the round's skips."""
    clients = len(shards)
    shared = scenario == "homo_shared"
    input_dim = shards[0].train_features.shape[1]
    models = [build_model(archs[i % len(archs)] if scenario == "hetero" else archs[0],
                          input_dim, num_classes, np.random.SeedSequence([seed, 0, i]))
              for i in range(1 if shared else clients)]
    model_of = [models[0 if shared else i] for i in range(clients)]
    protos = None  # aggregate mode: round 0 trains supervised only
    if cfg.prototype_mode == "fixed_hypersphere":
        anchors = fixed_hypersphere_prototypes(num_classes, archs[0].feature_dim,
                                               np.random.SeedSequence([seed, 4]))
        protos = anchors.vectors, anchors.counts
    drawn = max(1, round(cfg.participation_fraction * clients))
    accuracies, rounds_out = [0.0] * clients, []
    for r in range(rounds):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2, r]))
        participants = sorted(rng.choice(clients, size=drawn, replace=False).tolist())
        terms, skips = {}, 0
        for i in participants:  # ascending: homo_shared's turns on its one model
            stream = np.random.default_rng(np.random.SeedSequence([seed, 1, r, i]))
            terms[i], skipped = _local_training(model_of[i], shards[i], protos, cfg, stream)
            skips += skipped
        # uploads after every participant has trained
        uploads = [_upload(model_of[i], shards[i], num_classes) for i in participants]
        if cfg.prototype_mode == "aggregate":
            protos = _aggregate(uploads, protos)
        # a model that did not train keeps last round's accuracy
        for i in range(clients) if r == 0 or shared else participants:
            logits = _forward_2d(model_of[i], shards[i].test_features)[0]
            accuracies[i] = float(np.mean(np.argmax(logits, axis=1) == shards[i].test_labels))
        rounds_out.append({"participants": participants, "accuracies": list(accuracies),
                           "terms": terms, "skips": skips})
    return rounds_out


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
