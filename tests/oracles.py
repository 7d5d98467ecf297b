"""Independent numerical oracles.

Everything here goes through numpy.linalg directly, with no imports from
the library's own linear algebra, so library results are checked against
a second code path. The unit tests and the acceptance suite both pull
from this module.
"""
import math
from fractions import Fraction

import numpy as np

from specstream.randomness import IndexedUniforms, derive_seed

RANK_TOL_BITS = 2.0 ** -40


def rel_err(got, want):
    scale = max(float(np.linalg.norm(want)), 1e-300)
    return float(np.linalg.norm(np.asarray(got) - np.asarray(want))) / scale


def penrose_residual(a, a_pinv):
    """Largest relative residual of the four Penrose identities."""
    ap = a @ a_pinv
    pa = a_pinv @ a
    return max(
        rel_err(ap @ a, a),
        rel_err(pa @ a_pinv, a_pinv),
        rel_err(ap, ap.T),
        rel_err(pa, pa.T),
    )


def eig_split(m, dim=None):
    """(nonzero eigenvalues ascending, zero count) under the relative threshold."""
    w = np.linalg.eigvalsh(m)
    d = dim if dim is not None else m.shape[0]
    cut = d * RANK_TOL_BITS * max(float(w[-1]), 0.0)
    nz = w[w > cut]
    return nz, m.shape[0] - nz.size


def pseudo_det(m):
    nz, _ = eig_split(m)
    return float(np.prod(nz)) if nz.size else 1.0


def min_nonzero_eig(m):
    nz, _ = eig_split(m)
    return float(nz[0])


def image_projector(m):
    w, v = np.linalg.eigh(m)
    cut = m.shape[0] * RANK_TOL_BITS * max(float(w[-1]), 0.0)
    vv = v[:, w > cut]
    return vv @ vv.T


def stacked_relative_leverage(b_rows, a):
    """Definitional relative score: leverage of a appended below B."""
    m = np.vstack([np.atleast_2d(b_rows), a[None, :]])
    g_pinv = np.linalg.pinv(m.T @ m)
    return float(a @ g_pinv @ a)


def exact_leverage(rows):
    """tau_i = a_i' (A'A)+ a_i for every row, straight from the definition."""
    rows = np.asarray(rows, dtype=float)
    g_pinv = np.linalg.pinv(rows.T @ rows)
    return np.einsum("ij,jk,ik->i", rows, g_pinv, rows)


def qr_eps(rows, weighted):
    """Tightest eps with (1-eps) A'A <= W'W <= (1+eps) A'A, for full-column-rank
    rows A and weighted sketch rows W: the singular values of W whitened by the
    R of a QR of A, which does not square A's condition number as a Gram does."""
    r = np.linalg.qr(np.asarray(rows, dtype=float), mode="r")
    sigma = np.linalg.svd(np.linalg.solve(r.T, np.asarray(weighted, dtype=float).T), compute_uv=False)
    return float(np.max(np.abs(sigma ** 2 - 1.0)))


def qr_leverage(rows):
    """tau_i = ||q_i||^2 from the thin Q of full-column-rank rows, with no Gram formed."""
    q = np.linalg.qr(np.asarray(rows, dtype=float))[0]
    return np.einsum("ij,ij->i", q, q)


def sequential_r_scores(rows, indices, weights, eps):
    """Each row's capped score min((1 + eps) q / (q + 1), 1) against the
    weighted rows kept before it, with no Gram formed: q = ||x||^2 for the
    least-squares x of R'x = a, R the R of a QR of those rows, taken
    sequentially (each kept row w a is appended below R and R taken again).
    NaN for a row off R's row space (least-squares residual above 1e-8 ||a||)."""
    rows = np.asarray(rows, dtype=float)
    weight = dict(zip(np.asarray(indices).tolist(), np.asarray(weights, dtype=float).tolist()))
    r = np.zeros((0, rows.shape[1]))
    levels = np.full(len(rows), np.nan)
    for i, a in enumerate(rows):
        if len(r):
            x = np.linalg.lstsq(r.T, a, rcond=None)[0]
            if np.linalg.norm(r.T @ x - a) <= 1e-8 * np.linalg.norm(a):
                q = float(x @ x)
                levels[i] = min((1.0 + eps) * q / (q + 1.0), 1.0)
        if i in weight:
            r = np.linalg.qr(np.vstack([r, weight[i] * a]), mode="r")
    return levels


def exact_online_leverage(rows):
    """tau_i = a_i' (A_i'A_i)+ a_i with A_i = rows[:i+1], one fresh pinv per prefix."""
    rows = np.asarray(rows, dtype=float)
    d = rows.shape[1]
    tau = np.empty(rows.shape[0])
    for i, a in enumerate(rows):
        prefix = rows[: i + 1]
        g_pinv = np.linalg.pinv(prefix.T @ prefix, rcond=d * RANK_TOL_BITS, hermitian=True)
        tau[i] = a @ g_pinv @ a
    return tau


def rational_online_leverage(rows):
    """exact_online_leverage in exact rational arithmetic, for small streams.

    Floats convert to Fractions exactly, and the prefix Gram G_i is summed
    exactly. Row a_i lies on the image of G_i, so any x with G_i x = a_i
    gives a_i' x = a_i' G_i+ a_i; x comes from Gauss-Jordan elimination,
    with free variables at 0. Only the final score is rounded to a float.
    """
    rows = [[Fraction(v) for v in row] for row in np.asarray(rows, dtype=float).tolist()]
    d = len(rows[0]) if rows else 0
    gram = [[Fraction(0)] * d for _ in range(d)]
    tau = []
    for a in rows:
        for j in range(d):
            for k in range(d):
                gram[j][k] += a[j] * a[k]
        aug = [gram[j] + [a[j]] for j in range(d)]  # fresh rows of [G_i | a_i]
        pivots = []
        for col in range(d):
            at = next((i for i in range(len(pivots), d) if aug[i][col]), None)
            if at is None:
                continue
            r = len(pivots)
            aug[r], aug[at] = aug[at], aug[r]
            aug[r] = [v / aug[r][col] for v in aug[r]]
            for i in range(d):
                if i != r and aug[i][col]:
                    f = aug[i][col]
                    aug[i] = [u - f * v for u, v in zip(aug[i], aug[r])]
            pivots.append(col)
        tau.append(float(sum(a[col] * aug[r][d] for r, col in enumerate(pivots))))
    return np.array(tau)


def online_size_bracket(tau, c, eps):
    """Expected kept rows of the online sampler when its sketch tracks every prefix.

    The sampler keeps row i with p_i = min(c * l_i, 1). If the running
    sketch is a (1 +/- eps) approximation of the prefix, its score obeys
    tau_i <= l_i <= (1 + eps) / (1 - eps) * tau_i, which brackets the
    expected size sum(p_i).
    """
    tau = np.asarray(tau, dtype=float)
    lo = float(np.minimum(c * tau, 1.0).sum())
    hi = float(np.minimum(c * (1.0 + eps) / (1.0 - eps) * tau, 1.0).sum())
    return lo, hi


def barrier_reference(stream, eps, seed):
    """The barrier sampler with every pseudo-inverse formed afresh.

    Row i is kept with p = min(c_u a'(U - G + aa')+ a + c_l a'(G - L + aa')+ a, 1)
    against the barriers U, L and the sketch Gram G before it, on the coin
    IndexedUniforms(seed).take(i) the sampler draws; then U and L advance by
    (1 +/- eps) aa'. Returns (kept indices, weights 1/sqrt(p), every p).
    """
    rows = stream.materialize()
    d = rows.shape[1]
    c_upper, c_lower = 2.0 / eps + 1.0, 3.0 / eps - 1.0
    upper, lower, gram = np.zeros((d, d)), np.zeros((d, d)), np.zeros((d, d))
    coins = IndexedUniforms(seed)
    kept, weights, probs = [], [], []
    for i, a in enumerate(rows):
        outer = np.outer(a, a)
        q_upper, q_lower = (
            a @ np.linalg.pinv(gap + outer, rcond=d * RANK_TOL_BITS, hermitian=True) @ a
            for gap in (upper - gram, gram - lower)
        )
        p = min(c_upper * q_upper + c_lower * q_lower, 1.0)
        probs.append(p)
        if coins.take(i) < p:
            kept.append(i)
            weights.append(1.0 / np.sqrt(p))
            gram += outer / p
        upper += (1.0 + eps) * outer
        lower += (1.0 - eps) * outer
    return kept, np.array(weights), np.array(probs)


def barrier_gaps(stream, sketch, eps):
    """(n, 2) least eigenvalues of the barrier gaps after every row.

    After row i the gaps are (1 + eps) S_i - G_i and G_i - (1 - eps) S_i,
    with S_i the Gram of rows 0..i and G_i that of the sketch rows kept at
    or before i. Both are one cumsum, from the stream and the finished
    sketch alone: the stream's outer products, and the kept rows' weighted
    outer products placed at their source indices.
    """
    rows = stream.materialize()
    indices = np.asarray(sketch.indices, dtype=int)
    seen = np.cumsum(rows[:, :, None] * rows[:, None, :], axis=0)
    wa = np.asarray(sketch.weights, dtype=float)[:, None] * rows[indices]
    kept = np.zeros_like(seen)
    kept[indices] = wa[:, :, None] * wa[:, None, :]
    grams = np.cumsum(kept, axis=0)
    gaps = np.stack(((1.0 + eps) * seen - grams, grams - (1.0 - eps) * seen), axis=1)
    return np.linalg.eigvalsh(gaps)[..., 0]


def online_reference(stream, eps, seed, c_mult):
    """The online sampler with the sketch Gram's pseudo-inverse formed afresh per row.

    Row i scores s = q / (q + 1), q = a' G+ a, against the Gram G of the
    rows kept before it when ||a - P a|| <= 1e-8 ||a|| for the projector P
    onto the image of G, and s = 1 otherwise. It is kept on the coin
    IndexedUniforms(seed).take(i) < p with p = min(c min((1 + eps) s, 1), 1),
    c = c_mult eps^-2 ln max(d, 2), at weight 1/sqrt(p). Returns (kept
    indices, weights, every capped score min((1 + eps) s, 1)).
    """
    d = stream.d
    c = c_mult * eps ** -2 * math.log(max(d, 2))
    coins = IndexedUniforms(seed)
    gram = np.zeros((d, d))
    kept, weights, levels = [], [], []
    for i in range(stream.n):
        a = dense_row(stream.row(i), d)
        if np.linalg.norm(a - image_projector(gram) @ a) <= 1e-8 * np.linalg.norm(a):
            g_pinv = np.linalg.pinv(gram, rcond=d * RANK_TOL_BITS, hermitian=True)
            q = max(float(a @ g_pinv @ a), 0.0)
            score = q / (q + 1.0)
        else:
            score = 1.0
        lev = min((1.0 + eps) * score, 1.0)
        p = min(c * lev, 1.0)
        levels.append(lev)
        if coins.take(i) < p:
            kept.append(i)
            weights.append(1.0 / math.sqrt(p))
            gram += np.outer(a, a) / p
    return kept, np.array(weights), np.array(levels)


def dense_row(row, d):
    """A stream or sketch row as a dense vector; sparse rows are (indices, values)."""
    if isinstance(row, tuple):
        out = np.zeros(d)
        out[row[0]] = row[1]
        return out
    return np.array(row, dtype=float)


def block_schedule(n, d):
    """(K, boundaries) of a block run over n rows: K = max(d, ceil(d ln d)),
    and the boundaries below n start at K, each b followed by 2b + K."""
    k = max(d, math.ceil(d * math.log(d)))
    bounds, b = [], k
    while b < n:
        bounds.append(b)
        b = 2 * b + k
    return k, tuple(bounds)


def block_reference(stream, eps, seed, plug=None, n_hint=None):
    """The block sampler row by row, with a fresh pseudo-inverse per block.

    The seed block of K = max(d, ceil(d ln d)) rows is kept at weight 1.
    At each boundary j = K, 3K, 7K, ... the kept rows times their weights,
    M, are frozen with their Gram G = M'M; with a plug, M holds the rows of
    plug.query(), the plug having been fed every earlier row, one
    plug.add_rows per block. Row j of a block scores s = q / (q + 1),
    q = a' G+ a, when ||a - P a|| <= 1e-8 ||a|| for the projector P onto
    the image of G, and s = 1 otherwise. It is kept on the coin
    IndexedUniforms(seed).take(j) < p with p = min(c min(m s, 1), 1),
    c = 6 eps^-2 ln d and m = 1 + eps (2 with a plug), at weight 1/sqrt(p).

    With n_hint, q is projected: freeze f = 1, 2, ... draws a k x r sign
    matrix Pi, entries +/-1/sqrt(k) with k = max(4, ceil(8 ln n_hint)),
    from Philox(key=[derive_seed(seed, f), 0]) over the r rows of M, forms
    N = Pi M G+, and scores q_hat = ||N a||^2 in place of q.
    The kernel verdict stays exact, and s is inflated by 1 / (1 - 0.5).

    Returns (kept indices, weights, every capped score min(m s, 1), and
    with n_hint an (r, 2) array of each scored row's relative score
    from q_hat and from q, before inflation; None without).
    """
    n, d = stream.n, stream.d
    k = max(d, math.ceil(d * math.log(d)))
    c = 6.0 * eps ** -2 * math.log(d)
    mult = 1.0 + eps if plug is None else 2.0
    if n_hint is not None:
        k_rows = max(4, math.ceil(8.0 * math.log(max(n_hint, 2))))
    coins = IndexedUniforms(seed)
    boundary = k
    freezes = fed = 0
    kept, weights, levels, pairs = [], [], [], []
    for j in range(n):
        a = dense_row(stream.row(j), d)
        if j < k:
            lev = p = 1.0
        else:
            if j == boundary:
                freezes += 1
                if plug is None:
                    held = zip(weights, [stream.row(i) for i in kept])
                else:
                    plug.add_rows(fed, stream.block(fed, j))
                    fed = j
                    sk = plug.query()
                    held = zip(sk.weights, sk.rows)
                m = np.array([w * dense_row(r, d) for w, r in held]).reshape(-1, d)
                frozen = m.T @ m
                g_pinv = np.linalg.pinv(frozen, rcond=d * RANK_TOL_BITS, hermitian=True)
                proj = image_projector(frozen)
                if n_hint is not None:
                    key = np.array([derive_seed(seed, freezes), 0], dtype=np.uint64)
                    signs = np.random.Generator(np.random.Philox(key=key)).integers(
                        0, 2, size=(k_rows, len(m)))
                    n_matrix = (2.0 * signs - 1.0) / math.sqrt(k_rows) @ m @ g_pinv
                boundary = 2 * boundary + k
            on_image = np.linalg.norm(a - proj @ a) <= 1e-8 * np.linalg.norm(a)
            if on_image:
                q = max(float(a @ g_pinv @ a), 0.0)
                score = q / (q + 1.0)
            else:
                score = 1.0
            if n_hint is not None:
                q_hat = float(np.sum((n_matrix @ a) ** 2))
                projected = q_hat / (q_hat + 1.0) if on_image else 1.0
                pairs.append((projected, score))
                score = projected / (1.0 - 0.5)
            lev = min(mult * score, 1.0)
            p = min(c * lev, 1.0)
        levels.append(lev)
        if j < k or coins.take(j) < p:
            kept.append(j)
            weights.append(1.0 / math.sqrt(p))
    if plug is not None:
        plug.add_rows(fed, stream.block(fed, n))
    pairs = np.array(pairs).reshape(-1, 2) if n_hint is not None else None
    return kept, np.array(weights), np.array(levels), pairs


def resparsify_reference(rows, capacity_mult, beta, seed):
    """The resparsify plug row by row, with a fresh pseudo-inverse per pass.

    Rows enter a buffer at weight 1. When it holds 2C rows, C =
    ceil(capacity_mult beta^-2 d ln d), row j of it is kept with
    p = min(c tau_j, 1), c = capacity_mult beta^-2 ln d and
    tau_j = min(w_j^2 a_j' G+ a_j, 1) against the buffer's weighted Gram G,
    on Philox draws keyed (seed, 2 passes); a pass must keep fewer than 2C
    rows, and divides their weights by sqrt(p). Returns (held indices,
    weights, passes, peak held rows).
    """
    rows = np.asarray(rows, dtype=float)
    d = rows.shape[1]
    full = 2 * math.ceil(capacity_mult * beta ** -2 * d * math.log(d))
    c = capacity_mult * beta ** -2 * math.log(d)
    held, weights = [], []
    passes = peak = 0
    for i in range(rows.shape[0]):
        held.append(i)
        weights.append(1.0)
        peak = max(peak, len(held))
        if len(held) < full:
            continue
        m = rows[held] * np.array(weights)[:, None]
        g_pinv = np.linalg.pinv(m.T @ m, rcond=d * RANK_TOL_BITS, hermitian=True)
        tau = np.array([min(w * w * max(float(rows[j] @ g_pinv @ rows[j]), 0.0), 1.0)
                        for j, w in zip(held, weights)])
        probs = np.minimum(c * tau, 1.0)
        key = np.array([seed & ((1 << 64) - 1), 2 * passes], dtype=np.uint64)
        keep = np.random.Generator(np.random.Philox(key=key)).random(full) < probs
        if np.count_nonzero(keep) >= full:
            raise RuntimeError("resparsify pass did not shrink the buffer")
        weights = [w / math.sqrt(p) for w, p, k in zip(weights, probs, keep) if k]
        held = [j for j, k in zip(held, keep) if k]
        passes += 1
    return held, np.array(weights), passes, peak


def spectral_eps(ref_rows, test_gram):
    """max |mu - 1| of the test Gram whitened by the reference rows' Gram.

    Mass on the reference kernel or rank loss shows up as inf / 1.0 the
    same way the library defines it; used only on full-support cases here.
    """
    ga = ref_rows.T @ ref_rows
    w, v = np.linalg.eigh(ga)
    cut = ga.shape[0] * RANK_TOL_BITS * max(float(w[-1]), 0.0)
    keep = w > cut
    s = v[:, keep] / np.sqrt(w[keep])
    mid = s.T @ np.asarray(test_gram) @ s
    return float(np.abs(np.linalg.eigvalsh(mid) - 1.0).max())


def brute_mu(rows, rank_tol=None):
    """Full per-prefix scan of lambda_max / min prefix nonzero lambda_min."""
    rows = np.asarray(rows, dtype=float)
    n, d = rows.shape
    tol = (d * RANK_TOL_BITS) if rank_tol is None else rank_tol
    gram = np.zeros((d, d))
    denom = np.inf
    for i in range(n):
        gram += np.outer(rows[i], rows[i])
        w = np.linalg.eigvalsh(gram)
        cut = tol * max(float(w[-1]), 0.0)
        nz = w[w > cut]
        if nz.size:
            denom = min(denom, float(nz[0]))
    if not np.isfinite(denom):
        raise ValueError("all-zero stream")
    w = np.linalg.eigvalsh(gram)
    return float(max(w)) / denom
