"""Independent numerical oracles.

Everything here goes through numpy.linalg directly, with no imports from
the library's own linear algebra, so library results are checked against
a second code path. The unit tests and the acceptance suite both pull
from this module.
"""
import math

import numpy as np

from specstream.randomness import IndexedUniforms

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


def block_reference(stream, eps, seed, plug=None):
    """The block sampler row by row, with a fresh pseudo-inverse per block.

    The seed block of K = max(d, ceil(d ln d)) rows is kept at weight 1.
    At each boundary j = K, 3K, 7K, ... the Gram G of the kept weighted
    rows is frozen; with a plug, G is the Gram of plug.query(), the plug
    having been fed every earlier row through plug.add. Row j of a block
    scores s = q / (q + 1), q = a' G+ a, when ||a - P a|| <= 1e-8 ||a|| for
    the projector P onto the image of G, and s = 1 otherwise. It is kept
    on the coin IndexedUniforms(seed).take(j) < p with p = min(c min(m s, 1), 1),
    c = 6 eps^-2 ln d and m = 1 + eps (2 with a plug), at weight 1/sqrt(p).
    Returns (kept indices, weights, every capped score min(m s, 1)).
    """
    n, d = stream.n, stream.d
    k = max(d, math.ceil(d * math.log(d)))
    c = 6.0 * eps ** -2 * math.log(d)
    mult = 1.0 + eps if plug is None else 2.0
    coins = IndexedUniforms(seed)
    gram = np.zeros((d, d))
    boundary = k
    kept, weights, levels = [], [], []
    for j in range(n):
        a = dense_row(stream.row(j), d)
        if j < k:
            lev = p = 1.0
        else:
            if j == boundary:
                if plug is None:
                    frozen = gram.copy()
                else:
                    sk = plug.query()
                    m = np.array([w * dense_row(r, d) for w, r in zip(sk.weights, sk.rows)])
                    frozen = m.reshape(-1, d).T @ m.reshape(-1, d)
                g_pinv = np.linalg.pinv(frozen, rcond=d * RANK_TOL_BITS, hermitian=True)
                proj = image_projector(frozen)
                boundary = 2 * boundary + k
            if np.linalg.norm(a - proj @ a) <= 1e-8 * np.linalg.norm(a):
                q = max(float(a @ g_pinv @ a), 0.0)
                score = q / (q + 1.0)
            else:
                score = 1.0
            lev = min(mult * score, 1.0)
            p = min(c * lev, 1.0)
        levels.append(lev)
        if j < k or coins.take(j) < p:
            kept.append(j)
            weights.append(1.0 / math.sqrt(p))
            gram += np.outer(a, a) / p
        if plug is not None:
            plug.add(j, stream.row(j))
    return kept, np.array(weights), np.array(levels)


def resparsify_reference(rows, capacity_mult, beta, seed):
    """The resparsify plug row by row, with a fresh pseudo-inverse per pass.

    Rows enter a buffer at weight 1. When it holds 2C rows, C =
    ceil(capacity_mult beta^-2 d ln d), row j of it is kept with
    p = min(2^t c tau_j, 1), c = capacity_mult beta^-2 ln d and
    tau_j = min(w_j^2 a_j' G+ a_j, 1) against the buffer's weighted Gram G,
    on Philox draws keyed (seed, 2 passes + t) for attempt t = 0, 1; the
    first attempt that keeps fewer than 2C rows divides their weights by
    sqrt(p). Returns (held indices, weights, passes, peak held rows).
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
        for attempt in range(2):
            probs = np.minimum(c * 2.0 ** attempt * tau, 1.0)
            key = np.array([seed & ((1 << 64) - 1), 2 * passes + attempt], dtype=np.uint64)
            keep = np.random.Generator(np.random.Philox(key=key)).random(full) < probs
            if np.count_nonzero(keep) < full:
                weights = [w / math.sqrt(p) for w, p, k in zip(weights, probs, keep) if k]
                held = [j for j, k in zip(held, keep) if k]
                passes += 1
                break
        else:
            raise RuntimeError("buffer did not shrink after one retry")
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
