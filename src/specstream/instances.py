"""Row stream container and the benchmark instance generators."""
from __future__ import annotations

import math

import numpy as np

from . import rows as rowops
from .errors import DimensionMismatch, EmptyStream, NonFiniteInput


class RowStream:
    """Finite stream of d-dimensional rows, dense or sparse, with metadata.

    A dense payload is an (n, d) array. A sparse payload is a sequence of
    (idx, val) pairs with strictly increasing column indices per row, or
    the rows.SparseRows (CSR arrays) the stream holds it as; row(i) reads
    a row as (idx, val) views, and block() reads a run dense, as the
    samplers take it. The payload is checked once, vectorised. meta
    records how the stream was generated.
    """

    def __init__(self, d: int, payload, meta: dict, sparse: bool = False):
        d = rowops.dimension(d)
        if sparse:
            rows = payload if isinstance(payload, rowops.SparseRows) else rowops.SparseRows.of_pairs(payload)
            rows.check(d)
        else:
            rows = np.asarray(payload, dtype=float)
            if rows.ndim != 2 or rows.shape[1] != d:
                raise DimensionMismatch(f"dense payload shape {rows.shape} vs d={d}")
        # One vectorised check per stream keeps NaN/inf out of every sampler.
        if not np.all(np.isfinite(rows.data if sparse else rows)):
            raise NonFiniteInput("stream holds a NaN or infinite value")
        self.d = d
        self.meta = dict(meta)
        self.is_sparse = bool(sparse)
        self._rows = rows
        self.n = len(rows)

    def row(self, i: int):
        """Row payload at position i (dense view or sparse (idx, val) views)."""
        return self._rows[i]

    def iter_rows(self):
        return iter(self._rows)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 as a dense (hi - lo, d) array: a view of a dense
        stream's array, or one scatter of a sparse stream's slice."""
        part = self._rows[lo:hi]
        return part.dense(self.d) if self.is_sparse else part

    def materialize(self) -> np.ndarray:
        """Dense (n, d) copy of the stream."""
        return self._rows.dense(self.d) if self.is_sparse else np.array(self._rows)

    def gram_matrix(self) -> np.ndarray:
        m = self.materialize() if self.is_sparse else self._rows
        return m.T @ m

    def __len__(self):
        return self.n

    def __repr__(self):
        kind = self.meta.get("kind", "?")
        return f"RowStream(kind={kind!r}, n={self.n}, d={self.d})"


def gen_kd_multigraph(d: int, copies: int) -> RowStream:
    """Incidence rows of the complete multigraph on d vertices.

    Every vertex pair (u, v) with u < v contributes `copies` rows e_u - e_v,
    edges in lexicographic order with copies consecutive. The Gram equals
    copies * (d I - J), the Laplacian of copies * K_d.
    """
    d, copies = rowops.dimension(d, 2, "d"), rowops.dimension(copies, 1, "copies")
    u, v = np.triu_indices(d, 1)  # lexicographic
    n = len(u) * copies
    cols = np.repeat(np.stack((u, v), axis=1), copies, axis=0).astype(np.int64)
    payload = rowops.SparseRows(np.arange(0, 2 * n + 1, 2), cols.ravel(), np.tile([1.0, -1.0], n))
    meta = {"kind": "kd", "d": d, "copies": copies}
    return RowStream(d, payload, meta, sparse=True)


def gen_gaussian(n: int, d: int, seed: int) -> RowStream:
    """n i.i.d. standard normal rows from a generator seeded at an integer >= 0."""
    n, d, seed = rowops.source_index(n, "n"), rowops.source_index(d, "d"), rowops.dimension(seed, 0, "seed")
    if n < 1 or d < 1:
        raise EmptyStream("need n >= 1 and d >= 1")
    meta = {"kind": "gaussian", "n": n, "d": d, "seed": seed}
    return RowStream(d, np.random.default_rng(seed).standard_normal((n, d)), meta)


def gen_mu_controlled(d: int, levels: int, gamma: float) -> RowStream:
    """Geometric coordinate stream with condition ratio exactly gamma^(2(levels-1)).

    Level 0 emits e_1..e_d; level l >= 1 emits the same coordinates scaled
    so the cumulative per-coordinate mass is exactly gamma^(2l). The minimum
    prefix sigma_min^2 is then 1 (attained inside level 0) and the final
    spectral norm is gamma^(2(levels-1)), so the ratio has a closed form.
    """
    d, levels = rowops.dimension(d, 1, "d"), rowops.dimension(levels, 1, "levels")
    if not 1.0 < gamma < math.inf:
        raise DimensionMismatch(f"need a finite gamma > 1, got {gamma}")
    try:  # meta["mu"], and every coordinate's Gram mass
        top = float(gamma) ** (2 * (levels - 1))
    except OverflowError:
        raise DimensionMismatch(f"gamma={gamma}, levels={levels}: gamma^(2(levels-1)) overflows") from None
    scales = [1.0] + [math.sqrt(gamma ** (2 * lv) - gamma ** (2 * (lv - 1))) for lv in range(1, levels)]
    payload = rowops.SparseRows(np.arange(levels * d + 1), np.tile(np.arange(d), levels),
                                np.repeat(scales, d))
    meta = {
        "kind": "mu",
        "d": d,
        "levels": levels,
        "gamma": float(gamma),
        "mu": top,
    }
    return RowStream(d, payload, meta, sparse=True)


def permute(stream: RowStream, seed: int) -> RowStream:
    """Uniformly random row order (Fisher-Yates) from a generator seeded at an integer >= 0."""
    seed = rowops.dimension(seed, 0, "seed")
    order = np.random.default_rng(seed).permutation(stream.n)
    meta = {"kind": "permuted", "perm_seed": seed, "base": stream.meta}
    # one index gather, dense or sparse; the new stream checks it as any other
    return RowStream(stream.d, stream._rows[order], meta, stream.is_sparse)
