"""Row stream container and the benchmark instance generators."""
from __future__ import annotations

import math

import numpy as np

from . import rows as rowops
from .errors import DimensionMismatch, EmptyStream, NonFiniteInput
from .linalg import SymPsd


class RowStream:
    """Finite stream of d-dimensional rows, dense or sparse, with metadata.

    Dense payload is an (n, d) array; sparse payload is a list of
    (idx, val) pairs with strictly increasing column indices per row.
    meta records how the stream was generated.
    """

    def __init__(self, d: int, payload, meta: dict, sparse: bool = False):
        if d <= 0:
            raise DimensionMismatch("dimension must be positive")
        self.d = int(d)
        self.meta = dict(meta)
        self.is_sparse = bool(sparse)
        if sparse:
            self._rows = [rowops.sparse_row(idx, val, d) for idx, val in payload]
            self._dense = None
            self.n = len(self._rows)
            values = np.concatenate([val for _, val in self._rows]) if self._rows else np.empty(0)
        else:
            dense = np.asarray(payload, dtype=float)
            if dense.ndim != 2 or dense.shape[1] != d:
                raise DimensionMismatch(f"dense payload shape {dense.shape} vs d={d}")
            self._dense = dense
            self._rows = None
            self.n = dense.shape[0]
            values = dense
        # One vectorised check per stream keeps NaN/inf out of every sampler.
        if not np.all(np.isfinite(values)):
            raise NonFiniteInput("stream holds a NaN or infinite value")

    def row(self, i: int):
        """Row payload at position i (dense view or sparse pair)."""
        if self.is_sparse:
            return self._rows[i]
        return self._dense[i]

    def iter_rows(self):
        if self.is_sparse:
            yield from self._rows
        else:
            yield from self._dense

    def materialize(self) -> np.ndarray:
        """Dense (n, d) copy of the stream."""
        if not self.is_sparse:
            return np.array(self._dense)
        out = np.zeros((self.n, self.d))
        for i, (idx, val) in enumerate(self._rows):
            out[i, idx] = val
        return out

    def gram_matrix(self) -> np.ndarray:
        if not self.is_sparse:
            return self._dense.T @ self._dense
        g = np.zeros((self.d, self.d))
        for row in self._rows:
            rowops.add_outer(g, row, 1.0)
        return g

    def gram(self, rank_tol: float | None = None) -> SymPsd:
        return SymPsd(self.gram_matrix(), rank_tol=rank_tol)

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
    if d < 2 or copies < 1:
        raise DimensionMismatch("need d >= 2 and copies >= 1")
    payload = []
    for u in range(d):
        for v in range(u + 1, d):
            pair = (np.array([u, v], dtype=np.int64), np.array([1.0, -1.0]))
            payload.extend([pair] * copies)
    meta = {"kind": "kd", "d": d, "copies": copies}
    return RowStream(d, payload, meta, sparse=True)


def gen_gaussian(n: int, d: int, seed: int) -> RowStream:
    """n i.i.d. standard normal rows from a seeded generator."""
    if n < 1 or d < 1:
        raise EmptyStream("need n >= 1 and d >= 1")
    rng = np.random.default_rng(seed)
    meta = {"kind": "gaussian", "n": n, "d": d, "seed": int(seed)}
    return RowStream(d, rng.standard_normal((n, d)), meta)


def gen_mu_controlled(d: int, levels: int, gamma: float) -> RowStream:
    """Geometric coordinate stream with condition ratio exactly gamma^(2(levels-1)).

    Level 0 emits e_1..e_d; level l >= 1 emits the same coordinates scaled
    so the cumulative per-coordinate mass is exactly gamma^(2l). The minimum
    prefix sigma_min^2 is then 1 (attained inside level 0) and the final
    spectral norm is gamma^(2(levels-1)), so the ratio has a closed form.
    """
    if d < 1 or levels < 1 or gamma <= 1.0:
        raise DimensionMismatch("need d >= 1, levels >= 1, gamma > 1")
    payload = []
    for level in range(levels):
        if level == 0:
            scale = 1.0
        else:
            scale = math.sqrt(gamma ** (2 * level) - gamma ** (2 * (level - 1)))
        for i in range(d):
            payload.append((np.array([i], dtype=np.int64), np.array([scale])))
    meta = {
        "kind": "mu",
        "d": d,
        "levels": levels,
        "gamma": float(gamma),
        "mu": float(gamma) ** (2 * (levels - 1)),
    }
    return RowStream(d, payload, meta, sparse=True)


def permute(stream: RowStream, seed: int) -> RowStream:
    """Uniformly random row order (Fisher-Yates) from a seeded generator."""
    order = np.random.default_rng(seed).permutation(stream.n)
    meta = {"kind": "permuted", "perm_seed": int(seed), "base": stream.meta}
    if stream.is_sparse:
        payload = [stream.row(int(i)) for i in order]
        return RowStream(stream.d, payload, meta, sparse=True)
    return RowStream(stream.d, stream.materialize()[order], meta)
