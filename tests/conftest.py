"""Shared builders for the test suite."""
import numpy as np

from specstream import RowStream, Sketch


def make_psd(d, rank, seed, scale=1.0):
    """Random d x d PSD matrix whose rank is min(rank, d) almost surely."""
    g = np.random.default_rng(seed).standard_normal((rank, d))
    return scale * (g.T @ g)


def make_stream(arr, meta=None):
    arr = np.asarray(arr, dtype=float)
    return RowStream(arr.shape[1], arr, meta if meta is not None else {"kind": "test"})


def last_column_scaled(s, from_row=0):
    """default_rng(1) 4000 x 6 Gaussian rows, the last column 0 before
    from_row and scaled by s from it on (ROADMAP item 14's family)."""
    rows = np.random.default_rng(1).standard_normal((4000, 6))
    rows[:from_row, 5] = 0.0
    rows[from_row:, 5] *= s
    return make_stream(rows)


def identity_stream(d, copies=1):
    return make_stream(np.tile(np.eye(d), (copies, 1)))


class PassThroughPlug:
    """Trivial block-sampler plug: keeps every fed row at weight 1."""

    def __init__(self, dim):
        self.sketch = Sketch(dim)
        self.peak_rows = 0

    def add_rows(self, lo, block):
        self.sketch.append_rows(np.arange(lo, lo + len(block)), np.ones(len(block)), block)
        self.peak_rows = self.sketch.n_rows

    def query(self):
        return self.sketch
