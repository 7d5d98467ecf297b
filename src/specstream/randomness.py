"""Counter-based reproducible randomness.

Each sampling decision consumes one uniform addressed by (seed, row index),
generated in fixed-size chunks from philox(seed, chunk), the one Philox key
every seeded draw uses. The draw for a given index never depends on how many
other draws were made, so decisions are reproducible and independent of
scoring internals. Seeds are integers (rows.source_index), taken mod 2^64.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .rows import source_index

CHUNK = 4096

MASK64 = (1 << 64) - 1


def derive_seed(*parts) -> int:
    """Stable 64-bit sub-seed from integer parts (e.g. base seed, block id), each mod 2^64."""
    ss = np.random.SeedSequence([source_index(p, "seed part") & MASK64 for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def philox(seed: int, counter: int) -> np.random.Philox:
    """The Philox bit generator keyed [seed mod 2^64, counter], for an integer seed."""
    return np.random.Philox(key=np.array([seed & MASK64, counter], dtype=np.uint64))


class IndexedUniforms:
    """Lazy array of uniforms in [0, 1), one per nonnegative index.

    Only the last generated chunk is held: samplers take indices in
    increasing order, and an earlier index regenerates its chunk with the
    same values.
    """

    def __init__(self, seed: int):
        self.seed = source_index(seed, "seed")
        self._chunk_no: int | None = None
        self._values: np.ndarray | None = None

    def _chunk(self, c: int):
        if c != self._chunk_no:
            self._values, self._chunk_no = np.random.Generator(philox(self.seed, c)).random(CHUNK), c
        return self._values

    def take(self, index: int) -> float:
        return float(self.take_range(index, source_index(index) + 1)[0])

    def take_range(self, lo: int, hi: int) -> np.ndarray:
        """Uniforms for indices lo..hi-1, identical to scalar takes; raises
        DimensionMismatch for non-integers, lo < 0 or hi < lo before any draw."""
        lo, hi = source_index(lo), source_index(hi)
        if lo < 0 or hi < lo:
            raise DimensionMismatch(f"uniforms lo={lo}, hi={hi} need 0 <= lo <= hi")
        out = np.empty(hi - lo)
        pos = lo
        while pos < hi:
            c, off = divmod(pos, CHUNK)
            stop = min(hi - pos, CHUNK - off)
            out[pos - lo : pos - lo + stop] = self._chunk(c)[off : off + stop]
            pos += stop
        return out
