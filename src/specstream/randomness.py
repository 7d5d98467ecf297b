"""Counter-based reproducible randomness.

Each sampling decision consumes one uniform addressed by (seed, row index),
generated from a keyed Philox stream in fixed-size chunks. The draw for a
given index never depends on how many other draws were made, so decisions
are reproducible and independent of scoring internals.
"""
from __future__ import annotations

import numpy as np

CHUNK = 4096

MASK64 = (1 << 64) - 1


def derive_seed(*parts) -> int:
    """Stable 64-bit sub-seed from integer parts (e.g. base seed, block id)."""
    ss = np.random.SeedSequence([int(p) & MASK64 for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def _chunk_uniforms(seed: int, chunk: int):
    key = np.array([seed & MASK64, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(CHUNK)


class IndexedUniforms:
    """Lazy array of uniforms in [0, 1), one per nonnegative index.

    Only the last generated chunk is held: samplers take indices in
    increasing order, and an earlier index regenerates its chunk with the
    same values.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._chunk_no = -1
        self._values: np.ndarray | None = None

    def _chunk(self, c: int):
        if c != self._chunk_no:
            self._values = _chunk_uniforms(self.seed, c)
            self._chunk_no = c
        return self._values

    def take(self, index: int) -> float:
        c, off = divmod(int(index), CHUNK)
        return float(self._chunk(c)[off])

    def take_range(self, lo: int, hi: int) -> np.ndarray:
        """Uniforms for indices lo..hi-1, identical to scalar takes."""
        out = np.empty(hi - lo)
        pos = lo
        while pos < hi:
            c, off = divmod(pos, CHUNK)
            stop = min(hi - pos, CHUNK - off)
            out[pos - lo : pos - lo + stop] = self._chunk(c)[off : off + stop]
            pos += stop
        return out
