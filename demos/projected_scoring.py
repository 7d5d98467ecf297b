"""Scoring rows through a random sign projection.

Exact relative scores need a d x r whitener applied per row. The
projected scorer sketches the whitening map down to O(log n) rows once
per block and answers each query from the small matrix, trading a
bounded score distortion (absorbed by the sampling rate) for speed.
"""
import numpy as np

from specstream import (
    JlScorer,
    gen_gaussian,
    jl_build,
    permute,
    projection_rows,
    scaled_sampling,
    verify,
)
from specstream.online import ImageBasis, whitener

N, D, EPS = 5000, 10, 0.3


def main():
    print(f"projection rows at k(n) = max(4, ceil(8 ln n)): "
          f"n=1e3 -> {projection_rows(1000)}, n=1e6 -> {projection_rows(10 ** 6)}")

    stream = permute(gen_gaussian(N, D, seed=17), seed=4)

    exact, stats_e = scaled_sampling(stream, eps=EPS, seed=9)
    eps_e, _ = verify(stream, exact, scores=stats_e.scores)

    proj, stats_p = scaled_sampling(stream, eps=EPS, seed=9, use_jl=True, n_hint=N)
    eps_p, _ = verify(stream, proj, scores=stats_p.scores)

    print(f"exact scoring:     {exact.n_rows:4d} rows kept, eps_actual {eps_e:.4f}")
    print(f"projected scoring: {proj.n_rows:4d} rows kept, eps_actual {eps_p:.4f}")

    # every row scored both ways against one frozen sketch, the exact run's,
    # whitened on the image basis U of its rows: W' scores exactly
    rows = stream.materialize()
    image = ImageBasis(D)
    image.extend(exact.rows)
    w = whitener(exact, image)
    projected = jl_build(exact, w @ w.T, image, N, seed=9).scores(rows)
    direct = JlScorer(w.T, image).scores(rows)
    within = np.abs(projected - direct) <= 0.5 * direct
    print(f"{int(within.sum())}/{within.size} projected scores within the "
          f"design distortion (50%) of their exact values")
    assert eps_p <= EPS


if __name__ == "__main__":
    main()
