"""Scoring rows through a random sign projection.

Exact relative scores need a d x d pseudo-inverse applied per row. The
projected scorer sketches the whitening map down to O(log n) rows once
per block and answers each query from the small matrix, trading a
bounded score distortion (absorbed by the sampling rate) for speed.
"""
import numpy as np

from specstream import gen_gaussian, permute, projection_rows, scaled_sampling, verify

N, D, EPS = 5000, 10, 0.3


def main():
    print(f"projection rows at k(n) = max(4, ceil(8 ln n)): "
          f"n=1e3 -> {projection_rows(1000)}, n=1e6 -> {projection_rows(10 ** 6)}")

    stream = permute(gen_gaussian(N, D, seed=17), seed=4)

    exact, stats_e = scaled_sampling(stream, eps=EPS, seed=9)
    eps_e, _ = verify(stream, exact, scores=stats_e.scores)

    # jl_audit also logs exact scores beside projected ones for comparison
    proj, stats_p = scaled_sampling(
        stream, eps=EPS, seed=9, use_jl=True, n_hint=N, jl_audit=True
    )
    eps_p, _ = verify(stream, proj, scores=stats_p.scores)

    print(f"exact scoring:     {exact.n_rows:4d} rows kept, eps_actual {eps_e:.4f}")
    print(f"projected scoring: {proj.n_rows:4d} rows kept, eps_actual {eps_p:.4f}")

    within = np.abs(stats_p.jl_scores - stats_p.exact_scores) <= 0.5 * stats_p.exact_scores
    print(f"audit: {int(within.sum())}/{within.size} projected scores within the "
          f"design distortion (50%) of their exact values")
    assert eps_p <= EPS


if __name__ == "__main__":
    main()
