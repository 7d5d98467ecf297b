"""Block-frozen scoring on a randomly ordered stream.

When rows arrive in uniformly random order, scores do not need to be
refreshed per row: the stream splits into geometrically growing blocks
and the scoring state is frozen once per block. The pseudo-inverse is
recomputed O(log n) times total no matter how long the stream is.
"""
import numpy as np

from specstream import gen_gaussian, permute, scaled_sampling, seed_block_size, verify

N, D, EPS = 6000, 10, 0.3


def main():
    base = gen_gaussian(N, D, seed=3)
    stream = permute(base, seed=99)  # random arrival order is the contract here

    sketch, stats = scaled_sampling(stream, eps=EPS, seed=5)
    k = seed_block_size(D)
    print(f"n={N}, d={D}: seed block of {k} rows, then blocks ending at "
          f"{list(stats.schedule)}")

    eps_actual, ok = verify(stream, sketch, scores=stats.scores)
    print(f"kept {sketch.n_rows} of {N} rows, eps_actual {eps_actual:.4f} "
          f"(target {EPS}), overestimate audit {ok}")
    print(f"pinv recomputes: {stats.pinv_recomputes} "
          f"(= number of block boundaries, not number of rows)")

    # per-block score mass: each block contributes O(d) in expectation
    mass = np.add.reduceat(stats.scores, [0, *stats.schedule])
    sums = [f"{s:.1f}" for s in mass]
    print(f"score mass per block: {sums}")
    assert eps_actual <= EPS


if __name__ == "__main__":
    main()
