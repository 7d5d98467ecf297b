"""One-pass leverage sampling on an adversarially ordered stream.

Draws a Gaussian stream, runs the online sampler at a few accuracy
targets, and checks each sketch against the full Gram. The sketch gets
smaller as eps grows; the whitened spectrum stays inside [1-eps, 1+eps].
"""
import numpy as np

from specstream import gen_gaussian, run_online, verify

N, D, SEED = 2000, 12, 7


def main():
    stream = gen_gaussian(N, D, seed=SEED)
    print(f"stream: {N} rows in R^{D}")
    # c_mult trades failure probability for size; the library default (3.0)
    # saturates p=1 on nearly every row at this small scale, so the table
    # uses a demonstration rate that leaves the size behavior visible
    print(f"{'eps':>6}  {'rows kept':>9}  {'eps_actual':>11}  {'scores ok':>9}")
    for eps in (0.1, 0.25, 0.5):
        sketch, stats = run_online(stream, eps=eps, seed=42, c_mult=0.7)
        eps_actual, ok = verify(stream, sketch, scores=stats.scores)
        print(f"{eps:6.2f}  {sketch.n_rows:9d}  {eps_actual:11.4f}  {str(ok):>9}")
        assert eps_actual <= eps

    # the score log is an online overestimate of the true leverage profile;
    # its total controls the expected sketch size
    sketch, stats = run_online(stream, eps=0.25, seed=42, c_mult=0.7)
    print(f"\nscore_total = {stats.score_total:.2f} "
          f"(rank d = {D}, so the sum of true scores is {D})")
    print(f"pinv recomputes while streaming: {stats.pinv_recomputes}")


if __name__ == "__main__":
    main()
