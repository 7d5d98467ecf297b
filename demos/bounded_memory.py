"""Bounded working memory via periodic resparsification.

The improved block sampler scores rows against a plugged-in constant
approximation instead of the raw prefix. With the resparsify plug, that
inner state is itself a sample that is recompressed whenever it doubles,
so peak memory depends on d and the constants, never on n.
"""
import math

from specstream import (
    ResparsifyApprox,
    gen_gaussian,
    improved_scaled_sampling,
    permute,
    verify,
)

D, EPS, BETA, CAP = 8, 0.35, 1 / 3, 4.0


def run(n):
    stream = permute(gen_gaussian(n, D, seed=21), seed=n)
    plug = ResparsifyApprox(CAP, BETA, seed=1, dim=D)
    sketch, stats = improved_scaled_sampling(stream, eps=EPS, seed=2, approx=plug)
    eps_actual, _ = verify(stream, sketch)
    return sketch.n_rows, stats.max_working_rows, eps_actual


def main():
    capacity = math.ceil(CAP * BETA ** -2 * D * math.log(D))
    print(f"d={D}: inner capacity C = {capacity} rows, resparsify trigger at 2C = "
          f"{2 * capacity}")
    print(f"{'n':>7}  {'rows kept':>9}  {'peak working set':>16}  {'eps_actual':>10}")
    for n in (4000, 8000, 16000):
        kept, peak, eps_actual = run(n)
        print(f"{n:7d}  {kept:9d}  {peak:16d}  {eps_actual:10.4f}")
        # the output sketch still scales with log n; the working set must not
        assert peak <= 2 * capacity
        assert eps_actual <= EPS


if __name__ == "__main__":
    main()
