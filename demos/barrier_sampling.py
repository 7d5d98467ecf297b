"""Deterministic-size sampling with potential barriers.

The barrier sampler brackets the running Gram between a shrinking upper
and a growing lower barrier. Sampling probabilities come from the gap
potentials, so the output size concentrates hard around its mean instead
of fluctuating like independent coin flips.
"""
import numpy as np

from specstream import gen_gaussian, run_barrier, run_online, verify

N, D, EPS = 1500, 10, 0.4


def main():
    stream = gen_gaussian(N, D, seed=11)

    sizes_online = []
    sizes_barrier = []
    for seed in range(20):
        s_on, _ = run_online(stream, eps=EPS, seed=seed)
        s_ba, _ = run_barrier(stream, eps=EPS, seed=seed)
        sizes_online.append(s_on.n_rows)
        sizes_barrier.append(s_ba.n_rows)
    print(f"20 seeds at eps={EPS}:")
    print(f"  online  sizes: min {min(sizes_online)}, max {max(sizes_online)}, "
          f"spread {max(sizes_online) - min(sizes_online)}")
    print(f"  barrier sizes: min {min(sizes_barrier)}, max {max(sizes_barrier)}, "
          f"spread {max(sizes_barrier) - min(sizes_barrier)}")

    # the sandwich after every row, checked from the stream and the sketch:
    # one cumsum of the rows' outer products, one of the kept rows' weighted ones
    sketch, _ = run_barrier(stream, eps=EPS, seed=0)
    eps_actual, _ = verify(stream, sketch)
    rows = stream.materialize()
    seen = np.cumsum(rows[:, :, None] * rows[:, None, :], axis=0)
    kept = np.zeros_like(rows)
    kept[sketch.indices] = np.asarray(sketch.weights)[:, None] * rows[sketch.indices]
    grams = np.cumsum(kept[:, :, None] * kept[:, None, :], axis=0)
    worst_upper = np.linalg.eigvalsh((1 + EPS) * seen - grams)[:, 0].min()
    worst_lower = np.linalg.eigvalsh(grams - (1 - EPS) * seen)[:, 0].min()
    print(f"\naudited run: {sketch.n_rows} rows, eps_actual {eps_actual:.4f}")
    print(f"  worst upper-gap eigenvalue {worst_upper:.3e} (must stay >= 0)")
    print(f"  worst lower-gap eigenvalue {worst_lower:.3e}")
    assert worst_upper >= -1e-9 and worst_lower >= -1e-9


if __name__ == "__main__":
    main()
