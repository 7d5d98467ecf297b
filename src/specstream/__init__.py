"""Streaming row sampling for spectral matrix approximation.

One pass over the rows of a tall matrix, keeping a reweighted subset whose
Gram matrix spectrally approximates the full one. Covers the fully-online
setting (leverage-score and barrier samplers), the random-order setting
(block samplers with frozen scoring sketches and a bounded-memory plug),
sketch-based score estimation through random projections, and a
verification and benchmark harness.
"""
from .errors import (
    AllZeroStream,
    BarrierViolation,
    CapacityCollapse,
    ConstApproxFailure,
    DegenerateUpdate,
    DimensionMismatch,
    EmptySketch,
    EmptyStream,
    FormatError,
    InvalidWeight,
    NonFiniteInput,
    NotPsd,
    NotSymmetric,
    PreconditionViolation,
    RowNormOutOfRange,
    SpecstreamError,
    UnknownSuite,
)
from .linalg import PInv, SymPsd, default_rank_tol, pinv, pinv_rank1_update, relative_leverage
from .sketch import RunStats, Sketch
from .instances import (
    RowStream,
    gen_gaussian,
    gen_kd_multigraph,
    gen_mu_controlled,
    permute,
)
from .online import (
    BarrierState,
    OnlineState,
    barrier_step,
    online_step,
    run_barrier,
    run_online,
    sampling_constant,
)
from .random_order import (
    BlockSampler,
    ImprovedSampler,
    ResparsifyApprox,
    ScaledSampler,
    improved_scaled_sampling,
    scaled_sampling,
    seed_block_size,
)
from .jl import JlScorer, jl_build, projection_rows
from .verify import approx_factor, leverage_scores, mu, verify
from .bench import TrialRecord, bench_suite, read_csv, run_sampler, run_trial, write_csv
from .io import read_sketch, read_stream, write_sketch, write_stream

__version__ = "0.1.0"

__all__ = [
    "AllZeroStream", "BarrierViolation", "CapacityCollapse", "ConstApproxFailure",
    "DegenerateUpdate", "DimensionMismatch", "EmptySketch", "EmptyStream",
    "FormatError", "InvalidWeight", "NonFiniteInput", "NotPsd",
    "NotSymmetric", "PreconditionViolation", "RowNormOutOfRange", "SpecstreamError", "UnknownSuite",
    "PInv", "SymPsd", "default_rank_tol", "pinv", "pinv_rank1_update", "relative_leverage",
    "RunStats", "Sketch",
    "RowStream", "gen_gaussian", "gen_kd_multigraph", "gen_mu_controlled", "permute",
    "BarrierState", "OnlineState", "barrier_step", "online_step",
    "run_barrier", "run_online", "sampling_constant",
    "BlockSampler", "ImprovedSampler", "ResparsifyApprox", "ScaledSampler",
    "improved_scaled_sampling", "scaled_sampling", "seed_block_size",
    "JlScorer", "jl_build", "projection_rows",
    "approx_factor", "leverage_scores", "mu", "verify",
    "TrialRecord", "bench_suite", "read_csv", "run_sampler", "run_trial", "write_csv",
    "read_sketch", "read_stream", "write_sketch", "write_stream",
    "__version__",
]
