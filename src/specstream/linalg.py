"""Dense symmetric PSD kernel for verify and the per-row API: pseudo-inverses,
rank-one updates, the image test and relative leverage scores.

No sampler reads the two rank rules here, as every sampler decides by
online.ImageBasis. SymPsd.rank counts the eigenvalues above
default_rank_tol(d) * lambda_max (SymPsd.above_cutoff, which verify's
prefix ranks read too), and pinv keeps that many eigenpairs. The image
test, on_image_rows, calls a row on the image when its residual off the
kept projector is at most DEFAULT_ORTHO_TOL of its norm.

The relative score of a row a against a PSD matrix X, a' (X + aa')+ a, is
q / (q + 1) with q = a' X+ a when a lies on the image of X, and exactly 1
otherwise (relative_of). Matrices and rows here are small and dense.
"""
from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateUpdate,
    DimensionMismatch,
    NonFiniteInput,
    NotPsd,
    NotSymmetric,
    PreconditionViolation,
)

# Relative Frobenius tolerance for accepting input as symmetric.
SYMMETRY_TOL = 1e-12

# Relative residual below which a vector counts as orthogonal to the kernel.
DEFAULT_ORTHO_TOL = 1e-8

# Denominator floor for the rank-one pseudo-inverse update.
UPDATE_DENOM_FLOOR = 1e-12


def default_rank_tol(dim: int) -> float:
    """Eigenvalues at or below rank_tol * lambda_max are treated as zero."""
    return dim * 2.0 ** -40


class SymPsd:
    """Symmetric PSD matrix with a cached eigendecomposition.

    Eigenvalues are stored in descending order with orthonormal eigenvectors
    in matching columns; rank counts those above default_rank_tol(dim) *
    lambda_max, and negative ones within minus that are clamped to zero.
    Lower ones raise NotPsd, a NaN or inf entry NonFiniteInput. Immutable.
    """

    __slots__ = ("dim", "entries", "eigenvalues", "eigenvectors", "rank")

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise NonFiniteInput("matrix holds a NaN or infinite value")
        # scaled by the largest entry, so entries near the float range do
        # not overflow the norms to inf
        s = a / (float(np.max(np.abs(a))) or 1.0)
        if np.linalg.norm(s - s.T) > SYMMETRY_TOL * np.linalg.norm(s):
            raise NotSymmetric("matrix is not symmetric within relative tolerance")
        a = 0.5 * (a + a.T)
        self.dim = a.shape[0]
        tol = default_rank_tol(self.dim)
        w, v = np.linalg.eigh(a)
        w = w[::-1].copy()
        v = v[:, ::-1].copy()
        lam_max = w[0] if w[0] > 0.0 else 0.0
        if w[-1] < -tol * lam_max:
            raise NotPsd(f"eigenvalue {w[-1]:.3e} below PSD floor for lambda_max {lam_max:.3e}")
        w[w < 0.0] = 0.0
        self.entries = a
        self.eigenvalues = w
        self.eigenvectors = v
        self.rank = int(np.count_nonzero(SymPsd.above_cutoff(w)))

    @staticmethod
    def above_cutoff(w) -> np.ndarray:
        """The rank rule, over the last axis of a stack of eigenvalues: True for
        those above default_rank_tol(d) * max(lambda_max, 0), the ones rank counts."""
        return w > default_rank_tol(w.shape[-1]) * np.maximum(np.max(w, axis=-1, keepdims=True), 0.0)

    def __repr__(self):
        return f"SymPsd(dim={self.dim}, rank={self.rank})"


class PInv:
    """Moore-Penrose pseudo-inverse of a SymPsd, with its image projector.

    source_rank is the rank of the inverted matrix, projector the orthogonal
    projector onto its image. Immutable by convention.
    """

    __slots__ = ("source_rank", "matrix", "projector", "dim")

    def __init__(self, source_rank: int, matrix, projector):
        self.source_rank = int(source_rank)
        self.matrix = matrix
        self.projector = projector
        self.dim = matrix.shape[0]

    def __repr__(self):
        return f"PInv(dim={self.dim}, source_rank={self.source_rank})"


def pinv(s: SymPsd) -> PInv:
    """Pseudo-inverse from the cached eigendecomposition.

    Kernel eigenvalues map to zero; the zero matrix maps to the zero
    pseudo-inverse with a zero projector.
    """
    kept = np.arange(s.rank)  # an F-ordered copy: a slice view rounds the products differently
    vs = s.eigenvectors[:, kept]
    inv = (vs / s.eigenvalues[kept]) @ vs.T
    proj = vs @ vs.T
    return PInv(s.rank, inv, proj)


def on_image_rows(p: PInv, block) -> np.ndarray:
    """The image test: True for each row of a dense (b, d) block with no
    component on the kernel of the matrix behind p, ||row - proj row||^2 <=
    DEFAULT_ORTHO_TOL^2 ||row||^2, the residual formed entrywise so that it
    stays resolvable near rounding level. The zero row lies on every image;
    a full-rank matrix has the whole space as its image and forms none."""
    if p.source_rank == p.dim:
        return np.ones(len(block), dtype=bool)
    residual = block @ p.projector - block
    return (np.einsum("ij,ij->i", residual, residual)
            <= DEFAULT_ORTHO_TOL ** 2 * np.einsum("ij,ij->i", block, block))


def quad_forms(p, block) -> np.ndarray:
    """row' X+ row, clamped at 0, for each row of a dense (b, d) block; X+ is p.matrix."""
    return np.maximum(np.einsum("ij,ij->i", block @ p.matrix, block), 0.0)


def relative_of(on, q) -> np.ndarray:
    """Relative scores from kernel verdicts on and quadratic forms q >= 0."""
    return np.where(on, q / (q + 1.0), 1.0)


def relative_leverage(b_pinv: PInv, row) -> float:
    """Relative score of one dense row against the matrix X behind b_pinv = pinv(X)."""
    row = np.asarray(row, dtype=float)[None]
    return float(relative_of(on_image_rows(b_pinv, row), quad_forms(b_pinv, row))[0])


def pinv_rank1_update(p: PInv, u, k: float) -> PInv:
    """Pseudo-inverse of (s + k uu') given p = pinv(s), for u orthogonal to Ker(s).

    Applies the Sherman-Morrison form for the Moore-Penrose inverse. The
    image does not change under the precondition, so the projector and
    source_rank carry over. Raises PreconditionViolation when u has a kernel
    component and DegenerateUpdate when the denominator vanishes (the update
    would change rank, e.g. an exact rank-one subtraction).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (p.dim,):
        raise DimensionMismatch(f"vector shape {u.shape} vs dim {p.dim}")
    if not on_image_rows(p, u[None])[0]:
        raise PreconditionViolation("update vector has a kernel component")
    pu = p.matrix @ u
    denom = 1.0 + k * float(u @ pu)
    if abs(denom) < UPDATE_DENOM_FLOOR:
        raise DegenerateUpdate(f"denominator {denom:.3e} below floor")
    return PInv(p.source_rank, p.matrix - (pu[:, None] * pu) * (k / denom), p.projector)


def pinv_quad_form(s: SymPsd, a) -> float:
    """a' s+ a straight from the eigendecomposition, skipping the d^2 inverse."""
    a = np.asarray(a, dtype=float)
    if a.shape != (s.dim,):
        raise DimensionMismatch(f"vector shape {a.shape} vs dim {s.dim}")
    kept = np.arange(s.rank)  # as in pinv; rank 0 sums to 0.0
    y = s.eigenvectors[:, kept].T @ a
    return float(np.sum(y * y / s.eigenvalues[kept]))
