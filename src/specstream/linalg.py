"""Dense symmetric PSD kernel: pseudo-inverses, rank-one updates, pseudo-determinants.

Every rank decision in the package flows through SymPsd's cached
eigendecomposition, so "zero eigenvalue" means the same thing in the
pseudo-inverse, the pseudo-determinant and the approximation-factor check.
Matrices and rows here are small and dense.
"""
from __future__ import annotations

import math

import numpy as np

from . import rows as rowops
from .errors import (
    DegenerateUpdate,
    DimensionMismatch,
    NotPsd,
    NotSymmetric,
    PreconditionViolation,
    ZeroMatrix,
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
    in matching columns. Negative eigenvalues within -rank_tol * lambda_max
    are clamped to zero; anything lower raises NotPsd. Instances are treated
    as immutable: updates happen by constructing a new value.
    """

    __slots__ = ("dim", "entries", "rank_tol", "eigenvalues", "eigenvectors", "rank")

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
        # scaled by the largest entry, so entries near the float range do
        # not overflow the norms to inf
        s = a / (float(np.max(np.abs(a))) or 1.0)
        if np.linalg.norm(s - s.T) > SYMMETRY_TOL * np.linalg.norm(s):
            raise NotSymmetric("matrix is not symmetric within relative tolerance")
        a = 0.5 * (a + a.T)
        self.dim = a.shape[0]
        self.rank_tol = default_rank_tol(self.dim)
        w, v = np.linalg.eigh(a)
        w = w[::-1].copy()
        v = v[:, ::-1].copy()
        lam_max = w[0] if w[0] > 0.0 else 0.0
        if w[-1] < -self.rank_tol * lam_max:
            raise NotPsd(f"eigenvalue {w[-1]:.3e} below PSD floor for lambda_max {lam_max:.3e}")
        w[w < 0.0] = 0.0
        self.entries = a
        self.eigenvalues = w
        self.eigenvectors = v
        self.rank = int(np.count_nonzero(w > self.rank_tol * lam_max))

    def support(self):
        """Boolean mask of eigenvalues counted as nonzero."""
        lam_max = self.eigenvalues[0]
        return self.eigenvalues > self.rank_tol * lam_max

    def __repr__(self):
        return f"SymPsd(dim={self.dim}, rank={self.rank})"


class PInv:
    """Moore-Penrose pseudo-inverse of a SymPsd, with its image projector.

    source_rank is the rank of the inverted matrix, projector the orthogonal
    projector onto its image. Only a KeptPinv changes one: its own, in place.
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
    mask = s.support()
    vs = s.eigenvectors[:, mask]
    inv = (vs / s.eigenvalues[mask]) @ vs.T
    proj = vs @ vs.T
    return PInv(s.rank, inv, proj)


def on_image(p: PInv, row) -> bool:
    """True when the dense row has no component on the kernel of the matrix
    behind p: ||row - proj row|| <= DEFAULT_ORTHO_TOL * ||row||.

    The zero row lies on every image. A full-rank matrix has the whole space
    as its image, so no residual is formed for it.
    """
    return (p.source_rank == p.dim
            or rowops.kernel_residual(p.projector, row) <= DEFAULT_ORTHO_TOL * np.linalg.norm(row))


def on_image_rows(p: PInv, block) -> np.ndarray:
    """on_image for every row of a dense (b, d) block at once."""
    if p.source_rank == p.dim:
        return np.ones(len(block), dtype=bool)
    residual = block @ p.projector - block
    return (np.linalg.norm(residual, axis=1)
            <= DEFAULT_ORTHO_TOL * np.linalg.norm(block, axis=1))


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
    if not on_image(p, u):
        raise PreconditionViolation("update vector has a kernel component")
    pu = p.matrix @ u
    denom = 1.0 + k * float(u @ pu)
    if abs(denom) < UPDATE_DENOM_FLOOR:
        raise DegenerateUpdate(f"denominator {denom:.3e} below floor")
    return PInv(p.source_rank, p.matrix - (pu[:, None] * pu) * (k / denom), p.projector)


def pseudo_det(s: SymPsd) -> float:
    """Product of the nonzero eigenvalues; 1 for the zero matrix.

    Raises OverflowError when the linear-scale product leaves the finite
    float range.
    """
    nonzero = s.eigenvalues[s.support()]
    with np.errstate(over="ignore", under="ignore"):
        value = float(np.prod(nonzero)) if nonzero.size else 1.0
    if not math.isfinite(value) or (nonzero.size and value == 0.0):
        raise OverflowError("pseudo-determinant out of float range")
    return value


def pinv_quad_form(s: SymPsd, a) -> float:
    """a' s+ a straight from the eigendecomposition, skipping the d^2 inverse."""
    a = np.asarray(a, dtype=float)
    if a.shape != (s.dim,):
        raise DimensionMismatch(f"vector shape {a.shape} vs dim {s.dim}")
    mask = s.support()
    if not np.any(mask):
        return 0.0
    y = s.eigenvectors[:, mask].T @ a
    return float(np.sum(y * y / s.eigenvalues[mask]))


def min_nonzero_eig(s: SymPsd) -> float:
    """Smallest eigenvalue above the rank threshold."""
    if s.rank == 0:
        raise ZeroMatrix("all eigenvalues are zero")
    return float(s.eigenvalues[s.rank - 1])


def approx_factor(gram_ref: SymPsd, gram_test: SymPsd) -> float:
    """Tightest eps with (1-eps) ref <= test <= (1+eps) ref on Im(ref).

    Computed as max |lambda - 1| over the eigenvalues of
    ref^{+/2} test ref^{+/2} restricted to the reference image. Returns
    math.inf when the test matrix has mass on Ker(ref) (no finite eps
    exists).
    """
    if gram_ref.dim != gram_test.dim:
        raise DimensionMismatch(f"dims {gram_ref.dim} vs {gram_test.dim}")
    mask = gram_ref.support()
    t = gram_test.entries
    lam_t = gram_test.eigenvalues[0]
    if gram_ref.rank < gram_ref.dim:
        kern = gram_ref.eigenvectors[:, ~mask]
        # Largest eigenvalue of the test restricted to Ker(ref); PSD cross
        # terms are bounded by the diagonal blocks, so this check suffices.
        kern_mass = float(np.max(np.linalg.eigvalsh(kern.T @ t @ kern)))
        if kern_mass > gram_test.rank_tol * lam_t:
            return math.inf
    if gram_ref.rank == 0:
        return 0.0
    vs = gram_ref.eigenvectors[:, mask]
    half = vs / np.sqrt(gram_ref.eigenvalues[mask])
    w = half.T @ t @ half
    mu = np.linalg.eigvalsh(w)
    return float(np.max(np.abs(mu - 1.0)))
