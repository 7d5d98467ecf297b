"""Dense symmetric PSD kernel: pseudo-inverses, rank-one updates, pseudo-determinants.

Every rank decision in the package flows through SymPsd's cached
eigendecomposition, so "zero eigenvalue" means the same thing in the
pseudo-inverse, the pseudo-determinant and the approximation-factor check.
Matrices here are small and dense; sparsity is exploited by callers.
"""
from __future__ import annotations

import math

import numpy as np

from . import rows as rowops
from .errors import (
    DegenerateUpdate,
    DimensionMismatch,
    ImageMismatch,
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

    def __init__(self, entries, rank_tol: float | None = None):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
        fro = np.linalg.norm(a)
        if np.linalg.norm(a - a.T) > SYMMETRY_TOL * fro:
            raise NotSymmetric("matrix is not symmetric within relative tolerance")
        a = 0.5 * (a + a.T)
        self.dim = a.shape[0]
        self.rank_tol = default_rank_tol(self.dim) if rank_tol is None else float(rank_tol)
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

    source_rank is the rank of the matrix this inverts; projector is the
    orthogonal projector onto its image. Treated as immutable.
    """

    __slots__ = ("source_rank", "matrix", "projector")

    def __init__(self, source_rank: int, matrix, projector):
        self.source_rank = int(source_rank)
        self.matrix = matrix
        self.projector = projector

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

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


def kernel_orthogonal(p: PInv, a, ortho_tol: float = DEFAULT_ORTHO_TOL) -> bool:
    """True when a has no kernel component: ||a - proj a|| <= tol * ||a||.

    The zero vector is orthogonal to everything.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (p.dim,):
        raise DimensionMismatch(f"vector shape {a.shape} vs dim {p.dim}")
    return rowops.on_image(p.projector, a, ortho_tol)


def pinv_rank1_update(p: PInv, u, k: float, ortho_tol: float = DEFAULT_ORTHO_TOL) -> PInv:
    """Pseudo-inverse of (s + k uu') given p = pinv(s), for u orthogonal to Ker(s).

    Applies the Sherman-Morrison form for the Moore-Penrose inverse. The
    image does not change under the precondition, so the projector and
    source_rank carry over. Raises PreconditionViolation when u has a kernel
    component and DegenerateUpdate when the denominator vanishes (the update
    would change rank, e.g. an exact rank-one subtraction).
    """
    u = np.asarray(u, dtype=float)
    if not kernel_orthogonal(p, u, ortho_tol):
        raise PreconditionViolation("update vector has a kernel component")
    pu = p.matrix @ u
    denom = 1.0 + k * float(u @ pu)
    if abs(denom) < UPDATE_DENOM_FLOOR:
        raise DegenerateUpdate(f"denominator {denom:.3e} below floor")
    m = p.matrix - np.outer(pu, pu) * (k / denom)
    return PInv(p.source_rank, m, p.projector)


def pseudo_det(s: SymPsd) -> float:
    """Product of the nonzero eigenvalues; 1 for the zero matrix.

    Raises OverflowError when the linear-scale product leaves the finite
    float range (use log_pseudo_det for size experiments).
    """
    nonzero = s.eigenvalues[s.support()]
    with np.errstate(over="ignore", under="ignore"):
        value = float(np.prod(nonzero)) if nonzero.size else 1.0
    if not math.isfinite(value) or (nonzero.size and value == 0.0):
        raise OverflowError("pseudo-determinant out of float range; use log_pseudo_det")
    return value


def log_pseudo_det(s: SymPsd) -> float:
    """Natural log of the pseudo-determinant; 0 for the zero matrix."""
    nonzero = s.eigenvalues[s.support()]
    return float(np.sum(np.log(nonzero))) if nonzero.size else 0.0


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


def approx_factor(gram_ref: SymPsd, gram_test: SymPsd, strict: bool = False) -> float:
    """Tightest eps with (1-eps) ref <= test <= (1+eps) ref on Im(ref).

    Computed as max |lambda - 1| over the eigenvalues of
    ref^{+/2} test ref^{+/2} restricted to the reference image. Returns
    math.inf when the test matrix has mass on Ker(ref) (no finite eps
    exists); with strict=True that case raises ImageMismatch instead.
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
            if strict:
                raise ImageMismatch("test matrix has mass on the reference kernel")
            return math.inf
    if gram_ref.rank == 0:
        return 0.0
    vs = gram_ref.eigenvectors[:, mask]
    half = vs / np.sqrt(gram_ref.eigenvalues[mask])
    w = half.T @ t @ half
    mu = np.linalg.eigvalsh(w)
    return float(np.max(np.abs(mu - 1.0)))
