"""Tolerance-aware dense subspace algebra.

Every geometric computation in the package funnels through this module.
Subspaces are always carried as orthonormal bases (never raw spanning
sets); the zero subspace is a basis with zero columns.  All rank
decisions share a single tolerance policy so that the invariant-subspace
fixpoint iterations elsewhere stay mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TolerancePolicy:
    """Shared tolerance settings for rank and membership decisions.

    Parameters
    ----------
    rank_rel : float
        Singular values below ``rank_rel * sigma_max`` are treated as
        zero when deciding ranks.
    zero_abs : float
        Absolute floor used for matrices whose largest singular value is
        itself negligible.
    membership : float
        Projection-residual tolerance for membership and subspace
        equality tests.
    """

    rank_rel: float = 1e-9
    zero_abs: float = 1e-12
    membership: float = 1e-8


_POLICY = TolerancePolicy()


def get_policy() -> TolerancePolicy:
    """Return the tolerance policy shared by all geometric routines."""
    return _POLICY


def set_rank_tolerance(rank_rel: float) -> None:
    """Override the relative rank tolerance used package-wide."""
    if not rank_rel > 0:
        raise ValueError("rank tolerance must be positive")
    _POLICY.rank_rel = float(rank_rel)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-d float array, rejecting NaN/Inf entries."""
    M = np.asarray(a, dtype=float)
    if M.ndim == 1:
        M = M.reshape(1, -1)
    if M.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional")
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce ``a`` to a 1-d float array, rejecting NaN/Inf entries."""
    v = np.asarray(a, dtype=float).reshape(-1)
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _resolve_tol(tol: float | None) -> float:
    return _POLICY.rank_rel if tol is None else float(tol)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^n held as an orthonormal basis.

    Attributes
    ----------
    ambient_dim : int
        Dimension n of the surrounding space.
    basis : (n, r) ndarray
        Orthonormal columns spanning the subspace; ``r == 0`` encodes
        the zero subspace.
    tol : float
        Relative rank tolerance that produced this basis.
    """

    ambient_dim: int
    basis: np.ndarray
    tol: float

    def __post_init__(self):
        b = self.basis
        if b.shape != (self.ambient_dim, b.shape[1]):
            raise ValueError("basis rows must match ambient dimension")
        if b.shape[1] > self.ambient_dim:
            raise ValueError("basis has more columns than ambient dimension")
        if b.shape[1]:
            gram = b.T @ b
            if not np.allclose(gram, np.eye(b.shape[1]), atol=1e-8):
                raise ValueError("basis columns are not orthonormal")
        b.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace."""
        return self.basis @ self.basis.T

    def perp_projector(self) -> np.ndarray:
        """Orthogonal projector onto the orthogonal complement."""
        return np.eye(self.ambient_dim) - self.projector()

    def contains(self, x, tol: float | None = None) -> bool:
        """Membership test by projection residual."""
        v = as_vector(x)
        if v.size != self.ambient_dim:
            raise ValueError("vector dimension does not match ambient space")
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return True
        atol = _POLICY.membership if tol is None else float(tol)
        resid = v - self.basis @ (self.basis.T @ v)
        return np.linalg.norm(resid) <= atol * max(1.0, norm)


def zero_subspace(n: int, tol: float | None = None) -> Subspace:
    return Subspace(n, np.zeros((n, 0)), _resolve_tol(tol))


def full_subspace(n: int, tol: float | None = None) -> Subspace:
    return Subspace(n, np.eye(n), _resolve_tol(tol))


def _numeric_rank(s: np.ndarray, tol: float) -> int:
    if s.size == 0:
        return 0
    thresh = max(s[0] * tol, _POLICY.zero_abs)
    return int(np.sum(s > thresh))


def image(M, tol: float | None = None) -> Subspace:
    """Orthonormal basis of the column space of ``M``.

    Rank is decided by singular values exceeding ``tol`` times the
    largest singular value.
    """
    M = as_matrix(M)
    tol = _resolve_tol(tol)
    n = M.shape[0]
    if M.shape[1] == 0 or not np.any(M):
        return zero_subspace(n, tol)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    r = _numeric_rank(s, tol)
    return Subspace(n, U[:, :r].copy(), tol)


def kernel(M, tol: float | None = None) -> Subspace:
    """Orthonormal basis of the null space of ``M``."""
    M = as_matrix(M)
    tol = _resolve_tol(tol)
    rows, cols = M.shape
    if rows == 0 or not np.any(M):
        return full_subspace(cols, tol)
    _, s, Vt = np.linalg.svd(M, full_matrices=True)
    r = _numeric_rank(s, tol)
    return Subspace(cols, Vt[r:].T.copy(), tol)


def rank(M, tol: float | None = None) -> int:
    """Numeric rank of ``M`` (real or complex) under the shared policy."""
    M = np.atleast_2d(np.asarray(M))
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return _numeric_rank(s, _resolve_tol(tol))


def from_span(columns, ambient_dim: int | None = None,
              tol: float | None = None) -> Subspace:
    """Build a subspace from a raw (possibly dependent) spanning set."""
    M = as_matrix(columns)
    if ambient_dim is not None and M.shape != (ambient_dim, M.shape[1]):
        raise ValueError("spanning set rows do not match ambient dimension")
    return image(M, tol)


def subspace_sum(S1: Subspace, S2: Subspace, tol: float | None = None) -> Subspace:
    """Smallest subspace containing both arguments."""
    if S1.ambient_dim != S2.ambient_dim:
        raise ValueError("subspace ambient dimensions differ")
    return image(np.hstack([S1.basis, S2.basis]), tol)


def subspace_intersect(S1: Subspace, S2: Subspace,
                       tol: float | None = None) -> Subspace:
    """Largest subspace contained in both arguments.

    Computed as the kernel of the stacked projectors onto the two
    orthogonal complements.
    """
    if S1.ambient_dim != S2.ambient_dim:
        raise ValueError("subspace ambient dimensions differ")
    stacked = np.vstack([S1.perp_projector(), S2.perp_projector()])
    return kernel(stacked, tol)


def preimage(A, S: Subspace, tol: float | None = None) -> Subspace:
    """Inverse image {x : A x in S}.

    Equals the kernel of ``P_perp @ A`` where ``P_perp`` projects onto
    the orthogonal complement of ``S``.
    """
    A = as_matrix(A)
    if A.shape[0] != S.ambient_dim:
        raise ValueError("map codomain does not match subspace ambient space")
    return kernel(S.perp_projector() @ A, tol)


def contains(S: Subspace, x, tol: float | None = None) -> bool:
    """Membership of a vector in a subspace (projection residual test)."""
    return S.contains(x, tol)


def subspace_leq(S1: Subspace, S2: Subspace, tol: float | None = None) -> bool:
    """True when ``S1`` is contained in ``S2`` within tolerance."""
    if S1.ambient_dim != S2.ambient_dim:
        raise ValueError("subspace ambient dimensions differ")
    if S1.is_zero:
        return True
    atol = _POLICY.membership if tol is None else float(tol)
    resid = S1.basis - S2.basis @ (S2.basis.T @ S1.basis)
    return np.linalg.norm(resid, ord=2) <= atol


def subspace_equal(S1: Subspace, S2: Subspace, tol: float | None = None) -> bool:
    """Equality of subspaces within tolerance."""
    return (S1.dim == S2.dim and subspace_leq(S1, S2, tol)
            and subspace_leq(S2, S1, tol))


def principal_angles(S1: Subspace, S2: Subspace) -> np.ndarray:
    """Principal angles between two subspaces (radians, decreasing)."""
    from scipy.linalg import subspace_angles

    if S1.is_zero or S2.is_zero:
        return np.zeros(0)
    return subspace_angles(S1.basis, S2.basis)


def left_fixed_vector(A, tol: float = 1e-8) -> np.ndarray:
    """Stationary left vector of a row-stochastic irreducible matrix.

    Returns the unique nonnegative row vector ``pi`` with
    ``pi @ A == pi`` and ``sum(pi) == 1``.

    Raises
    ------
    ValueError
        If ``A`` is not row-stochastic, or the fixed vector is not
        unique (reducible matrix).
    """
    A = as_matrix(A)
    n, m = A.shape
    if n != m:
        raise ValueError("matrix must be square")
    if np.min(A) < -1e-12:
        raise ValueError("matrix is not row-stochastic: negative entry")
    row_err = np.max(np.abs(A.sum(axis=1) - 1.0)) if n else 0.0
    if row_err > tol:
        raise ValueError(f"matrix is not row-stochastic: row sum error {row_err:.2e}")
    fixed = kernel(A.T - np.eye(n))
    if fixed.dim != 1:
        raise ValueError("stationary vector is not unique; matrix is reducible")
    pi = fixed.basis[:, 0]
    pi = pi / pi.sum()
    if np.min(pi) < -1e-10:
        raise ValueError("stationary vector has negative entries")
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()
