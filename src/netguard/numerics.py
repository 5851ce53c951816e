"""Tolerance-aware dense subspace algebra.

The subspace core of the package: image, kernel, rank, sum and
membership.  Subspaces are always carried as orthonormal bases (never
raw spanning sets); the zero subspace is a basis with zero columns.
Every rank and membership threshold is read from the one tolerance
policy, set through :func:`set_rank_tolerance` or the ``NETGUARD_TOL``
environment variable of the command line; no function takes a
tolerance of its own, so the invariant-subspace fixpoint iterations
elsewhere stay mutually consistent.  Whether a subspace meets another
only in zero is decided in ``netguard.fdi`` alone, by one rule that
reads the ``membership`` tolerance: the smallest singular value of the
projection off the other subspace.  ``image``, ``kernel`` and ``rank``
accept complex matrices as well as real ones.

A public ``Subspace(n, basis)`` checks that its basis is orthonormal.
The bases this module builds itself are trusted and skip that check:
the zero and full subspaces, and the singular-vector factors that
``image`` and ``kernel`` take from an SVD, which LAPACK returns
orthonormal to working precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components


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
        Projection-residual tolerance for membership tests and for the
        trivial-intersection rule of ``netguard.fdi``.
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


def _operand(M) -> np.ndarray:
    """``M`` as a 2-d array: complex input stays complex, any other is
    coerced by :func:`as_matrix`."""
    M = np.asarray(M)
    return np.atleast_2d(M) if np.iscomplexobj(M) else as_matrix(M)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^n (or C^n) held as an orthonormal basis.

    Attributes
    ----------
    ambient_dim : int
        Dimension n of the surrounding space.
    basis : (n, r) ndarray
        Orthonormal columns spanning the subspace; ``r == 0`` encodes
        the zero subspace.  A complex basis is orthonormal under the
        conjugate transpose, which every method uses.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = self.basis
        if b.shape != (self.ambient_dim, b.shape[1]):
            raise ValueError("basis rows must match ambient dimension")
        if b.shape[1] > self.ambient_dim:
            raise ValueError("basis has more columns than ambient dimension")
        if b.shape[1]:
            gram = b.conj().T @ b
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
        return self.basis @ self.basis.conj().T

    def contains(self, x) -> bool:
        """Membership test by projection residual."""
        v = np.ravel(x) if np.iscomplexobj(x) else as_vector(x)
        if v.size != self.ambient_dim:
            raise ValueError("vector dimension does not match ambient space")
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return True
        resid = v - self.basis @ (self.basis.conj().T @ v)
        return np.linalg.norm(resid) <= _POLICY.membership * max(1.0, norm)


def _trusted(n: int, basis: np.ndarray) -> Subspace:
    """A subspace on a basis orthonormal by construction, left unchecked."""
    S = object.__new__(Subspace)
    object.__setattr__(S, "ambient_dim", n)
    object.__setattr__(S, "basis", basis)
    basis.setflags(write=False)
    return S


def zero_subspace(n: int) -> Subspace:
    return _trusted(n, np.zeros((n, 0)))


def full_subspace(n: int) -> Subspace:
    return _trusted(n, np.eye(n))


def _numeric_rank(s: np.ndarray) -> int:
    """Singular values above ``rank_rel`` times the largest, and above
    ``zero_abs``."""
    if s.size == 0:
        return 0
    thresh = max(s[0] * _POLICY.rank_rel, _POLICY.zero_abs)
    return int(np.sum(s > thresh))


def image(M) -> Subspace:
    """Orthonormal basis of the column space of ``M``."""
    M = _operand(M)
    n = M.shape[0]
    if M.shape[1] == 0 or not np.any(M):
        return zero_subspace(n)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return _trusted(n, U[:, :_numeric_rank(s)].copy())


def kernel(M) -> Subspace:
    """Orthonormal basis of the null space of ``M``."""
    M = _operand(M)
    rows, cols = M.shape
    if rows == 0 or not np.any(M):
        return full_subspace(cols)
    _, s, Vh = np.linalg.svd(M, full_matrices=True)
    return _trusted(cols, Vh[_numeric_rank(s):].conj().T.copy())


def rank(M) -> int:
    """Numeric rank of ``M`` under the shared policy."""
    M = _operand(M)
    if M.size == 0:
        return 0
    return _numeric_rank(np.linalg.svd(M, compute_uv=False))


def subspace_sum(S1: Subspace, S2: Subspace) -> Subspace:
    """Smallest subspace containing both arguments."""
    if S1.ambient_dim != S2.ambient_dim:
        raise ValueError("subspace ambient dimensions differ")
    return image(np.hstack([S1.basis, S2.basis]))


def left_fixed_vector(A, tol: float = 1e-8) -> np.ndarray:
    """Stationary left vector of a row-stochastic irreducible matrix.

    Returns the unique nonnegative row vector ``pi`` with
    ``pi @ A == pi`` and ``sum(pi) == 1``: the right singular vector of
    ``A.T - I`` for its smallest singular value.  Uniqueness is read from
    the pattern of ``A`` (exactly one closed strongly connected class),
    so it does not depend on the rank tolerance.

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
    # one stationary vector per closed class: a class no positive entry leaves
    pattern = A > 0
    count, labels = connected_components(pattern, connection="strong")
    rows, cols = np.nonzero(pattern)
    leaving = labels[rows][labels[rows] != labels[cols]]
    if count - len(np.unique(leaving)) != 1:
        raise ValueError("stationary vector is not unique; matrix is reducible")
    pi = np.linalg.svd(A.T - np.eye(n))[2][-1]
    pi = pi / pi.sum()
    if np.min(pi) < -1e-10:
        raise ValueError("stationary vector has negative entries")
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()
