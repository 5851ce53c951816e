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

Whether a signal (a residual, a leak, a fit's error) is zero is decided
by :func:`_negligible` alone, against a scale and with no absolute floor,
and whether a matrix entry is an arc by :func:`_support` alone.

A public ``Subspace(n, basis)`` checks that its basis is orthonormal.
The bases this module builds itself are trusted and skip that check:
the zero subspace, the identity basis of a full kernel, and the
singular-vector factors that ``image`` and ``kernel`` take from an
SVD, which LAPACK returns orthonormal to working precision.

``image`` and ``kernel`` are the one-operand case of private stacked
forms that take many operands at once: operands of one shape share one
``np.linalg.svd`` call, in chunks capped by ``_STACK_ENTRIES``, and every
member is cut by the same :func:`_numeric_rank`, against its own largest
singular value or a scale the caller knows, such as the size of the map
an operand restricts.  A stacked split returns the row space with the
null space, for fixpoints that need both.
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


def _negligible(r, scale, rel: float) -> bool:
    """``max|r| <= rel * max|scale|``: scaling both never changes it, and
    an all-zero ``r`` is zero against any scale, a zero one included."""
    return bool(np.max(np.abs(r), initial=0.0)
                <= rel * np.max(np.abs(scale), initial=0.0))


# A row-stochastic matrix has no negative entry and row sums this close to 1.
_ROW_SUM_TOL = 1e-10


def _support(A) -> np.ndarray:
    """Entries of ``A`` that are arcs: ``|a| > 1e-12``; (i, j) is j -> i."""
    return np.abs(A) > 1e-12


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
        """Membership test by projection residual relative to the vector:
        ``||v - Q Q^H v|| <= membership * ||v||``, so the zero vector is in
        every subspace and scaling ``v`` never changes the answer."""
        v = np.ravel(x) if np.iscomplexobj(x) else as_vector(x)
        if v.size != self.ambient_dim:
            raise ValueError("vector dimension does not match ambient space")
        resid = np.linalg.norm(v - self.basis @ (self.basis.conj().T @ v))
        return bool(resid <= _POLICY.membership * np.linalg.norm(v))


def _trusted(n: int, basis: np.ndarray) -> Subspace:
    """A subspace on a basis orthonormal by construction, left unchecked."""
    S = object.__new__(Subspace)
    object.__setattr__(S, "ambient_dim", n)
    object.__setattr__(S, "basis", basis)
    basis.setflags(write=False)
    return S


def zero_subspace(n: int) -> Subspace:
    return _trusted(n, np.zeros((n, 0)))


def _numeric_rank(s: np.ndarray, scale: float | None = None) -> int:
    """Singular values above ``rank_rel`` times ``scale``, the largest
    singular value unless given, and above ``zero_abs``."""
    if s.size == 0:
        return 0
    thresh = max((s[0] if scale is None else scale) * _POLICY.rank_rel,
                 _POLICY.zero_abs)
    return int(np.count_nonzero(s > thresh))


# Most entries the largest SVD factor of one stack holds.  ``_images`` and
# ``_splits`` split a larger group of equal-shaped operands into chunks,
# and ``netguard.fdi`` sizes what it advances at once by the same measure,
# which bounds the memory of the stacked calls.
_STACK_ENTRIES = 1 << 16


def _stack_size(rows: int, cols: int) -> int:
    """How many ``rows x cols`` operands one stacked SVD takes: as many as
    keep its largest factor within ``_STACK_ENTRIES`` entries, at least one."""
    return max(1, _STACK_ENTRIES // max(rows, cols, 1) ** 2)


def _stacked_svds(Ms, full_matrices: bool) -> list:
    """``np.linalg.svd`` of each matrix in ``Ms``, as ``(U, s, Vh)``.

    Operands of one shape and dtype share a call, in chunks of at most
    :func:`_stack_size` members.  LAPACK factors each member of a stack on
    its own, so every result is bitwise the one a separate call returns.
    """
    groups = {}
    for i, M in enumerate(Ms):
        groups.setdefault((M.shape, M.dtype), []).append(i)
    out = [None] * len(Ms)
    for (shape, _), members in groups.items():
        chunk = _stack_size(*shape)
        for lo in range(0, len(members), chunk):
            part = members[lo:lo + chunk]
            U, s, Vh = np.linalg.svd(np.stack([Ms[i] for i in part]),
                                     full_matrices=full_matrices)
            for g, i in enumerate(part):
                out[i] = (U[g], s[g], Vh[g])
    return out


def _images(Ms, scales=None) -> list:
    """Orthonormal bases of the column spaces of the 2-d arrays ``Ms``.

    An operand with no nonzero entry has the zero subspace; the others are
    cut at :func:`_numeric_rank` of their singular values against
    ``scales[i]`` (by default their own largest), their SVDs stacked by
    :func:`_stacked_svds`.
    """
    bases = [np.zeros((M.shape[0], 0)) for M in Ms]
    live = [i for i, M in enumerate(Ms) if M.any()]
    for i, (U, s, _) in zip(live, _stacked_svds([Ms[i] for i in live], False)):
        scale = None if scales is None else scales[i]
        bases[i] = U[:, :_numeric_rank(s, scale)].copy()
    return bases


def _splits(Ms, scales=None) -> list:
    """Orthonormal bases ``(R, N)`` of the row space and the null space of
    each 2-d array in ``Ms``, one the complement of the other.

    An operand with no nonzero entry (no rows included) has no row space
    and the full null space; the others split their right singular
    vectors at :func:`_numeric_rank` of their singular values against
    ``scales[i]`` (by default their own largest), their SVDs stacked by
    :func:`_stacked_svds`.
    """
    out = [None] * len(Ms)
    live = []
    for i, M in enumerate(Ms):
        if M.any():
            live.append(i)
        else:
            out[i] = (np.zeros((M.shape[1], 0)), np.eye(M.shape[1]))
    for i, (_, s, Vh) in zip(live, _stacked_svds([Ms[i] for i in live], True)):
        r = _numeric_rank(s, None if scales is None else scales[i])
        out[i] = (Vh[:r].conj().T.copy(), Vh[r:].conj().T.copy())
    return out


def _kernels(Ms) -> list:
    """Orthonormal bases of the null spaces of the 2-d arrays ``Ms``: the
    null-space half of :func:`_splits`, each cut against its own largest
    singular value."""
    return [N for _, N in _splits(Ms)]


def image(M) -> Subspace:
    """Orthonormal basis of the column space of ``M``."""
    M = _operand(M)
    return _trusted(M.shape[0], _images([M])[0])


def kernel(M) -> Subspace:
    """Orthonormal basis of the null space of ``M``."""
    M = _operand(M)
    return _trusted(M.shape[1], _kernels([M])[0])


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


def left_fixed_vector(A) -> np.ndarray:
    """Stationary left vector of a row-stochastic irreducible matrix.

    Returns the unique nonnegative row vector ``pi`` with
    ``pi @ A == pi`` and ``sum(pi) == 1``: the right singular vector of
    ``A.T - I`` for its smallest singular value.  Uniqueness is read from
    the :func:`_support` of ``A`` (exactly one closed strongly connected
    class), so it does not depend on the rank tolerance.

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
    if np.any(A < 0):
        raise ValueError("matrix is not row-stochastic: negative entry")
    row_err = np.max(np.abs(A.sum(axis=1) - 1.0)) if n else 0.0
    if row_err > _ROW_SUM_TOL:
        raise ValueError(f"matrix is not row-stochastic: row sum error {row_err:.2e}")
    # one stationary vector per closed class: a class no arc leaves
    pattern = _support(A)
    count, labels = connected_components(pattern, connection="strong")
    rows, cols = np.nonzero(pattern)
    leaving = labels[rows][labels[rows] != labels[cols]]
    if count - len(np.unique(leaving)) != 1:
        raise ValueError("stationary vector is not unique; matrix is reducible")
    return _stationary_vector(A)


def _stationary_vector(A: np.ndarray) -> np.ndarray:
    """:func:`left_fixed_vector` with its checks on ``A`` skipped."""
    pi = np.linalg.svd(A.T - np.eye(A.shape[0]))[2][-1]
    pi = pi / pi.sum()
    if np.min(pi) < -1e-10:
        raise ValueError("stationary vector has negative entries")
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()
