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

``image``, ``kernel`` and ``rank`` are the one-operand case of private
stacked forms that take a 3-d stack of equal-shaped operands: one
``np.linalg.svd`` call, in chunks capped by ``_STACK_ENTRIES``, and one
vectorised cut by :func:`_numeric_ranks` for all members, each against
its own largest singular value or a scale the caller knows, such as the
size of the map an operand restricts.  The bases come back grouped by
dimension, one stack per group, so a caller keeps its members stacked
and splits them only where their rank decisions differ.  A stacked
split returns the row space with the null space, for fixpoints that
need both.
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
    return int(_numeric_ranks(s[None], scale)[0])


def _numeric_ranks(s: np.ndarray, scales=None) -> np.ndarray:
    """:func:`_numeric_rank` of each row of the ``(g, k)`` singular values
    ``s``, against ``scales[i]`` (or one scale for all) or, by default, the
    row's largest.  A stack cuts all rows in a few array calls; one row,
    the stack of a bank of one, is cut with the same arithmetic on
    scalars, which costs it less."""
    if len(s) == 1 and s.shape[1]:
        top = s[0, 0] if scales is None else np.ravel(scales)[0]
        thresh = max(top * _POLICY.rank_rel, _POLICY.zero_abs)
        return np.array([np.count_nonzero(s[0] > thresh)])
    top = s[:, :1] if scales is None else np.reshape(scales, (-1, 1))
    thresh = np.maximum(top * _POLICY.rank_rel, _POLICY.zero_abs)
    return np.add.reduce(s > thresh, axis=1, dtype=np.intp)


# Most entries the largest SVD factor of one stack holds.  A larger stack
# is factored in chunks, and ``netguard.fdi`` sizes what it advances at
# once by the same measure, which bounds the memory of the stacked calls.
_STACK_ENTRIES = 1 << 16


def _stack_size(rows: int, cols: int) -> int:
    """How many ``rows x cols`` operands one stacked SVD takes: as many as
    keep its largest factor within ``_STACK_ENTRIES`` entries, at least one."""
    return max(1, _STACK_ENTRIES // max(rows, cols, 1) ** 2)


def _ranked_svds(M: np.ndarray, full_matrices: bool, scales) -> list:
    """``np.linalg.svd`` of the 3-d stack ``M``, one call per chunk of at
    most :func:`_stack_size` members, and the members of each chunk
    grouped by :func:`_numeric_ranks` against ``scales``: ``(r, members,
    local, U, Vh)`` for each group, ``members`` its positions in ``M`` and
    ``local`` in the chunk's factors ``U`` and ``Vh``.  LAPACK factors
    each member of a stack on its own, so every result is bitwise the one
    a separate call returns."""
    step = _stack_size(*M.shape[1:])
    if len(M) <= step:
        chunks = [(slice(None), scales)]
    else:
        if scales is not None:
            scales = np.broadcast_to(np.reshape(scales, (-1, 1)), (len(M), 1))
        chunks = [(slice(lo, lo + step),
                   None if scales is None else scales[lo:lo + step])
                  for lo in range(0, len(M), step)]
    out = []
    for chunk, chunk_scales in chunks:
        U, s, Vh = np.linalg.svd(M[chunk], full_matrices=full_matrices)
        for r, local in _rank_groups(_numeric_ranks(s, chunk_scales)):
            members = (local if chunk.start is None
                       else np.arange(chunk.start, chunk.start + len(s))[local])
            out.append((r, members, local, U, Vh))
    return out


def _rank_groups(ranks: np.ndarray) -> list:
    """``(r, members)`` for each distinct rank ``r``: ``members`` indexes the
    stack positions of that rank, ``slice(None)`` when they are all."""
    first = ranks[0]
    if len(ranks) == 1 or (ranks == first).all():
        return [(int(first), slice(None))]
    return [(int(r), np.flatnonzero(ranks == r)) for r in np.unique(ranks)]


def _frobenius(M: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each real matrix of the stack ``M``, bit for bit:
    the square root of the same dot product of its entries in row order."""
    flat = M.reshape(len(M), 1, -1)
    return np.sqrt(np.matmul(flat, flat.transpose(0, 2, 1))[:, 0, 0])


def _images(M: np.ndarray, scales=None) -> list:
    """Orthonormal bases of the column spaces of the 3-d stack ``M``,
    grouped by dimension: ``(members, bases)`` for each, ``bases`` the
    ``(.., rows, r)`` stack of the members it indexes.

    One stacked SVD (:func:`_ranked_svds`) and one rank cut for all: each
    member is cut at :func:`_numeric_ranks` of its singular values against
    ``scales[i]`` (by default its own largest); an operand with no nonzero
    entry has the zero subspace.
    """
    return [(members, np.ascontiguousarray(U[local, :, :r]))
            for r, members, local, U, _ in _ranked_svds(M, False, scales)]


def _splits(M: np.ndarray, scales=None) -> list:
    """Orthonormal bases ``(R, N)`` of the row space and the null space of
    each matrix of the 3-d stack ``M``, one the complement of the other,
    grouped by rank: ``(members, R, N)`` for each, stacks of the members
    it indexes.

    An operand with no nonzero entry (no rows included) has no row space
    and the identity as its null space basis; the others split their right
    singular vectors, from one stacked SVD, at :func:`_numeric_ranks` of
    their singular values against ``scales[i]`` (by default their own
    largest).
    """
    return [(members, V[:, :, :r].copy(), V[:, :, r:].copy())
            for r, members, V in _right_vectors(M, scales)]


def _kernels(M: np.ndarray) -> list:
    """Orthonormal bases of the null spaces of the 3-d stack ``M``: the
    null-space half of :func:`_splits`, ``(members, N)`` for each rank,
    each member cut against its own largest singular value."""
    return [(members, V[:, :, r:].copy())
            for r, members, V in _right_vectors(M, None)]


def _right_vectors(M: np.ndarray, scales) -> list:
    """``(r, members, V)`` for each rank ``r`` of the members of the 3-d
    stack ``M`` (:func:`_numeric_ranks`): ``V`` stacks their right singular
    vectors as columns.  LAPACK factors an operand with no nonzero entry
    with identity singular vectors, and so does numpy an empty one."""
    return [(r, members, Vh[local].transpose(0, 2, 1).conj())
            for r, members, local, _, Vh in _ranked_svds(M, True, scales)]


def image(M) -> Subspace:
    """Orthonormal basis of the column space of ``M``."""
    M = _operand(M)
    return _trusted(M.shape[0], _images(M[None])[0][1][0])


def kernel(M) -> Subspace:
    """Orthonormal basis of the null space of ``M``."""
    M = _operand(M)
    return _trusted(M.shape[1], _kernels(M[None])[0][1][0])


def rank(M) -> int:
    """Numeric rank of ``M`` under the shared policy."""
    M = _operand(M)
    return int(_ranks(M[None])[0])


def _ranks(M: np.ndarray) -> np.ndarray:
    """Numeric rank of each matrix of the 3-d stack ``M``, from one stacked
    SVD without singular vectors."""
    return _numeric_ranks(np.linalg.svd(M, compute_uv=False))


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
