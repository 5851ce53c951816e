"""Geometric fault detection machinery.

Maximal output-nulling controlled invariants, minimal conditioned
invariants, the unobservability subspace S_M they span, the solvability
test for isolating one input against the others, and parity-space
residual generator synthesis.  An input image ``Im U`` is isolable
against a decoupled set exactly when it meets S_M only in zero
(Massoumnia, Verghese and Willsky, IEEE TAC 1989); every such decision
here, in :func:`fdi_solvable` and in synthesis, is made by one rule: the
smallest singular value of ``(I - Q Q^T) U``, for orthonormal bases
``Q`` of S_M and ``U`` of the input image, exceeds the ``membership``
tolerance of the shared policy.  Each invariant fixpoint step is one
kernel or one image, and each V* iterate is built inside the last
(Wonham, *Linear Multivariable Control*; Basile and Marro, *Controlled
and Conditioned Invariants*, 1992).  A residual generator is a filter
driven by the measurements only,

    w(t+1) = F w(t) + E y(t),      r(t) = M w(t) + H y(t),

whose residual is identically zero after a finite horizon whenever its
target input stays zero, for every initial condition and every input of
the decoupled set.  The filters built here are shift registers of the
last L outputs: the residual is a parity relation ``W [y(t-L); ...;
y(t)]`` whose weights annihilate the window's observability and
decoupled-input maps (Chow and Willsky, IEEE TAC 1984).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import numerics
from .numerics import Subspace, as_matrix, image, kernel, subspace_sum


def max_controlled_invariant(A, B, C) -> Subspace:
    """Largest subspace V in Ker C with ``A V <= V + Im B``.

    Fixpoint of ``V_0 = Ker C``, ``V_{k+1} = V_k Ker(P_k A V_k)`` with
    ``P_k`` projecting onto the complement of ``V_k + Im B``: the set
    ``Ker C ^ A^{-1}(V_k + Im B)``, built inside ``V_k`` so that the
    iterates are nested in floating point too.  The first step that keeps
    the dimension is then the fixpoint, reached in at most n steps.
    """
    A = as_matrix(A)
    n = A.shape[0]
    B = _input_or_empty(B, n)
    C = _output_or_empty(C, n)
    V = kernel(C).basis
    while V.shape[1]:
        Q = image(np.hstack([V, B])).basis
        AV = A @ V
        inner = kernel(AV - Q @ (Q.T @ AV)).basis
        if inner.shape[1] == V.shape[1]:
            break
        V = V @ inner
    return Subspace(n, V)


def min_conditioned_invariant(A, B, C) -> Subspace:
    """Smallest subspace S containing Im B with ``A(S ^ Ker C) <= S``.

    Fixpoint of ``S_0 = Im B``, ``S_{k+1} = Im [B, A S_k Ker(C S_k)]``, as
    ``S_k Ker(C S_k)`` spans ``S_k ^ Ker C``.  The iterates grow, so the
    first step that keeps the dimension is the fixpoint.
    """
    A = as_matrix(A)
    n = A.shape[0]
    B = _input_or_empty(B, n)
    C = _output_or_empty(C, n)
    S = image(B)
    for _ in range(n + 1):
        meet = S.basis @ kernel(C @ S.basis).basis
        nxt = image(np.hstack([B, A @ meet]))
        if nxt.dim == S.dim:
            return nxt
        S = nxt
    return S


def unobservability_subspace(A, B_others, C) -> Subspace:
    """Sum of the two invariant-subspace fixpoints for the decoupled inputs.

    This is the carrier of everything a residual cannot be made to see:
    a target input is isolable against ``B_others`` exactly when its
    image meets this subspace trivially.
    """
    V = max_controlled_invariant(A, B_others, C)
    S = min_conditioned_invariant(A, B_others, C)
    return subspace_sum(V, S)


def _meets_trivially(S_M: Subspace, bases: np.ndarray) -> np.ndarray:
    """Which of the subspaces ``Im bases[g]`` meet ``S_M`` only in zero.

    ``bases`` stacks orthonormal ``(n, r)`` bases as a ``(g, n, r)`` array.
    Each is projected off ``S_M`` once, as ``(I - Q Q^T) U`` with ``Q`` the
    basis of ``S_M``; its image meets ``S_M`` trivially exactly when the
    smallest singular value of that projection exceeds the membership
    tolerance of the shared policy.  For one unit vector this is its
    residual norm, the negation of ``Subspace.contains``; an empty basis
    meets everything trivially.
    """
    Q = S_M.basis
    projected = bases - Q @ (Q.T @ bases)
    sigma = np.linalg.svd(projected, compute_uv=False)
    return np.min(sigma, axis=-1, initial=np.inf) > numerics.get_policy().membership


def fdi_solvable(A, B_all, C, i: int) -> bool:
    """Can input ``i`` of the list be isolated against all the others?

    True iff ``Im(B_i)`` meets the unobservability subspace of the
    remaining inputs only in zero, decided by the rule synthesis uses:
    the smallest singular value of ``Im(B_i)``'s projection off that
    subspace exceeds the membership tolerance.
    """
    A = as_matrix(A)
    mats = [_input_or_empty(b, A.shape[0]) for b in B_all]
    if not 0 <= i < len(mats):
        raise ValueError("target index out of range")
    others = [b for k, b in enumerate(mats) if k != i]
    B_others = np.hstack(others) if others else np.zeros((A.shape[0], 0))
    S_M = unobservability_subspace(A, B_others, C)
    return bool(_meets_trivially(S_M, image(mats[i]).basis[None])[0])


def _input_or_empty(B, n: int) -> np.ndarray:
    B = np.asarray(B, dtype=float)
    if B.size == 0:
        return np.zeros((n, 0))
    B = as_matrix(B)
    if B.shape[0] != n:
        raise ValueError("input matrix rows do not match the state dimension")
    return B


def _output_or_empty(C, n: int) -> np.ndarray:
    C = np.asarray(C, dtype=float)
    if C.size == 0:
        return np.zeros((0, n))
    C = as_matrix(C)
    if C.shape[1] != n:
        raise ValueError("output matrix columns do not match the state dimension")
    return C


@dataclass(frozen=True)
class ResidualGenerator:
    """Finite-horizon residual filter (F, E, M, H) driven by measurements only.

    ``F`` is nilpotent of index at most ``horizon``: ``F^horizon = 0``,
    decided relative to ``||F||^horizon`` with the ``rank_rel`` tolerance
    of the shared policy, and a generator breaking that contract is
    rejected.  The filter then has the finite impulse response
    ``K_0 = H``, ``K_s = M F^(s-1) E`` for ``s = 1..horizon``, and its
    residual settles exactly within ``horizon`` steps.  ``target`` and
    ``decoupled`` record the input labels the filter must respond to and
    must ignore.
    """

    F: np.ndarray
    E: np.ndarray
    M: np.ndarray
    H: np.ndarray
    horizon: int
    target: tuple = ()
    decoupled: tuple = ()

    def __post_init__(self):
        for mat in (self.F, self.E, self.M, self.H):
            mat.setflags(write=False)
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        power = np.linalg.norm(np.linalg.matrix_power(self.F, self.horizon))
        scale = np.linalg.norm(self.F) ** self.horizon
        if power > numerics.get_policy().rank_rel * scale:
            raise ValueError(f"F^{self.horizon} is not zero: the filter does "
                             f"not settle within its horizon")

    @property
    def state_dim(self) -> int:
        return self.F.shape[0]

    @property
    def output_dim(self) -> int:
        return self.M.shape[0]

    def to_json(self) -> str:
        payload = {
            "F": self.F.tolist(), "E": self.E.tolist(),
            "M": self.M.tolist(), "H": self.H.tolist(),
            "horizon": self.horizon,
            "target": list(self.target), "decoupled": list(self.decoupled),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ResidualGenerator":
        d = json.loads(text)
        return cls(F=np.array(d["F"], dtype=float),
                   E=np.array(d["E"], dtype=float),
                   M=np.array(d["M"], dtype=float),
                   H=np.array(d["H"], dtype=float),
                   horizon=int(d["horizon"]),
                   target=tuple(d["target"]), decoupled=tuple(d["decoupled"]))


@dataclass(frozen=True)
class SynthesisReport:
    """Outcome of a residual-generator synthesis.

    Carries the two invariant subspaces and their sum for the decoupled
    input set, the solvability verdict, and the filter itself (None when
    the target cannot be isolated).  ``outside`` lists the coordinates
    ``i`` (from 0) whose unit vector ``e_i`` meets ``S_M`` only in zero,
    so an input entering there is isolable against the decoupled set.
    It and ``solvable`` are decided by one rule: the smallest singular
    value of the projection off ``S_M`` exceeds the membership tolerance.
    """

    V_star: Subspace
    S_star: Subspace
    S_M: Subspace
    outside: tuple
    solvable: bool
    generator: ResidualGenerator | None


def _markov_blocks(gen: ResidualGenerator) -> np.ndarray:
    """The filter's impulse response ``K_0 = H``, ``K_s = M F^(s-1) E`` for
    ``s = 1..horizon``, stacked as a ``(horizon + 1, q, p)`` array; by the
    ``F^horizon = 0`` contract every later block is zero."""
    blocks = [gen.H]
    G = gen.E
    for _ in range(gen.horizon):
        blocks.append(gen.M @ G)
        G = gen.F @ G
    return np.array(blocks)


def run_residual(gen: ResidualGenerator, ys) -> np.ndarray:
    """Filter residual from ``w(0) = 0`` along an output sequence.

    As ``F^horizon = 0``, the residual is the finite convolution
    ``r(t) = sum_{s=0..h} K_s y(t-s)`` with the Markov blocks ``K_0 = H``
    and ``K_s = M F^(s-1) E``, ``h`` the horizon and ``y`` zero before
    the first sample: one product of the stacked blocks with the
    zero-padded sliding windows ``[y(t-h); ...; y(t)]``, equal to the
    filter recursion.  For a shift register the blocks are those of its
    parity weights.
    """
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    T, p = ys.shape
    h = gen.horizon
    K = _markov_blocks(gen)[::-1]
    K = K.transpose(1, 0, 2).reshape(gen.output_dim, (h + 1) * p)
    if T == 0:
        return np.zeros((0, gen.output_dim))
    padded = np.vstack([np.zeros((h, p)), ys])
    windows = np.lib.stride_tricks.sliding_window_view(padded, (h + 1, p))
    return windows.reshape(T, (h + 1) * p) @ K.T


def _block_toeplitz(markov: list, p: int, m: int) -> np.ndarray:
    """Block Toeplitz map of ``L = len(markov)`` Markov parameters.

    Block ``(s, tau)``, ``s, tau = 0..L``, is ``markov[s - tau - 1]`` below
    the diagonal and zero on and above it.
    """
    L = len(markov)
    s, tau = np.tril_indices(L + 1, -1)
    T = np.zeros((L + 1, p, L + 1, m))
    T[s, :, tau, :] = np.reshape(markov, (L, p, m))[s - tau - 1]
    return T.reshape((L + 1) * p, (L + 1) * m)


def _window_maps(A, B, C, L: int):
    """Maps of an output window of ``L + 1`` steps.

    Returns ``(O, T)`` with ``[y(t-L); ...; y(t)] = O x(t-L) + T [u(t-L);
    ...; u(t)]``: ``O`` stacks ``C A^s`` for ``s = 0..L`` and ``T`` is block
    Toeplitz, its block ``(s, tau)`` being ``C A^(s-tau-1) B`` below the
    diagonal and zero on and above it.
    """
    rows = [C]
    for _ in range(L):
        rows.append(rows[-1] @ A)
    markov = [CA @ B for CA in rows[:L]]
    return np.vstack(rows), _block_toeplitz(markov, C.shape[0], B.shape[1])


def _parity_weights(A, Bd, watched, C):
    """Shortest parity relation ignoring ``Bd`` that sees every watched input.

    For ``L = 1..n`` the rows of ``W`` span the left null space of
    ``[O_L, T_L Bd]``, so ``W`` applied to the last ``L + 1`` outputs
    cancels the state and the decoupled inputs; the first ``L`` at which
    ``W T_L b`` is nonzero, relative to ``T_L b``, for each watched column
    ``b`` is returned with ``W``.  ``None`` when no window up to ``n``
    does.  ``C A^s`` and ``C A^s [Bd, watched]`` grow by one power per
    window, and the maps are stacked from them.  No null space is taken
    while some watched ``C A^s b``, ``s < L``, is still exactly zero: that
    ``T_L b`` is zero, so the window fails the test.
    """
    n = A.shape[0]
    p, md = C.shape[0], Bd.shape[1]
    atol = numerics.get_policy().membership
    B = np.hstack([Bd, watched])
    rows, markov = [C], []
    unseen = np.ones(watched.shape[1], dtype=bool)
    for L in range(1, n + 1):
        markov.append(rows[-1] @ B)
        rows.append(rows[-1] @ A)
        unseen &= ~np.any(markov[-1][:, md:], axis=0)
        if np.any(unseen):
            continue
        T = _block_toeplitz(markov, p, B.shape[1])
        T = T.reshape(T.shape[0], L + 1, -1)
        decoupled = T[:, :, :md].reshape(T.shape[0], -1)
        W = kernel(np.hstack([np.vstack(rows), decoupled]).T).basis.T
        if W.shape[0] == 0:
            continue
        seen = [T[:, :, c] for c in range(md, T.shape[2])]
        if all(np.linalg.norm(W @ Tb) > atol * np.linalg.norm(Tb)
               for Tb in seen):
            return L, W
    return None


def _echelon(W: np.ndarray, p: int) -> np.ndarray:
    """Rows of ``W`` recombined so its last ``p`` columns hold an identity.

    Applies when that block ``H`` has full row rank; the identity sits on
    pivot columns of ``H`` chosen by pivoted QR, so the residual no longer
    depends on the basis the null-space solver returned.
    """
    H = W[:, -p:]
    q = W.shape[0]
    if q > p or numerics.rank(H) < q:
        return W
    _, _, piv = scipy.linalg.qr(H, pivoting=True)
    return np.linalg.solve(H[:, np.sort(piv[:q])], W)


def synthesize_residual_generator(A, B_target, B_decouple, C) -> SynthesisReport:
    """Design a parity-space filter isolating the target inputs.

    The residual is a parity relation ``W [y(t-L); ...; y(t)]`` on the
    shortest window whose weights annihilate the initial state and the
    decoupled inputs yet see every target column (with no target, every
    coordinate direction outside the unobservability subspace).  The
    filter is a shift register of the last ``L`` outputs, so ``F`` is
    nilpotent by construction and the residual depends on the targets
    alone from step ``L`` on.  When the target image meets the
    unobservability subspace the problem is unsolvable and the report
    carries no generator; so it does when no window up to ``n`` separates
    the targets numerically.
    """
    A = as_matrix(A)
    n = A.shape[0]
    Bt = _input_or_empty(B_target, n)
    Bd = _input_or_empty(B_decouple, n)
    C = _output_or_empty(C, n)
    V_star = max_controlled_invariant(A, Bd, C)
    S_star = min_conditioned_invariant(A, Bd, C)
    S_M = subspace_sum(V_star, S_star)
    eye = np.eye(n)
    isolable = _meets_trivially(S_M, eye[:, :, None])
    outside = tuple(np.flatnonzero(isolable).tolist())
    if Bt.shape[1]:
        solvable = bool(_meets_trivially(S_M, image(Bt).basis[None])[0])
        watched = Bt
    else:
        solvable = bool(outside)
        watched = eye[:, list(outside)]
    found = _parity_weights(A, Bd, watched, C) if solvable else None
    if found is None:
        return SynthesisReport(V_star=V_star, S_star=S_star, S_M=S_M,
                               outside=outside, solvable=False, generator=None)
    L, W = found
    p = C.shape[0]
    W = _echelon(W, p)
    F = np.eye(L * p, k=p)
    E = np.vstack([np.zeros(((L - 1) * p, p)), np.eye(p)])
    gen = ResidualGenerator(F=F, E=E, M=W[:, :-p], H=W[:, -p:], horizon=L)
    return SynthesisReport(V_star=V_star, S_star=S_star, S_M=S_M,
                           outside=outside, solvable=True, generator=gen)
