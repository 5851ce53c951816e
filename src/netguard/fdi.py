"""Geometric fault detection machinery.

Maximal output-nulling controlled invariants, minimal conditioned
invariants, the unobservability subspace they span, the solvability test
for isolating one input against the others, and parity-space residual
generator synthesis.  Each invariant fixpoint step is one kernel or one
image (Wonham, *Linear Multivariable Control*; Basile and Marro,
*Controlled and Conditioned Invariants*, 1992).  A residual generator is
a filter driven by the measurements only,

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
from .numerics import (Subspace, as_matrix, image, kernel, subspace_intersect,
                       subspace_sum)


def max_controlled_invariant(A, B, C, tol: float | None = None) -> Subspace:
    """Largest subspace V in Ker C with ``A V <= V + Im B``.

    Fixpoint of ``V_0 = Ker C``, ``V_{k+1} = Ker [C; P_k A]``, which is
    ``Ker C ^ A^{-1}(V_k + Im B)`` with ``P_k`` projecting onto the
    complement of ``V_k + Im B``.  The iterates shrink, so the first step
    that keeps the dimension is the fixpoint, reached in at most n steps.
    """
    A = as_matrix(A)
    n = A.shape[0]
    B = _input_or_empty(B, n)
    C = _output_or_empty(C, n)
    V = kernel(C, tol)
    for _ in range(n + 1):
        P = image(np.hstack([V.basis, B]), tol).perp_projector()
        nxt = kernel(np.vstack([C, P @ A]), tol)
        if nxt.dim == V.dim:
            return nxt
        V = nxt
    return V


def min_conditioned_invariant(A, B, C, tol: float | None = None) -> Subspace:
    """Smallest subspace S containing Im B with ``A(S ^ Ker C) <= S``.

    Fixpoint of ``S_0 = Im B``, ``S_{k+1} = Im [B, A S_k Ker(C S_k)]``, as
    ``S_k Ker(C S_k)`` spans ``S_k ^ Ker C``.  The iterates grow, so the
    first step that keeps the dimension is the fixpoint.
    """
    A = as_matrix(A)
    n = A.shape[0]
    B = _input_or_empty(B, n)
    C = _output_or_empty(C, n)
    S = image(B, tol)
    for _ in range(n + 1):
        meet = S.basis @ kernel(C @ S.basis, tol).basis
        nxt = image(np.hstack([B, A @ meet]), tol)
        if nxt.dim == S.dim:
            return nxt
        S = nxt
    return S


def unobservability_subspace(A, B_others, C, tol: float | None = None) -> Subspace:
    """Sum of the two invariant-subspace fixpoints for the decoupled inputs.

    This is the carrier of everything a residual cannot be made to see:
    a target input is isolable against ``B_others`` exactly when its
    image meets this subspace trivially.
    """
    V = max_controlled_invariant(A, B_others, C, tol)
    S = min_conditioned_invariant(A, B_others, C, tol)
    return subspace_sum(V, S, tol)


def fdi_solvable(A, B_all, C, i: int, tol: float | None = None) -> bool:
    """Can input ``i`` of the list be isolated against all the others?

    True iff ``Im(B_i)`` intersects the unobservability subspace of the
    remaining inputs trivially.
    """
    A = as_matrix(A)
    mats = [_input_or_empty(b, A.shape[0]) for b in B_all]
    if not 0 <= i < len(mats):
        raise ValueError("target index out of range")
    others = [b for k, b in enumerate(mats) if k != i]
    B_others = np.hstack(others) if others else np.zeros((A.shape[0], 0))
    S_M = unobservability_subspace(A, B_others, C, tol)
    inter = subspace_intersect(image(mats[i], tol), S_M, tol)
    return inter.dim == 0


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

    ``F`` is nilpotent, so the residual converges exactly within
    ``horizon`` steps.  ``target`` and ``decoupled`` record the input
    labels the filter must respond to and must ignore.
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
    the target cannot be isolated).
    """

    V_star: Subspace
    S_star: Subspace
    S_M: Subspace
    solvable: bool
    generator: ResidualGenerator | None


def run_residual(gen: ResidualGenerator, ys) -> np.ndarray:
    """Exact filter recursion from ``w(0) = 0`` along an output sequence."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    T = ys.shape[0]
    w = np.zeros(gen.state_dim)
    residuals = np.zeros((T, gen.output_dim))
    for t in range(T):
        residuals[t] = gen.M @ w + gen.H @ ys[t]
        w = gen.F @ w + gen.E @ ys[t]
    return residuals


def _window_maps(A, B, C, L: int):
    """Maps of an output window of ``L + 1`` steps.

    Returns ``(O, T)`` with ``[y(t-L); ...; y(t)] = O x(t-L) + T [u(t-L);
    ...; u(t)]``: ``O`` stacks ``C A^s`` for ``s = 0..L`` and ``T`` is block
    Toeplitz, its block ``(s, tau)`` being ``C A^(s-tau-1) B`` below the
    diagonal and zero on and above it.
    """
    p, m = C.shape[0], B.shape[1]
    rows = [C]
    for _ in range(L):
        rows.append(rows[-1] @ A)
    markov = [CA @ B for CA in rows[:L]]
    T = np.zeros(((L + 1) * p, (L + 1) * m))
    for s in range(1, L + 1):
        for tau in range(s):
            T[s * p:(s + 1) * p, tau * m:(tau + 1) * m] = markov[s - tau - 1]
    return np.vstack(rows), T


def _parity_weights(A, Bd, watched, C, tol: float | None = None):
    """Shortest parity relation ignoring ``Bd`` that sees every watched input.

    For ``L = 1..n`` the rows of ``W`` span the left null space of
    ``[O_L, T_L Bd]``, so ``W`` applied to the last ``L + 1`` outputs
    cancels the state and the decoupled inputs; the first ``L`` at which
    ``W T_L b`` is nonzero, relative to ``T_L b``, for each watched column
    ``b`` is returned with ``W``.  ``None`` when no window up to ``n``
    does.
    """
    n = A.shape[0]
    p, md = C.shape[0], Bd.shape[1]
    atol = numerics.get_policy().membership
    for L in range(1, n + 1):
        O, T = _window_maps(A, np.hstack([Bd, watched]), C, L)
        T = T.reshape(T.shape[0], L + 1, -1)
        decoupled = T[:, :, :md].reshape(T.shape[0], -1)
        W = kernel(np.hstack([O, decoupled]).T, tol).basis.T
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


def synthesize_residual_generator(A, B_target, B_decouple, C,
                                  tol: float | None = None) -> SynthesisReport:
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
    V_star = max_controlled_invariant(A, Bd, C, tol)
    S_star = min_conditioned_invariant(A, Bd, C, tol)
    S_M = subspace_sum(V_star, S_star, tol)
    if Bt.shape[1]:
        solvable = subspace_intersect(image(Bt, tol), S_M, tol).dim == 0
        watched = Bt
    else:
        solvable = S_M.dim < n
        eye = np.eye(n)
        watched = eye[:, [i for i in range(n) if not S_M.contains(eye[i])]]
    found = _parity_weights(A, Bd, watched, C, tol) if solvable else None
    if found is None:
        return SynthesisReport(V_star=V_star, S_star=S_star, S_M=S_M,
                               solvable=False, generator=None)
    L, W = found
    p = C.shape[0]
    W = _echelon(W, p)
    F = np.eye(L * p, k=p)
    E = np.vstack([np.zeros(((L - 1) * p, p)), np.eye(p)])
    gen = ResidualGenerator(F=F, E=E, M=W[:, :-p], H=W[:, -p:], horizon=L)
    return SynthesisReport(V_star=V_star, S_star=S_star, S_M=S_M,
                           solvable=True, generator=gen)
