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
tolerance of the shared policy.  Each S* step is one kernel and one
image.  Each V* step cuts the last iterate, inside it, by only the
directions the complement of ``V_k + Im B`` gained in the step before,
from ``Im C^T ^ Ker B^T`` on: one SVD of those few rows against ``V_k``
and two images of a few columns, where recomputing the whole complement
would take two SVDs with n rows (Wonham, *Linear Multivariable
Control*; Basile and Marro, *Controlled and Conditioned Invariants*,
1992).  A residual generator is a filter
driven by the measurements only,

    w(t+1) = F w(t) + E y(t),      r(t) = M w(t) + H y(t),

whose residual is identically zero after a finite horizon whenever its
target input stays zero, for every initial condition and every input of
the decoupled set.  The filters built here are shift registers of the
last L outputs: the residual is a parity relation ``W [y(t-L); ...;
y(t)]`` whose weights annihilate the window's observability and
decoupled-input maps (Chow and Willsky, IEEE TAC 1984).

An observer's residual bank, one generator per (target, decoupled set)
member, is synthesized as one computation.  V*, S*, S_M, the
coordinates outside it and the parity null space at each window depend
on the decoupled set alone, so each distinct set is computed once for
all the members that carry it, and the members of a set that stop at
one window share its generator.  The V* and S* fixpoints of the sets
advance together, every SVD of a step stacked over them, and so do S_M,
the coordinates outside it and the parity-window search, on powers
``C A^s`` taken once for the bank.  A stack is capped by
``numerics._STACK_ENTRIES`` entries in its largest SVD factor, and the
bank advances at most as many sets at once as keep their V* iterates
within that cap.  LAPACK factors each member of a stack on its own, so
every generator is bit for bit the one its member alone gives;
:func:`synthesize_residual_generator` and the two fixpoint functions are
the same code with one member.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np
import scipy.linalg

from . import numerics
from .numerics import Subspace, as_matrix, image, subspace_sum


def max_controlled_invariant(A, B, C) -> Subspace:
    """Largest subspace V in Ker C with ``A V <= V + Im B``.

    Fixpoint of ``V_0 = Ker C``, ``V_{k+1} = Ker C ^ A^{-1}(V_k + Im B)``,
    which is ``V_k ^ Ker(N_k^T A)`` for a basis ``N_k`` of the complement
    ``(V_k + Im B)^perp``.  The iterates shrink, so that complement only
    grows, and ``V_k`` already meets the constraints of ``N_{k-1}``: each
    step cuts by the directions ``D_k`` the complement gained in the last
    step alone, ``V_{k+1} = V_k Ker(D_k^T A V_k)``, built inside ``V_k``
    so that the iterates are nested in floating point too.  ``D_k`` is the
    span of the directions ``R`` the last step removed from ``V_{k-1}``,
    projected off ``V_k + Im B`` (off ``V_k`` they already are); the start
    is ``D_0 = Im C^T ^ Ker B^T``, one basis of ``Im C^T`` and one kernel
    of a ``m x p`` matrix.  ``D_k`` has at most p columns, and so has
    ``R``: a step takes one SVD of the at most p rows of ``D_k^T A V_k``
    and two images of columns of length n, at most m for the inputs'
    part outside ``V_k`` and at most p for the projected ``R``, where
    recomputing the whole complement would take two SVDs with n rows
    and about n columns.  The first step that cuts nothing or gains no
    direction is the fixpoint, reached in at most n steps.
    """
    A = as_matrix(A)
    n = A.shape[0]
    B = _input_or_empty(B, n)
    C = _output_or_empty(C, n)
    return Subspace(n, _controlled_invariants(A, [B], C)[0])


def _controlled_invariants(A, Bs, C) -> list:
    """Bases of V* of ``(A, B, C)`` for every ``B`` in ``Bs``.

    The iteration of :func:`max_controlled_invariant` for all of them at
    once, run by the synthesis bank and by ``sysan``'s bank of pencil
    analyses, which both pass at most ``numerics._stack_size(n, n)``
    members: ``Ker C`` and ``Im C^T`` come from one SVD of ``C``, and each
    step takes one stacked split of the constraints ``D^T A V`` and two
    stacked images over the iterates not yet fixed.  Each is cut against
    the size of the map it restricts, not its own largest singular value,
    so scaling A or B changes no decision above the ``zero_abs`` floor:
    ``B^T Im C^T`` and ``B``'s part outside ``V`` against ``||B||``, the
    projected ``R`` against 1 (its columns are orthonormal) and
    ``D^T A V`` against ``||D^T A||``, all Frobenius norms.  Where ``V``
    meets the new constraints up to the rounding it has gathered over the
    steps, the largest singular value of ``D^T A V`` is that rounding,
    which can pass the ``zero_abs`` floor.
    """
    Q_C, V0 = numerics._splits([C])[0]
    Vs = [V0] * len(Bs)
    if not V0.shape[1]:
        return Vs
    sizes = [np.linalg.norm(B) for B in Bs]
    starts = numerics._splits([B.T @ Q_C for B in Bs], sizes)
    Ds = [Q_C @ N for _, N in starts]
    live = [i for i, D in enumerate(Ds) if D.shape[1]]
    while live:
        DAs = [Ds[i].T @ A for i in live]
        cuts = numerics._splits([DA @ Vs[i] for i, DA in zip(live, DAs)],
                                [np.linalg.norm(DA) for DA in DAs])
        Rs = {}
        for i, (removed, kept) in zip(live, cuts):
            if removed.shape[1]:
                Rs[i] = Vs[i] @ removed
                Vs[i] = Vs[i] @ kept
        live = [i for i in Rs if Vs[i].shape[1]]
        # the removed directions off V + Im B: the new constraints
        inputs = numerics._images([Bs[i] - Vs[i] @ (Vs[i].T @ Bs[i])
                                   for i in live], [sizes[i] for i in live])
        news = numerics._images([Rs[i] - Q @ (Q.T @ Rs[i])
                                 for i, Q in zip(live, inputs)],
                                [1.0] * len(live))
        for i, D in zip(live, news):
            Ds[i] = D
        live = [i for i in live if Ds[i].shape[1]]
    return Vs


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
    return numerics._trusted(n, _conditioned_invariants(A, [B], C)[0])


def _conditioned_invariants(A, Bs, C) -> list:
    """Bases of S* of ``(A, B, C)`` for every ``B`` in ``Bs``.

    The iteration of :func:`min_conditioned_invariant` for all of them at
    once, one stacked kernel and one stacked image a step; each returns
    the basis of the first step that keeps the dimension, or of step
    ``n + 1``.
    """
    n = A.shape[0]
    Ss = numerics._images(Bs)
    live = list(range(len(Bs)))
    for _ in range(n + 1):
        if not live:
            break
        meets = numerics._kernels([C @ Ss[i] for i in live])
        nxts = numerics._images([np.hstack([Bs[i], A @ (Ss[i] @ K)])
                                 for i, K in zip(live, meets)])
        moving = [i for i, S in zip(live, nxts) if S.shape[1] != Ss[i].shape[1]]
        for i, S in zip(live, nxts):
            Ss[i] = S
        live = moving
    return Ss


def unobservability_subspace(A, B_others, C) -> Subspace:
    """Sum of the two invariant-subspace fixpoints for the decoupled inputs.

    This is the carrier of everything a residual cannot be made to see:
    a target input is isolable against ``B_others`` exactly when its
    image meets this subspace trivially.
    """
    V = max_controlled_invariant(A, B_others, C)
    S = min_conditioned_invariant(A, B_others, C)
    return subspace_sum(V, S)


def _meets_trivially(Q: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Which of the subspaces ``Im bases[..., g, :, :]`` meet ``Im Q`` only
    in zero.

    ``Q`` is an orthonormal ``(n, r)`` basis of S_M, or a stack of them
    that broadcasts against ``bases``, which stacks orthonormal ``(n, c)``
    bases as a ``(..., g, n, c)`` array.  Each is projected off S_M once,
    as ``(I - Q Q^T) U``; its image meets S_M trivially exactly when the
    smallest singular value of that projection exceeds the membership
    tolerance of the shared policy.  For one unit vector this is its
    residual norm, the negation of ``Subspace.contains``; an empty basis
    meets everything trivially.
    """
    projected = bases - Q @ (np.swapaxes(Q, -1, -2) @ bases)
    sigma = np.linalg.svd(projected, compute_uv=False)
    return np.min(sigma, axis=-1, initial=np.inf) > numerics.get_policy().membership


def _meet_each(Qs, bases) -> list:
    """``_meets_trivially(Qs[i], bases[i])`` for every ``i``, one call per
    group of equal shapes."""
    groups = {}
    for i, (Q, U) in enumerate(zip(Qs, bases)):
        groups.setdefault((Q.shape, U.shape), []).append(i)
    out = [None] * len(Qs)
    for members in groups.values():
        flags = _meets_trivially(np.stack([Qs[i] for i in members])[:, None],
                                 np.stack([bases[i] for i in members]))
        for i, f in zip(members, flags):
            out[i] = f
    return out


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
    return bool(_meets_trivially(S_M.basis, image(mats[i]).basis[None])[0])


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
    It and the target test are decided by one rule: the smallest singular
    value of the projection off ``S_M`` exceeds the membership tolerance.
    ``solvable`` needs that test to pass (with no target, some coordinate
    outside ``S_M``) and a parity window of at most ``n`` steps that sees
    every watched column; it is true exactly when ``generator`` is set.
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


def _block_toeplitz(markov: np.ndarray) -> np.ndarray:
    """Block Toeplitz map of the ``L`` Markov parameters ``markov``, an
    ``(L, p, m)`` array.

    Block ``(s, tau)``, ``s, tau = 0..L``, is ``markov[s - tau - 1]`` below
    the diagonal and zero on and above it.
    """
    L, p, m = markov.shape
    s, tau, lag = _toeplitz_pattern(L)
    T = np.zeros((L + 1, p, L + 1, m))
    T[s, :, tau, :] = markov[lag]
    return T.reshape((L + 1) * p, (L + 1) * m)


@lru_cache(maxsize=32)
def _toeplitz_pattern(L: int):
    """Read-only ``(s, tau, s - tau - 1)`` over the blocks below the
    diagonal of an ``L + 1`` block square, kept for the last few ``L``:
    a bank asks for the same few windows in every member."""
    s, tau = np.tril_indices(L + 1, -1)
    pattern = (s, tau, s - tau - 1)
    for index in pattern:
        index.setflags(write=False)
    return pattern


def _output_powers(A, C, L: int | None = None) -> np.ndarray:
    """``C A^s`` for ``s = 0..L`` (``L = n`` by default), each the product
    of the last with ``A``, stacked as an ``(L + 1, p, n)`` array."""
    powers = [C]
    for _ in range(A.shape[0] if L is None else L):
        powers.append(powers[-1] @ A)
    return np.array(powers)


def _parity_weights(powers: np.ndarray, Bds, watched) -> list:
    """Shortest parity relations ignoring ``Bds[s]`` that see every column
    of each matrix in ``watched[s]``: for each ``s`` the list of ``(L, W)``,
    or ``None``, one per matrix of ``watched[s]``.

    ``powers`` stacks ``C A^s`` for ``s = 0..n``.  For ``L = 1..n`` the rows
    of ``W`` span the left null space of ``[O_L, T_L Bd]``, so ``W`` applied
    to the last ``L + 1`` outputs cancels the state and the decoupled
    inputs; a watched matrix stops at the first ``L`` at which ``W T_L b``
    is nonzero, relative to ``T_L b``, for each of its columns ``b``, with
    that ``W``.  The null space depends on the decoupled set alone, so it is
    taken once per set and window, and every matrix of the set still
    pending there is tested against that one ``W``.  The Markov parameters
    ``C A^s [Bd, watched...]`` of a set grow by one power, one product, per
    window.  No null space is taken while every pending matrix of the set
    has some watched ``C A^s b``, ``s < L``, still exactly zero: that
    ``T_L b`` is zero, so the window fails the test.  The null spaces of
    the sets at one window are taken in stacked kernels of at most
    ``numerics._stack_size`` members, and all columns of a watched matrix
    are tested with one product.
    """
    n = powers.shape[0] - 1
    atol = numerics.get_policy().membership
    Bs = [np.hstack([Bd, *ws]) for Bd, ws in zip(Bds, watched)]
    mds = [Bd.shape[1] for Bd in Bds]
    # the columns of Bs[s] that each watched matrix of the set occupies
    cols = []
    for md, ws in zip(mds, watched):
        ends = list(accumulate((Bw.shape[1] for Bw in ws), initial=md))
        cols.append([slice(a, b) for a, b in zip(ends, ends[1:])])
    markov = [[] for _ in Bs]
    unseen = [np.ones(B.shape[1], dtype=bool) for B in Bs]
    found = [[None] * len(ws) for ws in watched]
    pending = {s: list(range(len(ws))) for s, ws in enumerate(watched) if ws}
    for L in range(1, n + 1):
        ready = {}
        for s, members in pending.items():
            markov[s].append(powers[L - 1] @ Bs[s])
            unseen[s] &= ~markov[s][-1].any(axis=0)
            at = [m for m in members if not unseen[s][cols[s][m]].any()]
            if at:
                ready[s] = at
        if not ready:
            continue
        O = powers[:L + 1].reshape(-1, n)
        sets = list(ready)
        chunk = numerics._stack_size(n + (L + 1) * max(mds[s] for s in sets),
                                     O.shape[0])
        for lo in range(0, len(sets), chunk):
            part = sets[lo:lo + chunk]
            maps = [np.array(markov[s]) for s in part]
            nulls = numerics._kernels(
                [np.hstack([O, _block_toeplitz(G[:, :, :mds[s]])]).T
                 for s, G in zip(part, maps)])
            for s, G, N in zip(part, maps, nulls):
                W = N.T
                if not W.shape[0]:
                    continue
                for m in ready[s]:
                    if _sees_every_column(W, G[:, :, cols[s][m]], atol):
                        found[s][m] = (L, W)
                        pending[s].remove(m)
                if not pending[s]:
                    del pending[s]
    return found


def _sees_every_column(W, markov, atol) -> bool:
    """Whether ``||W T_L b|| > atol ||T_L b||`` for every column ``b`` of the
    ``(L, p, m)`` Markov parameters, all columns in one product."""
    L, _, m = markov.shape
    T = _block_toeplitz(markov)
    response = (W @ T).reshape(-1, L + 1, m)
    return bool(np.all(np.linalg.norm(response, axis=(0, 1))
                       > atol * np.linalg.norm(T.reshape(-1, L + 1, m), axis=(0, 1))))


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
    return next(_synthesize_bank(A, C, [Bt], [Bd]))


def _synthesize_bank(A, C, targets, decouples):
    """:func:`synthesize_residual_generator` for every pair ``(targets[i],
    decouples[i])`` on one ``(A, C)``; the reports, in order, as a generator.

    The unit of shared work is the decoupled set: V*, S*, S_M, the
    coordinates outside S_M and the parity null space at each window
    depend on it alone, so the members are grouped by the exact content
    of their decoupled matrices and each distinct set is computed once,
    for all its members.  Per member there remain only the target test
    against S_M and the test of its watched columns against the set's
    null space at each window (:func:`_parity_weights`); the members of a
    set that stop at one window share one generator.  The powers ``C A^s``
    are taken once for the bank.  The distinct sets advance together, in
    the order they first appear, in slices of as many as one stacked SVD
    of ``n x n`` operands takes (``numerics._stack_size``), so that their
    V* iterates hold about ``numerics._STACK_ENTRIES`` entries; a slice is
    computed when its first member is due, and a set's results are held
    until its last member is yielded.  Each computation of a slice runs on
    stacked SVDs, and every member comes out bit for bit as a bank of one
    computes it.
    """
    n = A.shape[0]
    powers = _output_powers(A, C)
    groups = {}
    for i, Bd in enumerate(decouples):
        groups.setdefault((Bd.shape, Bd.tobytes()), []).append(i)
    sets = list(groups.values())
    size = numerics._stack_size(n, n)
    ready = {}
    lo = 0
    for i in range(len(decouples)):
        if i not in ready:
            ready.update(_synthesize_slice(A, C, powers, targets, decouples,
                                           sets[lo:lo + size]))
            lo += size
        yield ready.pop(i)


def _synthesize_slice(A, C, powers, targets, decouples, sets):
    """``(i, report)`` for every member ``i`` of the decoupled sets ``sets``
    of :func:`_synthesize_bank`, each set a list of member indices."""
    n, p = A.shape[0], C.shape[0]
    eye = np.eye(n)
    Bds = [decouples[members[0]] for members in sets]
    Vs = _controlled_invariants(A, Bds, C)
    Ss = _conditioned_invariants(A, Bds, C)
    Ms = numerics._images([np.hstack([V, S]) for V, S in zip(Vs, Ss)])
    outside = [tuple(np.flatnonzero(f).tolist())
               for f in _meet_each(Ms, [eye[:, :, None]] * len(Ms))]
    aimed = [(s, i) for s, members in enumerate(sets) for i in members
             if targets[i].shape[1]]
    images = numerics._images([targets[i] for _, i in aimed])
    target_free = dict(zip((i for _, i in aimed),
                           _meet_each([Ms[s] for s, _ in aimed],
                                      [U[None] for U in images])))
    searched = [[] for _ in sets]
    watched = [[] for _ in sets]
    for s, members in enumerate(sets):
        for i in members:
            if i in target_free:
                solvable, Bw = bool(target_free[i][0]), targets[i]
            else:
                solvable, Bw = bool(outside[s]), eye[:, list(outside[s])]
            if solvable:
                searched[s].append(i)
                watched[s].append(Bw)
    found = _parity_weights(powers, Bds, watched)
    for s, members in enumerate(sets):
        V_star = Subspace(n, Vs[s])
        S_star = numerics._trusted(n, Ss[s])
        S_M = numerics._trusted(n, Ms[s])
        hits = dict(zip(searched[s], found[s]))
        # one generator per window: the members stopping there share its W
        gens = {}
        for i in members:
            gen = None
            if hits.get(i) is not None:
                L, W = hits[i]
                if L not in gens:
                    gens[L] = _shift_register(_echelon(W, p), L, p)
                gen = gens[L]
            yield i, SynthesisReport(V_star=V_star, S_star=S_star, S_M=S_M,
                                     outside=outside[s],
                                     solvable=gen is not None, generator=gen)


def _shift_register(W: np.ndarray, L: int, p: int) -> ResidualGenerator:
    """The generator of the parity weights ``W`` on a window of ``L + 1``
    outputs of ``p`` entries: a shift register of the last ``L``."""
    F = np.eye(L * p, k=p)
    E = np.vstack([np.zeros(((L - 1) * p, p)), np.eye(p)])
    return ResidualGenerator(F=F, E=E, M=W[:, :-p], H=W[:, -p:], horizon=L)
