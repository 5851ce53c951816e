"""System-theoretic analysis of observer triples (A, B_K, C_j).

Normal rank and left-invertibility via the system pencil, invariant
zeros with verified directions, eigenvector (PBH) tests, zero-dynamics
stability classification from the network structure, and explicit
construction of undetectable and unidentifiable misbehaviors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse import csgraph, csr_matrix

from . import numerics
from .consensus import Attack, ConsensusMatrix, input_matrix, simulate
from .numerics import as_matrix, as_vector

_NORMAL_RANK_SEED = 20260811
_NORMAL_RANK_RADIUS = 2.7
_NORMAL_RANK_EVALS = 3


@dataclass(frozen=True)
class Triple:
    """An observed, attacked linear network: x+ = Ax + Bu, y = Cx.

    ``B`` columns and ``C`` rows are canonical basis vectors: the inputs
    enter at the misbehaving agents' own coordinates and the observer
    measures exactly the states of its neighbor set (itself included
    when its self-weight is nonzero).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    agents: tuple = ()
    observer: int | None = None
    measured: tuple = ()

    def __post_init__(self):
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("state matrix must be square")
        if self.B.shape[0] != n or self.C.shape[1] != n:
            raise ValueError("input/output dimensions do not match the state")
        for label, M in (("input column", self.B.T), ("output row", self.C)):
            for row in M:
                nz = np.nonzero(row)[0]
                if len(nz) != 1 or not np.isclose(row[nz[0]], 1.0):
                    raise ValueError(f"each {label} must be a canonical basis vector")
        self.A.setflags(write=False)
        self.B.setflags(write=False)
        self.C.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @classmethod
    def from_network(cls, net: ConsensusMatrix, K, j: int) -> "Triple":
        K = tuple(sorted(set(K)))
        measured = net.observed_set(j)
        return cls(A=net.A.copy(), B=input_matrix(net.n, K),
                   C=net.output_matrix(j), agents=K, observer=j,
                   measured=measured)

    @classmethod
    def from_matrices(cls, A, B, C, agents=(), observer=None) -> "Triple":
        A = as_matrix(A)
        B = as_matrix(B) if np.asarray(B).size else np.zeros((A.shape[0], 0))
        C = as_matrix(C)
        if not agents:
            agents = tuple(int(np.argmax(col)) + 1 for col in B.T)
        measured = tuple(int(np.argmax(row)) + 1 for row in C)
        return cls(A=A.copy(), B=B.copy(), C=C.copy(), agents=tuple(agents),
                   observer=observer, measured=measured)


def pencil(T: Triple, z: complex) -> np.ndarray:
    """System pencil ``[[zI - A, B], [C, 0]]`` evaluated at ``z``."""
    n, m, p = T.n, T.m, T.p
    P = np.zeros((n + p, n + m), dtype=complex)
    P[:n, :n] = z * np.eye(n) - T.A
    P[:n, n:] = T.B
    P[n:, :n] = T.C
    return P


@dataclass(frozen=True)
class InvariantZero:
    """A verified invariant zero with its state and input directions.

    Satisfies ``(z I - A) x0 + B g = 0`` and ``C x0 = 0`` with
    ``x0 != 0``, up to ``residual``.
    """

    z: complex
    x0: np.ndarray
    g: np.ndarray
    residual: float


@dataclass(frozen=True)
class PencilAnalysis:
    """Normal rank, left-invertibility, and the finite invariant zeros.

    ``zeros`` is None when the triple is not left-invertible (the zero
    set is then infinite).
    """

    normal_rank: int
    left_invertible: bool
    zeros: tuple | None
    evaluation_seed: int


def pencil_normal_rank(T: Triple, seed: int = _NORMAL_RANK_SEED) -> int:
    """Rank of the pencil at random evaluation points off the spectrum.

    Evaluates at points on a complex circle of radius 2.7 and requires
    the observed ranks to agree.
    """
    rng = np.random.default_rng(seed)
    ranks = []
    for _ in range(_NORMAL_RANK_EVALS):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        z = _NORMAL_RANK_RADIUS * np.exp(1j * theta)
        ranks.append(numerics.rank(pencil(T, z)))
    return max(ranks)


def is_left_invertible(T: Triple, seed: int = _NORMAL_RANK_SEED) -> bool:
    """No two distinct inputs can produce the same output sequence."""
    return pencil_normal_rank(T, seed) == T.n + T.m


def _candidate_zero_values(T: Triple, seed: int) -> np.ndarray:
    """Generalized eigenvalues of a square compression of the pencil."""
    n, m, p = T.n, T.m, T.p
    N = np.zeros((n + p, n + m))
    N[:n, :n] = T.A
    N[:n, n:] = -T.B
    N[n:, :n] = -T.C
    M = np.zeros((n + p, n + m))
    M[:n, :n] = np.eye(n)
    if p == m:
        WN, WM = N, M
    else:
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((n + m, n + p))
        WN, WM = W @ N, W @ M
    alpha, beta = scipy.linalg.eig(WN, WM, right=False, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-10 * (np.abs(alpha) + np.abs(beta) + 1e-300)
    return (alpha[finite] / beta[finite]).ravel()


def invariant_zeros(T: Triple, seed: int = _NORMAL_RANK_SEED) -> PencilAnalysis:
    """All finite invariant zeros of a left-invertible triple.

    The non-square pencil is compressed to a square generalized
    eigenproblem by a seeded random row compression; every candidate is
    verified by an actual rank drop of the pencil, and the directions
    are recovered from its null space.  A non-left-invertible triple is
    reported with ``zeros=None`` (infinitely many zeros).
    """
    nr = pencil_normal_rank(T, seed)
    left_inv = nr == T.n + T.m
    if not left_inv:
        return PencilAnalysis(normal_rank=nr, left_invertible=False,
                              zeros=None, evaluation_seed=seed)
    found: list[InvariantZero] = []
    for z in _candidate_zero_values(T, seed):
        if abs(z.imag) < 1e-9:
            z = complex(z.real, 0.0)
        if any(abs(z - other.z) < 1e-6 * max(1.0, abs(z)) for other in found):
            continue
        P = pencil(T, z)
        if numerics.rank(P) >= nr:
            continue
        zero = _verify_zero_direction(T, z, _null_space(P))
        if zero is not None:
            found.append(zero)
    found.sort(key=lambda w: (round(w.z.real, 9), round(w.z.imag, 9)))
    return PencilAnalysis(normal_rank=nr, left_invertible=True,
                          zeros=tuple(found), evaluation_seed=seed)


def _null_space(P: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis of a (possibly complex) matrix."""
    _, s, Vh = np.linalg.svd(P)
    tol = numerics.get_policy().rank_rel
    r = int(np.sum(s > max(s[0] * tol, 1e-12))) if s.size else 0
    return Vh[r:].conj().T


def _verify_zero_direction(T: Triple, z: complex,
                           null_basis: np.ndarray) -> InvariantZero | None:
    """Pick a null vector with nonzero state part and re-check the equations."""
    n = T.n
    for col in null_basis.T:
        x0, g = col[:n], col[n:]
        if np.linalg.norm(x0) < 1e-8:
            continue
        scale = np.linalg.norm(x0)
        x0, g = x0 / scale, g / scale
        resid = max(
            np.linalg.norm((z * np.eye(n) - T.A) @ x0 + T.B @ g),
            np.linalg.norm(T.C @ x0),
        )
        if resid < 1e-7:
            return InvariantZero(z=z, x0=x0, g=g, residual=float(resid))
    return None


def pbh_detectable(A, C, tol: float = 1e-9) -> bool:
    """Eigenvector test on all eigenvalues of modulus >= 1."""
    A, C = as_matrix(A), as_matrix(C)
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - tol:
            stacked = np.vstack([lam * np.eye(n) - A, C.astype(complex)])
            if numerics.rank(stacked) < n:
                return False
    return True


def pbh_stabilizable(A, B, tol: float = 1e-9) -> bool:
    """Dual eigenvector test: rank of ``[lam I - A, B]`` at unstable modes."""
    A, B = as_matrix(A), as_matrix(B)
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - tol:
            stacked = np.hstack([lam * np.eye(n) - A, B.astype(complex)])
            if numerics.rank(stacked) < n:
                return False
    return True


def local_observer_gain(net: ConsensusMatrix, j: int) -> np.ndarray:
    """Output-injection gain for the single-output observer of agent ``j``.

    With ``C = e_j^T``, the gain ``G = -A[:, j]`` cancels the j-th
    column, so the closed loop inherits the Schur-stable spectrum of the
    principal submatrix on the other agents.  Only the out-neighbors of
    ``j`` carry nonzero gain entries, so the injection is local.
    """
    if not 1 <= j <= net.n:
        raise ValueError(f"agent {j} outside 1..{net.n}")
    G = -net.A[:, [j - 1]].copy()
    Cj = np.zeros((1, net.n))
    Cj[0, j - 1] = 1.0
    closed = net.A + G @ Cj
    radius = np.max(np.abs(np.linalg.eigvals(closed)))
    if radius >= 1.0 - 1e-12:
        raise ValueError("closed-loop spectral radius not below one; "
                         "input is not a consensus matrix")
    return G


@dataclass(frozen=True)
class ZeroDynamicsReport:
    """Structural stability classification of the invisible state motions.

    ``case`` is one of ``stable_case1`` (no edges from the attackers to
    the unobserved outside), ``stable_case2`` (no edges from the
    unobserved outside into the observed set), ``stable_case3``
    (attackers all observed), or ``unknown``; for ``unknown`` the
    computed zeros and their moduli are attached.
    """

    case: str
    zeros: tuple | None = None
    moduli: tuple = ()


def zero_dynamics_stability(T: Triple, tol: float = 1e-12) -> ZeroDynamicsReport:
    """Classify zero-dynamics stability from the attacker/observer layout."""
    K = set(T.agents)
    Nj = set(T.measured)
    outside = [v for v in range(1, T.n + 1) if v not in K and v not in Nj]
    left_inv = is_left_invertible(T)

    def has_edge(src_set, dst_set):
        return any(abs(T.A[d - 1, s - 1]) > tol
                   for s in src_set for d in dst_set if s != d)

    if left_inv and not has_edge(K, outside):
        return ZeroDynamicsReport(case="stable_case1")
    if left_inv and not has_edge(outside, Nj):
        return ZeroDynamicsReport(case="stable_case2")
    if K <= Nj:
        return ZeroDynamicsReport(case="stable_case3")
    analysis = invariant_zeros(T)
    zeros = analysis.zeros
    moduli = tuple(abs(w.z) for w in zeros) if zeros is not None else ()
    return ZeroDynamicsReport(case="unknown", zeros=zeros, moduli=moduli)


def first_markov_index(T: Triple):
    """Smallest ``nu`` with ``C A^nu B`` nonzero, with that parameter.

    ``nu`` is the length of the shortest walk from an input agent to a
    measured agent in the digraph of ``A``.  For a nonnegative ``A`` no
    walk weights cancel, so this is exact, and at most n - 1 whenever a
    walk exists.  Raises ``ValueError`` when there are no inputs or no
    walk.
    """
    if T.m == 0:
        raise ValueError("triple has no inputs")
    # arc a -> b wherever A[b, a] is nonzero: x_b reads x_a
    dist = csgraph.shortest_path(csr_matrix(T.A.T != 0), unweighted=True,
                                 indices=np.argmax(T.B, axis=0))
    hops = dist[:, np.argmax(T.C, axis=1)].min(initial=np.inf)
    if not np.isfinite(hops):
        raise ValueError("no walk from the inputs to the measured agents")
    nu = int(hops)
    return nu, T.C @ np.linalg.matrix_power(T.A, nu) @ T.B


def output_zeroing_input(T: Triple, x0, check_horizon: int | None = None):
    """Generator of an input sequence keeping the output at zero.

    Uses the closed-form output-zeroing recursion built on the first
    nonzero Markov parameter, with the homogeneous part chosen zero:
    the driven state follows ``x(k+1) = K_nu A x(k)`` and the input is
    ``u(k) = -(C A^nu B)^+ C A^(nu+1) x(k)``.

    Requires ``x0`` in the kernel of ``C A^l`` for ``l = 0..nu``; the
    construction additionally verifies that the resulting trajectory is
    output-nulling over ``check_horizon`` steps (default n) and raises
    otherwise.
    """
    x0 = as_vector(x0)
    nu, markov = first_markov_index(T)
    pinv = np.linalg.pinv(markov)
    CA = T.C @ np.linalg.matrix_power(T.A, nu + 1)
    gain = -pinv @ CA
    K_nu = np.eye(T.n) - T.B @ pinv @ T.C @ np.linalg.matrix_power(T.A, nu)
    closed = K_nu @ T.A
    power = np.eye(T.n)
    for l in range(nu + 1):
        if np.linalg.norm(T.C @ power @ x0) > 1e-8 * max(1.0, np.linalg.norm(x0)):
            raise ValueError(f"initial state not in Ker(C A^{l})")
        power = power @ T.A
    horizon = T.n if check_horizon is None else check_horizon
    x = x0.copy()
    for k in range(horizon):
        if np.linalg.norm(T.C @ x) > 1e-7 * max(1.0, np.linalg.norm(x)):
            raise ValueError("output cannot be zeroed from this initial state "
                             "with a vanishing homogeneous part")
        x = closed @ x

    def generate():
        state = x0.copy()
        while True:
            yield gain @ state
            state = closed @ state

    return generate()


def take_inputs(gen, steps: int) -> np.ndarray:
    """Materialize the first ``steps`` values of an input generator."""
    return np.array(list(itertools.islice(gen, steps)))


@dataclass(frozen=True)
class UndetectableAttack:
    """A concrete attack invisible to one observer.

    The cut agents cancel the influence of the free side on themselves,
    so the observer side stays identically zero while the free side
    moves; ``attacks`` plug directly into the simulator.
    """

    x0: np.ndarray
    attacks: tuple
    cut: tuple
    observer_side: tuple
    free_side: tuple


def construct_undetectable_attack(net: ConsensusMatrix, cutK, extra, j: int,
                                  scale: float = 1.0,
                                  horizon: int = 50) -> UndetectableAttack:
    """Build and verify an attack with identically zero output at ``j``.

    ``cutK`` must separate the observer's side from a nonempty free
    side; ``extra`` agents (inside the free side) may inject arbitrary
    nonzero inputs on top of the cancelling feedback played by the cut.
    """
    n = net.n
    cutK = tuple(sorted(set(cutK)))
    extra = tuple(sorted(set(extra)))
    if j in cutK:
        raise ValueError("observer cannot be part of the cut")
    removed = set(cutK)
    from .graph import _reachable

    observer_side = sorted((_reachable(net.graph, j, removed, reverse=True)
                            | {j}) - removed)
    free_side = sorted(v for v in net.graph.vertices()
                       if v not in removed and v not in observer_side)
    if not free_side:
        raise ValueError("the given set is not a cut: no free side remains")
    if not set(extra) <= set(free_side):
        raise ValueError("extra attackers must belong to the free side")
    x0 = np.zeros(n)
    for idx, v in enumerate(free_side):
        x0[v - 1] = scale * (1.0 + idx / (len(free_side) + 1.0))
    attacks = []
    for s in cutK:
        row = np.zeros(n)
        for v in free_side:
            row[v - 1] = -net.A[s - 1, v - 1]
        attacks.append(Attack.state_feedback(s, row))
    for idx, e in enumerate(extra):
        attacks.append(Attack.constant(e, scale * (0.3 + 0.1 * idx)))
    traj = simulate(net, x0, attacks, horizon)
    ys = net.outputs(traj.states, j)
    if np.max(np.abs(ys)) > 1e-8:
        raise ValueError("constructed attack leaks into the observer output")
    return UndetectableAttack(x0=x0, attacks=tuple(attacks), cut=cutK,
                              observer_side=tuple(observer_side),
                              free_side=tuple(free_side))


@dataclass(frozen=True)
class UnidentifiabilityWitness:
    """Two distinct attack attributions producing identical observations.

    Running set ``K1`` with inputs ``inputs_1`` from ``x0`` and set
    ``K2`` with ``inputs_2`` from the zero state yields the same output
    sequence at the observer over the horizon.
    """

    K1: tuple
    K2: tuple
    x0: np.ndarray
    inputs_1: np.ndarray
    inputs_2: np.ndarray
    horizon: int


def _friend_realization(A, B, V, rng):
    """Coordinates (X, U) with A V = V X + B U, plus an initial weight."""
    stacked = np.hstack([V, B])
    sol, *_ = np.linalg.lstsq(stacked, A @ V, rcond=None)
    r = V.shape[1]
    X, U = sol[:r], sol[r:]
    resid = np.linalg.norm(stacked @ sol - A @ V)
    return X, U, resid


def unidentifiability_witness(net: ConsensusMatrix, K1, K2, j: int,
                              horizon: int = 50,
                              rng: np.random.Generator | None = None):
    """Witness that ``K1`` and ``K2`` are indistinguishable at ``j``, if any.

    Looks for invisible state motions of the joint system driven by both
    sets: a nonzero output-nulling subspace yields a feedback-type
    witness, and a non-left-invertible joint pencil yields an input-only
    witness from the zero state.  Returns None when the joint system has
    no such motion (every input of ``K1`` is identifiable against ``K2``).
    """
    from . import fdi

    K1 = tuple(sorted(set(K1)))
    K2 = tuple(sorted(set(K2)))
    if K1 == K2:
        raise ValueError("candidate sets must differ")
    if rng is None:
        rng = np.random.default_rng(_NORMAL_RANK_SEED)
    n = net.n
    B1 = input_matrix(n, K1)
    B2 = input_matrix(n, K2)
    B = np.hstack([B1, B2])
    C = net.output_matrix(j)
    m1 = len(K1)
    V_star = fdi.max_controlled_invariant(net.A, B, C)
    if V_star.dim > 0:
        V = V_star.basis
        X, U, resid = _friend_realization(net.A, B, V, rng)
        if resid < 1e-7:
            a = rng.standard_normal(V.shape[1])
            a /= np.linalg.norm(a)
            coords = np.empty((horizon, V.shape[1]))
            for t in range(horizon):
                coords[t] = a
                a = X @ a
            full_u = -(U @ coords.T).T
            witness = UnidentifiabilityWitness(
                K1=K1, K2=K2, x0=V @ coords[0], inputs_1=full_u[:, :m1],
                inputs_2=-full_u[:, m1:], horizon=horizon)
            if _witness_outputs_match(net, witness, j):
                return witness
    # No invisible initial state: look for distinct inputs from the origin.
    T_joint = Triple.from_matrices(net.A, B, C)
    if not is_left_invertible(T_joint):
        w = _toeplitz_kernel_input(net.A, B, C, horizon)
        if w is not None:
            witness = UnidentifiabilityWitness(
                K1=K1, K2=K2, x0=np.zeros(n), inputs_1=w[:, :m1],
                inputs_2=-w[:, m1:], horizon=horizon)
            if _witness_outputs_match(net, witness, j):
                return witness
    return None


def _toeplitz_kernel_input(A, B, C, horizon: int):
    """Nonzero input sequence invisible in the output, from the zero state."""
    from .fdi import _window_maps

    n, m = B.shape
    p = C.shape[0]
    L = min(horizon, 2 * n + 2)
    # outputs y(1..L) against inputs u(0..L-1)
    _, T = _window_maps(A, B, C, L)
    null = numerics.kernel(T[p:, :L * m])
    if null.dim == 0:
        return None
    w = null.basis[:, 0].reshape(L, m)
    full = np.zeros((horizon, m))
    full[:L] = w
    return full


def _witness_outputs_match(net: ConsensusMatrix, w: UnidentifiabilityWitness,
                           j: int, tol: float = 1e-7) -> bool:
    atk1 = [Attack.sequence(a, w.inputs_1[:, k])
            for k, a in enumerate(w.K1)]
    atk2 = [Attack.sequence(a, w.inputs_2[:, k])
            for k, a in enumerate(w.K2)]
    y1 = net.outputs(simulate(net, w.x0, atk1, w.horizon).states, j)
    y2 = net.outputs(simulate(net, np.zeros(net.n), atk2, w.horizon).states, j)
    return bool(np.max(np.abs(y1 - y2)) < tol)
