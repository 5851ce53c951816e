"""System-theoretic analysis of observer triples (A, B_K, C_j).

The pencil's normal rank, left-invertibility and invariant zeros are all
read from one object, the zero dynamics on V*, the maximal output-nulling
controlled invariant: the triple is left-invertible iff no input drives
the state inside V*, and its zeros are then the eigenvalues of the friend
map on V*, each read with its directions from an eigenpair of that map
and verified by the pencil residual of the direction.
The output-zeroing inputs from ``x0`` exist exactly when V* contains it,
and come from the same friend map.  The analyses of many input sets on
one ``(A, C)``, all the sets of one observer, run as one bank: their V*
fixpoints advance together in ``fdi``'s stacked SVDs, and each member is
bit for bit the analysis of its triple alone, which is the bank of one.
Also eigenvector (PBH) tests, zero-dynamics stability classification
from the network structure, and explicit construction of undetectable
and unidentifiable misbehaviors.
Every "signal is zero" verdict is the relative ``numerics._negligible``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from . import fdi, graph, numerics
from .consensus import Attack, ConsensusMatrix, input_matrix, simulate
from .numerics import as_matrix, as_vector

_WITNESS_SEED = 20260811
# eigenvalues this close to the unit circle count as not asymptotically stable
_UNIT_CIRCLE_MARGIN = 1e-9
# an equation holds when its error is this small against the terms it balances
_FIT_REL = 1e-7


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
    return _pencil(T.A, T.B, T.C, z)


def _pencil(A, B, C, z: complex) -> np.ndarray:
    n, m, p = A.shape[0], B.shape[1], C.shape[0]
    P = np.zeros((n + p, n + m), dtype=complex)
    P[:n, :n] = z * np.eye(n) - A
    P[:n, n:] = B
    P[n:, :n] = C
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


def _friend_realization(A, B, V):
    """Coordinates (X, U) with A V = V X + B U, and whether they fit:
    the fit's error is negligible against A V."""
    stacked = np.hstack([V, B])
    AV = A @ V
    sol, *_ = np.linalg.lstsq(stacked, AV, rcond=None)
    r = V.shape[1]
    return sol[:r], sol[r:], numerics._negligible(stacked @ sol - AV, AV,
                                                  _FIT_REL)


def _zero_dynamics_bank(A, Bs, C) -> list:
    """V* of ``(A, B, C)`` and ``d = dim B^{-1} V*`` for every ``B`` in
    ``Bs``, as ``(basis, d)``.

    ``d = dim V* + m - rank [V*, B]`` counts the inputs that drive the
    state inside V*, so it is ``dim(V* ^ Im B)`` plus the dimension of
    Ker B.  It is the dimension of the pencil's rational null space, and
    it vanishes exactly when the triple is left-invertible (Basile and
    Marro, *Controlled and Conditioned Invariants*, 1992).  The V*
    fixpoints of all the ``B`` advance together in ``fdi``'s stacked
    SVDs, in slices of as many as one stack of ``n x n`` operands takes
    (``numerics._stack_size``), each member bit for bit the V* it has
    alone.
    """
    size = numerics._stack_size(A.shape[0], A.shape[0])
    out = []
    for lo in range(0, len(Bs), size):
        part = Bs[lo:lo + size]
        for B, V in zip(part, fdi._controlled_invariants(A, part, C)):
            out.append((V, V.shape[1] + B.shape[1]
                        - numerics.rank(np.hstack([V, B]))))
    return out


def _zero_dynamics(T: Triple):
    """V* of the triple, as a ``Subspace``, and ``d = dim B^{-1} V*``:
    :func:`_zero_dynamics_bank` of one member."""
    V, d = _zero_dynamics_bank(T.A, [T.B], T.C)[0]
    return numerics.Subspace(T.n, V), d


def pencil_normal_rank(T: Triple) -> int:
    """Rank of the pencil at all but finitely many points: ``n + m - d``."""
    return T.n + T.m - _zero_dynamics(T)[1]


def is_left_invertible(T: Triple) -> bool:
    """No two distinct inputs can produce the same output sequence."""
    return _zero_dynamics(T)[1] == 0


def invariant_zeros(T: Triple) -> PencilAnalysis:
    """All finite invariant zeros of a left-invertible triple.

    The zeros are the eigenvalues of the zero dynamics: the map X of the
    friend fit ``A V* = V* X + B U``, which is unique when the triple is
    left-invertible.  Each zero and its directions are read from an
    eigenpair of X and verified by the pencil residual of the direction.
    A non-left-invertible triple is reported with ``zeros=None``
    (infinitely many zeros).  This is :func:`_pencil_analyses` of one
    member.
    """
    return _pencil_analyses(T.A, [T.B], T.C)[0]


def _pencil_analyses(A, Bs, C) -> list:
    """:func:`invariant_zeros` of ``(A, B, C)`` for every ``B`` in ``Bs``,
    in order, with the V* fixpoints of all of them stacked
    (:func:`_zero_dynamics_bank`).

    ``A`` is square and every ``B`` column and ``C`` row a canonical basis
    vector, as in a :class:`Triple`.  The zeros are sought only where V*
    is nonzero and the triple left-invertible; with V* = 0 there are none.
    """
    n = A.shape[0]
    out = []
    for B, (V, d) in zip(Bs, _zero_dynamics_bank(A, Bs, C)):
        zeros = None if d else (_zeros_on(A, B, C, V) if V.shape[1] else ())
        out.append(PencilAnalysis(normal_rank=n + B.shape[1] - d,
                                  left_invertible=not d, zeros=zeros))
    return out


def _zeros_on(A, B, C, V) -> tuple:
    """The verified zeros of a left-invertible ``(A, B, C)`` from the
    eigenpairs of its friend map on the V* basis ``V``, sorted by real then
    imaginary part.

    For ``X w = z w`` the friend fit ``A V = V X + B U`` gives ``x0 = V w``
    and ``g = U w`` with ``(z I - A) x0 + B g`` the fit's error times ``w``
    and ``C x0 = C V w`` nearly zero, so each zero and its directions come
    from one eigenpair and one pencil product checks them."""
    X, U, _ = _friend_realization(A, B, V)
    found: list[InvariantZero] = []
    values, vectors = np.linalg.eig(X)
    for z, w in zip(values, vectors.T):
        if abs(z.imag) < 1e-9:
            z = complex(z.real, 0.0)
        if any(abs(z - other.z) < 1e-6 * max(1.0, abs(z)) for other in found):
            continue
        zero = _verify_zero_direction(A.shape[0], z, _pencil(A, B, C, z),
                                      np.concatenate([V @ w, U @ w]))
        if zero is not None:
            found.append(zero)
    found.sort(key=lambda w: (round(w.z.real, 9), round(w.z.imag, 9)))
    return tuple(found)


def _verify_zero_direction(n: int, z: complex, P: np.ndarray,
                           col: np.ndarray) -> InvariantZero | None:
    """The zero at ``z`` with direction ``col``, a candidate null vector of
    the pencil ``P`` of a triple with ``n`` states, or None.  The state part
    must be nonzero; it is scaled to unit norm and the equations re-checked
    against ``||P||``: a near null vector whose state part is small leaves
    a large residual once scaled, and is no zero direction."""
    if numerics._negligible(col[:n], col, 1e-8):
        return None
    col = col / np.linalg.norm(col[:n])
    r = P @ col
    if not numerics._negligible(np.linalg.norm(r), np.linalg.norm(P), _FIT_REL):
        return None
    return InvariantZero(z=z, x0=col[:n], g=col[n:], residual=float(
        max(np.linalg.norm(r[:n]), np.linalg.norm(r[n:]))))


def pbh_detectable(A, C) -> bool:
    """Eigenvector test on all eigenvalues of modulus >= 1."""
    A, C = as_matrix(A), as_matrix(C)
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - _UNIT_CIRCLE_MARGIN:
            stacked = np.vstack([lam * np.eye(n) - A, C.astype(complex)])
            if numerics.rank(stacked) < n:
                return False
    return True


def pbh_stabilizable(A, B) -> bool:
    """Dual eigenvector test: rank of ``[lam I - A, B]`` at unstable modes.

    ``(A, B)`` is stabilizable exactly when ``(A^T, B^T)`` is detectable.
    """
    return pbh_detectable(as_matrix(A).T, as_matrix(B).T)


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
    if radius >= 1.0 - _UNIT_CIRCLE_MARGIN:
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


def zero_dynamics_stability(T: Triple) -> ZeroDynamicsReport:
    """Classify zero-dynamics stability from the attacker/observer layout."""
    K = set(T.agents)
    Nj = set(T.measured)
    outside = [v for v in range(1, T.n + 1) if v not in K and v not in Nj]
    analysis = invariant_zeros(T)
    edges = graph.from_matrix(T.A).edges

    def has_edge(src_set, dst_set):
        return any((s, d) in edges for s in src_set for d in dst_set)

    if analysis.left_invertible and not has_edge(K, outside):
        return ZeroDynamicsReport(case="stable_case1")
    if analysis.left_invertible and not has_edge(outside, Nj):
        return ZeroDynamicsReport(case="stable_case2")
    if K <= Nj:
        return ZeroDynamicsReport(case="stable_case3")
    zeros = analysis.zeros
    moduli = tuple(abs(w.z) for w in zeros) if zeros is not None else ()
    return ZeroDynamicsReport(case="unknown", zeros=zeros, moduli=moduli)


def first_markov_index(T: Triple):
    """Smallest ``nu`` with ``C A^nu B`` nonzero, with that parameter.

    ``nu`` is the length of the shortest walk from an input agent to a
    measured agent in the digraph of ``A``.  For a nonnegative ``A`` no
    walk weights cancel, so this is exact, and at most n - 1 whenever a
    walk exists.  The digraph is that of ``graph.from_matrix``.  Raises
    ``ValueError`` when there are no inputs or no walk.
    """
    if T.m == 0:
        raise ValueError("triple has no inputs")
    # arc a -> b wherever A[b, a] is in the support: x_b reads x_a
    dist = csgraph.shortest_path(csr_matrix(numerics._support(T.A).T),
                                 unweighted=True, indices=np.argmax(T.B, axis=0))
    hops = dist[:, np.argmax(T.C, axis=1)].min(initial=np.inf)
    if not np.isfinite(hops):
        raise ValueError("no walk from the inputs to the measured agents")
    nu = int(hops)
    return nu, T.C @ np.linalg.matrix_power(T.A, nu) @ T.B


def output_zeroing_input(T: Triple, x0):
    """Generator of an input sequence keeping the output at zero from ``x0``.

    The output-zeroing motions are the motions inside V*, so ``x0`` is
    accepted exactly when V* contains it, a test that does not change
    when ``x0`` is scaled.  With the friend fit ``A V* = V* X + B U`` the
    input is ``u(t) = -U c(t)`` with ``c(0) = V*^T x0`` and ``c(t+1) =
    X c(t)``: the state stays at ``V* c(t)``, inside ``Ker C``.  When the
    triple is not left-invertible, ``(X, U)`` is one of many friends.
    Raises ``ValueError`` when ``x0`` is outside V* (or no friend fits).
    """
    x0 = as_vector(x0)
    V = _zero_dynamics(T)[0]
    if not V.contains(x0):
        raise ValueError("initial state not in V*: no input keeps the output "
                         "at zero")
    X, U, fits = _friend_realization(T.A, T.B, V.basis)
    if not fits:
        raise ValueError("no friend map fits A V* = V* X + B U")

    def generate():
        c = V.basis.T @ x0
        while True:
            yield -U @ c
            c = X @ c

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
    observer_side = sorted((graph._reachable(net.graph, j, removed, reverse=True)
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
    if not numerics._negligible(ys, traj.states, 1e-8):
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


def unidentifiability_witness(net: ConsensusMatrix, K1, K2, j: int,
                              horizon: int = 50):
    """Witness that ``K1`` and ``K2`` are indistinguishable at ``j``, if any.

    Two witnesses are tried, in order.  First an invisible state motion
    of the joint system driven by both sets: V*, the maximal
    output-nulling controlled invariant of ``(A, [B_K1, B_K2], C_j)``,
    and its friend map give a feedback-type witness.  The motion starts
    in the stable part of the friend map whenever that part is nonzero,
    so the witness stays bounded.  Failing that, when the sets share an
    agent, that agent is fed one deterministic sequence under both
    attributions from the zero state, which is exact for every horizon.
    Every witness is checked by simulating both attributions.  Returns
    None when neither applies.
    """
    K1 = tuple(sorted(set(K1)))
    K2 = tuple(sorted(set(K2)))
    if K1 == K2:
        raise ValueError("candidate sets must differ")
    n = net.n
    B = np.hstack([input_matrix(n, K1), input_matrix(n, K2)])
    m1 = len(K1)
    V_star = _zero_dynamics(Triple.from_matrices(net.A, B,
                                                 net.output_matrix(j)))[0]
    if V_star.dim:
        V = V_star.basis
        X, U, fits = _friend_realization(net.A, B, V)
        if fits:
            coords = _invisible_motion(X, horizon)
            full_u = -(U @ coords.T).T
            witness = UnidentifiabilityWitness(
                K1=K1, K2=K2, x0=V @ coords[0], inputs_1=full_u[:, :m1],
                inputs_2=-full_u[:, m1:], horizon=horizon)
            if _witness_outputs_match(net, witness, j):
                return witness
    # No invisible motion: one input on a shared agent fits both sets.
    shared = min(set(K1) & set(K2), default=None)
    if shared is None:
        return None
    inputs_1 = np.zeros((horizon, m1))
    inputs_2 = np.zeros((horizon, len(K2)))
    inputs_1[:, K1.index(shared)] = inputs_2[:, K2.index(shared)] = (
        np.random.default_rng(_WITNESS_SEED).standard_normal(horizon))
    witness = UnidentifiabilityWitness(
        K1=K1, K2=K2, x0=np.zeros(n), inputs_1=inputs_1, inputs_2=inputs_2,
        horizon=horizon)
    return witness if _witness_outputs_match(net, witness, j) else None


def _invisible_motion(X, horizon: int) -> np.ndarray:
    """Rows ``a, X a, X^2 a, ...`` of a motion under the friend map ``X``.

    The unit start ``a`` is drawn in the invariant subspace of ``X`` for
    the eigenvalues in the closed unit disc, from an ordered real Schur
    form ``X = Z T Z^T`` whose leading block ``T_11`` carries them, and
    the motion is iterated with ``T_11`` and mapped back through ``Z_1``:
    stepping with ``X`` itself would feed rounding into the unstable
    modes.  With no such eigenvalue, ``a`` is drawn from all of the space
    and stepped with ``X``.
    """
    import scipy.linalg

    T, Z, sdim = scipy.linalg.schur(X, output="real", sort="iuc")
    step, back = (T[:sdim, :sdim], Z[:, :sdim]) if sdim else (X, np.eye(len(X)))
    a = np.random.default_rng(_WITNESS_SEED).standard_normal(step.shape[0])
    a /= np.linalg.norm(a)
    coords = np.empty((horizon, step.shape[0]))
    for t in range(horizon):
        coords[t] = a
        a = step @ a
    return coords @ back.T


def _witness_outputs_match(net: ConsensusMatrix, w: UnidentifiabilityWitness,
                           j: int) -> bool:
    """The two attributions' outputs agree relative to the shared output's
    magnitude, which grows without bound when the invisible motion is
    unstable."""
    atk1 = [Attack.sequence(a, w.inputs_1[:, k])
            for k, a in enumerate(w.K1)]
    atk2 = [Attack.sequence(a, w.inputs_2[:, k])
            for k, a in enumerate(w.K2)]
    y1 = net.outputs(simulate(net, w.x0, atk1, w.horizon).states, j)
    y2 = net.outputs(simulate(net, np.zeros(net.n), atk2, w.horizon).states, j)
    return numerics._negligible(y1 - y2, y1, _FIT_REL)
