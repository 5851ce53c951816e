"""Consensus matrices and trajectory simulation under misbehaving agents.

A consensus matrix is row stochastic and primitive, so the unforced
iteration ``x(t+1) = A x(t)`` drives all agents to the common value
``pi @ x(0)``.  Misbehavior of a set K is an additive unknown input at
the agents' own coordinates: ``x(t+1) = A x(t) + B_K u_K(t)`` with the
columns of ``B_K`` canonical basis vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from . import graph as graphmod
from .numerics import (_ROW_SUM_TOL, _negligible, _stationary_vector,
                       _support, as_matrix, as_vector)

# an unobservable offset is neutral when the trajectories from x0 and x0 + v
# agree after this many steps, relative to the scale of x0 and v
_NEUTRAL_STEPS = 400
_NEUTRAL_REL = 1e-8


class ConsensusError(ValueError):
    """A matrix failed one of the consensus-matrix properties."""


@dataclass(frozen=True)
class ConsensusMatrix:
    """Validated row-stochastic primitive matrix with its stationary vector."""

    A: np.ndarray
    pi: np.ndarray
    graph: graphmod.DiGraph

    def __post_init__(self):
        self.A.setflags(write=False)
        self.pi.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def observed_set(self, j: int) -> tuple:
        """Agents whose state observer ``j`` measures.

        These are the in-neighbors of ``j`` including ``j`` itself when
        its self-weight is nonzero: the rows of :meth:`output_matrix`.
        """
        return tuple(int(i) + 1 for i in np.argmax(self.output_matrix(j), axis=1))

    def output_matrix(self, j: int) -> np.ndarray:
        """Rows of the identity selecting the states observed by ``j``."""
        return _output_matrix(self.A, j)

    def outputs(self, states: np.ndarray, j: int) -> np.ndarray:
        """Measurement sequence of observer ``j`` along a state trajectory."""
        idx = [i - 1 for i in self.observed_set(j)]
        return np.atleast_2d(states)[:, idx]


def _output_matrix(A: np.ndarray, j: int) -> np.ndarray:
    """Output matrix ``C_j`` of observer ``j``: the support of row ``j`` of A.

    ``A`` need not be a consensus matrix, so that matrices failing
    validation can still be analysed.
    """
    n = A.shape[0]
    if not 1 <= j <= n:
        raise ValueError(f"agent {j} outside 1..{n}")
    return np.eye(n)[_support(A[j - 1])]


def input_matrix(n: int, agents) -> np.ndarray:
    """Canonical input matrix ``B_K`` for a set of agents (1-based)."""
    agents = list(agents)
    B = np.zeros((n, len(agents)))
    for col, a in enumerate(agents):
        if not 1 <= a <= n:
            raise ValueError(f"agent {a} outside 1..{n}")
        B[a - 1, col] = 1.0
    return B


def _period(arcs: csr_matrix) -> int:
    """Period of a strongly connected digraph given as a CSR adjacency,
    self-loops included: the gcd over its arcs a -> b of d(a) + 1 - d(b),
    d the hop distance from vertex 1.  Reversed arcs give the same period."""
    d = shortest_path(arcs, unweighted=True, indices=0).astype(int)
    tails = np.repeat(np.arange(arcs.shape[0]), np.diff(arcs.indptr))
    return int(np.gcd.reduce(np.abs(d[tails] + 1 - d[arcs.indices])))


def _checks(A: np.ndarray) -> list:
    """``(name, passed, detail)`` rows of the consensus-matrix checks of a
    finite 2-d ``A``: square (alone if not), nonnegative entries, row sums
    one, irreducible and, if irreducible, primitive (the support digraph
    has period 1).  A failed row's detail is what :func:`validate` raises."""
    n, m = A.shape
    if n != m or n == 0:
        return [("square", False, "matrix is empty" if n == m
                 else f"matrix is not square: {n}x{m}")]
    neg = np.argwhere(A < 0)
    err = np.abs(A.sum(axis=1) - 1.0)
    bad = int(np.argmax(err))
    sums_one = bool(err[bad] <= _ROW_SUM_TOL)
    arcs = csr_matrix(_support(A), dtype=float)
    strong = connected_components(arcs, connection="strong",
                                  return_labels=False) == 1
    rows = [("square", True, f"{n}x{n}"),
            ("nonnegative entries", not neg.size,
             "negative entry at row {}, column {}".format(*neg[0] + 1)
             if neg.size else f"min entry {A.min():.3g}"),
            ("row sums equal one", sums_one, f"max error {err[bad]:.3g}"
             if sums_one else f"row {bad + 1} sums to {A[bad].sum():.12f}, not 1"),
            ("irreducible", strong, "strongly connected graph" if strong
             else "matrix is reducible: graph not strongly connected")]
    if strong:
        period = _period(arcs)
        rows.append(("primitive", period == 1, ("matrix is imprimitive: "
                     if period != 1 else "") + f"graph has period {period}"))
    return rows


def validate(A) -> ConsensusMatrix:
    """Wrap ``A`` after the checks of :func:`_checks`: square, nonnegative,
    row sums within 1e-10 of one, irreducible and primitive, the last two
    on the support of ``A`` (``numerics._support``, |a| > 1e-12).  Raises
    ``ConsensusError`` with the detail of the first check that fails."""
    A = as_matrix(A, "consensus matrix")
    for _, passed, detail in _checks(A):
        if not passed:
            raise ConsensusError(detail)
    return ConsensusMatrix(A=A.copy(), pi=_stationary_vector(A),
                           graph=graphmod.from_matrix(A))


def _finite(x, name: str) -> float:
    """``x`` as a float, rejecting NaN and infinities."""
    v = float(x)
    if not np.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v}")
    return v


@dataclass(frozen=True)
class Attack:
    """Additive input model for one misbehaving agent.

    ``kind`` is one of ``constant``, ``exponential``, ``state_feedback``,
    ``sequence``, ``initial_offset``.
    """

    agent: int
    kind: str
    value: float = 0.0
    rate: float = 0.0
    row: np.ndarray | None = None
    offset: float = 0.0
    values: np.ndarray | None = None

    @classmethod
    def constant(cls, agent: int, c: float) -> "Attack":
        return cls(agent=agent, kind="constant",
                   value=_finite(c, f"attack value of agent {agent}"))

    @classmethod
    def exponential(cls, agent: int, z: float, u0: float) -> "Attack":
        z = _finite(z, f"attack rate of agent {agent}")
        if not 0.0 < abs(z) < 1.0:
            raise ValueError("exponential attack requires 0 < |z| < 1")
        return cls(agent=agent, kind="exponential", rate=z,
                   value=_finite(u0, f"attack value of agent {agent}"))

    @classmethod
    def state_feedback(cls, agent: int, row, offset: float = 0.0) -> "Attack":
        r = as_vector(row, "feedback row")
        r.setflags(write=False)
        return cls(agent=agent, kind="state_feedback", row=r,
                   offset=_finite(offset, f"feedback offset of agent {agent}"))

    @classmethod
    def sequence(cls, agent: int, values) -> "Attack":
        v = as_vector(values, "input sequence")
        v.setflags(write=False)
        return cls(agent=agent, kind="sequence", values=v)

    @classmethod
    def initial_offset(cls, agent: int, c: float) -> "Attack":
        return cls(agent=agent, kind="initial_offset",
                   value=_finite(c, f"initial offset of agent {agent}"))

    def input_at(self, t: int, x: np.ndarray) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "exponential":
            return self.value * self.rate ** t
        if self.kind == "state_feedback":
            return float(self.row @ x) + self.offset
        if self.kind == "sequence":
            return float(self.values[t]) if t < len(self.values) else 0.0
        if self.kind == "initial_offset":
            return 0.0
        raise ValueError(f"unknown attack kind {self.kind!r}")

    def inputs(self, T: int) -> np.ndarray:
        """The inputs at t = 0..T-1 of an attack that ignores the state.

        Equal entry by entry to :meth:`input_at`; state-feedback inputs
        depend on the trajectory and raise ``ValueError``.
        """
        if self.kind == "constant":
            return np.full(T, self.value)
        if self.kind == "exponential":
            # Python's float power: numpy's differs in the last bit
            return self.value * np.array([self.rate ** t for t in range(T)])
        if self.kind == "sequence":
            out = np.zeros(T)
            m = min(T, len(self.values))
            out[:m] = self.values[:m]
            return out
        if self.kind == "initial_offset":
            return np.zeros(T)
        if self.kind == "state_feedback":
            raise ValueError("state-feedback inputs depend on the state")
        raise ValueError(f"unknown attack kind {self.kind!r}")


@dataclass(frozen=True)
class Trajectory:
    """States, applied inputs, and input agents of one simulation run.

    ``states`` has shape (T+1, n); ``inputs`` has shape (T, m) aligned
    with ``input_agents`` so that the recursion
    ``x(t+1) = A x(t) + B_K u_K(t)`` holds exactly.
    """

    states: np.ndarray
    input_agents: tuple
    inputs: np.ndarray

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1


def simulate(net: ConsensusMatrix, x0, attacks=(), T: int = 100) -> Trajectory:
    """Run ``x(t+1) = A x(t) + B_K u_K(t)`` for T steps.

    State-feedback attacks are evaluated on the current full network
    state; initial-offset attacks perturb ``x(0)`` only.
    """
    if T < 1:
        raise ValueError("horizon must be at least 1")
    A = net.A
    n = net.n
    x = as_vector(x0, "initial state").copy()
    if x.size != n:
        raise ValueError("initial state dimension mismatch")
    attacks = list(attacks)
    for atk in attacks:
        if not 1 <= atk.agent <= n:
            raise ValueError(f"attack agent {atk.agent} outside 1..{n}")
        if atk.kind == "state_feedback" and atk.row.size != n:
            raise ValueError(f"attack agent {atk.agent}: feedback row has "
                             f"{atk.row.size} entries, not {n}")
        if atk.kind == "initial_offset":
            x[atk.agent - 1] += atk.value
    active = [a for a in attacks if a.kind != "initial_offset"]
    agents = tuple(sorted({a.agent for a in active}))
    col = {a: k for k, a in enumerate(agents)}
    # feedback needs x(t), so an agent under state feedback has all its
    # inputs summed step by step; the other agents' inputs are summed here
    # as whole columns.  Both sum in list order, so u_K(t) is the same
    # float as when every input is evaluated per step.
    closed = {a.agent for a in active if a.kind == "state_feedback"}
    looped = [(col[a.agent], a) for a in active if a.agent in closed]
    inputs = np.zeros((T, len(agents)))
    for atk in active:
        if atk.agent not in closed:
            inputs[:, col[atk.agent]] += atk.inputs(T)
    drive = np.zeros((T, n))
    drive[:, [a - 1 for a in agents]] = inputs
    states = np.zeros((T + 1, n))
    states[0] = x
    dot, add = A.dot, np.add
    for t, (x, nxt, d) in enumerate(zip(states[:-1], states[1:], drive)):
        for k, atk in looped:
            inputs[t, k] += atk.input_at(t, x)
            d[atk.agent - 1] = inputs[t, k]
        # A x(t) goes straight into the next row, with no temporary
        dot(x, nxt)
        add(nxt, d, nxt)
    states.setflags(write=False)
    inputs.setflags(write=False)
    return Trajectory(states=states, input_agents=agents, inputs=inputs)


def consensus_value(net: ConsensusMatrix, x0) -> float:
    """Limit value of the unforced iteration from ``x0``."""
    return float(net.pi @ as_vector(x0))


def principal_submatrix_spectral_radius(net: ConsensusMatrix, J) -> float:
    """Spectral radius of A restricted to a proper subset of agents.

    Always below 1 for a consensus matrix: every quasi-stochastic
    principal submatrix is Schur stable.
    """
    J = sorted(set(J))
    if not J or len(J) >= net.n:
        raise ValueError("J must be a nonempty proper subset of agents")
    idx = [j - 1 for j in J]
    sub = net.A[np.ix_(idx, idx)]
    return float(np.max(np.abs(np.linalg.eigvals(sub))))


def stubborn_agent_gain(net: ConsensusMatrix, i: int) -> np.ndarray:
    """Steady-state gain from a stubborn agent to the rest of the network.

    With agent ``i`` holding a constant value, the others settle at
    ``(I - Q)^{-1} R`` times that value; for a consensus matrix this
    gain is the all-ones vector, which is verified before returning.
    """
    if not 1 <= i <= net.n:
        raise ValueError(f"agent {i} outside 1..{net.n}")
    others = [k for k in range(net.n) if k != i - 1]
    Q = net.A[np.ix_(others, others)]
    R = net.A[np.ix_(others, [i - 1])]
    gain = np.linalg.solve(np.eye(len(others)) - Q, R).ravel()
    if np.max(np.abs(gain - 1.0)) > 1e-9:
        raise ConsensusError("stubborn-agent gain deviates from all-ones; "
                             "matrix is not a valid consensus matrix")
    return gain


def attack_effect_constant(net: ConsensusMatrix, K, c) -> np.ndarray:
    """Offset of the final consensus state caused by initial-value tampering.

    Agents ``K`` shifting their initial states by ``c`` move the limit
    by ``ones * (pi @ B_K @ c)``.
    """
    K = list(K)
    c = np.broadcast_to(np.asarray(c, dtype=float).ravel(), (len(K),))
    piK = np.array([net.pi[a - 1] for a in K])
    return np.ones(net.n) * float(piK @ c)


def exponential_input_bound(net: ConsensusMatrix, K, z: float, u0) -> np.ndarray:
    """Componentwise bound on the state offset of a decaying attack.

    For inputs dominated by ``z**t * u0`` (entrywise, ``0 < z < 1`` and
    ``u0 >= 0``) the accumulated effect on the state is bounded by
    ``ones * (pi @ B_K @ u0) / (1 - z)``.
    """
    if not 0.0 < z < 1.0:
        raise ValueError("decay factor must satisfy 0 < z < 1")
    K = list(K)
    u0 = np.broadcast_to(np.asarray(u0, dtype=float).ravel(), (len(K),))
    if np.min(u0) < 0:
        raise ValueError("u0 must be entrywise nonnegative")
    piK = np.array([net.pi[a - 1] for a in K])
    return np.ones(net.n) * float(piK @ u0) / (1.0 - z)


def unobservable_subspace(net: ConsensusMatrix, j: int):
    """States that observer ``j`` never sees: V*(A, 0, C_j), the maximal
    output-nulling controlled invariant with no inputs, which is the
    largest A-invariant subspace inside Ker C_j."""
    from .fdi import max_controlled_invariant

    return max_controlled_invariant(net.A, np.zeros((net.n, 0)),
                                    net.output_matrix(j))


def unobservable_offset_is_neutral(net: ConsensusMatrix, j: int, v) -> bool:
    """Check that an unobservable initial-state offset leaves the limit alone.

    Requires ``v`` to lie in the unobservable subspace of ``(A, C_j)``;
    then ``pi @ v`` must vanish against ``v`` and trajectories from ``x0``
    and ``x0 + v`` reach the same state after ``_NEUTRAL_STEPS`` steps, up
    to ``_NEUTRAL_REL`` of their scale.
    """
    v = as_vector(v)
    unobs = unobservable_subspace(net, j)
    if not unobs.contains(v):
        raise ValueError("offset is observable from the chosen agent")
    if not _negligible(net.pi @ v, v, _NEUTRAL_REL):
        return False
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(net.n)
    base = simulate(net, x0, (), _NEUTRAL_STEPS).states[-1]
    moved = simulate(net, x0 + v, (), _NEUTRAL_STEPS).states[-1]
    return _negligible(moved - base, np.concatenate([x0, v]), _NEUTRAL_REL)


def random_consensus_matrix(n: int, rng: np.random.Generator,
                            extra_edges: int = 0,
                            min_connectivity: int | None = None,
                            max_tries: int = 200) -> ConsensusMatrix:
    """Random consensus matrix on n agents.

    Starts from a bidirectional ring plus ``extra_edges`` random
    ordered pairs, always with positive self-weights, then draws weights
    uniform on [0.1, 1] and renormalizes rows.  Optionally resamples
    until the digraph reaches ``min_connectivity``.
    """
    for _ in range(max_tries):
        mask = np.eye(n, dtype=bool)
        for i in range(n):
            mask[i, (i + 1) % n] = True
            mask[(i + 1) % n, i] = True
        for _ in range(extra_edges):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                mask[i, j] = True
        A = np.where(mask, rng.uniform(0.1, 1.0, size=(n, n)), 0.0)
        A /= A.sum(axis=1, keepdims=True)
        net = validate(A)
        if (min_connectivity is None
                or graphmod.vertex_connectivity(net.graph) >= min_connectivity):
            return net
    raise RuntimeError("failed to sample a consensus matrix with the "
                       "requested connectivity")
