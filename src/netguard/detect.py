"""Deployable detection and identification procedures.

Three layers: a cheap per-agent detection filter whose innovation flags
any active misbehavior asymptotically; complete identification, which
runs a bank of parity-space residual generators (shift registers of the
last few outputs, one per candidate misbehaving set) and identifies by
exclusion in finite time; and local identification on weakly coupled
networks, which designs the bank against the block-diagonal part only
and separates misbehaving from well-behaving residuals with a calibrated
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.optimize
import scipy.sparse

from . import fdi, graph as graphmod
from .consensus import ConsensusMatrix, input_matrix
from .numerics import as_matrix, as_vector


@dataclass
class DetectionFilter:
    """Local observer whose innovation reveals active misbehavior.

    Built from the measured columns of the network matrix: with
    ``G = -A_{N_j}``, ``H = C_j^T`` and ``L = I - H C_j`` the filter

        z(t+1) = (A + G C_j) z(t) - G y(t)
        xhat(t) = L z(t) + H y(t)

    has a Schur-stable loop, the residual ``xhat(t+1) - A xhat(t)``
    converges to zero exactly when the misbehaving input does, and when
    all misbehaving agents are measured the filter also estimates the
    full network state.
    """

    A: np.ndarray
    G: np.ndarray
    H: np.ndarray
    L: np.ndarray
    C: np.ndarray
    observer: int
    z: np.ndarray = field(default=None)
    # the loop matrix A + G C, fixed at construction
    _closed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._closed = self.A + self.G @ self.C

    @classmethod
    def from_network(cls, net: ConsensusMatrix, j: int) -> "DetectionFilter":
        C = net.output_matrix(j)
        idx = [i - 1 for i in net.observed_set(j)]
        G = -net.A[:, idx]
        H = C.T
        L = np.eye(net.n) - H @ C
        filt = cls(A=net.A.copy(), G=G, H=H, L=L, C=C, observer=j,
                   z=np.zeros(net.n))
        radius = np.max(np.abs(np.linalg.eigvals(filt._closed)))
        if radius >= 1.0:
            raise ValueError("detection filter loop is not Schur stable")
        return filt

    def reset(self):
        self.z = np.zeros(self.A.shape[0])

    def step(self, y) -> np.ndarray:
        """Consume one measurement, return the current state estimate."""
        y = as_vector(y)
        xhat = self.L @ self.z + self.H @ y
        self.z = self._closed @ self.z - self.G @ y
        return xhat

    def run(self, ys):
        """Estimates and innovation residuals along an output sequence.

        Returns ``(estimates, residuals)`` with ``residuals[t] =
        xhat(t+1) - A xhat(t)``; the residual sequence is one step
        shorter than the estimate sequence.
        """
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        self.reset()
        estimates = np.array([self.step(y) for y in ys])
        residuals = estimates[1:] - estimates[:-1] @ self.A.T
        return estimates, residuals


@dataclass
class IdentificationVerdict:
    """Outcome of complete identification at one observer.

    ``status`` is ``identified`` when exactly one minimal candidate set
    is consistent with the residual pattern, else ``ambiguous`` with the
    surviving candidates.  ``unsolvable`` lists (target, decouple-set)
    pairs whose generator could not isolate the target.
    """

    observer: int
    status: str
    identified: tuple
    candidates: tuple
    horizon: int
    unsolvable: tuple
    residual_norms: dict


def complete_identification(net: ConsensusMatrix, j: int, k: int, ys,
                            residual_floor: float = 1e-7) -> IdentificationVerdict:
    """Identify up to ``k`` misbehaving agents from observer ``j``'s data.

    One parity-space residual generator is synthesized per candidate
    decoupled k-subset of the other agents: a parity relation on the
    shortest output window that cancels the initial state and the
    decoupled inputs.  A candidate misbehaving set is consistent when
    every generator decoupling it stays, past its horizon, below
    ``residual_floor`` times the largest measured magnitude.  The unique
    minimal consistent set is returned; several minimal survivors
    (colluding agents riding an invisible motion) yield an ambiguous
    verdict.  The verdict's ``horizon`` is the longest parity window.

    Requires network connectivity at least ``k + 1``; identification of
    malicious sets is only guaranteed from ``2k + 1``.
    """
    conn = graphmod.vertex_connectivity(net.graph)
    if conn < k + 1:
        raise ValueError(f"connectivity {conn} below required {k + 1}")
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    floor = residual_floor * float(np.max(np.abs(ys), initial=0.0))
    others = [a for a in range(1, net.n + 1) if a != j]
    C = net.output_matrix(j)
    fired = {}
    horizons = [1]
    unsolvable = []
    norms = {}
    eye = np.eye(net.n)
    for D in combinations(others, k):
        B_D = input_matrix(net.n, D)
        report = fdi.synthesize_residual_generator(
            net.A, np.zeros((net.n, 0)), B_D, C)
        if report.generator is None:
            unsolvable.append(((), D))
            fired[D] = None
            continue
        gen = report.generator
        # i is isolable against D iff e_i is outside S_M(D), as in synthesis
        for i in (a for a in others if a not in D):
            if report.S_M.contains(eye[i - 1]):
                unsolvable.append((i, D))
        res = fdi.run_residual(gen, ys)
        tail = res[min(gen.horizon, res.shape[0] - 1):]
        level = float(np.max(np.abs(tail))) if tail.size else 0.0
        fired[D] = level > floor
        norms[D] = np.max(np.abs(res), axis=1)
        horizons.append(gen.horizon)
    unsolvable_pairs = {(i, D) for (i, D) in unsolvable}
    consistent = []
    for size in range(k + 1):
        for S in combinations(others, size):
            ok = True
            for D, was_fired in fired.items():
                if set(S) <= set(D):
                    if was_fired is None:
                        continue
                    if was_fired:
                        ok = False
                        break
            if ok:
                consistent.append(S)
        if consistent:
            break
    horizon = max(horizons)
    if len(consistent) == 1:
        return IdentificationVerdict(observer=j, status="identified",
                                     identified=consistent[0],
                                     candidates=tuple(consistent),
                                     horizon=horizon,
                                     unsolvable=tuple(sorted(unsolvable_pairs)),
                                     residual_norms=norms)
    return IdentificationVerdict(observer=j, status="ambiguous",
                                 identified=(),
                                 candidates=tuple(consistent),
                                 horizon=horizon,
                                 unsolvable=tuple(sorted(unsolvable_pairs)),
                                 residual_norms=norms)


# -- weakly coupled decomposition ---------------------------------------------


class BlockStructureError(ValueError):
    """A partition block is incompatible with the decomposition rules."""


@dataclass(frozen=True)
class BlockDecomposition:
    """Split of ``A`` into block-diagonal consensus part plus coupling.

    ``A = A_d + epsilon * Delta`` exactly, with ``norm(Delta, inf) == 2``
    whenever the coupling is nonzero and every diagonal block of ``A_d``
    row-stochastic on its own agents.
    """

    partition: tuple
    A: np.ndarray
    A_d: np.ndarray
    Delta: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.A.setflags(write=False)
        self.A_d.setflags(write=False)
        self.Delta.setflags(write=False)

    @classmethod
    def from_parts(cls, A_d, Delta, epsilon: float,
                   partition) -> "BlockDecomposition":
        """Wrap an externally supplied decomposition.

        Accepts any pair with ``norm(Delta, inf) <= 2`` and row-stochastic
        diagonal blocks; such pairs are not unique, so this need not match
        what :func:`block_decompose` reconstructs from the coupled matrix.
        """
        A_d = as_matrix(A_d)
        Delta = as_matrix(Delta)
        parts = tuple(tuple(sorted(int(a) for a in block)) for block in partition)
        width = float(np.max(np.abs(Delta).sum(axis=1)))
        if width > 2.0 + 1e-9:
            raise BlockStructureError("coupling matrix exceeds the unit width")
        return cls(partition=parts, A=A_d + epsilon * Delta, A_d=A_d.copy(),
                   Delta=Delta.copy(), epsilon=float(epsilon))

    @property
    def n_blocks(self) -> int:
        return len(self.partition)

    def block_agents(self, h: int) -> tuple:
        if not 1 <= h <= self.n_blocks:
            raise ValueError(f"block {h} outside 1..{self.n_blocks}")
        return self.partition[h - 1]

    def block_matrix(self, h: int) -> np.ndarray:
        idx = [a - 1 for a in self.block_agents(h)]
        return self.A_d[np.ix_(idx, idx)]

    def matrix_at(self, epsilon: float) -> np.ndarray:
        """Coupled matrix with the coupling strength overridden."""
        return self.A_d + epsilon * self.Delta


def block_decompose(A, partition) -> BlockDecomposition:
    """Apply the decomposition rules for a given agent partition.

    Within-block off-diagonal entries are copied, each diagonal entry is
    raised so its block row sums to one, and cross-block entries are
    dropped; the remainder is normalized into ``epsilon * Delta``.
    """
    A = as_matrix(A)
    n = A.shape[0]
    parts = [tuple(sorted(int(a) for a in block)) for block in partition]
    flat = [a for block in parts for a in block]
    if sorted(flat) != list(range(1, n + 1)):
        raise BlockStructureError("partition must cover agents 1..n exactly once")
    A_d = np.zeros_like(A)
    for h, block in enumerate(parts, start=1):
        idx = [a - 1 for a in block]
        for r in idx:
            off = [c for c in idx if c != r]
            A_d[r, off] = A[r, off]
            diag = 1.0 - A[r, off].sum()
            if diag < -1e-12:
                raise BlockStructureError(
                    f"block {h} is not internally row-substochastic at agent {r + 1}")
            A_d[r, r] = diag
    gap = A - A_d
    width = np.max(np.abs(gap).sum(axis=1))
    if width <= 1e-15:
        Delta = np.zeros_like(A)
        epsilon = 0.0
    else:
        epsilon = 0.5 * width
        Delta = gap / epsilon
    return BlockDecomposition(partition=tuple(parts), A=A.copy(), A_d=A_d,
                              Delta=Delta, epsilon=epsilon)


@dataclass(frozen=True)
class BankEntry:
    """One residual generator of a local bank: flags its target agent."""

    target: int
    decouple: tuple
    generator: fdi.ResidualGenerator | None
    solvable: bool


@dataclass(frozen=True)
class LocalBank:
    """Residual generators for one block, designed on the block alone.

    ``observed`` lists the full-network agents whose states feed the
    filters (the observer's within-block measurements); ``eval_time`` is
    the decision step, at least the slowest generator horizon.
    """

    block: int
    observer: int
    k_j: int
    agents: tuple
    observed: tuple
    entries: tuple
    eval_time: int


def build_local_bank(decomp: BlockDecomposition, h: int, j: int,
                     k_j: int) -> LocalBank:
    """Design the block-local residual generators for observer ``j``.

    One generator per within-block candidate agent and decoupled
    candidate subset, synthesized against the h-th diagonal block only.
    Requires the block digraph to be at least ``k_j + 1`` connected.
    """
    agents = decomp.block_agents(h)
    if j not in agents:
        raise ValueError(f"observer {j} not in block {h}")
    A_h = decomp.block_matrix(h)
    n_h = len(agents)
    conn = graphmod.vertex_connectivity(graphmod.from_matrix(A_h))
    if n_h > 1 and conn < k_j + 1:
        raise ValueError(f"block connectivity {conn} below required {k_j + 1}")
    pos = {a: idx for idx, a in enumerate(agents)}
    j_loc = pos[j]
    observed_loc = [idx for idx in range(n_h) if abs(A_h[j_loc, idx]) > 1e-12]
    C_loc = np.zeros((len(observed_loc), n_h))
    C_loc[np.arange(len(observed_loc)), observed_loc] = 1.0
    entries = []
    horizons = [1]
    candidates = [a for a in agents if a != j]
    for c in candidates:
        pool = [a for a in candidates if a != c]
        size = min(k_j, len(pool))
        for D in combinations(pool, size):
            B_t = np.zeros((n_h, 1))
            B_t[pos[c], 0] = 1.0
            B_d = np.zeros((n_h, len(D)))
            for col, a in enumerate(D):
                B_d[pos[a], col] = 1.0
            report = fdi.synthesize_residual_generator(A_h, B_t, B_d, C_loc)
            gen = report.generator
            if gen is not None:
                gen = fdi.ResidualGenerator(F=gen.F, E=gen.E, M=gen.M, H=gen.H,
                                            horizon=gen.horizon, target=(c,),
                                            decoupled=tuple(D))
                horizons.append(gen.horizon)
            entries.append(BankEntry(target=c, decouple=tuple(D),
                                     generator=gen, solvable=gen is not None))
    observed_full = tuple(agents[idx] for idx in observed_loc)
    return LocalBank(block=h, observer=j, k_j=k_j, agents=agents,
                     observed=observed_full, entries=tuple(entries),
                     eval_time=max(horizons))


def block_outputs(decomp: BlockDecomposition, bank: LocalBank,
                  states) -> np.ndarray:
    """Slice a state trajectory to the measurements feeding a local bank."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    idx = [a - 1 for a in bank.observed]
    return states[:, idx]


# -- certified threshold calibration ------------------------------------------


class CalibrationError(RuntimeError):
    """Certified residual bounds fail to separate at the given coupling."""

    def __init__(self, message, epsilon_star=None, crossing_value=None):
        super().__init__(message)
        self.epsilon_star = epsilon_star
        self.crossing_value = crossing_value


@dataclass(frozen=True)
class ThresholdCalibration:
    """Certified residual bounds and the decision threshold between them.

    ``bound_wellbehaving`` is a worst-case upper bound on the decision-
    time residual of any generator targeting a well-behaving agent;
    ``bound_misbehaving`` is a worst-case lower bound for a generator
    whose target is active with magnitude in ``[u_min, u_max]``.  The
    threshold sits at their midpoint.  ``alpha`` is the input-floor
    ratio ``u_min / (epsilon * u_max)`` and ``alpha_min`` the smallest
    ratio at which the bounds still separate.
    """

    block: int
    alpha: float
    alpha_min: float
    u_min: float
    u_max: float
    x_max: float
    T_h: float
    horizon: int
    eval_time: int
    epsilon: float
    bound_wellbehaving: float
    bound_misbehaving: float


def _residual_coefficients(A_full, gen: fdi.ResidualGenerator, observed,
                           input_agents, t_star: int):
    """Linear maps from initial state and input samples to r(t_star).

    Works on the augmented filter-over-network system; returns the
    state coefficient (q, n) and per-agent sample coefficients of shape
    (t_star, q).
    """
    n = A_full.shape[0]
    d = gen.state_dim
    idx = [a - 1 for a in observed]
    C_O = np.zeros((len(idx), n))
    C_O[np.arange(len(idx)), idx] = 1.0
    Aaug = np.zeros((n + d, n + d))
    Aaug[:n, :n] = A_full
    Aaug[n:, :n] = gen.E @ C_O
    Aaug[n:, n:] = gen.F
    R = np.hstack([gen.H @ C_O, gen.M])
    powers = [np.eye(n + d)]
    for _ in range(t_star):
        powers.append(Aaug @ powers[-1])
    Psi_x = R @ powers[t_star][:, :n]
    coeffs = {}
    for a in input_agents:
        e = np.zeros(n + d)
        e[a - 1] = 1.0
        samples = np.zeros((t_star, R.shape[0]))
        for tau in range(t_star):
            samples[tau] = R @ powers[t_star - 1 - tau] @ e
        coeffs[a] = samples
    return Psi_x, coeffs


def _box_max(Psi_x, samples, box, x_max: float) -> float:
    """Exact max of the residual sup-norm over the variable boxes.

    ``samples`` stacks the input-sample coefficient rows (one per sample,
    ``q`` columns), every sample ranging over ``box``.  A linear form
    peaks over a box at the vertex matching its signs, so each row and
    sign is a closed-form sum.
    """
    lo, hi = box
    base = x_max * np.sum(np.abs(Psi_x), axis=1)
    up = np.sum(np.maximum(samples * lo, samples * hi), axis=0)
    down = np.sum(np.maximum(-samples * lo, -samples * hi), axis=0)
    return float(max(0.0, np.max(base + up), np.max(base + down)))


def _joint_box_min(blocks, box, x_max: float) -> float:
    """Least, over the generators, of the min residual sup-norm (one LP).

    ``blocks`` holds one ``(Psi_x, samples)`` pair per generator.  Each
    generator's minimum is the LP min t s.t. -t <= K v <= t, with
    ``K = [Psi_x, samples^T]`` and v ranging over the state and input
    boxes.  The generators share no variable, so their LPs are stacked
    block-diagonally into one LP minimizing the sum of the levels t_e;
    a separable LP is optimal exactly when each block is, so every t_e
    of the solution is its generator's own minimum.
    """
    if not blocks:
        return np.inf
    lo, hi = box
    rows, cols, vals, lower, upper, levels = [], [], [], [], [], []
    r0 = c0 = 0
    for Psi_x, samples in blocks:
        q, n = Psi_x.shape
        m = samples.shape[0]
        K = np.hstack([Psi_x, samples.T])
        level = -np.ones((q, 1))
        K = np.vstack([np.hstack([K, level]), np.hstack([-K, level])])
        r, c = np.nonzero(K)
        rows.append(r + r0)
        cols.append(c + c0)
        vals.append(K[r, c])
        lower += [-x_max] * n + [lo] * m + [0.0]
        upper += [x_max] * n + [hi] * m + [np.inf]
        levels.append(c0 + n + m)
        r0 += 2 * q
        c0 += n + m + 1
    A_ub = scipy.sparse.csc_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(r0, c0))
    cost = np.zeros(c0)
    cost[levels] = 1.0
    res = scipy.optimize.linprog(cost, A_ub=A_ub, b_ub=np.zeros(r0),
                                 bounds=np.column_stack([lower, upper]),
                                 method="highs")
    if not res.success:
        raise RuntimeError(f"bound LP failed: {res.message}")
    return float(np.min(res.x[levels]))


def _coefficient_maps(decomp: BlockDecomposition, bank: LocalBank,
                      epsilon: float, outside):
    """Decision-time coefficient maps of every bank generator at a coupling.

    One ``(Psi_x, active, silent)`` triple per entry with a generator:
    the state coefficient, and the stacked input-sample coefficients of
    the agents acting when the target is active (the target plus
    ``outside``) and when it is silent (the decoupled candidates plus
    ``outside``; ``None`` when there are none).  The maps do not depend on
    the input band, so one set serves every bound evaluation at this
    coupling.
    """
    A_full = decomp.matrix_at(epsilon)
    maps = []
    for entry in bank.entries:
        if entry.generator is None:
            continue
        active = sorted({entry.target, *outside})
        silent = sorted({*entry.decouple, *outside})
        Psi_x, coeffs = _residual_coefficients(
            A_full, entry.generator, bank.observed,
            sorted({*active, *silent}), bank.eval_time)
        maps.append((Psi_x, np.vstack([coeffs[a] for a in active]),
                     np.vstack([coeffs[a] for a in silent]) if silent else None))
    return maps


def _bounds_from_maps(maps, u_min: float, u_max: float, x_max: float):
    """``(bound_misbehaving, bound_wellbehaving)`` over one input band."""
    box = (u_min, u_max)
    bound_mis = _joint_box_min([(Psi_x, active) for Psi_x, active, _ in maps],
                               box, x_max)
    bound_well = max((_box_max(Psi_x, silent, box, x_max)
                      for Psi_x, _, silent in maps if silent is not None),
                     default=0.0)
    return bound_mis, bound_well


def certified_bounds(decomp: BlockDecomposition, bank: LocalBank,
                     u_min: float, u_max: float, x_max: float = 1.0,
                     outside=(), epsilon: float | None = None):
    """Worst-case residual bounds at the bank's decision time.

    Returns ``(bound_misbehaving, bound_wellbehaving)``: the smallest
    decision-time residual any active target can produce, and the
    largest residual a well-behaving target's generator can show, over
    initial states bounded by ``x_max`` and inputs in ``[u_min, u_max]``
    for every acting agent (the bank's candidates plus ``outside``).

    The decision-time residual of each generator is linear in the initial
    state and the input samples.  Its largest sup-norm over the boxes has
    a closed form (each row peaks at a box vertex).  Its smallest is an
    LP; the per-generator LPs share no variable, so all of them are solved
    as one block-diagonal LP whose objective sums their levels, which is
    optimal exactly when every block is, so each level is that
    generator's own minimum.
    """
    eps = decomp.epsilon if epsilon is None else float(epsilon)
    maps = _coefficient_maps(decomp, bank, eps, outside)
    return _bounds_from_maps(maps, u_min, u_max, x_max)


def bound_curves(decomp: BlockDecomposition, bank: LocalBank,
                 u_min: float, u_max: float, epsilons,
                 x_max: float = 1.0, outside=()):
    """Certified bound pair along a grid of coupling strengths."""
    mis, well = [], []
    for eps in epsilons:
        lo, hi = certified_bounds(decomp, bank, u_min, u_max, x_max,
                                  outside, epsilon=eps)
        mis.append(lo)
        well.append(hi)
    return np.array(mis), np.array(well)


def threshold_crossing(decomp: BlockDecomposition, bank: LocalBank,
                       u_min: float, u_max: float, x_max: float = 1.0,
                       outside=(), eps_hi: float = 1.0, tol: float = 1e-5):
    """Coupling strength where the certified bounds meet, with their value.

    Bisects the gap between the misbehaving lower bound (shrinking in
    epsilon) and the well-behaving upper bound (growing in epsilon).
    """

    def gap(eps):
        lo, hi = certified_bounds(decomp, bank, u_min, u_max, x_max,
                                  outside, epsilon=eps)
        return lo - hi, lo

    g0, _ = gap(0.0)
    if g0 <= 0:
        return 0.0, 0.0
    lo_e, hi_e = 0.0, eps_hi
    g_hi, _ = gap(eps_hi)
    if g_hi > 0:
        return np.inf, np.inf
    while hi_e - lo_e > tol:
        mid = 0.5 * (lo_e + hi_e)
        g, _ = gap(mid)
        if g > 0:
            lo_e = mid
        else:
            hi_e = mid
    eps_star = 0.5 * (lo_e + hi_e)
    _, value = gap(eps_star)
    return eps_star, value


def calibrate_threshold(decomp: BlockDecomposition, bank: LocalBank,
                        u_max: float, u_min: float, x_max: float = 1.0,
                        outside=()) -> ThresholdCalibration:
    """Place the decision threshold between the certified bounds.

    Raises
    ------
    CalibrationError
        When the bounds do not separate at the decomposition's coupling
        strength; the error reports the crossing coupling and value.
    """
    if not 0.0 <= u_min <= u_max:
        raise ValueError("need 0 <= u_min <= u_max")
    eps = decomp.epsilon
    maps = _coefficient_maps(decomp, bank, eps, outside)
    bound_mis, bound_well = _bounds_from_maps(maps, u_min, u_max, x_max)
    if bound_mis <= bound_well:
        eps_star, value = threshold_crossing(decomp, bank, u_min, u_max,
                                             x_max, outside)
        raise CalibrationError(
            f"certified bounds do not separate at coupling {eps:.4g}: "
            f"misbehaving floor {bound_mis:.4g} <= well-behaving cap "
            f"{bound_well:.4g} (bounds cross at {eps_star:.4g})",
            epsilon_star=eps_star, crossing_value=value)
    alpha = u_min / (eps * u_max) if eps > 0 else 0.0
    alpha_min = _smallest_separating_ratio(maps, eps, u_max, x_max)
    return ThresholdCalibration(
        block=bank.block, alpha=alpha, alpha_min=alpha_min,
        u_min=u_min, u_max=u_max, x_max=x_max,
        T_h=0.5 * (bound_mis + bound_well),
        horizon=len(bank.agents), eval_time=bank.eval_time,
        epsilon=eps, bound_wellbehaving=bound_well,
        bound_misbehaving=bound_mis)


def _smallest_separating_ratio(maps, eps, u_max, x_max,
                               tol: float = 1e-4) -> float:
    """Bisect the input floor on the coefficient maps built at ``eps``."""
    if eps == 0.0:
        return 0.0

    def separated(u_min):
        lo, hi = _bounds_from_maps(maps, u_min, u_max, x_max)
        return lo > hi

    if not separated(u_max):
        return np.inf
    lo_u, hi_u = 0.0, u_max
    while hi_u - lo_u > tol * u_max:
        mid = 0.5 * (lo_u + hi_u)
        if separated(mid):
            hi_u = mid
        else:
            lo_u = mid
    return hi_u / (eps * u_max)


def local_identification(decomp: BlockDecomposition, bank: LocalBank,
                         cal: ThresholdCalibration, block_ys) -> tuple:
    """Flag within-block agents whose residual exceeds the threshold.

    Evaluates every generator of the bank at the calibrated decision
    time on the observer's within-block measurements; an agent is
    recognized as misbehaving when all of its generators read above
    ``T_h``.  Correctness is guaranteed only for inputs inside the
    calibrated magnitude band; outside it, misclassification is a
    documented failure mode.
    """
    block_ys = np.atleast_2d(np.asarray(block_ys, dtype=float))
    t_star = cal.eval_time
    if block_ys.shape[0] <= t_star:
        raise ValueError("trajectory shorter than the decision time")
    flagged = []
    by_target = {}
    for entry in bank.entries:
        if entry.generator is None:
            continue
        res = fdi.run_residual(entry.generator, block_ys)
        level = float(np.max(np.abs(res[t_star])))
        by_target.setdefault(entry.target, []).append(level)
    for target, levels in sorted(by_target.items()):
        if min(levels) > cal.T_h:
            flagged.append(target)
    return tuple(flagged)
