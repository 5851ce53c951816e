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
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np
import scipy.sparse

from . import fdi, graph as graphmod
from .consensus import ConsensusMatrix, _output_matrix, input_matrix
from .numerics import _negligible, as_matrix, as_vector

# a generator fires when its residual past the horizon exceeds this fraction
# of the largest measured magnitude
_RESIDUAL_FLOOR = 1e-7


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
        shorter than the estimate sequence.  The run starts from
        ``z = 0`` and leaves ``z`` where stepping through ``ys`` would.
        """
        ys = as_matrix(ys, "output sequence")
        drive = -(ys @ self.G.T)
        zs = np.zeros((ys.shape[0] + 1, self.A.shape[0]))
        dot, add = self._closed.dot, np.add
        for z, nxt, d in zip(zs[:-1], zs[1:], drive):
            add(dot(z), d, out=nxt)
        self.z = zs[-1].copy()
        estimates = zs[:-1] @ self.L.T + ys @ self.H.T
        residuals = estimates[1:] - estimates[:-1] @ self.A.T
        return estimates, residuals


@dataclass
class IdentificationVerdict:
    """Outcome of complete identification at one observer.

    ``status`` is ``identified`` when exactly one minimal candidate set
    is consistent with the residual pattern, else ``ambiguous`` with the
    surviving candidates.  ``unsolvable`` lists the ``(i, D)`` pairs,
    agent ``i`` outside the decoupled set ``D``, that ``D``'s generator
    cannot isolate: every ``i`` when ``D`` has no generator.
    ``connectivity`` is the network's vertex connectivity, read by the
    k + 1 gate.
    """

    observer: int
    status: str
    identified: tuple
    candidates: tuple
    horizon: int
    unsolvable: tuple
    residual_norms: dict
    connectivity: int


def complete_identification(net: ConsensusMatrix, j: int, k: int,
                            ys) -> IdentificationVerdict:
    """Identify up to ``k`` misbehaving agents from observer ``j``'s data.

    One parity-space residual generator is synthesized per candidate
    decoupled k-subset of the other agents: a parity relation on the
    shortest output window that cancels the initial state and the
    decoupled inputs.  The candidates form one bank, synthesized in
    stacked SVDs (``fdi._synthesize_bank``).  A candidate misbehaving set is consistent when
    every generator decoupling it stays, past its horizon, below
    ``_RESIDUAL_FLOOR`` (1e-7) times the largest measured magnitude.  The unique
    minimal consistent set is returned; several minimal survivors
    (colluding agents riding an invisible motion) yield an ambiguous
    verdict.  The verdict's ``horizon`` is the longest parity window.

    Requires ``k >= 0``, network connectivity at least ``k + 1`` and more
    samples than the longest parity window, so that every generator reads
    a sample past its horizon; identification of malicious sets is only
    guaranteed from connectivity ``2k + 1``.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    conn = graphmod.vertex_connectivity(net.graph)
    if conn < k + 1:
        raise ValueError(f"connectivity {conn} below required {k + 1}")
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    others = [a for a in range(1, net.n + 1) if a != j]
    C = net.output_matrix(j)
    fired = {}
    horizons = [1]
    unsolvable = set()
    norms = {}
    candidates = list(combinations(others, k))
    reports = fdi._synthesize_bank(
        net.A, C, [np.zeros((net.n, 0))] * len(candidates),
        [input_matrix(net.n, D) for D in candidates])
    for D, report in zip(candidates, reports):
        gen = report.generator
        # i is isolable against D iff D has a generator and e_i avoids S_M(D)
        unsolvable.update((i, D) for i in others if i not in D and (
            gen is None or i - 1 not in report.outside))
        if gen is None:
            fired[D] = None
            continue
        if gen.horizon >= ys.shape[0]:
            longest = max([gen.horizon] + [r.generator.horizon
                                           for r in reports if r.solvable])
            raise ValueError(f"{ys.shape[0]} samples do not exceed the longest "
                             f"parity window {longest}")
        res = fdi.run_residual(gen, ys)
        tail = res[gen.horizon:]
        fired[D] = not _negligible(tail, ys, _RESIDUAL_FLOOR)
        norms[D] = np.max(np.abs(res), axis=1)
        horizons.append(gen.horizon)
    consistent = _consistent_sets(others, fired, k)
    identified = len(consistent) == 1
    return IdentificationVerdict(
        observer=j, status="identified" if identified else "ambiguous",
        identified=consistent[0] if identified else (),
        candidates=tuple(consistent), horizon=max(horizons),
        unsolvable=tuple(sorted(unsolvable)), residual_norms=norms,
        connectivity=conn)


def _consistent_sets(others, fired: dict, k: int) -> list:
    """Candidate sets of the least size up to ``k`` that no fired generator
    rules out.

    A generator decoupling ``D`` ignores every input in ``D``, so when it
    fires (``fired[D]`` true; ``None`` marks one never built) no subset of
    ``D`` explains the data.  The subsets of the fired ``D``'s are
    collected once, and a candidate is consistent unless it is one of
    them.
    """
    blocked = {S for D, was_fired in fired.items() if was_fired
               for size in range(k + 1) for S in combinations(D, size)}
    for size in range(k + 1):
        consistent = [S for S in combinations(others, size)
                      if S not in blocked]
        if consistent:
            return consistent
    return []


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
    """One residual generator of a local bank: flags its target agent.

    The entries whose filters coincide share one generator object, so the
    consumers of a bank compute what a filter gives once per object.
    """

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
    candidate subset, synthesized against the h-th diagonal block only,
    all of them one bank (``fdi._synthesize_bank``) on block-local labels.
    The bank computes each decoupled set once for all its targets, and
    the entries of one set whose parity search stops at one window share
    that generator object; each entry carries its own ``target`` and
    ``decouple`` labels.  Requires ``k_j >= 0``, a block-mate of the
    observer and the block digraph to be at least ``k_j + 1`` connected.
    """
    if k_j < 0:
        raise ValueError(f"k_j must be nonnegative, got {k_j}")
    agents = decomp.block_agents(h)
    if j not in agents:
        raise ValueError(f"observer {j} not in block {h}")
    n_h = len(agents)
    if n_h == 1:
        raise ValueError(f"observer {j} is alone in block {h}: the block "
                         f"has no agent to identify")
    A_h = decomp.block_matrix(h)
    conn = graphmod.vertex_connectivity(graphmod.from_matrix(A_h))
    if conn < k_j + 1:
        raise ValueError(f"block connectivity {conn} below required {k_j + 1}")
    local = {a: idx for idx, a in enumerate(agents, start=1)}
    C_loc = _output_matrix(A_h, local[j])
    candidates = [a for a in agents if a != j]
    pairs = [(c, D) for c in candidates
             for D in combinations([a for a in candidates if a != c],
                                   min(k_j, n_h - 2))]
    reports = fdi._synthesize_bank(
        A_h, C_loc, [input_matrix(n_h, [local[c]]) for c, _ in pairs],
        [input_matrix(n_h, [local[a] for a in D]) for _, D in pairs])
    entries = [BankEntry(target=c, decouple=D, generator=report.generator,
                         solvable=report.solvable)
               for (c, D), report in zip(pairs, reports)]
    observed = tuple(agents[idx] for idx in np.argmax(C_loc, axis=1))
    eval_time = max([1] + [e.generator.horizon for e in entries if e.solvable])
    return LocalBank(block=h, observer=j, k_j=k_j, agents=agents,
                     observed=observed, entries=tuple(entries),
                     eval_time=eval_time)


def block_outputs(decomp: BlockDecomposition, bank: LocalBank,
                  states) -> np.ndarray:
    """Slice a state trajectory to the measurements feeding a local bank."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    idx = [a - 1 for a in bank.observed]
    return states[:, idx]


# -- certified threshold calibration ------------------------------------------


class CalibrationError(RuntimeError):
    """No threshold can be certified at the given coupling.

    Either the certified residual bounds fail to separate, and the error
    reports the crossing coupling and value, or a bound LP fails, or the
    bank has no solvable generator.
    """

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
    ratio at which the bounds still separate.  The verdict never reads
    ``alpha_min``, so it is bisected on the calibration's coefficient
    maps when first read, not when the threshold is placed.  Each bound
    evaluation, the placing one and every bisection step, solves at most
    one LP, and none when the vertex certificate settles the misbehaving
    bound (:func:`_joint_box_min`).
    """

    block: int
    alpha: float
    u_min: float
    u_max: float
    x_max: float
    T_h: float
    horizon: int
    eval_time: int
    epsilon: float
    bound_wellbehaving: float
    bound_misbehaving: float
    _maps: _BoundMaps = field(compare=False, repr=False)

    @cached_property
    def alpha_min(self) -> float:
        return _smallest_separating_ratio(self._maps, self.epsilon,
                                          self.u_max, self.x_max)


def _network_powers(A_full, observed, t_star: int) -> np.ndarray:
    """``P_p = C_O A^p`` for ``p = 0..t_star``, a ``(t_star + 1, |O|, n)``
    array, ``C_O`` selecting the states of the ``observed`` agents."""
    C_O = np.eye(A_full.shape[0])[[a - 1 for a in observed]]
    return fdi._output_powers(A_full, C_O, t_star)


def _decision_maps(P: np.ndarray, gen: fdi.ResidualGenerator) -> np.ndarray:
    """Maps ``g_p`` from the network state ``p`` steps before the decision
    time ``t* = len(P) - 1`` to the residual there, for ``p = 0..t*``.

    With the filter state zero at time 0 and ``F^horizon = 0``, the
    residual is ``r(t) = sum_{s <= min(t, h)} K_s y(t - s)`` over the
    Markov blocks ``K_s`` (:func:`fdi._markov_blocks`), so ``g_p = sum_{s
    <= min(p, h)} K_s P_{p-s}``: ``g_t*`` maps the initial state, and
    ``g_(t*-1-tau)`` maps an input entering at step ``tau``.
    """
    K = fdi._markov_blocks(gen)
    g = np.zeros((P.shape[0], K.shape[1], P.shape[2]))
    for s, K_s in enumerate(K[:P.shape[0]]):
        g[s:] += K_s @ P[:P.shape[0] - s]
    return g


class _Rows(NamedTuple):
    """LP rows ``lb <= A v <= ub`` in the ``(A, lb, ub)`` form that
    ``scipy.optimize.milp`` takes for a ``LinearConstraint``, so that
    building them does not import the optimizer."""

    A: scipy.sparse.csc_matrix
    lb: float
    ub: float


class _RowSums(NamedTuple):
    """Per residual row, the coefficient sums that fix its range over a
    box: ``base`` sums ``|Psi_x|``, ``pos`` and ``neg`` the positive and
    negative parts of the sample coefficients."""

    base: np.ndarray
    pos: np.ndarray
    neg: np.ndarray


def _row_ranges(sums: _RowSums, box, x_max: float):
    """``(up, down)`` with ``[-down, up]`` each row's range over the boxes.

    The initial state ranges over ``[-x_max, x_max]`` and every sample
    over ``box = (lo, hi)`` with ``lo <= hi``.  A linear form peaks over a
    box at the vertex matching its signs, so row ``i`` peaks at ``x_max
    base_i + hi pos_i + lo neg_i`` and its negation at ``x_max base_i -
    hi neg_i - lo pos_i``.
    """
    lo, hi = box
    base = x_max * sums.base
    return (base + hi * sums.pos + lo * sums.neg,
            base - hi * sums.neg - lo * sums.pos)


@dataclass(frozen=True)
class _BoundMaps:
    """Both certified bounds of one coupling, ready for any input box.

    The misbehaving bound reads each active generator's coefficient block
    ``K_e = [Psi_x, samples^T]``: ``K`` stacks the blocks' rows, block
    ``e`` from row ``starts[e]`` on (``owner`` names each row's block),
    its first ``n_state`` columns the initial state and the rest input
    samples (zero-padded to the widest block); ``active`` holds the row
    sums of ``K`` that :func:`_box_min_brackets` reads.  The LP that
    settles an uncertified bound is assembled from ``K`` only then, and
    only for the generators the brackets cannot prune
    (:func:`_lp_box_min`).  The well-behaving bound needs only the silent
    maps' row sums (``silent``), concatenated over the generators.
    """

    K: np.ndarray
    n_state: int
    starts: np.ndarray
    owner: np.ndarray
    active: _RowSums
    silent: _RowSums

    @classmethod
    def from_blocks(cls, active, silent) -> "_BoundMaps":
        """Assemble from ``(Psi_x, samples)`` pairs, one per generator.

        ``Psi_x`` is a ``(q, n)`` state map and ``samples`` stacks ``m``
        input-sample rows of ``q`` entries; ``active`` holds the maps with
        the target acting, ``silent`` those with it silent.  Every
        ``Psi_x`` has the same ``n`` and at least one row, as every
        synthesized generator has.
        """
        n = active[0][0].shape[1] if active else 0
        width = max((n + samples.shape[0] for _, samples in active), default=n)
        blocks = []
        for Psi_x, samples in active:
            K = np.zeros((Psi_x.shape[0], width))
            K[:, :n] = Psi_x
            K[:, n:n + samples.shape[0]] = samples.T
            blocks.append(K)
        K = np.concatenate(blocks) if blocks else np.zeros((0, width))
        sizes = np.array([len(b) for b in blocks], dtype=np.int64)

        def joined(parts):
            return np.concatenate(parts) if parts else np.zeros(0)

        return cls(K=K, n_state=n, starts=np.cumsum(sizes) - sizes,
                   owner=np.repeat(np.arange(len(sizes)), sizes),
                   active=_RowSums(np.sum(np.abs(K[:, :n]), axis=1),
                                   np.sum(np.maximum(K[:, n:], 0.0), axis=1),
                                   np.sum(np.minimum(K[:, n:], 0.0), axis=1)),
                   silent=_RowSums(
                       joined([np.sum(np.abs(Psi_x), axis=1)
                               for Psi_x, _ in silent]),
                       joined([np.sum(np.maximum(samples, 0.0), axis=0)
                               for _, samples in silent]),
                       joined([np.sum(np.minimum(samples, 0.0), axis=0)
                               for _, samples in silent])))

    def column_box(self, box, x_max: float):
        """``(lower, upper)`` bounds of the variables of ``K``'s columns."""
        lo, hi = box
        state = np.arange(self.K.shape[1]) < self.n_state
        return np.where(state, -x_max, lo), np.where(state, x_max, hi)

    def lp_rows(self, keep) -> _Rows:
        """The joint LP's rows for the generators ``keep`` (sorted).

        Generator ``e``'s block ``[[K_e, -1], [-K_e, -1]]`` on its
        variables ``[v_e, t_e]`` holds ``-t_e <= K_e v_e <= t_e``; the
        blocks are laid block-diagonally, with only nonzero entries stored.
        """
        width = self.K.shape[1] + 1
        chosen = np.isin(self.owner, keep)
        rows = self.K[chosen]
        block = np.searchsorted(keep, self.owner[chosen])
        sizes = np.bincount(block, minlength=len(keep))
        # kept row i is LP row i + (kept rows before its block) in the
        # block's K_e half, and its block's size further in the -K_e half
        upper = np.arange(len(rows)) + (np.cumsum(sizes) - sizes)[block]
        lower = upper + sizes[block]
        r, c = np.nonzero(rows)
        column = block[r] * width + c
        level = block * width + width - 1
        matrix = scipy.sparse.csc_matrix(
            (np.concatenate([rows[r, c], -rows[r, c],
                             np.full(2 * len(rows), -1.0)]),
             (np.concatenate([upper[r], lower[r], upper, lower]),
              np.concatenate([column, column, level, level]))),
            shape=(2 * len(rows), width * len(keep)))
        return _Rows(matrix, -np.inf, 0.0)


def _box_max(maps: _BoundMaps, box, x_max: float) -> float:
    """Exact max of the residual sup-norm over the variable boxes.

    Covers every silent map at once, each row peaking at the larger end
    of its range (:func:`_row_ranges`); zero without silent maps.
    """
    up, down = _row_ranges(maps.silent, box, x_max)
    return float(max(np.max(up, initial=0.0), np.max(down, initial=0.0)))


def _box_min_brackets(maps: _BoundMaps, box, x_max: float):
    """``(floor, cap)`` with ``floor_e <= t_e <= cap_e`` for every active
    generator, ``t_e`` its min residual sup-norm over the boxes.

    Over the boxes row ``r`` ranges over ``[-down_r, up_r]``
    (:func:`_row_ranges`), so its least modulus is zero when that range
    holds zero and its nearer end otherwise; ``floor_e``, the largest of
    these over the generator's rows, is at most ``t_e`` (max-min).  The
    point ``v`` of the boxes that attains the least modulus of the
    dominant row (the first attaining ``floor_e``) is feasible, so
    ``cap_e = max_r |K_r v|`` is at least ``t_e``.  ``v`` is the box
    vertex matching the row's signs, except where the row's coefficient
    is zero: there the variable takes its value of least modulus, which
    adds the least to the other rows.  The dominant row enters ``cap_e``
    as ``floor_e`` itself, so the two agree bit for bit when no other row
    exceeds it.
    """
    up, down = _row_ranges(maps.active, box, x_max)
    least = np.maximum(np.maximum(-up, -down), 0.0)
    floor = np.maximum.reduceat(least, maps.starts)
    rows = np.arange(len(least))
    dominant = np.minimum.reduceat(
        np.where(least == floor[maps.owner], rows, len(rows)), maps.starts)
    # a row negative over the box is least at its upper end
    sign = np.where(up[dominant] < 0.0, -1.0, 1.0)[:, None]
    toward = sign * maps.K[dominant]
    lower, upper = maps.column_box(box, x_max)
    point = np.where(toward > 0.0, lower, np.where(
        toward < 0.0, upper, np.clip(0.0, lower, upper)))
    reach = np.abs(np.einsum("rc,rc->r", maps.K, point[maps.owner]))
    reach[dominant] = np.where(floor > 0.0, floor, reach[dominant])
    return floor, np.maximum.reduceat(reach, maps.starts)


def _lp_box_min(maps: _BoundMaps, keep, box, x_max: float) -> float:
    """Least, over the generators ``keep``, of the min residual sup-norm,
    as one LP.

    Each generator's minimum is the LP min t s.t. -t <= K v <= t, with
    ``K = [Psi_x, samples^T]`` and v ranging over the state box
    ``[-x_max, x_max]`` and the input box.  The generators share no
    variable, so their LPs are stacked block-diagonally
    (:meth:`_BoundMaps.lp_rows`) into one LP minimizing the sum of the
    levels t_e; a separable LP is optimal exactly when each block is, so
    every t_e of the solution is its generator's own minimum.  Solved by
    HiGHS through ``scipy.optimize.milp`` with no integer variable.

    Raises
    ------
    CalibrationError
        When the solver reports no optimum.
    """
    lower, upper = maps.column_box(box, x_max)
    count = len(keep)
    cost = np.tile(np.append(np.zeros(len(lower)), 1.0), count)
    lower = np.tile(np.append(lower, 0.0), count)
    upper = np.tile(np.append(upper, np.inf), count)
    import scipy.optimize
    res = scipy.optimize.milp(cost, bounds=(lower, upper),
                              constraints=maps.lp_rows(keep))
    if not res.success:
        raise CalibrationError(f"bound LP failed: {res.message}")
    width = maps.K.shape[1]
    return float(np.min(res.x[width::width + 1]))


def _joint_box_min(maps: _BoundMaps, box, x_max: float) -> float:
    """Least, over the active generators, of the min residual sup-norm.

    The brackets of :func:`_box_min_brackets` give ``min floor <= t* <=
    min cap``.  Both ends carry the rounding of the row sums, at most
    ``(width + 2)`` ulps of the largest row's coefficient mass each, and
    twice that is the margin within which they cannot be told apart: when
    ``min cap`` exceeds ``min floor`` by no more, ``min floor``, the
    conservative end, is the answer and no LP is solved.  Otherwise every
    generator whose floor exceeds ``min cap`` by more than the margin has
    ``t_e > t*`` and is dropped, and the LP of :func:`_lp_box_min` settles
    the rest.  ``inf`` without active generators.

    Raises
    ------
    CalibrationError
        When the LP is solved and the solver reports no optimum.
    """
    if not len(maps.starts):
        return np.inf
    floor, cap = _box_min_brackets(maps, box, x_max)
    least, best = floor.min(), cap.min()
    lo, hi = box
    mass = (x_max * maps.active.base
            + max(abs(lo), abs(hi)) * (maps.active.pos - maps.active.neg))
    margin = 2 * (maps.K.shape[1] + 2) * np.finfo(float).eps * mass.max()
    if best - least <= margin:
        return float(least)
    return _lp_box_min(maps, np.flatnonzero(floor <= best + margin),
                       box, x_max)


def _coefficient_maps(decomp: BlockDecomposition, bank: LocalBank,
                      epsilon: float, outside) -> _BoundMaps:
    """Decision-time coefficient maps of every bank generator at a coupling.

    The network powers ``C_O A(epsilon)^p``, ``p = 0..t*``, are computed
    once and every distinct generator object reads its maps from them
    through its Markov blocks (:func:`_decision_maps`), once for the
    entries that share it.  Per entry, in the bank's order, this gives
    the state map and the stacked input-sample maps of the agents acting
    when the target is active (the target plus ``outside``) and when it is
    silent (the decoupled candidates plus ``outside``, if any), agent by
    agent and sample by sample.  The maps do not depend on the input band,
    so the returned :class:`_BoundMaps` serves every bound evaluation at
    this coupling.  An agent of ``outside`` not in 1..n raises
    ``ValueError``.
    """
    n = decomp.A.shape[0]
    for a in outside:
        if not 1 <= a <= n:
            raise ValueError(f"agent {a} outside 1..{n}")
    P = _network_powers(decomp.matrix_at(epsilon), bank.observed,
                        bank.eval_time)
    active_blocks, silent_blocks = [], []
    maps = {}
    for entry in bank.entries:
        if entry.generator is None:
            continue
        key = id(entry.generator)
        if key not in maps:
            g = _decision_maps(P, entry.generator)
            # the sample of agent a at step tau reaches the residual through
            # column a of g_(t*-1-tau): by_agent[a - 1, tau]
            maps[key] = g[-1], g[:-1][::-1].transpose(2, 0, 1)
        state, by_agent = maps[key]
        q = state.shape[0]
        active = [a - 1 for a in sorted({entry.target, *outside})]
        active_blocks.append((state, by_agent[active].reshape(-1, q)))
        silent = [a - 1 for a in sorted({*entry.decouple, *outside})]
        if silent:
            silent_blocks.append((state, by_agent[silent].reshape(-1, q)))
    return _BoundMaps.from_blocks(active_blocks, silent_blocks)


def _bounds_from_maps(maps: _BoundMaps, u_min: float, u_max: float,
                      x_max: float):
    """``(bound_misbehaving, bound_wellbehaving)`` over one input band."""
    box = (u_min, u_max)
    return _joint_box_min(maps, box, x_max), _box_max(maps, box, x_max)


def _check_band(u_min: float, u_max: float, x_max: float):
    """Reject an input band ``[u_min, u_max]`` or a state bound ``x_max``
    that no bound LP can use: inverted, negative or not finite."""
    if not 0.0 <= u_min <= u_max < np.inf:
        raise ValueError(f"need finite 0 <= u_min <= u_max, got u_min {u_min} "
                         f"and u_max {u_max}")
    if not 0.0 <= x_max < np.inf:
        raise ValueError(f"x_max must be finite and nonnegative, got {x_max}")


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
    state and the input samples, with maps read from the network powers
    ``C_O A(epsilon)^p`` shared by the bank.  Its largest sup-norm over
    the boxes has a closed form (each row peaks at a box vertex), one
    vector expression for all generators.  Its smallest is an LP, which
    is bracketed in closed form, again one vector expression for all
    generators: below by the largest row's least modulus over the boxes,
    above by the sup-norm at the vertex attaining it.  When the least
    floor equals the least cap, that is the bound and no LP is solved;
    otherwise one block-diagonal LP over the generators whose floor does
    not exceed the least cap settles it (:func:`_joint_box_min`).

    Raises
    ------
    ValueError
        When the band is not finite with ``0 <= u_min <= u_max``, or
        ``x_max`` is negative or not finite.
    CalibrationError
        When the bound LP is solved and fails.
    """
    _check_band(u_min, u_max, x_max)
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

    Brent's method on the gap between the misbehaving lower bound
    (shrinking in epsilon) and the well-behaving upper bound (growing in
    epsilon) over ``[0, eps_hi]``; the returned coupling lies within
    ``tol`` of the crossing, and the value is the misbehaving bound
    there.  ``(0, 0)`` when the bounds do not separate even uncoupled,
    ``(inf, inf)`` when they still separate at ``eps_hi``.
    """
    return _crossing(decomp, bank, u_min, u_max, x_max, outside, eps_hi, tol,
                     {})


def _crossing(decomp, bank, u_min, u_max, x_max, outside, eps_hi, tol, known):
    """:func:`threshold_crossing` with the bound pairs memoised by coupling
    in ``known``, which may already hold some of them."""

    def bounds(eps):
        if eps not in known:
            known[eps] = certified_bounds(decomp, bank, u_min, u_max, x_max,
                                          outside, epsilon=eps)
        return known[eps]

    def gap(eps):
        lo, hi = bounds(eps)
        return lo - hi

    if gap(0.0) <= 0:
        return 0.0, 0.0
    if gap(eps_hi) > 0:
        return np.inf, np.inf
    import scipy.optimize
    eps_star = scipy.optimize.brentq(gap, 0.0, eps_hi, xtol=0.5 * tol)
    return eps_star, bounds(eps_star)[0]


def _bisect(below, lo: float, hi: float, tol: float):
    """Halve ``[lo, hi]`` until it is at most ``tol`` wide and return it:
    the upper half where ``below(mid)`` holds (the sought point lies above
    the midpoint), the lower half otherwise.  Unlike a root finder, it
    needs only a yes/no test and leaves a bracket whose either end can
    be taken as the conservative answer."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def calibrate_threshold(decomp: BlockDecomposition, bank: LocalBank,
                        u_max: float, u_min: float, x_max: float = 1.0,
                        outside=()) -> ThresholdCalibration:
    """Place the decision threshold between the certified bounds.

    One bound evaluation at the decomposition's coupling strength places
    the threshold.  When the bounds do not separate there, the crossing
    is searched on ``[0, epsilon]`` only, reusing that evaluation.

    Raises
    ------
    ValueError
        As :func:`certified_bounds`.
    CalibrationError
        When the bank has no solvable generator, with no crossing, or when
        the bounds do not separate at the decomposition's coupling
        strength; the error then reports the crossing coupling and value.
    """
    _check_band(u_min, u_max, x_max)
    if not any(entry.solvable for entry in bank.entries):
        raise CalibrationError(f"block {bank.block} has no solvable generator: "
                               f"no residual to calibrate a threshold for")
    eps = decomp.epsilon
    maps = _coefficient_maps(decomp, bank, eps, outside)
    bound_mis, bound_well = _bounds_from_maps(maps, u_min, u_max, x_max)
    if bound_mis <= bound_well:
        eps_star, value = _crossing(decomp, bank, u_min, u_max, x_max,
                                    outside, eps, 1e-5,
                                    {eps: (bound_mis, bound_well)})
        raise CalibrationError(
            f"certified bounds do not separate at coupling {eps:.4g}: "
            f"misbehaving floor {bound_mis:.4g} <= well-behaving cap "
            f"{bound_well:.4g} (bounds cross at {eps_star:.4g})",
            epsilon_star=eps_star, crossing_value=value)
    alpha = u_min / (eps * u_max) if eps > 0 else 0.0
    return ThresholdCalibration(
        block=bank.block, alpha=alpha, u_min=u_min, u_max=u_max, x_max=x_max,
        T_h=0.5 * (bound_mis + bound_well),
        horizon=len(bank.agents), eval_time=bank.eval_time,
        epsilon=eps, bound_wellbehaving=bound_well,
        bound_misbehaving=bound_mis, _maps=maps)


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
    _, hi_u = _bisect(lambda u: not separated(u), 0.0, u_max, tol * u_max)
    return hi_u / (eps * u_max)


def local_identification(decomp: BlockDecomposition, bank: LocalBank,
                         cal: ThresholdCalibration, block_ys) -> tuple:
    """Flag within-block agents whose residual exceeds the threshold.

    Evaluates every generator of the bank at the calibrated decision
    time on the observer's within-block measurements, each distinct
    generator object once for the entries sharing it; an agent is
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
    levels = {}
    for entry in bank.entries:
        if entry.generator is None:
            continue
        key = id(entry.generator)
        if key not in levels:
            res = fdi.run_residual(entry.generator, block_ys)
            levels[key] = float(np.max(np.abs(res[t_star])))
        by_target.setdefault(entry.target, []).append(levels[key])
    for target, levels in sorted(by_target.items()):
        if min(levels) > cal.T_h:
            flagged.append(target)
    return tuple(flagged)
