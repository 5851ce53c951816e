"""Shared test networks and reference data.

BENCH8 values are given to four decimals with rows renormalized to sum
exactly to one; the reference bases and feedback tied to it carry the
same four-decimal precision, so comparisons against them are meaningful
down to roughly 1e-4 and no further.
"""

import numpy as np

from netguard import graph

# 8-node network whose observer-3 triple with inputs {1,2} is
# left-invertible yet has invisible motions of modulus 2 (unstable).
UNSTABLE_ZEROS_A = np.array([
    [1/2, 0, 1/2, 0, 0, 0, 0, 0],
    [0, 1/2, 0, 0, 0, 1/2, 0, 0],
    [0, 0, 1/3, 1/3, 1/3, 0, 0, 0],
    [1/16, 0, 5/8, 1/16, 0, 1/4, 0, 0],
    [0, 1/16, 1/4, 0, 5/16, 0, 3/8, 0],
    [1/2, 0, 0, 1/2, 0, 0, 0, 0],
    [0, 1/3, 0, 0, 2/3, 0, 0, 0],
    [1/2, 1/2, 0, 0, 0, 0, 0, 0],
])
UNSTABLE_ZEROS_INPUTS = (1, 2)
UNSTABLE_ZEROS_OBSERVER = 3          # measures agents 3, 4, 5

# 9-node overlapping-ring network: with inputs {1,2} observed from agent
# 6 the system is not left-invertible (opposite inputs cancel).
RING9_A = np.array([
    [1/3, 1/3, 0, 0, 0, 0, 0, 0, 1/3],
    [1/3, 1/3, 1/3, 0, 0, 0, 0, 0, 0],
    [0, 1/4, 1/4, 1/4, 0, 0, 0, 1/4, 0],
    [0, 0, 1/4, 1/4, 1/4, 0, 0, 0, 1/4],
    [0, 0, 0, 1/3, 1/3, 1/3, 0, 0, 0],
    [0, 0, 0, 0, 1/3, 1/3, 1/3, 0, 0],
    [0, 0, 0, 0, 0, 1/3, 1/3, 1/3, 0],
    [0, 0, 1/4, 0, 0, 0, 1/4, 1/4, 1/4],
    [1/4, 0, 0, 1/4, 0, 0, 0, 1/4, 1/4],
])
RING9_INPUTS = (1, 2)
RING9_OBSERVER = 6

# 3-connected 8-node benchmark network.
BENCH8_RAW = np.array([
    [0.2795, 0.1628, 0, 0.1512, 0.4066, 0, 0, 0],
    [0.0143, 0.3363, 0.3469, 0, 0, 0.3025, 0, 0],
    [0, 0.0718, 0.1904, 0.2438, 0, 0, 0.4941, 0],
    [0.0844, 0, 0.4457, 0.0660, 0, 0, 0, 0.4040],
    [0.1709, 0, 0, 0, 0.2694, 0.2472, 0, 0.3125],
    [0, 0.4199, 0, 0, 0.1575, 0.3293, 0.0932, 0],
    [0, 0, 0.0174, 0, 0, 0.4241, 0.2850, 0.2735],
    [0, 0, 0, 0.3024, 0.2039, 0, 0.2065, 0.2873],
])
BENCH8_A = BENCH8_RAW / BENCH8_RAW.sum(axis=1, keepdims=True)

# Reference 5-dim unobservability basis for inputs {3,7}, observer 1.
BENCH8_SM_37 = np.array([
    [0, 0, 0, 0, 0],
    [0, 0, 0, -0.6624, 0],
    [0, 1, 0, 0, 0],
    [0, 0, -0.4740, -0.6597, 0],
    [0, 0, -0.8798, 0.3548, 0],
    [0.4116, 0, -0.0327, 0.0132, 0],
    [0, 0, 0, 0, 1],
    [0.9114, 0, 0.0148, -0.0060, 0],
])

# Reference output-nulling basis for inputs {2,4,6,8}, observer 1.
BENCH8_NULLING_2468 = np.array([
    [0, 0, 0],
    [0, 0, 0],
    [1, 0, 0],
    [0, 0, 0],
    [0, 0, 0],
    [0, 0.7842, 0],
    [0, 0, 1],
    [0, -0.6205, 0],
])

# Reference evading feedback for agents (2, 4, 6, 8), one row per agent.
BENCH8_EVASION_FEEDBACK = np.array([
    [0, 0, -0.3469, 0, 0, -0.1860, 0, 0.1472],
    [0, 0, -0.4457, 0, 0, 0.1966, 0, -0.1555],
    [0, 0, 0, 0, 0, -0.1063, -0.1148, 0.0841],
    [0, 0, 0, 0, 0, 0.0636, -0.1894, -0.0503],
])

# 7-node weakly coupled network: A(eps) = WEAK7_BLOCKS + eps * WEAK7_COUPLING,
# two internally complete blocks {1,2,3} and {4,5,6,7}.
WEAK7_BLOCKS = np.array([
    [1/3, 1/3, 1/3, 0, 0, 0, 0],
    [1/3, 1/3, 1/3, 0, 0, 0, 0],
    [1/3, 1/3, 1/3, 0, 0, 0, 0],
    [0, 0, 0, 1/4, 1/4, 1/4, 1/4],
    [0, 0, 0, 1/4, 1/4, 1/4, 1/4],
    [0, 0, 0, 1/4, 1/4, 1/4, 1/4],
    [0, 0, 0, 1/4, 1/4, 1/4, 1/4],
])
WEAK7_COUPLING = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [0, -1, 0, 1, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 1],
    [0, 0, 1, 0, -1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, -1],
])
WEAK7_PARTITION = ((1, 2, 3), (4, 5, 6, 7))


def weak7_matrix(eps: float) -> np.ndarray:
    return WEAK7_BLOCKS + eps * WEAK7_COUPLING


def block_network(sizes, eps: float, rng: np.random.Generator,
                  connectivity) -> tuple:
    """Weakly coupled network of consecutive agent blocks, and its partition.

    Block ``h`` is a two-way ring with random chords, redrawn until its
    digraph is ``connectivity[h]``-connected, with self-loops and weights
    uniform on [0.1, 1].  About half of the agents, the first always, then
    hand a share of their row to one or two agents of other blocks; the
    first agent's share is ``eps``, the others' at most that, so
    ``detect.block_decompose`` recovers the coupling ``eps``.
    """
    n = sum(sizes)
    starts = np.cumsum([0, *sizes])
    A = np.zeros((n, n))
    for size, start, kappa in zip(sizes, starts, connectivity):
        ring = np.eye(size, k=1) + np.eye(size, k=-1)
        ring[0, -1] = ring[-1, 0] = 1.0
        chords = 0.5 if kappa <= 2 else 0.85
        while True:
            mask = (ring + (rng.random((size, size)) < chords)) > 0
            np.fill_diagonal(mask, False)
            if graph.vertex_connectivity(graph.from_matrix(mask)) >= kappa:
                break
        np.fill_diagonal(mask, True)
        A[start:start + size, start:start + size] = (
            mask * rng.uniform(0.1, 1.0, (size, size)))
    for r in range(n):
        share = eps if r == 0 else eps * rng.uniform(0.2, 1.0)
        if r and rng.random() < 0.5:
            share = 0.0
        A[r] *= (1.0 - share) / A[r].sum()
        block = np.searchsorted(starts, r, side="right") - 1
        others = [c for c in range(n)
                  if not starts[block] <= c < starts[block + 1]]
        to = rng.choice(others, size=int(rng.integers(1, 3)), replace=False)
        w = rng.uniform(0.1, 1.0, to.size)
        A[r, to] = share * w / w.sum()
    partition = tuple(tuple(range(start + 1, start + size + 1))
                      for size, start in zip(sizes, starts))
    return A, partition


# Reference local residual generators for block {1,2,3}, observer 1,
# each dead-beat in two steps (target agent 2 and target agent 3).
LOCAL_GEN2 = dict(
    F=np.array([[-1/3, -1/3], [1/3, 1/3]]),
    E=np.array([[-2/3, 0, -1/3], [2/3, 0, 1/3]]),
    M=np.array([[1, 0], [0, -1]]),
    H=np.array([[1.0, 0, 0], [0, 1, 0]]),
)
LOCAL_GEN3 = dict(
    F=np.array([[-1/3, 1/3], [-1/3, 1/3]]),
    E=np.array([[-2/3, -1/3, 0], [-2/3, -1/3, 0]]),
    M=np.array([[-1, 0], [0, 1]]),
    H=np.array([[-1.0, 0, 0], [0, 0, 1]]),
)

# 4-node network with agents 3 and 4 interchangeable as seen by agent 1:
# the difference direction e3 - e4 is invisible to observer 1.
SYMMETRIC4_A = np.array([
    [0.7, 0.3, 0, 0],
    [0.3, 0.2, 0.25, 0.25],
    [0.25, 0.25, 0.3, 0.2],
    [0.25, 0.25, 0.2, 0.3],
])


def observer_matrix(A: np.ndarray, j: int, tol: float = 1e-12) -> np.ndarray:
    """Rows of the identity selecting the states in row j's support."""
    n = A.shape[0]
    idx = [i for i in range(n) if abs(A[j - 1, i]) > tol]
    C = np.zeros((len(idx), n))
    C[np.arange(len(idx)), idx] = 1.0
    return C


def directed_cycle(n: int, self_weight: float = 0.5) -> np.ndarray:
    """One-way ring consensus matrix (connectivity 1)."""
    A = self_weight * np.eye(n)
    for i in range(n):
        A[i, (i - 1) % n] = 1.0 - self_weight
    return A


def circulant_network(n: int, c: int, rng: np.random.Generator) -> np.ndarray:
    """Consensus matrix on the circulant digraph with offsets +-1..+-c (the
    Harary graph H_{2c,n}, 2c-connected) and self-loops, weights uniform on
    [0.1, 1], agents relabelled at random."""
    mask = np.eye(n, dtype=bool)
    ring = np.arange(n)
    for off in range(1, c + 1):
        mask[ring, (ring + off) % n] = mask[ring, (ring - off) % n] = True
    perm = rng.permutation(n)
    A = np.where(mask[np.ix_(perm, perm)], rng.uniform(0.1, 1.0, (n, n)), 0.0)
    return A / A.sum(axis=1, keepdims=True)
