"""Seeded scenario generation for the four benchmark workloads.

Every network, attack and initial state is drawn here with numpy;
netguard receives only the finished scenario files.  Each workload is a
fixed list of slots.  A slot fixes the sizes, attack kinds, horizons and
couplings, and its graph shape comes from a generator seeded by the slot
alone (``shape_rng``): `analyze`'s extra arcs, observer and sets, and
`local-identify`'s coupled rows, observer, attackers and input kinds.
The run's seed draws the weights, the labelling of the agents and the
input values, plus the observer and attackers on the vertex-transitive
circulants of `identify` and `monitor`, whose work does not depend on
them.  Every seed thus gives each slot an isomorphic instance, and the
work a pass does depends on the slot list, not on the seed.

A scenario is a dict with:

``name``      label of the slot,
``command``   the netguard subcommand to run,
``doc``       the scenario JSON handed to the CLI,
``expect``    what the checker needs to judge the verdict.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("identify", "analyze", "local-identify", "monitor")
SHAPE_SEED = 20100714

# identify: (n, k, attacked-set size, input kind).  Circulant offsets
# +-1..+-(k + 1) make the network 2(k + 1) >= 2k + 1 connected.
IDENTIFY_SLOTS = (
    (8, 1, 1, "constant"),
    (8, 2, 2, "sequence"),
    (8, 2, 0, "none"),
    (10, 1, 0, "none"),
    (10, 1, 1, "exponential"),
    (10, 2, 1, "exponential"),
    (12, 1, 1, "sequence"),
    (12, 1, 1, "constant"),
    (12, 2, 2, "constant"),
)

# analyze: (n, circulant offsets c, extra random arcs, sizes of the sets).
# Six slots of 0.2 to 1.1 s: op_p50_s averages the two middle ones (n = 44
# and 42), and a pass is short enough for six or more passes a run.
# One observer per network; its sets are drawn from the agents it measures.
# Sets placed further away make netguard's normal-rank test fragile (see
# CHANGES.md), which would fail operations on some seeds only.
ANALYZE_SLOTS = (
    (30, 2, 30, (2, 2, 1)),
    (40, 1, 40, (2, 2, 1)),
    (42, 2, 20, (2, 2, 1)),
    (44, 1, 44, (2, 2, 1)),
    (46, 2, 23, (2, 2, 1)),
    (52, 1, 52, (2, 2, 1)),
)

# local-identify: (block sizes, observer block, coupling, side of the
# certified crossing, attacked agents in the block).  WEAK7 is the paper's
# seven-agent example (two complete blocks).
LOCAL_SLOTS = (
    ("weak7", 1, 0.01, "below", 1),
    ("weak7", 1, 0.1, "above", 1),
    ((4, 5), 1, 1e-3, "below", 1),
    ((4, 4), 1, 0.3, "above", 1),
    ((4, 5), 1, 0.3, "above", 0),
    ((5, 3, 4), 2, 0.3, "above", 1),
    ((5, 8), 1, 1e-3, "below", 1),
    ((3, 6, 3), 2, 1e-3, "below", 1),
    ((7, 4), 1, 0.3, "above", 1),
)
LOCAL_U_MIN, LOCAL_U_MAX, LOCAL_X_MAX = 0.1, 1.0, 1.0

# monitor: (command, n, circulant offsets, horizon, input kind).  Three
# slots take about 0.2 s and three about 0.35 s; the horizon of the middle
# one (T = 9000) sets it apart from both, so op_p50_s is its median.
MONITOR_SLOTS = (
    ("simulate", 15, 2, 4000, "constant"),
    ("simulate", 30, 1, 3000, "exponential"),
    ("simulate", 30, 2, 2000, "none"),
    ("detect", 15, 1, 12000, "constant"),
    ("detect", 15, 2, 9000, "exponential"),
    ("detect", 30, 2, 10000, "none"),
    ("detect", 30, 1, 6000, "constant"),
)

WEAK7_BLOCKS = np.array([
    [1 / 3, 1 / 3, 1 / 3, 0, 0, 0, 0],
    [1 / 3, 1 / 3, 1 / 3, 0, 0, 0, 0],
    [1 / 3, 1 / 3, 1 / 3, 0, 0, 0, 0],
    [0, 0, 0, 1 / 4, 1 / 4, 1 / 4, 1 / 4],
    [0, 0, 0, 1 / 4, 1 / 4, 1 / 4, 1 / 4],
    [0, 0, 0, 1 / 4, 1 / 4, 1 / 4, 1 / 4],
    [0, 0, 0, 1 / 4, 1 / 4, 1 / 4, 1 / 4],
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


def shape_rng(workload: str, slot: int) -> np.random.Generator:
    """Generator for a slot's graph shape, the same for every run seed."""
    return np.random.default_rng([SHAPE_SEED, WORKLOADS.index(workload), slot])


def _normalize(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Weights uniform on [0.1, 1] on the mask, rows scaled to sum to one."""
    W = np.where(mask, rng.uniform(0.1, 1.0, size=mask.shape), 0.0)
    return W / W.sum(axis=1, keepdims=True)


def circulant_network(n: int, c: int, rng: np.random.Generator,
                      extra_arcs: int = 0, shape=None):
    """Consensus matrix on the circulant digraph with offsets +-1..+-c.

    The circulant (Harary graph H_{2c,n}) is 2c vertex-connected; extra
    arcs, drawn in ring order from ``shape`` (default ``rng``), cannot
    lower that.  A random relabelling from ``rng`` hides the ring order.
    Self-weights are positive, so the matrix is primitive.  Returns the
    matrix and ``label``: ``label[r]`` is the 0-based index of the agent
    at ring position ``r``.
    """
    shape = rng if shape is None else shape
    mask = np.eye(n, dtype=bool)
    idx = np.arange(n)
    for off in range(1, c + 1):
        mask[idx, (idx + off) % n] = True
        mask[idx, (idx - off) % n] = True
    for _ in range(extra_arcs):
        i, j = shape.integers(0, n, size=2)
        mask[i, j] = True
    perm = rng.permutation(n)
    return _normalize(mask[np.ix_(perm, perm)], rng), np.argsort(perm)


def block_network(sizes, eps: float, rng: np.random.Generator, shape=None):
    """Weakly coupled network of complete blocks and its partition.

    Each coupled row r is ``(1 - e) * block_row + e * unit(c)`` with c in
    the next (or previous) block, so the decomposition's coupling
    strength is exactly the largest e, which is ``eps``.  The weights
    come from ``rng``; the coupled rows and columns and the other links'
    shares of ``eps`` from ``shape`` (default ``rng``).
    """
    shape = rng if shape is None else shape
    n = int(sum(sizes))
    A = np.zeros((n, n))
    partition = []
    start = 0
    for size in sizes:
        idx = np.arange(start, start + size)
        A[np.ix_(idx, idx)] = _normalize(np.ones((size, size), dtype=bool), rng)
        partition.append(tuple(int(i) + 1 for i in idx))
        start += size
    # both directions between blocks adjacent on a ring of blocks
    nb = len(sizes)
    links = [link for h in range(nb if nb > 2 else 1)
             for link in ((h, (h + 1) % nb), ((h + 1) % nb, h))]
    used = set()
    for pos, (src, dst) in enumerate(links):
        # one coupled row per link keeps every row's cross weight at e
        r = int(shape.choice([a for a in partition[src] if a not in used]))
        used.add(r)
        r -= 1
        c = shape.choice(partition[dst]) - 1
        e = eps if pos == 0 else eps * shape.uniform(0.5, 1.0)
        row = (1.0 - e) * A[r]
        row[c] += e
        A[r] = row
    return A, tuple(partition)


def attack_spec(agent: int, kind: str, horizon: int, rng: np.random.Generator,
                low: float = 0.5, high: float = 2.0):
    """CLI attack entry and the input sequence u(0..horizon-1) it applies."""
    sign = float(rng.choice([-1.0, 1.0]))
    if kind == "constant":
        value = sign * float(rng.uniform(low, high))
        return ({"agent": agent, "kind": "constant", "value": value},
                np.full(horizon, value))
    if kind == "sequence":
        values = rng.uniform(low, high, size=horizon)
        values *= rng.choice([-1.0, 1.0], size=horizon)
        return ({"agent": agent, "kind": "sequence", "values": values.tolist()},
                values)
    if kind == "exponential":
        value = sign * float(rng.uniform(low, high))
        rate = float(rng.uniform(0.85, 0.95))
        return ({"agent": agent, "kind": "exponential", "rate": rate,
                 "value": value},
                value * rate ** np.arange(horizon, dtype=float))
    raise ValueError(f"unknown input kind {kind!r}")


def _doc(A: np.ndarray, **fields) -> dict:
    doc = {"schema_version": 1, "seed": 0, "matrix": {"rows": A.tolist()}}
    doc.update(fields)
    return doc


def identify_scenarios(rng: np.random.Generator) -> list:
    out = []
    for n, k, size, kind in IDENTIFY_SLOTS:
        A, _ = circulant_network(n, k + 1, rng)
        horizon = 3 * n
        agents = rng.permutation(n) + 1
        observer = int(agents[0])
        attacked = sorted(int(a) for a in agents[1:1 + size])
        attacks = [attack_spec(a, kind, horizon, rng)[0] for a in attacked]
        x0 = rng.uniform(-1.0, 1.0, size=n)
        out.append({
            "name": f"identify-n{n}-k{k}-{size}x{kind}",
            "command": "identify",
            "doc": _doc(A, observer=observer, k=k, horizon=horizon,
                        attacks=attacks, x0=x0.tolist()),
            "expect": {"attacked": attacked},
        })
    return out


def analyze_scenarios(rng: np.random.Generator) -> list:
    out = []
    for slot, (n, c, extra, set_sizes) in enumerate(ANALYZE_SLOTS):
        shape = shape_rng("analyze", slot)
        A, label = circulant_network(n, c, rng, extra_arcs=extra, shape=shape)
        # One observer; each set is drawn from the agents it measures.
        # Both are chosen by ring position, so they too are the slot's.
        r0 = int(shape.integers(n))
        j = int(label[r0])
        near = [r for r in range(n) if r != r0 and A[j, label[r]] != 0]
        sets = [sorted(int(label[r]) + 1 for r in shape.choice(near, size, replace=False))
                for size in set_sizes]
        observers = [j + 1]
        out.append({
            "name": f"analyze-n{n}-c{c}",
            "command": "analyze",
            "doc": _doc(A, sets=sets, observers=observers),
            "expect": {"matrix": A, "sets": sets, "observers": observers},
        })
    return out


def local_scenarios(rng: np.random.Generator) -> list:
    out = []
    for slot, (sizes, h, eps, side, n_attacked) in enumerate(LOCAL_SLOTS):
        shape = shape_rng("local-identify", slot)
        if sizes == "weak7":
            A = WEAK7_BLOCKS + eps * WEAK7_COUPLING
            partition = WEAK7_PARTITION
        else:
            A, partition = block_network(sizes, eps, rng, shape=shape)
        n = A.shape[0]
        block = partition[h - 1]
        order = shape.permutation(len(block))
        observer = int(block[order[0]])
        attacked = sorted(int(block[i]) for i in order[1:1 + n_attacked])
        horizon = 4 * len(block) + 10
        attacks = []
        for a in attacked:
            kind = "constant" if shape.uniform() < 0.5 else "sequence"
            spec, _ = attack_spec(a, kind, horizon, rng, LOCAL_U_MIN, LOCAL_U_MAX)
            # inputs stay inside the calibrated band [u_min, u_max]
            if kind == "constant":
                spec["value"] = abs(spec["value"])
            else:
                spec["values"] = [abs(v) for v in spec["values"]]
            attacks.append(spec)
        x0 = rng.uniform(-LOCAL_X_MAX, LOCAL_X_MAX, size=n)
        label = sizes if sizes == "weak7" else "x".join(map(str, sizes))
        out.append({
            "name": f"local-{label}-{side}",
            "command": "local-identify",
            "doc": _doc(A, observer=observer, partition=[list(b) for b in partition],
                        block=h, k=1, horizon=horizon, attacks=attacks,
                        x0=x0.tolist(),
                        calibration={"u_min": LOCAL_U_MIN, "u_max": LOCAL_U_MAX,
                                     "x_max": LOCAL_X_MAX}),
            "expect": {"side": side, "epsilon": eps, "attacked": attacked},
        })
    return out


def monitor_scenarios(rng: np.random.Generator) -> list:
    out = []
    for command, n, c, horizon, kind in MONITOR_SLOTS:
        A, _ = circulant_network(n, c, rng)
        agents = rng.permutation(n) + 1
        observer = int(agents[0])
        attacks, inputs = [], {}
        if kind != "none":
            spec, u = attack_spec(int(agents[1]), kind, horizon, rng)
            attacks.append(spec)
            inputs[int(agents[1])] = u
        x0 = rng.uniform(-1.0, 1.0, size=n)
        out.append({
            "name": f"{command}-n{n}-T{horizon}-{kind}",
            "command": command,
            "doc": _doc(A, observer=observer, horizon=horizon, attacks=attacks,
                        x0=x0.tolist()),
            "expect": {"matrix": A, "x0": x0, "inputs": inputs,
                       "horizon": horizon, "persistent": kind == "constant"},
        })
    return out


_GENERATORS = {
    "identify": identify_scenarios,
    "analyze": analyze_scenarios,
    "local-identify": local_scenarios,
    "monitor": monitor_scenarios,
}


def make_scenarios(workload: str, seed: int) -> list:
    """The fixed slot list of ``workload`` filled in from ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _GENERATORS[workload](rng)
