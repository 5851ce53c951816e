"""Digraphs behind consensus matrices.

Vertex connectivity and vertex cuts via the node-splitting max-flow
reduction (Menger), disjoint-path counts between vertex sets, and
structural (generic) rank tests through bipartite matching.  Many local
connectivities are solved by one max-flow on disjoint copies of the
split network.  The connectivity is the least local connectivity over
the pairs Esfahanian and Hakimi (Networks 14, 1984) attach to one vertex
v: v to each vertex it has no arc to, each vertex with no arc to v to v,
and each in-neighbour of v to each out-neighbour it has no arc to.  A
cut search runs one max-flow per source vertex.  Flows, reachability,
strong connectivity and matchings are computed by
``scipy.sparse.csgraph`` on CSR matrices built from the edge set.
Vertices are numbered 1..n to match agent identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (breadth_first_order, connected_components,
                                  maximum_bipartite_matching, maximum_flow)

from .numerics import _support, as_matrix


@dataclass(frozen=True)
class DiGraph:
    """Directed graph on vertices 1..n; an edge (j, i) means j -> i."""

    n: int
    edges: frozenset

    def __post_init__(self):
        for (a, b) in self.edges:
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise ValueError(f"edge ({a},{b}) outside vertex range 1..{self.n}")

    def vertices(self):
        return range(1, self.n + 1)

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in self.edges


def from_matrix(A) -> DiGraph:
    """Digraph of a matrix: edge (j, i) iff entry (i, j) is in the support
    of ``A`` (``numerics._support``); self-loops are not recorded."""
    return StructurePattern.from_matrix(A).digraph()


def read_edge_list(text: str) -> DiGraph:
    """Parse the plain-text edge-list format ``n`` then one ``j i`` per line."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty edge list")
    n = int(tokens[0])
    rest = tokens[1:]
    if len(rest) % 2:
        raise ValueError("edge list has a dangling vertex id")
    edges = {(int(rest[k]), int(rest[k + 1])) for k in range(0, len(rest), 2)}
    return DiGraph(n, frozenset(edges))


def write_edge_list(G: DiGraph) -> str:
    lines = [str(G.n)]
    lines += [f"{a} {b}" for (a, b) in sorted(G.edges)]
    return "\n".join(lines) + "\n"


def _pattern(pairs, shape) -> csr_matrix:
    """0/1 CSR matrix with ones at the given 0-based (row, col) pairs."""
    rc = np.array(list(pairs), dtype=np.int32).reshape(-1, 2)
    return csr_matrix((np.ones(len(rc)), (rc[:, 0], rc[:, 1])), shape=shape)


def _induced(G: DiGraph, removed) -> tuple:
    """Vertices of G minus ``removed`` (ascending) and their adjacency."""
    alive = [v for v in G.vertices() if v not in removed]
    index = {v: i for i, v in enumerate(alive)}
    pairs = [(index[a], index[b]) for (a, b) in G.edges
             if a in index and b in index]
    return alive, _pattern(pairs, (len(alive), len(alive)))


def _reachable(G: DiGraph, start: int, removed: set, reverse: bool = False) -> set:
    """Vertices reachable from ``start`` in G minus ``removed``."""
    if start in removed:
        return set()
    alive, adj = _induced(G, removed)
    order = breadth_first_order(adj.T if reverse else adj, alive.index(start),
                                return_predecessors=False)
    return {alive[i] for i in order}


def is_strongly_connected(G: DiGraph, removed: set | None = None) -> bool:
    alive, adj = _induced(G, removed or set())
    return len(alive) <= 1 or connected_components(
        adj, connection="strong", return_labels=False) == 1


# -- max-flow on the node-split network --------------------------------------

# Most arcs one ``maximum_flow`` call of ``_local_connectivities`` holds.
# It bounds the union's memory and keeps its int32 indices small.  Every
# Dinic phase scans the whole union, copies already saturated included, so
# much larger unions also run slower than the same pairs in a few chunks.
_UNION_ARCS = 1 << 16


def _split_network(G: DiGraph, sources=(), sinks=()) -> csr_matrix:
    """Node-split network: v_in = 2v - 2 -> v_out = 2v - 1 with capacity 1.

    Edge arcs a_out -> b_in get capacity n, above any flow they carry, so
    minimum cuts consist of vertex arcs.  Node 2n feeds ``sources`` and
    node 2n + 1 drains ``sinks`` through unit arcs.
    """
    n = G.n
    arcs = [(2 * v - 2, 2 * v - 1, 1) for v in G.vertices()]
    arcs += [(2 * a - 1, 2 * b - 2, n) for (a, b) in G.edges]
    arcs += [(2 * n, 2 * s - 2, 1) for s in sources]
    arcs += [(2 * t - 1, 2 * n + 1, 1) for t in sinks]
    tails, heads, caps = np.array(arcs, dtype=np.int32).reshape(-1, 3).T
    return csr_matrix((caps, (tails, heads)), shape=(2 * n + 2, 2 * n + 2))


def local_vertex_connectivity(G: DiGraph, s: int, t: int):
    """Max internally-vertex-disjoint s -> t paths and a minimum vertex cut.

    Requires ``(s, t)`` not to be an edge.  Returns ``(count, cut)``
    where ``cut`` is a set of vertices meeting every s -> t path.
    """
    if G.has_edge(s, t):
        raise ValueError("local connectivity undefined for adjacent pair")
    net = _split_network(G)
    result = maximum_flow(net, 2 * s - 1, 2 * t - 2)
    # Min cut: vertex arcs leaving the set the residual reaches from the
    # source, which is the same for every maximum flow.
    residual = net - result.flow
    residual.eliminate_zeros()
    reach = set(breadth_first_order(residual, 2 * s - 1,
                                    return_predecessors=False).tolist())
    cut = {v for v in G.vertices() if 2 * v - 2 in reach and 2 * v - 1 not in reach}
    return int(result.flow_value), cut


def _local_connectivities(G: DiGraph, pairs, cap: int) -> np.ndarray:
    """Local connectivity of each non-adjacent ``(s, t)`` in ``pairs``, or
    ``cap`` where it is larger.

    Every pair gets its own copy of the node-split network, the copies
    laid side by side with index offsets.  A super source feeds each
    copy's s_out and each copy's t_in drains to a super sink through arcs
    of capacity ``cap``, which stops each copy's flow once it reaches the
    value the caller needs (n is above any local connectivity).  A
    maximum flow on a disjoint union is a maximum flow on every
    component, so the flow on copy p's source arc is the connectivity of
    pair p, capped, and one ``maximum_flow`` call answers a whole chunk of
    at most ``_UNION_ARCS`` arcs.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    net = _split_network(G).tocoo()
    width = 2 * G.n
    chunk = max(1, _UNION_ARCS // (net.nnz + 2))
    values = np.empty(len(pairs), dtype=np.int64)
    for lo in range(0, len(pairs), chunk):
        s, t = pairs[lo:lo + chunk].T
        offset = width * np.arange(len(s))
        source, sink = width * len(s), width * len(s) + 1
        s_out, t_in = offset + 2 * s - 1, offset + 2 * t - 2
        tails = np.concatenate([(offset[:, None] + net.row).ravel(),
                                np.full(len(s), source), t_in])
        heads = np.concatenate([(offset[:, None] + net.col).ravel(),
                                s_out, np.full(len(s), sink)])
        caps = np.concatenate([np.tile(net.data, len(s)),
                               np.full(2 * len(s), cap, dtype=net.data.dtype)])
        union = csr_matrix((caps, (tails, heads)), shape=(sink + 1, sink + 1))
        flow = maximum_flow(union, source, sink).flow
        values[lo:lo + len(s)] = flow[source].toarray().ravel()[s_out]
    return values


def vertex_connectivity(G: DiGraph) -> int:
    """Minimum number of vertices whose removal breaks strong connectivity.

    Esfahanian and Hakimi (Networks 14, 1984): for any vertex v of a
    digraph that is not complete, the connectivity is the least local
    connectivity over three families of non-adjacent pairs,

    - (v, w) for every w that is not an out-neighbour of v,
    - (w, v) for every w that is not an in-neighbour of v,
    - (x, y) for every in-neighbour x and out-neighbour y of v with no
      arc x -> y.

    A minimum cut that misses v separates v from some w, and a minimum
    cut that holds v is crossed through v from an in-neighbour on its
    source side to an out-neighbour on its sink side.  v is the vertex
    with the fewest such pairs, ties to the lowest label, and the pairs
    share one max-flow on disjoint copies of the split network (more
    only when they are split to bound its size), each copy's flow capped
    at the least in- or out-degree, which bounds the connectivity: the
    neighbours on that side of such a vertex form a cut.  A complete digraph,
    which has no pairs, has connectivity ``n - 1`` by convention.  A graph
    that is not strongly connected has connectivity 0 from the pairs
    alone: if v cannot reach some w, (v, w) is a pair of local
    connectivity 0, and so is (w, v) if some w cannot reach v; v has no
    pair of the first two families only when it has arcs to and from
    every vertex, and then the graph is strongly connected.
    """
    if G.n <= 1:
        return 0
    pairs, least_degree = _connectivity_pairs(G)
    if not len(pairs):
        return G.n - 1
    return min(G.n - 1,
               int(_local_connectivities(G, pairs, least_degree).min()))


def _connectivity_pairs(G: DiGraph) -> tuple:
    """The Esfahanian-Hakimi pairs of the vertex with the fewest, 1-based,
    and the least in- or out-degree of G, self-loops not counted."""
    n = G.n
    tails, heads = np.array(list(G.edges), dtype=np.int64).reshape(-1, 2).T
    arc = np.zeros((n, n), dtype=bool)
    arc[tails - 1, heads - 1] = True
    np.fill_diagonal(arc, False)  # a self-loop joins no two vertices
    # free[x, y]: x != y and no arc x -> y, so (x, y) can be a pair
    free = ~arc
    np.fill_diagonal(free, False)
    # per vertex v: free (v, w), free (w, v), and free (x, y) with x -> v -> y
    through = ((arc.T.astype(float) @ free) * arc).sum(axis=1)
    v = int(np.argmin(free.sum(axis=1) + free.sum(axis=0) + through))
    ins, outs = np.flatnonzero(arc[:, v]), np.flatnonzero(arc[v])
    x, y = np.nonzero(free[np.ix_(ins, outs)])
    w_out, w_in = np.flatnonzero(free[v]), np.flatnonzero(free[:, v])
    sources = np.concatenate([np.full(len(w_out), v), w_in, ins[x]])
    sinks = np.concatenate([w_out, np.full(len(w_in), v), outs[y]])
    least_degree = int(min(arc.sum(axis=0).min(), arc.sum(axis=1).min()))
    return np.stack([sources, sinks], axis=1) + 1, least_degree


@dataclass(frozen=True)
class VertexCut:
    """A vertex cut with the two parts it separates.

    After removing ``cut`` there is no edge from ``source_side`` into
    ``sink_side``: the sink side is closed under taking in-neighbors.
    """

    cut: tuple
    sink_side: tuple
    source_side: tuple


def find_vertex_cut(G: DiGraph, k: int) -> VertexCut | None:
    """A cut of size exactly ``k`` with its partition, or None.

    Returns None when the connectivity exceeds ``k`` (or when no cut of
    size exactly ``k`` can leave two nonempty parts).
    """
    if k < 0 or G.n - k < 2:
        return None
    if not is_strongly_connected(G):
        # the sink side is vertex 1 with everything that reaches it or, when
        # that is every vertex, the vertices vertex 1 cannot reach
        sink_side = _reachable(G, 1, set(), reverse=True)
        if len(sink_side) == G.n:
            sink_side = set(G.vertices()) - _reachable(G, 1, set())
        source_side = [v for v in G.vertices() if v not in sink_side]
        return _pad_cut(G, set(), sorted(sink_side), source_side, k)
    # one max-flow per source vertex keeps the early return cheap when a
    # cut exists, each copy capped at k + 1, all that tells whether its
    # pair has a cut of k; the cut itself is computed only for those pairs
    for s in G.vertices():
        targets = [t for t in G.vertices() if t != s and not G.has_edge(s, t)]
        values = _local_connectivities(G, [(s, t) for t in targets], k + 1)
        for t, value in zip(targets, values):
            if value <= k:
                _, cut = local_vertex_connectivity(G, s, t)
                sink_side = sorted(_reachable(G, t, cut, reverse=True))
                source_side = [v for v in G.vertices()
                               if v not in cut and v not in sink_side]
                padded = _pad_cut(G, cut, sink_side, source_side, k)
                if padded is not None:
                    return padded
    return None


def _pad_cut(G, cut: set, sink_side: list, source_side: list, k: int):
    """Grow a cut to exactly k vertices keeping both sides nonempty."""
    while len(cut) < k:
        donor = source_side if len(source_side) >= len(sink_side) else sink_side
        if len(donor) <= 1:
            return None
        cut.add(donor.pop())
    if len(cut) != k or not sink_side or not source_side:
        return None
    return VertexCut(tuple(sorted(cut)), tuple(sorted(sink_side)),
                     tuple(sorted(source_side)))


def disjoint_path_count(G: DiGraph, sources, sinks) -> int:
    """Maximum number of vertex-disjoint paths from ``sources`` to ``sinks``.

    Paths are disjoint including endpoints; a vertex belonging to both
    sets counts as a zero-length path.
    """
    net = _split_network(G, set(sources), set(sinks))
    return int(maximum_flow(net, 2 * G.n, 2 * G.n + 1).flow_value)


# -- structured systems -------------------------------------------------------


@dataclass(frozen=True)
class StructurePattern:
    """Zero/indeterminate pattern of a matrix.

    ``free`` holds the (row, col) positions (0-based) carrying
    indeterminate parameters; all other positions are fixed zeros.
    """

    rows: int
    cols: int
    free: frozenset

    def __post_init__(self):
        for (r, c) in self.free:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"free position ({r},{c}) out of range")

    @classmethod
    def from_matrix(cls, A) -> "StructurePattern":
        """Free positions where ``A`` has support (``numerics._support``)."""
        A = as_matrix(A)
        rows, cols = np.nonzero(_support(A))
        return cls(A.shape[0], A.shape[1],
                   frozenset(zip(rows.tolist(), cols.tolist())))

    def digraph(self) -> DiGraph:
        if self.rows != self.cols:
            raise ValueError("pattern must be square to define a digraph")
        edges = {(c + 1, r + 1) for (r, c) in self.free if r != c}
        return DiGraph(self.rows, frozenset(edges))


def structural_generic_rank(P: StructurePattern) -> int:
    """Generic rank of a pattern via maximum bipartite matching.

    Rows are matched to columns across the free positions; the matching
    size equals the maximal rank over all numeric realizations.
    """
    match = maximum_bipartite_matching(_pattern(P.free, (P.rows, P.cols)),
                                       perm_type="column")
    return int(np.count_nonzero(match >= 0))


def generically_no_zero_dynamics(Apat: StructurePattern,
                                 Bpat: StructurePattern) -> bool:
    """Sufficient structural test for absence of zero dynamics.

    True when the state pattern's digraph is k-connected and the input
    pattern has generic rank below k; under that condition almost every
    realization (consensus realizations included) has no invisible state
    motion.
    """
    k = vertex_connectivity(Apat.digraph())
    return structural_generic_rank(Bpat) < k


@dataclass(frozen=True)
class ResilienceReport:
    """Connectivity-derived bounds on tolerable misbehaving agents."""

    connectivity: int
    max_generic_faulty: int
    max_generic_malicious: int

    def guarantee(self, k: int) -> str:
        """What identifying k agents promises: ``"malicious"`` when k is
        within the malicious bound, else ``"faulty"``, as identification
        needs at least the faulty agents' connectivity ``k + 1``."""
        return "malicious" if k <= self.max_generic_malicious else "faulty"


def resilience_bounds(G: DiGraph) -> ResilienceReport:
    """Graph-theoretic resilience bounds of G: :func:`resilience_at` its
    vertex connectivity."""
    return resilience_at(vertex_connectivity(G))


def resilience_at(connectivity: int) -> ResilienceReport:
    """The resilience bounds of a network of the given vertex connectivity.

    The one rule of both guarantees: identifying k faulty agents needs
    connectivity ``k + 1`` and k malicious agents ``2k + 1``, so a
    κ-connected network generically supports identification of up to
    ``κ - 1`` faulty agents and up to ``floor((κ - 1) / 2)`` malicious
    agents by every well-behaving observer.
    """
    return ResilienceReport(
        connectivity=connectivity,
        max_generic_faulty=max(connectivity - 1, 0),
        max_generic_malicious=max((connectivity - 1) // 2, 0),
    )
