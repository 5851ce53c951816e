from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netguard import graph as gm

from fixtures import BENCH8_A, directed_cycle
from oracles import vertex_connectivity_bruteforce, vertex_connectivity_even


def cycle_graph(n):
    return gm.DiGraph(n, frozenset((i, i % n + 1) for i in range(1, n + 1)))


def complete_graph(n):
    return gm.DiGraph(n, frozenset((a, b) for a in range(1, n + 1)
                                   for b in range(1, n + 1) if a != b))


def random_digraph(rng, n):
    edges = {(i, i % n + 1) for i in range(1, n + 1)}
    for _ in range(int(rng.integers(0, 2 * n))):
        a, b = rng.integers(1, n + 1, 2)
        if a != b:
            edges.add((int(a), int(b)))
    return gm.DiGraph(n, frozenset(edges))


def test_from_matrix_identity_has_no_edges():
    assert gm.from_matrix(np.eye(4)).edges == frozenset()


def test_from_matrix_full_positive_is_complete():
    G = gm.from_matrix(np.full((3, 3), 1 / 3))
    assert G.edges == complete_graph(3).edges


def test_from_matrix_benchmark_sparsity():
    G = gm.from_matrix(BENCH8_A)
    for i in range(8):
        for j in range(8):
            if i != j:
                assert ((j + 1, i + 1) in G.edges) == (BENCH8_A[i, j] != 0)


def test_edge_direction_follows_matrix_support():
    A = np.array([[0.5, 0.5], [0.0, 1.0]])
    G = gm.from_matrix(A)
    assert G.edges == frozenset({(2, 1)})


def test_connectivity_complete():
    for n in (3, 4, 5):
        assert gm.vertex_connectivity(complete_graph(n)) == n - 1


def test_connectivity_directed_cycle_is_one():
    for n in (3, 4, 6):
        assert gm.vertex_connectivity(cycle_graph(n)) == 1


def test_connectivity_benchmark_is_three():
    assert gm.vertex_connectivity(gm.from_matrix(BENCH8_A)) == 3


def test_connectivity_disconnected_is_zero():
    G = gm.DiGraph(4, frozenset({(1, 2), (2, 1), (3, 4), (4, 3)}))
    assert gm.vertex_connectivity(G) == 0


@pytest.mark.parametrize("seed", range(25))
def test_connectivity_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    G = random_digraph(rng, int(rng.integers(3, 8)))
    assert gm.vertex_connectivity(G) == vertex_connectivity_bruteforce(G)


# The identification gates read "connectivity >= m" from the exact count.
@pytest.mark.parametrize("seed", range(25))
def test_connectivity_gate_matches_bruteforce(seed):
    rng = np.random.default_rng(100 + seed)
    G = random_digraph(rng, int(rng.integers(2, 8)))
    kappa = vertex_connectivity_bruteforce(G)
    for m in range(-1, G.n + 2):
        assert (gm.vertex_connectivity(G) >= m) == (kappa >= m)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(2, 8), density=st.sampled_from([0.1, 0.3, 0.6, 0.9]),
       ring=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_connectivity_property_matches_bruteforce(n, density, ring, seed):
    rng = np.random.default_rng(seed)
    edges = {(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
             if a != b and rng.random() < density}
    if ring:
        edges |= {(i, i % n + 1) for i in range(1, n + 1)}
    G = gm.DiGraph(n, frozenset(edges))
    assert gm.vertex_connectivity(G) == vertex_connectivity_bruteforce(G)


@pytest.mark.parametrize("seed", range(20))
def test_connectivity_matches_even_scan(seed):
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(2, 31))
    G = dense_digraph(rng, n) if seed % 2 else random_digraph(rng, n)
    assert gm.vertex_connectivity(G) == vertex_connectivity_even(G)


def pair_families(G, v):
    """Esfahanian-Hakimi pairs of v: from v, into v, and through v."""
    others = [w for w in G.vertices() if w != v]
    outs = [w for w in others if G.has_edge(v, w)]
    ins = [w for w in others if G.has_edge(w, v)]
    return ([(v, w) for w in others if w not in outs],
            [(w, v) for w in others if w not in ins],
            [(x, y) for x in ins for y in outs
             if x != y and not G.has_edge(x, y)])


def fewest_pairs(G):
    """The pairs of the vertex with the fewest, ties to the lowest label."""
    return min((sum(pair_families(G, v), []) for v in G.vertices()), key=len)


@pytest.mark.parametrize("seed", range(10))
def test_connectivity_pairs_are_those_of_the_vertex_with_fewest(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 15))
    G = dense_digraph(rng, n) if seed % 2 else random_digraph(rng, n)
    pairs = [tuple(p) for p in gm._connectivity_pairs(G)[0].tolist()]
    assert sorted(pairs) == sorted(fewest_pairs(G))


# Each digraph has one family of the chosen vertex 1 that alone reaches the
# connectivity.  A directed 3-cycle 2 -> 3 -> 4 -> 2 with vertex 1 joined
# both ways to each of its vertices: every minimum cut holds 1 and only the
# pairs through 1 see it.  The complete digraph on 5 vertices less the arc
# 3 -> 1 (or 1 -> 3): every vertex has that arc as its one pair, and for
# vertex 1 it is a pair into (from) it.
@pytest.mark.parametrize("edges, family", [
    ({(2, 3), (3, 4), (4, 2)} | {(1, w) for w in (2, 3, 4)}
     | {(w, 1) for w in (2, 3, 4)}, 2),
    ({(a, b) for a in range(1, 6) for b in range(1, 6)
      if a != b and (a, b) != (3, 1)}, 1),
    ({(a, b) for a in range(1, 6) for b in range(1, 6)
      if a != b and (a, b) != (1, 3)}, 0)], ids=["through", "into", "from"])
def test_connectivity_needs_each_pair_family(edges, family):
    G = gm.DiGraph(max(max(e) for e in edges), frozenset(edges))
    kappa = vertex_connectivity_bruteforce(G)
    assert gm.vertex_connectivity(G) == kappa == G.n - 2
    families = pair_families(G, 1)
    assert sorted(fewest_pairs(G)) == sorted(sum(families, []))
    for f, pairs in enumerate(families):
        least = min((gm.local_vertex_connectivity(G, s, t)[0]
                     for s, t in pairs), default=G.n)
        assert (least == kappa) == (f == family)
    if family == 2:
        assert all(1 in S for S in combinations(G.vertices(), kappa)
                   if not gm.is_strongly_connected(G, set(S)))


def test_find_vertex_cut_cycle():
    cut = gm.find_vertex_cut(cycle_graph(4), 1)
    assert cut is not None and len(cut.cut) == 1
    removed = set(cut.cut)
    assert not gm.is_strongly_connected(cycle_graph(4), removed)


def test_find_vertex_cut_none_when_too_connected():
    assert gm.find_vertex_cut(complete_graph(4), 2) is None


def test_find_vertex_cut_benchmark():
    G = gm.from_matrix(BENCH8_A)
    cut = gm.find_vertex_cut(G, 3)
    assert cut is not None and len(cut.cut) == 3
    assert not gm.is_strongly_connected(G, set(cut.cut))
    # the sink side never hears from the source side directly
    for a in cut.source_side:
        for b in cut.sink_side:
            assert not G.has_edge(a, b)


@pytest.mark.parametrize("seed", range(8))
def test_cut_partition_property(seed):
    rng = np.random.default_rng(200 + seed)
    G = random_digraph(rng, 6)
    k = gm.vertex_connectivity(G)
    cut = gm.find_vertex_cut(G, k)
    assert cut is not None
    assert cut.sink_side and cut.source_side
    for a in cut.source_side:
        for b in cut.sink_side:
            assert not G.has_edge(a, b)


def test_disjoint_paths_overlapping_sets():
    G = cycle_graph(5)
    assert gm.disjoint_path_count(G, {1, 2, 3}, {1, 2, 3}) == 3


def test_disjoint_paths_cycle_single_pair():
    assert gm.disjoint_path_count(cycle_graph(5), {1}, {3}) == 1


def test_disjoint_paths_benchmark():
    G = gm.from_matrix(BENCH8_A)
    sinks = {1, 2, 4, 5}          # states observed by agent 1
    assert gm.disjoint_path_count(G, {3, 7}, sinks) >= 2


def test_structural_rank_diagonal():
    P = gm.StructurePattern(4, 4, frozenset((i, i) for i in range(4)))
    assert gm.structural_generic_rank(P) == 4


def test_structural_rank_single_column():
    P = gm.StructurePattern(4, 3, frozenset((i, 1) for i in range(4)))
    assert gm.structural_generic_rank(P) == 1


def realization(P, rng):
    """A numeric matrix of pattern P, free entries uniform on [0.1, 1]."""
    A = np.zeros((P.rows, P.cols))
    for (r, c) in sorted(P.free):
        A[r, c] = rng.uniform(0.1, 1.0)
    return A


@pytest.mark.parametrize("seed", range(6))
def test_structural_rank_vs_realizations(seed):
    rng = np.random.default_rng(300 + seed)
    mask = rng.random((5, 5)) < 0.4
    P = gm.StructurePattern(5, 5,
                            frozenset((i, j) for i in range(5) for j in range(5)
                                      if mask[i, j]))
    generic = gm.structural_generic_rank(P)
    sampled = [np.linalg.matrix_rank(realization(P, rng)) for _ in range(10)]
    assert all(r <= generic for r in sampled)
    assert max(sampled, default=0) == generic


def test_generic_zero_dynamics_conditions():
    complete_pat = gm.StructurePattern.from_matrix(np.full((4, 4), 1.0))
    one_input = gm.StructurePattern(4, 1, frozenset({(0, 0)}))
    assert gm.generically_no_zero_dynamics(complete_pat, one_input)

    bench_pat = gm.StructurePattern.from_matrix(BENCH8_A)
    two_inputs = gm.StructurePattern(8, 2, frozenset({(2, 0), (6, 1)}))
    assert gm.generically_no_zero_dynamics(bench_pat, two_inputs)

    ring_pat = gm.StructurePattern.from_matrix(directed_cycle(5))
    ring_input = gm.StructurePattern(5, 1, frozenset({(0, 0)}))
    assert not gm.generically_no_zero_dynamics(ring_pat, ring_input)


# identify's guarantee and analyze's malicious bound are one rule of the
# connectivity: k malicious agents need 2k + 1.
@pytest.mark.parametrize("connectivity", range(10))
@pytest.mark.parametrize("k", range(5))
def test_guarantee_follows_the_malicious_bound(connectivity, k):
    bounds = gm.resilience_at(connectivity)
    bound = bounds.max_generic_malicious
    assert (bounds.guarantee(k) == "malicious") == (k <= bound)
    if connectivity >= 1:
        assert (k <= bound) == (connectivity >= 2 * k + 1)


def test_resilience_bounds():
    rb = gm.resilience_bounds(gm.from_matrix(BENCH8_A))
    assert (rb.connectivity, rb.max_generic_faulty, rb.max_generic_malicious) \
        == (3, 2, 1)
    rb = gm.resilience_bounds(complete_graph(4))
    assert (rb.max_generic_faulty, rb.max_generic_malicious) == (2, 1)
    rb = gm.resilience_bounds(cycle_graph(5))
    assert (rb.max_generic_faulty, rb.max_generic_malicious) == (0, 0)


def test_edge_list_roundtrip():
    G = gm.from_matrix(BENCH8_A)
    text = gm.write_edge_list(G)
    back = gm.read_edge_list(text)
    assert back.n == G.n and back.edges == G.edges


def test_edge_list_rejects_garbage():
    with pytest.raises(ValueError):
        gm.read_edge_list("3\n1 2 3")
    with pytest.raises(ValueError):
        gm.read_edge_list("")


def dense_digraph(rng, n):
    p = rng.uniform(0.15, 0.6)
    edges = {(i, i % n + 1) for i in range(1, n + 1)}
    edges |= {(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
              if a != b and rng.random() < p}
    return gm.DiGraph(n, frozenset(edges))


def pairwise_networkx_connectivity(G):
    """Minimum of networkx local_node_connectivity over non-adjacent pairs.

    ``nx.node_connectivity`` itself is not used: on digraphs it can
    overestimate (arcs 1->2, 2->3, 3->1, 3->2 give 2, though removing
    vertex 2 leaves only 3->1).
    """
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import (
        build_auxiliary_node_connectivity, local_node_connectivity)
    D = nx.DiGraph()
    D.add_nodes_from(G.vertices())
    D.add_edges_from(G.edges)
    aux = build_auxiliary_node_connectivity(D)
    return min((local_node_connectivity(D, s, t, auxiliary=aux)
                for s in G.vertices() for t in G.vertices()
                if s != t and not G.has_edge(s, t)), default=G.n - 1)


@pytest.mark.parametrize("seed", range(12))
def test_connectivity_and_cut_match_networkx(seed):
    rng = np.random.default_rng(400 + seed)
    G = dense_digraph(rng, int(rng.integers(10, 26)))
    k = pairwise_networkx_connectivity(G)
    assert gm.vertex_connectivity(G) == k
    cut = gm.find_vertex_cut(G, k)
    assert cut is not None and len(cut.cut) == k
    assert not gm.is_strongly_connected(G, set(cut.cut))
    assert gm.find_vertex_cut(G, k - 1) is None


def test_pairwise_reference_on_networkx_counterexample():
    G = gm.DiGraph(3, frozenset({(1, 2), (2, 3), (3, 1), (3, 2)}))
    assert pairwise_networkx_connectivity(G) == 1
    assert gm.vertex_connectivity(G) == vertex_connectivity_bruteforce(G) == 1


def count_flows(monkeypatch):
    flow, calls = gm.maximum_flow, []

    def counting_flow(*args, **kwargs):
        calls.append(args)
        return flow(*args, **kwargs)

    monkeypatch.setattr(gm, "maximum_flow", counting_flow)
    return calls


# One max-flow per union chunk of the chosen vertex's pairs, with the
# default union size and with room for only three copies per flow.
@pytest.mark.parametrize("seed", range(6))
def test_connectivity_flow_count_is_linear(seed, monkeypatch):
    rng = np.random.default_rng(500 + seed)
    G = dense_digraph(rng, 20)
    k = vertex_connectivity_even(G)
    pairs = len(fewest_pairs(G))
    copy_arcs = G.n + len(G.edges) + 2
    calls = count_flows(monkeypatch)
    for union_arcs in (gm._UNION_ARCS, 3 * copy_arcs):
        monkeypatch.setattr(gm, "_UNION_ARCS", union_arcs)
        calls.clear()
        assert gm.vertex_connectivity(G) == k
        assert len(calls) == -(-pairs // (union_arcs // copy_arcs))


def non_adjacent_pairs(G):
    return [(s, t) for s in G.vertices() for t in G.vertices()
            if s != t and not G.has_edge(s, t)]


@pytest.mark.parametrize("seed", range(10))
def test_local_connectivities_match_single_pair_flows(seed):
    rng = np.random.default_rng(600 + seed)
    G = random_digraph(rng, int(rng.integers(2, 12)))
    pairs = non_adjacent_pairs(G)
    expected = [gm.local_vertex_connectivity(G, s, t)[0] for s, t in pairs]
    assert gm._local_connectivities(G, pairs, G.n).tolist() == expected
    if not pairs:
        return
    # a single pair, a pair repeated, and pairs sharing their source or sink
    picks = [int(rng.integers(len(pairs))) for _ in range(3)]
    p = picks[0]
    assert gm._local_connectivities(G, [pairs[p]], G.n).tolist() == [expected[p]]
    assert gm._local_connectivities(G, [pairs[p]] * 3, G.n).tolist() == [expected[p]] * 3
    for shared in (0, 1):
        chosen = [q for q in range(len(pairs))
                  if pairs[q][shared] == pairs[p][shared]] + picks
        assert gm._local_connectivities(G, [pairs[q] for q in chosen], G.n).tolist() \
            == [expected[q] for q in chosen]


# A capped copy stops at the cap; the least degree caps no connectivity.
@pytest.mark.parametrize("seed", range(5))
def test_capped_local_connectivities(seed):
    rng = np.random.default_rng(900 + seed)
    G = dense_digraph(rng, int(rng.integers(4, 13)))
    pairs = non_adjacent_pairs(G)
    exact = gm._local_connectivities(G, pairs, G.n)
    least_degree = gm._connectivity_pairs(G)[1]
    for cap in (1, 2, least_degree):
        assert gm._local_connectivities(G, pairs, cap).tolist() \
            == np.minimum(exact, cap).tolist()
    assert vertex_connectivity_even(G) <= least_degree


@pytest.mark.parametrize("seed", range(3))
def test_local_connectivities_chunked(seed, monkeypatch):
    rng = np.random.default_rng(700 + seed)
    G = dense_digraph(rng, 12)
    pairs = non_adjacent_pairs(G)
    whole = gm._local_connectivities(G, pairs, G.n)
    k = gm.vertex_connectivity(G)
    # room for three copies of the split network per max-flow
    monkeypatch.setattr(gm, "_UNION_ARCS", 3 * (G.n + len(G.edges) + 2))
    calls = count_flows(monkeypatch)
    assert gm._local_connectivities(G, pairs, G.n).tolist() == whole.tolist()
    assert len(calls) == -(-len(pairs) // 3)
    assert gm.vertex_connectivity(G) == k


def find_vertex_cut_pairwise(G, k):
    """``find_vertex_cut`` on a strongly connected G, one max-flow per pair."""
    if k < 0 or G.n - k < 2:
        return None
    for s, t in non_adjacent_pairs(G):
        value, cut = gm.local_vertex_connectivity(G, s, t)
        if value <= k:
            sink_side = sorted(gm._reachable(G, t, cut, reverse=True))
            source_side = [v for v in G.vertices()
                           if v not in cut and v not in sink_side]
            padded = gm._pad_cut(G, cut, sink_side, source_side, k)
            if padded is not None:
                return padded
    return None


@pytest.mark.parametrize("seed", range(20))
def test_find_vertex_cut_matches_pairwise_scan(seed):
    rng = np.random.default_rng(800 + seed)
    G = random_digraph(rng, int(rng.integers(3, 10)))
    for k in range(-1, G.n + 1):
        assert gm.find_vertex_cut(G, k) == find_vertex_cut_pairwise(G, k)
