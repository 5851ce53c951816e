"""Tests of the benchmark's own parts: checkers, scenarios and the tracer.

Each checker must accept a right output and reject a deliberately wrong
one.  Run with ``python -m pytest perfbench``.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import checks
import scenarios

SRC = Path(__file__).resolve().parent.parent / "src"


def _scenario(workload, name_part, seed=3):
    return next(sc for sc in scenarios.make_scenarios(workload, seed)
                if name_part in sc["name"])


# -- scenarios ------------------------------------------------------------------


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_same_seed_same_scenarios(workload):
    def dump(seed):
        return json.dumps([sc["doc"] for sc in scenarios.make_scenarios(workload, seed)])

    assert dump(11) == dump(11)
    assert dump(11) != dump(12)
    names = [sc["name"] for sc in scenarios.make_scenarios(workload, 11)]
    assert len(set(names)) == len(names)


def _role_graph(sc):
    """Unweighted digraph of a scenario, agents marked by their role."""
    import networkx as nx

    A = np.array(sc["doc"]["matrix"]["rows"])
    G = nx.from_numpy_array(((A != 0) & ~np.eye(len(A), dtype=bool)).astype(int),
                            create_using=nx.DiGraph)
    for a in G:
        G.nodes[a]["role"] = (a + 1 in sc["doc"].get("observers", [sc["doc"].get("observer")]),
                              tuple(sorted(i for i, K in enumerate(sc["doc"].get("sets", []))
                                           if a + 1 in K)))
    return G


@pytest.mark.parametrize("workload", ["analyze", "local-identify"])
def test_slot_shapes_do_not_depend_on_seed(workload):
    import networkx as nx

    match = nx.algorithms.isomorphism.categorical_node_match("role", None)
    for sa, sb in zip(scenarios.make_scenarios(workload, 1)[:4],
                      scenarios.make_scenarios(workload, 2)[:4]):
        assert sa["doc"] != sb["doc"]
        assert nx.is_isomorphic(_role_graph(sa), _role_graph(sb), node_match=match)
        if workload == "local-identify":
            assert sa["expect"]["attacked"] == sb["expect"]["attacked"]
            assert sa["doc"]["observer"] == sb["doc"]["observer"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_identify_networks_are_2k_plus_1_connected(seed):
    for sc in scenarios.make_scenarios("identify", seed):
        A = np.array(sc["doc"]["matrix"]["rows"])
        assert np.allclose(A.sum(axis=1), 1.0) and A.min() >= 0
        assert checks.node_connectivity(A) >= 2 * sc["doc"]["k"] + 1
        assert len(sc["expect"]["attacked"]) <= sc["doc"]["k"]
        assert sc["doc"]["observer"] not in sc["expect"]["attacked"]


@pytest.mark.parametrize("sizes", [(4, 5), (5, 3, 4), (3, 6, 3)])
def test_block_network_coupling_is_exact(sizes):
    A, partition = scenarios.block_network(sizes, 0.2, np.random.default_rng(5))
    assert np.allclose(A.sum(axis=1), 1.0) and A.min() >= 0
    label = {a: h for h, block in enumerate(partition) for a in block}
    cross = [sum(A[r - 1, c - 1] for c in label if label[c] != label[r])
             for r in label]
    assert max(cross) == pytest.approx(0.2, rel=1e-12)


def test_local_inputs_stay_in_band():
    for sc in scenarios.make_scenarios("local-identify", 4):
        cal = sc["doc"]["calibration"]
        for spec in sc["doc"]["attacks"]:
            assert checks._in_band(spec, cal["u_min"], cal["u_max"])


# -- identify -------------------------------------------------------------------


def test_identify_checker():
    sc = _scenario("identify", "k2-2x")
    right = {"status": "identified", "identified": list(sc["expect"]["attacked"])}
    assert checks.check_identify(sc, 0, right) is None
    wrong_set = dict(right, identified=right["identified"][:1])
    assert checks.check_identify(sc, 0, wrong_set)
    assert checks.check_identify(sc, 3, dict(right, status="ambiguous"))
    assert checks.check_identify(sc, 3, right)


# -- analyze --------------------------------------------------------------------


def _ring(n):
    A = np.zeros((n, n))
    for i in range(n):
        A[i, [i, (i - 1) % n, (i + 1) % n]] = [0.5, 0.25, 0.25]
    return A


def _square_pencil_zeros(A, K, C):
    """Finite generalized eigenvalues of a square pencil (len(K) == rows of C)."""
    n, m = A.shape[0], len(K)
    N = np.zeros((n + m, n + m))
    N[:n, :n] = A
    for col, a in enumerate(K):
        N[a - 1, n + col] = 1.0
    N[n:, :n] = -C
    M = np.zeros_like(N)
    M[:n, :n] = np.eye(n)
    w = scipy.linalg.eigvals(N, M)
    return [complex(z) for z in w if np.isfinite(z)]


def _analyze_case():
    A = _ring(7)
    observer = 1
    C = checks.output_matrix(A, observer)
    K = [1, 3, 6]   # square, left-invertible pencil with zeros 0.25 and 0.75
    zeros = _square_pencil_zeros(A, K, C)
    assert zeros
    n = A.shape[0]
    rank = checks.pencil_rank(checks.pencil(A, K, C, 2.0 + 0.5j))
    sc = {"expect": {"matrix": A, "sets": [K], "observers": [observer]}}
    report = {
        "connectivity": 2, "max_generic_faulty": 1, "max_generic_malicious": 0,
        "pairs": [{"set": K, "observer": observer, "normal_rank": rank,
                   "left_invertible": rank == n + len(K),
                   "zeros": [{"re": z.real, "im": z.imag} for z in zeros]}],
    }
    return sc, report


def test_node_connectivity_of_ring_and_circulant():
    assert checks.node_connectivity(_ring(7)) == 2
    A, _ = scenarios.circulant_network(11, 2, np.random.default_rng(0))
    assert checks.node_connectivity(A) == 4


def test_analyze_checker_accepts_right_report():
    sc, report = _analyze_case()
    assert checks.check_analyze(sc, 0, report, 2) is None


def test_analyze_checker_rejects_connectivity_off_by_one():
    sc, report = _analyze_case()
    assert checks.check_analyze(sc, 0, dict(report, connectivity=3), 2)
    assert checks.check_analyze(sc, 0, dict(report, max_generic_faulty=2), 2)
    assert checks.check_analyze(sc, 0, dict(report, max_generic_malicious=1), 2)


def test_analyze_checker_rejects_false_zero_and_rank():
    sc, report = _analyze_case()
    pair = report["pairs"][0]
    bogus = dict(pair, zeros=pair["zeros"] + [{"re": 0.123, "im": 0.0}])
    assert checks.check_analyze(sc, 0, dict(report, pairs=[bogus]), 2)
    flipped = dict(pair, left_invertible=not pair["left_invertible"])
    assert checks.check_analyze(sc, 0, dict(report, pairs=[flipped]), 2)
    off = dict(pair, normal_rank=pair["normal_rank"] - 1)
    assert checks.check_analyze(sc, 0, dict(report, pairs=[off]), 2)


# -- local-identify -------------------------------------------------------------


def test_local_checker_below_crossing():
    sc = _scenario("local-identify", "4x5-below")
    eps = sc["expect"]["epsilon"]
    attacked = sc["expect"]["attacked"]
    right = {"status": "identified", "identified": attacked, "epsilon": eps}
    assert checks.check_local(sc, 0, right) is None
    block = sc["doc"]["partition"][0]
    other = [a for a in block if a not in attacked and a != sc["doc"]["observer"]]
    assert checks.check_local(sc, 0, dict(right, identified=other[:1]))
    assert checks.check_local(sc, 0, dict(right, identified=[]))
    assert checks.check_local(sc, 4, right)
    assert checks.check_local(sc, 0, dict(right, epsilon=2 * eps))


def test_local_checker_above_crossing():
    sc = _scenario("local-identify", "7x4-above")
    eps = sc["expect"]["epsilon"]
    right = {"status": "calibration_failure", "epsilon": eps,
             "epsilon_star": eps / 3}
    assert checks.check_local(sc, 4, right) is None
    assert checks.check_local(sc, 4, dict(right, epsilon_star=2 * eps))
    assert checks.check_local(sc, 0, dict(right, status="identified"))


# -- monitor --------------------------------------------------------------------


def test_final_state_matches_closed_form():
    sc = _scenario("monitor", "simulate-n15")
    exp = dict(sc["expect"], horizon=40)
    A = exp["matrix"]
    T = exp["horizon"]
    closed = np.linalg.matrix_power(A, T) @ exp["x0"]
    for agent, u in exp["inputs"].items():
        for s in range(T):
            closed += np.linalg.matrix_power(A, T - 1 - s)[:, agent - 1] * u[s]
    assert np.allclose(checks.final_state(exp), closed, rtol=1e-12, atol=1e-12)


def test_simulate_checker_rejects_perturbed_final_state():
    sc = _scenario("monitor", "simulate-n15")
    ref = checks.final_state(sc["expect"])
    lines = sc["expect"]["horizon"] + 2
    assert checks.check_simulate(sc, 0, {"final_state": ref.tolist()}, ref, lines) is None
    moved = ref.copy()
    moved[0] += 1e-6
    assert checks.check_simulate(sc, 0, {"final_state": moved.tolist()}, ref, lines)
    assert checks.check_simulate(sc, 0, {"final_state": ref.tolist()}, ref, lines - 1)


def test_detect_checker_rejects_flagged_decaying_attack():
    sc = _scenario("monitor", "detect-n15-T9000-exponential")
    lines = sc["expect"]["horizon"] + 1
    assert checks.check_detect(sc, 0, {"misbehavior_detected": False}, lines) is None
    assert checks.check_detect(sc, 0, {"misbehavior_detected": True}, lines)
    persistent = _scenario("monitor", "detect-n15-T12000-constant")
    lines = persistent["expect"]["horizon"] + 1
    assert checks.check_detect(persistent, 0, {"misbehavior_detected": True}, lines) is None
    assert checks.check_detect(persistent, 0, {"misbehavior_detected": False}, lines)


# -- tracer ---------------------------------------------------------------------


def test_tracer_counts_and_restores():
    sys.path.insert(0, str(SRC))
    import layers
    import netguard
    from netguard import consensus, fdi, graph, numerics

    original_image, original_sim = numerics.image, consensus.simulate
    tracer = layers.LayerTracer().install()
    try:
        assert fdi.image is numerics.image is not original_image
        net = consensus.validate(_ring(5))
        fdi.unobservability_subspace(net.A, np.eye(5)[:, :1], net.output_matrix(1))
        netguard.simulate(net, np.ones(5), (), 7)
        t0 = time.perf_counter()
        graph.resilience_bounds(net.graph)
        elapsed = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert numerics.image is original_image and fdi.image is original_image
    assert consensus.simulate is original_sim
    assert tracer.calls[("fdi", "max_controlled_invariant")] == 1
    assert tracer.calls[("numerics", "image")] > 0
    assert tracer.steps == 7
    metrics = tracer.metrics(1, 1.0)
    assert metrics["fdi.fixpoint_calls"][0] == 2
    assert metrics["numerics.s"][0] > 0
    # timed although resilience_bounds is the outermost graph call
    assert 0 < metrics["graph.vertex_connectivity_s"][0] <= elapsed
    assert metrics["graph.vertex_connectivity_calls"][0] == 1
