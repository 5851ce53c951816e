import numpy as np
import pytest

from netguard import consensus, sysan
from netguard.consensus import Attack, input_matrix, simulate, validate
from netguard.sysan import (Triple, construct_undetectable_attack,
                            first_markov_index, invariant_zeros,
                            is_left_invertible, local_observer_gain,
                            output_zeroing_input, pbh_detectable,
                            pbh_stabilizable, pencil_normal_rank, take_inputs,
                            unidentifiability_witness, zero_dynamics_stability)

from fixtures import (BENCH8_A, RING9_A, RING9_INPUTS, RING9_OBSERVER,
                      UNSTABLE_ZEROS_A, UNSTABLE_ZEROS_INPUTS,
                      UNSTABLE_ZEROS_OBSERVER, directed_cycle,
                      observer_matrix)
from oracles import grid_zero_scan


@pytest.fixture(scope="module")
def bench8():
    return validate(BENCH8_A)


@pytest.fixture(scope="module")
def unstable_triple():
    B = input_matrix(8, UNSTABLE_ZEROS_INPUTS)
    C = observer_matrix(UNSTABLE_ZEROS_A, UNSTABLE_ZEROS_OBSERVER)
    return Triple.from_matrices(UNSTABLE_ZEROS_A, B, C,
                                observer=UNSTABLE_ZEROS_OBSERVER)


@pytest.fixture(scope="module")
def ring9_triple():
    B = input_matrix(9, RING9_INPUTS)
    C = observer_matrix(RING9_A, RING9_OBSERVER)
    return Triple.from_matrices(RING9_A, B, C, observer=RING9_OBSERVER)


def test_triple_rejects_noncanonical_columns():
    with pytest.raises(ValueError):
        Triple.from_matrices(np.eye(3), np.array([[1.0], [1.0], [0.0]]),
                             np.eye(3))


def test_normal_rank_without_inputs(bench8):
    T = Triple.from_network(bench8, (), 1)
    assert pencil_normal_rank(T) == 8
    assert is_left_invertible(T)


def test_normal_rank_unstable_fixture(unstable_triple):
    assert pencil_normal_rank(unstable_triple) == 10
    assert is_left_invertible(unstable_triple)


def test_ring9_not_left_invertible(ring9_triple):
    assert pencil_normal_rank(ring9_triple) < 11
    assert not is_left_invertible(ring9_triple)
    analysis = invariant_zeros(ring9_triple)
    assert analysis.zeros is None


def test_ring9_cancelling_inputs_invisible():
    net = validate(RING9_A)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(30)
    attacks = [Attack.sequence(1, u), Attack.sequence(2, -u)]
    traj = simulate(net, np.zeros(9), attacks, 30)
    ys = net.outputs(traj.states, RING9_OBSERVER)
    assert np.max(np.abs(ys)) < 1e-9


def test_unstable_fixture_zero_set(unstable_triple):
    analysis = invariant_zeros(unstable_triple)
    assert analysis.left_invertible
    values = sorted(w.z.real for w in analysis.zeros)
    # one vanishing zero and one of modulus two (a double zero at -2)
    assert len(values) == 2
    assert abs(values[0] + 2.0) < 1e-8
    assert abs(values[1]) < 1e-8
    for w in analysis.zeros:
        assert w.residual < 1e-8
        assert abs(w.z.imag) < 1e-9


def test_unstable_fixture_zeros_match_grid_scan(unstable_triple):
    hits = grid_zero_scan(unstable_triple.A, unstable_triple.B,
                          unstable_triple.C, radius=3.0, points=61)
    got = sorted(w.z.real for w in invariant_zeros(unstable_triple).zeros)
    assert len(hits) == len(got)
    for h, g in zip(sorted(z.real for z in hits), got):
        assert abs(h - g) < 1e-5


def test_zero_directions_satisfy_equations(unstable_triple):
    T = unstable_triple
    for w in invariant_zeros(T).zeros:
        lhs = (w.z * np.eye(8) - T.A) @ w.x0 + T.B @ w.g
        assert np.linalg.norm(lhs) < 1e-8
        assert np.linalg.norm(T.C @ w.x0) < 1e-8
        assert np.linalg.norm(w.x0) > 0.9


def test_complete_graph_single_intruder_no_zeros():
    A = np.full((5, 5), 0.2)
    net = validate(A)
    T = Triple.from_network(net, (2,), 1)
    analysis = invariant_zeros(T)
    assert analysis.left_invertible and analysis.zeros == ()
    hits = grid_zero_scan(T.A, T.B, T.C, radius=3.0, points=61)
    assert hits == []


@pytest.mark.parametrize("seed", range(8))
def test_single_intruder_always_left_invertible(seed):
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(3, 8))
    net = consensus.random_consensus_matrix(n, rng, extra_edges=n)
    i = int(rng.integers(1, n + 1))
    j = int(rng.integers(1, n + 1))
    assert is_left_invertible(Triple.from_network(net, (i,), j))


def test_pbh_consensus_pairs(bench8):
    for j in range(1, 9):
        assert pbh_detectable(bench8.A, bench8.output_matrix(j))
        assert pbh_stabilizable(bench8.A, input_matrix(8, [j]))


def test_pbh_identity_counterexample():
    assert not pbh_detectable(np.eye(3), np.array([[1.0, 0, 0]]))
    assert not pbh_stabilizable(np.eye(3), np.array([[1.0], [0], [0]]))


@pytest.mark.parametrize("seed", range(6))
def test_pbh_random_consensus(seed):
    rng = np.random.default_rng(700 + seed)
    n = int(rng.integers(3, 8))
    net = consensus.random_consensus_matrix(n, rng, extra_edges=n)
    j = int(rng.integers(1, n + 1))
    assert pbh_detectable(net.A, net.output_matrix(j))
    assert pbh_stabilizable(net.A, input_matrix(n, [j]))


def test_local_observer_gain(bench8):
    for j in (1, 5):
        G = local_observer_gain(bench8, j)
        ej = np.zeros((1, 8))
        ej[0, j - 1] = 1.0
        closed = bench8.A + G @ ej
        assert np.max(np.abs(np.linalg.eigvals(closed))) < 1.0
        # gain touches only the out-neighbors of j
        support = {i + 1 for i in np.nonzero(G[:, 0])[0]}
        out = {i + 1 for i in range(8) if bench8.A[i, j - 1] != 0}
        assert support <= out


def test_local_observer_gain_two_node_chain():
    net = validate(np.array([[0.6, 0.4], [0.5, 0.5]]))
    G = local_observer_gain(net, 1)
    closed = net.A + G @ np.array([[1.0, 0.0]])
    assert np.max(np.abs(np.linalg.eigvals(closed))) < 1.0


def test_zero_dynamics_case3_target_in_neighborhood(bench8):
    rep = zero_dynamics_stability(Triple.from_network(bench8, (2,), 1))
    assert rep.case == "stable_case3"


def test_zero_dynamics_case1_shielded_attackers():
    # observer's neighborhood separates the attacker from the rest
    A = np.array([
        [0.4, 0.3, 0.3, 0.0],
        [0.3, 0.4, 0.0, 0.3],
        [0.3, 0.0, 0.4, 0.3],
        [0.0, 0.3, 0.3, 0.4],
    ])
    net = validate(A)
    T = Triple.from_network(net, (1,), 1)   # N_1 = {1,2,3}; outside = {4}
    rep = zero_dynamics_stability(T)
    assert rep.case == "stable_case1"
    zeros = invariant_zeros(T).zeros
    assert all(abs(w.z) < 1.0 for w in zeros)


def test_zero_dynamics_case2_blocked_return_path():
    # outside agent 4 cannot talk back into the observed set {1, 2}
    A = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.25, 0.25, 0.5, 0.0],
        [0.2, 0.2, 0.3, 0.3],
        [0.3, 0.0, 0.3, 0.4],
    ])
    net = validate(A)
    T = Triple.from_network(net, (3,), 1)   # N_1 = {1,2}; outside = {4}
    rep = zero_dynamics_stability(T)
    assert rep.case == "stable_case2"
    zeros = invariant_zeros(T).zeros
    assert all(abs(w.z) < 1.0 for w in zeros)


def test_zero_dynamics_unknown_reports_moduli(unstable_triple):
    rep = zero_dynamics_stability(unstable_triple)
    assert rep.case == "unknown"
    assert max(rep.moduli) == pytest.approx(2.0, abs=1e-8)


def test_first_markov_index_inside_neighborhood(bench8):
    T = Triple.from_network(bench8, (2,), 1)
    nu, markov = first_markov_index(T)
    assert nu == 0 and np.max(np.abs(markov)) > 0


def test_first_markov_index_ring_distance():
    net = validate(directed_cycle(6))
    # information flows 3 -> 4 -> 5 -> 6 -> 1: distance four to the
    # observer, first response one step earlier at its measured neighbor
    T = Triple.from_network(net, (3,), 1)
    nu, _ = first_markov_index(T)
    assert nu == 3


def test_first_markov_index_benchmark_pair(bench8):
    T = Triple.from_network(bench8, (3, 7), 1)
    nu, markov = first_markov_index(T)
    assert nu <= 8 and np.max(np.abs(markov)) > 0
    with pytest.raises(ValueError):
        first_markov_index(Triple.from_network(bench8, (), 1))


def test_first_markov_index_sees_tiny_parameters():
    # uniform bidirectional ring: C A^26 B is about 4e-13, below an absolute
    # floor of 1e-12, yet nonzero
    n = 54
    A = np.eye(n) + np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)
    net = validate(A / 3)
    nu, markov = first_markov_index(Triple.from_network(net, (28,), 1))
    assert nu == 26 and np.max(markov) > 0


def test_first_markov_index_without_a_walk():
    T = Triple.from_matrices(np.eye(2), [[1], [0]], [[0, 1]])
    with pytest.raises(ValueError):
        first_markov_index(T)


def test_output_zeroing_trivial_from_origin(unstable_triple):
    gen = output_zeroing_input(unstable_triple, np.zeros(8))
    useq = take_inputs(gen, 10)
    assert np.max(np.abs(useq)) == 0.0


def test_output_zeroing_grows_along_unstable_direction(unstable_triple):
    T = unstable_triple
    zero = [w for w in invariant_zeros(T).zeros if abs(w.z + 2.0) < 1e-6][0]
    x0 = np.real(zero.x0)
    useq = take_inputs(output_zeroing_input(T, x0), 30)
    x = x0.copy()
    worst = 0.0
    for t in range(30):
        worst = max(worst, float(np.max(np.abs(T.C @ x))))
        x = T.A @ x + T.B @ useq[t]
    assert worst < 1e-8
    assert np.max(np.abs(x)) > 2.0 ** 25    # grows like modulus 2
    assert np.max(np.abs(useq)) > 1e-3      # input itself does not vanish


def test_output_zeroing_random_nulling_state(unstable_triple):
    from netguard import fdi

    T = unstable_triple
    V = fdi.max_controlled_invariant(T.A, T.B, T.C)
    rng = np.random.default_rng(9)
    x0 = V.basis @ rng.standard_normal(V.dim)
    useq = take_inputs(output_zeroing_input(T, x0), 30)
    x = x0.copy()
    worst = 0.0
    for t in range(30):
        worst = max(worst, float(np.max(np.abs(T.C @ x))) /
                    max(1.0, float(np.max(np.abs(x)))))
        x = T.A @ x + T.B @ useq[t]
    assert worst < 1e-8


def test_output_zeroing_rejects_visible_state(unstable_triple):
    with pytest.raises(ValueError):
        output_zeroing_input(unstable_triple, np.ones(8))


def test_undetectable_attack_from_benchmark_cut(bench8):
    from netguard.graph import find_vertex_cut

    cut = find_vertex_cut(bench8.graph, 3)
    atk = construct_undetectable_attack(bench8, cut.cut, (), 1)
    traj = simulate(bench8, atk.x0, atk.attacks, 50)
    ys = bench8.outputs(traj.states, 1)
    assert np.max(np.abs(ys)) < 1e-8
    assert np.max(np.abs(traj.states)) > 0.1


def test_undetectable_attack_on_directed_ring():
    net = validate(directed_cycle(6))
    atk = construct_undetectable_attack(net, (4,), (2,), 6)
    traj = simulate(net, atk.x0, atk.attacks, 50)
    ys = net.outputs(traj.states, 6)
    assert np.max(np.abs(ys)) < 1e-9
    assert np.max(np.abs(traj.states)) > 0.1


def test_undetectable_attack_rejects_non_cut():
    A = np.full((4, 4), 0.25)
    net = validate(A)
    with pytest.raises(ValueError, match="not a cut"):
        construct_undetectable_attack(net, (2,), (), 1)


def test_witness_for_symmetric_pairs(bench8):
    w = unidentifiability_witness(bench8, (2, 4), (6, 8), 1, horizon=40)
    assert w is not None
    atks1 = [Attack.sequence(a, w.inputs_1[:, k]) for k, a in enumerate(w.K1)]
    atks2 = [Attack.sequence(a, w.inputs_2[:, k]) for k, a in enumerate(w.K2)]
    y1 = bench8.outputs(simulate(bench8, w.x0, atks1, 40).states, 1)
    y2 = bench8.outputs(simulate(bench8, np.zeros(8), atks2, 40).states, 1)
    assert np.max(np.abs(y1 - y2)) < 1e-7
    assert np.max(np.abs(y1)) > 1e-3      # the shared output is not silent


def test_witness_rejects_equal_sets(bench8):
    with pytest.raises(ValueError):
        unidentifiability_witness(bench8, (2, 4), (4, 2), 1)


def test_no_witness_for_well_connected_singletons(bench8):
    assert unidentifiability_witness(bench8, (3,), (7,), 1) is None
