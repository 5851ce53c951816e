import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from netguard import consensus, fdi, graph, numerics, sysan
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
from oracles import grid_zero_scan, pencil_svd_zeros


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
    # one vanishing zero and one of modulus two (a double zero at -2, where
    # eig returns two near-parallel eigenvectors and one zero is kept)
    assert len(values) == 2
    assert abs(values[0] + 2.0) < 1e-8
    assert abs(values[1]) < 1e-8
    for w in analysis.zeros:
        assert w.residual < 1e-8
        assert abs(w.z.imag) < 1e-9
    assert_zeros_match_pencil_svd(unstable_triple)


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


def test_near_null_vector_with_small_state_part_is_no_zero(unstable_triple):
    # with A scaled by 100 the zero at -200 has an input direction about
    # 235 times its state direction; a near null vector off it by 1e-8
    # keeps a residual of 1e-8 ||P|| but leaves about 2e-6 ||P|| once its
    # state part is scaled to one
    T = Triple.from_matrices(100 * unstable_triple.A, unstable_triple.B,
                             unstable_triple.C)
    zero = [w for w in invariant_zeros(T).zeros if abs(w.z + 200) < 1e-4][0]
    P = sysan.pencil(T, zero.z)
    exact = np.concatenate([zero.x0, zero.g])
    exact /= np.linalg.norm(exact)
    assert np.linalg.norm(exact[:8]) < 1e-2
    off = np.zeros(exact.shape)
    off[0] = np.linalg.norm(P) / np.linalg.norm(P[:, 0])
    near = exact + 1e-8 * off
    assert np.linalg.norm(P @ near) <= 1e-7 * np.linalg.norm(P)
    assert sysan._verify_zero_direction(T.n, zero.z, P, exact)
    assert sysan._verify_zero_direction(T.n, zero.z, P, near) is None


def test_complete_graph_single_intruder_no_zeros():
    A = np.full((5, 5), 0.2)
    net = validate(A)
    T = Triple.from_network(net, (2,), 1)
    analysis = invariant_zeros(T)
    assert analysis.left_invertible and analysis.zeros == ()
    hits = grid_zero_scan(T.A, T.B, T.C, radius=3.0, points=61)
    assert hits == []


@pytest.mark.parametrize("j", [1, 2])
def test_bench8_far_pair_has_no_zeros(bench8, j):
    # V* is zero, so there are no zero dynamics; at moduli of 1e4 and more
    # (zI - A) swamps the pencil's relative rank tolerance, so a rank drop
    # alone would pass spurious zeros there
    T = Triple.from_network(bench8, (3, 7), j)
    analysis = invariant_zeros(T)
    assert analysis.left_invertible and analysis.zeros == ()


def test_left_invertible_where_the_pencil_is_badly_scaled():
    # at |z| = 2.7 the pencil's sigma_min / sigma_max is 5.2e-10, below
    # the rank tolerance, though the triple is left-invertible: two
    # disjoint paths join K to the three measured agents
    net = consensus.random_consensus_matrix(40, np.random.default_rng(6),
                                            extra_edges=40)
    T = Triple.from_network(net, (10, 20), 1)
    assert graph.disjoint_path_count(net.graph, T.agents, T.measured) == 2
    analysis = invariant_zeros(T)
    assert analysis.normal_rank == 42 and analysis.left_invertible
    assert pencil_normal_rank(T) == 42 and is_left_invertible(T)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(5, 30))
def test_pencil_properties_on_random_networks(data, n):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=data.draw(st.integers(0, 2 * n), label="extra"))
    j = data.draw(st.integers(1, n), label="observer")
    K = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=3,
                           unique=True), label="K")
    T = Triple.from_network(net, K, j)
    analysis = invariant_zeros(T)
    assert_zeros_match_pencil_svd(T)
    # the generic rank is n plus the maximal linking from K to the outputs
    linking = graph.disjoint_path_count(net.graph, T.agents, T.measured)
    assert analysis.normal_rank <= n + linking
    for w in analysis.zeros or ():
        assert w.residual <= 1e-8
    if set(T.agents) <= set(T.measured):
        assert analysis.left_invertible


def assert_same_analysis(got, want):
    """Two pencil analyses agree bit for bit."""
    assert got.normal_rank == want.normal_rank
    assert got.left_invertible == want.left_invertible
    assert (got.zeros is None) == (want.zeros is None)
    assert len(got.zeros or ()) == len(want.zeros or ())
    for a, b in zip(got.zeros or (), want.zeros or ()):
        assert a.z == b.z and a.residual == b.residual
        assert np.array_equal(a.x0, b.x0) and np.array_equal(a.g, b.g)


def assert_bank_matches_pairs(net, j, sets):
    analyses = sysan._pencil_analyses(
        net.A, [input_matrix(net.n, K) for K in sets], net.output_matrix(j))
    assert len(analyses) == len(sets)
    for K, got in zip(sets, analyses):
        assert_same_analysis(got, invariant_zeros(Triple.from_network(net, K, j)))
    return analyses


# The sets of one observer share one stacked V*, and each member is bit for
# bit the analysis of its own triple.
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(5, 30))
def test_pencil_bank_matches_each_triple(data, n):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=data.draw(st.integers(0, 2 * n), label="extra"))
    j = data.draw(st.integers(1, n), label="observer")
    sets = data.draw(st.lists(st.lists(st.integers(1, n), min_size=1,
                                       max_size=3, unique=True).map(sorted),
                              min_size=2, max_size=6), label="sets")
    assert_bank_matches_pairs(net, j, sets)


# Three triples whose V* is nonzero near the rank tolerance: V* of
# dimension 3 with three zeros, and of dimensions 18 and 4 where the
# triple is not left-invertible.  The zeros are the pencil SVD search's.
@pytest.mark.parametrize("n, seed, extra, K, j, left_invertible", [
    (34, 5, 3, [17, 21], 24, True),
    (34, 20, 21, [11, 13, 28], 7, False),
    (39, 172, 0, [19, 22, 24], 31, False)])
def test_pencil_bank_matches_each_triple_near_the_tolerance(
        n, seed, extra, K, j, left_invertible):
    net = consensus.random_consensus_matrix(n, np.random.default_rng(seed),
                                            extra_edges=extra)
    sets = [K, K[:1], K[1:], [j]]
    assert sysan._zero_dynamics(Triple.from_network(net, K, j))[0].dim
    first = assert_bank_matches_pairs(net, j, sets)[0]
    assert first.left_invertible == left_invertible
    assert len(first.zeros or ()) == (3 if left_invertible else 0)
    assert_zeros_match_pencil_svd(Triple.from_network(net, K, j))


def assert_zeros_match_pencil_svd(T):
    """The eigenpair zeros of ``T`` are the pencil SVD search's, and every
    direction satisfies the pencil."""
    got, want = invariant_zeros(T).zeros, pencil_svd_zeros(T)
    assert (got is None) == (want is None)
    assert len(got or ()) == len(want or ())
    for a, b in zip(got or (), want or ()):
        assert abs(a.z - b.z) <= 1e-9 * max(1.0, abs(b.z))
        direction = np.concatenate([a.x0, a.g])
        assert np.linalg.norm(sysan.pencil(T, a.z) @ direction) <= 1e-8


def test_zeros_take_no_svd_of_the_pencil(unstable_triple, monkeypatch):
    # V*'s input count d still takes the rank of [V*, B], an n-row matrix;
    # the pencil has n + p rows
    T = unstable_triple
    seen = []
    for name in ("rank", "kernel"):
        def spy(M, _f=getattr(numerics, name), _name=name):
            seen.append((_name, np.shape(M)))
            return _f(M)
        monkeypatch.setattr(numerics, name, spy)
    assert len(invariant_zeros(T).zeros) == 2
    assert not [call for call in seen if call[0] == "kernel"
                or call[1][0] == T.n + T.p]


# A bank larger than one stack runs in slices of numerics._stack_size(n, n)
# members, each slice one V* fixpoint.
def test_pencil_bank_runs_in_stack_slices(bench8, monkeypatch):
    monkeypatch.setattr(numerics, "_STACK_ENTRIES", 2 * 8 * 8)
    fixpoint, calls = fdi._controlled_invariants, []

    def counting(A, Bs, C):
        calls.append(len(Bs))
        return fixpoint(A, Bs, C)

    monkeypatch.setattr(fdi, "_controlled_invariants", counting)
    sets = [[2], [3, 7], [4, 5], [6], [2, 8]]
    assert_bank_matches_pairs(bench8, 1, sets)
    # the three slices, then one triple at a time
    assert calls == [2, 2, 1] + [1] * len(sets)


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


def test_first_markov_index_reads_the_support():
    # agent 3's only out-weight, 1e-13, is no arc of the support digraph
    # (validate calls the matrix reducible), so no walk reaches observer 1
    A = [[0.5, 0.5, 0.0], [0.5, 0.5 - 1e-13, 1e-13], [0.3, 0.3, 0.4]]
    C = consensus._output_matrix(np.array(A), 1)
    T = Triple.from_matrices(A, consensus.input_matrix(3, [3]), C)
    with pytest.raises(ValueError, match="no walk"):
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
    for t in range(30):
        # relative to the state, which grows like 2^t: an absolute bound
        # would depend on the rounding of V*'s basis
        assert (np.max(np.abs(T.C @ x))
                <= 1e-12 * max(1.0, float(np.max(np.abs(x))))), t
        x = T.A @ x + T.B @ useq[t]
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


def _zeroed_outputs(T, x0, steps):
    """States and outputs of ``x0`` driven by its output-zeroing input."""
    useq = take_inputs(output_zeroing_input(T, x0), steps)
    states = [x0]
    for u in useq:
        states.append(T.A @ states[-1] + T.B @ u)
    states = np.array(states)
    return states, states @ T.C.T


@pytest.fixture(scope="module")
def v_star_sweep():
    """Seeds 0-39: n 6-12, observer 1, one to three inputs among agents
    2..n, and one state drawn in V* wherever V* is nonzero."""
    sweep = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 13))
        net = consensus.random_consensus_matrix(
            n, rng, extra_edges=int(rng.integers(0, n)))
        K = rng.choice(np.arange(2, n + 1), int(rng.integers(1, 4)),
                       replace=False)
        T = Triple.from_network(net, K.tolist(), 1)
        V = sysan._zero_dynamics(T)[0]
        if V.dim:
            sweep.append((seed, T, V.basis @ rng.standard_normal(V.dim)))
    return sweep


# Every state of V* is output-nulled, at every scale: left-invertible or
# not, whatever the inputs' relative degrees.
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_output_zeroing_accepts_every_state_of_v_star(v_star_sweep, scale):
    assert len(v_star_sweep) == 25
    for seed, T, x in v_star_sweep:
        states, ys = _zeroed_outputs(T, scale * x, 3 * T.n)
        assert np.max(np.abs(ys)) <= 1e-12 * np.max(np.abs(states)), seed


def test_output_zeroing_with_unequal_relative_degrees():
    # inputs 6 and 7 first reach the measured agents {1, 2, 11} after 3
    # and 4 steps, so C A^3 B has rank one though the triple is
    # left-invertible; its one zero z moves x0 along z^t x0
    rng = np.random.default_rng(2)
    n = int(rng.integers(6, 13))
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=int(rng.integers(0, n)))
    T = Triple.from_network(net, (6, 7), 1)
    assert [first_markov_index(Triple.from_network(net, (a,), 1))[0]
            for a in T.agents] == [3, 4]
    assert is_left_invertible(T)
    (zero,) = invariant_zeros(T).zeros
    x0 = np.real(zero.x0)
    states, ys = _zeroed_outputs(T, x0, 3 * n)
    assert np.max(np.abs(ys)) <= 1e-12 * np.max(np.abs(states))
    motion = np.real(zero.z) ** np.arange(3 * n + 1)[:, None] * x0
    assert np.max(np.abs(states - motion)) <= 1e-12


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


# A vertex cut of size kappa hides the side it separates from an observer
# behind it, even with one more attacker acting there.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(6, 25))
def test_vertex_cut_gives_an_undetectable_attack(data, n):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=int(rng.integers(0, 2 * n)))
    cut = graph.find_vertex_cut(net.graph, graph.vertex_connectivity(net.graph))
    j = data.draw(st.sampled_from(cut.sink_side), label="observer")
    extra = data.draw(st.sampled_from(cut.source_side), label="extra")
    atk = construct_undetectable_attack(net, cut.cut, (extra,), j)
    states = simulate(net, atk.x0, atk.attacks, 3 * n).states
    assert np.max(np.ptp(states, axis=0)) > 0.1
    assert (np.max(np.abs(net.outputs(states, j)))
            <= 1e-8 * np.max(np.abs(states)))


def test_undetectable_attack_rejects_non_cut():
    A = np.full((4, 4), 0.25)
    net = validate(A)
    with pytest.raises(ValueError, match="not a cut"):
        construct_undetectable_attack(net, (2,), (), 1)


def _attributed_outputs(net, w, j):
    """Outputs at ``j`` of both attributions of witness ``w``, simulated
    here: ``K1`` with ``inputs_1`` from ``x0``, ``K2`` with ``inputs_2``
    from the zero state."""
    y1 = net.outputs(simulate(net, w.x0, [
        Attack.sequence(a, w.inputs_1[:, c]) for c, a in enumerate(w.K1)],
        w.horizon).states, j)
    y2 = net.outputs(simulate(net, np.zeros(net.n), [
        Attack.sequence(a, w.inputs_2[:, c]) for c, a in enumerate(w.K2)],
        w.horizon).states, j)
    return y1, y2


def test_witness_for_symmetric_pairs(bench8):
    w = unidentifiability_witness(bench8, (2, 4), (6, 8), 1, horizon=40)
    assert w is not None
    y1, y2 = _attributed_outputs(bench8, w, 1)
    assert np.max(np.abs(y1 - y2)) < 1e-7
    assert np.max(np.abs(y1)) > 1e-3      # the shared output is not silent


def test_witness_survives_unstable_invisible_motion():
    # the 2-cut {2, 19}: the invisible motion has spectral radius 3.8; a
    # motion stepped with the whole friend map picks that mode up from
    # rounding and reaches 1e30, one started and stepped in its stable
    # part stays bounded
    rng = np.random.default_rng(66)
    n = int(rng.integers(7, 20))
    net = consensus.random_consensus_matrix(n, rng,
                                            extra_edges=int(rng.integers(0, n)))
    assert graph.find_vertex_cut(net.graph, 2).cut == (2, 19)
    w = unidentifiability_witness(net, (2,), (19,), 3, horizon=3 * n)
    assert w is not None
    y1, y2 = _attributed_outputs(net, w, 3)
    assert np.max(np.abs(y1 - y2)) < 1e-7 * np.max(np.abs(y1))
    assert np.max(np.abs(y1[:n])) > 1e-3
    assert max(np.max(np.abs(w.x0)), np.max(np.abs(w.inputs_1)),
               np.max(np.abs(w.inputs_2))) < 10


# A vertex cut of size 2k split into two k-sets: attacks on either set can
# produce the same observations on the sink side.  The witness is bounded
# whenever the friend map of the joint zero dynamics has eigenvalues in
# the closed unit disc.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(1, 2), n=st.integers(6, 25))
def test_cut_of_size_2k_gives_a_witness(data, k, n):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=data.draw(st.integers(0, k * n * n // 4),
                                      label="extra"))
    cut = graph.find_vertex_cut(net.graph, 2 * k)
    assume(cut is not None)
    split = data.draw(st.permutations(cut.cut), label="split")
    K1, K2 = sorted(split[:k]), sorted(split[k:])
    j = data.draw(st.sampled_from(cut.sink_side), label="observer")
    w = unidentifiability_witness(net, K1, K2, j, horizon=3 * n)
    assert w is not None
    y1, y2 = _attributed_outputs(net, w, j)
    assert np.max(np.abs(y1 - y2)) <= 1e-7 * max(1.0, np.max(np.abs(y1)))
    B = input_matrix(n, K1 + K2)
    V, _ = sysan._zero_dynamics(Triple.from_matrices(net.A, B,
                                                     net.output_matrix(j)))
    X = sysan._friend_realization(net.A, B, V.basis)[0]
    if V.dim and np.min(np.abs(np.linalg.eigvals(X))) <= 1:
        assert max(np.max(np.abs(w.x0)), np.max(np.abs(w.inputs_1)),
                   np.max(np.abs(w.inputs_2))) < 10


def test_witness_for_overlapping_sets_at_the_default_horizon():
    # no invisible state motion; an input on the shared agent 6 is
    # attributed to either set, from the zero state, at any horizon
    net = consensus.random_consensus_matrix(6, np.random.default_rng(0),
                                            extra_edges=3)
    w = unidentifiability_witness(net, (2, 6), (1, 6), 2)
    assert w is not None and w.horizon == 50
    assert np.array_equal(w.x0, np.zeros(6))
    y1, y2 = _attributed_outputs(net, w, 2)
    assert np.max(np.abs(y1 - y2)) <= 1e-12 * np.max(np.abs(y1))
    assert np.max(np.abs(y1)) > 1e-3


# Sets sharing an agent are never told apart: some witness exists at
# every horizon, also past 2n + 2 steps.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(6, 14))
def test_overlapping_sets_always_have_a_witness(data, n):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=data.draw(st.integers(0, n), label="extra"))
    agents = st.integers(1, n)
    shared = data.draw(agents, label="shared")
    K1 = {shared} | data.draw(st.sets(agents, max_size=1), label="K1")
    K2 = {shared} | data.draw(st.sets(agents, max_size=1), label="K2")
    assume(K1 != K2)
    j = data.draw(agents, label="observer")
    horizon = data.draw(st.integers(2 * n + 3, 3 * n), label="horizon")
    w = unidentifiability_witness(net, K1, K2, j, horizon=horizon)
    assert w is not None
    y1, y2 = _attributed_outputs(net, w, j)
    assert np.max(np.abs(y1 - y2)) <= 1e-7 * max(1.0, np.max(np.abs(y1)))


def test_witness_rejects_equal_sets(bench8):
    with pytest.raises(ValueError):
        unidentifiability_witness(bench8, (2, 4), (4, 2), 1)


def test_no_witness_for_well_connected_singletons(bench8):
    assert unidentifiability_witness(bench8, (3,), (7,), 1) is None
