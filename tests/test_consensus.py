import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from netguard import consensus
from netguard.consensus import (Attack, ConsensusError, attack_effect_constant,
                                consensus_value, exponential_input_bound,
                                principal_submatrix_spectral_radius,
                                random_consensus_matrix, simulate,
                                stubborn_agent_gain,
                                unobservable_offset_is_neutral, validate)

from fixtures import BENCH8_A, SYMMETRIC4_A, directed_cycle
from oracles import (observability_kernel, simulate_reference,
                     wielandt_primitive)


@pytest.fixture(scope="module")
def bench8():
    return validate(BENCH8_A)


def test_validate_accepts_benchmark(bench8):
    assert bench8.n == 8
    assert np.max(np.abs(bench8.pi @ bench8.A - bench8.pi)) < 1e-12


def test_validate_rejects_identity():
    with pytest.raises(ConsensusError, match="reducible"):
        validate(np.eye(3))


def test_validate_rejects_periodic_swap():
    with pytest.raises(ConsensusError, match="imprimitive"):
        validate(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_validate_rejects_negative_entry():
    A = np.array([[1.2, -0.2], [0.5, 0.5]])
    with pytest.raises(ConsensusError, match="negative entry"):
        validate(A)


def test_validate_names_bad_row():
    A = BENCH8_A.copy()
    A[4, 4] += 1e-3
    with pytest.raises(ConsensusError, match="row 5"):
        validate(A)


def test_validate_rejects_nonsquare():
    with pytest.raises(ConsensusError, match="square"):
        validate(np.ones((2, 3)) / 3)


# Arcs run only from class c to class c + 1 (mod p) of a random p-class
# split, so imprimitive patterns of every period up to n are drawn.
@st.composite
def patterns(draw):
    n = draw(st.integers(1, 9))
    p = draw(st.integers(1, n))
    cls = np.array(draw(st.lists(st.integers(0, p - 1), min_size=n,
                                 max_size=n)))
    bits = np.array(draw(st.lists(st.booleans(), min_size=n * n,
                                  max_size=n * n))).reshape(n, n)
    S = bits & (cls[None, :] == (cls[:, None] + 1) % p)
    loops = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if draw(st.booleans()):
        S |= np.diag(loops)
    else:
        np.fill_diagonal(S, False)
    return S


@settings(max_examples=300, deadline=None)
@given(patterns())
def test_primitive_check_equals_the_wielandt_oracle(S):
    rows = consensus._checks(S.astype(float))
    checked = {name: passed for name, passed, _ in rows}
    primitive = checked["irreducible"] and checked["primitive"]
    event(f"primitive {primitive}")
    assert primitive == wielandt_primitive(S)
    assert ("primitive" in checked) == checked["irreducible"]


def test_simulate_zero_everything(bench8):
    traj = simulate(bench8, np.zeros(8), (), 10)
    assert np.all(traj.states == 0.0)


def test_simulate_convergence_to_weighted_mean(bench8):
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-2, 2, 8)
    traj = simulate(bench8, x0, (), 200)
    target = consensus_value(bench8, x0)
    assert np.max(np.abs(traj.states[-1] - target)) < 1e-8


def test_simulate_convergence_rate(bench8):
    # deviation decays like the second eigenvalue modulus
    eigs = np.sort(np.abs(np.linalg.eigvals(bench8.A)))
    rho2 = eigs[-2]
    rng = np.random.default_rng(2)
    x0 = rng.uniform(-1, 1, 8)
    traj = simulate(bench8, x0, (), 120)
    target = consensus_value(bench8, x0)
    scale = max(np.max(np.abs(traj.states[t] - target)) / rho2 ** t
                for t in range(30, 51))
    for t in (60, 80, 100):
        dev = np.max(np.abs(traj.states[t] - target))
        assert dev <= max(10 * scale * rho2 ** t, 1e-14)


def test_simulate_recursion_exact(bench8):
    rng = np.random.default_rng(3)
    attacks = [Attack.constant(3, 0.7), Attack.exponential(5, 0.9, 1.0),
               Attack.sequence(7, rng.uniform(-1, 1, 30))]
    traj = simulate(bench8, rng.uniform(-1, 1, 8), attacks, 30)
    B = consensus.input_matrix(8, traj.input_agents)
    for t in range(30):
        predicted = bench8.A @ traj.states[t] + B @ traj.inputs[t]
        assert np.max(np.abs(traj.states[t + 1] - predicted)) == 0.0


_SEQ = np.random.default_rng(5).uniform(-1, 1, 60)


@pytest.mark.parametrize("attacks", [
    [Attack.constant(3, 0.7)],
    [Attack.exponential(5, -0.9, 1.3)],
    [Attack.state_feedback(3, -BENCH8_A[2], offset=2.5)],
    [Attack.sequence(7, _SEQ)],
    [Attack.initial_offset(2, 1.5)],
    [Attack.sequence(7, _SEQ[:17])],
    [Attack.constant(4, 0.3), Attack.exponential(4, 0.8, 0.6),
     Attack.sequence(4, _SEQ[:25])],
    [Attack.state_feedback(2, BENCH8_A[5], offset=-0.4),
     Attack.exponential(6, 0.95, 1.0), Attack.constant(8, -0.2)],
    [Attack.constant(2, 0.1), Attack.state_feedback(2, BENCH8_A[0]),
     Attack.sequence(2, _SEQ), Attack.initial_offset(2, -1.0),
     Attack.initial_offset(5, 0.25)],
], ids=["constant", "exponential", "state_feedback", "sequence",
        "initial_offset", "short_sequence", "three_on_one_agent",
        "feedback_and_open_loop", "feedback_mixed_on_one_agent"])
def test_simulate_matches_step_loop(bench8, attacks):
    x0 = np.random.default_rng(6).uniform(-1, 1, 8)
    got = simulate(bench8, x0, attacks, 40)
    want = simulate_reference(bench8, x0, attacks, 40)
    assert got.input_agents == want.input_agents
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.inputs, want.inputs)


def test_stubborn_agent_steers_network(bench8):
    c = 2.5
    row = -bench8.A[2]
    traj = simulate(bench8, np.random.default_rng(4).uniform(-1, 1, 8),
                    [Attack.state_feedback(3, row, offset=c)], 300)
    assert np.max(np.abs(traj.states[-1] - c)) < 1e-8


def test_initial_offset_applies_once(bench8):
    traj = simulate(bench8, np.zeros(8), [Attack.initial_offset(2, 1.0)], 5)
    expected = np.zeros(8)
    expected[1] = 1.0
    assert np.array_equal(traj.states[0], expected)
    assert traj.input_agents == ()


def test_attack_validation(bench8):
    with pytest.raises(ValueError):
        Attack.exponential(1, 1.2, 1.0)
    with pytest.raises(ValueError):
        simulate(bench8, np.zeros(8), [Attack.constant(9, 1.0)], 5)
    with pytest.raises(ValueError):
        simulate(bench8, np.zeros(8), (), 0)


def test_principal_submatrix_radius(bench8):
    for i in range(1, 9):
        J = [a for a in range(1, 9) if a != i]
        assert principal_submatrix_spectral_radius(bench8, J) < 1.0
        assert principal_submatrix_spectral_radius(bench8, [i]) < 1.0
    with pytest.raises(ValueError):
        principal_submatrix_spectral_radius(bench8, list(range(1, 9)))


def test_principal_submatrix_radius_ring():
    net = validate(directed_cycle(6))
    assert principal_submatrix_spectral_radius(net, [1, 2, 3, 4, 5]) < 1.0


def test_stubborn_gain_is_all_ones(bench8):
    for i in (1, 4, 8):
        gain = stubborn_agent_gain(bench8, i)
        assert np.max(np.abs(gain - 1.0)) < 1e-9


def test_stubborn_gain_two_node_chain():
    net = validate(np.array([[0.6, 0.4], [0.5, 0.5]]))
    assert np.allclose(stubborn_agent_gain(net, 2), [1.0])


def test_attack_effect_zero_input(bench8):
    assert np.all(attack_effect_constant(bench8, [3], 0.0) == 0.0)


def test_attack_effect_doubly_stochastic_uniform():
    A = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    net = validate(A)
    delta = 0.9
    assert np.allclose(attack_effect_constant(net, [2], delta),
                       np.full(3, delta / 3))


def test_attack_effect_matches_simulation(bench8):
    effect = attack_effect_constant(bench8, [3], 1.0)
    traj = simulate(bench8, np.zeros(8), [Attack.initial_offset(3, 1.0)], 500)
    assert np.max(np.abs(traj.states[-1] - effect)) < 1e-6


def test_exponential_bound_zero_input(bench8):
    assert np.all(exponential_input_bound(bench8, [3], 0.5, 0.0) == 0.0)


def test_exponential_bound_dominates_simulation(bench8):
    bound = exponential_input_bound(bench8, [3], 0.5, 1.0)
    traj = simulate(bench8, np.zeros(8), [Attack.exponential(3, 0.5, 1.0)], 300)
    assert np.all(traj.states[-1] <= bound + 1e-9)
    with pytest.raises(ValueError):
        exponential_input_bound(bench8, [3], 1.1, 1.0)
    with pytest.raises(ValueError):
        exponential_input_bound(bench8, [3], 0.5, -1.0)


def test_unobservable_offset_neutral():
    net = validate(SYMMETRIC4_A)
    assert unobservable_offset_is_neutral(net, 1, np.array([0, 0, 1.0, -1.0]))
    assert unobservable_offset_is_neutral(net, 1, np.zeros(4))


def test_observable_offset_rejected():
    net = validate(SYMMETRIC4_A)
    with pytest.raises(ValueError, match="observable"):
        unobservable_offset_is_neutral(net, 1, np.array([0, 0, 1.0, 0]))


# The kernel of O_{n-1} at these sizes holds directions that C A^s only
# nearly annihilates (|C A^s v| near 1e-9 for s < n; 15, 32 and 67 of
# them), which no A-invariant subspace inside Ker C contains: V* with no
# inputs is 0.
@pytest.mark.parametrize("n, j", [(60, 7), (120, 1), (120, 7)])
def test_unobservable_subspace_is_not_a_rounded_window_kernel(n, j):
    net = random_consensus_matrix(n, np.random.default_rng(0), extra_edges=n)
    assert observability_kernel(net.A, net.output_matrix(j)).dim > 0
    assert consensus.unobservable_subspace(net, j).dim == 0


def test_offset_from_a_rounded_window_kernel_is_observable():
    net = random_consensus_matrix(60, np.random.default_rng(0), extra_edges=60)
    v = observability_kernel(net.A, net.output_matrix(7)).basis[:, 0]
    with pytest.raises(ValueError, match="observable"):
        unobservable_offset_is_neutral(net, 7, v)


def test_observed_set_includes_self(bench8):
    assert bench8.observed_set(1) == (1, 2, 4, 5)
    assert bench8.observed_set(3) == (2, 3, 4, 7)


@pytest.mark.parametrize("seed", range(10))
def test_quasi_stochastic_blocks_stable_random(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(3, 9))
    net = random_consensus_matrix(n, rng, extra_edges=n)
    for i in range(1, n + 1):
        J = [a for a in range(1, n + 1) if a != i]
        assert principal_submatrix_spectral_radius(net, J) < 1.0
