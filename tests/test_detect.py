from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from netguard import consensus, detect, fdi, graph, sysan

from fixtures import BENCH8_A, RING9_A
from oracles import consistent_sets, filter_run_reference


# BENCH8 isolates every target; RING9 seen from agent 1 has 20 pairs that
# cannot be isolated.
@pytest.mark.parametrize("A, k", [(BENCH8_A, 1), (BENCH8_A, 2), (RING9_A, 1)])
def test_unsolvable_pairs_match_fdi_solvable(A, k):
    net = consensus.validate(A)
    n, j = net.n, 1
    traj = consensus.simulate(net, np.zeros(n),
                              [consensus.Attack.constant(3, 1.0)], 3 * n)
    verdict = detect.complete_identification(net, j, k,
                                             net.outputs(traj.states, j))
    C = net.output_matrix(j)
    others = [a for a in range(1, n + 1) if a != j]
    expected = set()
    for D in combinations(others, k):
        B_D = consensus.input_matrix(n, D)
        report = fdi.synthesize_residual_generator(net.A, np.zeros((n, 0)),
                                                   B_D, C)
        for i in (a for a in others if a not in D):
            if report.generator is None or not fdi.fdi_solvable(
                    net.A, [consensus.input_matrix(n, [i]), B_D], C, 0):
                expected.add((i, D))
    assert len(expected) == (20 if A is RING9_A else 0)
    assert set(verdict.unsolvable) == expected
    assert verdict.unsolvable == tuple(sorted(expected))


# e_i sits 6.6e-9 (seed 18) and 4.3e-9 (seed 39) from S_M(D): inside it,
# as exact rational arithmetic confirms, yet above the relative rank
# threshold.  fdi_solvable, the target synthesis and the identification's
# pair set must give one answer.
@pytest.mark.parametrize("seed, D, i", [(18, (4, 5), 12), (39, (11, 12), 2)])
def test_isolability_is_decided_by_one_rule(seed, D, i, monkeypatch):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 13))
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=int(rng.integers(0, n)))
    C = net.output_matrix(1)
    B_i, B_D = consensus.input_matrix(n, [i]), consensus.input_matrix(n, D)
    assert not fdi.fdi_solvable(net.A, [B_i, B_D], C, 0)
    assert not fdi.synthesize_residual_generator(net.A, B_i, B_D, C).solvable
    # the networks are 2-connected; the pair set does not depend on
    # connectivity, so the k + 1 guard is lifted to read it at k = 2
    monkeypatch.setattr(detect.graphmod, "vertex_connectivity",
                        lambda g: g.n - 1)
    traj = consensus.simulate(net, rng.uniform(-1, 1, n), [], 3 * n)
    verdict = detect.complete_identification(net, 1, len(D),
                                             net.outputs(traj.states, 1))
    assert (i, D) in verdict.unsolvable


def naive_filter(A, G, H, L, C, ys):
    """The filter recursion written out step by step."""
    z = np.zeros(A.shape[0])
    estimates = []
    for y in ys:
        estimates.append(L @ z + H @ y)
        z = (A + G @ C) @ z - G @ y
    residuals = [estimates[t + 1] - A @ estimates[t]
                 for t in range(len(estimates) - 1)]
    return np.array(estimates), np.array(residuals)


@pytest.mark.parametrize("attacks, persistent", [
    ((), False), ((consensus.Attack.constant(3, 1.0),), True)])
def test_detection_filter_run(attacks, persistent):
    net = consensus.validate(BENCH8_A)
    rng = np.random.default_rng(0)
    traj = consensus.simulate(net, rng.uniform(-1, 1, net.n), attacks, 200)
    ys = net.outputs(traj.states, 1)
    filt = detect.DetectionFilter.from_network(net, 1)
    estimates, residuals = filt.run(ys)
    want_est, want_res = naive_filter(filt.A, filt.G, filt.H, filt.L, filt.C, ys)
    np.testing.assert_allclose(estimates, want_est, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(residuals, want_res, rtol=1e-12, atol=1e-12)
    assert residuals.shape == (200, net.n)
    tail = np.max(np.abs(residuals[-50:]), axis=1)
    if persistent:
        assert np.min(tail) > 0.1
    else:
        assert np.max(tail) < 1e-9
    # a second run starts again from z = 0
    again, _ = filt.run(ys)
    np.testing.assert_array_equal(again, estimates)


@pytest.mark.parametrize("A", [BENCH8_A, RING9_A])
@pytest.mark.parametrize("j", [1, 4])
def test_run_matches_stepping(A, j):
    net = consensus.validate(A)
    traj = consensus.simulate(
        net, np.random.default_rng(1).uniform(-1, 1, net.n),
        [consensus.Attack.constant(3, 1.0),
         consensus.Attack.exponential(5, 0.9, 2.0)], 300)
    ys = net.outputs(traj.states, j)
    filt = detect.DetectionFilter.from_network(net, j)
    estimates, _ = filt.run(ys)
    stepper = detect.DetectionFilter.from_network(net, j)
    stepped = np.array([stepper.step(y) for y in ys])
    assert np.max(np.abs(estimates - stepped)) <= 1e-12 * np.max(np.abs(ys))
    assert np.array_equal(filt.z, stepper.z)


@pytest.mark.parametrize("A", [BENCH8_A, RING9_A], ids=["bench8", "ring9"])
@pytest.mark.parametrize("attack", [
    lambda A: consensus.Attack.constant(3, 1.0),
    lambda A: consensus.Attack.exponential(5, 0.9, 2.0),
    lambda A: consensus.Attack.state_feedback(3, -A[2], offset=2.5),
], ids=["constant", "exponential", "state_feedback"])
def test_run_matches_reference_loop(A, attack):
    net = consensus.validate(A)
    traj = consensus.simulate(
        net, np.random.default_rng(2).uniform(-1, 1, net.n), [attack(A)], 200)
    ys = net.outputs(traj.states, 1)
    filt = detect.DetectionFilter.from_network(net, 1)
    estimates, residuals = filt.run(ys)
    want_est, want_res, want_z = filter_run_reference(filt, ys)
    assert np.array_equal(estimates, want_est)
    assert np.array_equal(residuals, want_res)
    assert np.array_equal(filt.z, want_z)


# Leakage of the exact residual scales with the data; an absolute floor
# flags clean data at 1e9 and misses the attacker at 1e-9.
@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
@pytest.mark.parametrize("attacked", [(), (3,)])
def test_identification_is_scale_invariant(scale, attacked):
    net = consensus.random_consensus_matrix(
        12, np.random.default_rng(0), extra_edges=72, min_connectivity=3)
    x0 = np.random.default_rng(1).uniform(-1, 1, net.n)
    attacks = [consensus.Attack.constant(a, scale) for a in attacked]
    traj = consensus.simulate(net, scale * x0, attacks, 36)
    verdict = detect.complete_identification(net, 1, 1,
                                             net.outputs(traj.states, 1))
    assert verdict.status == "identified"
    assert verdict.identified == attacked


# A generator decides on the samples past its horizon: with no more samples
# than the longest window (6 here), its "tail" was the zero-padded transient,
# which fires on x0 alone, and clean data came out ambiguous.
@pytest.mark.parametrize("T", range(1, 8))
def test_identification_needs_samples_past_the_longest_window(T):
    net = consensus.random_consensus_matrix(8, np.random.default_rng(0),
                                            extra_edges=8)
    x0 = np.random.default_rng(1).uniform(-1, 1, net.n)
    ys = net.outputs(consensus.simulate(net, x0, T=T).states, 1)
    assert len(ys) == T + 1
    if T + 1 <= 6:
        with pytest.raises(ValueError, match=f"^{T + 1} samples do not exceed "
                                             f"the longest parity window 6$"):
            detect.complete_identification(net, 1, 1, ys)
    else:
        verdict = detect.complete_identification(net, 1, 1, ys)
        assert (verdict.status, verdict.identified, verdict.horizon) == (
            "identified", (), 6)


# Detection from a (k+1)-connected network: up to k constant attackers keep
# the detection filter's residual away from zero past its transient.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(1, 2), n=st.integers(6, 25))
def test_detects_attackers_on_k_plus_1_connected_networks(data, k, n):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=int(rng.integers(0, 2 * n)) if k == 1 else n * n // 2,
        min_connectivity=k + 1)
    j = data.draw(st.integers(1, n), label="observer")
    others = [a for a in range(1, n + 1) if a != j]
    attacked = data.draw(st.lists(st.sampled_from(others), min_size=1,
                                  max_size=k, unique=True), label="attacked")
    attacks = [consensus.Attack.constant(a, rng.choice([-1, 1])
                                         * rng.uniform(0.5, 2.0))
               for a in attacked]
    T = 6 * n
    ys = net.outputs(consensus.simulate(net, rng.uniform(-1, 1, n), attacks,
                                        T).states, j)
    _, residuals = detect.DetectionFilter.from_network(net, j).run(ys)
    tail = np.max(np.abs(residuals[-(T // 4):]), axis=1)
    assert np.min(tail) > 1e-6 * np.max(np.abs(ys))


# Identification of k malicious agents from a (2k+1)-connected network:
# the exclusion verdict is exactly the attacked set.
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(1, 2), n=st.integers(8, 14))
def test_identifies_attackers_on_2k_plus_1_connected_networks(data, k, n):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=n * n // 2 if k == 1 else n * n,
        min_connectivity=2 * k + 1)
    j = data.draw(st.integers(1, n), label="observer")
    others = [a for a in range(1, n + 1) if a != j]
    attacked = tuple(sorted(data.draw(
        st.lists(st.sampled_from(others), max_size=k, unique=True),
        label="attacked")))
    attacks = [consensus.Attack.constant(a, rng.choice([-1, 1])
                                         * rng.uniform(0.5, 2.0))
               for a in attacked]
    traj = consensus.simulate(net, rng.uniform(-1, 1, n), attacks, 3 * n)
    verdict = detect.complete_identification(net, j, k,
                                             net.outputs(traj.states, j))
    assert verdict.status == "identified"
    assert verdict.identified == attacked


# Identification of k faulty agents from a network of connectivity k + 1
# to 2k, too little to identify k malicious ones: random-sequence faults
# leave no invisible motion, and the verdict is exactly the faulty set.
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(1, 2), n=st.integers(8, 14))
def test_identifies_faulty_agents_below_2k_plus_1(data, k, n):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=n if k == 1 else n * n // 3,
        min_connectivity=k + 1)
    kappa = graph.vertex_connectivity(net.graph)
    assume(kappa <= 2 * k)
    j = data.draw(st.integers(1, n), label="observer")
    others = [a for a in range(1, n + 1) if a != j]
    faulty = tuple(sorted(data.draw(
        st.lists(st.sampled_from(others), max_size=k, unique=True),
        label="faulty")))
    T = 3 * n
    attacks = [consensus.Attack.sequence(a, rng.standard_normal(T))
               for a in faulty]
    traj = consensus.simulate(net, rng.uniform(-1, 1, n), attacks, T)
    verdict = detect.complete_identification(net, j, k,
                                             net.outputs(traj.states, j))
    assert verdict.connectivity == kappa
    assert verdict.status == "identified"
    assert verdict.identified == faulty


# Two malicious agents K1 of a 3-vertex cut collude against the third, K2:
# with the witness's inputs and initial state they look like K2 alone to an
# observer on the sink side, so a verdict may name the innocent K2.  The
# network is 3-connected, short of the 2k + 1 = 5 that identifying two
# malicious agents needs, so the verdict only ever promises faulty agents.
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(11, 14))
def test_colluders_never_get_a_malicious_guarantee(seed, n):
    k = 2
    rng = np.random.default_rng(seed)
    net = consensus.random_consensus_matrix(n, rng, extra_edges=n * n // 3,
                                            min_connectivity=3)
    assume(graph.vertex_connectivity(net.graph) == 3)
    cut = graph.find_vertex_cut(net.graph, 3)
    K1, K2 = cut.cut[:2], cut.cut[2:]
    j = cut.sink_side[0]
    w = sysan.unidentifiability_witness(net, K1, K2, j)
    assume(w is not None)
    attacks = [consensus.Attack.sequence(a, w.inputs_1[:, c])
               for c, a in enumerate(w.K1)]
    traj = consensus.simulate(net, w.x0, attacks, w.horizon)
    verdict = detect.complete_identification(net, j, k,
                                             net.outputs(traj.states, j))
    assert verdict.connectivity == 3
    assert graph.resilience_at(verdict.connectivity).guarantee(k) == "faulty"


@pytest.mark.parametrize("A, k, attacked", [
    (BENCH8_A, 1, (3,)), (BENCH8_A, 2, (2, 6)), (BENCH8_A, 2, ()),
    (RING9_A, 1, (4,)), (RING9_A, 1, (2,)), (RING9_A, 1, ())])
def test_consistent_sets_match_the_pairwise_loop(A, k, attacked, monkeypatch):
    seen = []
    lookup = detect._consistent_sets

    def spy(others, fired, k):
        got = lookup(others, fired, k)
        seen.append((got, consistent_sets(others, fired, k)))
        return got

    monkeypatch.setattr(detect, "_consistent_sets", spy)
    net = consensus.validate(A)
    attacks = [consensus.Attack.constant(a, 1.0 + a / 10) for a in attacked]
    traj = consensus.simulate(net, np.linspace(-1, 1, net.n), attacks, 30)
    detect.complete_identification(net, 1, k, net.outputs(traj.states, 1))
    assert len(seen) == 1
    got, want = seen[0]
    assert got == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(3, 9), k=st.integers(1, 3))
def test_consistent_sets_on_random_fired_patterns(data, n, k):
    others = list(range(2, n + 1))
    fired = {D: data.draw(st.sampled_from([True, False, None]),
                          label=str(D))
             for D in combinations(others, k)}
    assert detect._consistent_sets(others, fired, k) == consistent_sets(
        others, fired, k)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 2),
       n=st.integers(8, 11))
def test_consistent_sets_on_random_networks(seed, k, n):
    rng = np.random.default_rng(seed)
    net = consensus.random_consensus_matrix(n, rng, extra_edges=n * n // 2,
                                            min_connectivity=k + 1)
    attacked = rng.choice(np.arange(2, n + 1), size=k, replace=False)
    attacks = [consensus.Attack.constant(int(a), rng.uniform(0.5, 2.0))
               for a in attacked]
    traj = consensus.simulate(net, rng.uniform(-1, 1, n), attacks, 3 * n)
    seen = []
    lookup = detect._consistent_sets

    def spy(others, fired, k):
        got = lookup(others, fired, k)
        seen.append(got == consistent_sets(others, fired, k))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detect, "_consistent_sets", spy)
        detect.complete_identification(net, 1, k, net.outputs(traj.states, 1))
    assert seen == [True]
