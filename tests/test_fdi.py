import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netguard import cli, consensus, fdi, numerics

from fixtures import (BENCH8_A, BENCH8_SM_37, RING9_A, SYMMETRIC4_A,
                      UNSTABLE_ZEROS_A, WEAK7_BLOCKS, observer_matrix)
from oracles import exact_conditioned_invariant, exact_controlled_invariant


@pytest.mark.parametrize("A, K, j", [
    (BENCH8_A, (3, 7), 1), (BENCH8_A, (2, 4, 6, 8), 1), (RING9_A, (1, 2), 6),
    (RING9_A, (3, 5), 1), (UNSTABLE_ZEROS_A, (1, 2), 3),
    (SYMMETRIC4_A, (3, 4), 1)])
def test_invariants_match_exact_fixpoints(A, K, j):
    B = consensus.input_matrix(A.shape[0], K)
    C = observer_matrix(A, j)
    for numeric, exact in (
            (fdi.max_controlled_invariant(A, B, C),
             exact_controlled_invariant(A, B, C)),
            (fdi.min_conditioned_invariant(A, B, C),
             exact_conditioned_invariant(A, B, C))):
        reference = numerics.image(exact)
        assert numeric.dim == reference.dim
        assert numerics.subspace_equal(numeric, reference)


# Bidirectional ring with self-loops plus random arcs, integer weights 1-3
# and rows normalised: the entries are small-denominator rationals, which
# the sympy oracles recover exactly.
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(4, 8))
def test_invariants_match_exact_fixpoints_on_random_networks(data, n):
    mask = np.eye(n, dtype=bool)
    ring = np.arange(n)
    mask[ring, (ring + 1) % n] = mask[ring, (ring - 1) % n] = True
    arcs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n),
                     label="arcs")
    for a, b in arcs:
        mask[a, b] = True
    weights = data.draw(st.lists(st.integers(1, 3), min_size=n * n,
                                 max_size=n * n), label="weights")
    A = np.where(mask, np.reshape(weights, (n, n)), 0).astype(float)
    A /= A.sum(axis=1, keepdims=True)
    K = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=2,
                           unique=True), label="K")
    j = data.draw(st.integers(1, n), label="observer")
    test_invariants_match_exact_fixpoints(A, K, j)


@pytest.mark.parametrize("A, j", [(BENCH8_A, 1), (RING9_A, 1), (SYMMETRIC4_A, 1)])
def test_controlled_invariant_without_inputs_is_unobservable_subspace(A, j):
    net = consensus.validate(A)
    V = fdi.max_controlled_invariant(net.A, np.zeros((net.n, 0)),
                                     net.output_matrix(j))
    assert numerics.subspace_equal(V, consensus.unobservable_subspace(net, j))


@pytest.mark.parametrize("A, K", [
    (BENCH8_A, (3, 7)), (RING9_A, (1,)), (SYMMETRIC4_A, (1,))])
def test_conditioned_invariant_without_outputs_is_reachable_subspace(A, K):
    n = A.shape[0]
    B = consensus.input_matrix(n, K)
    S = fdi.min_conditioned_invariant(A, B, np.zeros((0, n)))
    krylov = np.hstack([np.linalg.matrix_power(A, s) @ B for s in range(n)])
    assert numerics.subspace_equal(S, numerics.image(krylov))


def test_bench8_unobservability_subspace_matches_reference():
    net = consensus.validate(BENCH8_A)
    report = fdi.synthesize_residual_generator(
        net.A, np.zeros((8, 0)), consensus.input_matrix(8, (3, 7)),
        net.output_matrix(1))
    assert report.S_M.dim == BENCH8_SM_37.shape[1]
    # the reference carries four decimals; its entries sit within 1.5e-4
    # of the computed subspace
    np.testing.assert_allclose(report.S_M.projector() @ BENCH8_SM_37,
                               BENCH8_SM_37, atol=2e-4)


# (matrix, observer, targets, decoupled, agents acting as the target in the
# response check); no target means every agent outside S_M is watched
GENERATOR_CASES = {
    "bench8-bank-k1": (BENCH8_A, 1, (), (3,), (5,)),
    "bench8-bank-k2": (BENCH8_A, 1, (), (2, 5), (7,)),
    "bench8-target": (BENCH8_A, 1, (3,), (7,), (3,)),
    "ring9-bank": (RING9_A, 1, (), (4,), (3,)),
    "weak7-block": (WEAK7_BLOCKS[:3, :3], 1, (2,), (3,), (2,)),
}


def synthesize(case):
    A, j, targets, decoupled, _ = GENERATOR_CASES[case]
    net = consensus.validate(A)
    report = fdi.synthesize_residual_generator(
        net.A, consensus.input_matrix(net.n, targets),
        consensus.input_matrix(net.n, decoupled), net.output_matrix(j))
    assert report.solvable and report.generator is not None
    return net, report.generator


def outputs(net, j, agents, rng, T=40):
    x0 = rng.uniform(-1, 1, net.n)
    attacks = [consensus.Attack.sequence(a, rng.uniform(-1, 1, T))
               for a in agents]
    return net.outputs(consensus.simulate(net, x0, attacks, T).states, j)


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_generator_is_a_shift_register(case):
    _, gen = synthesize(case)
    h = gen.horizon
    assert h >= 1
    assert not np.any(np.linalg.matrix_power(gen.F, h))
    assert np.any(np.linalg.matrix_power(gen.F, h - 1))


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_residual_ignores_state_and_decoupled_inputs(case):
    net, gen = synthesize(case)
    _, j, _, decoupled, _ = GENERATOR_CASES[case]
    rng = np.random.default_rng(3)
    for _ in range(5):
        ys = outputs(net, j, decoupled, rng)
        tail = fdi.run_residual(gen, ys)[gen.horizon:]
        assert np.max(np.abs(tail)) <= 1e-10 * np.max(np.abs(ys))


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_residual_responds_to_the_target(case):
    net, gen = synthesize(case)
    _, j, _, decoupled, acting = GENERATOR_CASES[case]
    ys = outputs(net, j, decoupled + acting, np.random.default_rng(4))
    tail = fdi.run_residual(gen, ys)[gen.horizon:]
    assert np.max(np.abs(tail)) > 1e-3 * np.max(np.abs(ys))


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_run_residual_applies_the_parity_weights(case):
    net, gen = synthesize(case)
    _, j, _, _, acting = GENERATOR_CASES[case]
    ys = outputs(net, j, acting, np.random.default_rng(5))
    L, p = gen.horizon, ys.shape[1]
    W = np.hstack([gen.M, gen.H])
    padded = np.vstack([np.zeros((L, p)), ys])
    windows = np.array([padded[t:t + L + 1].ravel() for t in range(len(ys))])
    np.testing.assert_allclose(fdi.run_residual(gen, ys), windows @ W.T,
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_generator_json_round_trip(case):
    _, gen = synthesize(case)
    gen = fdi.ResidualGenerator(F=gen.F, E=gen.E, M=gen.M, H=gen.H,
                                horizon=gen.horizon, target=(2,),
                                decoupled=(3, 5))
    back = fdi.ResidualGenerator.from_json(gen.to_json())
    for name in ("F", "E", "M", "H"):
        np.testing.assert_array_equal(getattr(back, name), getattr(gen, name))
    assert (back.horizon, back.target, back.decoupled) == (gen.horizon, (2,),
                                                           (3, 5))


def test_complete_block_gives_the_coordinate_residual():
    # on a complete block seen in full, the residual is the one-step
    # prediction error of the agents outside the decoupled set
    net, gen = synthesize("weak7-block")
    assert gen.horizon == 1
    np.testing.assert_allclose(gen.H, [[1, 0, 0], [0, 1, 0]], atol=1e-12)
    np.testing.assert_allclose(gen.M, -gen.H @ net.A, atol=1e-12)


def run_synthesize(tmp_path, A, observer, targets, decouple):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "matrix": {"rows": A.tolist()}, "observer": observer,
        "targets": targets, "decouple": decouple}))
    out = tmp_path / "out"
    code = cli.main(["synthesize", "--scenario", str(path), "--out", str(out)])
    return code, json.loads((out / "report.json").read_text())


def test_cli_synthesize_solvable(tmp_path):
    code, report = run_synthesize(tmp_path, BENCH8_A, 1, [3], [7])
    assert code == cli.EXIT_OK
    net = consensus.validate(BENCH8_A)
    S_M = fdi.unobservability_subspace(net.A, consensus.input_matrix(8, [7]),
                                       net.output_matrix(1))
    assert report["solvable"] and report["dim_unobservability"] == S_M.dim
    gen = report["generator"]
    p = len(net.observed_set(1))
    assert gen["horizon"] >= 1
    assert np.shape(gen["F"]) == (gen["horizon"] * p, gen["horizon"] * p)


def test_cli_synthesize_unsolvable(tmp_path):
    # seen from agent 1 of RING9, agent 4 cannot be isolated against agent 5
    code, report = run_synthesize(tmp_path, RING9_A, 1, [4], [5])
    assert code == cli.EXIT_INVALID
    assert not report["solvable"] and report["generator"] is None
