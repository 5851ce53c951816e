import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from netguard import cli, consensus, fdi, numerics, sysan

from fixtures import (BENCH8_A, BENCH8_SM_37, LOCAL_GEN2, LOCAL_GEN3, RING9_A,
                      SYMMETRIC4_A, UNSTABLE_ZEROS_A, WEAK7_BLOCKS,
                      observer_matrix)
from oracles import (controlled_invariant_recompute,
                     exact_conditioned_invariant, exact_controlled_invariant,
                     observability_kernel, parity_weights_scan,
                     run_residual_steps, same_span, synthesis_loop)


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
        assert same_span(numeric, reference)


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


# Networks of 30-36 agents on which iterates that are not built nested
# drift until the loop stops at a subspace that is not controlled invariant
# (seed 1004, inputs {25, 27}, observer 9: a friend fit off by 0.1).
@pytest.mark.parametrize("seed", [1004, 1009, 1010, 1022])
def test_controlled_invariant_is_output_nulling_and_invariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 41))
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=int(rng.integers(0, 2 * n)))
    for _ in range(4):
        j = int(rng.integers(1, n + 1))
        others = [v for v in range(1, n + 1) if v != j]
        K = rng.choice(others, int(rng.integers(1, 4)), replace=False)
        B = consensus.input_matrix(n, K)
        C = net.output_matrix(j)
        V = fdi.max_controlled_invariant(net.A, B, C).basis
        assert np.linalg.norm(C @ V) <= 1e-9
        # A V = V X + B U for some X, U
        AV = net.A @ V
        stacked = np.hstack([V, B])
        fit = stacked @ np.linalg.lstsq(stacked, AV, rcond=None)[0] - AV
        assert np.linalg.norm(fit) <= 1e-9 * max(np.linalg.norm(AV), 1.0)


# V* cut only by the constraint directions each step gains is output
# nulling and controlled invariant, and holds the V* of the loop that takes
# the whole complement of V_k + Im B at every step: that loop rechecks the
# constraints V_k already meets and can cut more (0 against 3 dimensions for
# default_rng(5), n = 34, extra_edges=3, K {17, 21}, observer 24).
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(6, 40))
def test_controlled_invariant_contains_the_recomputed_fixpoint(data, n):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=data.draw(st.integers(0, 2 * n), label="extra"))
    j = data.draw(st.integers(1, n), label="observer")
    others = [a for a in range(1, n + 1) if a != j]
    K = data.draw(st.lists(st.sampled_from(others), min_size=1, max_size=3,
                           unique=True), label="K")
    B, C = consensus.input_matrix(n, K), net.output_matrix(j)
    V = fdi.max_controlled_invariant(net.A, B, C)
    assert np.linalg.norm(C @ V.basis) <= 1e-9
    AV = net.A @ V.basis
    stacked = np.hstack([V.basis, B])
    fit = stacked @ np.linalg.lstsq(stacked, AV, rcond=None)[0] - AV
    assert np.linalg.norm(fit) <= 1e-9 * np.linalg.norm(AV)
    reference = controlled_invariant_recompute(net.A, B, C)
    assert all(V.contains(x) for x in reference.T)
    event(f"V* larger than the recomputed one: {V.dim > reference.shape[1]}")


# The pencil decides these triples.  At seed 71 (n = 58) its smallest
# singular value is 1e-17 of the largest at every point, so the triple is
# not left invertible and V* needs 2 dimensions: a last constraint cut
# against its own size, 2.1e-12 of rounding, rather than that of D^T A
# leaves 1.  At seed 44 (n = 42) each of 14 eigenvalues of the zero
# dynamics drops the pencil's rank, where the recompute loop ends at 0.
@pytest.mark.parametrize("seed, K, j, dim", [(71, [42, 44, 45], 14, 2),
                                             (44, [25, 37], 4, 14)])
def test_controlled_invariant_matches_the_pencil(seed, K, j, dim):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 61))
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=int(rng.integers(0, 2 * n)))
    T = sysan.Triple.from_network(net, K, j)
    assert fdi.max_controlled_invariant(T.A, T.B, T.C).dim == dim
    analysis = sysan.invariant_zeros(T)
    sigma = np.linalg.svd(sysan.pencil(T, 0.3 + 0.2j), compute_uv=False)
    assert analysis.left_invertible == (sigma[-1] > 1e-12 * sigma[0])
    if analysis.left_invertible:
        assert len(analysis.zeros) == dim


@pytest.mark.parametrize("A, j", [(BENCH8_A, 1), (RING9_A, 1), (SYMMETRIC4_A, 1)])
def test_controlled_invariant_without_inputs_is_unobservable_subspace(A, j):
    # on small fixtures the Kalman kernel of O_{n-1} is well conditioned,
    # so it must agree with V* of (A, 0, C_j)
    net = consensus.validate(A)
    assert same_span(consensus.unobservable_subspace(net, j),
                     observability_kernel(net.A, net.output_matrix(j)))


@pytest.mark.parametrize("A, K", [
    (BENCH8_A, (3, 7)), (RING9_A, (1,)), (SYMMETRIC4_A, (1,))])
def test_conditioned_invariant_without_outputs_is_reachable_subspace(A, K):
    n = A.shape[0]
    B = consensus.input_matrix(n, K)
    S = fdi.min_conditioned_invariant(A, B, np.zeros((0, n)))
    krylov = np.hstack([np.linalg.matrix_power(A, s) @ B for s in range(n)])
    assert same_span(S, numerics.image(krylov))


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
def test_run_residual_matches_the_filter_recursion(case):
    net, gen = synthesize(case)
    _, j, _, decoupled, acting = GENERATOR_CASES[case]
    ys = outputs(net, j, decoupled + acting, np.random.default_rng(6))
    want = run_residual_steps(gen, ys)
    got = fdi.run_residual(gen, ys)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# hand-built two-step filters whose F^2 is zero only to rounding (6e-18)
@pytest.mark.parametrize("matrices", [LOCAL_GEN2, LOCAL_GEN3])
def test_run_residual_matches_the_recursion_of_hand_built_filters(matrices):
    gen = fdi.ResidualGenerator(**{k: v.copy() for k, v in matrices.items()},
                                horizon=2)
    ys = np.random.default_rng(7).uniform(-1, 1, (40, 3))
    want = run_residual_steps(gen, ys)
    got = fdi.run_residual(gen, ys)
    assert got.shape == want.shape == (40, 2)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_generator_must_settle_within_its_horizon():
    p = 2
    shift = dict(F=np.eye(2 * p, k=p), E=np.vstack([np.zeros((p, p)), np.eye(p)]),
                 M=np.ones((1, 2 * p)), H=np.ones((1, p)))
    assert fdi.ResidualGenerator(**shift, horizon=2).horizon == 2
    with pytest.raises(ValueError, match="horizon"):
        fdi.ResidualGenerator(**shift, horizon=1)
    with pytest.raises(ValueError, match="horizon"):
        fdi.ResidualGenerator(**dict(shift, F=0.5 * np.eye(2 * p)), horizon=4)


# The search starts at the first window whose Markov parameters reach every
# watched column; below it the scan over every window finds nothing, so the
# two return the same window and the same weights, bit for bit.  Targets are
# unit vectors, signed mixtures of them, or every coordinate outside S_M as
# in a bank.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(4, 20),
       kind=st.sampled_from(["units", "signed", "bank"]))
def test_parity_search_matches_the_scan_over_every_window(data, n, kind):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=int(rng.integers(0, 2 * n)))
    j = data.draw(st.integers(1, n), label="observer")
    agents = data.draw(st.permutations(range(1, n + 1)), label="agents")
    md = data.draw(st.integers(0, 2), label="decoupled")
    mt = data.draw(st.integers(1, 2), label="targets")
    Bd = consensus.input_matrix(n, agents[:md])
    C = net.output_matrix(j)
    watched = consensus.input_matrix(n, agents[md:md + mt])
    if kind == "signed":
        watched = watched @ rng.standard_normal((mt, mt))
    elif kind == "bank":
        outside = fdi.synthesize_residual_generator(
            net.A, np.zeros((n, 0)), Bd, C).outside
        watched = np.eye(n)[:, list(outside)]
    got = fdi._parity_weights(fdi._output_powers(net.A, C), [Bd],
                              [[watched]])[0][0]
    want = parity_weights_scan(net.A, Bd, watched, C)
    if want is None:
        assert got is None
    else:
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])


# Block (s, tau) of the window map is markov[s - tau - 1] below the diagonal
# and zero on and above it; the index pattern behind it is shared between
# calls, so it must not be writable.
@pytest.mark.parametrize("L", range(1, 7))
def test_block_toeplitz_matches_its_definition(L):
    rng = np.random.default_rng(L)
    p, m = (int(d) for d in rng.integers(1, 4, size=2))
    markov = rng.standard_normal((L, p, m))
    T = fdi._block_toeplitz(markov)
    assert T.shape == ((L + 1) * p, (L + 1) * m)
    for s in range(L + 1):
        for tau in range(L + 1):
            block = T[s * p:(s + 1) * p, tau * m:(tau + 1) * m]
            want = markov[s - tau - 1] if s > tau else np.zeros((p, m))
            assert np.array_equal(block, want)
    assert not any(index.flags.writeable
                   for index in fdi._toeplitz_pattern(L))


def bank_inputs(net, j, k, targeted, rng):
    """A complete-identification bank of observer ``j`` (no targets), or one
    target per decoupled set drawn from the agents outside it."""
    n = net.n
    others = [a for a in range(1, n + 1) if a != j]
    decoupled = list(combinations(others, k))
    Bds = [consensus.input_matrix(n, D) for D in decoupled]
    if targeted:
        targets = [consensus.input_matrix(
            n, [int(rng.choice([a for a in others if a not in D]))])
            for D in decoupled]
    else:
        targets = [np.zeros((n, 0))] * len(decoupled)
    return net.output_matrix(j), targets, Bds


def bank_arrays(reports):
    """Every array and decision of a bank's reports, in order."""
    out = []
    for r in reports:
        gen = r.generator
        out.append((r.V_star.basis, r.S_star.basis, r.S_M.basis, r.outside,
                    r.solvable, None if gen is None else gen.horizon,
                    None if gen is None else np.hstack([gen.M, gen.H])))
    return out


def assert_banks_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert (np.array_equal(a, b) if isinstance(a, np.ndarray)
                    else a == b)


# The bank advances all candidates of an observer in stacked SVDs; each
# member must come out bit for bit as the candidate's own loops compute it.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(4, 14), k=st.integers(1, 2),
       targeted=st.booleans())
def test_bank_matches_separate_syntheses(data, n, k, targeted):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=int(rng.integers(0, 2 * n)))
    j = data.draw(st.integers(1, n), label="observer")
    C, targets, Bds = bank_inputs(net, j, k, targeted, rng)
    got = bank_arrays(fdi._synthesize_bank(net.A, C, targets, Bds))
    want = []
    for Bt, Bd in zip(targets, Bds):
        V, S, S_M, outside, found = synthesis_loop(net.A, Bt, Bd, C)
        W = None if found is None else fdi._echelon(found[1], C.shape[0])
        want.append((V, S, S_M, outside, found is not None,
                     None if found is None else found[0], W))
    assert_banks_equal(got, want)
    dims = {tuple(a.shape[1] for a in member[:3]) for member in want}
    event(f"shape groups split: {len(dims) > 1}")


# A cap small enough to split every stack and slice, or to leave a partial
# chunk, gives the results of one stack.
@pytest.mark.parametrize("entries", [1, 500])
@pytest.mark.parametrize("targeted", [False, True])
def test_bank_split_by_the_stack_cap_matches_one_stack(entries, targeted,
                                                       monkeypatch):
    rng = np.random.default_rng(5)
    net = consensus.random_consensus_matrix(14, rng, extra_edges=10)
    C, targets, Bds = bank_inputs(net, 1, 2, targeted, rng)
    whole = bank_arrays(fdi._synthesize_bank(net.A, C, targets, Bds))
    # the members fall into several shape groups
    assert len({tuple(a.shape[1] for a in member[:3]) for member in whole}) > 1
    monkeypatch.setattr(numerics, "_STACK_ENTRIES", entries)
    split = bank_arrays(fdi._synthesize_bank(net.A, C, targets, Bds))
    assert_banks_equal(split, whole)


def shared_set_inputs(net, j, sets, targets_per_set, rng):
    """Members that share decoupled sets: for each set in ``sets``, copies
    of its matrix paired with ``targets_per_set`` targets, each one agent
    outside the set or none, in a random order."""
    n = net.n
    members = []
    for D in sets:
        free = [a for a in range(1, n + 1) if a not in D]
        for _ in range(targets_per_set):
            pick = int(rng.integers(-1, len(free)))
            members.append((consensus.input_matrix(n, [free[pick]] if pick >= 0
                                                   else []),
                            consensus.input_matrix(n, D)))
    order = rng.permutation(len(members))
    return ([members[i][0] for i in order], [members[i][1] for i in order],
            [sets[i // targets_per_set] for i in order])


def assert_each_is_its_separate_synthesis(net, C, targets, Bds, reports):
    want = []
    for Bt, Bd in zip(targets, Bds):
        V, S, S_M, outside, found = synthesis_loop(net.A, Bt, Bd, C)
        W = None if found is None else fdi._echelon(found[1], C.shape[0])
        want.append((V, S, S_M, outside, found is not None,
                     None if found is None else found[0], W))
    assert_banks_equal(bank_arrays(reports), want)


# The bank computes each decoupled set once for all its targets; every
# member must still come out bit for bit as its own synthesis, and the
# members of a set that stop at one window share one generator.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(4, 12), k=st.integers(0, 2),
       targets_per_set=st.integers(2, 4))
def test_bank_shares_each_decoupled_set(data, n, k, targets_per_set):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=int(rng.integers(0, 2 * n)))
    j = data.draw(st.integers(1, n), label="observer")
    C = net.output_matrix(j)
    every = list(combinations([a for a in range(1, n + 1) if a != j], k))
    sets = [every[i] for i in rng.choice(len(every), min(3, len(every)),
                                         replace=False)]
    targets, Bds, labels = shared_set_inputs(net, j, sets, targets_per_set,
                                             rng)
    reports = list(fdi._synthesize_bank(net.A, C, targets, Bds))
    assert_each_is_its_separate_synthesis(net, C, targets, Bds, reports)
    shared = {}
    for D, r in zip(labels, reports):
        assert shared.setdefault(D, r.S_M) is r.S_M
        if r.generator is not None:
            gen = shared.setdefault((D, r.generator.horizon), r.generator)
            assert gen is r.generator


# With one set per slice, the members of a set straddle the slices of the
# sets after it: a set is computed when its first member is due, once, and
# its later members come out of the held results, each bit for bit its own
# synthesis.
def test_shared_set_straddles_the_slices(monkeypatch):
    rng = np.random.default_rng(3)
    net = consensus.random_consensus_matrix(10, rng, extra_edges=10)
    C = net.output_matrix(1)
    sets = [(2,), (5,), (7,), (9,)]
    targets, Bds, labels = shared_set_inputs(net, 1, sets, 3, rng)
    # the first set's members are not all before the second set's first
    first = [i for i, D in enumerate(labels) if D == labels[0]]
    assert any(D != labels[0] for D in labels[:first[-1]])
    whole = list(fdi._synthesize_bank(net.A, C, targets, Bds))
    monkeypatch.setattr(numerics, "_STACK_ENTRIES", 1)
    fixpoints = []
    original = fdi._controlled_invariants

    def counted(A, Bs, C):
        fixpoints.append(len(Bs))
        return original(A, Bs, C)

    monkeypatch.setattr(fdi, "_controlled_invariants", counted)
    bank = fdi._synthesize_bank(net.A, C, targets, Bds)
    split = [next(bank)]
    assert fixpoints == [1]
    split += list(bank)
    assert fixpoints == [1] * len(sets)
    assert_banks_equal(bank_arrays(split), bank_arrays(whole))
    assert_each_is_its_separate_synthesis(net, C, targets, Bds, split)


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
