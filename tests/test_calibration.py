import json
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from netguard import cli, detect, fdi

from fixtures import (LOCAL_GEN2, LOCAL_GEN3, WEAK7_PARTITION, block_network,
                      weak7_matrix)
from oracles import (bound_lp_columns, box_max_vertices, box_min_lp,
                     certified_bounds_per_generator, local_bank_loop,
                     residual_coefficients, smallest_separating_ratio_eager,
                     threshold_crossing_bisection)


def weak7(eps):
    return detect.block_decompose(weak7_matrix(eps), WEAK7_PARTITION)


def gen_bank():
    """Block {1,2,3} seen from agent 1 with the two-step reference filters."""
    entries = []
    for gen, target, other in ((LOCAL_GEN2, 2, 3), (LOCAL_GEN3, 3, 2)):
        g = fdi.ResidualGenerator(**{k: v.copy() for k, v in gen.items()},
                                  horizon=2, target=(target,),
                                  decoupled=(other,))
        entries.append(detect.BankEntry(target=target, decouple=(other,),
                                        generator=g, solvable=True))
    return detect.LocalBank(block=1, observer=1, k_j=1, agents=(1, 2, 3),
                            observed=(1, 2, 3), entries=tuple(entries),
                            eval_time=2)


def reference(decomp, bank, u_min, outside):
    return certified_bounds_per_generator(residual_coefficients,
                                          decomp, bank, u_min, 1.0, 1.0,
                                          outside)


def assert_bounds_match(decomp, bank, u_min, outside):
    got = detect.certified_bounds(decomp, bank, u_min, 1.0, 1.0, outside)
    want = reference(decomp, bank, u_min, outside)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("u_min", [0.05, 0.1, 0.5])
@pytest.mark.parametrize("block, observer, outside", [
    (1, 1, ()), (1, 1, (4,)), (1, 1, (4, 7)),
    (2, 4, ()), (2, 4, (2,)), (2, 4, (2, 3))])
def test_certified_bounds_match_per_generator_lps(eps, u_min, block,
                                                  observer, outside):
    decomp = weak7(eps)
    bank = detect.build_local_bank(decomp, block, observer, 1)
    assert_bounds_match(decomp, bank, u_min, outside)


@pytest.mark.parametrize("eps", [0.0, 0.01, 0.05, 0.1])
@pytest.mark.parametrize("u_min", [0.05, 0.5])
@pytest.mark.parametrize("outside", [(), (4,), (4, 7)])
def test_two_step_bank_bounds_match_per_generator_lps(eps, u_min, outside):
    assert_bounds_match(weak7(eps), gen_bank(), u_min, outside)


def test_two_step_filters_separate_without_coupling():
    # dead-beat at t* = 2: the initial state and the decoupled agent drop
    # out, and the target's samples u(0), u(1) reach the residual as
    # (+-u(0) / 3, u(0) / 3 + u(1)), least at u = 0.1
    mis, well = detect.certified_bounds(weak7(0.0), gen_bank(), 0.1, 1.0)
    assert well == pytest.approx(0.0, abs=1e-12)
    assert mis == pytest.approx(0.4 / 3, rel=1e-9)


def test_residual_coefficients_reproduce_a_simulated_residual():
    rng = np.random.default_rng(3)
    A = weak7_matrix(0.05)
    bank = gen_bank()
    agents = [2, 3, 4]
    x0 = rng.uniform(-1, 1, 7)
    u = rng.uniform(-1, 1, (bank.eval_time, len(agents)))
    states = [x0]
    for t in range(bank.eval_time):
        x = A @ states[-1]
        x[[a - 1 for a in agents]] += u[t]
        states.append(x)
    ys = np.array(states)[:, [a - 1 for a in bank.observed]]
    inputs = np.zeros((bank.eval_time, 7))
    inputs[:, [a - 1 for a in agents]] = u
    P = detect._network_powers(A, bank.observed, bank.eval_time)
    for entry in bank.entries:
        r = fdi.run_residual(entry.generator, ys)[bank.eval_time]
        g = detect._decision_maps(P, entry.generator)
        # the state enters through g_t*, the input at step tau through
        # g_(t*-1-tau)
        predicted = g[-1] @ x0 + sum(g[bank.eval_time - 1 - tau] @ v
                                     for tau, v in enumerate(inputs))
        np.testing.assert_allclose(predicted, r, rtol=1e-12, atol=1e-12)


def assert_maps_match_augmented_powers(A, bank, outside):
    P = detect._network_powers(A, bank.observed, bank.eval_time)
    for entry in bank.entries:
        if entry.generator is None:
            continue
        agents = sorted({entry.target, *entry.decouple, *outside})
        want_x, want = residual_coefficients(A, entry.generator, bank.observed,
                                             agents, bank.eval_time)
        g = detect._decision_maps(P, entry.generator)
        got_x = g[-1]
        got = {a: g[:-1][::-1][:, :, a - 1] for a in agents}
        scale = max(np.max(np.abs(want_x)),
                    max(np.max(np.abs(c), initial=0.0) for c in want.values()))
        assert np.max(np.abs(got_x - want_x)) <= 1e-12 * scale
        for a in agents:
            assert got[a].shape == want[a].shape
            error = np.max(np.abs(got[a] - want[a]), initial=0.0)
            assert error <= 1e-12 * scale


@pytest.mark.parametrize("eps", [0.0, 0.05])
@pytest.mark.parametrize("outside", [(), (4,), (4, 7)])
@pytest.mark.parametrize("block, observer", [(1, 1), (2, 4), (None, None)])
def test_maps_from_network_powers_match_augmented_system(eps, outside, block,
                                                         observer):
    decomp = weak7(eps)
    bank = (gen_bank() if block is None
            else detect.build_local_bank(decomp, block, observer, 1))
    assert_maps_match_augmented_powers(decomp.A, bank, outside)


@pytest.mark.parametrize("observer", [1, 4])
@pytest.mark.parametrize("outside", [(), (6,), (8, 12)])
def test_maps_match_augmented_system_for_a_k2_bank(observer, outside):
    decomp = k2_decomposition()
    bank = detect.build_local_bank(decomp, 1, observer, 2)
    assert len(bank.entries) == 12
    assert_maps_match_augmented_powers(decomp.A, bank, outside)


def k2_decomposition():
    A, partition = block_network((5, 3, 4), 0.05, np.random.default_rng(0),
                                 (3, 2, 2))
    return detect.block_decompose(A, partition)


@pytest.mark.parametrize("decomp, h, j, k", [
    (weak7(0.01), 1, 1, 1), (weak7(0.01), 2, 4, 1), (weak7(0.01), 2, 5, 0),
    (weak7(0.01), 2, 6, 2), (k2_decomposition(), 1, 1, 2),
    (k2_decomposition(), 1, 4, 2), (k2_decomposition(), 3, 9, 1)])
def test_local_bank_matches_per_target_loop(decomp, h, j, k):
    bank = detect.build_local_bank(decomp, h, j, k)
    want = local_bank_loop(decomp, h, j, k)
    assert [(e.target, e.decouple) for e in bank.entries] == [
        (c, D) for c, D, _ in want]
    for entry, (_, _, gen) in zip(bank.entries, want):
        assert entry.solvable == (gen is not None)
        if gen is None:
            assert entry.generator is None
            continue
        got = entry.generator
        assert got.horizon == gen.horizon
        for name in ("F", "E", "M", "H"):
            assert np.array_equal(getattr(got, name), getattr(gen, name))
    assert bank.eval_time == max([1] + [g.horizon for _, _, g in want if g])


def test_local_bank_rejects_negative_k():
    with pytest.raises(ValueError, match="k_j must be nonnegative, got -1"):
        detect.build_local_bank(weak7(0.01), 1, 1, -1)


def test_local_bank_rejects_an_observer_alone_in_its_block():
    decomp = detect.block_decompose(weak7_matrix(0.01),
                                    [[1], [2, 3], [4, 5, 6, 7]])
    with pytest.raises(ValueError, match="observer 1 is alone in block 1"):
        detect.build_local_bank(decomp, 1, 1, 1)


# An externally supplied decomposition is taken as given: A is rebuilt from
# its parts, the partition is copied, and a coupling wider than 2 is refused.
def test_decomposition_from_parts():
    given = weak7(0.01)
    assert np.max(np.abs(given.Delta).sum(axis=1)) == pytest.approx(2.0)
    partition = [[3, 1, 2], [7, 4, 5, 6]]
    decomp = detect.BlockDecomposition.from_parts(given.A_d, given.Delta,
                                                  0.02, partition)
    assert np.array_equal(decomp.A, given.A_d + 0.02 * given.Delta)
    assert decomp.epsilon == 0.02
    partition[0].append(8)
    assert decomp.partition == WEAK7_PARTITION
    assert not np.shares_memory(decomp.Delta, given.Delta)
    with pytest.raises(detect.BlockStructureError, match="unit width"):
        detect.BlockDecomposition.from_parts(given.A_d, 1.5 * given.Delta,
                                             0.02, WEAK7_PARTITION)


# A 6-agent block at k = 1 has 20 (target, set) pairs over 5 decoupled sets:
# the bank takes the fixpoints of the 5 sets, at most one parity null space
# per set at each window, and local identification runs each distinct
# generator once.
def test_local_bank_works_once_per_decoupled_set(monkeypatch):
    A, partition = block_network((6, 4), 0.001, np.random.default_rng(1),
                                 (2, 2))
    decomp = detect.block_decompose(A, partition)
    fixpoints, kernels = [], []
    invariants, parity = fdi._controlled_invariants, fdi._parity_weights
    null_spaces = fdi.numerics._kernels

    def counted_invariants(A, Bs, C):
        fixpoints.append(len(Bs))
        return invariants(A, Bs, C)

    def counted_kernels(Ms):
        kernels.append(len(Ms))
        return null_spaces(Ms)

    def counted_parity(powers, Bds, watched):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(fdi.numerics, "_kernels", counted_kernels)
            return parity(powers, Bds, watched)

    monkeypatch.setattr(fdi, "_controlled_invariants", counted_invariants)
    monkeypatch.setattr(fdi, "_parity_weights", counted_parity)
    bank = detect.build_local_bank(decomp, 1, 1, 1)
    assert len(bank.entries) == 20
    assert len({e.decouple for e in bank.entries}) == 5
    assert fixpoints == [5]
    # one stacked kernel call per window, each over at most the 5 sets
    assert 0 < len(kernels) <= len(bank.agents) and max(kernels) <= 5
    distinct = {(e.decouple, e.generator.horizon)
                for e in bank.entries if e.solvable}
    assert len(distinct) < sum(e.solvable for e in bank.entries)
    cal = detect.calibrate_threshold(decomp, bank, u_max=1.0, u_min=0.1)
    runs = count_calls(monkeypatch, fdi, "run_residual")
    ys = np.ones((cal.eval_time + 1, len(bank.observed)))
    detect.local_identification(decomp, bank, cal, ys)
    assert len(runs) == len(distinct)


# A bank with no solvable generator has no residual to place a threshold
# for: a calibration failure with no crossing, not an infinite threshold.
def test_calibration_without_a_solvable_generator_fails():
    bank = gen_bank()
    bank = replace(bank, entries=tuple(
        replace(e, generator=None, solvable=False) for e in bank.entries))
    with pytest.raises(detect.CalibrationError,
                       match="block 1 has no solvable generator") as failure:
        detect.calibrate_threshold(weak7(0.01), bank, u_max=1.0, u_min=0.1)
    assert (failure.value.epsilon_star, failure.value.crossing_value) == (
        None, None)


# Where the vertex certificate fails, the LP is assembled for the
# generators the brackets cannot prune, and only for those: both of WEAK7
# block 1 at 0.05 (every floor 0), 8 of the 12 of the k = 2 bank.
@pytest.mark.parametrize("decomp, h, j, k, outside", [
    (weak7(0.05), 1, 1, 1, (4, 7)), (k2_decomposition(), 1, 4, 2, (6,))])
def test_bound_lp_matches_column_by_column_assembly(decomp, h, j, k, outside,
                                                     monkeypatch):
    seen, kept, solved = [], [], []
    original = detect._BoundMaps.from_blocks

    def recorded(cls, active, silent):
        seen.append(active)
        return original(active, silent)

    monkeypatch.setattr(detect._BoundMaps, "from_blocks",
                        classmethod(recorded))
    lp, milp = detect._lp_box_min, scipy.optimize.milp

    def pruned(maps, keep, box, x_max):
        kept.append(keep)
        return lp(maps, keep, box, x_max)

    def solve(cost, **kwargs):
        solved.append(kwargs["constraints"].A)
        return milp(cost, **kwargs)

    monkeypatch.setattr(detect, "_lp_box_min", pruned)
    monkeypatch.setattr(scipy.optimize, "milp", solve)
    bank = detect.build_local_bank(decomp, h, j, k)
    detect.certified_bounds(decomp, bank, 0.1, 1.0, outside=outside)
    assert len(kept) == len(solved) == 1
    assert 0 < len(kept[0]) <= len(seen[0])
    got = solved[0]
    want = bound_lp_columns([seen[0][e] for e in kept[0]])
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part))


@pytest.mark.parametrize("q, n, m", [(1, 3, 1), (2, 7, 2), (3, 5, 6)])
@pytest.mark.parametrize("box", [(0.1, 1.0), (-0.3, 0.7), (0.5, 0.5)])
def test_box_max_equals_vertex_enumeration(q, n, m, box):
    rng = np.random.default_rng(q * 100 + n * 10 + m)
    Psi_x = rng.normal(size=(q, n))
    samples = rng.normal(size=(m, q))
    samples[0] = 0.0
    coeffs = {a: samples[a:a + 1] for a in range(m)}
    want = box_max_vertices(Psi_x, coeffs, {a: box for a in range(m)}, 0.7)
    maps = detect._BoundMaps.from_blocks([], [(Psi_x, samples)])
    got = detect._box_max(maps, box, 0.7)
    assert got == pytest.approx(want, rel=1e-12)


def test_joint_box_min_is_least_per_generator_minimum():
    rng = np.random.default_rng(5)
    box = (0.2, 0.9)
    blocks, mins = [], []
    for q, n, m in ((2, 4, 1), (3, 4, 2), (1, 4, 3)):
        Psi_x = 0.05 * rng.normal(size=(q, n))
        samples = rng.normal(size=(m, q))
        blocks.append((Psi_x, samples))
        coeffs = {a: samples[a:a + 1] for a in range(m)}
        mins.append(box_min_lp(Psi_x, coeffs, {a: box for a in range(m)}, 1.0))
    maps = detect._BoundMaps.from_blocks(blocks, [])
    assert detect._joint_box_min(maps, box, 1.0) == pytest.approx(
        min(mins), rel=1e-9, abs=1e-12)
    empty = detect._BoundMaps.from_blocks([], [])
    assert detect._joint_box_min(empty, box, 1.0) == np.inf
    assert detect._box_max(empty, box, 1.0) == 0.0


# The least bound, certified or settled by the pruned LP, is the least
# per-generator LP minimum, and each generator's brackets hold its own
# minimum, on random blocks and boxes: exact zero coefficients (all of
# Psi_x at scale 0), uneven sample counts and boxes that straddle 0.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 4),
       n=st.integers(1, 4), scale=st.sampled_from([0.0, 0.05, 1.0]),
       lo=st.floats(-0.5, 1.0), width=st.floats(0.0, 1.0),
       x_max=st.floats(0.0, 1.0))
def test_least_bound_is_the_least_per_generator_lp(seed, count, n, scale, lo,
                                                   width, x_max):
    rng = np.random.default_rng(seed)
    box = (lo, lo + width)
    blocks, mins = [], []
    for _ in range(count):
        q, m = rng.integers(1, 4), rng.integers(0, 4)
        Psi_x = scale * rng.normal(size=(q, n)) * (rng.random((q, n)) < 0.7)
        samples = rng.normal(size=(m, q)) * (rng.random((m, q)) < 0.8)
        blocks.append((Psi_x, samples))
        coeffs = {a: samples[a:a + 1] for a in range(m)}
        mins.append(box_min_lp(Psi_x, coeffs, {a: box for a in range(m)},
                               x_max))
    maps = detect._BoundMaps.from_blocks(blocks, [])
    floor, cap = detect._box_min_brackets(maps, box, x_max)
    mins = np.array(mins)
    assert np.all(floor <= mins * (1 + 1e-9) + 1e-12)
    assert np.all(mins <= cap * (1 + 1e-9) + 1e-12)
    assert detect._joint_box_min(maps, box, x_max) == pytest.approx(
        mins.min(), rel=1e-9, abs=1e-12)


# One fixture per path of the least bound, each matching the per-generator
# LPs: certified with no LP; one LP over the 2 of 6 generators whose floor
# does not exceed the least cap; one LP over both generators when every
# floor is 0 and the least cap is not (WEAK7 block 1 at 0.05: at 0.1 the
# least cap is a rounding of 0 and certifies the bound).
@pytest.mark.parametrize("eps, h, j, solved, zero_floors", [
    (0.01, 1, 1, [], False), (0.05, 2, 4, [2], False),
    (0.05, 1, 1, [2], True)],
    ids=["certified", "pruned", "zero-floors"])
def test_least_bound_takes_each_path(eps, h, j, solved, zero_floors,
                                     monkeypatch):
    decomp = weak7(eps)
    bank = detect.build_local_bank(decomp, h, j, 1)
    maps = detect._coefficient_maps(decomp, bank, eps, ())
    floor, cap = detect._box_min_brackets(maps, (0.1, 1.0), 1.0)
    assert (floor.min() == cap.min()) == (not solved)
    assert floor.any() == (not zero_floors)
    sizes = []
    milp = scipy.optimize.milp

    def solve(cost, **kwargs):
        sizes.append(int(cost.sum()))
        return milp(cost, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", solve)
    assert_bounds_match(decomp, bank, 0.1, ())
    assert sizes == solved


# Brackets apart by no more than their rounding certify the floor, the
# conservative end: at 0.1 every WEAK7 block-1 floor is 0 and the least cap
# a rounding of 0, so no LP is solved and the bound is the LP optimum 0.
def test_near_tie_certifies_the_floor(monkeypatch):
    decomp = weak7(0.1)
    bank = detect.build_local_bank(decomp, 1, 1, 1)
    maps = detect._coefficient_maps(decomp, bank, 0.1, ())
    floor, cap = detect._box_min_brackets(maps, (0.1, 1.0), 1.0)
    assert floor.min() == 0.0 < cap.min() < 1e-14
    lps = count_calls(monkeypatch, scipy.optimize, "milp")
    assert detect._joint_box_min(maps, (0.1, 1.0), 1.0) == 0.0
    assert lps == []
    assert reference(decomp, bank, 0.1, ())[0] == pytest.approx(0.0, abs=1e-15)


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# A bound evaluation solves no LP when the vertex certificate settles it
# (every generator of block 2 has floor == cap at 0.01) and one LP when it
# does not (at 0.05 both block-1 floors are 0, the least cap 0.05).
def test_one_lp_per_bound_evaluation(monkeypatch):
    lps = count_calls(monkeypatch, scipy.optimize, "milp")
    decomp = weak7(0.01)
    bank = detect.build_local_bank(decomp, 2, 4, 1)
    assert len(bank.entries) == 6
    detect.certified_bounds(decomp, bank, 0.1, 1.0, outside=(2,))
    assert len(lps) == 0
    decomp = weak7(0.05)
    detect.certified_bounds(decomp, detect.build_local_bank(decomp, 1, 1, 1),
                            0.1, 1.0)
    assert len(lps) == 1


# Placing the threshold takes one map build and, certified, no LP;
# alpha_min, which the verdict never reads, bisects the input floor on the
# same maps only when it is read, with at most one LP per evaluation.
def test_calibration_builds_the_maps_once(monkeypatch):
    decomp = weak7(0.01)
    bank = detect.build_local_bank(decomp, 1, 1, 1)
    maps = count_calls(monkeypatch, detect, "_coefficient_maps")
    evaluations = count_calls(monkeypatch, detect, "_bounds_from_maps")
    lps = count_calls(monkeypatch, scipy.optimize, "milp")
    cal = detect.calibrate_threshold(decomp, bank, u_max=1.0, u_min=0.1)
    assert (len(maps), len(evaluations), len(lps)) == (1, 1, 0)
    cal.alpha_min
    assert len(maps) == 1
    assert len(evaluations) > 10
    assert len(lps) <= len(evaluations)


@pytest.mark.parametrize("decomp, h, j, k", [
    (weak7(0.01), 1, 1, 1),
    (detect.block_decompose(*block_network((5, 3, 4), 0.01,
                                           np.random.default_rng(0),
                                           (3, 2, 2))), 1, 1, 2)])
def test_alpha_min_is_the_eager_bisection_read_once(decomp, h, j, k,
                                                    monkeypatch):
    bank = detect.build_local_bank(decomp, h, j, k)
    want = smallest_separating_ratio_eager(decomp, bank, 1.0)
    cal = detect.calibrate_threshold(decomp, bank, u_max=1.0, u_min=0.1)
    assert cal.alpha_min == want
    lps = count_calls(monkeypatch, scipy.optimize, "milp")
    assert cal.alpha_min == want
    assert lps == []


# Above the crossing the search runs on [0, epsilon] and reuses the failed
# evaluation at epsilon; bisecting [0, 1] down to 1e-5 would take 21 map
# builds.
def test_crossing_search_builds_few_maps(monkeypatch):
    decomp = weak7(0.1)
    bank = detect.build_local_bank(decomp, 1, 1, 1)
    maps = count_calls(monkeypatch, detect, "_coefficient_maps")
    with pytest.raises(detect.CalibrationError):
        detect.calibrate_threshold(decomp, bank, u_max=1.0, u_min=0.1)
    assert len(maps) <= 7


class FailedLP:
    success = False
    message = "infeasible"


# At its own coupling 0.05, block 1 of WEAK7 has floors 0 and a least cap
# of 0.05, so the certificate fails and the (failing) LP is reached.
def test_failed_bound_lp_raises(monkeypatch):
    monkeypatch.setattr(scipy.optimize, "milp", lambda *a, **k: FailedLP())
    decomp = weak7(0.05)
    bank = detect.build_local_bank(decomp, 1, 1, 1)
    with pytest.raises(RuntimeError, match="bound LP failed"):
        detect.certified_bounds(decomp, bank, 0.1, 1.0)


def test_failed_bound_lp_exits_calibration(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(scipy.optimize, "milp", lambda *a, **k: FailedLP())
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "matrix": {"rows": weak7_matrix(0.05).tolist()},
        "partition": [list(b) for b in WEAK7_PARTITION], "observer": 1,
        "block": 1, "k": 1, "horizon": 30,
        "attacks": [{"agent": 2, "kind": "constant", "value": 0.5}]}))
    out = tmp_path / "out"
    code = cli.main(["local-identify", "--scenario", str(path),
                     "--out", str(out)])
    assert code == cli.EXIT_CALIBRATION
    assert "bound LP failed: infeasible" in capsys.readouterr().out
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["status"] == "calibration_failure"
    assert verdict["epsilon_star"] is None


def test_inverted_input_band_is_invalid():
    decomp = weak7(0.01)
    with pytest.raises(ValueError, match="u_min <= u_max"):
        detect.certified_bounds(decomp, gen_bank(), 0.5, 0.1)


# A band no bound LP can use: a negative or NaN x_max made the LP fail, an
# infinite u_max gave a NaN threshold.
@pytest.mark.parametrize("band, message", [
    ((0.1, 1.0, -1.0), "x_max must be finite and nonnegative"),
    ((0.1, 1.0, np.nan), "x_max must be finite and nonnegative"),
    ((0.1, np.inf, 1.0), "u_min <= u_max")],
    ids=["x_max-negative", "x_max-nan", "u_max-inf"])
def test_non_finite_or_negative_band_is_invalid(band, message):
    decomp = weak7(0.01)
    bank = detect.build_local_bank(decomp, 1, 1, 1)
    u_min, u_max, x_max = band
    with pytest.raises(ValueError, match=message):
        detect.certified_bounds(decomp, bank, u_min, u_max, x_max)
    with pytest.raises(ValueError, match=message):
        detect.calibrate_threshold(decomp, bank, u_max=u_max, u_min=u_min,
                                   x_max=x_max)


# An agent of ``outside`` beyond 1..n used to index past the maps (99) or
# wrap round to agent n through index -1 (0).
@pytest.mark.parametrize("agent", [99, 0])
def test_outside_agent_out_of_range_is_invalid(agent):
    decomp = weak7(0.01)
    bank = detect.build_local_bank(decomp, 1, 1, 1)
    with pytest.raises(ValueError, match=f"agent {agent} outside 1..7"):
        detect.certified_bounds(decomp, bank, 0.1, 1.0, outside=(agent,))
    with pytest.raises(ValueError, match=f"agent {agent} outside 1..7"):
        detect.calibrate_threshold(decomp, bank, 1.0, 0.1, outside=(agent,))


# Reference values of WEAK7 block 1 seen from agent 1, k = 1, inputs in
# [0.1, 1], |x0| <= 1, measured before the bound LPs were stacked.
def test_weak7_calibration_below_crossing():
    decomp = weak7(0.01)
    bank = detect.build_local_bank(decomp, 1, 1, 1)
    assert detect.certified_bounds(decomp, bank, 0.1, 1.0) == pytest.approx(
        (0.08, 0.02), rel=1e-9)
    cal = detect.calibrate_threshold(decomp, bank, u_max=1.0, u_min=0.1)
    assert cal.eval_time == 1
    assert cal.T_h == pytest.approx(0.05, rel=1e-9)
    assert cal.bound_misbehaving == pytest.approx(0.08, rel=1e-9)
    assert cal.bound_wellbehaving == pytest.approx(0.02, rel=1e-9)
    assert cal.alpha == pytest.approx(10.0, rel=1e-9)
    assert cal.alpha_min == pytest.approx(4.0039, abs=1e-4)


def test_weak7_calibration_above_crossing():
    decomp = weak7(0.1)
    bank = detect.build_local_bank(decomp, 1, 1, 1)
    with pytest.raises(detect.CalibrationError) as err:
        detect.calibrate_threshold(decomp, bank, u_max=1.0, u_min=0.1)
    assert err.value.epsilon_star == pytest.approx(0.0250, abs=1e-4)
    assert err.value.crossing_value == pytest.approx(0.0500, abs=1e-4)


@pytest.mark.parametrize("outside", [(), (4, 7)])
@pytest.mark.parametrize("reference_bank", [True, False])
def test_bound_curves_are_certified_bounds_per_epsilon(reference_bank, outside):
    decomp = weak7(0.05)
    bank = gen_bank() if reference_bank else detect.build_local_bank(decomp, 1, 1, 1)
    epsilons = [0.0, 0.01, 0.025, 0.1]
    mis, well = detect.bound_curves(decomp, bank, 0.1, 1.0, epsilons,
                                    outside=outside)
    for eps, lo, hi in zip(epsilons, mis, well):
        assert (lo, hi) == detect.certified_bounds(decomp, bank, 0.1, 1.0,
                                                   outside=outside, epsilon=eps)


@pytest.mark.parametrize("reference_bank", [True, False])
def test_threshold_crossing_is_where_the_bounds_meet(reference_bank):
    decomp = weak7(0.05)
    bank = gen_bank() if reference_bank else detect.build_local_bank(decomp, 1, 1, 1)
    tol = 1e-5
    eps_star, value = detect.threshold_crossing(decomp, bank, 0.1, 1.0, tol=tol)
    assert 0.0 < eps_star < 1.0
    mis, well = detect.bound_curves(decomp, bank, 0.1, 1.0,
                                    [eps_star - tol, eps_star, eps_star + tol])
    gap = mis - well
    # the misbehaving bound still leads a search tolerance below the
    # crossing and no longer leads one above it ...
    assert gap[0] > 0.0 >= gap[2]
    # ... so at the crossing the bounds differ by less than that bracket
    assert abs(gap[1]) <= gap[0] - gap[2]
    assert value == mis[1]


# Two or three blocks of 3-5 agents, at most 10 in all (11 once a k = 2
# block grows to 4), so that the oracle's vertex enumeration (2^(n + t* m)
# vertices) stays small.
BLOCK_SIZES = [s for blocks in (2, 3)
               for s in product(range(3, 6), repeat=blocks) if sum(s) <= 10]


def random_block_bank(data, k, sizes, eps):
    """A random weakly coupled network's local bank, a random block and
    observer of it, and up to one acting agent outside the block."""
    sizes = list(sizes)
    h = data.draw(st.integers(1, len(sizes)), label="block")
    if k == 2:
        sizes[h - 1] = max(sizes[h - 1], 4)
    connectivity = [k + 1 if b == h - 1 else 2 for b in range(len(sizes))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    A, partition = block_network(sizes, eps, rng, connectivity)
    decomp = detect.block_decompose(A, partition)
    j = data.draw(st.sampled_from(partition[h - 1]), label="observer")
    bank = detect.build_local_bank(decomp, h, j, k)
    foreign = [a for b, block in enumerate(partition) if b != h - 1
               for a in block]
    outside = tuple(sorted(data.draw(st.lists(st.sampled_from(foreign),
                                              max_size=1), label="outside")))
    return decomp, bank, outside


# The stacked LP, the shared network powers and the closed-form maximum
# agree with one LP and one vertex enumeration per generator on random
# weakly coupled networks.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(1, 2), sizes=st.sampled_from(BLOCK_SIZES),
       eps=st.floats(1e-3, 0.3), u_min=st.floats(0.05, 0.5))
def test_certified_bounds_match_per_generator_oracles(data, k, sizes, eps,
                                                      u_min):
    decomp, bank, outside = random_block_bank(data, k, sizes, eps)
    got = detect.certified_bounds(decomp, bank, u_min, 1.0, 1.0, outside)
    want = certified_bounds_per_generator(residual_coefficients, decomp, bank,
                                          u_min, 1.0, 1.0, outside)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


# Brent's method lands within the tolerance of the crossing the bisection
# finds, on random weakly coupled networks, and reports the misbehaving
# bound at the coupling it returns.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(1, 2), sizes=st.sampled_from(BLOCK_SIZES),
       eps=st.floats(1e-3, 0.3), u_min=st.floats(0.05, 0.5))
def test_threshold_crossing_matches_the_bisection(data, k, sizes, eps, u_min):
    decomp, bank, outside = random_block_bank(data, k, sizes, eps)
    tol = 1e-5
    eps_star, value = detect.threshold_crossing(decomp, bank, u_min, 1.0,
                                                outside=outside, tol=tol)
    want, _ = threshold_crossing_bisection(decomp, bank, u_min, 1.0,
                                           outside=outside, tol=tol)
    if not 0.0 < want < np.inf:
        assert (eps_star, value) == (want, want)
        return
    mis, well = detect.bound_curves(decomp, bank, u_min, 1.0,
                                    [eps_star - tol, eps_star, eps_star + tol],
                                    outside=outside)
    gap = mis - well
    assert gap[0] > 0.0 >= gap[2]
    assert abs(eps_star - want) <= tol
    assert value == mis[1]

