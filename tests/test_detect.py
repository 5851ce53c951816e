from itertools import combinations

import numpy as np
import pytest

from netguard import consensus, detect, fdi

from fixtures import BENCH8_A, RING9_A


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
        if report.generator is None:
            expected.add(((), D))
            continue
        for i in (a for a in others if a not in D):
            if not fdi.fdi_solvable(net.A, [consensus.input_matrix(n, [i]), B_D],
                                    C, 0):
                expected.add((i, D))
    assert len(expected) == (20 if A is RING9_A else 0)
    assert set(verdict.unsolvable) == expected
    assert verdict.unsolvable == tuple(sorted(expected))
