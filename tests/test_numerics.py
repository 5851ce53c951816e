import numpy as np
import pytest

from netguard.consensus import input_matrix
from netguard.fdi import _meets_trivially
from netguard.numerics import (Subspace, _negligible, _numeric_ranks,
                               get_policy, image, kernel, left_fixed_vector,
                               rank, subspace_sum, zero_subspace)
from netguard.sysan import Triple, pencil

from fixtures import (BENCH8_A, UNSTABLE_ZEROS_A, UNSTABLE_ZEROS_INPUTS,
                      UNSTABLE_ZEROS_OBSERVER, observer_matrix)
from oracles import same_span


def e(i, n=3):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def meets_trivially(S, U):
    """The isolability rule of ``netguard.fdi`` for one subspace ``U``."""
    return bool(_meets_trivially(S.basis, U.basis[None])[0])


def test_image_identity_is_full():
    S = image(np.eye(3))
    assert S.dim == 3


def test_image_zero_matrix_is_trivial():
    assert image(np.zeros((3, 2))).dim == 0


def test_image_rank_one():
    S = image(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert S.dim == 1
    direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert S.contains(direction)


def test_kernel_identity_trivial():
    assert kernel(np.eye(4)).dim == 0


def test_kernel_zero_matrix_full():
    assert kernel(np.zeros((2, 3))).dim == 3


def test_kernel_row_vector():
    S = kernel(np.array([[1.0, 1.0]]))
    assert S.dim == 1
    assert S.contains(np.array([1.0, -1.0]) / np.sqrt(2.0))


def test_sum_of_axes():
    S = subspace_sum(image(e(0).reshape(3, 1)), image(e(1).reshape(3, 1)))
    assert S.dim == 2
    assert S.contains(e(0)) and S.contains(e(1))


def test_sum_idempotent_and_with_zero():
    S = image(np.array([[1.0, 0], [1, 1], [0, 1]]))
    assert same_span(subspace_sum(S, S), S)
    assert same_span(subspace_sum(S, zero_subspace(3)), S)


def test_sum_dimension_mismatch():
    with pytest.raises(ValueError):
        subspace_sum(zero_subspace(3), zero_subspace(4))


def test_intersection_of_planes():
    S1 = image(np.column_stack([e(0), e(1)]))
    S2 = image(np.column_stack([e(1), e(2)]))
    assert not meets_trivially(S1, S2)          # they share the line of e(1)
    assert meets_trivially(S1, image(e(2).reshape(3, 1)))
    assert not meets_trivially(S1, image(e(1).reshape(3, 1)))


def test_intersection_with_zero_and_self():
    S = image(np.column_stack([e(0), e(2)]))
    assert meets_trivially(S, zero_subspace(3))
    assert meets_trivially(zero_subspace(3), S)
    assert not meets_trivially(S, S)


def test_contains_basics():
    S = image(np.column_stack([e(0)]))
    assert S.contains(e(0))
    assert not S.contains(e(1))
    assert not zero_subspace(3).contains(e(0))
    assert zero_subspace(3).contains(np.zeros(3))


# Membership is relative to the vector alone: a direction off the
# subspace stays off it however small the vector, and scaling never
# changes the answer.
def test_contains_is_scale_free():
    S = image(np.array([[1.0], [0.0]]))
    assert not S.contains([0.0, 1e-9])
    assert S.contains([1e-9, 0.0])
    for scale in (1e-12, 1.0, 1e12):
        assert S.contains(scale * np.array([1.0, 1e-10]))
        assert not S.contains(scale * np.array([1.0, 1e-6]))


# A signal is zero against a scale, never against an absolute floor.
def test_negligible_is_relative():
    for scale in (1e-12, 1.0, 1e12):
        assert _negligible(scale * np.array([1e-7, -1e-8]),
                           scale * np.array([[1.0], [-0.5]]), 1e-7)
        assert not _negligible(scale * np.array([2e-7]), [scale], 1e-7)
    assert _negligible(np.zeros(3), np.zeros(2), 1e-7)
    assert _negligible([], [], 1e-7)
    assert not _negligible([1e-300], [0.0], 1e-7)


def test_same_span_different_bases():
    S1 = image(np.column_stack([e(0), e(1)]))
    S2 = image(np.column_stack([e(0) + e(1), e(0) - e(1)]))
    assert same_span(S1, S2)
    assert not same_span(S1, image(np.column_stack([e(0), e(2)])))
    assert not same_span(S1, image(e(0).reshape(3, 1)))


def test_orthonormality_enforced():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


# image and kernel skip the check on their SVD factors; those bases pass it
@pytest.mark.parametrize("seed", range(5))
def test_trusted_bases_are_orthonormal(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        r, q, c = rng.integers(1, 8), rng.integers(0, 8), rng.integers(1, 8)
        M = rng.standard_normal((r, q)) @ rng.standard_normal((q, c))
        for S in (image(M), kernel(M)):
            Subspace(S.ambient_dim, S.basis.copy())
            assert not S.basis.flags.writeable


# dim(S + U) = dim S + dim U - dim(S ^ U): U meets S trivially exactly
# when the dimensions add.  Part of U is drawn inside S, so both occur.
@pytest.mark.parametrize("seed", range(5))
def test_dimension_formula_sum_intersection(seed):
    rng = np.random.default_rng(seed)
    n = 6
    for _ in range(20):
        S = image(rng.standard_normal((n, rng.integers(0, 5))))
        shared = S.basis @ rng.standard_normal((S.dim, rng.integers(0, 2)))
        U = image(np.hstack([shared, rng.standard_normal((n, rng.integers(0, 3)))]))
        adds = subspace_sum(S, U).dim == S.dim + U.dim
        assert meets_trivially(S, U) == adds


@pytest.mark.parametrize("seed", range(5))
def test_rank_nullity(seed):
    rng = np.random.default_rng(100 + seed)
    M = rng.standard_normal((4, 6)) @ np.diag(rng.integers(0, 2, 6).astype(float))
    assert image(M).dim + kernel(M).dim == M.shape[1]


# The rank cut of a stack takes array calls, and of one row scalar ones; both
# make the same decisions, also for values a rounding away from the cut, with
# each row's largest singular value, one scale per row or one for all.
@pytest.mark.parametrize("seed", range(5))
def test_rank_cut_of_one_row_matches_the_stack(seed):
    rng = np.random.default_rng(seed)
    rel, floor = get_policy().rank_rel, get_policy().zero_abs
    s = np.sort(rng.uniform(0.0, 2.0, (40, 6)), axis=1)[:, ::-1].copy()
    scales = rng.uniform(0.5, 2.0, 40)
    s[::4, 3] = s[::4, 0] * rel
    s[1::4, 2] = np.nextafter(scales[1::4] * rel, np.inf)
    s[2::4, 4:] = floor
    s[3::4] = 0.0
    for cut in (None, scales, 1.0):
        rows = [None if cut is None else (cut if np.isscalar(cut) else cut[i:i + 1])
                for i in range(len(s))]
        stacked = _numeric_ranks(s, cut)
        assert len(set(stacked.tolist())) > 1
        assert stacked.tolist() == [int(_numeric_ranks(s[i:i + 1], c)[0])
                                    for i, c in enumerate(rows)]


def test_left_fixed_vector_doubly_stochastic():
    A = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    pi = left_fixed_vector(A)
    assert np.allclose(pi, np.ones(3) / 3)


def test_left_fixed_vector_swap():
    pi = left_fixed_vector(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(pi, [0.5, 0.5])


def test_left_fixed_vector_benchmark_residual():
    pi = left_fixed_vector(BENCH8_A)
    assert np.max(np.abs(pi @ BENCH8_A - pi)) < 1e-10
    assert np.min(pi) >= -1e-12
    assert abs(pi.sum() - 1.0) < 1e-12
    # agrees with the eigenvector of the transpose at eigenvalue one
    w, V = np.linalg.eig(BENCH8_A.T)
    k = int(np.argmin(np.abs(w - 1.0)))
    ref = np.real(V[:, k])
    ref = ref / ref.sum()
    assert np.max(np.abs(pi - ref)) < 1e-10


def test_left_fixed_vector_rejects_nonstochastic():
    with pytest.raises(ValueError):
        left_fixed_vector(np.array([[0.5, 0.2], [0.3, 0.7]]))
    with pytest.raises(ValueError):
        left_fixed_vector(np.array([[1.5, -0.5], [0.0, 1.0]]))


def test_left_fixed_vector_uniqueness_is_structural(monkeypatch):
    policy = get_policy()
    monkeypatch.setattr(policy, "rank_rel", 0.5)
    pi = left_fixed_vector(BENCH8_A)
    assert np.max(np.abs(pi @ BENCH8_A - pi)) < 1e-10
    # two closed classes: two stochastic diagonal blocks
    block = np.array([[0.5, 0.5], [0.25, 0.75]])
    A = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
    with pytest.raises(ValueError, match="not unique"):
        left_fixed_vector(A)
    # one closed class reached from a transient state
    assert np.allclose(left_fixed_vector([[0.5, 0.5], [0.0, 1.0]]), [0.0, 1.0])


def _complex_rank_deficient(rng, rows, cols, r):
    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return draw((rows, r)) @ draw((r, cols))


def _unstable_pencil_at(z):
    B = input_matrix(8, UNSTABLE_ZEROS_INPUTS)
    C = observer_matrix(UNSTABLE_ZEROS_A, UNSTABLE_ZEROS_OBSERVER)
    return pencil(Triple.from_matrices(UNSTABLE_ZEROS_A, B, C), z)


@pytest.mark.parametrize("case", range(6))
def test_kernel_of_complex_matrix(case):
    if case < 5:
        rng = np.random.default_rng(900 + case)
        rows, cols = rng.integers(2, 8), rng.integers(3, 8)
        M = _complex_rank_deficient(rng, rows, cols,
                                    int(rng.integers(1, min(rows, cols - 1) + 1)))
    else:
        # -2 is an invariant zero of the unstable fixture: the pencil drops rank
        M = _unstable_pencil_at(-2.0)
    K = kernel(M)
    cols = M.shape[1]
    assert K.dim == cols - rank(M) > 0
    assert np.allclose(K.basis.conj().T @ K.basis, np.eye(K.dim), atol=1e-12)
    assert np.linalg.norm(M @ K.basis) < 1e-10 * np.linalg.norm(M)


def test_complex_subspace_uses_conjugate_transpose():
    S = image(np.array([[1.0], [1j]]))
    v = np.array([1.0, 1j])
    # with a plain transpose, b.T @ v = (1 + i*i)/sqrt(2) = 0
    assert S.contains(v)
    assert not S.contains(np.array([1.0, -1j]))
    assert np.allclose(S.projector() @ v, v)
    assert np.allclose(S.projector(), S.projector().conj().T)
