"""Independent oracles used to cross-check the geometric computations.

The invariant-subspace oracles run the defining fixpoint iterations in
exact rational arithmetic (sympy), entirely separate from the SVD-based
implementations under test.  The residual-bound oracles solve one LP per
generator and enumerate box vertices, where ``netguard.detect`` stacks
the LPs and uses a closed form, and :func:`residual_coefficients` raises
each generator's augmented filter-over-network matrix to every power,
where ``detect`` reads the maps from shared network powers through the
filter's Markov blocks.  :func:`pencil_svd_zeros` verifies each candidate
zero by a rank drop of the system pencil and takes its direction from the
pencil's null space, where ``netguard.sysan`` reads it from an eigenpair
of the zero dynamics.  :func:`consistent_sets` tests every candidate
set against every fired generator, where ``detect`` looks candidates up
among the subsets of the fired decoupled sets.
:func:`simulate_reference` is the step-by-step simulation loop that
``netguard.consensus.simulate`` replaced with precomputed input columns,
and :func:`filter_run_reference` steps the detection filter with
``np.dot(out=)`` and ``np.add``, where ``DetectionFilter.run`` adds a
bound ``dot`` of the loop matrix to the drive.  :func:`parity_weights_scan`
is the parity-window search that rebuilds both window maps for every
``L = 1..n``, and :func:`run_residual_steps` steps the filter recursion
one sample at a time, where ``netguard.fdi`` grows the maps once and
convolves with the filter's Markov blocks.  :func:`synthesis_loop` is
one candidate's synthesis as separate calls: the V* and S* loops of one
decoupled set, one 2-d SVD per image or kernel, and the parity search
growing its own powers, where ``netguard.fdi`` advances a whole bank in
stacked SVDs on shared powers; :func:`controlled_invariant_recompute` is
the V* loop that takes the whole complement of ``V_k + Im B`` at every
step, where ``fdi`` cuts by the directions it gained in the last one.
:func:`local_bank_loop` synthesizes a local bank one target at a time on
hand-built input matrices, where
``netguard.detect`` makes one bank call for the whole block, and
:func:`bound_lp_columns` assembles the joint bound LP column by column,
where ``detect`` places the kept generators' nonzero entries in one
vector pass (``_BoundMaps.lp_rows``).  :func:`threshold_crossing_bisection`
bisects the bound gap on ``[0, eps_hi]``, where ``detect`` runs Brent's
method on memoised evaluations, and
:func:`smallest_separating_ratio_eager` bisects the input floor as soon
as it is called, where ``detect`` does so when ``alpha_min`` is first
read.  :func:`wielandt_primitive` decides primitivity by boolean matrix
powers up to the Wielandt exponent, where ``netguard.consensus`` reads
it from the period of the support digraph, and
:func:`vertex_connectivity_bruteforce` removes every vertex set in turn,
and :func:`vertex_connectivity_even` runs Even's scan of the local
connectivities to and from v_1 .. v_{k+1}, one max-flow per scanned
vertex, where ``netguard.graph`` takes one max-flow over the
Esfahanian-Hakimi pairs of a single vertex.
:func:`observability_kernel` is the unobservable subspace by the Kalman
test, the kernel of the stacked ``C A^s`` for ``s < n``, where
``netguard.consensus`` takes V* with no inputs.
"""

from fractions import Fraction
from itertools import combinations, product

import numpy as np
import scipy.optimize
import scipy.sparse
import sympy

from netguard import detect, fdi, sysan
from netguard.graph import (DiGraph, _local_connectivities,
                            is_strongly_connected)
from netguard.consensus import Trajectory, _output_matrix
from netguard.numerics import (_numeric_rank, as_matrix, as_vector, get_policy,
                               kernel, rank)


def _span(cols):
    """Reduced exact basis (as a sympy Matrix of column vectors)."""
    if not cols:
        return []
    M = sympy.Matrix.hstack(*cols)
    basis = M.columnspace()
    return basis


def _kernel(M):
    return M.nullspace()


def _subspace_sum(b1, b2):
    return _span(b1 + b2)


def _subspace_intersect(b1, b2, n):
    if not b1 or not b2:
        return []
    M = sympy.Matrix.hstack(sympy.Matrix.hstack(*b1), -sympy.Matrix.hstack(*b2))
    coeffs = M.nullspace()
    B1 = sympy.Matrix.hstack(*b1)
    vecs = [B1 * c[:len(b1), :] for c in coeffs]
    return _span([v for v in vecs if not v.is_zero_matrix])


def _preimage(A, basis, n):
    """{x : A x in span(basis)} via the stacked nullspace."""
    if not basis:
        return _kernel(A)
    M = sympy.Matrix.hstack(A, -sympy.Matrix.hstack(*basis))
    sol = M.nullspace()
    vecs = [s[:n, :] for s in sol]
    return _span([v for v in vecs if not v.is_zero_matrix])


def _dims_equal(b1, b2, n):
    if len(b1) != len(b2):
        return False
    if not b1:
        return True
    M = sympy.Matrix.hstack(sympy.Matrix.hstack(*b1), sympy.Matrix.hstack(*b2))
    return M.rank() == len(b1)


def same_span(S1, S2) -> bool:
    """Two subspaces are equal: the same dimension, and their stacked bases
    have that rank under the shared rank tolerance."""
    return S1.dim == S2.dim == rank(np.hstack([S1.basis, S2.basis]))


def exact_controlled_invariant(A, B, C):
    """Largest subspace of Ker C with A V <= V + Im B, exactly."""
    A, B, C = map(_to_rational, (A, B, C))
    n = A.shape[0]
    imB = _span([B[:, k] for k in range(B.shape[1])])
    V = _kernel(C) if C.rows else [sympy.eye(n)[:, k] for k in range(n)]
    for _ in range(n + 1):
        target = _subspace_sum(V, imB)
        pre = _preimage(A, target, n)
        kerC = _kernel(C) if C.rows else [sympy.eye(n)[:, k] for k in range(n)]
        nxt = _subspace_intersect(kerC, pre, n)
        if _dims_equal(nxt, V, n):
            break
        V = nxt
    return _to_numpy_basis(V, n)


def exact_conditioned_invariant(A, B, C):
    """Smallest subspace containing Im B with A (S ^ Ker C) <= S, exactly."""
    A, B, C = map(_to_rational, (A, B, C))
    n = A.shape[0]
    imB = _span([B[:, k] for k in range(B.shape[1])])
    kerC = _kernel(C) if C.rows else [sympy.eye(n)[:, k] for k in range(n)]
    S = imB
    for _ in range(n + 1):
        inter = _subspace_intersect(S, kerC, n)
        mapped = _span([A * v for v in inter]) if inter else []
        nxt = _subspace_sum(imB, mapped)
        if _dims_equal(nxt, S, n):
            break
        S = nxt
    return _to_numpy_basis(S, n)


def _to_rational(M):
    M = np.asarray(M)
    out = sympy.zeros(M.shape[0], M.shape[1] if M.ndim > 1 else 1)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            out[i, j] = sympy.Rational(Fraction(M[i, j]).limit_denominator(10**9))
    return out


def _to_numpy_basis(basis, n):
    if not basis:
        return np.zeros((n, 0))
    return np.array(sympy.Matrix.hstack(*basis), dtype=float)


def simulate_reference(net, x0, attacks=(), T: int = 100) -> Trajectory:
    """``x(t+1) = A x(t) + B_K u_K(t)``, every input evaluated per step."""
    if T < 1:
        raise ValueError("horizon must be at least 1")
    A = net.A
    n = net.n
    x = as_vector(x0, "initial state").copy()
    if x.size != n:
        raise ValueError("initial state dimension mismatch")
    attacks = list(attacks)
    for atk in attacks:
        if not 1 <= atk.agent <= n:
            raise ValueError(f"attack agent {atk.agent} outside 1..{n}")
        if atk.kind == "initial_offset":
            x[atk.agent - 1] += atk.value
    active = [a for a in attacks if a.kind != "initial_offset"]
    agents = tuple(sorted({a.agent for a in active}))
    col = {a: k for k, a in enumerate(agents)}
    states = np.zeros((T + 1, n))
    inputs = np.zeros((T, len(agents)))
    states[0] = x
    for t in range(T):
        u = np.zeros(len(agents))
        for atk in active:
            u[col[atk.agent]] += atk.input_at(t, states[t])
        nxt = A @ states[t]
        for a, k in col.items():
            nxt[a - 1] += u[k]
        states[t + 1] = nxt
        inputs[t] = u
    states.setflags(write=False)
    inputs.setflags(write=False)
    return Trajectory(states=states, input_agents=agents, inputs=inputs)


def filter_run_reference(filt, ys):
    """``(estimates, residuals, z)`` of ``filt.run(ys)``, stepped with
    ``np.dot(out=)`` and ``np.add`` on the loop matrix ``A + G C``."""
    ys = as_matrix(ys, "output sequence")
    closed = filt.A + filt.G @ filt.C
    drive = -(ys @ filt.G.T)
    zs = np.zeros((ys.shape[0] + 1, filt.A.shape[0]))
    for z, nxt, d in zip(zs[:-1], zs[1:], drive):
        np.dot(closed, z, out=nxt)
        np.add(nxt, d, out=nxt)
    estimates = zs[:-1] @ filt.L.T + ys @ filt.H.T
    residuals = estimates[1:] - estimates[:-1] @ filt.A.T
    return estimates, residuals, zs[-1].copy()


def _window_maps_rebuilt(A, B, C, L):
    """``O`` stacking ``C A^s``, ``s = 0..L``, and the block Toeplitz ``T``
    with block ``(s, tau)`` equal to ``C A^(s-tau-1) B`` for ``s > tau``."""
    p, m = C.shape[0], B.shape[1]
    rows = [C]
    for _ in range(L):
        rows.append(rows[-1] @ A)
    markov = [CA @ B for CA in rows[:L]]
    T = np.zeros(((L + 1) * p, (L + 1) * m))
    for s in range(1, L + 1):
        for tau in range(s):
            T[s * p:(s + 1) * p, tau * m:(tau + 1) * m] = markov[s - tau - 1]
    return np.vstack(rows), T


def observability_kernel(A, C):
    """Kernel of ``O_{n-1}``, the stacked ``C A^s`` for ``s = 0..n-1``, at
    the shared rank tolerance."""
    return kernel(_window_maps_rebuilt(A, np.zeros((A.shape[0], 0)), C,
                                       A.shape[0] - 1)[0])


def parity_weights_scan(A, Bd, watched, C):
    """First ``L = 1..n`` whose left null space ``W`` of ``[O_L, T_L Bd]``
    sees every watched column, relative to its ``T_L b``; with ``W``, or
    None.  Every window's maps are rebuilt from scratch."""
    n = A.shape[0]
    md = Bd.shape[1]
    atol = get_policy().membership
    for L in range(1, n + 1):
        O, T = _window_maps_rebuilt(A, np.hstack([Bd, watched]), C, L)
        T = T.reshape(T.shape[0], L + 1, -1)
        decoupled = T[:, :, :md].reshape(T.shape[0], -1)
        W = kernel(np.hstack([O, decoupled]).T).basis.T
        if W.shape[0] == 0:
            continue
        seen = [T[:, :, c] for c in range(md, T.shape[2])]
        if all(np.linalg.norm(W @ Tb) > atol * np.linalg.norm(Tb)
               for Tb in seen):
            return L, W
    return None


def _image_basis(M, scale=None):
    """Orthonormal basis of the column space of ``M`` from one 2-d SVD, cut
    against ``scale`` (by default the largest singular value)."""
    if M.shape[1] == 0 or not np.any(M):
        return np.zeros((M.shape[0], 0))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, :_numeric_rank(s, scale)].copy()


def _split_basis(M, scale=None):
    """Orthonormal bases of the row space and the null space of ``M`` from
    one 2-d SVD, cut against ``scale`` (by default the largest singular
    value)."""
    if not np.any(M):
        return np.zeros((M.shape[1], 0)), np.eye(M.shape[1])
    _, s, Vh = np.linalg.svd(M, full_matrices=True)
    r = _numeric_rank(s, scale)
    return Vh[:r].conj().T.copy(), Vh[r:].conj().T.copy()


def _kernel_basis(M):
    """Orthonormal basis of the null space of ``M`` from one 2-d SVD."""
    return _split_basis(M)[1]


def controlled_invariant_loop(A, B, C):
    """V* of one ``(A, B, C)`` by the step of ``netguard.fdi``, with one 2-d
    SVD per split or image: ``V_0 = Ker C`` and ``D_0 = Im C^T ^ Ker
    B^T``; each step cuts ``V`` by ``Ker(D^T A V)``, against the size of
    ``D^T A``, and takes the next ``D`` from the removed directions
    projected off ``V + Im B``, ``B``'s part cut against the size of
    ``B``."""
    Q_C, V = _split_basis(C)
    if not V.shape[1]:
        return V
    size = np.linalg.norm(B)
    D = Q_C @ _split_basis(B.T @ Q_C, size)[1]
    while V.shape[1] and D.shape[1]:
        DA = D.T @ A
        removed, kept = _split_basis(DA @ V, np.linalg.norm(DA))
        if not removed.shape[1]:
            break
        R = V @ removed
        V = V @ kept
        if not V.shape[1]:
            break
        Q = _image_basis(B - V @ (V.T @ B), size)
        D = _image_basis(R - Q @ (Q.T @ R), 1.0)
    return V


def controlled_invariant_recompute(A, B, C):
    """V* of one ``(A, B, C)``: ``V_0 = Ker C``, ``V_{k+1} = V_k Ker(P_k A
    V_k)`` with ``P_k`` projecting off ``V_k + Im B``, every step a new
    image of ``[V_k, B]`` and a kernel of all of ``P_k A V_k``, until the
    dimension stays."""
    V = _kernel_basis(C)
    while V.shape[1]:
        Q = _image_basis(np.hstack([V, B]))
        AV = A @ V
        inner = _kernel_basis(AV - Q @ (Q.T @ AV))
        if inner.shape[1] == V.shape[1]:
            break
        V = V @ inner
    return V


def conditioned_invariant_loop(A, B, C):
    """S* of one ``(A, B, C)``: ``S_0 = Im B``, ``S_{k+1} = Im [B, A S_k
    Ker(C S_k)]``, until the dimension stays or ``n + 1`` steps."""
    S = _image_basis(B)
    for _ in range(A.shape[0] + 1):
        meet = S @ _kernel_basis(C @ S)
        nxt = _image_basis(np.hstack([B, A @ meet]))
        if nxt.shape[1] == S.shape[1]:
            return nxt
        S = nxt
    return S


def meets_trivially(Q, bases):
    """Which of the ``(n, c)`` bases stacked in ``bases`` meet ``Im Q`` only
    in zero: the smallest singular value of ``(I - Q Q^T) U`` exceeds the
    membership tolerance."""
    projected = bases - Q @ (Q.T @ bases)
    sigma = np.linalg.svd(projected, compute_uv=False)
    return np.min(sigma, axis=-1, initial=np.inf) > get_policy().membership


def parity_weights_loop(A, Bd, watched, C):
    """The parity search of one candidate, ``(L, W)`` or None: the Markov
    parameters grow by one power of its own per window, no null space is
    taken before they reach every watched column, and each watched column
    is tested on its own."""
    n = A.shape[0]
    p, md = C.shape[0], Bd.shape[1]
    atol = get_policy().membership
    B = np.hstack([Bd, watched])
    rows, markov = [C], []
    unseen = np.ones(watched.shape[1], dtype=bool)
    for L in range(1, n + 1):
        markov.append(rows[-1] @ B)
        rows.append(rows[-1] @ A)
        unseen &= ~np.any(markov[-1][:, md:], axis=0)
        if np.any(unseen):
            continue
        _, T = _window_maps_rebuilt(A, B, C, L)
        T = T.reshape(T.shape[0], L + 1, -1)
        decoupled = T[:, :, :md].reshape(T.shape[0], -1)
        W = _kernel_basis(np.hstack([np.vstack(rows), decoupled]).T).T
        if W.shape[0] == 0:
            continue
        seen = [T[:, :, c] for c in range(md, T.shape[2])]
        if all(np.linalg.norm(W @ Tb) > atol * np.linalg.norm(Tb)
               for Tb in seen):
            return L, W
    return None


def synthesis_loop(A, Bt, Bd, C):
    """One candidate's synthesis: ``(V*, S*, S_M, outside, found)`` with
    ``found`` the parity search's ``(L, W)``, or None when the target meets
    S_M or no window separates it."""
    n = A.shape[0]
    V = controlled_invariant_loop(A, Bd, C)
    S = conditioned_invariant_loop(A, Bd, C)
    S_M = _image_basis(np.hstack([V, S]))
    eye = np.eye(n)
    outside = tuple(np.flatnonzero(meets_trivially(S_M, eye[:, :, None])).tolist())
    if Bt.shape[1]:
        solvable = bool(meets_trivially(S_M, _image_basis(Bt)[None])[0])
        watched = Bt
    else:
        solvable, watched = bool(outside), eye[:, list(outside)]
    found = parity_weights_loop(A, Bd, watched, C) if solvable else None
    return V, S, S_M, outside, found


def run_residual_steps(gen, ys):
    """``w(t+1) = F w(t) + E y(t)``, ``r(t) = M w(t) + H y(t)`` from
    ``w(0) = 0``, one step at a time."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    w = np.zeros(gen.F.shape[0])
    residuals = np.zeros((ys.shape[0], gen.M.shape[0]))
    for t in range(ys.shape[0]):
        residuals[t] = gen.M @ w + gen.H @ ys[t]
        w = gen.F @ w + gen.E @ ys[t]
    return residuals


def grid_zero_scan(A, B, C, radius: float = 3.0, points: int = 100,
                   drop_tol: float = 1e-7):
    """Coarse scan + local refinement of pencil rank drops.

    Returns the complex values inside the square of the given radius
    where the smallest singular value of the pencil vanishes; serves as
    a brute-force cross-check on the eigenvalue-based zero extraction.
    """
    n, m = A.shape[0], B.shape[1]
    p = C.shape[0]

    def sigma_min(z):
        P = np.zeros((n + p, n + m), dtype=complex)
        P[:n, :n] = z * np.eye(n) - A
        P[:n, n:] = B
        P[n:, :n] = C
        return np.linalg.svd(P, compute_uv=False)[-1]

    grid = np.linspace(-radius, radius, points)
    step = grid[1] - grid[0]
    sigma = np.array([[sigma_min(complex(re, im)) for im in grid]
                      for re in grid])
    padded = np.pad(sigma, 1, constant_values=np.inf)
    neighbours = [padded[1 + di:1 + di + points, 1 + dj:1 + dj + points]
                  for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]
    # sigma_min is 1-Lipschitz in z, so the grid point nearest a zero
    # trips the threshold, and so does the local minimum over the 8
    # neighbours that a descent on the grid from that point reaches
    starts = (sigma <= np.min(neighbours, axis=0)) & (sigma <= 0.75 * step)
    hits = []
    for a, b in zip(*np.nonzero(starts)):
        z = complex(grid[a], grid[b])
        if any(abs(z - h) < 2 * step for h in hits):
            continue
        z_ref = _refine(sigma_min, z, step)
        if z_ref is not None and sigma_min(z_ref) < drop_tol:
            if not any(abs(z_ref - h) < 1e-5 for h in hits):
                hits.append(z_ref)
    return sorted(hits, key=lambda w: (w.real, w.imag))


def _refine(f, z, step, iters: int = 60):
    best, best_val = z, f(z)
    width = step
    for _ in range(iters):
        improved = False
        for dz in (width, -width, 1j * width, -1j * width,
                   (1 + 1j) * width / 2, (1 - 1j) * width / 2,
                   (-1 + 1j) * width / 2, (-1 - 1j) * width / 2):
            val = f(best + dz)
            if val < best_val:
                best, best_val = best + dz, val
                improved = True
        if not improved:
            width /= 2
        if width < 1e-13:
            break
    return best


def pencil_svd_zeros(T):
    """The finite invariant zeros of a triple by two SVDs of its pencil per
    candidate, or None when the triple is not left-invertible.

    Each eigenvalue of the friend map on V* is a candidate; it is kept when
    the pencil's rank drops below its normal rank ``n + m`` there, with
    the first null vector of the pencil whose state part, scaled to unit
    norm, satisfies the equations (``sysan._verify_zero_direction``).
    ``netguard.sysan`` reads the direction from the eigenvector instead.
    """
    V, d = sysan._zero_dynamics(T)
    if d:
        return None
    if not V.dim:
        return ()
    X = sysan._friend_realization(T.A, T.B, V.basis)[0]
    found = []
    for z in np.linalg.eigvals(X):
        if abs(z.imag) < 1e-9:
            z = complex(z.real, 0.0)
        if any(abs(z - other.z) < 1e-6 * max(1.0, abs(z)) for other in found):
            continue
        P = sysan.pencil(T, z)
        if rank(P) >= T.n + T.m:
            continue
        for col in kernel(P).basis.T:
            zero = sysan._verify_zero_direction(T.n, z, P, col)
            if zero is not None:
                found.append(zero)
                break
    found.sort(key=lambda w: (round(w.z.real, 9), round(w.z.imag, 9)))
    return tuple(found)


def _bound_columns(Psi_x, coeffs, active_boxes, x_max):
    """Coefficient matrix [Psi_x, samples of each sorted agent] and its box."""
    agents = sorted(active_boxes)
    K = np.hstack([Psi_x] + [coeffs[a].T for a in agents])
    box = [(-x_max, x_max)] * Psi_x.shape[1]
    for a in agents:
        box += [active_boxes[a]] * coeffs[a].shape[0]
    return K, box


def box_min_lp(Psi_x, coeffs, active_boxes, x_max: float) -> float:
    """Min over the boxes of the residual sup-norm, one LP per generator.

    min t  s.t.  -t <= Psi_x x + sum_a coeffs[a]^T u_a <= t, with x in
    [-x_max, x_max]^n and each sample of agent a in ``active_boxes[a]``.
    """
    K, box = _bound_columns(Psi_x, coeffs, active_boxes, x_max)
    q, nvar = K.shape
    level = -np.ones((q, 1))
    A_ub = np.vstack([np.hstack([K, level]), np.hstack([-K, level])])
    c = np.zeros(nvar + 1)
    c[-1] = 1.0
    res = scipy.optimize.linprog(c, A_ub=A_ub, b_ub=np.zeros(2 * q),
                                 bounds=box + [(0.0, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"bound LP failed: {res.message}")
    return float(res.fun)


def box_max_vertices(Psi_x, coeffs, active_boxes, x_max: float) -> float:
    """Max over the boxes of the residual sup-norm, by visiting every vertex."""
    K, box = _bound_columns(Psi_x, coeffs, active_boxes, x_max)
    vertices = np.array(list(product(*box)), dtype=float)
    return float(max(0.0, np.max(np.abs(vertices @ K.T))))


def residual_coefficients(A_full, gen, observed, input_agents, t_star: int):
    """Linear maps from initial state and input samples to r(t_star).

    Works on the augmented filter-over-network system, whose matrix is
    raised to every power up to ``t_star``; returns the state coefficient
    (q, n) and per-agent sample coefficients of shape (t_star, q).
    """
    n = A_full.shape[0]
    d = gen.state_dim
    idx = [a - 1 for a in observed]
    C_O = np.zeros((len(idx), n))
    C_O[np.arange(len(idx)), idx] = 1.0
    Aaug = np.zeros((n + d, n + d))
    Aaug[:n, :n] = A_full
    Aaug[n:, :n] = gen.E @ C_O
    Aaug[n:, n:] = gen.F
    R = np.hstack([gen.H @ C_O, gen.M])
    powers = [np.eye(n + d)]
    for _ in range(t_star):
        powers.append(Aaug @ powers[-1])
    Psi_x = R @ powers[t_star][:, :n]
    coeffs = {}
    for a in input_agents:
        e = np.zeros(n + d)
        e[a - 1] = 1.0
        samples = np.zeros((t_star, R.shape[0]))
        for tau in range(t_star):
            samples[tau] = R @ powers[t_star - 1 - tau] @ e
        coeffs[a] = samples
    return Psi_x, coeffs


def certified_bounds_per_generator(residual_coefficients, decomp, bank,
                                   u_min, u_max, x_max=1.0, outside=()):
    """``(bound_misbehaving, bound_wellbehaving)`` generator by generator.

    ``residual_coefficients`` builds the decision-time maps of one
    generator; the bounds are the least :func:`box_min_lp` with the target
    and ``outside`` active and the largest :func:`box_max_vertices` with
    the decoupled candidates and ``outside`` active.
    """
    A_full = decomp.A
    box = (u_min, u_max)
    bound_mis, bound_well = np.inf, 0.0
    for entry in bank.entries:
        if entry.generator is None:
            continue
        active = {a: box for a in (entry.target, *outside)}
        Psi_x, coeffs = residual_coefficients(
            A_full, entry.generator, bank.observed, sorted(active),
            bank.eval_time)
        bound_mis = min(bound_mis, box_min_lp(Psi_x, coeffs, active, x_max))
        silent = {a: box for a in (*entry.decouple, *outside)}
        if silent:
            Psi_x, coeffs = residual_coefficients(
                A_full, entry.generator, bank.observed, sorted(silent),
                bank.eval_time)
            bound_well = max(bound_well,
                             box_max_vertices(Psi_x, coeffs, silent, x_max))
    return bound_mis, bound_well


def consistent_sets(others, fired, k: int) -> list:
    """Candidate sets of the least size up to ``k`` that no fired generator
    rules out: ``S`` is ruled out when ``fired[D]`` is true for some ``D``
    containing it (``None`` marks a generator that was never built)."""
    consistent = []
    for size in range(k + 1):
        for S in combinations(others, size):
            ok = True
            for D, was_fired in fired.items():
                if set(S) <= set(D):
                    if was_fired is None:
                        continue
                    if was_fired:
                        ok = False
                        break
            if ok:
                consistent.append(S)
        if consistent:
            break
    return consistent


def local_bank_loop(decomp, h, j, k_j):
    """``(target, decoupled, generator or None)`` of every generator of the
    local bank of block ``h`` seen from ``j``: one bank per target, its
    input matrices built column by column."""
    agents = decomp.block_agents(h)
    A_h = decomp.block_matrix(h)
    n_h = len(agents)
    pos = {a: idx for idx, a in enumerate(agents)}
    C_loc = _output_matrix(A_h, pos[j] + 1)
    out = []
    candidates = [a for a in agents if a != j]
    for c in candidates:
        pool = [a for a in candidates if a != c]
        decoupled = list(combinations(pool, min(k_j, len(pool))))
        B_t = np.zeros((n_h, 1))
        B_t[pos[c], 0] = 1.0
        B_ds = []
        for D in decoupled:
            B_d = np.zeros((n_h, len(D)))
            for col, a in enumerate(D):
                B_d[pos[a], col] = 1.0
            B_ds.append(B_d)
        reports = fdi._synthesize_bank(A_h, C_loc, [B_t] * len(B_ds), B_ds)
        for D, report in zip(decoupled, reports):
            out.append((c, tuple(D), report.generator))
    return out


def bound_lp_columns(active):
    """The joint bound LP's constraint matrix, one variable column at a time.

    For each ``(Psi_x, samples)`` pair a variable's column holds its
    coefficients ``K_e`` in the generator's first ``q`` rows and ``-K_e``
    in the next ``q``, and the level column ``-1`` in all ``2q``, so that
    ``-t_e <= K_e v_e <= t_e``; only nonzero entries are stored.
    """
    data, indices, per_col = [], [], []
    n_rows = 0
    for Psi_x, samples in active:
        q, n = Psi_x.shape
        cols = np.empty((n + samples.shape[0] + 1, 2 * q))
        cols[:n, :q] = Psi_x.T
        cols[n:-1, :q] = samples
        cols[:-1, q:] = -cols[:-1, :q]
        cols[-1] = -1.0
        keep = cols != 0.0
        data.append(cols[keep])
        indices.append(n_rows + np.nonzero(keep)[1])
        per_col.append(np.count_nonzero(keep, axis=1))
        n_rows += 2 * q
    per_col = np.concatenate(per_col)
    indptr = np.concatenate([[0], np.cumsum(per_col)])
    return scipy.sparse.csc_array(
        (np.concatenate(data), np.concatenate(indices), indptr),
        shape=(n_rows, len(per_col)))


def threshold_crossing_bisection(decomp, bank, u_min, u_max, x_max=1.0,
                                 outside=(), eps_hi=1.0, tol=1e-5):
    """Coupling where the certified bounds meet, and the misbehaving bound
    there: the midpoint of a bracket halved until ``tol`` wide, the
    bounds evaluated afresh at every midpoint and once more at the
    answer.  ``(0, 0)`` when the bounds do not separate uncoupled,
    ``(inf, inf)`` when they still separate at ``eps_hi``."""

    def gap(eps):
        lo, hi = detect.certified_bounds(decomp, bank, u_min, u_max, x_max,
                                         outside, epsilon=eps)
        return lo - hi

    if gap(0.0) <= 0:
        return 0.0, 0.0
    if gap(eps_hi) > 0:
        return np.inf, np.inf
    lo_e, hi_e = 0.0, eps_hi
    while hi_e - lo_e > tol:
        mid = 0.5 * (lo_e + hi_e)
        if gap(mid) > 0:
            lo_e = mid
        else:
            hi_e = mid
    eps_star = 0.5 * (lo_e + hi_e)
    value, _ = detect.certified_bounds(decomp, bank, u_min, u_max, x_max,
                                       outside, epsilon=eps_star)
    return eps_star, value


def smallest_separating_ratio_eager(decomp, bank, u_max, x_max=1.0,
                                    outside=(), tol=1e-4):
    """Smallest input-floor ratio ``u_min / (epsilon u_max)`` at which the
    certified bounds separate at the decomposition's coupling: the upper
    end of a bracket on ``u_min`` halved until ``tol u_max`` wide, on the
    coefficient maps built once at that coupling."""
    eps = decomp.epsilon
    if eps == 0.0:
        return 0.0
    maps = detect._coefficient_maps(decomp, bank, eps, outside)

    def separated(u_min):
        lo, hi = detect._bounds_from_maps(maps, u_min, u_max, x_max)
        return lo > hi

    if not separated(u_max):
        return np.inf
    lo_u, hi_u = 0.0, u_max
    while hi_u - lo_u > tol * u_max:
        mid = 0.5 * (lo_u + hi_u)
        if not separated(mid):
            lo_u = mid
        else:
            hi_u = mid
    return hi_u / (eps * u_max)


def wielandt_primitive(S) -> bool:
    """Whether a square 0/1 pattern is primitive: its boolean power at the
    Wielandt exponent n^2 - 2n + 2 is entrywise positive."""
    S = np.asarray(S, dtype=bool)
    n = S.shape[0]
    exponent = n * n - 2 * n + 2
    result = np.eye(n, dtype=bool)
    base = S
    while exponent:
        if exponent & 1:
            result = (result.astype(np.int64) @ base) > 0
        base = (base.astype(np.int64) @ base) > 0
        exponent >>= 1
    return bool(np.all(result))


def vertex_connectivity_bruteforce(G: DiGraph) -> int:
    """Vertex connectivity: the size of the smallest vertex set whose
    removal leaves a digraph that is not strongly connected."""
    n = G.n
    if n <= 1 or not is_strongly_connected(G):
        return 0
    for size in range(1, n - 1):
        for subset in combinations(G.vertices(), size):
            if not is_strongly_connected(G, set(subset)):
                return size
    return n - 1


def vertex_connectivity_even(G: DiGraph) -> int:
    """Vertex connectivity by Even's scheme (SIAM J. Comput. 1975): one of
    v_1 .. v_{k+1} lies outside a minimum cut of size k, so the least local
    connectivity to and from those vertices, capped at ``n - 1``, is k."""
    n = G.n
    if n <= 1 or not is_strongly_connected(G):
        return 0
    best = n - 1
    for i in range(1, n + 1):
        if i > best + 1:
            break
        # pairs with an earlier vertex were taken when it was scanned
        pairs = [(i, w) for w in range(i + 1, n + 1) if not G.has_edge(i, w)]
        pairs += [(w, i) for w in range(i + 1, n + 1) if not G.has_edge(w, i)]
        if pairs:
            best = min(best, int(_local_connectivities(G, pairs, n).min()))
    return best
