"""Verdict checkers, computed apart from netguard.

Each checker takes a scenario (see ``scenarios``), the CLI exit code and
the parsed ``verdict.json`` or ``report.json``, and returns None when the
output is right or a one-line reason when it is wrong.  The references
are a property the method guarantees on the generated input, an
independent count (networkx connectivity), an SVD of the system pencil,
or the benchmark's own recursion of the consensus iteration; never a
saved copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

EXIT_OK = 0
EXIT_CALIBRATION = 4

# Normal rank: singular values above this share of the largest count, at a
# random point of modulus 1.2.  Close to the unit circle the transfer from
# distant inputs is least attenuated, so the smallest true singular value
# stays around 1e-6 of the largest even on 60-agent rings.
NORMAL_RANK_RADIUS = 1.2
NORMAL_RANK_TOL = 1e-10
# A reported zero must bring the pencil's last normal-rank singular value
# below this share of the largest; exact zeros reach ~1e-15.
ZERO_TOL = 1e-7
# Relative tolerance for the simulated final state.
STATE_RTOL = 1e-9


def check_identify(scenario: dict, code, verdict: dict):
    """Identified, with exactly the attacked set.

    Guaranteed on the generated networks: they are at least 2k + 1
    connected and no more than k agents misbehave.
    """
    expected = scenario["expect"]["attacked"]
    if code != EXIT_OK:
        return f"exit code {code}, expected {EXIT_OK}"
    if verdict.get("status") != "identified":
        return f"status {verdict.get('status')!r}, expected 'identified'"
    got = sorted(verdict.get("identified", []))
    if got != expected:
        return f"identified {got}, expected {expected}"
    return None


def node_connectivity(A) -> int:
    """Vertex connectivity of the digraph of ``A``, counted by networkx."""
    import networkx as nx

    A = np.asarray(A)
    mask = (A != 0) & ~np.eye(A.shape[0], dtype=bool)
    return int(nx.node_connectivity(nx.from_numpy_array(
        mask.astype(int), create_using=nx.DiGraph)))


def output_matrix(A, j: int) -> np.ndarray:
    """Rows of the identity selecting the support of row ``j`` (1-based)."""
    idx = np.flatnonzero(np.asarray(A)[j - 1])
    C = np.zeros((idx.size, A.shape[0]))
    C[np.arange(idx.size), idx] = 1.0
    return C


def pencil(A, agents, C, z) -> np.ndarray:
    """``[[zI - A, -B], [C, 0]]`` with B selecting ``agents`` (1-based)."""
    n = A.shape[0]
    m = len(agents)
    P = np.zeros((n + C.shape[0], n + m), dtype=complex)
    P[:n, :n] = z * np.eye(n) - A
    for col, a in enumerate(agents):
        P[a - 1, n + col] = -1.0
    P[n:, :n] = C
    return P


def pencil_rank(P) -> int:
    s = np.linalg.svd(P, compute_uv=False)
    return int(np.sum(s > NORMAL_RANK_TOL * s[0])) if s.size else 0


def _check_pair(A, entry: dict, K, j: int, z_generic: complex):
    C = output_matrix(A, j)
    n, m = A.shape[0], len(K)
    rank = pencil_rank(pencil(A, K, C, z_generic))
    if entry.get("normal_rank") != rank:
        return f"pair {K}/{j}: normal rank {entry.get('normal_rank')}, pencil has {rank}"
    if bool(entry.get("left_invertible")) != (rank == n + m):
        return f"pair {K}/{j}: left_invertible {entry.get('left_invertible')}, pencil rank {rank} of {n + m}"
    zeros = entry.get("zeros")
    if zeros is None:
        if rank == n + m:
            return f"pair {K}/{j}: zeros missing on a left-invertible triple"
        return None
    for w in zeros:
        z = complex(w["re"], w["im"])
        s = np.linalg.svd(pencil(A, K, C, z), compute_uv=False)
        if s[rank - 1] > ZERO_TOL * s[0]:
            return (f"pair {K}/{j}: reported zero {z:.6g} keeps the pencil at "
                    f"rank {rank} (sigma {s[rank - 1]:.3g})")
    return None


def check_analyze(scenario: dict, code, report: dict, connectivity: int):
    """Connectivity, resilience bounds, normal ranks and every zero.

    ``connectivity`` is the independent count for the scenario's matrix
    (see :func:`node_connectivity`).
    """
    if code != EXIT_OK:
        return f"exit code {code}, expected {EXIT_OK}"
    if report.get("connectivity") != connectivity:
        return f"connectivity {report.get('connectivity')}, networkx counts {connectivity}"
    faulty = max(connectivity - 1, 0)
    malicious = max((connectivity - 1) // 2, 0)
    if report.get("max_generic_faulty") != faulty:
        return f"faulty bound {report.get('max_generic_faulty')}, expected {faulty}"
    if report.get("max_generic_malicious") != malicious:
        return f"malicious bound {report.get('max_generic_malicious')}, expected {malicious}"
    exp = scenario["expect"]
    A = np.asarray(exp["matrix"])
    pairs = [(sorted(K), j) for K in exp["sets"] for j in exp["observers"]]
    entries = report.get("pairs", [])
    if len(entries) != len(pairs):
        return f"{len(entries)} pairs reported, expected {len(pairs)}"
    rng = np.random.default_rng(7)
    for entry, (K, j) in zip(entries, pairs):
        if entry.get("set") != K or entry.get("observer") != j:
            return f"pair {entry.get('set')}/{entry.get('observer')} out of order, expected {K}/{j}"
        z_generic = NORMAL_RANK_RADIUS * np.exp(2j * np.pi * rng.uniform())
        problem = _check_pair(A, entry, K, j, z_generic)
        if problem:
            return problem
    return None


def _in_band(spec: dict, u_min: float, u_max: float) -> bool:
    values = [spec["value"]] if spec["kind"] == "constant" else spec["values"]
    return all(u_min <= v <= u_max for v in values)


def check_local(scenario: dict, code, verdict: dict):
    """Below the crossing: flags exactly the in-band in-block attackers.

    Above it: exit code 4 with a reported crossing below the coupling.
    The coupling ``epsilon`` is built into the network by the benchmark.
    """
    exp = scenario["expect"]
    eps = exp["epsilon"]
    got_eps = verdict.get("epsilon")
    if got_eps is None or abs(got_eps - eps) > 1e-9 * eps:
        return f"coupling {got_eps}, the network was built with {eps}"
    if exp["side"] == "above":
        if code != EXIT_CALIBRATION:
            return f"exit code {code} above the crossing, expected {EXIT_CALIBRATION}"
        star = verdict.get("epsilon_star")
        if star is None or not star < eps:
            return f"reported crossing {star} not below the coupling {eps}"
        return None
    if code != EXIT_OK:
        return f"exit code {code} below the crossing, expected {EXIT_OK}"
    doc = scenario["doc"]
    cal = doc["calibration"]
    block = set(doc["partition"][doc["block"] - 1])
    expected = sorted(s["agent"] for s in doc["attacks"]
                      if s["agent"] in block
                      and _in_band(s, cal["u_min"], cal["u_max"]))
    got = sorted(verdict.get("identified", []))
    if got != expected:
        return f"flagged {got}, expected {expected}"
    return None


def final_state(exp: dict) -> np.ndarray:
    """x(T) = A^T x0 + sum_s A^(T-1-s) B u(s), by the benchmark's recursion."""
    A = np.asarray(exp["matrix"])
    x = np.array(exp["x0"], dtype=float)
    inputs = exp["inputs"]
    for t in range(exp["horizon"]):
        x = A @ x
        for agent, u in inputs.items():
            x[agent - 1] += u[t]
    return x


def check_simulate(scenario: dict, code, verdict: dict, reference: np.ndarray,
                   trace_lines: int):
    """Final state within a relative 1e-9 of ``reference``; full trace."""
    if code != EXIT_OK:
        return f"exit code {code}, expected {EXIT_OK}"
    horizon = scenario["expect"]["horizon"]
    if trace_lines != horizon + 2:
        return f"trace.csv has {trace_lines} lines, expected {horizon + 2}"
    got = np.asarray(verdict.get("final_state", []), dtype=float)
    if got.shape != reference.shape:
        return f"final state of size {got.size}, expected {reference.size}"
    err = float(np.max(np.abs(got - reference)))
    if err > STATE_RTOL * max(1.0, float(np.max(np.abs(reference)))):
        return f"final state off by {err:.3g}"
    return None


def check_detect(scenario: dict, code, verdict: dict, trace_lines: int):
    """Flags exactly the persistent attacks; one residual per step."""
    if code != EXIT_OK:
        return f"exit code {code}, expected {EXIT_OK}"
    horizon = scenario["expect"]["horizon"]
    if trace_lines != horizon + 1:
        return f"trace.csv has {trace_lines} lines, expected {horizon + 1}"
    expected = scenario["expect"]["persistent"]
    got = verdict.get("misbehavior_detected")
    if got is not expected:
        return f"misbehavior_detected {got}, expected {expected}"
    return None
