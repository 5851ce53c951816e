"""Command-line interface.

Scenario files are JSON documents (see README for the schema) naming a
matrix inline or by file, an attack list, observers, horizons, and a
seed; every run is deterministic given the scenario and seed.  Outputs
are written as ``trace.csv``, ``verdict.json`` and ``report.json`` in
the chosen output directory.

Exit codes: 0 success / clean identification, 2 invalid input,
3 ambiguous identification, 4 threshold calibration failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import consensus, detect, fdi, graph, numerics, sysan

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_AMBIGUOUS = 3
EXIT_CALIBRATION = 4


def load_matrix_file(path) -> np.ndarray:
    """Dense whitespace-separated rows, one matrix row per line."""
    return np.loadtxt(path, ndmin=2)


def _matrix_from_scenario(scn: dict, base: Path) -> np.ndarray:
    spec = scn.get("matrix")
    if spec is None:
        raise ValueError("scenario is missing the 'matrix' field")
    if "rows" in spec:
        return np.array(spec["rows"], dtype=float)
    if "file" in spec:
        return load_matrix_file(base / spec["file"])
    raise ValueError("matrix must give 'rows' or 'file'")


def _scalar(spec: dict, name: str, kind, default=None):
    """Field ``name`` of ``spec`` read by ``kind`` (``int`` or ``float``);
    ``default``, when given, stands in for an absent field.  ``null`` or a
    value ``kind`` cannot read is invalid input naming the field."""
    raw = spec[name] if default is None else spec.get(name, default)
    try:
        return kind(raw)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {what}, got {raw!r}") from None


def _attacks_from_scenario(scn: dict, n: int, horizon: int,
                           rng: np.random.Generator) -> list:
    attacks = []
    for spec in scn.get("attacks", []):
        agent = int(spec["agent"])
        kind = spec["kind"]
        if kind == "constant":
            attacks.append(consensus.Attack.constant(agent, spec["value"]))
        elif kind == "exponential":
            attacks.append(consensus.Attack.exponential(
                agent, spec["rate"], spec["value"]))
        elif kind == "state_feedback":
            attacks.append(consensus.Attack.state_feedback(
                agent, spec["row"], spec.get("offset", 0.0)))
        elif kind == "sequence":
            attacks.append(consensus.Attack.sequence(agent, spec["values"]))
        elif kind == "initial_offset":
            attacks.append(consensus.Attack.initial_offset(agent, spec["value"]))
        elif kind == "random":
            lo, hi = spec.get("low", 0.1), spec.get("high", 1.0)
            values = rng.uniform(lo, hi, size=horizon)
            if spec.get("signed", False):
                values *= rng.choice([-1.0, 1.0], size=horizon)
            attacks.append(consensus.Attack.sequence(agent, values))
        else:
            raise ValueError(f"unknown attack kind {kind!r}")
    return attacks


def _x0_from_scenario(scn: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    spec = scn.get("x0")
    if spec is None:
        return np.zeros(n)
    if isinstance(spec, dict) and "random" in spec:
        lo = spec["random"].get("low", -1.0)
        hi = spec["random"].get("high", 1.0)
        return rng.uniform(lo, hi, size=n)
    return np.asarray(spec, dtype=float)


def _load_scenario(path: str) -> tuple:
    p = Path(path)
    with open(p, "r", encoding="utf-8") as fh:
        scn = json.load(fh)
    version = scn.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version}")
    return scn, p.parent


def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_trace(path: Path, header: list, columns: list):
    """Write equal-length columns as CSV in one pass.

    A float is written as its Python ``repr`` (``str`` of a Python float
    is the same), the shortest string that reads back to the same float;
    ndarray columns go through ``tolist`` first.  Lines end in CRLF, as
    with the ``csv`` module.  Cells must hold no comma, quote or newline.
    """
    cells = [map(str, c.tolist() if isinstance(c, np.ndarray) else c)
             for c in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_validate(args) -> int:
    if args.scenario:
        scn, base = _load_scenario(args.scenario)
        A = _matrix_from_scenario(scn, base)
    else:
        A = load_matrix_file(args.matrix)
    checks = []
    ok = True
    n, m = A.shape
    checks.append(("square", n == m, f"{n}x{m}"))
    if n == m:
        neg = float(A.min())
        checks.append(("nonnegative entries", neg >= 0.0, f"min entry {neg:.3g}"))
        err = float(np.max(np.abs(A.sum(axis=1) - 1.0)))
        checks.append(("row sums equal one", err <= 1e-10, f"max error {err:.3g}"))
        G = graph.from_matrix(A)
        sc = graph.is_strongly_connected(G)
        checks.append(("irreducible", sc, "strongly connected graph"
                       if sc else "graph not strongly connected"))
        if sc:
            try:
                consensus.validate(A)
                checks.append(("primitive", True, "boolean power positive"))
            except consensus.ConsensusError as exc:
                checks.append(("primitive", False, str(exc)))
    for name, passed, detail in checks:
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {detail}")
    print("valid consensus matrix" if ok else "not a consensus matrix")
    return EXIT_OK if ok else EXIT_INVALID


def cmd_analyze(args) -> int:
    scn, base = _load_scenario(args.scenario)
    out = _prepare_out(args)
    A = _matrix_from_scenario(scn, base)
    n = A.shape[0]
    G = graph.from_matrix(A)
    try:
        net = consensus.validate(A)
        consensus_valid, invalid_reason = True, None
    except consensus.ConsensusError as exc:
        # pencil analysis and connectivity are still meaningful
        net, consensus_valid, invalid_reason = None, False, str(exc)
    bounds = graph.resilience_bounds(G)
    report = {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "consensus_valid": consensus_valid,
        "invalid_reason": invalid_reason,
        "connectivity": bounds.connectivity,
        "max_generic_faulty": bounds.max_generic_faulty,
        "max_generic_malicious": bounds.max_generic_malicious,
        "stationary_vector": net.pi.tolist() if net else None,
        "pairs": [],
    }
    observers = scn.get("observers") or (
        [_scalar(scn, "observer", int)] if "observer" in scn
        else list(range(1, n + 1)))
    outputs = [(int(j), consensus._output_matrix(A, int(j))) for j in observers]
    for K in scn.get("sets", []):
        for j, C in outputs:
            B = consensus.input_matrix(n, sorted(int(a) for a in K))
            triple = sysan.Triple.from_matrices(A, B, C, observer=j)
            analysis = sysan.invariant_zeros(triple)
            entry = {
                "set": sorted(int(a) for a in K),
                "observer": int(j),
                "left_invertible": analysis.left_invertible,
                "normal_rank": analysis.normal_rank,
            }
            if analysis.zeros is None:
                entry["zeros"] = None
            else:
                entry["zeros"] = [{"re": w.z.real, "im": w.z.imag,
                                   "modulus": abs(w.z)}
                                  for w in analysis.zeros]
            report["pairs"].append(entry)
    _write_json(out / "report.json", report)
    print(f"connectivity {bounds.connectivity}, "
          f"faulty bound {bounds.max_generic_faulty}, "
          f"malicious bound {bounds.max_generic_malicious}")
    return EXIT_OK


def _simulate_from_scenario(scn, base, seed):
    A = _matrix_from_scenario(scn, base)
    net = consensus.validate(A)
    horizon = _scalar(scn, "horizon", int, 100)
    rng = np.random.default_rng(seed)
    attacks = _attacks_from_scenario(scn, net.n, horizon, rng)
    x0 = _x0_from_scenario(scn, net.n, rng)
    traj = consensus.simulate(net, x0, attacks, horizon)
    return net, traj, attacks, horizon


def cmd_simulate(args) -> int:
    scn, base = _load_scenario(args.scenario)
    out = _prepare_out(args)
    seed = args.seed if args.seed is not None else scn.get("seed", 0)
    net, traj, attacks, horizon = _simulate_from_scenario(scn, base, seed)
    header = ["t"] + [f"x{i}" for i in range(1, net.n + 1)]
    _write_trace(out / "trace.csv", header,
                 [range(horizon + 1), *traj.states.T])
    verdict = {
        "schema_version": SCHEMA_VERSION,
        "mode": "simulate",
        "seed": seed,
        "horizon": horizon,
        "attacked_agents": list(traj.input_agents),
        "final_state": traj.states[-1].tolist(),
        "unforced_consensus_value": consensus.consensus_value(net, traj.states[0]),
    }
    _write_json(out / "verdict.json", verdict)
    print(f"simulated {horizon} steps, final spread "
          f"{float(np.ptp(traj.states[-1])):.3g}")
    return EXIT_OK


def cmd_detect(args) -> int:
    scn, base = _load_scenario(args.scenario)
    raw = scn.get("residual_floor", 1e-6)
    try:
        floor = float(raw)
    except (TypeError, ValueError):
        floor = np.nan
    if not 0.0 <= floor < np.inf:
        raise ValueError(f"residual_floor must be finite and nonnegative, "
                         f"got {raw!r}")
    out = _prepare_out(args)
    seed = args.seed if args.seed is not None else scn.get("seed", 0)
    net, traj, _, horizon = _simulate_from_scenario(scn, base, seed)
    j = _scalar(scn, "observer", int)
    filt = detect.DetectionFilter.from_network(net, j)
    ys = net.outputs(traj.states, j)
    estimates, residuals = filt.run(ys)
    norms = np.max(np.abs(residuals), axis=1)
    tail = norms[-max(1, len(norms) // 4):]
    flagged = not numerics._negligible(tail, ys, floor)
    _write_trace(out / "trace.csv", ["t", "residual_norm"],
                 [range(len(norms)), norms])
    _write_json(out / "verdict.json", {
        "schema_version": SCHEMA_VERSION,
        "mode": "detect",
        "observer": j,
        "seed": seed,
        "residual_floor": floor,
        "misbehavior_detected": flagged,
        "final_residual_norm": float(norms[-1]),
    })
    print("misbehavior detected" if flagged else "no active misbehavior seen")
    return EXIT_OK


def cmd_identify(args) -> int:
    scn, base = _load_scenario(args.scenario)
    out = _prepare_out(args)
    seed = args.seed if args.seed is not None else scn.get("seed", 0)
    net, traj, _, horizon = _simulate_from_scenario(scn, base, seed)
    j = _scalar(scn, "observer", int)
    k = _scalar(scn, "k", int, 1)
    ys = net.outputs(traj.states, j)
    verdict = detect.complete_identification(net, j, k, ys)
    times, labels, norms = [], [], []
    for D, d_norms in sorted(verdict.residual_norms.items()):
        times += range(len(d_norms))
        labels += ["+".join(str(a) for a in D)] * len(d_norms)
        norms += d_norms.tolist()
    _write_trace(out / "trace.csv", ["t", "candidate_set", "residual_norm"],
                 [times, labels, norms])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "mode": "identify",
        "observer": j,
        "k": k,
        "seed": seed,
        "status": verdict.status,
        "identified": [int(a) for a in verdict.identified],
        "candidates": [[int(a) for a in S] for S in verdict.candidates],
        "horizon": verdict.horizon,
        "unsolvable": [[[int(i)], [int(a) for a in D]]
                       for i, D in verdict.unsolvable],
    }
    _write_json(out / "verdict.json", payload)
    if verdict.status == "identified":
        print(f"identified misbehaving set: {sorted(verdict.identified)}")
        return EXIT_OK
    print(f"ambiguous: candidates {[sorted(c) for c in verdict.candidates]}")
    return EXIT_AMBIGUOUS


def cmd_local_identify(args) -> int:
    scn, base = _load_scenario(args.scenario)
    out = _prepare_out(args)
    seed = args.seed if args.seed is not None else scn.get("seed", 0)
    net, traj, _, horizon = _simulate_from_scenario(scn, base, seed)
    j = _scalar(scn, "observer", int)
    partition = scn["partition"]
    h = _scalar(scn, "block", int, 1)
    k_j = _scalar(scn, "k", int, 1)
    cal_spec = scn.get("calibration", {})
    decomp = detect.block_decompose(net.A, partition)
    bank = detect.build_local_bank(decomp, h, j, k_j)
    try:
        cal = detect.calibrate_threshold(
            decomp, bank,
            u_max=_scalar(cal_spec, "u_max", float, 1.0),
            u_min=_scalar(cal_spec, "u_min", float, 0.1),
            x_max=_scalar(cal_spec, "x_max", float, 1.0),
            outside=tuple(cal_spec.get("outside", ())))
    except detect.CalibrationError as exc:
        _write_json(out / "verdict.json", {
            "schema_version": SCHEMA_VERSION,
            "mode": "local-identify",
            "observer": j,
            "seed": seed,
            "status": "calibration_failure",
            "epsilon": decomp.epsilon,
            "epsilon_star": exc.epsilon_star,
            "crossing_value": exc.crossing_value,
        })
        print(f"calibration failure: {exc}")
        return EXIT_CALIBRATION
    block_ys = detect.block_outputs(decomp, bank, traj.states)
    flagged = detect.local_identification(decomp, bank, cal, block_ys)
    _write_trace(out / "trace.csv", ["t", "block_output_norm"],
                 [range(block_ys.shape[0]), np.max(np.abs(block_ys), axis=1)])
    _write_json(out / "verdict.json", {
        "schema_version": SCHEMA_VERSION,
        "mode": "local-identify",
        "observer": j,
        "block": h,
        "seed": seed,
        "status": "identified",
        "identified": [int(a) for a in flagged],
        "threshold": cal.T_h,
        "epsilon": decomp.epsilon,
        "eval_time": cal.eval_time,
    })
    print(f"flagged within block {h}: {sorted(flagged)}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    scn, base = _load_scenario(args.scenario)
    out = _prepare_out(args)
    A = _matrix_from_scenario(scn, base)
    net = consensus.validate(A)
    j = _scalar(scn, "observer", int)
    targets = [int(a) for a in scn.get("targets", [])]
    decouple = [int(a) for a in scn.get("decouple", [])]
    C = net.output_matrix(j)
    B_t = consensus.input_matrix(net.n, targets)
    B_d = consensus.input_matrix(net.n, decouple)
    report = fdi.synthesize_residual_generator(net.A, B_t, B_d, C)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "mode": "synthesize",
        "observer": j,
        "targets": targets,
        "decouple": decouple,
        "solvable": report.solvable,
        "dim_V_star": report.V_star.dim,
        "dim_S_star": report.S_star.dim,
        "dim_unobservability": report.S_M.dim,
        "generator": json.loads(report.generator.to_json())
        if report.generator else None,
    }
    _write_json(out / "report.json", payload)
    print("solvable" if report.solvable else "not solvable")
    return EXIT_OK if report.solvable else EXIT_INVALID


@functools.cache
def _parser(commands: tuple) -> argparse.ArgumentParser:
    """The command-line parser for ``commands``, built once per process."""
    parser = argparse.ArgumentParser(
        prog="netguard",
        description="Consensus-network misbehavior analysis and identification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        p = sub.add_parser(name)
        if name == "validate":
            p.add_argument("--matrix", help="matrix file (rows of numbers)")
            p.add_argument("--scenario", help="scenario JSON file")
        else:
            p.add_argument("--scenario", required=True)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    return parser


def main(argv=None) -> int:
    # looked up on every call, so a handler replaced in the module is run
    handlers = {
        "validate": cmd_validate,
        "analyze": cmd_analyze,
        "simulate": cmd_simulate,
        "detect": cmd_detect,
        "identify": cmd_identify,
        "local-identify": cmd_local_identify,
        "synthesize": cmd_synthesize,
    }
    parser = _parser(tuple(handlers))
    args = parser.parse_args(argv)
    if args.command == "validate" and not (args.matrix or args.scenario):
        parser.error("validate needs --matrix or --scenario")
    # NETGUARD_TOL holds for this command only
    rank_rel = numerics.get_policy().rank_rel
    try:
        tol_env = os.environ.get("NETGUARD_TOL")
        if tol_env:
            numerics.set_rank_tolerance(float(tol_env))
        return handlers[args.command](args)
    except (ValueError, consensus.ConsensusError, OSError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        numerics.set_rank_tolerance(rank_rel)


if __name__ == "__main__":
    sys.exit(main())
