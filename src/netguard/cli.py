"""Command-line interface.

Scenario files are JSON objects (see README for the schema) naming a
matrix inline or by file, an attack list, observers, horizons, and a
seed.  Every field goes through one reader, :func:`_read`, so a field
that is missing, null or of the wrong type is invalid input that names
the field.  A run is deterministic given the scenario and the seed.
Outputs are written as ``trace.csv``, ``verdict.json`` and
``report.json`` in the chosen output directory.

Exit codes: 0 success / clean identification, 2 invalid input,
3 ambiguous identification, 4 threshold calibration failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import reprlib
import sys
from pathlib import Path

import numpy as np
import orjson

from . import consensus, detect, fdi, graph, numerics, sysan

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_AMBIGUOUS = 3
EXIT_CALIBRATION = 4


def load_matrix_file(path) -> np.ndarray:
    """Dense whitespace-separated rows, one matrix row per line."""
    return np.loadtxt(path, ndmin=2)


# Field kinds: a description for error messages and a parser that raises
# TypeError, ValueError or LookupError on a value it cannot read.

def _number(raw) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TypeError
    return float(raw)


def _integer(raw) -> int:
    if not _number(raw).is_integer():
        raise ValueError
    return int(raw)


def _floor(raw) -> float:
    value = _number(raw)
    if not 0.0 <= value < np.inf:
        raise ValueError
    return value


def _open_unit(raw) -> float:
    value = float(raw)
    if not 0.0 < value < 1.0:
        raise ValueError
    return value


def _typed(kind: type):
    """Parser of a value of type ``kind``, returned as it is."""
    def parse(raw):
        if not isinstance(raw, kind):
            raise TypeError
        return raw
    return parse


def _list_of(item):
    """Parser of a list whose entries ``item`` parses."""
    def parse(raw) -> list:
        return [item(v) for v in _typed(list)(raw)]
    return parse


def _numbers(raw) -> list:
    # checked by entry type alone, which stays cheap on long sequences
    if not set(map(type, _typed(list)(raw))) <= {int, float}:
        raise TypeError
    return raw


_INTEGER = ("an integer", _integer)
_NUMBER = ("a number", _number)
_FLOOR = ("finite and nonnegative", _floor)
_TOLERANCE = ("a number in (0, 1)", _open_unit)
_BOOLEAN = ("true or false", _typed(bool))
_STRING = ("a string", _typed(str))
_OBJECT = ("an object", _typed(dict))
_NUMBERS = ("a list of numbers", _numbers)
_AGENTS = ("a list of agents", _list_of(_integer))
_AGENT_LISTS = ("a list of agent lists", _list_of(_list_of(_integer)))
_OBJECTS = ("a list of objects", _list_of(_typed(dict)))
_ROWS = ("a list of equal-length rows of numbers",
         lambda raw: np.array(_list_of(_numbers)(raw), dtype=float, ndmin=2))
_X0 = ('a list of numbers or {"random": {...}}',
       lambda raw: raw if isinstance(raw, dict) else _numbers(raw))
_REQUIRED = object()


def _read(spec: dict, name: str, kind: tuple, default=_REQUIRED):
    """Field ``name`` of ``spec`` read as ``kind``.  An absent field takes
    ``default``, or is missing input without one; ``null`` or a value the
    kind cannot read is invalid input that names the field."""
    if name not in spec:
        if default is _REQUIRED:
            raise ValueError(f"the {name!r} field is missing")
        return default
    what, parse = kind
    raw = spec[name]
    try:
        if raw is not None:
            return parse(raw)
    except (TypeError, ValueError, LookupError, OverflowError):
        pass
    raise ValueError(f"{name} must be {what}, got {reprlib.repr(raw)}")


def _load_scenario(path: str) -> tuple:
    """The scenario object at ``path`` and the directory it is in."""
    with open(path, "r", encoding="utf-8") as fh:
        scn = json.load(fh)
    if not isinstance(scn, dict):
        raise ValueError(f"scenario must be a JSON object, got {reprlib.repr(scn)}")
    version = _read(scn, "schema_version", _INTEGER, SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version}")
    return scn, Path(path).parent


def _matrix_from_scenario(scn: dict, base: Path) -> np.ndarray:
    spec = _read(scn, "matrix", _OBJECT)
    if "rows" in spec:
        return _read(spec, "rows", _ROWS)
    if "file" in spec:
        return load_matrix_file(base / _read(spec, "file", _STRING))
    raise ValueError("matrix must give 'rows' or 'file'")


# Each attack kind's consensus.Attack constructor and the _read arguments
# of the fields it takes after the agent.  A random attack is a sequence
# whose values are drawn from its fields.
_ATTACKS = {
    "constant": (consensus.Attack.constant, (("value", _NUMBER),)),
    "exponential": (consensus.Attack.exponential,
                    (("rate", _NUMBER), ("value", _NUMBER))),
    "state_feedback": (consensus.Attack.state_feedback,
                       (("row", _NUMBERS), ("offset", _NUMBER, 0.0))),
    "sequence": (consensus.Attack.sequence, (("values", _NUMBERS),)),
    "initial_offset": (consensus.Attack.initial_offset, (("value", _NUMBER),)),
    "random": (consensus.Attack.sequence,
               (("low", _NUMBER, 0.1), ("high", _NUMBER, 1.0),
                ("signed", _BOOLEAN, False))),
}
_ATTACK_KIND = ("one of " + ", ".join(_ATTACKS),
                lambda raw: (raw, *_ATTACKS[raw]))


def _uniform(rng: np.random.Generator, low: float, high: float, size: int,
             owner: str) -> np.ndarray:
    """``size`` uniform draws on [low, high], bounds finite with low <= high."""
    if not -np.inf < low <= high < np.inf:
        raise ValueError(f"{owner}: need finite low <= high, got low {low} "
                         f"and high {high}")
    return rng.uniform(low, high, size=size)


def _attacks_from_scenario(scn: dict, horizon: int,
                           rng: np.random.Generator) -> list:
    attacks = []
    for spec in _read(scn, "attacks", _OBJECTS, []):
        agent = _read(spec, "agent", _INTEGER)
        kind, make, fields = _read(spec, "kind", _ATTACK_KIND)
        args = [_read(spec, *field) for field in fields]
        if kind == "random":
            lo, hi, signed = args
            values = _uniform(rng, lo, hi, horizon,
                              f"random attack of agent {agent}")
            if signed:
                values *= rng.choice([-1.0, 1.0], size=horizon)
            args = [values]
        attacks.append(make(agent, *args))
    return attacks


def _x0_from_scenario(scn: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    spec = _read(scn, "x0", _X0, None)
    if spec is None:
        return np.zeros(n)
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    box = _read(spec, "random", _OBJECT)
    return _uniform(rng, _read(box, "low", _NUMBER, -1.0),
                    _read(box, "high", _NUMBER, 1.0), n, "x0.random")


def _write_json(path: Path, **fields):
    """Write ``fields`` and the schema version as one JSON object.

    JSON has no number for NaN or infinity, so a field holding one (a
    state that overflowed) is invalid input and no file is written.
    """
    try:
        text = json.dumps({"schema_version": SCHEMA_VERSION, **fields},
                          sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"cannot write {path.name}: {exc}") from None
    path.write_text(text + "\n", encoding="utf-8")


def _write_trace(path: Path, header: list, columns: list):
    """Write equal-length columns as CSV.

    Key columns (a ``range``, or a list or ndarray of integers or strings,
    such as ``t`` and ``candidate_set``) come first; the float columns
    (float ndarrays, a 2-d one counting as its columns, or lists of
    floats) follow them.  The float columns go to ``orjson.dumps`` as one
    float64 block and each key column in a call of its own, whose JSON
    array syntax becomes CSV cells: brackets and string quotes are
    dropped, so cells must hold no comma, quote, backslash or control
    character.  A float is the shortest decimal that reads back as the
    same double; exponents below -4 or above 15 are spelled unlike
    ``repr`` (``0.00001``, ``1e-7``, ``1e16`` for ``1e-05``, ``1e-07``,
    ``1e+16``).  A non-finite float, which JSON has no number for, is
    written as ``str`` writes it: ``inf``, ``-inf`` or ``nan``.  Lines end
    in CRLF, as with the ``csv`` module.
    """
    lines = [",".join(header).encode("utf-8")]
    if columns and len(columns[0]):
        split = next((i for i, c in enumerate(columns) if _is_float_column(c)),
                     len(columns))
        cells = [_key_cells(c) for c in columns[:split]]
        if split < len(columns):
            block = np.column_stack(columns[split:]).astype(float, copy=False)
            # one column is dumped flat: fewer brackets to write and split
            cells.append(_float_cells(block[:, 0] if block.shape[1] == 1
                                      else block))
        lines += map(b",".join, zip(*cells))
    with open(path, "wb") as fh:
        fh.write(b"\r\n".join(lines) + b"\r\n")


def _is_float_column(column) -> bool:
    if isinstance(column, np.ndarray):
        return column.dtype.kind == "f"
    return isinstance(column, list) and isinstance(column[0], float)


def _key_cells(column) -> list:
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    return orjson.dumps(values)[1:-1].replace(b'"', b"").split(b",")


def _float_cells(block: np.ndarray) -> list:
    """The cells of a 1-d block, or the comma-joined rows of a 2-d one."""
    finite = np.isfinite(block)
    if finite.all():
        body = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
    else:
        # orjson writes a non-finite float as null
        cells = block.astype(object)
        cells[~finite] = [str(v) for v in block[~finite].tolist()]
        body = orjson.dumps(cells.tolist()).replace(b'"', b"")
    if block.ndim == 1:
        return body[1:-1].split(b",")
    return body[2:-2].split(b"],[")


# Every handler takes the scenario, the directory its paths are relative to,
# the seed and the output directory (created), and returns the exit code.

def cmd_validate(scn: dict, base: Path, seed: int, out: Path) -> int:
    A = numerics.as_matrix(_matrix_from_scenario(scn, base), "consensus matrix")
    checks = consensus._checks(A)
    for name, passed, detail in checks:
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {detail}")
    ok = all(passed for _, passed, _ in checks)
    print("valid consensus matrix" if ok else "not a consensus matrix")
    return EXIT_OK if ok else EXIT_INVALID


def cmd_analyze(scn: dict, base: Path, seed: int, out: Path) -> int:
    A = _matrix_from_scenario(scn, base)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"matrix must be square, got {n} x {A.shape[1]}")
    observer = _read(scn, "observer", _INTEGER, None)
    observers = _read(scn, "observers", _AGENTS, []) or (
        [observer] if observer is not None else list(range(1, n + 1)))
    sets = [sorted(K) for K in _read(scn, "sets", _AGENT_LISTS, [])]
    outputs = [(j, consensus._output_matrix(A, j)) for j in observers]
    try:
        net = consensus.validate(A)
        consensus_valid, invalid_reason = True, None
    except consensus.ConsensusError as exc:
        # pencil analysis and connectivity are still meaningful
        net, consensus_valid, invalid_reason = None, False, str(exc)
    bounds = graph.resilience_bounds(net.graph if net else graph.from_matrix(A))
    # all the sets of one observer share one stacked V*
    Bs = [consensus.input_matrix(n, K) for K in sets]
    by_observer = [sysan._pencil_analyses(A, Bs, C) for _, C in outputs]
    pairs = []
    for s, K in enumerate(sets):
        for (j, _), analyses in zip(outputs, by_observer):
            analysis = analyses[s]
            zeros = None if analysis.zeros is None else [
                {"re": w.z.real, "im": w.z.imag, "modulus": abs(w.z)}
                for w in analysis.zeros]
            pairs.append({"set": K, "observer": j, "zeros": zeros,
                          "left_invertible": analysis.left_invertible,
                          "normal_rank": analysis.normal_rank})
    _write_json(out / "report.json", n=n, consensus_valid=consensus_valid,
                invalid_reason=invalid_reason, connectivity=bounds.connectivity,
                max_generic_faulty=bounds.max_generic_faulty,
                max_generic_malicious=bounds.max_generic_malicious,
                stationary_vector=net.pi.tolist() if net else None, pairs=pairs)
    print(f"connectivity {bounds.connectivity}, "
          f"faulty bound {bounds.max_generic_faulty}, "
          f"malicious bound {bounds.max_generic_malicious}")
    return EXIT_OK


def _simulate_from_scenario(scn: dict, base: Path, seed: int) -> tuple:
    net = consensus.validate(_matrix_from_scenario(scn, base))
    horizon = _read(scn, "horizon", _INTEGER, 100)
    rng = np.random.default_rng(seed)
    attacks = _attacks_from_scenario(scn, horizon, rng)
    x0 = _x0_from_scenario(scn, net.n, rng)
    # a state that overflowed is refused before any file is written, by
    # simulate's JSON writer, which runs first, or by the other commands'
    # check of their measurements; numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        return net, consensus.simulate(net, x0, attacks, horizon)


def cmd_simulate(scn: dict, base: Path, seed: int, out: Path) -> int:
    net, traj = _simulate_from_scenario(scn, base, seed)
    _write_json(out / "verdict.json", mode="simulate", seed=seed,
                horizon=traj.horizon,
                attacked_agents=list(traj.input_agents),
                final_state=traj.states[-1].tolist(),
                unforced_consensus_value=consensus.consensus_value(
                    net, traj.states[0]))
    header = ["t"] + [f"x{i}" for i in range(1, net.n + 1)]
    _write_trace(out / "trace.csv", header,
                 [range(traj.horizon + 1), traj.states])
    print(f"simulated {traj.horizon} steps, final spread "
          f"{float(np.ptp(traj.states[-1])):.3g}")
    return EXIT_OK


def cmd_detect(scn: dict, base: Path, seed: int, out: Path) -> int:
    j = _read(scn, "observer", _INTEGER)
    floor = _read(scn, "residual_floor", _FLOOR, 1e-6)
    net, traj = _simulate_from_scenario(scn, base, seed)
    filt = detect.DetectionFilter.from_network(net, j)
    ys = net.outputs(traj.states, j)
    estimates, residuals = filt.run(ys)
    norms = np.max(np.abs(residuals), axis=1)
    tail = norms[-max(1, len(norms) // 4):]
    flagged = not numerics._negligible(tail, ys, floor)
    _write_trace(out / "trace.csv", ["t", "residual_norm"],
                 [range(len(norms)), norms])
    _write_json(out / "verdict.json", mode="detect", seed=seed, observer=j,
                residual_floor=floor, misbehavior_detected=flagged,
                final_residual_norm=float(norms[-1]))
    print("misbehavior detected" if flagged else "no active misbehavior seen")
    return EXIT_OK


def cmd_identify(scn: dict, base: Path, seed: int, out: Path) -> int:
    j = _read(scn, "observer", _INTEGER)
    k = _read(scn, "k", _INTEGER, 1)
    net, traj = _simulate_from_scenario(scn, base, seed)
    ys = net.outputs(traj.states, j)
    verdict = detect.complete_identification(net, j, k, ys)
    guarantee = graph.resilience_at(verdict.connectivity).guarantee(k)
    sets = sorted(verdict.residual_norms)
    columns = [[], [], []]
    if sets:
        norms = [verdict.residual_norms[D] for D in sets]
        counts = [len(d_norms) for d_norms in norms]
        # t restarts at 0 for each candidate set
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        columns = [np.arange(len(starts)) - starts,
                   np.repeat(["+".join(str(a) for a in D) for D in sets], counts),
                   np.concatenate(norms)]
    _write_trace(out / "trace.csv", ["t", "candidate_set", "residual_norm"],
                 columns)
    _write_json(out / "verdict.json", mode="identify", seed=seed, observer=j,
                k=k, status=verdict.status,
                identified=[int(a) for a in verdict.identified],
                candidates=[[int(a) for a in S] for S in verdict.candidates],
                horizon=verdict.horizon,
                unsolvable=[[[int(i)], [int(a) for a in D]]
                            for i, D in verdict.unsolvable],
                connectivity=verdict.connectivity, guarantee=guarantee)
    if verdict.status == "identified":
        print(f"identified misbehaving set: {sorted(verdict.identified)} "
              f"({guarantee} guarantee)")
        return EXIT_OK
    print(f"ambiguous: candidates {[sorted(c) for c in verdict.candidates]}")
    return EXIT_AMBIGUOUS


def cmd_local_identify(scn: dict, base: Path, seed: int, out: Path) -> int:
    j = _read(scn, "observer", _INTEGER)
    partition = _read(scn, "partition", _AGENT_LISTS)
    h = _read(scn, "block", _INTEGER, 1)
    k_j = _read(scn, "k", _INTEGER, 1)
    cal_spec = _read(scn, "calibration", _OBJECT, {})
    band = {name: _read(cal_spec, name, _NUMBER, default)
            for name, default in (("u_max", 1.0), ("u_min", 0.1), ("x_max", 1.0))}
    outside = tuple(_read(cal_spec, "outside", _AGENTS, []))
    net, traj = _simulate_from_scenario(scn, base, seed)
    decomp = detect.block_decompose(net.A, partition)
    bank = detect.build_local_bank(decomp, h, j, k_j)
    # checked ahead of calibration, which does not read them
    block_ys = detect.block_outputs(decomp, bank, traj.states)
    header = dict(mode="local-identify", seed=seed, observer=j,
                  epsilon=decomp.epsilon)
    try:
        cal = detect.calibrate_threshold(decomp, bank, **band, outside=outside)
    except detect.CalibrationError as exc:
        _write_json(out / "verdict.json", **header,
                    status="calibration_failure",
                    epsilon_star=exc.epsilon_star,
                    crossing_value=exc.crossing_value)
        print(f"calibration failure: {exc}")
        return EXIT_CALIBRATION
    flagged = detect.local_identification(decomp, bank, cal, block_ys)
    _write_trace(out / "trace.csv", ["t", "block_output_norm"],
                 [range(block_ys.shape[0]), np.max(np.abs(block_ys), axis=1)])
    _write_json(out / "verdict.json", **header, block=h, status="identified",
                identified=[int(a) for a in flagged], threshold=cal.T_h,
                eval_time=cal.eval_time)
    print(f"flagged within block {h}: {sorted(flagged)}")
    return EXIT_OK


def cmd_synthesize(scn: dict, base: Path, seed: int, out: Path) -> int:
    j = _read(scn, "observer", _INTEGER)
    targets = _read(scn, "targets", _AGENTS, [])
    decouple = _read(scn, "decouple", _AGENTS, [])
    net = consensus.validate(_matrix_from_scenario(scn, base))
    report = fdi.synthesize_residual_generator(
        net.A, consensus.input_matrix(net.n, targets),
        consensus.input_matrix(net.n, decouple), net.output_matrix(j))
    _write_json(out / "report.json", mode="synthesize", observer=j,
                targets=targets, decouple=decouple, solvable=report.solvable,
                dim_V_star=report.V_star.dim, dim_S_star=report.S_star.dim,
                dim_unobservability=report.S_M.dim,
                generator=json.loads(report.generator.to_json())
                if report.generator else None)
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
        if os.environ.get("NETGUARD_TOL"):
            numerics.set_rank_tolerance(
                _read(os.environ, "NETGUARD_TOL", _TOLERANCE))
        if args.scenario:
            scn, base = _load_scenario(args.scenario)
        else:  # validate --matrix: a scenario naming the matrix file alone
            scn, base = {"matrix": {"file": args.matrix}}, Path()
        seed = (args.seed if args.seed is not None
                else _read(scn, "seed", _INTEGER, 0))
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return handlers[args.command](scn, base, seed, out)
    # ConsensusError and JSONDecodeError are ValueErrors
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        numerics.set_rank_tolerance(rank_rel)


if __name__ == "__main__":
    sys.exit(main())
