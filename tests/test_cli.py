import copy
import json
from dataclasses import replace

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from netguard import cli, consensus, detect, fdi, numerics, sysan

from fixtures import BENCH8_A, WEAK7_PARTITION, weak7_matrix
from oracles import write_trace_reference


def strict_json(path):
    """``path`` parsed as JSON proper, which has no NaN or Infinity."""
    return orjson.loads(path.read_bytes())


def run(tmp_path, command, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    code = cli.main([command, "--scenario", str(path), "--out", str(out)])
    for output in out.glob("*.json"):
        strict_json(output)
    return code, out


def read_verdict(out):
    return strict_json(out / "verdict.json")


def test_identify_single_attacker_exits_ok(tmp_path):
    code, out = run(tmp_path, "identify", {
        "matrix": {"rows": BENCH8_A.tolist()}, "observer": 1, "k": 1,
        "horizon": 24, "x0": {"random": {}},
        "attacks": [{"agent": 3, "kind": "constant", "value": 1.0}]})
    assert code == cli.EXIT_OK
    verdict = read_verdict(out)
    assert verdict["status"] == "identified" and verdict["identified"] == [3]


# BENCH8 is 3-connected: one malicious agent is identifiable (3 >= 2k + 1),
# two only as faulty agents (3 >= k + 1).
@pytest.mark.parametrize("k, guarantee", [(1, "malicious"), (2, "faulty")])
def test_identify_names_its_guarantee(tmp_path, capsys, k, guarantee):
    code, out = run(tmp_path, "identify", {
        "matrix": {"rows": BENCH8_A.tolist()}, "observer": 1, "k": k,
        "horizon": 24, "x0": {"random": {}},
        "attacks": [{"agent": 3, "kind": "constant", "value": 1.0}]})
    assert code == cli.EXIT_OK
    verdict = read_verdict(out)
    assert verdict["connectivity"] == 3
    assert verdict["guarantee"] == guarantee
    assert capsys.readouterr().out == (
        f"identified misbehaving set: [3] ({guarantee} guarantee)\n")


# JSON has no NaN: a state that overflowed is not written as one.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowed_state_exits_invalid(tmp_path, capsys):
    code, out = run(tmp_path, "simulate", {
        "matrix": {"rows": BENCH8_A.tolist()}, "horizon": 5,
        "attacks": [{"agent": 3, "kind": "constant", "value": 1.7e308}]})
    assert code == cli.EXIT_INVALID
    assert ("error: cannot write verdict.json: Out of range float values "
            "are not JSON compliant" in capsys.readouterr().err)
    assert not (out / "verdict.json").exists()


# The refused run leaves no file behind and prints the error line alone,
# with no numpy warning of the overflow ahead of it.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowed_simulation_writes_nothing(tmp_path, capsys):
    code, out = run(tmp_path, "simulate", {
        "matrix": {"rows": BENCH8_A.tolist()}, "horizon": 5,
        "attacks": [{"agent": 3, "kind": "constant", "value": 1.7e308}]})
    assert code == cli.EXIT_INVALID
    assert list(out.iterdir()) == []
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write verdict.json: Out of range "
                          "float values are not JSON compliant")
    assert err.count("\n") == 1 and err.endswith("\n")


# The measuring commands refuse an overflowed run the same way: exit 2,
# the error line alone and no file, where identify reported an empty
# ambiguity, local-identify flagged an innocent agent below the crossing
# and reported a calibration failure above it.
def _overflowing(A, agent, **fields):
    return {"matrix": {"rows": A.tolist()}, "observer": 1, "horizon": 30,
            "attacks": [{"agent": agent, "kind": "constant",
                         "value": 1.7e308}], **fields}


_WEAK7_BLOCK = {"partition": [list(b) for b in WEAK7_PARTITION], "block": 1,
                "k": 1}
_OVERFLOWING = {
    "detect": ("detect", _overflowing(BENCH8_A, 3)),
    "identify": ("identify", _overflowing(BENCH8_A, 3, k=1)),
    "local-identify": ("local-identify",
                       _overflowing(weak7_matrix(0.01), 2, **_WEAK7_BLOCK)),
    "local-identify-above-crossing": (
        "local-identify", _overflowing(weak7_matrix(0.1), 2, **_WEAK7_BLOCK)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_OVERFLOWING))
def test_overflowed_measurements_write_nothing(tmp_path, capsys, case):
    code, out = run(tmp_path, *_OVERFLOWING[case])
    assert code == cli.EXIT_INVALID
    assert list(out.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: output sequence contains non-finite entries\n"


def test_row_sum_error_exits_invalid(tmp_path):
    A = BENCH8_A.copy()
    A[0, 0] += 0.1
    code, _ = run(tmp_path, "identify", {
        "matrix": {"rows": A.tolist()}, "observer": 1, "k": 1})
    assert code == cli.EXIT_INVALID


@pytest.mark.parametrize("observer", [0, 9])
def test_analyze_rejects_observer_out_of_range(tmp_path, observer):
    code, out = run(tmp_path, "analyze", {
        "matrix": {"rows": BENCH8_A.tolist()}, "observer": observer,
        "sets": [[3]]})
    assert code == cli.EXIT_INVALID
    assert not (out / "report.json").exists()


def test_analyze_uses_the_observer_rows(tmp_path):
    code, out = run(tmp_path, "analyze", {
        "matrix": {"rows": BENCH8_A.tolist()}, "observer": 8, "sets": [[3]]})
    assert code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    C = consensus.validate(BENCH8_A).output_matrix(8)
    expected = sysan.invariant_zeros(
        sysan.Triple.from_matrices(BENCH8_A, consensus.input_matrix(8, [3]), C))
    assert [p["observer"] for p in report["pairs"]] == [8]
    assert report["pairs"][0]["normal_rank"] == expected.normal_rank


def count_fixpoints(monkeypatch):
    """The number of V* fixpoints taken, each over a bank of inputs."""
    fixpoint, calls = fdi._controlled_invariants, []

    def counting(A, Bs, C):
        calls.append(len(Bs))
        return fixpoint(A, Bs, C)

    monkeypatch.setattr(fdi, "_controlled_invariants", counting)
    return calls


# BENCH8's sets for observer 1 include one with a zero and one that is not
# left-invertible.
ANALYZE_SETS = [[3], [4, 2], [5, 6, 7], [2, 3, 4, 5], [1, 8]]


def per_pair_report(sets, observers):
    """``analyze``'s pairs from one triple at a time, sets outermost."""
    pairs = []
    for K in sets:
        for j in observers:
            analysis = sysan.invariant_zeros(sysan.Triple.from_matrices(
                BENCH8_A, consensus.input_matrix(8, sorted(K)),
                consensus._output_matrix(BENCH8_A, j), observer=j))
            zeros = None if analysis.zeros is None else [
                {"re": w.z.real, "im": w.z.imag, "modulus": abs(w.z)}
                for w in analysis.zeros]
            pairs.append({"set": sorted(K), "observer": j, "zeros": zeros,
                          "left_invertible": analysis.left_invertible,
                          "normal_rank": analysis.normal_rank})
    return pairs


# One stacked V* per observer for all of its sets, the default of every
# agent observing included, and the pairs are those of one triple at a time.
@pytest.mark.parametrize("observers", [[1], [1, 5], None])
def test_analyze_takes_one_fixpoint_per_observer(tmp_path, monkeypatch,
                                                 observers):
    scenario = {"matrix": {"rows": BENCH8_A.tolist()}, "sets": ANALYZE_SETS}
    if observers is not None:
        scenario["observers"] = observers
    expected = per_pair_report(ANALYZE_SETS, observers or range(1, 9))
    calls = count_fixpoints(monkeypatch)
    code, out = run(tmp_path, "analyze", scenario)
    assert code == cli.EXIT_OK
    assert calls == [len(ANALYZE_SETS)] * len(observers or range(1, 9))
    pairs = strict_json(out / "report.json")["pairs"]
    assert pairs == expected
    assert any(p["zeros"] for p in pairs)
    assert not all(p["left_invertible"] for p in pairs)


def test_analyze_without_sets_takes_no_fixpoint(tmp_path, monkeypatch):
    calls = count_fixpoints(monkeypatch)
    code, out = run(tmp_path, "analyze", {"matrix": {"rows": BENCH8_A.tolist()}})
    assert code == cli.EXIT_OK
    assert calls == [] and strict_json(out / "report.json")["pairs"] == []


@pytest.mark.parametrize("rows", [[[0.5, 0.5, 0.0], [0.25, 0.5, 0.25]],
                                  [[0.5, 0.5], [0.25, 0.75], [0.0, 1.0]]])
def test_analyze_rejects_a_matrix_that_is_not_square(tmp_path, capsys, rows):
    code, out = run(tmp_path, "analyze", {"matrix": {"rows": rows},
                                          "sets": [[1]]})
    assert code == cli.EXIT_INVALID
    assert "error: matrix must be square" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_indistinguishable_sets_exit_ambiguous(tmp_path):
    net = consensus.validate(BENCH8_A)
    w = sysan.unidentifiability_witness(net, (2, 3), (4, 5), 1, horizon=24)
    assert w is not None
    code, out = run(tmp_path, "identify", {
        "matrix": {"rows": BENCH8_A.tolist()}, "observer": 1, "k": 2,
        "horizon": 24, "x0": w.x0.tolist(),
        "attacks": [{"agent": a, "kind": "sequence",
                     "values": w.inputs_1[:, c].tolist()}
                    for c, a in enumerate(w.K1)]})
    assert code == cli.EXIT_AMBIGUOUS
    assert read_verdict(out)["candidates"] == [[2, 3], [4, 5]]


def test_local_identify_above_crossing_exits_calibration(tmp_path):
    code, out = run(tmp_path, "local-identify", {
        "matrix": {"rows": weak7_matrix(0.1).tolist()},
        "partition": [list(b) for b in WEAK7_PARTITION], "observer": 1,
        "block": 1, "k": 1, "horizon": 30,
        "attacks": [{"agent": 2, "kind": "constant", "value": 0.5}]})
    assert code == cli.EXIT_CALIBRATION
    verdict = read_verdict(out)
    assert verdict["status"] == "calibration_failure"
    assert verdict["epsilon_star"] < verdict["epsilon"]


# The observer alone in its block left a bank with no generator and an
# infinite threshold that verdict.json could not hold.
def test_local_identify_with_the_observer_alone_exits_invalid(tmp_path,
                                                             capsys):
    code, out = run(tmp_path, "local-identify", {
        "matrix": {"rows": weak7_matrix(0.1).tolist()},
        "partition": [[1], [2, 3], [4, 5, 6, 7]], "observer": 1,
        "block": 1, "k": 1, "horizon": 30})
    assert code == cli.EXIT_INVALID
    assert "observer 1 is alone in block 1" in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


def test_local_identify_without_a_solvable_generator_exits_calibration(
        tmp_path, monkeypatch, capsys):
    build = detect.build_local_bank

    def unsolvable(*args):
        bank = build(*args)
        return replace(bank, entries=tuple(
            replace(e, generator=None, solvable=False) for e in bank.entries))

    monkeypatch.setattr(detect, "build_local_bank", unsolvable)
    code, out = run(tmp_path, "local-identify", {
        "matrix": {"rows": weak7_matrix(0.01).tolist()},
        "partition": [list(b) for b in WEAK7_PARTITION], "observer": 1,
        "block": 1, "k": 1, "horizon": 30})
    assert code == cli.EXIT_CALIBRATION
    assert "block 1 has no solvable generator" in capsys.readouterr().out
    verdict = read_verdict(out)
    assert verdict["status"] == "calibration_failure"
    assert verdict["epsilon_star"] is None
    assert verdict["crossing_value"] is None


# Data no longer than the longest parity window (6 for this network) is
# invalid input; the message gives both lengths.
def test_identify_on_data_within_the_window_exits_invalid(tmp_path, capsys):
    net = consensus.random_consensus_matrix(8, np.random.default_rng(0),
                                            extra_edges=8)
    code, out = run(tmp_path, "identify", {
        "matrix": {"rows": net.A.tolist()}, "observer": 1, "k": 1,
        "horizon": 4, "x0": {"random": {}}})
    assert code == cli.EXIT_INVALID
    assert ("5 samples do not exceed the longest parity window 6"
            in capsys.readouterr().err)
    assert not (out / "verdict.json").exists()


def test_identify_survives_failed_synthesis(tmp_path):
    # dead-beat synthesis used to fail on some candidates of this 20-node
    # network; the parity bank builds a generator for every candidate and
    # identifies the attacker at the default horizon from x0 = 0
    net = consensus.random_consensus_matrix(20, np.random.default_rng(0),
                                            extra_edges=20)
    code, out = run(tmp_path, "identify", {
        "matrix": {"rows": net.A.tolist()}, "observer": 1, "k": 1,
        "attacks": [{"agent": 3, "kind": "constant", "value": 1.0}]})
    assert code == cli.EXIT_OK
    assert read_verdict(out)["identified"] == [3]


# A tolerance of 1 or more cut every rank to zero (normal rank 0 on BENCH8).
@pytest.mark.parametrize("value", ["-1", "abc", "nan", "inf", "1", "2"])
def test_malformed_tolerance_exits_invalid(tmp_path, monkeypatch, capsys,
                                           value):
    policy = numerics.get_policy()
    monkeypatch.setattr(policy, "rank_rel", policy.rank_rel)
    monkeypatch.setenv("NETGUARD_TOL", value)
    code, out = run(tmp_path, "analyze", {
        "matrix": {"rows": BENCH8_A.tolist()}, "observer": 1, "sets": [[3]]})
    assert code == cli.EXIT_INVALID
    assert (f"error: NETGUARD_TOL must be a number in (0, 1), got '{value}'"
            in capsys.readouterr().err)
    assert not (out / "report.json").exists()


def test_tolerance_from_environment_is_applied(tmp_path, monkeypatch):
    policy = numerics.get_policy()
    monkeypatch.setattr(policy, "rank_rel", policy.rank_rel)
    scenario = {"matrix": {"rows": BENCH8_A.tolist()}, "observer": 1,
                "targets": [6], "decouple": [3, 7]}

    def dim_s_star():
        code, out = run(tmp_path, "synthesize", scenario)
        assert code == cli.EXIT_OK
        return json.loads((out / "report.json").read_text())["dim_S_star"]

    # at rank_rel 0.3 two directions of the S* fixpoint count as zero
    monkeypatch.setenv("NETGUARD_TOL", "0.3")
    assert dim_s_star() == 3
    assert policy.rank_rel == 1e-9
    monkeypatch.delenv("NETGUARD_TOL")
    assert dim_s_star() == 5


def test_tolerance_leaves_consensus_validation_alone(tmp_path, monkeypatch):
    policy = numerics.get_policy()
    monkeypatch.setattr(policy, "rank_rel", policy.rank_rel)
    scenario = {"matrix": {"rows": BENCH8_A.tolist()}, "observer": 1,
                "sets": [[3], [6]]}

    def stationary_vector():
        code, out = run(tmp_path, "analyze", scenario)
        assert code == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["consensus_valid"]
        return np.array(report["stationary_vector"])

    # 0.5 makes the rank decision on A^T - I see more than one fixed vector
    monkeypatch.setenv("NETGUARD_TOL", "0.5")
    loose = stationary_vector()
    monkeypatch.delenv("NETGUARD_TOL")
    assert np.max(np.abs(loose - stationary_vector())) <= 1e-12


def test_feedback_row_of_wrong_length_exits_invalid(tmp_path, capsys):
    code, out = run(tmp_path, "simulate", {
        "matrix": {"rows": BENCH8_A.tolist()}, "horizon": 5,
        "attacks": [{"agent": 2, "kind": "state_feedback", "row": [0.1] * 12}]})
    assert code == cli.EXIT_INVALID
    assert ("attack agent 2: feedback row has 12 entries, not 8"
            in capsys.readouterr().err)
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("n", [20, 30])
@pytest.mark.parametrize("attacked", [[], [3]])
def test_identify_on_larger_networks(tmp_path, n, attacked):
    net = consensus.random_consensus_matrix(n, np.random.default_rng(0),
                                            extra_edges=n)
    code, out = run(tmp_path, "identify", {
        "matrix": {"rows": net.A.tolist()}, "observer": 1, "k": 1,
        "horizon": 3 * n, "x0": {"random": {}},
        "attacks": [{"agent": a, "kind": "constant", "value": 1.0}
                    for a in attacked]})
    assert code == cli.EXIT_OK
    assert read_verdict(out)["identified"] == attacked


def read_trace(out):
    """Header and rows of ``trace.csv``, checking its CRLF line endings."""
    text = (out / "trace.csv").read_bytes().decode("utf-8")
    assert text.endswith("\r\n") and "\n" not in text.replace("\r\n", "")
    header, *rows = [line.split(",") for line in text.split("\r\n")[:-1]]
    assert all(len(row) == len(header) for row in rows)
    return header, rows


_X0 = np.random.default_rng(7).uniform(-1, 1, 8)
_ATTACKS = [{"agent": 3, "kind": "constant", "value": 0.5},
            {"agent": 5, "kind": "exponential", "rate": 0.9, "value": 1.0}]
TRACE_SCENARIOS = {
    "simulate": {"matrix": {"rows": BENCH8_A.tolist()}, "horizon": 30,
                 "x0": _X0.tolist(), "attacks": _ATTACKS},
    "detect": {"matrix": {"rows": BENCH8_A.tolist()}, "observer": 1,
               "horizon": 30, "x0": _X0.tolist(), "attacks": _ATTACKS},
    "identify": {"matrix": {"rows": BENCH8_A.tolist()}, "observer": 1,
                 "k": 1, "horizon": 24, "x0": _X0.tolist(),
                 "attacks": _ATTACKS[:1]},
    "local-identify": {"matrix": {"rows": weak7_matrix(0.01).tolist()},
                       "partition": [list(b) for b in WEAK7_PARTITION],
                       "observer": 1, "block": 1, "k": 1, "horizon": 30,
                       "attacks": [{"agent": 2, "kind": "constant",
                                    "value": 0.5}]},
}


@pytest.mark.parametrize("command", sorted(TRACE_SCENARIOS))
def test_trace_cells_read_back_as_floats(tmp_path, command):
    scenario = TRACE_SCENARIOS[command]
    code, out = run(tmp_path, command, scenario)
    assert code == cli.EXIT_OK
    header, rows = read_trace(out)
    assert header[0] == "t" and rows
    table = np.array([[float(cell) for name, cell in zip(header, row)
                       if name != "candidate_set"] for row in rows])
    if command != "simulate":
        return
    net = consensus.validate(BENCH8_A)
    attacks = [consensus.Attack.constant(3, 0.5),
               consensus.Attack.exponential(5, 0.9, 1.0)]
    traj = consensus.simulate(net, _X0, attacks, 30)
    assert header == ["t"] + [f"x{i}" for i in range(1, 9)]
    assert np.array_equal(table[:, 0], np.arange(31))
    assert table[:, 1:].tobytes() == traj.states.tobytes()


_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-05,
                     -3.0517578125e-05, 1e16, 1.7976931348623157e308]))
_LABEL = st.lists(st.integers(1, 99), min_size=1, max_size=3).map(
    lambda D: "+".join(map(str, D)))


@settings(max_examples=200, deadline=None)
@given(table=st.integers(1, 3).flatmap(lambda m: st.lists(
           st.tuples(_LABEL, st.lists(_FLOAT, min_size=m, max_size=m)),
           min_size=1, max_size=20)),
       as_array=st.booleans())
def test_trace_writer_round_trip(tmp_path_factory, table, as_array):
    labels = [label for label, _ in table]
    values = np.array([row for _, row in table])
    m = values.shape[1]
    header = ["t", "candidate_set"] + [f"x{i}" for i in range(1, m + 1)]
    floats = list(values.T) if as_array else [c.tolist() for c in values.T]
    out = tmp_path_factory.mktemp("trace")
    cli._write_trace(out / "trace.csv", header,
                     [range(len(table)), labels, *floats])
    got_header, rows = read_trace(out)
    assert got_header == header
    assert [row[0] for row in rows] == [str(t) for t in range(len(table))]
    assert [row[1] for row in rows] == labels
    read = np.array([[float(cell) for cell in row[2:]] for row in rows])
    assert read.tobytes() == values.tobytes()


def test_trace_writer_empty_table(tmp_path):
    cli._write_trace(tmp_path / "trace.csv", ["t", "residual_norm"],
                     [range(0), np.zeros(0)])
    assert (tmp_path / "trace.csv").read_bytes() == b"t,residual_norm\r\n"


@pytest.mark.parametrize("as_array", [False, True])
def test_trace_writer_non_finite_cells(tmp_path, as_array):
    values = [float("inf"), -float("inf"), float("nan"), 0.5]
    cli._write_trace(tmp_path / "trace.csv", ["t", "candidate_set", "x"],
                     [range(4), ["1", "2+5", "3", "4"],
                      np.array(values) if as_array else values])
    header, rows = read_trace(tmp_path)
    assert header == ["t", "candidate_set", "x"]
    assert rows == [["0", "1", "inf"], ["1", "2+5", "-inf"],
                    ["2", "3", "nan"], ["3", "4", "0.5"]]


_CELL = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308,
                     -2.2250738585072014e-308, 1e-7, 1e-05, 1e16,
                     1.7976931348623157e308, float("inf"), -float("inf"),
                     float("nan")]))


# The float block goes to orjson as one ndarray where the reference writer
# hands it Python floats row by row: the same bytes for every spelling,
# whether the block comes as one 2-d array, as 1-d arrays or as lists.
@settings(max_examples=150, deadline=None)
@given(rows=st.integers(0, 40), width=st.integers(1, 40),
       pool=st.lists(_CELL, min_size=1, max_size=30),
       seed=st.integers(0, 2**32 - 1), labels=st.none() | st.lists(
           _LABEL, min_size=40, max_size=40),
       form=st.sampled_from(["block", "arrays", "lists"]))
def test_trace_writer_matches_reference(tmp_path_factory, rows, width, pool,
                                        seed, labels, form):
    rng = np.random.default_rng(seed)
    # pool cells among wide-ranging random ones
    values = np.where(rng.random((rows, width)) < 0.5,
                      np.array(pool)[rng.integers(len(pool), size=(rows, width))],
                      rng.standard_normal((rows, width))
                      * 10.0 ** rng.integers(-300, 300, size=(rows, width)))
    keys = [range(rows)] if labels is None else [list(range(rows)),
                                                 labels[:rows]]
    header = ["t", "candidate_set"][:len(keys)] + [
        f"x{i}" for i in range(1, width + 1)]
    floats = {"block": [values], "arrays": list(values.T),
              "lists": [c.tolist() for c in values.T]}[form]
    out = tmp_path_factory.mktemp("trace")
    cli._write_trace(out / "got.csv", header, keys + floats)
    write_trace_reference(out / "want.csv", header,
                          keys + [c.tolist() for c in values.T])
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


# The parser is built once per process: consecutive calls with different
# subcommands, seeds and output directories write what calls on a freshly
# built parser write.
def test_consecutive_calls_match_fresh_calls(tmp_path):
    calls = [("simulate", 4), ("identify", 5), ("detect", None),
             ("simulate", None), ("local-identify", 6)]
    paths = {}
    for command in {c for c, _ in calls}:
        paths[command] = tmp_path / f"{command}.json"
        paths[command].write_text(json.dumps(TRACE_SCENARIOS[command]))

    def argv(i, command, seed, root):
        args = [command, "--scenario", str(paths[command]),
                "--out", str(root / f"{i}-{command}")]
        return args + (["--seed", str(seed)] if seed is not None else [])

    for i, (command, seed) in enumerate(calls):
        assert cli.main(argv(i, command, seed, tmp_path / "reused")) == cli.EXIT_OK
    for i, (command, seed) in enumerate(calls):
        cli._parser.cache_clear()
        assert cli.main(argv(i, command, seed, tmp_path / "fresh")) == cli.EXIT_OK
    for i, (command, _) in enumerate(calls):
        fresh, reused = (tmp_path / side / f"{i}-{command}"
                         for side in ("fresh", "reused"))
        names = sorted(f.name for f in fresh.iterdir())
        assert names == sorted(f.name for f in reused.iterdir())
        for name in names:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()
            if name.endswith(".json"):
                strict_json(fresh / name)


def test_validate_without_matrix_exits_invalid_on_a_reused_parser(tmp_path):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate"])
        assert exc.value.code == cli.EXIT_INVALID
    path = tmp_path / "A.txt"
    np.savetxt(path, BENCH8_A)
    assert cli.main(["validate", "--matrix", str(path)]) == cli.EXIT_OK


# A NaN or infinite attack parameter is invalid input, not a verdict: it
# used to give "identified misbehaving set: []" and NaN states.
@pytest.mark.parametrize("command", ["identify", "simulate"])
@pytest.mark.parametrize("attack", [
    {"kind": "constant", "value": float("nan")},
    {"kind": "exponential", "rate": 0.9, "value": float("inf")},
    {"kind": "exponential", "rate": float("nan"), "value": 1.0},
    {"kind": "initial_offset", "value": float("-inf")},
    {"kind": "state_feedback", "row": [0.0] * 8, "offset": float("nan")}])
def test_non_finite_attack_parameter_exits_invalid(tmp_path, capsys, command,
                                                   attack):
    code, out = run(tmp_path, command, {
        "matrix": {"rows": BENCH8_A.tolist()}, "observer": 1, "k": 1,
        "horizon": 24, "attacks": [dict(attack, agent=3)]})
    assert code == cli.EXIT_INVALID
    assert "must be finite" in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


def test_negative_k_exits_invalid(tmp_path, capsys):
    code, out = run(tmp_path, "identify", {
        "matrix": {"rows": BENCH8_A.tolist()}, "observer": 1, "k": -1,
        "horizon": 24})
    assert code == cli.EXIT_INVALID
    assert "k must be nonnegative, got -1" in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


def test_negative_local_k_exits_invalid(tmp_path, capsys):
    code, out = run(tmp_path, "local-identify", {
        "matrix": {"rows": weak7_matrix(0.01).tolist()},
        "partition": [list(b) for b in WEAK7_PARTITION], "observer": 1,
        "block": 1, "k": -1, "horizon": 30})
    assert code == cli.EXIT_INVALID
    assert "k_j must be nonnegative, got -1" in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


@pytest.mark.parametrize("floor", [float("nan"), -1e-6, float("inf"), None,
                                   "low"])
def test_bad_residual_floor_exits_invalid(tmp_path, capsys, floor):
    # a NaN floor would never flag this attack, a negative one always flags
    code, out = run(tmp_path, "detect", {
        "matrix": {"rows": BENCH8_A.tolist()}, "observer": 1, "horizon": 24,
        "residual_floor": floor,
        "attacks": [{"agent": 3, "kind": "constant", "value": 1.0}]})
    assert code == cli.EXIT_INVALID
    assert "residual_floor must be finite and nonnegative" in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


SCALAR_SCENARIOS = {
    **TRACE_SCENARIOS,
    "simulate": dict(TRACE_SCENARIOS["simulate"], seed=1,
                     x0={"random": {"low": -1, "high": 1}},
                     attacks=_ATTACKS + [{"agent": 6, "kind": "random",
                                          "low": 0.1, "signed": True}]),
    "local-identify": dict(TRACE_SCENARIOS["local-identify"],
                           calibration={"u_max": 1.0, "u_min": 0.1,
                                        "x_max": 1.0, "outside": []}),
    "analyze": {"matrix": {"rows": BENCH8_A.tolist()}, "observer": 1,
                "observers": [1, 2], "sets": [[3]]},
    "synthesize": {"matrix": {"rows": BENCH8_A.tolist()}, "observer": 1,
                   "targets": [3], "decouple": [5]},
}

_KIND = ("one of constant, exponential, state_feedback, sequence, "
         "initial_offset, random")
# (command, field, the kind its message names, a value of the wrong type);
# a non-integral number or a boolean is the wrong type for an integer, and
# the empty field is the scenario document itself.
FIELD_CASES = [
    ("simulate", "", "a JSON object", [1, 2]),
    ("analyze", "observer", "an integer", "1"),
    ("simulate", "horizon", "an integer", [30]),
    ("detect", "observer", "an integer", 2.7),
    ("detect", "horizon", "an integer", "30"),
    ("identify", "observer", "an integer", False),
    ("identify", "k", "an integer", 1.5),
    ("identify", "horizon", "an integer", 24.5),
    ("local-identify", "observer", "an integer", True),
    ("local-identify", "k", "an integer", "1"),
    ("local-identify", "block", "an integer", [1]),
    ("local-identify", "horizon", "an integer", {}),
    ("local-identify", "calibration.u_min", "a number", "0.1"),
    ("local-identify", "calibration.u_max", "a number", "inf"),
    ("local-identify", "calibration.x_max", "a number", "nan"),
    ("synthesize", "observer", "an integer", 1.0001),
    ("simulate", "seed", "an integer", 1.5),
    ("analyze", "seed", "an integer", "0"),
    ("synthesize", "seed", "an integer", True),
    ("analyze", "matrix", "an object", [[1.0]]),
    ("analyze", "matrix.rows", "a list of equal-length rows of numbers",
     [[1.0, 0.0], [1.0]]),
    ("synthesize", "matrix.file", "a string", 3),
    ("simulate", "x0", 'a list of numbers or {"random": {...}}', "zeros"),
    ("simulate", "x0.random", "an object", [-1, 1]),
    ("simulate", "x0.random.low", "a number", "-1"),
    ("simulate", "x0.random.high", "a number", [1]),
    ("detect", "attacks", "a list of objects", {"agent": 3}),
    ("identify", "attacks.0.agent", "an integer", "3"),
    ("identify", "attacks.0.kind", _KIND, "steady"),
    ("identify", "attacks.0.value", "a number", "1"),
    ("simulate", "attacks.1.rate", "a number", "0.9"),
    ("simulate", "attacks.2.low", "a number", [0.1]),
    ("simulate", "attacks.2.signed", "true or false", 1),
    ("analyze", "sets", "a list of agent lists", [3]),
    ("analyze", "observers", "a list of agents", 1),
    ("local-identify", "partition", "a list of agent lists", [1, 2]),
    ("local-identify", "calibration", "an object", 1.0),
    ("local-identify", "calibration.outside", "a list of agents", [[4]]),
    ("synthesize", "targets", "a list of agents", 3),
    ("synthesize", "decouple", "a list of agents", [5.5]),
]


# A null or wrong-typed field is invalid input that names the field, not a
# traceback (from int(None), None.get or iterating None) or a run on a
# truncated or defaulted value.
@pytest.mark.parametrize("command, field, kind, wrong", FIELD_CASES,
                         ids=[f"{c}-{f or 'document'}"
                              for c, f, _, _ in FIELD_CASES])
def test_null_field_exits_invalid(tmp_path, capsys, command, field, kind,
                                  wrong):
    *path, name = field.split(".") if field else ["scenario"]
    for value in (None, wrong):
        scenario = copy.deepcopy(SCALAR_SCENARIOS[command])
        if field == "matrix.file":
            del scenario["matrix"]["rows"]
        spec = scenario
        for part in path:
            spec = spec[int(part)] if part.isdigit() else spec[part]
        if field:
            spec[name] = value
        else:
            scenario = value
        code, out = run(tmp_path, command, scenario)
        assert code == cli.EXIT_INVALID
        assert f"{name} must be {kind}, got {value!r}" in capsys.readouterr().err
        assert not (out / "verdict.json").exists()
        assert not (out / "report.json").exists()


# The calibration band is checked where the bound LPs use it: an infinite
# u_max used to write "threshold": NaN and flag nothing, and a negative or
# NaN x_max ended in a solver failure (exit 4).
# An agent of ``outside`` beyond 1..n ended in an IndexError (99) or was
# calibrated against agent n through index -1 (0).
@pytest.mark.parametrize("calibration, message", [
    ({"x_max": -1}, "x_max must be finite and nonnegative, got -1.0"),
    ({"x_max": float("nan")}, "x_max must be finite and nonnegative, got nan"),
    ({"u_max": float("inf")}, "need finite 0 <= u_min <= u_max"),
    ({"outside": [99]}, "agent 99 outside 1..7"),
    ({"outside": [0]}, "agent 0 outside 1..7")],
    ids=["x_max-negative", "x_max-nan", "u_max-inf", "outside-99",
         "outside-0"])
def test_calibration_band_is_checked(tmp_path, capsys, calibration, message):
    code, out = run(tmp_path, "local-identify",
                    dict(TRACE_SCENARIOS["local-identify"],
                         calibration=calibration))
    assert code == cli.EXIT_INVALID
    assert message in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


_RANDOM = {"agent": 6, "kind": "random", "low": 1, "high": 0}


# A value in range for its type but not for its use names the field or the
# attack: numpy's "expected non-negative integer" and "high - low < 0" did
# not, and an infinite bound ended in an OverflowError traceback.
@pytest.mark.parametrize("command, changes, argv, message", [
    ("simulate", {"seed": -1}, [], "seed must be nonnegative, got -1"),
    ("identify", {}, ["--seed", "-1"], "seed must be nonnegative, got -1"),
    ("simulate", {"attacks": [_RANDOM]}, [],
     "random attack of agent 6: need finite low <= high, got low 1.0 and "
     "high 0.0"),
    ("detect", {"attacks": [dict(_RANDOM, low=0, high=float("inf"))]}, [],
     "random attack of agent 6: need finite low <= high, got low 0.0 and "
     "high inf"),
    ("simulate", {"x0": {"random": {"low": 1, "high": -1}}}, [],
     "x0.random: need finite low <= high, got low 1.0 and high -1.0")],
    ids=["seed-field", "seed-option", "random-inverted", "random-infinite",
         "x0-inverted"])
def test_out_of_range_field_exits_invalid(tmp_path, capsys, command, changes,
                                          argv, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(TRACE_SCENARIOS[command], **changes)))
    out = tmp_path / "out"
    code = cli.main([command, "--scenario", str(path), "--out", str(out),
                     *argv])
    assert code == cli.EXIT_INVALID
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


_NEAR_ZERO = [[0.5, 0.5, 0.0], [0.5, 0.5 - 1e-13, 1e-13], [0.3, 0.3, 0.4]]


# Each property that fails is reported once, under its own name: a row sum
# of 1.1 and a negative entry used to be reported as "primitive" too.
@pytest.mark.parametrize("rows, name", [
    ([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]], "square"),
    ([[1.2, -0.2], [0.5, 0.5]], "nonnegative entries"),
    ([[0.6, 0.5], [0.5, 0.5]], "row sums equal one"),
    (np.eye(3).tolist(), "irreducible"),
    ([[0.0, 1.0], [1.0, 0.0]], "primitive"),
    (_NEAR_ZERO, "irreducible")],
    ids=["non-square", "negative", "row-sum", "reducible", "periodic",
         "near-zero-arc"])
def test_validate_names_the_failing_property(tmp_path, capsys, rows, name):
    code, _ = run(tmp_path, "validate", {"matrix": {"rows": rows}})
    assert code == cli.EXIT_INVALID
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith(f"FAIL {name}: ")
    assert lines[-1] == "not a consensus matrix"


def test_validate_lists_every_check_of_a_consensus_matrix(tmp_path, capsys):
    code, _ = run(tmp_path, "validate", {"matrix": {"rows": BENCH8_A.tolist()}})
    assert code == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "ok   square", "ok   nonnegative entries", "ok   row sums equal one",
        "ok   irreducible", "ok   primitive"]
    assert lines[-1] == "valid consensus matrix"
