"""Verdicts that do not change when the data are scaled.

Each example draws a random consensus network and a factor 10^s, s in
[-9, 9], and compares four verdicts on data scaled by that factor with
the same verdicts on the unscaled data: the ``detect`` command's flag,
the set complete identification returns, whether the cut attack is
built, and whether a witness of a 2-cut (and a broken copy of it) is
accepted.
"""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from netguard import cli, consensus, detect, graph, sysan


def _detect_flag(out, net, j, x0, attacks) -> bool:
    path = out / "scenario.json"
    path.write_text(json.dumps({
        "matrix": {"rows": net.A.tolist()}, "observer": j,
        "horizon": 6 * net.n, "x0": x0.tolist(), "attacks": attacks}))
    assert cli.main(["detect", "--scenario", str(path), "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    return verdict["misbehavior_detected"]


def _cut_attack_built(net, cut, c) -> bool:
    try:
        sysan.construct_undetectable_attack(net, cut.cut, (), cut.sink_side[0],
                                            scale=c)
    except ValueError:
        return False
    return True


def _scaled(w, c):
    return dataclasses.replace(w, x0=c * w.x0, inputs_1=c * w.inputs_1,
                               inputs_2=c * w.inputs_2)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(6, 10), s=st.integers(-9, 9))
def test_verdicts_do_not_change_with_scale(tmp_path_factory, data, n, s):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    net = consensus.random_consensus_matrix(
        n, rng, extra_edges=int(rng.integers(0, n)))
    factor = 10.0 ** s
    j = data.draw(st.integers(1, n), label="observer")
    a = data.draw(st.sampled_from([v for v in range(1, n + 1) if v != j]),
                  label="attacked")
    x0, value = rng.uniform(-1, 1, n), float(rng.uniform(0.5, 2.0))
    out = tmp_path_factory.mktemp("detect")

    def verdicts(c):
        attacked = [{"agent": a, "kind": "constant", "value": c * value}]
        ys = net.outputs(consensus.simulate(
            net, c * x0, [consensus.Attack.constant(a, c * value)],
            6 * n).states, j)
        ident = detect.complete_identification(net, j, 1, ys)
        return (_detect_flag(out, net, j, c * x0, attacked),
                _detect_flag(out, net, j, c * x0, []),
                ident.status, ident.candidates)

    assert verdicts(factor) == verdicts(1.0)
    cut = graph.find_vertex_cut(net.graph,
                                graph.vertex_connectivity(net.graph))
    assert _cut_attack_built(net, cut, factor) == _cut_attack_built(net, cut, 1.0)
    pair = graph.find_vertex_cut(net.graph, 2)
    if pair is None:
        return
    jw = pair.sink_side[0]
    w = sysan.unidentifiability_witness(net, pair.cut[:1], pair.cut[1:], jw,
                                        horizon=3 * n)
    assert w is not None
    # one more unit of the observer's own state shows at t = 0 in the
    # first attribution's output alone
    ys = net.outputs(consensus.simulate(
        net, w.x0, [consensus.Attack.sequence(w.K1[0], w.inputs_1[:, 0])],
        3 * n).states, jw)
    broken = dataclasses.replace(w, x0=w.x0 + (1 + np.max(np.abs(ys)))
                                 * np.eye(n)[jw - 1])
    for cand, expected in ((w, True), (broken, False)):
        for c in (1.0, factor):
            assert sysan._witness_outputs_match(net, _scaled(cand, c),
                                                jw) == expected
