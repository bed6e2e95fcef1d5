import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pslgaug import InvalidInstance, build, cli, heuristic, optimal
from pslgaug.cli import main
from pslgaug.geom import dist
from pslgaug.instances import (
    fraction_to_decimal,
    generate,
    load,
    oplog_from_jsonl,
    oplog_to_jsonl,
    parse,
    serialize,
)

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "schemas" / "cli_output.schema.json").read_text())

FIG3 = {
    "format_version": 1,
    "points": [
        {"id": 1, "x": "0", "y": "0"},
        {"id": 2, "x": "0", "y": "0.1"},
        {"id": 3, "x": "1", "y": "0"},
        {"id": 4, "x": "1", "y": "0.1"},
    ],
    "edges": [[1, 2], [2, 3], [3, 4]],
}


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "fig3.json"
    path.write_text(json.dumps(FIG3))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def check_schema(doc):
    import jsonschema

    jsonschema.validate(doc, SCHEMA)


def test_validate(fig3_file, capsys):
    code, out, _ = run_cli(["validate", fig3_file], capsys)
    assert code == 0
    assert "4 points" in out


def test_validate_collinear(tmp_path, capsys):
    bad = dict(FIG3)
    bad["points"] = [
        {"id": 1, "x": "0", "y": "0"},
        {"id": 2, "x": "1", "y": "1"},
        {"id": 3, "x": "2", "y": "2"},
    ]
    bad["edges"] = [[1, 2]]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code, out, err = run_cli(["validate", str(p)], capsys)
    assert code == 1
    assert "collinear" in err


def _fig3_with(point=None, edge=None):
    doc = json.loads(json.dumps(FIG3))
    if point is not None:
        doc["points"][1].update(point)
    if edge is not None:
        doc["edges"][1] = edge
    return doc


MALFORMED = {
    "float_coordinate": (_fig3_with(point={"x": 0.5}), "point entry 1"),
    "list_id": (_fig3_with(point={"id": [2]}), "point entry 1"),
    "bool_id": (_fig3_with(point={"id": True}), "point entry 1"),
    "zero_denominator": (_fig3_with(point={"y": "1/0"}), "point entry 1"),
    "no_decimal_form": (_fig3_with(point={"x": "1/3"}), "point entry 1"),
    # the decimal grammar is the same on every Python: no ratio, no PEP 515
    # underscore (Fraction reads one from 3.11 on), no non-ASCII digit and
    # no surrounding space
    "ratio": (_fig3_with(point={"x": "1/2"}), "point entry 1"),
    "underscore": (_fig3_with(point={"x": "1_0"}), "point entry 1"),
    "arabic_indic_digit": (_fig3_with(point={"x": "\u0663"}), "point entry 1"),
    "leading_space": (_fig3_with(point={"x": " 5"}), "point entry 1"),
    # past float range: lengths and their sums would overflow, so build
    # bounds 32 n max(|x|, |y|) below 2^1023; an exponent beyond 4300 is off
    # the grammar, before its value is computed
    "exponent_4000": (_fig3_with(point={"x": "1e4000"}), "point 2 lies too far out"),
    "integer_400_digits": (_fig3_with(point={"x": "9" * 400}), "point 2 lies too far out"),
    "float_range_1e308": (_fig3_with(point={"x": "1e308"}), "point 2 lies too far out"),
    "exponent_minus_5000": (_fig3_with(point={"x": "1e-5000"}), "point entry 1"),
    "edge_triple": (_fig3_with(edge=[2, 3, 4]), "edge entry 1"),
    "edge_of_lists": (_fig3_with(edge=[[2], [3]]), "edge entry 1"),
    "edge_of_strings": (_fig3_with(edge=["2", "3"]), "edge entry 1"),
    # True == 1 and 1.0 == 1, but neither is the integer version
    "bool_version": ({**FIG3, "format_version": True}, "missing or unsupported format_version"),
    "float_version": ({**FIG3, "format_version": 1.0}, "missing or unsupported format_version"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_validate_malformed_entry(tmp_path, capsys, case):
    doc, named = MALFORMED[case]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, err = run_cli(["validate", str(p)], capsys)
    assert code == 1
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("x", ["1e4000", "9" * 400, "1e308", "1e-5000"])
@pytest.mark.parametrize(
    "argv",
    [["augment", "--mode", "opt2vc"], ["augment", "--mode", "heur2ec"], ["transform"],
     ["oracle", "--mode", "2ec"], ["render", "-o", "out.svg"]],
)
def test_commands_reject_coordinates_past_float_range(tmp_path, capsys, monkeypatch, argv, x):
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "far.json"
    p.write_text(json.dumps(_fig3_with(point={"x": x})))
    code, _, err = run_cli([argv[0], str(p), *argv[1:]], capsys)
    assert code == 1
    assert "point 2 lies too far out" in err or "point entry 1" in err
    assert "Traceback" not in err


def test_integer_coordinates_accepted(tmp_path, capsys):
    p = tmp_path / "ints.json"
    p.write_text(json.dumps(_fig3_with(point={"x": 0, "y": 1})))
    code, out, _ = run_cli(["validate", str(p)], capsys)
    assert code == 0
    assert "4 points" in out


@pytest.mark.parametrize(
    "overlay",
    [
        json.dumps({"edges": [[1, 99]]}),
        json.dumps({"edges": [[1, 2, 3]]}),
        json.dumps({"op": "insert", "u": 1, "v": 99, "phase": 4}) + "\n",
    ],
)
def test_render_rejects_unknown_overlay_endpoint(fig3_file, tmp_path, capsys, overlay):
    ov = tmp_path / "overlay.json"
    ov.write_text(overlay)
    out_svg = tmp_path / "out.svg"
    code, _, err = run_cli(["render", fig3_file, "--overlay", str(ov), "-o", str(out_svg)], capsys)
    assert code == 1
    assert err.startswith("error: overlay edge [1, ")
    assert "Traceback" not in err
    assert not out_svg.exists()


def test_oplog_bad_phase(fig3_file, tmp_path, capsys):
    oplog = tmp_path / "run.jsonl"
    oplog.write_text(json.dumps({"op": "insert", "u": 1, "v": 3, "phase": "x"}) + "\n")
    code, _, err = run_cli(["replay", fig3_file, str(oplog)], capsys)
    assert code == 1
    assert err == "error: bad oplog line 1\n"


@pytest.mark.parametrize("phase", [2.9, True, "3"])
def test_oplog_rejects_non_integer_phase(fig3_file, tmp_path, capsys, phase):
    oplog = tmp_path / "run.jsonl"
    oplog.write_text(json.dumps({"op": "insert", "u": 1, "v": 3, "phase": phase}) + "\n")
    code, _, err = run_cli(["replay", fig3_file, str(oplog)], capsys)
    assert code == 1
    assert err == "error: bad oplog line 1\n"


NON_INTEGER_IDS = [{"u": 1.9, "v": 3}, {"u": 1, "v": 3.0}, {"u": "1", "v": 3},
                   {"u": True, "v": 3}, {"u": 1, "v": False}]


@pytest.mark.parametrize("ids", NON_INTEGER_IDS)
def test_oplog_rejects_non_integer_ids(ids):
    good = json.dumps({"op": "insert", "u": 1, "v": 3, "phase": 4})
    bad = json.dumps({"op": "insert", "phase": 4, **ids})
    with pytest.raises(InvalidInstance, match=r"^bad oplog line 2$"):
        oplog_from_jsonl(good + "\n" + bad + "\n")


@pytest.mark.parametrize("ids", NON_INTEGER_IDS)
def test_replay_rejects_non_integer_ids(fig3_file, tmp_path, capsys, ids):
    oplog = tmp_path / "run.jsonl"
    oplog.write_text(json.dumps({"op": "insert", "phase": 4, **ids}) + "\n")
    code, _, err = run_cli(["replay", fig3_file, str(oplog)], capsys)
    assert code == 1
    assert err == "error: bad oplog line 1\n"


DEEP_JSON = "[" * 200_000  # past the decoder's recursion limit


def test_validate_rejects_deeply_nested_json(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text(DEEP_JSON)
    code, _, err = run_cli(["validate", str(p)], capsys)
    assert code == 1
    assert err.startswith("error: not valid JSON: maximum recursion depth exceeded")
    assert "Traceback" not in err


def test_replay_rejects_a_deeply_nested_oplog_line(fig3_file, tmp_path, capsys):
    oplog = tmp_path / "deep.jsonl"
    oplog.write_text(json.dumps({"op": "insert", "u": 1, "v": 3, "phase": 4}) + "\n" + DEEP_JSON)
    code, _, err = run_cli(["replay", fig3_file, str(oplog)], capsys)
    assert code == 1
    assert err == "error: bad oplog line 2\n"


def test_render_rejects_a_deeply_nested_overlay(fig3_file, tmp_path, capsys):
    ov = tmp_path / "deep.json"
    ov.write_text(DEEP_JSON)
    out_svg = tmp_path / "out.svg"
    code, _, err = run_cli(["render", fig3_file, "--overlay", str(ov), "-o", str(out_svg)], capsys)
    assert code == 1
    assert err == "error: bad oplog line 1\n"
    assert not out_svg.exists()


def test_augment_json(fig3_file, capsys):
    code, out, _ = run_cli(["augment", fig3_file, "--mode", "opt2ec", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    check_schema(doc)
    assert doc["cost"] == pytest.approx(2.0, abs=1e-9)
    assert doc["edges"] == [[1, 3], [2, 4]]
    assert doc["verified"] is True


def test_augment_all_modes(fig3_file, capsys):
    for mode in ("heur2ec", "heur2vc", "opt2ec", "opt2vc"):
        code, out, _ = run_cli(["augment", fig3_file, "--mode", mode, "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        check_schema(doc)
        assert doc["cost"] == pytest.approx(2.0, abs=1e-9)


def test_augment_takes_point_ids_beyond_int64(tmp_path, capsys):
    # the instance format accepts any JSON integer as a point id
    doc = json.loads(serialize(generate(14, 9, 0.3)))
    big = {p["id"]: 2**63 + 7 * p["id"] for p in doc["points"]}
    for p in doc["points"]:
        p["id"] = big[p["id"]]
    doc["edges"] = [[big[u], big[v]] for u, v in doc["edges"]]
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps(doc))
    for mode in ("heur2ec", "heur2vc", "opt2ec", "opt2vc"):
        code, out, err = run_cli(["augment", str(inst), "--mode", mode, "--json"], capsys)
        assert (code, err) == (0, ""), mode
        edges = json.loads(out)["edges"]
        assert edges and all(min(e) >= 2**63 for e in edges), mode


@pytest.mark.parametrize("change, failed", [
    (lambda added: added[1:], "connectivity_ok failed"),
    (lambda added: sorted(added + [(1, 4)]), "planar failed (edges (1,4) and (2,3) cross)"),
], ids=["dropped-edge", "crossing-edge"])
def test_augment_exits_3_when_verify_rejects_the_result(fig3_file, capsys, monkeypatch,
                                                        change, failed):
    mode, augment = cli.AUGMENT_MODES["opt2ec"]

    def tampered(g):
        res = augment(g)
        return replace(res, added=change(res.added))

    monkeypatch.setitem(cli.AUGMENT_MODES, "opt2ec", (mode, tampered))
    code, out, err = run_cli(["augment", fig3_file, "--mode", "opt2ec", "--json"], capsys)
    assert (code, out) == (3, "")
    assert err == f"internal invariant violated: verify rejected the opt2ec result: {failed}\n"


def _crossing(edges):
    """fig3's added edges with (1, 3) swapped for (1, 4), which crosses the
    input edge (2, 3)."""
    return sorted((1, 4) if e == (1, 3) else e for e in edges)


@pytest.mark.parametrize("mode, name", [
    ("heur2ec", "augment_2ec"), ("heur2vc", "augment_2vc"),
    ("opt2ec", "optimal_augment 2ec"), ("opt2vc", "optimal_augment 2vc"),
])
def test_augment_exits_3_when_the_augmenter_rejects_its_own_result(fig3_file, capsys,
                                                                   monkeypatch, mode, name):
    # a crossing in the heuristic's geodesic edges or in a DP's chords is
    # caught by the augmenter's own verify, an internal fault, not bad input
    if mode.startswith("heur"):
        finish = heuristic._finish

        def tampered(g, added, certs, mode):
            edges = _crossing(added)
            return finish(g, {e: dist(g.by_id[e[0]], g.by_id[e[1]]) for e in edges}, certs, mode)

        monkeypatch.setattr(heuristic, "_finish", tampered)
    else:
        for dp in ("dp_2ec", "dp_2vc"):
            def tampered(g, walk, weight, solve=getattr(optimal, dp)):
                cost, chords = solve(g, walk, weight)
                return cost, _crossing(chords)

            monkeypatch.setattr(optimal, dp, tampered)
    code, out, err = run_cli(["augment", fig3_file, "--mode", mode, "--json"], capsys)
    assert (code, out) == (3, "")
    assert err == (f"internal invariant violated: verify rejected the {name} result: "
                   "planar failed (edges (1,4) and (2,3) cross)\n")


def test_transform_replay_roundtrip(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    g = generate(12, 7, 0.4)
    inst.write_text(serialize(g))
    oplog = tmp_path / "run.jsonl"
    code, out, _ = run_cli(
        ["transform", str(inst), "--oplog", str(oplog), "--json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    check_schema(doc)
    assert doc["final_length"] <= 2 * doc["mst_length"] + 1e-9

    code, out, _ = run_cli(["replay", str(inst), str(oplog), "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    check_schema(rep)
    assert rep["steps"] == doc["steps"]


def test_transform_oplog_states_the_exact_ceiling_and_replay_checks_it(tmp_path, capsys):
    from pslgaug.geom import LENGTH_TOL
    from pslgaug.transform import transform

    inst = tmp_path / "inst.json"
    g = generate(30, 8, 0.5)
    inst.write_text(serialize(g))
    oplog = tmp_path / "run.jsonl"
    code, _, _ = run_cli(["transform", str(inst), "--oplog", str(oplog)], capsys)
    assert code == 0
    stats = transform(g)[2].stats
    ceiling = stats["base_length"] + stats["mst_length"] + LENGTH_TOL
    lines = oplog.read_text().splitlines()
    assert {json.loads(line)["assert_len_le"] for line in lines} == {repr(ceiling)}
    assert [st.assert_len_le for st in oplog_from_jsonl(oplog.read_text())] == [ceiling] * len(lines)
    code, _, _ = run_cli(["replay", str(inst), str(oplog)], capsys)
    assert code == 0

    # one line states a ceiling below the graph's length after its step
    k = len(lines) // 2
    doc = json.loads(lines[k])
    doc["assert_len_le"] = "0.001"
    lines[k] = json.dumps(doc)
    oplog.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(["replay", str(inst), str(oplog)], capsys)
    assert code == 1
    assert err.startswith(f"replay violation: step {k}: length violated: ")
    assert err.endswith(" > assert_len_le 0.001\n")


@pytest.mark.parametrize("ceiling", [True, [1], "x", "nan", 10**400])
def test_oplog_rejects_a_malformed_length_ceiling(ceiling):
    good = json.dumps({"op": "insert", "u": 1, "v": 3, "phase": 4, "assert_len_le": 2})
    bad = json.dumps({"op": "insert", "u": 1, "v": 3, "phase": 4, "assert_len_le": ceiling})
    assert oplog_from_jsonl(good)[0].assert_len_le == 2.0
    with pytest.raises(InvalidInstance, match=r"^bad oplog line 2$"):
        oplog_from_jsonl(good + "\n" + bad + "\n")


@pytest.mark.parametrize("edges", [[1, 2], 5, [[1, 2], 3]])
def test_render_rejects_a_malformed_augmentation_record(fig3_file, tmp_path, capsys, edges):
    ov = tmp_path / "overlay.json"
    ov.write_text(json.dumps({"edges": edges}))
    out_svg = tmp_path / "out.svg"
    code, _, err = run_cli(["render", fig3_file, "--overlay", str(ov), "-o", str(out_svg)], capsys)
    assert code == 1
    assert err == ("error: malformed augmentation record: edges must be a list of "
                   "point id pairs\n")
    assert not out_svg.exists()


def test_replay_rejects_self_loop(fig3_file, tmp_path, capsys):
    from pslgaug.transform import OpStep

    oplog = tmp_path / "loop.jsonl"
    oplog.write_text(oplog_to_jsonl([OpStep("insert", 2, 2, 1)]))
    code, _, err = run_cli(["replay", fig3_file, str(oplog)], capsys)
    assert code == 1
    assert "replay violation" in err and "Traceback" not in err


def test_replay_rejects_a_disconnected_start_graph_with_an_empty_log(tmp_path, capsys):
    g = generate(8, 5, 0.5)
    inst = tmp_path / "one_edge.json"
    inst.write_text(serialize(build(g.points, [min(g.edges)])))
    oplog = tmp_path / "empty.jsonl"
    oplog.write_text("")
    code, out, err = run_cli(["replay", str(inst), str(oplog)], capsys)
    assert (code, out) == (1, "")
    assert err == ("replay violation: step 0: connectivity violated: "
                   "start graph is not connected\n")


def test_oracle_cli(fig3_file, capsys):
    code, out, _ = run_cli(["oracle", fig3_file, "--mode", "2ec", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    check_schema(doc)
    assert doc["cost"] == pytest.approx(2.0, abs=1e-9)


def test_oracle_exhausted(tmp_path, capsys):
    inst = tmp_path / "big.json"
    inst.write_text(serialize(generate(12, 3, 0.3)))
    code, out, err = run_cli(
        ["oracle", str(inst), "--mode", "2ec", "--limit", "2"], capsys
    )
    assert code == 2
    assert "exceed" in err


@pytest.mark.parametrize("limit", ["-1", "-5"])
def test_oracle_rejects_negative_limit(fig3_file, capsys, limit):
    # a negative limit once ran and ended as exhausted (exit 2)
    code, out, err = run_cli(["oracle", fig3_file, "--mode", "2vc", "--limit", limit], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: --limit must be at least 0, not {limit}\n"


def test_gen_deterministic(tmp_path, capsys):
    code, out1, _ = run_cli(["gen", "--n", "9", "--seed", "42", "--density", "0.5"], capsys)
    assert code == 0
    code, out2, _ = run_cli(["gen", "--n", "9", "--seed", "42", "--density", "0.5"], capsys)
    assert out1 == out2
    g = parse(out1)
    assert g.n == 9


@pytest.mark.parametrize("density", ["2", "-1", "nan"])
def test_gen_rejects_density_outside_unit_interval(tmp_path, capsys, density):
    out = tmp_path / "g.json"
    code, _, err = run_cli(["gen", "--n", "9", "--density", density, "-o", str(out)], capsys)
    assert code == 1
    assert err == f"error: density {float(density)!r} is not in [0, 1]\n"
    assert not out.exists()


def test_gen_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PSLG_SEED", "123")
    code, out1, _ = run_cli(["gen", "--n", "5"], capsys)
    code, out2, _ = run_cli(["gen", "--n", "5", "--seed", "123"], capsys)
    assert out1 == out2


@pytest.mark.parametrize("edges", [[[True, 1]], [[1, 1]]])
def test_render_rejects_bool_id_and_self_loop_overlay(fig3_file, tmp_path, capsys, edges):
    ov = tmp_path / "overlay.json"
    ov.write_text(json.dumps({"edges": edges}))
    out_svg = tmp_path / "out.svg"
    code, _, err = run_cli(["render", fig3_file, "--overlay", str(ov), "-o", str(out_svg)], capsys)
    assert code == 1
    assert err == f"error: overlay edge {edges[0]!r} does not join two point ids\n"
    assert not out_svg.exists()


def test_render_base_and_overlay(fig3_file, tmp_path, capsys):
    out_svg = tmp_path / "fig3.svg"
    code, _, _ = run_cli(["render", fig3_file, "-o", str(out_svg)], capsys)
    assert code == 0
    svg = out_svg.read_text()
    assert svg.count('class="base"') == 3
    assert 'class="aug"' not in svg

    # overlay the optimal augmentation
    aug_json = tmp_path / "aug.json"
    code, out, _ = run_cli(["augment", fig3_file, "--mode", "opt2ec", "--json"], capsys)
    aug_json.write_text(out)
    out_svg2 = tmp_path / "fig3aug.svg"
    code, _, _ = run_cli(
        ["render", fig3_file, "--overlay", str(aug_json), "-o", str(out_svg2)], capsys
    )
    assert code == 0
    svg = out_svg2.read_text()
    assert svg.count('class="base"') == 3
    assert svg.count('class="aug"') == 2


def test_render_oplog_overlay(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    g = generate(8, 5, 0.5)
    inst.write_text(serialize(g))
    oplog = tmp_path / "run.jsonl"
    run_cli(["transform", str(inst), "--oplog", str(oplog)], capsys)
    out_svg = tmp_path / "run.svg"
    code, _, _ = run_cli(
        ["render", str(inst), "--overlay", str(oplog), "-o", str(out_svg)], capsys
    )
    assert code == 0
    svg = out_svg.read_text()
    assert 'id="phase-' in svg


def test_render_deterministic(fig3_file, tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run_cli(["render", fig3_file, "-o", str(a)], capsys)
    run_cli(["render", fig3_file, "-o", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_render_an_instance_with_no_points(tmp_path, capsys):
    inst = tmp_path / "empty.json"
    inst.write_text(json.dumps({"format_version": 1, "points": [], "edges": []}))
    assert run_cli(["validate", str(inst)], capsys)[0] == 0
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out_svg in (a, b):
        code, _, err = run_cli(["render", str(inst), "-o", str(out_svg)], capsys)
        assert (code, err) == (0, "")
    svg = a.read_text()
    assert a.read_bytes() == b.read_bytes()
    assert '<g id="base">\n  </g>' in svg and '<g id="points">\n  </g>' in svg
    assert "<line" not in svg and "<circle" not in svg


def test_roundtrip_exact():
    g = build(
        [(0, "0.125", "-3.5"), (1, "7", "0.0625"), (2, "-2.25", "4")],
        [(0, 1), (1, 2)],
    )
    assert serialize(parse(serialize(g))) == serialize(g)


def test_fraction_to_decimal():
    from fractions import Fraction

    assert fraction_to_decimal(Fraction(1, 10)) == "0.1"
    assert fraction_to_decimal(Fraction(-25, 100)) == "-0.25"
    assert fraction_to_decimal(Fraction(3)) == "3"
    assert fraction_to_decimal(Fraction(1, 8)) == "0.125"


def test_oplog_roundtrip():
    from pslgaug.transform import OpStep

    steps = [OpStep("insert", 1, 3, 4), OpStep("delete", 2, 3, 5)]
    text = oplog_to_jsonl(steps, assert_len_le="2.405")
    back = oplog_from_jsonl(text)
    assert back == steps
    for line in text.strip().splitlines():
        doc = json.loads(line)
        assert set(doc) == {"op", "u", "v", "phase", "assert_len_le"}


def test_record_deterministic_modulo_walltime(fig3_file, capsys):
    docs = []
    for _ in range(2):
        code, out, _ = run_cli(["augment", fig3_file, "--mode", "opt2ec", "--json"], capsys)
        doc = json.loads(out)
        doc.pop("wall_ms")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_console_entry_point(fig3_file):
    # the child finds the package under src/ whether or not it is installed
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pslgaug.cli", "validate", fig3_file],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "4 points" in proc.stdout


def _child_stdout(code, *args):
    """Standard output of a fresh interpreter running ``code`` on the
    package under src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    ).stdout


@pytest.mark.parametrize("module", ["pslgaug", "pslgaug.cli"])
def test_import_does_not_load_numpy(module):
    assert _child_stdout(f"import sys, {module}; print('numpy' in sys.modules)") == "False\n"


def test_numpy_loads_at_the_first_dp(tmp_path):
    inst, oplog = str(tmp_path / "inst.json"), str(tmp_path / "run.jsonl")
    commands = [
        ["gen", "--n", "12", "--seed", "7", "--density", "0.4", "-o", inst],
        ["validate", inst],
        ["transform", inst, "--oplog", oplog],
        ["replay", inst, oplog],
        ["augment", inst, "--mode", "heur2vc"],
        ["augment", inst, "--mode", "opt2vc"],
    ]
    out = _child_stdout(
        "import contextlib, io, json, sys\n"
        "from pslgaug.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(argv[0], code, 'numpy' in sys.modules)\n",
        json.dumps(commands),
    )
    assert out.splitlines() == [
        "gen 0 False",
        "validate 0 False",
        "transform 0 False",
        "replay 0 False",
        "augment 0 False",
        "augment 0 True",
    ]
