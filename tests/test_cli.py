"""Command line behavior: exit codes, JSON shapes, byte stability.

Most tests drive main(argv) in process and read files from tmp_path;
three subprocess tests check the entry point, real shell pipes, and that
repeated in-process calls match fresh processes. They use an installed
`flipwide` when one is on PATH, and otherwise a launcher built from the
`[project.scripts]` entry of pyproject.toml. Four more run
`python -m flipwide` with the package's source directory on PYTHONPATH.
"""

import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import flipwide
from flipwide import (
    BudgetExceeded,
    Flip,
    FlipWideRequest,
    Graph,
    LevelTrace,
    SampleBudget,
    apply_flips,
    flip_widen,
)
from flipwide.cli import _dump, _parse_flips, _result_json, main
from flipwide.generators import (
    clique,
    complement,
    half_graph,
    matching,
    path,
    random_bounded_degree,
    star_forest,
    subdivided_clique,
)
from flipwide.graphcore import format_edge_list, parse_edge_list


@pytest.fixture()
def graph_file(tmp_path):
    def write(g, name="g.edges"):
        p = tmp_path / name
        p.write_text(format_edge_list(g))
        return str(p)

    return write


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# --------------------------------------------------------------- generate

def test_generate_to_file(tmp_path, capsys):
    out = tmp_path / "p.edges"
    code, _, err = run(["generate", "path", "5", "-o", str(out)], capsys)
    assert code == 0
    assert out.read_text() == format_edge_list(path(5))
    assert "elapsed" in err and "sha256" in err


def test_generate_seed_threads_through(tmp_path, capsys):
    out = tmp_path / "r.edges"
    code, _, _ = run(
        ["generate", "random_bounded_degree", "30", "3", "--seed", "7",
         "-o", str(out)], capsys)
    assert code == 0
    assert parse_edge_list(out.read_text()) == random_bounded_degree(30, 3, 7)


def test_generate_seed_defaults_to_zero(capsys):
    code, out, _ = run(["generate", "random_bounded_degree", "30", "3"],
                       capsys)
    assert code == 0
    assert parse_edge_list(out) == random_bounded_degree(30, 3, 0)


@pytest.mark.parametrize("seed", ["5", "0"])
def test_generate_rejects_seed_of_a_seedless_family(capsys, seed):
    # a family that takes no seed would ignore it
    assert run(["generate", "path", "3", "--seed", seed], capsys) == (
        1, "", "error: path takes no --seed\n")


def test_generate_param_count_error(capsys):
    code, _, err = run(["generate", "clique"], capsys)
    assert code == 1
    assert "clique takes 1 parameter(s): n" in err


def test_generate_unknown_family(capsys):
    code, _, err = run(["generate", "torus", "5"], capsys)
    assert code == 1 and "error:" in err


# ------------------------------------------------------------- flip-widen

def widen_out(graph_file, tmp_path, capsys, g, r="2", m="8"):
    gf = graph_file(g)
    out = tmp_path / "res.json"
    code, _, err = run(
        ["flip-widen", "-g", gf, "-A", "all", "-r", r, "-m", m,
         "-o", str(out)], capsys)
    return code, out, err, gf


def test_flip_widen_clique(graph_file, tmp_path, capsys):
    code, out, _, _ = widen_out(graph_file, tmp_path, capsys, clique(50))
    assert code == 0
    doc = json.loads(out.read_text())
    assert list(doc) == ["b_set", "flips", "radius", "trace", "verified"]
    assert doc["b_set"] == list(range(2, 50))
    assert doc["radius"] == 2 and doc["verified"] is True
    assert [t["parity"] for t in doc["trace"]] == ["base", "even", "odd"]
    assert len(doc["flips"]) == 2


def test_flip_widen_byte_stable(graph_file, tmp_path, capsys):
    _, out1, err1, gf = widen_out(graph_file, tmp_path, capsys, clique(50))
    first = out1.read_bytes()
    code, _, err2 = run(
        ["flip-widen", "-g", gf, "-A", "all", "-r", "2", "-m", "8",
         "-o", str(out1)], capsys)
    assert code == 0
    assert out1.read_bytes() == first
    digest = [w for w in err1.split() if len(w) == 64]
    assert digest and digest == [w for w in err2.split() if len(w) == 64]


def test_flip_widen_shortfall_exit(graph_file, tmp_path, capsys):
    code, out, err, _ = widen_out(graph_file, tmp_path, capsys,
                                  star_forest(12, 6), r="2", m="16")
    assert code == 3
    assert "shortfall: 11 of 16 requested" in err
    doc = json.loads(out.read_text())
    assert doc["verified"] is True and len(doc["b_set"]) == 11


def test_flip_widen_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(format_edge_list(clique(10))))
    code, out, _ = run(["flip-widen", "-A", "all", "-r", "1", "-m", "4"],
                       capsys)
    assert code == 0
    assert json.loads(out)["b_set"] == list(range(1, 10))


def test_flip_widen_a_set_file(graph_file, tmp_path, capsys):
    gf = graph_file(clique(10))
    aset = tmp_path / "a.txt"
    aset.write_text("0 1 2 3\n")
    code, out, _ = run(
        ["flip-widen", "-g", gf, "-A", str(aset), "-r", "1", "-m", "2"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc["b_set"]) <= {0, 1, 2, 3}


@pytest.mark.parametrize("g,r,flag,budget", [
    (complement(path(40)), 3, ["--max-pattern-length", "2"],
     SampleBudget(max_pattern_length=2)),
    (matching(40), 1, ["--window", "10"], SampleBudget(window=10)),
], ids=["max-pattern-length", "window"])
def test_flip_widen_budget_flags(graph_file, capsys, g, r, flag, budget):
    argv = ["flip-widen", "-g", graph_file(g), "-A", "all", "-r", str(r),
            "-m", "1"]
    code, out, _ = run(argv + flag, capsys)
    assert code == 0
    res = flip_widen(FlipWideRequest(g, tuple(range(g.n)), r, 1, budget))
    assert out == _dump(_result_json(res))
    assert out != run(argv, capsys)[1]


def test_flip_widen_json_is_the_trace_in_construction_order(
        graph_file, tmp_path, capsys):
    # descending A: the survivors of every level stay descending, and the
    # trace has flips at an even and at an odd level
    g = complement(random_bounded_degree(60, 3, 1))
    aset = tmp_path / "desc.txt"
    aset.write_text("\n".join(map(str, range(59, -1, -1))) + "\n")
    code, out, _ = run(["flip-widen", "-g", graph_file(g), "-A", str(aset),
                        "-r", "2", "-m", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    levels = tuple(
        LevelTrace(t["level"], t["parity"], tuple(t["samples"]),
                   tuple(Flip(f["a"], f["b"]) for f in t["flips_added"]),
                   tuple(t["surviving"]))
        for t in doc["trace"])
    res = flip_widen(FlipWideRequest(g, tuple(range(59, -1, -1)), 2, 1))
    assert levels == res.trace
    assert [t.parity for t in levels if t.flips_added] == ["even", "odd"]
    assert doc["trace"][-1]["surviving"] == sorted(res.b_set, reverse=True)
    assert len(res.b_set) == 10
    assert _parse_flips(doc) == res.flip_set


def test_flip_widen_pattern_cap_stop(graph_file, capsys):
    g = complement(path(40))
    argv = ["flip-widen", "-g", graph_file(g), "-A", "all", "-r", "2",
            "-m", "1", "--max-pattern-length", "9"]
    code, out, err = run(argv, capsys)
    with pytest.raises(BudgetExceeded) as exc:
        flip_widen(FlipWideRequest(g, tuple(range(g.n)), 2, 1,
                                   SampleBudget(max_pattern_length=9)))
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert lines[0] == f"budget: {exc.value}"
    assert lines[0].startswith("budget: level 1: ")
    assert lines[1] == f"diagnostic: {exc.value.diagnostic}"


def test_flip_widen_no_candidate_sample_stop(graph_file, capsys):
    code, out, err = run(
        ["flip-widen", "-g", graph_file(subdivided_clique(12)), "-A", "all",
         "-r", "1", "-m", "1"], capsys)
    assert code == 3 and out == ""
    assert err.splitlines() == [
        "budget: level 0: no vertex is inequivalent to the samples over "
        "all but two balls",
        "diagnostic: class likely not monadically NIP at these budgets"]


def test_flip_widen_rejects_non_integer_vertex_list(graph_file, tmp_path,
                                                    capsys):
    aset = tmp_path / "a.txt"
    aset.write_text("0 x\n")
    code, out, err = run(
        ["flip-widen", "-g", graph_file(clique(4)), "-A", str(aset),
         "-r", "1", "-m", "1"], capsys)
    assert code == 1 and out == ""
    assert err == (f"error: vertex list {aset}: invalid literal for int() "
                   f"with base 10: 'x'\n")


def test_flip_widen_max_rounds_is_gone(graph_file, capsys):
    for flag in ("--max-rounds", "--max-samples"):
        code, out, err = run(
            ["flip-widen", "-g", graph_file(clique(10)), "-A", "all",
             "-r", "1", "-m", "1", flag, "8"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and flag in err


@pytest.mark.parametrize("constants", ["a,b", "1,,2"])
def test_extract_malformed_constants(graph_file, capsys, constants):
    code, out, err = run(
        ["extract", "-g", graph_file(path(6)), "--phi", "eq",
         "--constants", constants, "-m", "1", "--seq", "all"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--constants" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("extra,want", [
    ([], "vertex 99 out of range for n=6"),
    (["--alpha", "-1"], "ball radius must be nonnegative, got -1"),
    (["--k", "0"], "vertex 99 out of range for n=6"),
], ids=["constant", "radius-first", "k-last"])
def test_extract_eq_error_order(graph_file, capsys, extra, want):
    # the radius is checked first, then each constant, then --k
    code, out, err = run(
        ["extract", "-g", graph_file(path(6)), "--phi", "eq",
         "--constants", "0,99", "-m", "1", "--seq", "all"] + extra, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {want}\n"


@pytest.mark.parametrize("flags", [["--k", "100000"],
                                   ["--phi", "eq", "--constants",
                                    ",".join(["1"] * 40)]],
                         ids=["k", "constants"])
def test_extract_pattern_cap_stop(graph_file, capsys, flags):
    code, out, err = run(
        ["extract", "-g", graph_file(path(6)), "-m", "1", "--seq", "all"]
        + flags, capsys)
    assert code == 3 and out == ""
    assert err.startswith("budget: type patterns over")
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["-1", "10"])
def test_extract_rejects_out_of_range_items(graph_file, tmp_path, capsys,
                                            bad):
    seq = tmp_path / "seq.txt"
    seq.write_text(f"3 {bad} 5\n")
    code, out, err = run(
        ["extract", "-g", graph_file(path(10)), "--seq", str(seq),
         "-m", "1", "--k", "2"], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: vertex {bad} out of range")
    assert "Traceback" not in err


def test_flip_widen_mode_error_names_level(graph_file, capsys):
    code, out, err = run(
        ["flip-widen", "-g", graph_file(half_graph(20)), "-A", "all",
         "-r", "1", "-m", "4"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("verification: level 0:")


# ----------------------------------------------------------------- verify

def test_verify_round_trip(graph_file, tmp_path, capsys):
    _, out, _, gf = widen_out(graph_file, tmp_path, capsys, clique(50))
    code, text, _ = run(["verify", "-g", gf, "--result", str(out)], capsys)
    assert code == 0
    assert json.loads(text) == {"verified": True, "radius": 2}


def test_verify_flags_corrupt_b_set(graph_file, tmp_path, capsys):
    _, out, _, gf = widen_out(graph_file, tmp_path, capsys, clique(50))
    doc = json.loads(out.read_text())
    doc["b_set"] = [0, 1] + doc["b_set"]
    out.write_text(json.dumps(doc))
    code, text, _ = run(["verify", "-g", gf, "--result", str(out)], capsys)
    assert code == 2
    rep = json.loads(text)
    assert rep["verified"] is False and rep["violation"] == [0, 1]


def test_verify_flags_missing_flip(graph_file, tmp_path, capsys):
    _, out, _, gf = widen_out(graph_file, tmp_path, capsys, clique(50))
    doc = json.loads(out.read_text())
    del doc["flips"][0]
    out.write_text(json.dumps(doc))
    code, text, _ = run(["verify", "-g", gf, "--result", str(out)], capsys)
    assert code == 2 and json.loads(text)["verified"] is False


def test_verify_radius_override(graph_file, tmp_path, capsys):
    _, out, _, gf = widen_out(graph_file, tmp_path, capsys, clique(50))
    doc = json.loads(out.read_text())
    del doc["radius"]
    out.write_text(json.dumps(doc))
    code, _, err = run(["verify", "-g", gf, "--result", str(out)], capsys)
    assert code == 1 and "pass -r" in err
    code, text, _ = run(
        ["verify", "-g", gf, "--result", str(out), "-r", "2"], capsys)
    assert code == 0 and json.loads(text)["verified"] is True


def test_verify_broken_json(graph_file, tmp_path, capsys):
    gf = graph_file(clique(5))
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    code, _, err = run(["verify", "-g", gf, "--result", str(bad)], capsys)
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("command,flag,key", [
    ("verify", "--result", "flips"),
    ("verify", "--result", "b_set"),
    ("apply-flips", "--flips", "flips"),
])
def test_result_object_names_its_missing_key(graph_file, tmp_path, capsys,
                                             command, flag, key):
    gf = graph_file(clique(4))
    doc = {"b_set": [1], "flips": [], "radius": 1}
    del doc[key]
    res = tmp_path / "res.json"
    res.write_text(json.dumps(doc))
    assert run([command, "-g", gf, flag, str(res)], capsys) == (
        1, "", f"error: result JSON has no '{key}' key\n")


@pytest.mark.parametrize("command,flag", [("verify", "--result"),
                                          ("apply-flips", "--flips")])
def test_result_object_flips_must_be_a_list(graph_file, tmp_path, capsys,
                                            command, flag):
    res = tmp_path / "res.json"
    res.write_text(json.dumps({"b_set": [1], "flips": 5, "radius": 1}))
    assert run([command, "-g", graph_file(clique(4)), flag, str(res)],
               capsys) == (1, "", "error: result JSON 'flips' must be a "
                                  "list\n")


@pytest.mark.parametrize("command,flag", [("verify", "--result"),
                                          ("apply-flips", "--flips")])
def test_flip_id_past_64_bits_is_out_of_range(graph_file, tmp_path, capsys,
                                              command, flag):
    # the range check comes before any mask: 1 << 2**64 would overflow
    res = tmp_path / "res.json"
    res.write_text('{"b_set": [1], "flips": [{"a": [18446744073709551616], '
                   '"b": [0]}], "radius": 1}')
    assert run([command, "-g", graph_file(Graph(2)), flag, str(res)],
               capsys) == (1, "", "error: flip touches vertices outside "
                                  "0..1\n")


def small_result(tmp_path, **fields):
    # one flip on clique(4) and a one-vertex B: verifies with exit 0
    doc = {"b_set": [1], "flips": [{"a": [0], "b": [1]}], "radius": 1}
    doc.update(fields)
    res = tmp_path / "res.json"
    res.write_text(json.dumps(doc))
    return str(res)


def test_verify_small_result_holds(graph_file, tmp_path, capsys):
    gf = graph_file(clique(4))
    code, text, _ = run(
        ["verify", "-g", gf, "--result", small_result(tmp_path)], capsys)
    assert code == 0 and json.loads(text)["verified"] is True


def test_verify_rejects_repeated_b_set_id(graph_file, tmp_path, capsys):
    # one edge 0-1 and an isolated 2; B = {1, 1} would verify as {1}
    gf = graph_file(Graph.from_edges(3, [(0, 1)]))
    res = small_result(tmp_path, b_set=[1, 1], flips=[])
    code, out, err = run(["verify", "-g", gf, "--result", res], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "b_set must be pairwise distinct" in err


@pytest.mark.parametrize("fields,what", [
    ({"flips": [{"a": ["x"], "b": [1]}]}, "flip side 'a'"),
    ({"flips": [{"a": [0], "b": 0.5}]}, "flip side 'b'"),
    ({"flips": [{"a": [True], "b": [1]}]}, "flip side 'a'"),
    ({"b_set": "1"}, "b_set"),
    ({"b_set": [0.5]}, "b_set"),
    ({"b_set": [True]}, "b_set"),
    ({"radius": True}, "radius"),
], ids=["side-string", "side-float", "side-bool", "b_set-string",
        "b_set-float", "b_set-bool", "radius-bool"])
def test_verify_rejects_mistyped_result(graph_file, tmp_path, capsys,
                                        fields, what):
    gf = graph_file(clique(4))
    code, out, err = run(
        ["verify", "-g", gf, "--result", small_result(tmp_path, **fields)],
        capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and what in err


# ---------------------------------------------------------------- extract

def test_extract_matching(graph_file, capsys):
    gf = graph_file(matching(10))
    code, out, _ = run(
        ["extract", "-g", gf, "--k", "3", "-m", "8", "--seq", "all"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["length"] == 20 and doc["sequence"] == list(range(20))


def test_extract_eq_needs_constants(graph_file, capsys):
    gf = graph_file(matching(10))
    code, _, err = run(
        ["extract", "-g", gf, "--phi", "eq", "-m", "4", "--seq", "all"],
        capsys)
    assert code == 1 and "--constants" in err


def test_extract_edge_rejects_constants(graph_file, capsys):
    gf = graph_file(matching(10))
    code, out, err = run(
        ["extract", "-g", gf, "--constants", "0,1", "-m", "4",
         "--seq", "all"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--constants" in err


def test_extract_edge_rejects_alpha(graph_file, capsys):
    gf = graph_file(matching(10))
    code, out, err = run(
        ["extract", "-g", gf, "--alpha", "2", "-m", "4", "--seq", "all"],
        capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--alpha" in err


def test_extract_eq_with_constants(graph_file, capsys):
    gf = graph_file(star_forest(8, 4))
    code, out, _ = run(
        ["extract", "-g", gf, "--phi", "eq", "--constants", "0,1",
         "--alpha", "1", "--k", "2", "-m", "4", "--seq", "all"], capsys)
    assert code == 0 and json.loads(out)["verified"] is True


def test_extract_shortfall_exit(graph_file, tmp_path, capsys):
    gf = graph_file(star_forest(12, 6))
    code, _, err = run(
        ["extract", "-g", gf, "--k", "3", "-m", "30", "--seq", "all"], capsys)
    assert code == 3 and "budget:" in err


# --------------------------------------------------------------- diagnose

def test_diagnose_order_witness(graph_file, capsys):
    gf = graph_file(half_graph(6))
    code, out, _ = run(["diagnose", "-g", gf, "--order", "6"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["order"]["search"] == "exhaustive"
    assert doc["order"]["witness"] == {
        "a_seq": [11, 10, 9, 8, 7, 6], "b_seq": [5, 4, 3, 2, 1, 0]}


def test_diagnose_ranks(graph_file, capsys):
    gf = graph_file(matching(10))
    code, out, _ = run(
        ["diagnose", "-g", gf, "--alt-rank", "--seq", "all"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["alternation_rank"] == 2
    assert doc["alternation_witness"] == {"vertex": 0, "indices": [0, 1, 2]}
    assert doc["exception_rank"] == 1
    assert doc["exception_witness"] == {"vertex": 0, "minority_indices": [1]}


def test_diagnose_ranks_over_a_repeating_sequence(graph_file, tmp_path,
                                                  capsys):
    # vertex 0 of half_graph(4) is adjacent to 4..7 only, so it sees
    # 4 0 4 1 7 1 4 as T F T F T F T; repeats count once per position
    gf = graph_file(half_graph(4))
    seq = tmp_path / "seq.txt"
    seq.write_text("4 0 4 1 7 1 4\n")
    code, out, _ = run(
        ["diagnose", "-g", gf, "--alt-rank", "--seq", str(seq)], capsys)
    assert code == 0
    assert out == (
        '{\n  "alternation_rank": 6,\n  "alternation_witness": {\n'
        '    "vertex": 0,\n    "indices": [\n      0,\n      1,\n      2,\n'
        '      3,\n      4,\n      5,\n      6\n    ]\n  },\n'
        '  "exception_rank": 3,\n  "exception_witness": {\n'
        '    "vertex": 0,\n    "minority_indices": [\n      1,\n      3,\n'
        '      5\n    ]\n  }\n}\n')


def test_diagnose_combined(graph_file, capsys):
    gf = graph_file(clique(5))
    code, out, _ = run(
        ["diagnose", "-g", gf, "--order", "3", "--shatter", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["order"]["witness"] is None
    assert doc["shattering"]["witness"] is None
    assert doc["order"]["search"] == "exhaustive"


def test_diagnose_needs_a_request(graph_file, capsys):
    gf = graph_file(clique(5))
    code, _, err = run(["diagnose", "-g", gf], capsys)
    assert code == 1 and "nothing to diagnose" in err
    code, _, err = run(["diagnose", "-g", gf, "--alt-rank"], capsys)
    assert code == 1 and "--alt-rank needs --seq" in err


def test_diagnose_seq_needs_alt_rank(graph_file, capsys):
    gf = graph_file(matching(10))
    code, out, err = run(
        ["diagnose", "-g", gf, "--order", "3", "--seq", "all"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--seq" in err


# ------------------------------------------------------------- apply-flips

def test_apply_flips_round_trip(graph_file, tmp_path, capsys):
    _, out, _, gf = widen_out(graph_file, tmp_path, capsys, clique(50))
    flipped_path = tmp_path / "flipped.edges"
    code, _, _ = run(
        ["apply-flips", "-g", gf, "--flips", str(out),
         "-o", str(flipped_path)], capsys)
    assert code == 0
    from flipwide.cli import _parse_flips

    doc = json.loads(out.read_text())
    expect = apply_flips(clique(50), _parse_flips(doc))
    assert parse_edge_list(flipped_path.read_text()) == expect


def test_apply_flips_accepts_bare_list(graph_file, tmp_path, capsys):
    gf = graph_file(clique(4))
    fl = tmp_path / "f.json"
    fl.write_text(json.dumps([{"a": [0, 1, 2, 3], "b": [0, 1, 2, 3]}]))
    code, out, _ = run(["apply-flips", "-g", gf, "--flips", str(fl)], capsys)
    assert code == 0
    assert parse_edge_list(out).edge_count() == 0


def test_apply_flips_rejects_malformed(graph_file, tmp_path, capsys):
    gf = graph_file(clique(4))
    fl = tmp_path / "f.json"
    fl.write_text(json.dumps([{"a": [0]}]))
    code, _, err = run(["apply-flips", "-g", gf, "--flips", str(fl)], capsys)
    assert code == 1 and "'a' and 'b'" in err


def test_apply_flips_rejects_json_scalar(graph_file, tmp_path, capsys):
    fl = tmp_path / "f.json"
    fl.write_text("5")
    code, out, err = run(
        ["apply-flips", "-g", graph_file(clique(4)), "--flips", str(fl)],
        capsys)
    assert code == 1 and out == ""
    assert err == "error: flip JSON must be a result object or a list\n"


@pytest.mark.parametrize("flip,what", [
    ({"a": ["x"], "b": [1]}, "flip side 'a'"),
    ({"a": [0], "b": 0.5}, "flip side 'b'"),
    ({"a": [0], "b": [True]}, "flip side 'b'"),
], ids=["side-string", "side-float", "side-bool"])
def test_apply_flips_rejects_mistyped_sides(graph_file, tmp_path, capsys,
                                            flip, what):
    gf = graph_file(clique(4))
    fl = tmp_path / "f.json"
    fl.write_text(json.dumps([flip]))
    code, out, err = run(["apply-flips", "-g", gf, "--flips", str(fl)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and what in err


def test_apply_flips_rejects_repeated_edge(tmp_path, capsys):
    gf = tmp_path / "g.edges"
    gf.write_text("2 2\n0 1\n1 0\n")
    fl = tmp_path / "f.json"
    fl.write_text("[]")
    code, out, err = run(
        ["apply-flips", "-g", str(gf), "--flips", str(fl)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "repeats an edge" in err


def test_edge_list_error_names_its_line(tmp_path, capsys):
    gf = tmp_path / "g.edges"
    gf.write_text("# two edges\n3 2\n0 1\n1 2 0\n")
    fl = tmp_path / "f.json"
    fl.write_text("[]")
    code, out, err = run(
        ["apply-flips", "-g", str(gf), "--flips", str(fl)], capsys)
    assert code == 1 and out == ""
    assert err == "error: line 4: edge line must be 'u v', got '1 2 0'\n"


NOT_UTF8 = b"3 1\n0 \xff\n"


@pytest.mark.parametrize("where", ["graph", "result", "flips"])
def test_non_utf8_file_is_an_input_error(graph_file, tmp_path, capsys, where):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(NOT_UTF8)
    gf = str(bad) if where == "graph" else graph_file(clique(4))
    if where == "flips":
        argv = ["apply-flips", "-g", gf, "--flips", str(bad)]
    else:
        res = str(bad) if where == "result" else small_result(tmp_path)
        argv = ["verify", "-g", gf, "--result", res]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {bad} is not UTF-8 text\n"


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_non_utf8_stdin_is_an_input_error(monkeypatch, capsys, errors):
    # a C locale decodes stdin with surrogateescape, a UTF-8 locale strictly
    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8",
                             errors=errors)
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run(["flip-widen", "-A", "all", "-r", "1", "-m", "2"],
                         capsys)
    assert code == 1 and out == ""
    assert err == "error: stdin is not UTF-8 text\n"


@pytest.mark.parametrize("command,flag", [("verify", "--result"),
                                          ("apply-flips", "--flips")])
def test_deeply_nested_json_is_an_input_error(graph_file, tmp_path, capsys,
                                              command, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(
        [command, "-g", graph_file(clique(4)), flag, str(deep)], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {deep}: JSON nested too deeply\n"


@pytest.mark.parametrize("command,flag", [("verify", "--result"),
                                          ("apply-flips", "--flips")])
def test_overlong_json_integer_is_an_input_error(graph_file, tmp_path, capsys,
                                                 command, flag):
    # json.loads raises a plain ValueError past int()'s digit limit
    long = tmp_path / "long.json"
    long.write_text('{"b_set": [1], "flips": [{"a": [0], "b": [1]}], '
                    '"radius": ' + "1" * 5000 + "}")
    code, out, err = run(
        [command, "-g", graph_file(clique(4)), flag, str(long)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {long}: ") and err.count("\n") == 1


def test_absurd_vertex_count_rejected(tmp_path, capsys):
    gf = tmp_path / "g.edges"
    gf.write_text("1000000000 0\n")
    code, out, err = run(["diagnose", "-g", str(gf), "--order", "2"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "exceeds the limit" in err


def test_negative_vertex_count_rejected(tmp_path, capsys):
    gf = tmp_path / "g.edges"
    gf.write_text("-1 0\n")
    flips = tmp_path / "flips.json"
    flips.write_text("[]")
    code, out, err = run(["apply-flips", "-g", str(gf), "--flips",
                          str(flips)], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: line 1: header vertex count must be "
                   "nonnegative, got -1\n")


@pytest.mark.parametrize("params", [
    ["edgeless", str(10**12)],
    ["shatter_gadget", "40"],
    ["grid", "1000000", "1000000"],
    ["subdivided_clique", "1414"],
])
def test_generate_rejects_absurd_vertex_count(capsys, params):
    # each is rejected before the family allocates rows or loops over
    # its vertices: shatter_gadget(40) would loop over 2**40 subsets
    code, out, err = run(["generate", *params], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exceeds the limit" in err


def test_generate_at_the_vertex_limit(tmp_path, capsys):
    out = tmp_path / "e.edges"
    code, _, _ = run(["generate", "edgeless", "1000000", "-o", str(out)],
                     capsys)
    assert code == 0 and out.read_text() == "1000000 0\n"


@pytest.mark.parametrize("command, option, default", [
    ("flip-widen", "--max-pattern-length", 4),
    ("flip-widen", "--window", 48),
    ("extract", "--window", 48),
    ("extract", "--alpha", 1),
    ("generate", "--seed", 0),
])
def test_tuning_options_have_help(capsys, command, option, default):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    options = " ".join(capsys.readouterr().out.split("options:")[1].split())
    # the help follows the metavar directly, before the next option
    assert re.search(rf"{option} [A-Z_]+ \w[^()]* \(default {default}\)",
                     options), options


@pytest.mark.parametrize("command", ["generate", "flip-widen", "extract",
                                     "verify", "diagnose", "apply-flips"])
def test_every_option_has_help(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    options = capsys.readouterr().out.split("options:\n")[1]
    # an entry's help follows its flags after two spaces or on the next line
    for entry in re.split(r"\n(?=  -)", options.rstrip("\n")):
        assert re.fullmatch(r"  -\S.*?(  |\n +)\S.*", entry, re.S), entry


def test_usage_errors_exit_one(capsys):
    assert run(["no-such-command"], capsys)[0] == 1
    assert run([], capsys)[0] == 1
    assert run(["flip-widen", "-A", "all"], capsys)[0] == 1
    code, _, err = run(["flip-widen", "-g", "/does/not/exist", "-A", "all",
                        "-r", "1", "-m", "2"], capsys)
    assert code == 1 and "error:" in err


# ------------------------------------------------------------- entry point

@pytest.fixture()
def script_env(tmp_path):
    """Environment for shell commands that call `flipwide`.

    An installed console script is used as is. Without one, write the
    launcher that pip would install for the `[project.scripts]` entry into
    tmp_path and put it first on PATH, so the declared entry point still
    runs as its own process. The launcher imports the flipwide package
    this test session imports.
    """
    env = dict(os.environ)
    if shutil.which("flipwide"):
        return env
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["flipwide"]
    module, func = target.split(":")
    launcher = tmp_path / "flipwide"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n")
    launcher.chmod(0o755)
    package_root = str(Path(flipwide.__file__).resolve().parents[1])
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_installed_pipe(script_env):
    res = subprocess.run(
        "flipwide generate clique 12 | flipwide flip-widen -A all -r 1 -m 4",
        shell=True, capture_output=True, text=True, env=script_env)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["verified"] is True and doc["b_set"] == list(range(1, 12))


def test_installed_diagnose_pipe(script_env):
    res = subprocess.run(
        "flipwide generate half_graph 6 | flipwide diagnose --order 6",
        shell=True, capture_output=True, text=True, env=script_env)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["order"]["witness"]["a_seq"] == [
        11, 10, 9, 8, 7, 6]


@pytest.fixture()
def module_env():
    """Environment for `python -m flipwide` with the package's source
    directory first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(flipwide.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_runs_uninstalled(module_env):
    res = subprocess.run(
        [sys.executable, "-m", "flipwide", "generate", "path", "3"],
        capture_output=True, text=True, env=module_env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == format_edge_list(path(3))


def test_dense_pipe_through_apply_flips(module_env, tmp_path):
    # the flip (V, V) turns clique(200) into edgeless(200): the pipe reads
    # dense canonical text in bulk and writes dense and sparse rows
    flips = tmp_path / "flips.json"
    flips.write_text(json.dumps([{"a": list(range(200)),
                                  "b": list(range(200))}]))
    cli = f"{shlex.quote(sys.executable)} -m flipwide"
    res = subprocess.run(
        f"{cli} generate clique 200 | {cli} apply-flips "
        f"--flips {shlex.quote(str(flips))}",
        shell=True, capture_output=True, text=True, env=module_env)
    assert res.returncode == 0, res.stderr
    want = subprocess.run(
        [sys.executable, "-m", "flipwide", "generate", "edgeless", "200"],
        capture_output=True, text=True, env=module_env)
    assert want.returncode == 0, want.stderr
    assert res.stdout == want.stdout == "200 0\n"


@pytest.mark.parametrize("graph,code", [("0 0\n", 3), ("1 0\n", 0)],
                         ids=["empty", "one-vertex"])
def test_huge_radius_ends(module_env, graph, code):
    # flip-widen stops once the survivors are apart, not after 10**20
    # levels; the empty graph's B is empty, so target 1 is a shortfall
    res = subprocess.run(
        [sys.executable, "-m", "flipwide", "flip-widen", "-A", "all",
         "-m", "1", "-r", "100000000000000000000"],
        input=graph, capture_output=True, text=True, env=module_env,
        timeout=60)
    assert res.returncode == code, res.stderr
    doc = json.loads(res.stdout)
    assert doc["verified"] is True and len(doc["trace"]) == 1
    assert doc["b_set"] == list(range(int(graph.split()[0])))


def test_repeated_main_calls_match_fresh_processes(script_env, capsys):
    # main builds its parser once per process; a usage error in one call
    # must leave nothing behind for the calls after it
    calls = [["generate", "path", "5"],
             ["flip-widen", "-A", "all"],
             ["generate", "torus", "5"],
             ["generate", "clique", "4", "--seed", "3"],
             [],
             ["generate", "path", "5"]]

    def timeless(err):
        return re.sub(r"elapsed \S+ ", "elapsed ", err)

    for argv in calls:
        code, out, err = run(argv, capsys)
        fresh = subprocess.run(["flipwide", *argv], capture_output=True,
                               text=True, env=script_env)
        assert code == fresh.returncode
        assert out == fresh.stdout
        assert timeless(err) == timeless(fresh.stderr)


# ---------------------------------------------------------------- package

def test_public_api_is_pinned():
    # a public name that is added or removed is a deliberate edit here
    assert sorted(flipwide.__all__) == [
        "AlternationWitness", "Atom", "BipartitePattern", "BudgetExceeded",
        "Counterexample", "DisjointFamilyInput", "EvalContext",
        "ExceptionWitness", "ExtractionConfig", "ExtractionShortfall",
        "Flip", "FlipSet", "FlipWideRequest", "FlipWideResult",
        "FlipwideError", "Graph", "InputError", "InternalInvariantError",
        "LevelTrace", "ModeError", "OracleReport", "Pattern", "PhiType",
        "SampleBudget", "SampleSetResult", "TypeDecomposition",
        "TypeFalsifier", "Witness", "all_phi_types", "alternation_rank",
        "apply_flips", "ball", "ball_mask", "bipartite_canonical_pattern",
        "build_sample_set", "decompose_sequence_types", "dist_atom",
        "distances_from", "edge_atom", "entry_mask",
        "enumerate_type_patterns", "eq_atom", "eq_class_mask", "errors",
        "eval_atom", "exact_distance_layer", "exception_rank",
        "extract_indiscernible", "flip_widen", "format_edge_list",
        "formulas", "graphcore", "indiscernibles", "is_delta_indiscernible",
        "is_distance_r_independent", "oracles", "order_property_witness",
        "pairing_index_witness", "parse_edge_list", "phi_equivalent_over",
        "sampleset", "shattering_witness", "type_pattern",
        "verify_flip_wide", "verify_sample_set", "wideness"]
