"""Command line behavior: exit codes, JSON shapes, byte stability.

Most tests drive main(argv) in process and read files from tmp_path;
three subprocess tests check the entry point, real shell pipes, and that
repeated in-process calls match fresh processes. They use an installed
`flipwide` when one is on PATH, and otherwise a launcher built from the
`[project.scripts]` entry of pyproject.toml. Three more run
`python -m flipwide` with the package's source directory on PYTHONPATH.
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import flipwide
from flipwide import (
    BudgetExceeded,
    FlipWideRequest,
    Graph,
    SampleBudget,
    apply_flips,
    flip_widen,
)
from flipwide.cli import _result_json, main
from flipwide.generators import (
    clique,
    complement,
    half_graph,
    matching,
    path,
    random_bounded_degree,
    star_forest,
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
    assert json.loads(out) == _result_json(res)
    assert out != run(argv, capsys)[1]


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
