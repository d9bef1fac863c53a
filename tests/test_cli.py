import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from graphloops.cli import main
from graphloops.reports import ReportRow, RunReport, emit_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_graph_info(capsys):
    code, out = run_cli(capsys, "graph", "--graph", "a3")
    assert code == 0
    doc = json.loads(out)
    names = [r["name"] for r in doc["rows"]]
    assert "delta" in names
    assert any(n.startswith("sigma[") for n in names)


def test_moments_all_agree(capsys):
    code, out = run_cli(capsys, "moments", "--graph", "a3", "--n", "6",
                        "--fock-n", "4")
    assert code == 0
    doc = json.loads(out)
    agree = [r for r in doc["rows"] if r["name"] == "all_agree"]
    assert agree and agree[0]["value"] == "1"


def test_trace_of_loop(capsys):
    code, out = run_cli(capsys, "trace", "--graph", "a3",
                        "--loop", "e1 e1'")
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["name"] == "trace[m]"
    assert float(row["value"]) == pytest.approx(2 ** -0.25, rel=1e-9)


def test_tangle_subcommand(tmp_path, capsys):
    prog = tmp_path / "double.tgl"
    prog.write_text("tangle double(x: 1+) -> 1+ {\n"
                    "  load x;\n  cup 1+;\n  cap 1;\n}\n")
    inputs = tmp_path / "in.json"
    inputs.write_text(json.dumps({
        "x": {"level": 1, "shading": "+",
              "terms": [{"loop": "e1 e1'", "coeff": 1.0}]},
    }))
    code, out = run_cli(capsys, "tangle", "--graph", "a3",
                        "--program", str(prog), "--inputs", str(inputs))
    assert code == 0
    doc = json.loads(out)
    assert float(doc["rows"][0]["value"]) == pytest.approx(
        2 ** 0.5, rel=1e-9)      # circle removal multiplies by delta


@pytest.mark.parametrize("body, where", [
    ("  load x;\n  tensor x;\n", "(line 3, column 10)"),   # read twice
    ("  load x;\n", "(line 3, column 1)"),                  # y never read
    ("  load x;\n  cap 2;\n", "(line 3, column 7)"),       # out of range
    ("", "(line 2, column 1)"),                            # no layers
], ids=["read-twice", "never-read", "cap-out-of-range", "empty-body"])
def test_invalid_tangle_program_is_usage_error(tmp_path, capsys, body, where):
    prog = tmp_path / "bad.tgl"
    prog.write_text("tangle bad(x: 1+, y: 1+) -> 1+ {\n" + body + "}\n")
    code = main(["tangle", "--graph", "a3", "--program", str(prog)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.endswith(f" {where}\n")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_repeated_tangle_input_name_is_usage_error(tmp_path, capsys):
    prog = tmp_path / "twice.tgl"
    prog.write_text("tangle t(a: 1+, a: 2+) -> 2+ { load a; }\n")
    code = main(["tangle", "--graph", "a3", "--program", str(prog)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: input 'a' is declared a second time "
                            "(line 1, column 17)\n")


def test_trace_of_element_file(tmp_path, capsys):
    doc = {"level": 1, "shading": "+",
           "terms": [{"loop": "e1 e1'", "coeff": 2.0}]}
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "trace", "--graph", "a3",
                        "--element", str(path))
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert float(row["value"]) == pytest.approx(2 * 2 ** -0.25, rel=1e-9)


def test_tower_subcommand(capsys):
    code, out = run_cli(capsys, "tower", "--graph", "a3", "--k", "2")
    assert code == 0


def test_fock_subcommand(capsys):
    code, out = run_cli(capsys, "fock", "--graph", "a2", "--max-len", "4",
                        "--depth", "6")
    assert code == 0
    rows = {r["name"]: r for r in json.loads(out)["rows"]}
    pk = rows["pk_commutation_max"]
    assert pk["expected"] == "0"
    assert float(pk["value"]) <= 1e-9


def test_mc_subcommand(capsys):
    code, out = run_cli(capsys, "mc", "--graph", "a2", "--loop", "e e'",
                        "--N", "12", "--M", "12", "--samples", "40")
    assert code == 0
    doc = json.loads(out)
    names = [r["name"] for r in doc["rows"]]
    assert names[0] == "estimate"
    assert doc["seed"] == 42


def test_freedim_subcommand(capsys):
    code, out = run_cli(capsys, "freedim", "--graph", "s4", "--n", "3")
    assert code == 0


def test_freedim_past_its_gram_cap_is_usage_error(capsys):
    # degree 7 on s4 would read 16384^2 phi rows; the cap stops it before
    # any element is built
    code = main(["freedim", "--graph", "s4", "--n", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "freedim Gram exceeds cap" in captured.err


def test_moments_past_its_pair_row_cap_is_usage_error(capsys, monkeypatch):
    # with the cap at 4^5, phi_v(cup^5) at the centre of s4 reads 4^5 pair
    # rows and runs; cup^6 would read 4^6 and stops before any wedge
    monkeypatch.setattr("graphloops.traces.GRAM_CAP", 4 ** 5)
    assert run_cli(capsys, "moments", "--graph", "s4", "--n", "5",
                   "--fock-n", "0")[0] == 0
    code = main(["moments", "--graph", "s4", "--n", "6", "--fock-n", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "moments pair rows exceed cap" in captured.err


def test_moments_walks_the_fock_column_only_as_far_as_it_reports(capsys):
    # --fock-n 20 on s4 would pass the path-basis cap for powers past --n
    code, out = run_cli(capsys, "moments", "--graph", "s4", "--n", "3",
                        "--fock-n", "20")
    assert code == 0
    same = run_cli(capsys, "moments", "--graph", "s4", "--n", "3",
                   "--fock-n", "3")[1]
    doc = json.loads(out)
    assert doc["parameters"]["fock_n"] == 20
    assert doc["rows"] == json.loads(same)["rows"]


def _cli_subprocess(*argv):
    return subprocess.run([sys.executable, "-m", "graphloops.cli", *argv],
                          capture_output=True, text=True)


def test_usage_error_exit_code():
    proc = _cli_subprocess("nonsense")
    assert proc.returncode == 2


def test_trace_without_loop_or_element_is_usage_error():
    proc = _cli_subprocess("trace", "--graph", "a3")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_unknown_graph_name_is_usage_error():
    proc = _cli_subprocess("graph", "--graph", "zz9")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "unknown builtin graph 'zz9'" in proc.stderr


MC_A3 = ("mc", "--graph", "a3", "--loop", "e1 e1' e1 e1'")


@pytest.mark.parametrize("argv, flag", [
    (MC_A3 + ("--N", "2", "--M", "2", "--grid"), "--grid"),
    (MC_A3 + ("--N", "0"), "--N"),
    (MC_A3 + ("--N", "-3"), "--N"),
    (MC_A3 + ("--samples", "0"), "--samples"),
    (MC_A3 + ("--probes", "0"), "--probes"),
    (MC_A3 + ("--threads", "0"), "--threads"),
    (("freedim", "--graph", "s4", "--n", "-2"), "--n"),
    (("trace", "--graph", "a3", "--loop", "e1 e1'", "--k", "-1"), "--k"),
    (("fock", "--graph", "a2", "--max-len", "-2"), "--max-len"),
    (("moments", "--graph", "a3", "--n", "-1"), "--n"),
    (("tower", "--graph", "a3", "--k", "1"), "--k"),
    (MC_A3 + ("--samples", "1"), "--samples"),
    (("moments", "--graph", "a3", "--tol", "nan"), "--tol"),
    (("selftest", "--tol", "inf"), "--tol"),
    (("tower", "--graph", "a3", "--tol", "0"), "--tol"),
    (("graph", "--graph", "a2", "--tol", "-1"), "--tol"),
])
def test_out_of_range_size_is_usage_error(capsys, argv, flag):
    try:
        code = main(list(argv))
    except SystemExit as exc:          # argparse rejects the value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert flag in err
    assert "Traceback" not in err


A2_VERTICES = [{"name": "v", "parity": "+"}, {"name": "w", "parity": "-"}]
A2_EDGES = [{"name": "e", "from": "v", "to": "w"}]
TEXT_COEFF = {"level": 1, "shading": "+",
              "terms": [{"loop": "e1 e1'", "coeff": "x"}]}
NAN_COEFF = {**TEXT_COEFF, "terms": [{"loop": "e1 e1'", "coeff": float("nan")}]}
INF_COEFF = {**TEXT_COEFF, "terms": [{"loop": "e1 e1'", "coeff": float("inf")}]}
BOOL_LEVEL = {**TEXT_COEFF, "level": True, "terms": [{"loop": "e1 e1'", "coeff": 1.0}]}
NEGATIVE_LEVEL = {"level": -1, "shading": "+", "terms": []}
# a level-0 term names its base vertex; a3 has three, so 5 is out of range,
# -1 would index the last vertex and true would read as vertex 1
INT_BASE, NEGATIVE_BASE, BOOL_BASE = (
    {"level": 0, "shading": "+",
     "terms": [{"loop": "", "base": base, "coeff": 1.0}]}
    for base in (5, -1, True))
# "e1 e1'" starts at m, so a base "l" contradicts its loop
WRONG_BASE = {"level": 1, "shading": "+",
              "terms": [{"loop": "e1 e1'", "base": "l", "coeff": 1.0}]}
# JSON reads 1e400 as inf
NAN_MU, INF_MU, BOOL_MU = (
    {"vertices": A2_VERTICES, "edges": A2_EDGES, "mu": {"v": value, "w": 1}}
    for value in (float("nan"), float("inf"), True))


@pytest.mark.parametrize("command, doc, named", [
    ("graph", {"vertices": [{"name": "v"}], "edges": []}, "'parity'"),
    ("graph", {"vertices": A2_VERTICES,
               "edges": [{"name": "e", "from": "v"}]}, "'to'"),
    ("graph", [1, 2], "'vertices'"),
    ("graph", {"vertices": [{"name": [1], "parity": "+"}], "edges": []},
     "'vertices'"),
    ("graph", {"vertices": A2_VERTICES, "edges": A2_EDGES,
               "mu": {"v": 1.0}}, "'w'"),
    ("trace", {"level": 1}, "'shading'"),
    ("trace", TEXT_COEFF, "coeff"),
    ("trace", {"level": "1", "shading": "+", "terms": []}, "'level'"),
    ("trace", NAN_COEFF, "'coeff'"),
    ("trace", INF_COEFF, "'coeff'"),
    ("trace", BOOL_LEVEL, "'level'"),
    ("trace", NEGATIVE_LEVEL, "'level'"),
    ("tangle", {"level": 1}, "'shading'"),
    ("tangle", TEXT_COEFF, "coeff"),
    ("tangle", NAN_COEFF, "'coeff'"),
    ("tangle", INF_COEFF, "'coeff'"),
    ("tangle", BOOL_LEVEL, "'level'"),
    ("tangle", NEGATIVE_LEVEL, "'level'"),
    ("vertex", None, "'q'"),
    ("trace", INT_BASE, "'base'"),
    ("trace", NEGATIVE_BASE, "'base'"),
    ("trace", BOOL_BASE, "'base'"),
    ("tangle", INT_BASE, "'base'"),
    ("tangle", NEGATIVE_BASE, "'base'"),
    ("tangle", BOOL_BASE, "'base'"),
    ("trace", WRONG_BASE, "its base 'l'"),
    ("tangle", WRONG_BASE, "its base 'l'"),
    ("graph", NAN_MU, "mu override"),
    ("graph", INF_MU, "mu override"),
    ("graph", BOOL_MU, "mu override"),
], ids=["vertex-without-parity", "edge-without-to", "top-level-list",
        "list-vertex-name", "mu-without-vertex", "element-without-shading",
        "text-coeff", "text-level", "nan-coeff", "infinite-coeff",
        "bool-level", "negative-level", "inputs-without-shading",
        "inputs-text-coeff", "inputs-nan-coeff", "inputs-infinite-coeff",
        "inputs-bool-level", "inputs-negative-level", "unknown-vertex",
        "int-base", "negative-base", "bool-base", "inputs-int-base",
        "inputs-negative-base", "inputs-bool-base", "wrong-base",
        "inputs-wrong-base", "nan-mu", "infinite-mu",
        "bool-mu"])
def test_malformed_input_is_usage_error(tmp_path, capsys, command, doc, named):
    path = tmp_path / "doc.json"
    if command == "graph":
        path.write_text(json.dumps(doc))
        argv = ["graph", "--graph", str(path)]
    elif command == "trace":
        path.write_text(json.dumps(doc))
        argv = ["trace", "--graph", "a3", "--element", str(path)]
    elif command == "tangle":
        path.write_text(json.dumps({"x": doc}))
        prog = tmp_path / "id.tgl"
        prog.write_text("tangle id(x: 1+) -> 1+ {\n  load x;\n}\n")
        argv = ["tangle", "--graph", "a3", "--program", str(prog),
                "--inputs", str(path)]
    else:
        argv = ["trace", "--graph", "a3", "--loop", "", "--vertex", "q"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert named in err
    assert "Traceback" not in err


def test_mu_block_is_read_inline_and_from_a_file(tmp_path, capsys):
    # an eigenvector off the PF solve's by 6e-10, inside the 1e-9 check:
    # the reported delta is the override's Rayleigh ratio, not the solve's
    from graphloops import builtin_graph, perron_frobenius, pf_from_mu
    from graphloops.reports import render_number
    g = builtin_graph("a3")
    doc = g.to_json_dict()
    doc["mu"] = {"m": 2 ** 0.5 + 6e-10, "l": 1.0, "r": 1.0}
    text = json.dumps(doc)
    path = tmp_path / "a3_mu.json"
    path.write_text(text)
    reports = []
    for spec in (text, str(path)):
        code, out = run_cli(capsys, "graph", "--graph", spec)
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0]["rows"] == reports[1]["rows"]
    delta = next(r for r in reports[0]["rows"] if r["name"] == "delta")
    assert delta["value"] == render_number(pf_from_mu(g, doc["mu"]).delta)
    assert delta["value"] != render_number(perron_frobenius(g).delta)


def test_nan_in_a_checked_moment_fails(monkeypatch, capsys):
    # max() drops a NaN that follows a number, so a verdict taken as the
    # largest error would pass this table
    from graphloops.ncpairings import free_poisson_moments

    def narayana_with_nan(delta, nmax, method="recursion"):
        moments = free_poisson_moments(delta, nmax, method)
        if method == "narayana":
            moments[2] = float("nan")
        return moments

    monkeypatch.setattr("graphloops.cli.free_poisson_moments",
                        narayana_with_nan)
    code, out = run_cli(capsys, "moments", "--graph", "a3", "--n", "4",
                        "--fock-n", "2")
    rows = {r["name"]: r["value"] for r in json.loads(out)["rows"]}
    assert rows["m[2] narayana"] == "nan"
    assert rows["all_agree"] == "0"
    assert code == 1


def test_nan_pf_residual_fails_graph(monkeypatch, capsys):
    monkeypatch.setattr("graphloops.graphs.PFData.residual",
                        lambda self: float("nan"))
    code, out = run_cli(capsys, "graph", "--graph", "a2")
    rows = {r["name"]: r["value"] for r in json.loads(out)["rows"]}
    assert rows["pf_residual"] == "nan"
    assert code == 1


@pytest.mark.parametrize("tol, code, all_pass", [
    ("1e-9", 0, "1"),
    ("1e-300", 1, "0"),        # some deviations are rounding-sized, not 0
])
def test_selftest_verdict(capsys, tol, code, all_pass):
    got, out = run_cli(capsys, "selftest", "--tol", tol)
    rows = json.loads(out)["rows"]
    assert rows[-1]["name"] == "all_pass"
    assert rows[-1]["value"] == all_pass
    assert got == code


def test_nan_pairing_functional_fails_selftest(monkeypatch, capsys):
    # max(0.0, nan) is 0.0, so a row kept as a running max would pass
    monkeypatch.setattr("graphloops.selftest._phi_word_pairing",
                        lambda alg, w: float("nan"))
    code, out = run_cli(capsys, "selftest")
    rows = {r["name"]: r["value"] for r in json.loads(out)["rows"]}
    for name in ("a2", "a3", "s4"):
        assert rows[f"{name}: pairing vs recursive functional"] == "nan"
    assert rows["all_pass"] == "0"
    assert code == 1


def test_selftest_rows_keep_a_nan_of_any_term(monkeypatch):
    # the rows that take the largest of several deviations read NaN when
    # their last term is NaN, where max(x, nan) would keep x
    from graphloops import selftest
    from graphloops.elements import Element

    norm_inf, calls = Element.norm_inf, []
    monkeypatch.setattr(Element, "norm_inf",
                        lambda self: calls.append(1) or norm_inf(self))
    several = ("unit law", "Jones idempotent", "diagram programs")
    last = {len(calls) - 1: name for name, _ in selftest.run_selftest()
            if any(s in name for s in several)}
    assert len(last) == 3 * (2 + 2 + 1)
    calls.clear()

    def nan_on_last(self):
        calls.append(1)
        return float("nan") if len(calls) - 1 in last else norm_inf(self)
    monkeypatch.setattr(Element, "norm_inf", nan_on_last)
    rows = dict(selftest.run_selftest())
    assert all(np.isnan(rows[name]) for name in last.values())


A2_DIGEST, A3_DIGEST, S4_DIGEST = ("f7a8fedeb2993568", "7f771a60eeff2598",
                                   "dad0692b3fc183c6")
# command -> (argv, parameters, seed, graph digest); PROGRAM and INPUTS
# stand for files the test writes
REPORT_HEADERS = {
    "graph": (["--graph", "a3"], {"graph": "a3"}, None, A3_DIGEST),
    "moments": (["--graph", "a3", "--n", "3", "--fock-n", "2"],
                {"graph": "a3", "n": 3, "fock_n": 2}, None, A3_DIGEST),
    "trace": (["--graph", "a3", "--loop", "e1 e1'"],
              {"graph": "a3", "k": 0}, None, A3_DIGEST),
    "tangle": (["--graph", "a3", "--program", "PROGRAM", "--inputs", "INPUTS"],
               {"graph": "a3", "program": "double", "out_level": 1}, None,
               A3_DIGEST),
    "tower": (["--graph", "a3", "--k", "2", "--seed", "5"],
              {"graph": "a3", "k": 2}, 5, A3_DIGEST),
    "fock": (["--graph", "a2", "--max-len", "2", "--depth", "6"],
             {"graph": "a2", "max_len": 2, "depth": 6}, None, A2_DIGEST),
    "mc": (["--graph", "a2", "--loop", "e e'", "--N", "6", "--M", "6",
            "--samples", "4", "--probes", "2", "--seed", "3"],
           {"graph": "a2", "loop": "e e'", "N": 6, "M": 6, "samples": 4,
            "probes": 2, "group_samples": 4, "groups": 1}, 3, A2_DIGEST),
    "freedim": (["--graph", "s4", "--n", "2"], {"graph": "s4", "n": 2}, None,
                S4_DIGEST),
    "selftest": (["--seed", "7"], {"tol": 1e-9}, 7, A2_DIGEST),
}


@pytest.mark.parametrize("command", list(REPORT_HEADERS))
def test_report_header(tmp_path, capsys, command):
    argv, parameters, seed, digest = REPORT_HEADERS[command]
    files = {"PROGRAM": tmp_path / "double.tgl", "INPUTS": tmp_path / "in.json"}
    files["PROGRAM"].write_text("tangle double(x: 1+) -> 1+ {\n"
                                "  load x;\n  cup 1+;\n  cap 1;\n}\n")
    files["INPUTS"].write_text(json.dumps({
        "x": {"level": 1, "shading": "+",
              "terms": [{"loop": "e1 e1'", "coeff": 1.0}]}}))
    argv = [str(files.get(a, a)) for a in argv]
    code, out = run_cli(capsys, command, *argv)
    assert code == 0
    doc = json.loads(out)
    assert (doc["command"], doc["parameters"], doc["seed"],
            doc["graph_digest"]) == (command, parameters, seed, digest)


def test_mc_large_blocks_run_matrix_free():
    # 400 x 400 would be 10^10 dense block entries; the sampler holds only
    # thin bases of the queried directions
    proc = _cli_subprocess("mc", "--graph", "a3", "--loop", "e1 e1'",
                           "--N", "400", "--M", "400")
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr


def test_fock_past_basis_cap_is_usage_error(monkeypatch, capsys):
    monkeypatch.setattr("graphloops.fock.BASIS_CAP", 10)
    code = main(["fock", "--graph", "a2", "--max-len", "4", "--depth", "6"])
    err = capsys.readouterr().err
    assert code == 2
    assert "path basis exceeds cap" in err
    assert "Traceback" not in err


def test_tower_past_walk_cap_is_usage_error(monkeypatch, capsys):
    # the walks are counted before any is built; a3 reaches the real cap at
    # --k 20, and --k 40 would walk about 2^39 loops without it
    monkeypatch.setattr("graphloops.elements.WALK_CAP", 1000)
    code = main(["tower", "--graph", "a3", "--k", "12"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: loop walks exceed cap\n"


@pytest.mark.parametrize("max_len", ["17", "22"])
def test_fock_max_len_past_basis_cap_is_usage_error(capsys, max_len):
    # the oracle's basis is only max_len // 2 deep, but its loop walk holds
    # up to as many rows as there are paths of length <= max_len
    code = main(["fock", "--graph", "s4", "--max-len", max_len])
    err = capsys.readouterr().err
    assert code == 2
    assert "path basis exceeds cap" in err
    assert "Traceback" not in err


SCIPY_PROBE = """
import json, os, sys
import graphloops, graphloops.cli
loaded = {"import": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
for argv in (["moments", "--graph", "s4", "--n", "3", "--fock-n", "3"],
             ["fock", "--graph", "a3", "--max-len", "4", "--depth", "6"],
             ["selftest"]):
    code = graphloops.cli.main(argv + ["--out", os.devnull])
    loaded[argv[0]] = [code] + sorted(m for m in sys.modules
                                      if m.split(".")[0] == "scipy")
print(json.dumps(loaded))
"""


def test_package_import_leaves_scipy_sparse_unloaded():
    # numpy is the one runtime dependency: neither the import nor the Fock
    # route (the moments column, the oracle, the residuals) loads scipy
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": [], "moments": [0],
                                       "fock": [0], "selftest": [0]}


def test_report_determinism():
    rep = RunReport("demo", "abc123", {"x": 1},
                    [ReportRow("val", 1.23456789012345, 1.0)], seed=7)
    assert emit_report(rep, "json") == emit_report(rep, "json")
    assert emit_report(rep, "csv") == emit_report(rep, "csv")


def test_csv_row_count():
    rep = RunReport("demo", "abc123", {},
                    [ReportRow("a", 1.0), ReportRow("b", 2.0, 2.5)])
    lines = emit_report(rep, "csv").decode().strip().splitlines()
    assert len(lines) == 3            # header + two rows


def test_json_roundtrip_schema():
    rep = RunReport("demo", "abc", {"p": 2}, [ReportRow("a", 1.0, 1.0)])
    doc = json.loads(emit_report(rep, "json"))
    assert doc["command"] == "demo"
    assert doc["rows"][0]["abs_err"] == "0"


def test_twelve_significant_digits():
    rep = RunReport("demo", "abc", {}, [ReportRow("pi", 3.14159265358979)])
    doc = json.loads(emit_report(rep, "json"))
    assert doc["rows"][0]["value"] == "3.14159265359"


def test_cli_rows_bit_stable_across_runs(capsys):
    # identical inputs and seed reproduce every value row bit for bit,
    # including the Monte Carlo command
    def rows_of(*argv):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        return json.loads(out)["rows"]

    argv = ("mc", "--graph", "a3", "--loop", "e1 e1'",
            "--N", "10", "--M", "10", "--samples", "25", "--seed", "9")
    assert rows_of(*argv) == rows_of(*argv)
    argv = ("trace", "--graph", "s4", "--loop", "e1 e1' e2 e2'")
    assert rows_of(*argv) == rows_of(*argv)


def test_out_file_and_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, _ = run_cli(capsys, "graph", "--graph", "a2", "--format", "csv",
                      "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("name,value,expected,abs_err")


def test_csv_quotes_names_with_commas_and_quotes(tmp_path, capsys):
    # a vertex named `v,1` once wrote `mu[v,1],1,,`: five fields under a
    # four-field header; read back, every row has four fields and the names
    names = ("v,1", 'w"2', 'x,"3"')
    doc = {"vertices": [{"name": names[0], "parity": "+"},
                        {"name": names[1], "parity": "-"},
                        {"name": names[2], "parity": "-"}],
           "edges": [{"name": "e", "from": names[0], "to": names[1]},
                     {"name": "f", "from": names[0], "to": names[2]}]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "graph", "--graph", str(path),
                        "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "value", "expected", "abs_err"]
    assert all(len(row) == 4 for row in rows)
    assert [row[0] for row in rows if row[0].startswith("mu[")] == \
        [f"mu[{n}]" for n in names]
