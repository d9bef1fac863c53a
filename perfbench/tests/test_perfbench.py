"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests
"""

import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def span(sid, parent, layer, name, start, end):
    return (sid, parent, layer, name, start, end)


# op 0-10 (cli) > f 1-5 (x) > g 2-3 (y);  op > h 6-8 (y) > f 6.5-7 (x)
TREE = [
    span(3, 2, "y", "y.g", 2.0, 3.0),
    span(2, 1, "x", "x.f", 1.0, 5.0),
    span(5, 4, "x", "x.f", 6.5, 7.0),
    span(4, 1, "y", "y.h", 6.0, 8.0),
    span(1, 0, "cli", "op.demo", 0.0, 10.0),
]


def test_self_time_on_synthetic_tree():
    selfs = spans.self_times(TREE)
    assert selfs["cli"] == pytest.approx(4.0)      # 10 - 4 - 2
    assert selfs["x"] == pytest.approx(3.5)        # (4 - 1) + 0.5
    assert selfs["y"] == pytest.approx(2.5)        # 1 + (2 - 0.5)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_covered_merges_overlapping_children():
    assert spans.covered([(1, 3), (2, 4), (6, 7)], 0, 10) == pytest.approx(4.0)
    assert spans.covered([(-1, 2), (9, 12)], 0, 10) == pytest.approx(3.0)


def test_inclusive_time_counts_outermost_spans_only():
    assert spans.inclusive_time(TREE, ["x.f"]) == pytest.approx(4.5)
    assert spans.inclusive_time(TREE, ["x.f", "y.g"]) == pytest.approx(4.5)
    assert spans.inclusive_time(TREE, ["y.h", "x.f"]) == pytest.approx(6.0)


def test_absent_names_give_absent_metrics():
    doc = {"spans": TREE, "counts": {}, "stderr_rel": [], "hook_errors": {},
           "layers": ["x", "y"], "wrapped": ["x.f", "y.g", "y.h"]}
    metrics = spans.layer_metrics(doc)
    assert metrics["x.self_s"] == (pytest.approx(3.5), "s")
    assert metrics["x.calls"] == (2, "count")
    assert metrics["cli.self_s"] == (pytest.approx(4.0), "s")
    assert not any(k.startswith(("normals.", "randmat.", "fock.")) for k in metrics)


def test_importtime_parser():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       200 |        300 |     scipy.sparse._base",
        "import time:      1000 |     260000 |   scipy.sparse",
        "import time:      5000 |     400000 | graphloops",
        "import time:      2000 |      30000 | graphloops.cli",
        "import time:       100 |        100 | json",
    ])
    rows = spans.parse_importtime(text)
    assert rows[1] == ("scipy.sparse", 1, pytest.approx(0.001), pytest.approx(0.26))
    metrics = spans.import_metrics(text)
    assert metrics["setup.import_s"] == pytest.approx(0.43)
    assert metrics["setup.import.scipy_sparse_s"] == pytest.approx(0.26)
    assert spans.import_metrics(text.replace("scipy.sparse", "x"))[
        "setup.import.scipy_sparse_s"] == 0.0


def test_median_and_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, med, q3 = run.quartiles(values)
    assert (q1, med, q3) == tuple(statistics.quantiles(values, n=4))
    assert med == pytest.approx(3.75)
    assert run.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert run.quartiles([1.0, 3.0]) == (pytest.approx(0.5), 2.0, pytest.approx(3.5))


def test_failed_ratio_counts_an_injected_failing_op(tmp_path):
    # trace with neither --loop nor --element is an invalid call: a fixture
    # for a failing op, not part of any workload
    ops = [workloads.cli_op("graph", ["graph", "--graph", "a2"]),
           workloads.cli_op("trace", ["trace", "--graph", "s4"])]
    entries, wall_s = worker.run_pass(ops, str(tmp_path))
    assert wall_s > 0
    good, bad = entries
    assert good["ok"] and good["exit_code"] == 0 and good["digest"]
    assert not bad["ok"] and bad["exit_code"] in (1, 2) and bad["error"]
    assert run.failed_ratio(entries) == (2, 1, 0.5)


def test_rows_stability_check():
    def entry(op, digest, ok=True):
        return {"op": op, "ok": ok, "digest": digest, "error": ""}

    entries = [entry("a", "1"), entry("b", "2"), entry("a", "1"), entry("b", "3")]
    reference = run.check_rows(entries, {})
    assert reference == {"a": "1", "b": "2"}
    assert [e["ok"] for e in entries] == [True, True, True, False]
    assert run.failed_ratio(entries)[1] == 1

    later = [entry("a", "1"), entry("b", "3"), entry("c", None, ok=False)]
    run.check_rows(later, reference)
    assert [e["ok"] for e in later] == [True, False, False]


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED, 77])
def test_generated_inputs_load(tmp_path, seed):
    import json
    from graphloops import LoopAlgebra, builtin_graph, perron_frobenius
    from graphloops.tangles import parse_tangle
    workloads.make_inputs("algebra", seed, str(tmp_path))
    g = builtin_graph("s4")
    alg = LoopAlgebra(g, perron_frobenius(g))
    prog = parse_tangle((tmp_path / "program.tgl").read_text())
    assert prog.out_level == 6
    x = alg.from_json_dict(json.loads((tmp_path / "element5.json").read_text()))
    assert (x.level, len(x.terms)) == (5, 4 ** 5)
    again = tmp_path / "again"
    workloads.make_inputs("algebra", seed, str(again))
    for name in ("program.tgl", "tangle_inputs.json", "element5.json"):
        assert (again / name).read_text() == (tmp_path / name).read_text()
