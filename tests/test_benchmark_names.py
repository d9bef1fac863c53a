"""The benchmark's per-layer metrics stay reachable from the package.

`perfbench/spans.py` emits a declared metric only while the package name it
wraps exists, so renaming one of them (say `randmat.SampledModel`) silently
drops metrics from every traced benchmark run.  Every benchmark op is a CLI
subcommand run with `--threads 1 --out PATH` appended, so every subcommand
must keep both flags.  This reads `perfbench/` and `BENCHMARK.json` and
changes neither.
"""

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import graphloops, graphloops.cli
import spans, workloads
recorder = spans.Recorder()
recorder.install()
op_names = [op.name for w in workloads.WORKLOADS
            for op in workloads.ops(w, workloads.DEFAULT_SEED, "unused")]
print(json.dumps({"emitted": sorted(spans.layer_metrics(recorder.to_json())),
                  "ops": op_names}))
"""


def test_every_declared_layer_metric_is_emitted():
    declared = [m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    proc = subprocess.run([sys.executable, "-c", PROBE, str(ROOT / "perfbench")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    # run.py itself adds the import timings, the trace overhead and the
    # per-op wall times; every other name comes from spans.layer_metrics
    added_by_runner = {f"cli.{op}_s" for op in doc["ops"]}
    checked = [name for name in declared
               if not name.startswith(("setup.", "trace."))
               and name not in added_by_runner]
    missing = sorted(set(checked) - set(doc["emitted"]))
    assert not missing, missing


FOCK_REACH = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import graphloops, graphloops.cli
import spans
recorder = spans.Recorder()
recorder.install()
code = graphloops.cli.main(["fock", "--graph", "a3", "--max-len", "4",
                            "--depth", "6", "--out", os.devnull])
doc = recorder.to_json()
print(json.dumps({"code": code, "counts": doc["counts"],
                  "hook_errors": doc["hook_errors"]}))
"""


def test_fock_counts_reach_the_benchmark():
    # fock.basis_paths and fock.op_nnz come from hooks on PathBasis.__init__
    # and the FockSpace operator builders; renaming one drops the count
    proc = subprocess.run([sys.executable, "-c", FOCK_REACH,
                           str(ROOT / "perfbench")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["code"] == 0
    assert doc["hook_errors"] == {}
    for key in ("fock.basis_paths", "fock.op_nnz"):
        assert doc["counts"].get(key, 0) > 0, key


TANGLE_REACH = """
import json, random, sys
sys.path.insert(0, sys.argv[1])
import graphloops, graphloops.cli
import spans, workloads
recorder = spans.Recorder()
recorder.install()
from graphloops import LoopAlgebra, builtin_graph, perron_frobenius
from graphloops.tangles import eval_tangle, parse_tangle
g = builtin_graph("s4")
alg = LoopAlgebra(g, perron_frobenius(g))
rng = random.Random(1)
prog = parse_tangle(workloads.tangle_program(rng, rounds=1))
eval_tangle(alg, prog, {name: alg.from_json_dict(workloads._element(3, rng))
                        for name in ("x", "y")})
doc = recorder.to_json()
print(json.dumps({"counts": doc["counts"], "hook_errors": doc["hook_errors"]}))
"""


def test_tangle_count_reaches_the_benchmark():
    # tangles.loops_out comes from a hook on tangles.eval_tangle that reads
    # the result's terms; renaming the function drops the count, and a
    # result the hook cannot read shows as a hook error
    proc = subprocess.run([sys.executable, "-c", TANGLE_REACH,
                           str(ROOT / "perfbench")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["hook_errors"] == {}
    assert doc["counts"].get("tangles.loops_out", 0) > 0


REACH = """
import json, sys
sys.path.insert(0, sys.argv[1])
import graphloops, graphloops.cli
import spans
recorder = spans.Recorder()
recorder.install()
from graphloops import (LoopAlgebra, builtin_graph, loop_from_tokens,
                        perron_frobenius)
from graphloops.randmat import BlockModelSpec, estimate_traces
g = builtin_graph("a2")
alg = LoopAlgebra(g, perron_frobenius(g))
spec = BlockModelSpec(alg, 12, 12, 1)
estimate_traces(spec, [loop_from_tokens(g, "e e' e e'")], samples=2, probes=2)
print(json.dumps(recorder.to_json()["counts"]))
"""


def test_sampler_counts_reach_the_benchmark():
    # the chain and Gaussian counts come from wrapped package names, so the
    # sampler the estimators run must be the one those names reach; at
    # 144 x 144 blocks this batch took the unwrapped lazy engine when the
    # estimators still chose between two engines
    proc = subprocess.run([sys.executable, "-c", REACH,
                           str(ROOT / "perfbench")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    for key in ("randmat.samples", "randmat.matvecs", "_normals.values"):
        assert counts.get(key, 0) > 0, key


@pytest.mark.parametrize("workload", ["mc-sweep", "mc-long"])
def test_monte_carlo_ops_pass_their_bounds(workload, tmp_path, monkeypatch):
    # the benchmark calls estimate_traces and convergence_sweep with
    # positional arguments and reads sweep[loop]; an op past its own Monte
    # Carlo bound raises OpFailed
    found = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(found)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    found.loader.exec_module(workloads)
    for op in workloads.ops(workload, workloads.DEFAULT_SEED, str(tmp_path)):
        assert op.run(str(tmp_path)), op.name


# the fewest arguments each subcommand takes; perfbench's `cli_op` appends
# `--threads 1 --out PATH` to every op it runs
MINIMAL_ARGV = {
    "graph": [], "moments": [], "trace": ["--loop", "e1 e1'"],
    "tangle": ["--program", "p.tgl"], "tower": [], "fock": [],
    "mc": ["--loop", "e1 e1'"], "freedim": [], "selftest": [],
}


def test_every_subcommand_takes_the_benchmark_flags(tmp_path):
    from graphloops.cli import build_parser
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(MINIMAL_ARGV)
    out = str(tmp_path / "report.json")
    for name, argv in MINIMAL_ARGV.items():
        args = parser.parse_args([name, *argv, "--threads", "1", "--out", out])
        assert (args.threads, args.out) == (1, out), name
