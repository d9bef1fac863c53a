"""The benchmark's per-layer metrics stay reachable from the package.

`perfbench/spans.py` emits a declared metric only while the package name it
wraps exists, so renaming one of them (say `randmat.SampledModel`) silently
drops metrics from every traced benchmark run.  This reads `perfbench/` and
`BENCHMARK.json` and changes neither.
"""

import json
import subprocess
import sys
from pathlib import Path

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
