"""One pass of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload W --seed S --inputs DIR \
        --scratch DIR --result FILE [--spans FILE]

Times set-up (``import graphloops, graphloops.cli``) and then one closed-loop
pass over the workload's ops in their fixed order, checks every op's output,
and writes the result as JSON.  With ``--spans`` the pass is traced: the
package's public functions are wrapped after set-up and the spans are
written to that file when the pass ends.  ``run.py`` starts this script; it
is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext

import spans as tracing
import workloads


def rows_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def run_op(op, scratch: str, recorder=None) -> dict:
    """Run one op; an exception or a failed check is a failed op, not an abort."""
    entry = {"op": op.name, "ok": False, "exit_code": None, "error": "",
             "digest": None}
    started = time.perf_counter()
    try:
        with recorder.span(tracing.OP_LAYER, f"op.{op.name}") if recorder else nullcontext():
            rows = op.run(scratch)
        entry.update(ok=True, exit_code=0, digest=rows_digest(rows))
    except workloads.OpFailed as exc:
        entry.update(exit_code=exc.exit_code, error=exc.message)
    except Exception:
        entry.update(exit_code=1, error=traceback.format_exc().strip().splitlines()[-1])
    entry["seconds"] = time.perf_counter() - started
    if recorder is not None:
        recorder.end_op()
    return entry


def run_pass(ops, scratch: str, recorder=None) -> tuple[list[dict], float]:
    started = time.perf_counter()
    entries = [run_op(op, scratch, recorder) for op in ops]
    return entries, time.perf_counter() - started


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--scratch", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    started = time.perf_counter()
    import graphloops  # noqa: F401  (the timed set-up)
    import graphloops.cli  # noqa: F401
    setup_s = time.perf_counter() - started

    recorder = None
    if args.spans:
        recorder = tracing.Recorder()
        recorder.install()
    ops = workloads.ops(args.workload, args.seed, args.inputs)
    entries, wall_s = run_pass(ops, args.scratch, recorder)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "wall_s": wall_s,
                   "peak_rss_mib": peak_rss_mib, "ops": entries}, fh)
    if recorder is not None:
        tracing.dump(recorder, args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
