"""Benchmark of graphloops over its exact and Monte Carlo routes.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --report [--seconds 25]

Run it from the root of a checkout; it imports the package from ``src/``.
A run generates the workload's inputs from the seed, then runs passes for
``--seconds`` seconds (at least three), each in a fresh single-threaded
worker process (``worker.py``) as a closed loop: one client, ops in a fixed
order.  Every op's output is checked, and its report rows must be identical
across all passes and runs of the same source at the same seed.

With ``--trace 0`` the result carries the end-to-end metrics, as medians
over the passes: ``setup_s`` (``import graphloops, graphloops.cli`` in a
fresh process), ``wall_s`` (one pass after set-up) and ``peak_rss_mib``
(peak resident set over set-up plus one pass).  With ``--trace 1`` one more
pass runs traced under ``-X importtime`` and the result carries the
per-layer metrics.  Both print every metric by name with its unit, the
quartiles and sample count of the end-to-end ones, the failed-op ratio, and
a machine and provenance block; the last line of standard output is the
JSON result.

``--report`` runs every workload at the default and at the held-out seed,
traced, and prints every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import spans as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

MIN_PASSES = 3
RUN_BUDGET_S = 170.0       # a run must end within 180 s

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"))


# -- statistics --------------------------------------------------------------

def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def failed_ratio(entries) -> tuple[int, int, float]:
    """(attempted, failed, failed / attempted) over op entries."""
    attempted = len(entries)
    failed = sum(1 for e in entries if not e["ok"])
    return attempted, failed, failed / attempted if attempted else 0.0


def check_rows(entries, reference: dict) -> dict:
    """Fail every op whose rows differ from the reference digest.

    `reference` maps op -> digest from earlier runs of the same source and
    seed; ops missing from it take their first passing digest here.  Returns
    the reference, completed.
    """
    reference = dict(reference)
    for e in entries:
        if not e["ok"]:
            continue
        want = reference.setdefault(e["op"], e["digest"])
        if e["digest"] != want:
            e.update(ok=False, error="rows differ from an earlier run of the "
                                     "same source and seed")
    return reference


# -- provenance ----------------------------------------------------------------

def source_digest(src: str = SRC) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_bytes(level: int) -> int | None:
    """Size of the first unified or data cache at `level`, from sysfs."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            def read(name):
                with open(os.path.join(base, index, name), encoding="utf-8") as fh:
                    return fh.read().strip()
            if index.startswith("index") and read("level") == str(level) \
                    and read("type") != "Instruction":
                size = read("size")
                scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _blas() -> dict:
    """BLAS vendor, version and default thread count of numpy's build."""
    import ctypes
    import glob
    import numpy as np
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"vendor": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _imports(module: str) -> bool:
    """Whether `module` imports; numba's presence selects the Gaussian stream."""
    try:
        importlib.import_module(module)
    except ImportError:
        return False
    return True


def provenance(seed: int) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": _blas(),
        "numba": _imports("numba"),
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
    }


# -- worker processes ------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(args: list[str], timeout: float, importtime: bool = False):
    """Run a worker to completion; (returncode, stderr).  A timeout kills it."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + args
    try:
        done = subprocess.run(cmd, env=_env(), cwd=ROOT, text=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    return done.returncode, done.stderr


def one_pass(workload, seed, inputs, scratch, deadline, spans_path=None):
    """One worker pass; (result or None, worker stderr)."""
    result_path = os.path.join(scratch, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    args = [os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--inputs", inputs, "--scratch", scratch,
            "--result", result_path]
    if spans_path:
        args += ["--spans", spans_path]
    code, stderr = spawn(args, deadline - time.monotonic(),
                         importtime=spans_path is not None)
    if code != 0 or not os.path.exists(result_path):
        return None, stderr
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh), stderr


def _crashed(workload, seed, inputs, stderr) -> list[dict]:
    last = [ln for ln in (stderr or "").splitlines() if ln.strip()]
    return [{"op": op.name, "ok": False, "exit_code": None, "digest": None,
             "seconds": 0.0, "error": "worker died: " + (last[-1] if last else "")}
            for op in workloads.ops(workload, seed, inputs)]


# -- one run ---------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    inputs = os.path.join(STATE, "inputs", f"{workload}-{seed}")
    scratch = os.path.join(STATE, "scratch", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        workloads.make_inputs(workload, seed, inputs)
        # compile bytecode and warm the file cache before anything is timed
        code, stderr = spawn(["-c", "import graphloops, graphloops.cli"], 60.0)
        if code != 0:
            raise RuntimeError("cannot import graphloops: "
                               + (stderr.strip().splitlines() or ["?"])[-1])

        passes, entries, attempts = [], [], 0
        while True:
            t0 = time.monotonic()
            result, stderr = one_pass(workload, seed, inputs, scratch, deadline)
            attempts += 1
            if result is None:
                entries += _crashed(workload, seed, inputs, stderr)
            else:
                passes.append(result)
                entries += result["ops"]
            now = time.monotonic()
            # leave room for one more pass, and for the traced pass after it
            reserve = (now - t0) * (2.5 if trace else 1.2)
            if now + reserve > deadline:
                break
            if attempts >= MIN_PASSES and now - started >= seconds:
                break
        if not passes:
            raise RuntimeError("no pass completed: " + entries[-1]["error"])

        traced = None
        if trace:
            spans_path = os.path.join(scratch, "spans.json")
            result, stderr = one_pass(workload, seed, inputs, scratch, deadline,
                                      spans_path)
            if result is None:
                entries += _crashed(workload, seed, inputs, stderr)
            else:
                entries += result["ops"]
                with open(spans_path, "r", encoding="utf-8") as fh:
                    traced = (result, json.load(fh), stderr)

        store = os.path.join(STATE, "rows", f"{workload}-{seed}.json")
        digest = source_digest()
        reference = {}
        if os.path.exists(store):
            with open(store, "r", encoding="utf-8") as fh:
                saved = json.load(fh)
            if saved.get("source") == digest:
                reference = saved["ops"]
        reference = check_rows(entries, reference)
        os.makedirs(os.path.dirname(store), exist_ok=True)
        with open(store, "w", encoding="utf-8") as fh:
            json.dump({"source": digest, "ops": reference}, fh)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    return {"workload": workload, "seed": seed, "passes": passes,
            "entries": entries, "traced": traced}


def end_to_end(run: dict) -> dict[str, tuple[float, float, float, int, str]]:
    out = {}
    for name, unit in END_TO_END:
        values = [p[name] for p in run["passes"]]
        q1, med, q3 = quartiles(values)
        out[name] = (med, q1, q3, len(values), unit)
    return out


def per_layer(run: dict) -> dict[str, tuple[float, str]]:
    result, doc, stderr = run["traced"]
    metrics = dict(tracing.layer_metrics(doc))
    for name, value in tracing.import_metrics(stderr).items():
        metrics[name] = (value, "s")
    # every op of every workload, so each run reports the same metric names
    for op in (op.name for w in workloads.WORKLOADS for op in workloads.ops(w, 0, "")):
        times = [e["seconds"] for p in run["passes"] for e in p["ops"]
                 if e["op"] == op]
        metrics[f"cli.{op}_s"] = (statistics.median(times) if times else 0.0, "s")
    untraced = statistics.median(p["wall_s"] for p in run["passes"])
    layer_total = sum(tracing.self_times([tuple(s) for s in doc["spans"]]).values())
    metrics["trace.wall_s"] = (result["wall_s"], "s")
    metrics["trace.overhead_ratio"] = (result["wall_s"] / untraced - 1.0, "ratio")
    metrics["trace.accounted_ratio"] = (layer_total / result["wall_s"], "ratio")
    return metrics


def report_lines(run: dict, e2e, layers) -> list[str]:
    lines = [f"# workload {run['workload']}  seed {run['seed']}  "
             f"passes {len(run['passes'])}  closed loop, 1 client, --threads 1"]
    for name, (med, q1, q3, n, unit) in e2e.items():
        lines.append(f"{name} = {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, "
                     f"n {n})")
    attempted, failed, ratio = failed_ratio(run["entries"])
    lines.append(f"failed_ratio = {ratio:.6g} ratio  ({failed} of {attempted} ops)")
    for e in run["entries"]:
        if not e["ok"]:
            lines.append(f"FAILED op {e['op']}  exit {e['exit_code']}  {e['error']}")
    if run["traced"]:
        for name, error in run["traced"][1]["hook_errors"].items():
            lines.append(f"COUNT LOST {name}  {error}")
    for name, (value, unit) in sorted((layers or {}).items()):
        note = "  (computed from block shapes)" if name in (
            "randmat.chain_flops", "randmat.chain_bytes", "normals.bytes") else ""
        lines.append(f"{name} = {value:.6g} {unit}{note}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="graphloops benchmark")
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true",
                   help="every workload at the default and held-out seed, traced")
    args = p.parse_args(argv)
    if not args.report and args.workload is None:
        p.error("--workload is required unless --report is given")
    if not os.path.isfile(os.path.join(SRC, "graphloops", "__init__.py")):
        print(f"error: no graphloops package under {SRC}; run from the root "
              "of a graphloops checkout", file=sys.stderr)
        return 2

    if args.report:
        for workload in workloads.WORKLOADS:
            for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
                print("provenance " + json.dumps(provenance(seed), sort_keys=True))
                run = run_workload(workload, seed, args.seconds, True)
                layers = per_layer(run) if run["traced"] else None
                print("\n".join(report_lines(run, end_to_end(run), layers)))
        return 0

    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    e2e = end_to_end(run)
    layers = per_layer(run) if args.trace and run["traced"] else None
    print("\n".join(report_lines(run, e2e, layers)))
    attempted, failed, _ = failed_ratio(run["entries"])
    if args.trace:
        if layers is None:
            print("error: the traced pass did not complete", file=sys.stderr)
            return 1
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v[0], "unit": v[4]} for k, v in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
