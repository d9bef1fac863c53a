"""Command-line surface: reports over all modules.

Exit status: 0 success, 1 failed numeric check, 2 usage error (argparse,
including a --tol that is not a finite number > 0, or an input the model
cannot take: a bad value, a missing file, a Fock path basis past its cap).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .graphs import (EVEN, ODD, GraphError, builtin_graph, load_pf,
                     perron_frobenius)
from .elements import LoopAlgebra, loop_from_tokens, loop_label
from .fock import FockSpace, commutator_diagnostics, oracle_check_trace
from .ncpairings import free_poisson_moments
from .randmat import (BlockModelSpec, convergence_sweep, estimate_trace,
                      trend_non_increasing)
from .reports import RunReport, emit_report, graph_digest
from .selftest import run_selftest
from .tangles import eval_tangle, parse_tangle
from .traces import free_structure_report, trace_k


def _load_alg(name_or_path: str, tol: float) -> LoopAlgebra:
    """A builtin graph by name, else a graph document given inline or as a
    file, with its optional `mu` block (`graphs.load_pf`).

    Text that is neither a builtin name, inline JSON nor an existing file
    reports `builtin_graph`'s error for the name.
    """
    try:
        g = builtin_graph(name_or_path)
    except GraphError:
        if not (name_or_path.lstrip().startswith("{")
                or os.path.isfile(name_or_path)):
            raise
        pf = load_pf(name_or_path, tol)
    else:
        pf = perron_frobenius(g, min(tol, 1e-12))
    return LoopAlgebra(pf.graph, pf)


def _int_at_least(low: int):
    """argparse type for size and count flags: an integer >= low (argparse
    names the type, so text that is no integer reads "invalid integer")."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {value}")
        return value
    return integer


POSITIVE, NON_NEGATIVE = _int_at_least(1), _int_at_least(0)


def tolerance(text: str) -> float:
    """argparse type for --tol: a finite float > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number > 0, got {text}")
    return value


def _finish(report: RunReport, args, started: float, failed: bool) -> int:
    report.wall_time_s = time.perf_counter() - started
    payload = emit_report(report, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    return 1 if failed else 0


def cmd_graph(args) -> int:
    started = time.perf_counter()
    alg = _load_alg(args.graph, args.tol)
    g, pf = alg.g, alg.pf
    report = RunReport("graph", graph_digest(g), {"graph": args.graph})
    report.add("delta", pf.delta)
    report.add("pf_residual", pf.residual(), 0.0)
    for v, name in enumerate(g.vertex_names):
        report.add(f"mu[{name}]", pf.mu[v])
    for e in g.oriented_edges:
        report.add(f"sigma[{g.oriented_name(e)}]", pf.sigma(e))
    return _finish(report, args, started, pf.residual() > args.tol)


def cmd_moments(args) -> int:
    started = time.perf_counter()
    alg = _load_alg(args.graph, args.tol)
    delta = alg.pf.delta
    report = RunReport("moments", graph_digest(alg.g),
                       {"graph": args.graph, "n": args.n, "fock_n": args.fock_n})
    rec = free_poisson_moments(delta, args.n, "recursion")
    closed = free_poisson_moments(delta, args.n, "closed_form")
    nara = free_poisson_moments(delta, args.n, "narayana")

    cup = alg.cup()
    v0 = alg.g.vertices_of_parity(EVEN)[0]
    power = alg.vertex_element(v0)
    loop_vals = [1.0]
    for _ in range(args.n):
        power = alg.wedge(0, power, cup)
        loop_vals.append(trace_k(alg, 0, power)[v0])

    fock_vals = []
    if args.fock_n > 0:
        space = FockSpace(alg, 2 * args.fock_n)
        cup_op = space.cup_operator()
        vec = np.zeros(len(space.basis))
        vec[v0] = 1.0
        fock_vals.append(1.0)
        for _ in range(args.fock_n):
            vec = cup_op @ vec
            fock_vals.append(float(vec[v0]))

    failed = False
    for n in range(args.n + 1):
        report.add(f"m[{n}] recursion", rec[n])
        report.add(f"m[{n}] closed_form", closed[n], rec[n])
        report.add(f"m[{n}] narayana", nara[n], rec[n])
        report.add(f"m[{n}] loop_trace", loop_vals[n], rec[n])
        if n < len(fock_vals):
            report.add(f"m[{n}] fock_vacuum", fock_vals[n], rec[n])
    scale = max(abs(x) for x in rec)
    worst = max(r.abs_err for r in report.rows if r.abs_err is not None)
    report.add("all_agree", 1.0 if worst <= args.tol * scale else 0.0, 1.0)
    failed = worst > args.tol * scale
    return _finish(report, args, started, failed)


def cmd_trace(args) -> int:
    started = time.perf_counter()
    alg = _load_alg(args.graph, args.tol)
    if args.loop is not None:
        lp = loop_from_tokens(alg.g, args.loop, args.vertex)
        x = alg.single_loop(lp)
    else:
        with open(args.element, "r", encoding="utf-8") as fh:
            x = alg.from_json_dict(json.load(fh))
    cv = trace_k(alg, args.k, x)
    report = RunReport("trace", graph_digest(alg.g),
                       {"graph": args.graph, "k": args.k})
    for v in sorted(cv.values):
        report.add(f"trace[{alg.g.vertex_names[v]}]", cv.values[v])
    return _finish(report, args, started, False)


def cmd_tangle(args) -> int:
    started = time.perf_counter()
    alg = _load_alg(args.graph, args.tol)
    with open(args.program, "r", encoding="utf-8") as fh:
        prog = parse_tangle(fh.read())
    inputs = {}
    if args.inputs:
        with open(args.inputs, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("--inputs must be a JSON object {name: element}")
        inputs = {name: alg.from_json_dict(elt) for name, elt in doc.items()}
    result = eval_tangle(alg, prog, inputs)
    report = RunReport("tangle", graph_digest(alg.g),
                       {"graph": args.graph, "program": prog.name,
                        "out_level": result.level})
    for lp in sorted(result.terms):
        report.add(loop_label(alg.g, lp), result.terms[lp])
    return _finish(report, args, started, False)


def cmd_tower(args) -> int:
    started = time.perf_counter()
    alg = _load_alg(args.graph, args.tol)
    from .tangles import random_element
    from .traces import phi_frame
    rng = np.random.default_rng(args.seed)
    k = args.k
    shading = EVEN if k % 2 == 0 else ODD
    e_k = alg.jones_projection(k, tower=True)
    report = RunReport("tower", graph_digest(alg.g),
                       {"graph": args.graph, "k": k}, seed=args.seed)
    y = random_element(alg, k - 1, -shading, rng)
    markov = (trace_k(alg, k, alg.wedge(k, alg.include_step(y), e_k))
              .scale(alg.pf.delta) - trace_k(alg, k - 1, y))
    report.add("markov_residual", markov.norm_inf(), 0.0)
    e_pl = alg.jones_projection(k)
    idem = alg.usual_mult(e_pl, e_pl) - e_pl
    report.add("jones_idempotent_residual", idem.norm_inf(), 0.0)
    roundtrip = alg.expect_step(alg.include_step(y)) - y
    report.add("expect_include_residual", roundtrip.norm_inf(), 0.0)
    phi_dev = abs(phi_frame(alg, alg.include_step(y), k)
                  - phi_frame(alg, y, k - 1))
    report.add("inclusion_trace_residual", phi_dev, 0.0)
    return _finish(report, args, started, not report.ok(args.tol))


def cmd_fock(args) -> int:
    started = time.perf_counter()
    alg = _load_alg(args.graph, args.tol)
    rep = oracle_check_trace(alg, max_len=args.max_len)
    report = RunReport("fock", graph_digest(alg.g),
                       {"graph": args.graph, "max_len": args.max_len,
                        "depth": args.depth})
    report.add("vacuum_vs_pairing_max_dev", rep["max_deviation"], 0.0)
    diag = commutator_diagnostics(alg, depth=args.depth)
    for row in diag["xi"]:
        report.add(f"xi_norm_sq[k={row['k']},{row['vertex']}]",
                   row["norm_sq"], row["expected"])
    report.add("commutator_interior_fro", diag["commutator_interior_fro"])
    report.add("cup_minus_nested_fro", diag["cup_minus_nested_fro"])
    report.add("pk_commutation_max", diag["pk_commutation_max"], 0.0)
    failed = (rep["max_deviation"] > args.tol
              or diag["pk_commutation_max"] > args.tol
              or any(r["abs_err"] > args.tol for r in diag["xi"]))
    return _finish(report, args, started, failed)


def cmd_mc(args) -> int:
    started = time.perf_counter()
    alg = _load_alg(args.graph, args.tol)
    lp = loop_from_tokens(alg.g, args.loop, args.vertex)
    if args.grid and min(args.N, args.M) < 4:
        raise ValueError("--grid sweeps down to (N/4, M/4): it needs "
                         "--N and --M of at least 4")
    report = RunReport("mc", graph_digest(alg.g),
                       {"graph": args.graph, "loop": args.loop,
                        "N": args.N, "M": args.M, "samples": args.samples,
                        "probes": args.probes},
                       seed=args.seed)
    if args.grid:
        grid = [(args.N // 4, args.M // 4), (args.N // 2, args.M // 2),
                (args.N, args.M)]
        rows = convergence_sweep(alg, [lp], grid, args.samples, args.seed,
                                 args.probes, args.threads)[lp]
        for row in rows:
            report.add(f"estimate[N={row['N']},M={row['M']}]",
                       row["estimate"], row["target"])
            report.add(f"stderr[N={row['N']},M={row['M']}]", row["stderr"])
        ok = trend_non_increasing(rows)
        report.add("trend_non_increasing", 1.0 if ok else 0.0, 1.0)
        failed = not ok
    else:
        spec = BlockModelSpec(alg, args.N, args.M, args.seed)
        est = estimate_trace(spec, lp, args.samples, args.probes, args.threads)
        report.add("estimate", est.mean, est.target)
        report.add("stderr", est.stderr)
        bound = max(3.0 * est.stderr, 0.05 * abs(est.target) + 0.02)
        report.add("tolerance", bound)
        failed = est.abs_err > bound
    return _finish(report, args, started, failed)


def cmd_freedim(args) -> int:
    started = time.perf_counter()
    alg = _load_alg(args.graph, args.tol)
    rep = free_structure_report(alg, args.n)
    report = RunReport("freedim", graph_digest(alg.g),
                       {"graph": args.graph, "n": args.n})
    for row in rep["rows"]:
        report.add(f"dim_new[{row['degree']}]", row["dim_new_generators"],
                   row["expected"])
        report.add(f"tl_dim[{row['degree']}]", row["tl_dim"], row["catalan"])
    return _finish(report, args, started, not rep["pass"])


def cmd_selftest(args) -> int:
    started = time.perf_counter()
    rows = run_selftest(tol=args.tol, seed=args.seed)
    g = builtin_graph("a2")
    report = RunReport("selftest", graph_digest(g), {"tol": args.tol},
                       seed=args.seed)
    failed = False
    for row in rows:
        report.add(row["name"], row["deviation"], 0.0)
        failed = failed or not row["pass"]
    report.add("all_pass", 0.0 if failed else 1.0, 1.0)
    return _finish(report, args, started, failed)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="graphloops",
        description="Loop algebras, diagram traces and oracle models on "
                    "finite bipartite graphs.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, graph=True):
        if graph:
            p.add_argument("--graph", default="a3",
                           help="builtin name (a2, a3, s4, aN) or JSON path")
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--tol", type=tolerance, default=1e-9)
        p.add_argument("--threads", type=POSITIVE, default=1)
        p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("graph", help="delta, mu and sigma tables")
    common(p)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("moments", help="four-way one-cup moment table")
    common(p)
    p.add_argument("--n", type=NON_NEGATIVE, default=8)
    p.add_argument("--fock-n", type=NON_NEGATIVE, default=6)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("trace", help="grade-k trace of an element or loop")
    common(p)
    p.add_argument("--k", type=NON_NEGATIVE, default=0)
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--loop", default=None,
                      help="loop tokens, e.g. \"e1 e1'\"")
    what.add_argument("--element", default=None, help="element JSON file")
    p.add_argument("--vertex", default=None, help="base vertex for level-0")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("tangle", help="evaluate a .tgl program")
    common(p)
    p.add_argument("--program", required=True)
    p.add_argument("--inputs", default=None, help="JSON {name: element}")
    p.set_defaults(fn=cmd_tangle)

    p = sub.add_parser("tower", help="tower map diagnostics at grade k")
    common(p)
    p.add_argument("--k", type=_int_at_least(2), default=2)
    p.set_defaults(fn=cmd_tower)

    p = sub.add_parser("fock", help="operator-model oracle reports")
    common(p)
    p.add_argument("--max-len", type=NON_NEGATIVE, default=6)
    p.add_argument("--depth", type=NON_NEGATIVE, default=8)
    p.set_defaults(fn=cmd_fock)

    p = sub.add_parser("mc", help="random block-matrix trace estimate")
    common(p)
    p.add_argument("--loop", required=True)
    p.add_argument("--vertex", default=None)
    p.add_argument("--N", type=POSITIVE, default=40)
    p.add_argument("--M", type=POSITIVE, default=40)
    p.add_argument("--samples", type=_int_at_least(2), default=200)
    p.add_argument("--probes", type=POSITIVE, default=8)
    p.add_argument("--grid", action="store_true",
                   help="sweep (N/4,M/4) -> (N/2,M/2) -> (N,M)")
    p.set_defaults(fn=cmd_mc)

    p = sub.add_parser("freedim", help="free-structure dimension table")
    common(p)
    p.add_argument("--n", type=POSITIVE, default=4)
    p.set_defaults(fn=cmd_freedim)

    p = sub.add_parser("selftest", help="run the cross-module invariant suite")
    common(p, graph=False)
    p.set_defaults(fn=cmd_selftest)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
