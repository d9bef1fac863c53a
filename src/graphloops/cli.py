"""Command-line surface: reports over all modules.

One protocol serves every subcommand: `main` parses the arguments, starts
the clock, loads the graph (`graphs.load_pf`), builds the `RunReport`
header, calls `cmd_<name>(alg, args, report)`, writes the report and
returns the exit code.  A `cmd_*` adds only its rows, parameters and seed,
and returns whether its check failed.

One pass rule: a check passes when `report.ok(bound)`, i.e. every row that
carries an expected value is within `bound` of it, so a NaN there fails.
The bound is --tol (graph, tower, fock, selftest), --tol * max|m_n|
(moments), max(3 stderr, 0.05 |target| + 0.02) (mc at one size) or 0
(freedim's ranks); `mc --grid` is judged by its trend row alone.

Exit status: 0 success, 1 failed numeric check, 2 usage error (argparse,
including a --tol that is not a finite number > 0, or an input the model
cannot take: a bad value, a missing file, or a Fock path basis, a loop
walk or a freedim Gram past its cap).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .graphs import EVEN, ODD, load_pf
from .elements import LoopAlgebra, loop_from_tokens, loop_label, loop_order
from .fock import FockSpace, commutator_diagnostics, oracle_check_trace
from .ncpairings import free_poisson_moments
from .randmat import convergence_sweep, trend_non_increasing
from .reports import RunReport, emit_report, graph_digest
from .selftest import run_selftest
from .tangles import eval_tangle, parse_tangle, random_element
from .traces import (cup_moments, free_structure_report, markov_residual,
                     phi_frame, trace_k)


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


def cmd_graph(alg, args, report) -> bool:
    g, pf = alg.g, alg.pf
    report.add("delta", pf.delta)
    report.add("pf_residual", pf.residual(), 0.0)
    for v, name in enumerate(g.vertex_names):
        report.add(f"mu[{name}]", pf.mu[v])
    for e in g.oriented_edges:
        report.add(f"sigma[{g.oriented_name(e)}]", pf.sigma(e))
    return not report.ok(args.tol)


def cmd_moments(alg, args, report) -> bool:
    report.parameters.update(n=args.n, fock_n=args.fock_n)
    delta = alg.pf.delta
    rec = free_poisson_moments(delta, args.n, "recursion")
    closed = free_poisson_moments(delta, args.n, "closed_form")
    nara = free_poisson_moments(delta, args.n, "narayana")

    v0 = alg.g.vertices_of_parity(EVEN)[0]
    loop_vals = cup_moments(alg, v0, args.n)
    fock_vals = []
    if args.fock_n > 0:
        space = FockSpace(alg, args.fock_n)
        fock_vals = space.vacuum_moments(space.cup_operator(), v0, args.fock_n)

    for n in range(args.n + 1):
        report.add(f"m[{n}] recursion", rec[n])
        report.add(f"m[{n}] closed_form", closed[n], rec[n])
        report.add(f"m[{n}] narayana", nara[n], rec[n])
        report.add(f"m[{n}] loop_trace", loop_vals[n], rec[n])
        if n < len(fock_vals):
            report.add(f"m[{n}] fock_vacuum", fock_vals[n], rec[n])
    ok = report.ok(args.tol * max(abs(x) for x in rec))
    report.add("all_agree", float(ok), 1.0)
    return not ok


def cmd_trace(alg, args, report) -> bool:
    report.parameters["k"] = args.k
    if args.loop is not None:
        lp = loop_from_tokens(alg.g, args.loop, args.vertex)
        x = alg.single_loop(lp)
    else:
        with open(args.element, "r", encoding="utf-8") as fh:
            x = alg.from_json_dict(json.load(fh))
    values = trace_k(alg, args.k, x)
    for v in np.flatnonzero(values):
        report.add(f"trace[{alg.g.vertex_names[v]}]", values[v])
    return False


def cmd_tangle(alg, args, report) -> bool:
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
    report.parameters.update(program=prog.name, out_level=result.level)
    base, words = result.base.tolist(), result.words.tolist()
    coeff = result.coeff.tolist()
    for i in loop_order(result).tolist():
        report.add(loop_label(alg.g, base[i], words[i]), coeff[i])
    return False


def cmd_tower(alg, args, report) -> bool:
    k = args.k
    report.parameters["k"] = k
    report.seed = args.seed
    rng = np.random.default_rng(args.seed)
    y = random_element(alg, k - 1, EVEN if k % 2 else ODD, rng)
    report.add("markov_residual", markov_residual(alg, k, y), 0.0)
    e_pl = alg.jones_projection(k)
    idem = alg.usual_mult(e_pl, e_pl) - e_pl
    report.add("jones_idempotent_residual", idem.norm_inf(), 0.0)
    roundtrip = alg.expect_step(alg.include_step(y)) - y
    report.add("expect_include_residual", roundtrip.norm_inf(), 0.0)
    phi_dev = abs(phi_frame(alg, alg.include_step(y), k)
                  - phi_frame(alg, y, k - 1))
    report.add("inclusion_trace_residual", phi_dev, 0.0)
    return not report.ok(args.tol)


def cmd_fock(alg, args, report) -> bool:
    report.parameters.update(max_len=args.max_len, depth=args.depth)
    rep = oracle_check_trace(alg, max_len=args.max_len)
    report.add("vacuum_vs_pairing_max_dev", rep["max_deviation"], 0.0)
    diag = commutator_diagnostics(alg, depth=args.depth)
    for row in diag["xi"]:
        report.add(f"xi_norm_sq[k={row['k']},{row['vertex']}]",
                   row["norm_sq"], row["expected"])
    report.add("commutator_interior_fro", diag["commutator_interior_fro"])
    report.add("cup_minus_nested_fro", diag["cup_minus_nested_fro"])
    report.add("pk_commutation_max", diag["pk_commutation_max"], 0.0)
    return not report.ok(args.tol)


def cmd_mc(alg, args, report) -> bool:
    lp = loop_from_tokens(alg.g, args.loop, args.vertex)
    if args.grid and min(args.N, args.M) < 4:
        raise ValueError("--grid sweeps down to (N/4, M/4): it needs "
                         "--N and --M of at least 4")
    report.parameters.update(loop=args.loop, N=args.N, M=args.M,
                             samples=args.samples, probes=args.probes)
    report.seed = args.seed
    grid = ([(args.N // 4, args.M // 4), (args.N // 2, args.M // 2)]
            if args.grid else [])
    rows = convergence_sweep(alg, [lp], grid + [(args.N, args.M)],
                             args.samples, args.seed, args.probes,
                             args.threads)[lp]
    if args.grid:
        for row in rows:
            report.add(f"estimate[N={row['N']},M={row['M']}]",
                       row["estimate"], row["target"])
            report.add(f"stderr[N={row['N']},M={row['M']}]", row["stderr"])
        ok = trend_non_increasing(rows)
        report.add("trend_non_increasing", 1.0 if ok else 0.0, 1.0)
        return not ok
    (row,) = rows
    report.add("estimate", row["estimate"], row["target"])
    report.add("stderr", row["stderr"])
    bound = max(3.0 * row["stderr"], 0.05 * abs(row["target"]) + 0.02)
    report.add("tolerance", bound)
    return not report.ok(bound)


def cmd_freedim(alg, args, report) -> bool:
    report.parameters["n"] = args.n
    for row in free_structure_report(alg, args.n)["rows"]:
        report.add(f"dim_new[{row['degree']}]", row["dim_new_generators"],
                   row["expected"])
        report.add(f"tl_dim[{row['degree']}]", row["tl_dim"], row["catalan"])
    return not report.ok(0)


def cmd_selftest(alg, args, report) -> bool:
    report.parameters["tol"] = args.tol
    report.seed = args.seed
    for name, deviation in run_selftest(args.seed):
        report.add(name, float(deviation), 0.0)
    ok = report.ok(args.tol)
    report.add("all_pass", float(ok), 1.0)
    return not ok


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="graphloops",
        description="Loop algebras, diagram traces and oracle models on "
                    "finite bipartite graphs.")
    sub = top.add_subparsers(dest="command", required=True)

    def command(fn, summary, graph=True):
        """The subparser of `fn` (cmd_<name>) with the flags all share."""
        p = sub.add_parser(fn.__name__[len("cmd_"):], help=summary)
        if graph:
            p.add_argument("--graph", default="a3",
                           help="builtin name (a2, a3, s4, aN) or JSON path")
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--tol", type=tolerance, default=1e-9)
        p.add_argument("--threads", type=POSITIVE, default=1)
        p.set_defaults(fn=fn)
        return p

    command(cmd_graph, "delta, mu and sigma tables")

    p = command(cmd_moments, "four-way one-cup moment table")
    p.add_argument("--n", type=NON_NEGATIVE, default=8)
    p.add_argument("--fock-n", type=NON_NEGATIVE, default=6)

    p = command(cmd_trace, "grade-k trace of an element or loop")
    p.add_argument("--k", type=NON_NEGATIVE, default=0)
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--loop", default=None,
                      help="loop tokens, e.g. \"e1 e1'\"")
    what.add_argument("--element", default=None, help="element JSON file")
    p.add_argument("--vertex", default=None, help="base vertex for level-0")

    p = command(cmd_tangle, "evaluate a .tgl program")
    p.add_argument("--program", required=True)
    p.add_argument("--inputs", default=None, help="JSON {name: element}")

    p = command(cmd_tower, "tower map diagnostics at grade k")
    p.add_argument("--k", type=_int_at_least(2), default=2)
    p.add_argument("--seed", type=int, default=42)

    p = command(cmd_fock, "operator-model oracle reports")
    p.add_argument("--max-len", type=NON_NEGATIVE, default=6)
    p.add_argument("--depth", type=NON_NEGATIVE, default=8)

    p = command(cmd_mc, "random block-matrix trace estimate")
    p.add_argument("--loop", required=True)
    p.add_argument("--vertex", default=None)
    p.add_argument("--N", type=POSITIVE, default=40)
    p.add_argument("--M", type=POSITIVE, default=40)
    p.add_argument("--samples", type=_int_at_least(2), default=200)
    p.add_argument("--probes", type=POSITIVE, default=8)
    p.add_argument("--grid", action="store_true",
                   help="sweep (N/4,M/4) -> (N/2,M/2) -> (N,M)")
    p.add_argument("--seed", type=int, default=42)

    p = command(cmd_freedim, "free-structure dimension table")
    p.add_argument("--n", type=POSITIVE, default=4)

    p = command(cmd_selftest, "run the cross-module invariant suite",
                graph=False)
    p.add_argument("--seed", type=int, default=42)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    graph = getattr(args, "graph", None)   # selftest has none: report a2
    try:
        pf = load_pf("a2" if graph is None else graph, args.tol)
        report = RunReport(args.command, graph_digest(pf.graph),
                           {} if graph is None else {"graph": graph})
        failed = args.fn(LoopAlgebra(pf.graph, pf), args, report)
        report.wall_time_s = time.perf_counter() - started
        payload = emit_report(report, args.format)
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
