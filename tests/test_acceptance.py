"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import itertools
import time

import numpy as np
import pytest

from graphloops import EVEN, ODD
from graphloops.fock import (FockSpace, commutator_diagnostics,
                             homomorphism_residual, oracle_check_trace)
from graphloops.ncpairings import free_poisson_moments, noncrossing_pairings
from graphloops.randmat import convergence_sweep, trend_non_increasing
from graphloops.elements import loop_from_tokens
from graphloops.tangles import (diagram_program, eval_tangle, random_element,
                                trace0_via_tangles, wedge_program,
                                TangleProgram, Slot, Layer)
from graphloops.traces import (free_structure_report, gram_matrix, phi_vertex,
                               trace_k)


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {status}: {detail}")
    assert ok, detail


def test_criterion_1_moment_four_way_agreement(test_algebras):
    """m_n of the one-cup element by recursion, generating function, Narayana
    sums and the loop-algebra trace agree to 1e-9 (n <= 8), plus the Fock
    vacuum moments (n <= 6); wall time under 30 s."""
    started = time.perf_counter()
    worst = 0.0
    for name, alg in test_algebras.items():
        delta = alg.pf.delta
        rec = free_poisson_moments(delta, 8, "recursion")
        clo = free_poisson_moments(delta, 8, "closed_form")
        nar = free_poisson_moments(delta, 8, "narayana")
        cup = alg.cup()
        loop_vals = {v: [1.0] for v in alg.g.vertices_of_parity(EVEN)}
        for v in alg.g.vertices_of_parity(EVEN):
            x = alg.vertex_element(v)
            for _ in range(8):
                x = alg.wedge(0, x, cup)
                loop_vals[v].append(trace_k(alg, 0, x)[v])
        space = FockSpace(alg, 12)
        cup_op = space.cup_operator()
        fock_vals = {}
        for v in alg.g.vertices_of_parity(EVEN):
            vec = np.zeros(len(space.basis))
            vec[v] = 1.0
            vals = [1.0]
            for _ in range(6):
                vec = cup_op @ vec
                vals.append(float(vec[v]))
            fock_vals[v] = vals
        for n in range(9):
            scale = max(1.0, abs(rec[n]))
            worst = max(worst, abs(clo[n] - rec[n]) / scale,
                        abs(nar[n] - rec[n]) / scale)
            for v in alg.g.vertices_of_parity(EVEN):
                worst = max(worst, abs(loop_vals[v][n] - rec[n]) / scale)
                if n <= 6:
                    worst = max(worst, abs(fock_vals[v][n] - rec[n]) / scale)
    elapsed = time.perf_counter() - started
    _report(1, worst <= 1e-9 and elapsed < 30.0,
            f"four-way moments rel dev {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_vertex_functional_two_routes(test_algebras):
    """Pairing formula == recursion on ALL loops of length <= 8."""
    worst, count = 0.0, 0
    for alg in test_algebras.values():
        for level in range(0, 5):
            for shading in (EVEN, ODD):
                for lp in alg.basis(level, shading):
                    x = alg.single_loop(lp)
                    a = phi_vertex(alg, x, lp.base, "pairing")
                    b = phi_vertex(alg, x, lp.base, "recursive")
                    worst = max(worst, abs(a - b))
                    count += 1
    _report(2, worst <= 1e-10,
            f"{count} loops, pairing vs recursion dev {worst:.2e}")


def test_criterion_3_fock_vacuum_realizes_trace(test_algebras):
    """Vacuum expectation of the loop word operator equals the grade-0
    trace for every loop of length <= 6."""
    worst, count = 0.0, 0
    for alg in test_algebras.values():
        rep = oracle_check_trace(alg, max_len=6)
        worst = max(worst, rep["max_deviation"])
        count += rep["loops_checked"]
    _report(3, worst <= 1e-9, f"{count} loops, max deviation {worst:.2e}")


def test_criterion_4_operator_homomorphism(test_algebras):
    """c_t(a) c_t(b) = c_t(a wedge_t b) on the truncation interior:
    exhaustive loop pairs of length <= 6 on the two path graphs, exhaustive
    length <= 4 plus seeded length-6 samples on the star (runtime)."""
    worst, count = 0.0, 0
    for name, alg in test_algebras.items():
        exhaustive_max = 3 if name != "s4" else 2
        space = FockSpace(alg, 8 if name != "s4" else 8)
        for t in (0, 1, 2):
            shading = EVEN if t % 2 == 0 else ODD
            basis = [lp for lvl in range(max(t, 1), exhaustive_max + 1)
                     for lp in alg.basis(lvl, shading)]
            ops = {lp: space.c_loop(lp, t) for lp in basis}
            for la, lb in itertools.product(basis, repeat=2):
                prod = alg.wedge(t, alg.single_loop(la), alg.single_loop(lb))
                rhs = space.c_element(prod, t)
                word = len(la.edges) + len(lb.edges)
                cols = space.basis.interior_indices(space.basis.depth - word)
                diff = (ops[la] @ ops[lb] - rhs).tocsc()[:, cols]
                worst = max(worst, abs(diff).max() if diff.nnz else 0.0)
                count += 1
    # star graph at full length 6, seeded sample
    s4 = test_algebras["s4"]
    rng = np.random.default_rng(1234)
    space = FockSpace(s4, 12)
    for t in (0, 1, 2):
        shading = EVEN if t % 2 == 0 else ODD
        basis = s4.basis(3, shading)
        for _ in range(12):
            la, lb = (basis[rng.integers(len(basis))] for _ in range(2))
            worst = max(worst, homomorphism_residual(
                s4, t, s4.single_loop(la), s4.single_loop(lb), space))
            count += 1
    _report(4, worst <= 1e-9, f"{count} pairs, residual {worst:.2e}")


def test_criterion_5_temperley_lieb_jones_suite(test_algebras):
    """TL generator relations (k <= 4), normalized projection idempotent and
    self-adjoint, the sandwich identity and the Markov property."""
    worst = 0.0
    rng = np.random.default_rng(55)
    for alg in test_algebras.values():
        delta = alg.pf.delta
        for k in (2, 3, 4):
            es = {i: alg.tl_generator(i, k) for i in range(1, k)}
            for i in range(1, k):
                worst = max(worst, (alg.usual_mult(es[i], es[i])
                                    - es[i].scale(delta)).norm_inf())
                for j in range(1, k):
                    if abs(i - j) == 1:
                        worst = max(worst, (alg.usual_mult(
                            alg.usual_mult(es[i], es[j]), es[i])
                            - es[i]).norm_inf())
                    elif abs(i - j) >= 2:
                        worst = max(worst, (alg.usual_mult(es[i], es[j])
                                            - alg.usual_mult(es[j], es[i])
                                            ).norm_inf())
            e_k = alg.jones_projection(k)
            worst = max(worst,
                        (alg.usual_mult(e_k, e_k) - e_k).norm_inf(),
                        (alg.involution(e_k) - e_k).norm_inf())
        for k in (2, 3):
            shading = EVEN if k % 2 == 0 else ODD
            e_k = alg.jones_projection(k, tower=True)
            worst = max(worst, (alg.wedge(k, e_k, e_k) - e_k).norm_inf(),
                        (alg.involution(e_k) - e_k).norm_inf())
            for lvl in (k - 1, k):
                y = random_element(alg, lvl, -shading, rng)
                x = alg.include_step(y)
                sandwich = (alg.wedge(k, alg.wedge(k, e_k, x), e_k)
                            - alg.wedge(k, alg.include_step(alg.include_step(
                                alg.expect_step(y))), e_k))
                worst = max(worst, sandwich.norm_inf())
                markov = (delta * trace_k(alg, k, alg.wedge(k, x, e_k))
                          - trace_k(alg, k - 1, y))
                worst = max(worst, np.abs(markov).max())
    _report(5, worst <= 1e-9, f"TL/Jones suite residual {worst:.2e}")


def test_criterion_6_trace_and_positivity(test_algebras):
    """Traciality of the graded trace and positive (faithful for delta > 1)
    per-vertex Gram matrices at levels <= 3."""
    worst = 0.0
    rng = np.random.default_rng(66)
    min_eigs = []
    for alg in test_algebras.values():
        for k in (1, 2, 3):
            shading = EVEN if k % 2 == 0 else ODD
            for _ in range(4):
                a = random_element(alg, k, shading, rng)
                b = random_element(alg, k + 1, shading, rng)
                d = (trace_k(alg, k, alg.wedge(k, a, b))
                     - trace_k(alg, k, alg.wedge(k, b, a)))
                worst = max(worst, np.abs(d).max())
        faithful = alg.pf.delta > 1 + 1e-12
        for k in (0, 1, 2, 3):
            for shading in (EVEN, ODD):
                for v in alg.g.vertices_of_parity(shading):
                    basis, mat = gram_matrix(alg, v, k)
                    if not basis:
                        continue
                    eig = float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])
                    min_eigs.append(eig)
                    ok = eig >= -1e-8 and (not faithful or eig > 1e-10)
                    if not ok:
                        worst = max(worst, 1.0)
    _report(6, worst <= 1e-9,
            f"trace property dev {worst:.2e}, min Gram eig {min(min_eigs):.2e}")


def test_criterion_7_tangle_engine_coherence(test_algebras):
    """Circle removal = delta, zigzag identities, and the tangle evaluator
    agreeing with all direct loop formulas; rotation cyclic commutativity."""
    worst = 0.0
    rng = np.random.default_rng(77)
    for alg in test_algebras.values():
        delta = alg.pf.delta
        for lvl in (1, 2, 3):
            x = random_element(alg, lvl, EVEN, rng)
            circle = TangleProgram(
                "c", (Slot("a", lvl, EVEN),), lvl, EVEN,
                (Layer("load", "a"), Layer("cup", 1, EVEN), Layer("cap", 1)))
            worst = max(worst, (eval_tangle(alg, circle, {"a": x})
                                - x.scale(delta)).norm_inf())
            for cup_pos, cap_pos in ((2, 1), (1, 2)):
                zig = TangleProgram(
                    "z", (Slot("a", lvl, EVEN),), lvl, EVEN,
                    (Layer("load", "a"), Layer("cup", cup_pos, EVEN),
                     Layer("cap", cap_pos)))
                worst = max(worst, (eval_tangle(alg, zig, {"a": x})
                                    - x).norm_inf())
        # exhaustive oracle agreement on small single-loop bases
        for t, lvl in ((0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
            shading = EVEN if t % 2 == 0 else ODD
            basis = alg.basis(lvl, shading)
            prog = wedge_program(t, lvl, lvl, shading)
            for la, lb in itertools.product(basis[:12], repeat=2):
                a, b = alg.single_loop(la), alg.single_loop(lb)
                got = eval_tangle(alg, prog, {"a": a, "b": b})
                worst = max(worst, (got - alg.wedge(t, a, b)).norm_inf())
        for lvl in (1, 2):
            x = random_element(alg, lvl, EVEN, rng)
            got = trace0_via_tangles(alg, x)
            worst = max(worst, np.abs(got - trace_k(alg, 0, x)).max())
        for two_k in (2, 4, 6):
            for pairing in noncrossing_pairings(two_k):
                got = eval_tangle(alg, diagram_program(pairing, EVEN), {})
                worst = max(worst, (got - alg.tl_element(pairing)).norm_inf())
        a = random_element(alg, 1, EVEN, rng)
        b = random_element(alg, 2, EVEN, rng)
        lhs = alg.rotate(alg.wedge(0, a, b), times=a.level)
        worst = max(worst, (lhs - alg.wedge(0, b, a)).norm_inf())
    _report(7, worst <= 1e-9, f"tangle coherence residual {worst:.2e}")


def test_criterion_8_random_matrix_convergence(a2, a3):
    """Block model estimates at N = M = 40 with 200 samples hit
    mu(v) phi_v(w) within max(3 stderr, 5% target + 0.02); errors shrink
    along (10,10) -> (20,20) -> (40,40); under 60 s single-threaded."""
    started = time.perf_counter()
    grid = [(10, 10), (20, 20), (40, 40)]
    ok = True
    details = []
    for alg, loop_texts in ((a2, ["e e'", "e e' e e'"]),
                            (a3, ["e1 e1'", "e1 e1' e2 e2'"])):
        loops = [loop_from_tokens(alg.g, t) for t in loop_texts]
        sweep = convergence_sweep(alg, loops, grid, samples=200, seed=42,
                                  probes=3)
        for lp, rows in sweep.items():
            last = rows[-1]
            bound = max(3 * last["stderr"], 0.05 * abs(last["target"]) + 0.02)
            ok = ok and last["abs_err"] <= bound and trend_non_increasing(rows)
            details.append(f"err={last['abs_err']:.4f}<={bound:.4f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    _report(8, ok, f"{'; '.join(details)}; {elapsed:.1f} s")


def test_criterion_9_degenerate_graph_diagnostics(a2, a3, s4):
    """One-cup / nested-cup commutator vanishes exactly on the two-vertex
    path and exceeds 0.1 on the larger graphs; tensor-power norms are
    delta^k."""
    rep2 = commutator_diagnostics(a2, depth=8)
    rep3 = commutator_diagnostics(a3, depth=8)
    rep4 = commutator_diagnostics(s4, depth=8)
    worst_xi = max(r["abs_err"] for rep in (rep2, rep3, rep4)
                   for r in rep["xi"])
    ok = (rep2["commutator_interior_fro"] <= 1e-10
          and rep3["commutator_interior_fro"] > 0.1
          and rep4["commutator_interior_fro"] > 0.1
          and worst_xi <= 1e-9)
    _report(9, ok,
            f"commutators (a2, a3, s4) = ({rep2['commutator_interior_fro']:.2e}, "
            f"{rep3['commutator_interior_fro']:.3f}, "
            f"{rep4['commutator_interior_fro']:.3f}); xi dev {worst_xi:.2e}")


@pytest.mark.xfail(strict=True, reason=(
    "criterion 9 also asserts the one-cup and nested-cup operators are EQUAL "
    "on the two-vertex path; they commute there because the nested element "
    "is the square of the one-cup element, but a positive operator never "
    "equals its own square unless it is a projection, and the one-cup "
    "element has non-idempotent spectrum.  See the README, 'Install and test'."))
def test_criterion_9_cup_equality_clause(a2):
    rep = commutator_diagnostics(a2, depth=8)
    assert rep["cup_minus_nested_fro"] <= 1e-9


def test_criterion_10_free_structure_dimensions(s4):
    """New-generator dimensions of the TL graded algebra on the star graph
    match the series coefficients 1, 1, 2, 5 at rank tolerance 1e-8."""
    report = free_structure_report(s4, nmax=4, rank_tol=1e-8)
    dims = [row["dim_new_generators"] for row in report["rows"]]
    _report(10, report["pass"] and dims == [1, 1, 2, 5],
            f"dims {dims} vs [1, 1, 2, 5]")
