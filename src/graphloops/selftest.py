"""Cross-module invariant suite run by the `selftest` CLI subcommand.

Each check yields (name, worst_deviation) of an identity whose exact value
is 0; the `selftest` subcommand passes when every deviation is within
--tol.  The same identities appear with wider sweeps in the pytest suite;
this is the fast, embeddable version.
"""

from __future__ import annotations

import numpy as np

from .graphs import EVEN, ODD, builtin_graph, perron_frobenius
from .elements import LoopAlgebra
from .fock import FockSpace, homomorphism_residual, oracle_check_trace
from .ncpairings import free_poisson_moments, noncrossing_pairings
from .tangles import (diagram_program, eval_tangle, parse_tangle,
                      random_element, rotation_program, trace0_via_tangles,
                      wedge_program)
from .traces import (_phi_word_pairing, _phi_words, cup_moments,
                     gram_psd_check, markov_residual, trace_k)


def _algebras():
    for name in ("a2", "a3", "s4"):
        g = builtin_graph(name)
        yield name, LoopAlgebra(g, perron_frobenius(g))


def run_selftest(seed: int = 11):
    rng = np.random.default_rng(seed)
    for name, alg in _algebras():
        delta = alg.pf.delta

        # wedge associativity and anti-homomorphism on random elements
        for t in (0, 1, 2):
            shading = EVEN if t % 2 == 0 else ODD
            a = random_element(alg, t + 1, shading, rng)
            b = random_element(alg, t + 1, shading, rng)
            c = random_element(alg, t + 1, shading, rng)
            lhs = alg.wedge(t, alg.wedge(t, a, b), c)
            rhs = alg.wedge(t, a, alg.wedge(t, b, c))
            yield f"{name}: wedge_{t} associativity", (lhs - rhs).norm_inf()
            anti = (alg.involution(alg.wedge(t, a, b))
                    - alg.wedge(t, alg.involution(b), alg.involution(a)))
            yield f"{name}: wedge_{t} anti-homomorphism", anti.norm_inf()

        # cyclic commutativity via the rotation primitive
        a = random_element(alg, 1, EVEN, rng)
        b = random_element(alg, 2, EVEN, rng)
        lhs = alg.rotate(alg.wedge(0, a, b), times=a.level)
        yield (f"{name}: rotation cyclic commutativity",
               (lhs - alg.wedge(0, b, a)).norm_inf())

        # unit laws
        for k in (1, 2):
            shading = EVEN if k % 2 == 0 else ODD
            u = alg.unit(k, shading)
            x = random_element(alg, k + 1, shading, rng)
            yield (f"{name}: unit law grade {k}",
                   max((alg.wedge(k, u, x) - x).norm_inf(),
                       (alg.wedge(k, x, u) - x).norm_inf()))

        # vertex functional: pairing vs recursion, loops up to level 3
        worst = 0.0
        for level in range(4):
            for shading in (EVEN, ODD):
                words = alg.loop_words(level, shading)[1]
                recursive = _phi_words(words, alg._sigma[1])
                for w, rec in zip(words.tolist(), recursive.tolist()):
                    worst = max(worst, abs(_phi_word_pairing(alg, w) - rec))
        yield f"{name}: pairing vs recursive functional", worst

        # trace property and Markov
        for k in (2, 3):
            shading = EVEN if k % 2 == 0 else ODD
            a = random_element(alg, k, shading, rng)
            b = random_element(alg, k, shading, rng)
            d = (trace_k(alg, k, alg.wedge(k, a, b))
                 - trace_k(alg, k, alg.wedge(k, b, a)))
            yield f"{name}: trace property grade {k}", np.abs(d).max()
            y = random_element(alg, k - 1, -shading, rng)
            yield f"{name}: Markov property grade {k}", markov_residual(alg, k, y)
            e_k = alg.jones_projection(k, tower=True)
            ee = alg.wedge(k, e_k, e_k) - e_k
            yield (f"{name}: Jones idempotent grade {k}",
                   max(ee.norm_inf(), (alg.involution(e_k) - e_k).norm_inf()))

        # moments against the loop algebra
        got = cup_moments(alg, alg.g.vertices_of_parity(EVEN)[0], 4)
        yield (f"{name}: one-cup moments vs free Poisson",
               np.abs(np.subtract(got, free_poisson_moments(delta, 4))).max())

        # tangle engine: circle removal, zigzags, diagram oracle
        x = random_element(alg, 2, EVEN, rng)
        prog = parse_tangle("tangle circle(a: 2+) -> 2+ { load a; cup 1+; cap 1; }")
        yield (f"{name}: cap after cup = delta",
               (eval_tangle(alg, prog, {"a": x}) - x.scale(delta)).norm_inf())
        prog = parse_tangle("tangle zigzag(a: 2+) -> 2+ { load a; cup 2+; cap 1; }")
        yield (f"{name}: zigzag identity",
               (eval_tangle(alg, prog, {"a": x}) - x).norm_inf())
        worst = 0.0
        for pairing in noncrossing_pairings(4):
            got = eval_tangle(alg, diagram_program(pairing, EVEN), {})
            worst = max(worst, (got - alg.tl_element(pairing)).norm_inf())
        yield f"{name}: diagram programs vs loop formula", worst
        a = random_element(alg, 1, EVEN, rng)
        b = random_element(alg, 1, EVEN, rng)
        got = eval_tangle(alg, wedge_program(1, 1, 1, EVEN), {"a": a, "b": b})
        yield (f"{name}: tangle wedge_1 vs direct",
               (got - alg.wedge(1, a, b)).norm_inf())
        got = trace0_via_tangles(alg, b)
        yield (f"{name}: tangle trace vs direct",
               np.abs(got - trace_k(alg, 0, b)).max())
        got = eval_tangle(alg, rotation_program(1, EVEN), {"a": a})
        yield (f"{name}: rotation primitive vs loop formula",
               (got - alg.rotate(a)).norm_inf())

        # positivity
        rep = gram_psd_check(alg, 2)
        yield f"{name}: Gram positivity level 2", 0.0 if rep["pass"] else 1.0

        # Fock oracle
        rep = oracle_check_trace(alg, max_len=4)
        yield f"{name}: Fock vacuum trace oracle", rep["max_deviation"]
        space = FockSpace(alg, 8)
        for t in (0, 1):
            shading = EVEN if t % 2 == 0 else ODD
            a = random_element(alg, t + 1, shading, rng)
            b = random_element(alg, t + 1, shading, rng)
            yield (f"{name}: operator homomorphism grade {t}",
                   homomorphism_residual(alg, t, a, b, space))
