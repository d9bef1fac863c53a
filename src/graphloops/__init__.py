"""Graded loop algebras, diagram traces and oracle models on finite
bipartite graphs."""

from .graphs import (BipartiteGraph, GraphError, PFData, builtin_graph,
                     load_graph, load_pf, perron_frobenius, pf_from_mu,
                     EVEN, ODD)
from .elements import Element, Loop, LoopAlgebra, loop_from_tokens, loop_tokens
from .ncpairings import (catalan, free_poisson_moments, narayana,
                         noncrossing_pairings)
from .traces import (gram_psd_check, inner_product, phi_vertex, trace_k,
                     usual_trace, free_structure_report)
from .tangles import TangleProgram, eval_tangle, parse_tangle, equivalence_check
from .fock import FockSpace, commutator_diagnostics, oracle_check_trace
from .randmat import BlockModelSpec, SampledModel, estimate_trace, convergence_sweep

__all__ = [
    "BipartiteGraph", "GraphError", "PFData", "builtin_graph", "load_graph",
    "load_pf", "perron_frobenius", "pf_from_mu", "EVEN", "ODD",
    "Element", "Loop", "LoopAlgebra", "loop_from_tokens", "loop_tokens",
    "catalan", "free_poisson_moments", "narayana", "noncrossing_pairings",
    "gram_psd_check", "inner_product", "phi_vertex", "trace_k",
    "usual_trace", "free_structure_report",
    "TangleProgram", "eval_tangle", "parse_tangle", "equivalence_check",
    "FockSpace", "commutator_diagnostics", "oracle_check_trace",
    "BlockModelSpec", "SampledModel", "estimate_trace", "convergence_sweep",
]

__version__ = "0.1.0"
