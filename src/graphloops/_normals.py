"""Deterministic float32 Gaussian sampling for the dense block engine.

Counter-based: block `counter` of stream `seed` comes from its own SFC64
generator keyed on (seed, counter), so dense samples are reproducible and
independent of scheduling.  Only `randmat.SampledModel` draws from here; the
matrix-free engine, which the acceptance sweep uses, draws its few values
from numpy's default generator.
"""

from __future__ import annotations

import numpy as np


def normals(seed: int, counter: int, n: int,
            out: np.ndarray | None = None) -> np.ndarray:
    """n float32 standard normals, a pure function of (seed, counter, n).

    Passing a reusable `out` buffer avoids page-fault overhead in tight
    sampling loops.
    """
    rng = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(entropy=seed, spawn_key=(counter,))))
    if out is None:
        return rng.standard_normal(n, dtype=np.float32)
    rng.standard_normal(out=out, dtype=np.float32)
    return out
