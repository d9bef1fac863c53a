"""Complex Gaussian draws for the lazy block sampler.

Every fresh Gaussian row or column the sampler conditions into a block comes
through `normals`, each sample's from its own stream for the loop it is
evaluating, so one sample of one loop is a pure function of that stream.
"""

from __future__ import annotations

import math

import numpy as np


def normals(rngs, rows: int, cols: int, var: float) -> np.ndarray:
    """A len(rngs) x rows x cols complex128 array of iid CN(0, var) values,
    sample s drawn from rngs[s]."""
    z = np.array([rng.standard_normal((rows, 2 * cols)) for rng in rngs])
    z = z.view(np.complex128)
    return np.multiply(z, math.sqrt(var / 2.0), out=z)
