"""Complex Gaussian draws for the lazy block sampler.

Every fresh Gaussian row or column the sampler conditions into a block comes
through `normals`, from the generator of the loop being evaluated, so one
sample of one loop is a pure function of that loop's stream.
"""

from __future__ import annotations

import math

import numpy as np


def normals(rng: np.random.Generator, rows: int, cols: int,
            var: float) -> np.ndarray:
    """A rows x cols complex128 array of iid CN(0, var) values from `rng`."""
    z = rng.standard_normal((rows, 2 * cols)).view(np.complex128)
    return np.multiply(z, math.sqrt(var / 2.0), out=z)
