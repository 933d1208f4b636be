"""Random tensors and witnesses for experiments and tests.

Everything is deterministic given the ``numpy.random.Generator`` passed in.
"""

from __future__ import annotations

import numpy as np

from .core import Tensor
from .similarity import (
    DiagonalScaling,
    Permutation,
    StructuredWitness,
    Witness,
    compose_witness,
)


def random_tensor(
    rng: np.random.Generator,
    order: int,
    dim: int,
    density: float = 1.0,
) -> Tensor:
    """Dense tensor whose entries are nonzero with probability ``density``.

    Nonzero magnitudes are uniform in ``(0.3, 2.0)`` (bounded away from
    zero so that cleaning thresholds never clip an honest entry), with
    uniform phases.
    """
    shape = (dim,) * order
    mags = rng.uniform(0.3, 2.0, size=shape)
    values = mags * np.exp(2j * np.pi * rng.uniform(size=shape))
    mask = rng.uniform(size=shape) < density
    values[~mask] = 0.0
    return Tensor(values)


def random_permutation(rng: np.random.Generator, n: int) -> Permutation:
    return Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))


def random_diagonal(rng: np.random.Generator, n: int) -> DiagonalScaling:
    """Diagonal entries with magnitudes log-uniform in ``(0.1, 10.0)`` and
    uniform phases."""
    mags = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n))
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    return DiagonalScaling(mags * phases)


def random_structured_witness(rng: np.random.Generator, m: int, n: int) -> StructuredWitness:
    return StructuredWitness(random_permutation(rng, n), random_diagonal(rng, n), m)


def random_unit_preserving_witness(
    rng: np.random.Generator,
    m: int,
    n: int,
) -> Witness:
    """``compose_witness`` of a random ``(sigma, D)``, magnitudes in ``(0.1, 10.0)``."""
    return compose_witness(random_structured_witness(rng, m, n))
