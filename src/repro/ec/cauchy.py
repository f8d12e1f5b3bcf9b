"""Cauchy Reed-Solomon coding (Bloemer et al., the paper's reference [3]).

A systematic MDS code whose parity rows come from a Cauchy matrix
``C[i, j] = 1 / (x_i + y_j)`` over GF(2^8) with disjoint element sets
``x = {k, ..., n-1}`` and ``y = {0, ..., k-1}``.  The stacked generator
``[I; C]`` is MDS: every square submatrix of a Cauchy matrix is
invertible, so any ``k`` of the ``n`` stripe blocks recover the data --
the same contract as the Vandermonde-based construction, reached without
the column-reduction step.
"""

from __future__ import annotations

import numpy as np

from repro.ec import matrix as gfm
from repro.ec.reed_solomon import ReedSolomon


def cauchy_generator_matrix(n: int, k: int) -> np.ndarray:
    """The ``n x k`` systematic Cauchy generator (identity over Cauchy)."""
    if not 0 < k <= n:
        raise ValueError(f"require 0 < k <= n, got n={n} k={k}")
    if n > 256:
        raise ValueError(f"n={n} exceeds the GF(2^8) field size")
    if n == k:
        return gfm.identity(k)
    parity_rows = gfm.cauchy(list(range(k, n)), list(range(k)))
    return np.vstack([gfm.identity(k), parity_rows])


class CauchyReedSolomon(ReedSolomon):
    """Drop-in alternative coder using the Cauchy construction.

    Shares every behaviour with :class:`~repro.ec.reed_solomon.ReedSolomon`
    (encode, decode-from-any-k, single-block reconstruction, decode-plan
    caching); only the generator matrix differs, which changes the parity
    bytes but not the code's guarantees.
    """

    def _build_generator(self) -> np.ndarray:
        return cauchy_generator_matrix(self.n, self.k)
