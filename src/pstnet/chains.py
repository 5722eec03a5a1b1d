"""Engineered-coupling chains: hypercube column projection, arbitrary-length
perfect transfer, and the uniform-chain impossibility scan.

The couplings J_i = sqrt(i (n_c - i)) arise by projecting a hypercube onto
its distance columns; the projected tridiagonal matrix has the integer
spectrum -(n_c-1), -(n_c-3), ..., (n_c-1) and transfers end to end at
t = pi/2 for every length.  Uniform chains stop transferring perfectly at
four sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spectral import (Spectrum, TransferReport, max_fidelity_scan_spectrum,
                       transfer_amplitude)
from .graphs import make_graph, path_graph

COLUMN_PROJECT_MAX_DIM = 16


@dataclass(frozen=True)
class ChainSpec:
    """Mirror-symmetric chain: couplings J_1..J_{n-1}."""

    couplings: tuple[float, ...]

    def __post_init__(self):
        if self.length < 2:
            raise ValueError("chain needs at least 2 sites")
        js = self.couplings
        for i in range(len(js)):
            if js[i] <= 0:
                raise ValueError("couplings must be positive")
            if abs(js[i] - js[len(js) - 1 - i]) > 1e-9 * max(1.0, js[i]):
                raise ValueError("couplings must be mirror symmetric")

    @property
    def length(self) -> int:
        return len(self.couplings) + 1


def chain_matrix(spec: ChainSpec) -> np.ndarray:
    n = spec.length
    m = np.zeros((n, n))
    for i, j in enumerate(spec.couplings):
        m[i, i + 1] = m[i + 1, i] = j
    return m


def pst_chain(n_c: int) -> ChainSpec:
    """Perfect-transfer chain of length n_c: J_i = sqrt(i (n_c - i))."""
    if n_c < 2:
        raise ValueError("chain needs at least 2 sites")
    return ChainSpec(tuple(math.sqrt(i * (n_c - i)) for i in range(1, n_c)))


def _column_vectors(k: int) -> list[np.ndarray]:
    """Normalized uniform superpositions over the Hamming-weight classes of Q_k."""
    n = 1 << k
    weights = np.array([bin(v).count("1") for v in range(n)])
    cols = []
    for i in range(k + 1):
        vec = (weights == i).astype(float)
        cols.append(vec / np.linalg.norm(vec))
    return cols


def _hypercube_matvec(k: int, x: np.ndarray) -> np.ndarray:
    """A(Q_k) x without materializing the adjacency matrix."""
    idx = np.arange(1 << k)
    y = np.zeros_like(x)
    for b in range(k):
        y += x[idx ^ (1 << b)]
    return y


def column_project(k: int) -> ChainSpec:
    """Project A(Q_k) onto its column space, returning the induced chain.

    Verifies closure: A maps each column vector into the span of its
    neighbors within 1e-9, so hypercube dynamics restricted to the columns
    is exactly the weighted chain's.
    """
    if not 1 <= k <= COLUMN_PROJECT_MAX_DIM:
        raise ValueError(f"need 1 <= k <= {COLUMN_PROJECT_MAX_DIM}")
    cols = _column_vectors(k)
    n_c = k + 1
    js = []
    for i in range(k):
        js.append(float(cols[i + 1] @ _hypercube_matvec(k, cols[i])))
    for i in range(n_c):
        image = _hypercube_matvec(k, cols[i])
        if i > 0:
            image = image - js[i - 1] * cols[i - 1]
        if i < k:
            image = image - js[i] * cols[i + 1]
        if np.max(np.abs(image)) > 1e-9:
            raise AssertionError("column space is not closed under the adjacency")
    return ChainSpec(tuple(js))


def chain_pst_verify(spec: ChainSpec, t: float) -> TransferReport:
    """End-to-end transfer amplitude of the (XY) chain at time t."""
    n = spec.length
    g = make_graph(n, [(i, i + 1, spec.couplings[i]) for i in range(n - 1)])
    return transfer_amplitude(g, 0, n - 1, t)


def unmodulated_chain_spectrum(n: int) -> np.ndarray:
    """Closed-form eigenvalues -2 cos(k pi / (n+1)), k = 1..n, ascending."""
    return np.sort(np.array([-2.0 * math.cos(k * math.pi / (n + 1))
                             for k in range(1, n + 1)]))


def unmodulated_no_pst_scan(n: int, t_max: float,
                            dt: Optional[float] = None) -> tuple[float, float]:
    """Best end-to-end fidelity of the uniform chain over [0, t_max].

    Returns (t*, F*).  For n >= 4 the uniform chain has no perfect state
    transfer, so F* < 1 over any finite horizon.  The supremum over all time
    can still be 1: when n + 1 is a prime p, twice a prime 2p or a power of
    two 2^k the chain has pretty good transfer, and F* approaches 1 as t_max
    grows (the 4- and 5-site chains already pass 0.9998 before t = 60).
    """
    if n < 2:
        raise ValueError("chain needs at least 2 sites")
    if dt is None:
        dt = min(0.01, t_max / 1e5)
    # from_graph refuses an n above DENSE_MAX_DIM before building the matrix
    spectrum = Spectrum.from_graph(path_graph(n))
    return max_fidelity_scan_spectrum(spectrum, 0, n - 1, t_max, dt)
