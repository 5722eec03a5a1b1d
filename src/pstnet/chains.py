"""Engineered-coupling chains: hypercube column projection, arbitrary-length
perfect transfer, and the uniform-chain impossibility scan.

The couplings J_i = sqrt(i (n_c - i)) arise by projecting a hypercube onto
its distance columns; the projected tridiagonal matrix has the integer
spectrum -(n_c-1), -(n_c-3), ..., (n_c-1) and transfers end to end at
t = pi/2 for every length.  Uniform chains stop transferring perfectly at
four sites.

A chain's tridiagonal matrix is the walk-module matrix T of its site 0
(the Lanczos basis from e_0 is the site basis), so `chain_pst_verify`
evaluates T itself (up to CHAIN_TRIDIAGONAL_MAX_SITES sites, a memory
bound; a longer chain takes one Krylov column of T, though the solve stays
the faster one up to a few thousand sites at t = pi/2), as
`spectral.walk_spectrum` does on a path graph walked from an end: it
reads T off the matrix and runs no Lanczos step.  `column_project` is the Lanczos run on the hypercube
that finds the chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spectral import (TransferReport, _check_phase_resolution, _krylov_entry,
                       _tridiagonal_rows, max_fidelity_scan, polar, walk_spectrum)
from .graphs import hypercube, path_graph

# the projected couplings must equal sqrt(i (k + 1 - i)) to this
COLUMN_PROJECT_TOL = 1e-12
# longest chain solved as a tridiagonal matrix: its n x n eigenvectors are
# 512 KiB here; longer chains take one Krylov column, O(n) memory.  A bound
# on memory, not where the solve stops winning: with ?stevd the solve of
# pst_chain(n) at pi/2 took 2.8 ms against 21.8 ms for the column at n = 300,
# 35 / 88 ms at 1000, 0.16 / 0.23 s at 2000 and 0.94 / 0.64 s at 4000 (best
# of 3 runs, 2 at 4000, one BLAS thread, 2-CPU Xeon); the column's cost also
# grows with t
CHAIN_TRIDIAGONAL_MAX_SITES = 256


@dataclass(frozen=True)
class ChainSpec:
    """Mirror-symmetric chain: finite positive couplings J_1..J_{n-1}."""

    couplings: tuple[float, ...]

    def __post_init__(self):
        if self.length < 2:
            raise ValueError("chain needs at least 2 sites")
        js = self.couplings
        for i in range(len(js)):
            if not math.isfinite(js[i]):
                raise ValueError(f"coupling {i} is not finite: {js[i]}")
            if js[i] <= 0:
                raise ValueError("couplings must be positive")
            if abs(js[i] - js[len(js) - 1 - i]) > 1e-9 * max(1.0, js[i]):
                raise ValueError("couplings must be mirror symmetric")

    @property
    def length(self) -> int:
        return len(self.couplings) + 1


def pst_chain(n_c: int) -> ChainSpec:
    """Perfect-transfer chain of length n_c: J_i = sqrt(i (n_c - i))."""
    if n_c < 2:
        raise ValueError("chain needs at least 2 sites")
    return ChainSpec(tuple(math.sqrt(i * (n_c - i)) for i in range(1, n_c)))


def column_project(k: int) -> ChainSpec:
    """Project A(Q_k) onto its distance columns, returning the induced chain.

    The walk module of vertex 0 is spanned by the Hamming-weight classes,
    so Lanczos from e_0 (`spectral.walk_spectrum`, run to closure) returns
    the k + 1 normalised class vectors as its basis and the chain couplings
    as its betas; hypercube dynamics restricted to the columns is exactly
    the chain's.  Raises ValueError when the basis passes the cap, and
    AssertionError unless the betas equal sqrt(i (k + 1 - i)) to
    COLUMN_PROJECT_TOL and the module has k + 1 vectors.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    js = walk_spectrum(hypercube(k), 0, (1 << k) - 1).couplings
    want = np.sqrt([i * (k + 1 - i) for i in range(1, k + 1)])
    if len(js) != k or np.max(np.abs(js - want)) > COLUMN_PROJECT_TOL:
        raise AssertionError("walk module of Q_k is not the sqrt(i (k + 1 - i)) chain")
    return ChainSpec(tuple(js.tolist()))


def chain_pst_verify(spec: ChainSpec, t: float) -> TransferReport:
    """End-to-end transfer amplitude of the (XY) chain at time t.

    The chain matrix T is the walk-module matrix of site 0, so its
    tridiagonal spectrum gives the amplitude directly; no graph is built.
    That solve keeps all n x n eigenvectors, so a chain of more than
    CHAIN_TRIDIAGONAL_MAX_SITES sites takes one Krylov column of T instead
    (`spectral._krylov_entry`), whatever t is.  A time that is NaN or
    infinite raises ValueError, and so does X = |t| ||T||_1 >= 2^53
    (`spectral._check_phase_resolution`), before either path.
    """
    if not math.isfinite(t):
        raise ValueError(f"time {t} is not finite")
    n = spec.length
    js = np.array(spec.couplings)
    # ||T||_1 is the largest column sum of the zero-diagonal T: some
    # J_i + J_{i+1}, or J_1 on two sites (the couplings are positive)
    _check_phase_resolution(abs(t) * float(np.max(js[:-1] + js[1:], initial=js[0])))
    if n > CHAIN_TRIDIAGONAL_MAX_SITES:
        # imported here: `import pstnet` loads no scipy
        from scipy.sparse import diags_array
        matrix = diags_array([js, js], offsets=[1, -1], format="csr")
        return TransferReport(*polar(_krylov_entry(matrix, 0, n - 1, t)))
    end = np.zeros(n)
    end[-1] = 1.0
    amp = _tridiagonal_rows(np.zeros(n), js, end).amplitude(0, 1, t)
    return TransferReport(*polar(amp))


def unmodulated_no_pst_scan(n: int, t_max: float,
                            dt: Optional[float] = None) -> tuple[float, float]:
    """Best end-to-end fidelity of the uniform chain over [0, t_max].

    Returns (t*, F*).  For n >= 4 the uniform chain has no perfect state
    transfer, so F* < 1 over any finite horizon.  The supremum over all time
    can still be 1: when n + 1 is a prime p, twice a prime 2p or a power of
    two 2^k the chain has pretty good transfer, and F* approaches 1 as t_max
    grows (the 4- and 5-site chains already pass 0.9998 before t = 60).

    The scan runs on the walk module of site 0 (`spectral.max_fidelity_scan`),
    which refuses a chain whose Lanczos basis might pass the cap.  The
    default dt is min(0.01, t_max / 1e5), or 0.01 where that is 0, so
    t_max = 0 scans the single time 0.
    """
    if n < 2:
        raise ValueError("chain needs at least 2 sites")
    if dt is None:
        dt = min(0.01, t_max / 1e5) or 0.01
    return max_fidelity_scan(path_graph(n), 0, n - 1, t_max, dt)
