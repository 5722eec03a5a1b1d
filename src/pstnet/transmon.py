"""Tunable-coupler circuit calculator for switchable qubit-qubit edges.

Two transmons couple directly (capacitance C_ij) and indirectly through a
frequency-tunable coupler; the two channels carry opposite signs in the
dispersive regime, so a coupler frequency exists where the net exchange
vanishes and the edge is off.  Formulas follow second-order
Schrieffer-Wolff elimination of the coupler, with and without the
counter-rotating terms.

Frequency convention: every omega and g is an angular frequency expressed
in GHz (equivalently rad/ns), exactly as the effective-coupling formulas
use them; transfer times are in nanoseconds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

CUTOFF_RESIDUAL = 1e-12


@dataclass(frozen=True)
class CouplerConfig:
    """Capacitances (fF; only ratios matter) and angular frequencies (GHz)."""

    c_i: float
    c_j: float
    c_c: float
    c_ic: float
    c_jc: float
    c_ij: float
    omega_i: float
    omega_j: float
    omega_c: float

    def __post_init__(self):
        for name in ("c_i", "c_j", "c_c", "c_ic", "c_jc", "c_ij", "omega_i", "omega_j"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    def with_coupler_frequency(self, omega_c: float) -> "CouplerConfig":
        return replace(self, omega_c=omega_c)


@dataclass(frozen=True)
class CouplingReport:
    g_i: float
    g_j: float
    g_ij: float
    eta_ij: float
    delta_i: float
    delta_j: float
    sigma_i: float
    sigma_j: float
    delta_ij: float
    g_rwa: float
    g_brwa: float
    dispersive: bool
    rwa_singular: bool


def coupling_report(cfg: CouplerConfig) -> CouplingReport:
    """All derived couplings for one edge's coupler circuit.

    g_j = (C_jc / sqrt(C_j C_c)) sqrt(w_j w_c) / 2, the direct coupling
    g_ij carries the (1 + eta) capacitive enhancement, and the net exchange
    is g_i g_j / Delta_ij + g_ij within the rotating-wave approximation or
    (g_i g_j / 2)(1/D_i + 1/D_j - 1/S_i - 1/S_j) + g_ij beyond it.
    `dispersive` reports whether g_i < |D_i| and g_j < |D_j|, the regime
    these second-order formulas assume.  A coupler resonant with a qubit
    (D_i = 0 or D_j = 0), where they diverge, raises ValueError.
    """
    _check_detuned(cfg)
    g_i = 0.5 * (cfg.c_ic / math.sqrt(cfg.c_i * cfg.c_c)) * math.sqrt(cfg.omega_i * cfg.omega_c)
    g_j = 0.5 * (cfg.c_jc / math.sqrt(cfg.c_j * cfg.c_c)) * math.sqrt(cfg.omega_j * cfg.omega_c)
    eta = cfg.c_ic * cfg.c_jc / (cfg.c_ij * cfg.c_c)
    g_ij = 0.5 * (1.0 + eta) * (cfg.c_ij / math.sqrt(cfg.c_i * cfg.c_j)) \
        * math.sqrt(cfg.omega_i * cfg.omega_j)
    d_i = cfg.omega_i - cfg.omega_c
    d_j = cfg.omega_j - cfg.omega_c
    s_i = cfg.omega_i + cfg.omega_c
    s_j = cfg.omega_j + cfg.omega_c
    singular = (d_i + d_j) == 0.0
    if singular:
        delta_ij = math.inf
        indirect_rwa = 0.0
    else:
        delta_ij = 2.0 * d_i * d_j / (d_i + d_j)
        indirect_rwa = g_i * g_j / delta_ij
    g_rwa = indirect_rwa + g_ij
    g_brwa = 0.5 * g_i * g_j * (1.0 / d_i + 1.0 / d_j - 1.0 / s_i - 1.0 / s_j) + g_ij
    return CouplingReport(
        g_i=g_i, g_j=g_j, g_ij=g_ij, eta_ij=eta,
        delta_i=d_i, delta_j=d_j, sigma_i=s_i, sigma_j=s_j,
        delta_ij=delta_ij, g_rwa=g_rwa, g_brwa=g_brwa,
        dispersive=g_i < abs(d_i) and g_j < abs(d_j), rwa_singular=singular)


def _check_detuned(cfg: CouplerConfig) -> None:
    """Raise ValueError naming the first qubit the coupler is resonant with."""
    for qubit, omega in (("i", cfg.omega_i), ("j", cfg.omega_j)):
        if omega == cfg.omega_c:
            raise ValueError(f"coupler at omega_c = {cfg.omega_c} is resonant with "
                             f"qubit {qubit} (omega_{qubit} = {omega}): the dispersive "
                             f"couplings diverge there")


@dataclass(frozen=True)
class CutoffResult:
    omega_c_off: float
    delta_i: float
    residual: float


class NoCutoffError(ValueError):
    """`find_cutoff`'s coupling keeps one sign over a valid range."""


def find_cutoff(cfg: CouplerConfig, omega_c_range: tuple[float, float] = (4.5, 9.0)
                ) -> CutoffResult:
    """Coupler frequency where the net coupling vanishes (edge switched off).

    Bisects the beyond-RWA coupling g_brwa over the range until |g| <= 1e-12
    GHz.  ValueError, before any coupling, for a range that is not positive,
    finite and increasing or holds a pole omega_i, omega_j of g_brwa;
    NoCutoffError when g_brwa keeps one sign over the range.
    """
    def g_of(wc: float) -> float:
        return coupling_report(cfg.with_coupler_frequency(wc)).g_brwa

    lo, hi = omega_c_range
    if not 0 < lo < hi < math.inf or lo <= cfg.omega_i <= hi or lo <= cfg.omega_j <= hi:
        raise ValueError(f"coupler range [{lo}, {hi}] must be positive, finite, increasing and "
                         f"clear of the poles omega_i = {cfg.omega_i}, omega_j = {cfg.omega_j}")
    f_lo, f_hi = g_of(lo), g_of(hi)
    if f_lo == 0.0:
        mid = lo
    elif f_hi == 0.0:
        mid = hi
    elif f_lo * f_hi > 0:
        raise NoCutoffError("no cutoff in range: coupling does not change sign")
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            f_mid = g_of(mid)
            if abs(f_mid) <= CUTOFF_RESIDUAL:
                break
            if f_lo * f_mid < 0:
                hi, f_hi = mid, f_mid
            else:
                lo, f_lo = mid, f_mid
    residual = abs(g_of(mid))
    return CutoffResult(mid, cfg.omega_i - mid, residual)


def pst_time(g_tilde: float) -> float:
    """One hop's transfer time in ns: t = pi / (2 |g|), g in rad/ns.

    The effective Hamiltonian carries g (s+ s- + s- s+), so g is the
    uniform single-excitation edge weight and one hop on a unit network
    takes pi/(2 g).
    """
    if g_tilde == 0:
        raise ValueError("zero coupling never transfers")
    return math.pi / (2.0 * abs(g_tilde))


@dataclass(frozen=True)
class ThreeBodyResult:
    numeric_exchange: float
    analytic: float
    relative_error: float
    dispersive: bool


def three_body_hamiltonian(cfg: CouplerConfig) -> np.ndarray:
    """Single-excitation matrix of the qubit-coupler-qubit trio."""
    rep = coupling_report(cfg)
    return np.array([[cfg.omega_i, rep.g_i, rep.g_ij],
                     [rep.g_i, cfg.omega_c, rep.g_j],
                     [rep.g_ij, rep.g_j, cfg.omega_j]])


def three_body_oracle(cfg: CouplerConfig) -> ThreeBodyResult:
    """Exact single-excitation diagnostics of the qubit-coupler-qubit trio.

    Diagonalizes [[w_i, g_i, g_ij], [g_i, w_c, g_j], [g_ij, g_j, w_j]] and
    reads the exchange rate as half the splitting of the two dressed states
    with the least coupler content (identical-qubit reading), then compares
    it against the rotating-wave formula g_i g_j / Delta_ij + g_ij.
    """
    rep = coupling_report(cfg)
    if not rep.dispersive:
        warnings.warn("three-body oracle outside the dispersive regime; "
                      "result computed anyway", stacklevel=2)
    w, v = np.linalg.eigh(three_body_hamiltonian(cfg))
    coupler_weight = np.abs(v[1]) ** 2
    qubit_like = np.argsort(coupler_weight)[:2]
    numeric = 0.5 * abs(w[qubit_like[0]] - w[qubit_like[1]])
    analytic = abs(rep.g_rwa)
    rel = abs(numeric - analytic) / analytic if analytic else math.inf
    return ThreeBodyResult(float(numeric), float(analytic), float(rel),
                           rep.dispersive)


# ---------------------------------------------------------------------------
# config files

CONFIG_KEYS = {
    "C_i": "c_i", "C_j": "c_j", "C_c": "c_c", "C_ic": "c_ic",
    "C_jc": "c_jc", "C_ij": "c_ij",
    "omega_i": "omega_i", "omega_j": "omega_j", "omega_c": "omega_c",
}


def parse_coupler_config(path: str) -> CouplerConfig:
    """Read a `key = value` config: capacitances in fF, frequencies in GHz.

    Every key of CONFIG_KEYS is required exactly once; a repeat, or any other
    key such as an anharmonicity `alpha_i`, is refused with its line number.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            if CONFIG_KEYS[key] in values:
                raise ValueError(f"line {lineno}: duplicate key {key!r}")
            try:
                values[CONFIG_KEYS[key]] = float(val.strip())
            except ValueError:
                raise ValueError(f"line {lineno}: bad number {val.strip()!r}") from None
    missing = [k for k in CONFIG_KEYS.values() if k not in values]
    if missing:
        raise ValueError(f"missing keys: {', '.join(missing)}")
    return CouplerConfig(**values)
