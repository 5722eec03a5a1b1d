import importlib.resources

import numpy as np
import pytest

from pstnet import chains, spectral
from pstnet.fileio import parse_graph_text


def _example(name: str) -> str:
    ref = importlib.resources.files("pstnet") / "data" / "corona_examples" / name
    return ref.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def signed_square():
    """The net-regular balanced signed quadrilateral (transfer pairs (0,2), (1,3))."""
    return parse_graph_text(_example("example01.graph"))


@pytest.fixture(scope="session")
def unbalanced_k4():
    """Unbalanced net-regular K4 with a negative perfect matching."""
    return parse_graph_text(_example("example04.graph"))


def _direct_grid_scan(spec, t_max, dt):
    """`max_fidelity_scan_spectrum` of the two rows of spec with every grid
    magnitude from `Spectrum.amplitude`, one complex exponential per time
    and term, on the times k dt <= t_max (up to rounding) and t_max itself."""
    ts = np.arange(spectral._scan_points(t_max, dt)) * dt
    if ts[-1] < t_max:
        ts = np.append(ts, t_max)
    ts = np.minimum(ts, t_max)
    mags = np.abs(spec.amplitude(0, 1, ts))
    coeffs = spec.eigenvectors[1] * spec.eigenvectors[0]
    support = spec.eigenvalues[coeffs != 0]
    spread = float(np.ptp(support)) if len(support) else 0.0   # v outside u's walk
    grid_err = 0.5 * (0.5 * spread * dt) ** 2 + 1e-12
    candidates = np.flatnonzero(mags >= float(np.max(mags)) - grid_err)
    best_t, best_f = 0.0, -1.0
    for run in np.split(candidates, np.flatnonzero(np.diff(candidates) != 1) + 1):
        k = int(run[np.argmax(mags[run])])
        t_ref, f_ref = spectral._refine_peak(spec.eigenvalues, coeffs, float(ts[k]), dt,
                                             t_max)
        for end in (len(ts) - 1, 0):   # the search never returns an end
            f_end = abs(spec.amplitude(0, 1, float(ts[end])))
            if end in (run[0], run[-1]) and f_ref <= f_end + 1e-12:
                t_ref, f_ref = float(ts[end]), f_end
        if f_ref > best_f + 1e-12:
            best_t, best_f = t_ref, f_ref
    return best_t, best_f


@pytest.fixture
def krylov_columns(monkeypatch):
    """Every call that takes a Krylov column (`_krylov_entry`, as `spectral`
    and `chains` call it), recorded: it tells which path gave an amplitude."""
    calls = []
    real = spectral._krylov_entry

    def recorded(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(spectral, "_krylov_entry", recorded)
    monkeypatch.setattr(chains, "_krylov_entry", recorded)
    return calls


@pytest.fixture(scope="session")
def direct_grid_scan():
    """The grid scan of the factored-phase kernel, with direct magnitudes."""
    return _direct_grid_scan
