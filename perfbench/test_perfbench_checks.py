"""The benchmark's checks accept right answers and reject answers that are
slightly wrong: a route amplitude off by 1e-6, a flipped verdict, a PST
time off by 1e-3 and a scan maximum off by 1e-6."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import jv

import checks
import tracing

REPO = Path(__file__).resolve().parent.parent
EXAMPLE01 = REPO / "src" / "pstnet" / "data" / "corona_examples" / "example01.graph"


def test_route_plan_reproduces_the_worked_31_vertex_example():
    # 10100 -> 01011 on the 31-vertex network goes over the bridge to 00100
    assert checks.expected_hops(31, 0b10100, 0b01011) == [(0b10100, 0b00100),
                                                          (0b00100, 0b01011)]


def test_route_check_rejects_amplitude_off_by_1e_6():
    hops = checks.expected_hops(31, 20, 11)
    phase = (-1j) ** 5          # Hamming distances 1 + 4
    checks.check_route(31, 20, 11, hops, phase)
    with pytest.raises(checks.CheckFailed):
        checks.check_route(31, 20, 11, hops, phase + 1e-6)
    with pytest.raises(checks.CheckFailed):
        checks.check_route(31, 20, 11, [(20, 11)], phase)


def test_hypercube_check_rejects_magnitude_off_by_1e_6():
    checks.check_hypercube(3, 0, 7, math.pi / 2, 1.0)
    checks.check_hypercube(4, 0, 3, 0.4, math.cos(0.4) ** 2 * math.sin(0.4) ** 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_hypercube(3, 0, 7, math.pi / 2, 1.0 - 1e-6)


def test_verdict_check_rejects_flipped_verdict():
    checks.check_verdict("K2", True, math.pi / 2, True, math.pi / 2)
    checks.check_verdict("P4", False, None, False, None)
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict("K2", True, math.pi / 2, False, None)
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict("P4", False, None, True, 1.0)


def test_verdict_check_rejects_pst_time_off_by_1e_3():
    checks.check_verdict("P3", True, math.pi / math.sqrt(2), True,
                         math.pi / math.sqrt(2) + 1e-8)
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict("P3", True, math.pi / math.sqrt(2), True,
                             math.pi / math.sqrt(2) + 1e-3)


def test_scan_check_rejects_maximum_off_by_1e_6():
    m = checks.corona_matrix(checks.read_seed_adjacency(EXAMPLE01), 1, "adjacency")
    t_max, dt = 20.0, 0.005
    ts = checks.scan_grid(t_max, dt)
    mags = np.abs(checks.amplitude_grid(m, 0, 2, ts))
    k = int(np.argmax(mags))
    checks.check_scan_point("m=1", m, 0, 2, t_max, dt, ts[k], mags[k])
    for wrong in (mags[k] - 1e-6, mags[k] + 1e-6):
        with pytest.raises(checks.CheckFailed):
            checks.check_scan_point("m=1", m, 0, 2, t_max, dt, ts[k], wrong)


def test_scan_check_rejects_a_point_below_the_grid_maximum():
    m = checks.corona_matrix(checks.read_seed_adjacency(EXAMPLE01), 0, "adjacency")
    # F(t) = sin^2 t on the signed square: t = 1 is a true value, not a maximum
    f = abs(checks.amplitude_expm(m, 0, 2, 1.0))
    assert f == pytest.approx(math.sin(1.0) ** 2, abs=1e-12)
    with pytest.raises(checks.CheckFailed):
        checks.check_scan_point("m=0", m, 0, 2, 20.0, 0.005, 1.0, f)


def test_all_pairs_check_rejects_maximum_off_by_1e_6():
    path = np.diag(np.ones(2), 1) + np.diag(np.ones(2), -1)
    lap = checks.corona_matrix(path, 1, "laplacian").toarray()
    best = checks.all_pairs_grid_max(lap, 5.0, 0.005)
    checks.check_all_pairs("P3", lap, 5.0, 0.005, best)
    best[0, 1] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_all_pairs("P3", lap, 5.0, 0.005, best)


def test_uniform_chain_check_rejects_maximum_off_by_1e_6():
    ts = checks.scan_grid(20.0, 0.002)
    mags = np.abs(checks.uniform_chain_amplitudes(4, ts))
    k = int(np.argmax(mags))
    checks.check_uniform_chain(4, 20.0, 0.002, ts[k], mags[k])
    with pytest.raises(checks.CheckFailed):
        checks.check_uniform_chain(4, 20.0, 0.002, ts[k], mags[k] - 1e-6)


def test_chebyshev_grid_matches_expm():
    rng = np.random.default_rng(7)
    a = np.triu(rng.choice([-1.0, 0.0, 0.0, 1.0], size=(30, 30)), 1)
    m = a + a.T + np.diag(rng.uniform(-1, 1, 30))
    ts = np.array([0.0, 0.3, 7.7, 19.9])
    grid = checks.amplitude_grid(m, 3, 17, ts)
    for t, amp in zip(ts, grid):
        assert abs(amp - checks.amplitude_expm(m, 3, 17, t)) <= 1e-11


def test_bessel_recurrence_matches_scipy():
    x = np.linspace(0.0, 300.0, 301)
    ks = np.arange(400)
    assert np.max(np.abs(checks.bessel_j(400, x) - jv(ks[:, None], x[None, :]))) <= 1e-13


def test_benchmark_json_lists_the_traced_metrics():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(tracing.PER_LAYER)
