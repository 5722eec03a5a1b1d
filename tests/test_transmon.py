import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from pstnet import transmon
from pstnet.transmon import (CouplerConfig, NoCutoffError, coupling_report, find_cutoff,
                             parse_coupler_config, pst_time,
                             three_body_hamiltonian, three_body_oracle)

from oracles import identical_qubit_coupling, reference_parameters


def test_eta_value():
    rep = coupling_report(reference_parameters(5.0))
    assert rep.eta_ij == pytest.approx(0.84, abs=1e-15)


def test_coupling_formulas_by_hand():
    cfg = reference_parameters(5.0)
    rep = coupling_report(cfg)
    assert rep.g_j == pytest.approx(0.5 * 4.2 / math.sqrt(72 * 200) * math.sqrt(4 * 5))
    assert rep.g_ij == pytest.approx(0.5 * 1.84 * 0.1 / math.sqrt(70 * 72) * 4.0)
    assert rep.delta_i == -1.0
    assert rep.sigma_j == 9.0
    assert rep.delta_ij == pytest.approx(-1.0)


def test_decoupled_ancilla_limit():
    cfg = CouplerConfig(c_i=70.0, c_j=72.0, c_c=200.0, c_ic=1e-12, c_jc=4.2,
                        c_ij=0.1, omega_i=4.0, omega_j=4.0, omega_c=6.0)
    rep = coupling_report(cfg)
    assert rep.g_i <= 1e-12
    assert rep.g_rwa == pytest.approx(rep.g_ij, abs=1e-12)


def test_singular_effective_detuning_flagged():
    cfg = CouplerConfig(c_i=70.0, c_j=70.0, c_c=200.0, c_ic=4.0, c_jc=4.0,
                        c_ij=0.1, omega_i=3.0, omega_j=5.0, omega_c=4.0)
    rep = coupling_report(cfg)
    assert rep.rwa_singular
    assert math.isinf(rep.delta_ij)


@pytest.mark.parametrize("omega_j, qubit", [(4.0, "i"), (6.0, "i"), (3.0, "j")])
def test_resonant_coupler_is_refused(omega_j, qubit):
    # 1/Delta diverges at omega_c = omega_i (or omega_j); the report used to
    # end in ZeroDivisionError there
    wc = 4.0 if qubit == "i" else omega_j
    cfg = CouplerConfig(c_i=70.0, c_j=72.0, c_c=200.0, c_ic=4.0, c_jc=4.2,
                        c_ij=0.1, omega_i=4.0, omega_j=omega_j, omega_c=wc)
    with pytest.raises(ValueError, match=f"omega_c = {wc} is resonant with qubit {qubit} "):
        coupling_report(cfg)
    if omega_j == 4.0:
        with pytest.raises(ValueError, match="resonant with qubit i"):
            identical_qubit_coupling(cfg)


def test_brwa_equals_substituted_shortcut():
    cfg = reference_parameters(5.0)
    for wc in (4.5, 5.4, 7.0, 9.0):
        rep = coupling_report(cfg.with_coupler_frequency(wc))
        assert rep.g_brwa == pytest.approx(
            identical_qubit_coupling(cfg.with_coupler_frequency(wc)), abs=1e-15)


def test_sign_change_over_sweep():
    cfg = reference_parameters(5.0)
    lo = coupling_report(cfg.with_coupler_frequency(4.5)).g_brwa
    hi = coupling_report(cfg.with_coupler_frequency(9.0)).g_brwa
    assert lo < 0 < hi


# --- cutoff -----------------------------------------------------------------

def test_cutoff_location():
    cut = find_cutoff(reference_parameters(5.0), (4.5, 9.0))
    assert cut.delta_i == pytest.approx(-1.426, abs=0.05)
    assert cut.omega_c_off == pytest.approx(4.0 * math.sqrt(1.84), abs=1e-9)
    assert cut.residual <= 1e-12


def test_no_cutoff_when_range_excludes_root():
    with pytest.raises(NoCutoffError, match="no cutoff"):
        find_cutoff(reference_parameters(5.0), (6.0, 9.0))


@pytest.mark.parametrize("bounds", [(3.5, 9.0), (4.0, 9.0), (2.0, 4.0), (4.5, 4.5), (9.0, 4.5),
                                    (-1.0, 3.0), (math.nan, 9.0), (4.5, math.inf)])
def test_cutoff_refuses_a_range_before_any_coupling(monkeypatch, bounds):
    cfg = reference_parameters(5.0)

    def refuse(cfg):
        raise AssertionError("a coupling was evaluated")

    monkeypatch.setattr(transmon, "coupling_report", refuse)
    with pytest.raises(ValueError, match="must be positive, finite, increasing and clear "
                                         "of the poles omega_i = 4.0, omega_j = 4.0$") as info:
        find_cutoff(cfg, bounds)
    assert not isinstance(info.value, NoCutoffError)


@pytest.mark.parametrize("name", ["omega_i", "omega_j", "c_c"])
@pytest.mark.parametrize("value", [-4.0, 0.0, math.nan, math.inf])
def test_config_refuses_a_value_that_is_not_positive_and_finite(name, value):
    # a negative omega_i failed in sqrt(omega_i omega_c) with "math domain
    # error"; a nan one printed a cutoff at the range's end with exit 0
    values = dict(c_i=70.0, c_j=72.0, c_c=200.0, c_ic=4.0, c_jc=4.2, c_ij=0.1,
                  omega_i=4.0, omega_j=4.0, omega_c=5.0)
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
        CouplerConfig(**{**values, name: value})


def test_cutoff_refuses_the_second_qubit_pole():
    cfg = CouplerConfig(c_i=70.0, c_j=72.0, c_c=200.0, c_ic=4.0, c_jc=4.2,
                        c_ij=0.1, omega_i=4.0, omega_j=9.5, omega_c=5.0)
    with pytest.raises(ValueError, match=r"^coupler range \[4.5, 10.0\] must be .* "
                                         r"omega_j = 9.5$"):
        find_cutoff(cfg, (4.5, 10.0))


def test_cutoff_moves_inward_as_direct_coupling_grows():
    # doubling C_ij halves eta, pulling the zero crossing toward resonance
    base = find_cutoff(reference_parameters(5.0), (4.01, 9.0))
    prev = abs(base.delta_i)
    for c_ij in (0.2, 0.4, 0.8):
        cfg = CouplerConfig(c_i=70.0, c_j=72.0, c_c=200.0, c_ic=4.0, c_jc=4.2,
                            c_ij=c_ij, omega_i=4.0, omega_j=4.0, omega_c=5.0)
        cut = find_cutoff(cfg, (4.01, 9.0))
        assert abs(cut.delta_i) < prev
        prev = abs(cut.delta_i)


# --- transfer time ------------------------------------------------------------

def test_pst_time_formula():
    assert pst_time(math.pi / 3.0) == pytest.approx(1.5)


def test_pst_time_self_consistency():
    g = 2.0944
    assert pst_time(2 * g) == pytest.approx(pst_time(g) / 2, abs=1e-12)


def test_pst_time_rejects_zero_coupling():
    with pytest.raises(ValueError):
        pst_time(0.0)


# --- three-body oracle -----------------------------------------------------------

def test_oracle_matches_formula_in_dispersive_regime():
    res = three_body_oracle(reference_parameters(8.0))
    assert res.dispersive
    assert res.relative_error <= 0.15


def test_oracle_exact_for_direct_only():
    cfg = CouplerConfig(c_i=70.0, c_j=70.0, c_c=200.0, c_ic=1e-9, c_jc=1e-9,
                        c_ij=0.1, omega_i=4.0, omega_j=4.0, omega_c=8.0)
    res = three_body_oracle(cfg)
    rep = coupling_report(cfg)
    assert res.numeric_exchange == pytest.approx(rep.g_ij, rel=1e-9)


def test_oracle_deep_dispersive_indirect():
    # with the direct channel removed, the exchange rate is the virtual one;
    # the capacitive (1 + eta) enhancement keeps g_ij finite for any C_ij > 0,
    # so zero the off-diagonal entry of the trio matrix by hand
    cfg = reference_parameters(12.0)
    rep = coupling_report(cfg)
    m = np.array([[4.0, rep.g_i, 0.0],
                  [rep.g_i, 12.0, rep.g_j],
                  [0.0, rep.g_j, 4.0]])
    w, v = np.linalg.eigh(m)
    qubit_like = np.argsort(np.abs(v[1]) ** 2)[:2]
    numeric = 0.5 * abs(w[qubit_like[0]] - w[qubit_like[1]])
    indirect = abs(rep.g_i * rep.g_j / rep.delta_ij)
    assert numeric == pytest.approx(indirect, rel=0.05)


def test_three_body_probability_conserved():
    h = three_body_hamiltonian(reference_parameters(8.0))
    u = expm(-1j * h * 3.7)
    state = u @ np.array([1.0, 0.0, 0.0])
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)


def test_brwa_approaches_rwa_at_large_sigma():
    # fixed detuning, frequencies scaled together past the rwa sign change
    gaps = []
    for scale in (8, 16, 32, 64, 128):
        cfg = CouplerConfig(c_i=70.0, c_j=72.0, c_c=200.0, c_ic=4.0, c_jc=4.2,
                            c_ij=0.1, omega_i=4.0 * scale, omega_j=4.0 * scale,
                            omega_c=4.0 * scale + 4.0)
        rep = coupling_report(cfg)
        gaps.append(abs(rep.g_brwa - rep.g_rwa) / abs(rep.g_rwa))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


# --- config files ------------------------------------------------------------------

def test_parse_config_round_trip(tmp_path):
    path = tmp_path / "edge.cfg"
    path.write_text(
        "# reference edge\n"
        "C_i = 70\nC_j = 72\nC_c = 200\nC_ic = 4\nC_jc = 4.2\nC_ij = 0.1\n"
        "omega_i = 4\nomega_j = 4\nomega_c = 5\n", encoding="utf-8")
    cfg = parse_coupler_config(str(path))
    assert cfg == reference_parameters(5.0)


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "edge.cfg"
    path.write_text("C_i = 70\nbogus = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        parse_coupler_config(str(path))


@pytest.mark.parametrize("key", ["alpha_i", "alpha_j", "alpha_c"])
def test_parse_config_refuses_anharmonicities(key, tmp_path):
    # nothing uses them, so a file that sets one is refused rather than dropped
    path = tmp_path / "edge.cfg"
    path.write_text("C_i = 70\n# anharmonicity\n" f"{key} = -0.2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^line 3: unknown key '{key}'$"):
        parse_coupler_config(str(path))
    with pytest.raises(TypeError):
        CouplerConfig(c_i=70.0, c_j=72.0, c_c=200.0, c_ic=4.0, c_jc=4.2, c_ij=0.1,
                      omega_i=4.0, omega_j=4.0, omega_c=5.0, **{key: -0.2})


def test_parse_config_refuses_a_repeated_key(tmp_path):
    # a repeated key is refused, not applied over the first
    path = tmp_path / "edge.cfg"
    path.write_text("omega_c = 5\nC_i = 70\nomega_c = 7\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^line 3: duplicate key 'omega_c'$"):
        parse_coupler_config(str(path))


def test_parse_config_reports_missing(tmp_path):
    path = tmp_path / "edge.cfg"
    path.write_text("C_i = 70\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing"):
        parse_coupler_config(str(path))


def test_config_rejects_nonpositive_capacitance():
    with pytest.raises(ValueError):
        CouplerConfig(c_i=-1.0, c_j=72.0, c_c=200.0, c_ic=4.0, c_jc=4.2,
                      c_ij=0.1, omega_i=4.0, omega_j=4.0, omega_c=5.0)


def test_nondispersive_is_reported_without_a_warning():
    cfg = CouplerConfig(c_i=70.0, c_j=72.0, c_c=200.0, c_ic=100.0, c_jc=100.0,
                        c_ij=0.1, omega_i=4.0, omega_j=4.0, omega_c=4.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = coupling_report(cfg)
    assert rep.dispersive is False
    # the oracle reads the flag and still warns about its own result
    with pytest.warns(UserWarning, match="three-body oracle outside"):
        assert three_body_oracle(cfg).dispersive is False
