import math

import numpy as np
import pytest

from optomech import (Cavity, fit_exp_decay, fringe_response, fringe_slope,
                      ground_state_feasible, linewidth, min_phonons,
                      ringdown_tau, sideband_ratio, synth_optical_ringdown)
from optomech.constants import BOLTZMANN, PLANCK, SPEED_OF_LIGHT

from oracles import scan_maximum

REF_CAVITY = Cavity(length=0.05, wavelength=1.064e-6, finesse=181000.0)
LOW_FINESSE = Cavity(length=0.05, wavelength=1.064e-6, finesse=100.0)


class TestLinewidth:
    def test_reference_cavity(self):
        lw = linewidth(REF_CAVITY)
        assert lw == pytest.approx(SPEED_OF_LIGHT / (2 * 0.05 * 181000.0),
                                   rel=1e-12)
        # the quoted rounded figure is 17 kHz
        assert lw == pytest.approx(17e3, rel=0.05)
        assert 16.5e3 < lw < 16.6e3

    def test_misaligned_low_finesse_mode(self):
        assert linewidth(LOW_FINESSE) == pytest.approx(30e6, rel=1e-3)

    def test_inverse_length_scaling(self):
        double = Cavity(0.10, 1.064e-6, 181000.0)
        assert linewidth(double) == pytest.approx(linewidth(REF_CAVITY) / 2,
                                                  rel=1e-12)

    def test_fsr(self):
        assert REF_CAVITY.fsr == pytest.approx(SPEED_OF_LIGHT / 0.1, rel=1e-15)


class TestRingdown:
    def test_reference_cavity_tau(self):
        tau = ringdown_tau(REF_CAVITY)
        assert tau == pytest.approx(
            181000.0 * 0.05 / (math.pi * SPEED_OF_LIGHT), rel=1e-12)
        assert tau == pytest.approx(9.61e-6, rel=0.01)
        assert tau == pytest.approx(1 / (2 * math.pi * linewidth(REF_CAVITY)),
                                    rel=1e-12)

    def test_low_finesse_tau(self):
        assert ringdown_tau(LOW_FINESSE) == pytest.approx(5.3e-9, rel=0.01)

    def test_tau_kappa_identity(self):
        for cav in (REF_CAVITY, LOW_FINESSE, Cavity(1.2, 1.55e-6, 3e4)):
            assert ringdown_tau(cav) * cav.kappa == pytest.approx(1.0,
                                                                  rel=1e-14)

    def test_finesse_from_tau_round_trip(self):
        # a clean ringdown of decay_tau gives the finesse back through
        # fit_exp_decay's pi*c*tau/L
        for cav in (REF_CAVITY, LOW_FINESSE):
            tau = cav.decay_tau
            ts = synth_optical_ringdown(cav, 50 / tau, 10 * tau, np.inf, 0)
            fit = fit_exp_decay(ts, cavity_length=cav.length)
            assert fit.params["finesse"] == pytest.approx(cav.finesse,
                                                          rel=1e-9)

    def test_finesse_from_reference_tau(self):
        # the quoted pairs at L = 5 cm: 9.61 us for F = 181,000 and 5.3 ns
        # for F = 100
        assert REF_CAVITY.decay_tau == pytest.approx(9.61e-6, rel=0.005)
        assert LOW_FINESSE.decay_tau == pytest.approx(5.3e-9, rel=0.01)


class TestSidebandRatio:
    def test_design_point_values(self):
        assert sideband_ratio(236e3, REF_CAVITY) == pytest.approx(14.2,
                                                                    abs=0.1)
        assert sideband_ratio(250e3, REF_CAVITY) == pytest.approx(15.1,
                                                                    abs=0.1)

    def test_unity_at_linewidth(self):
        assert sideband_ratio(linewidth(REF_CAVITY),
                              REF_CAVITY) == pytest.approx(1.0, rel=1e-12)


class TestMinPhonons:
    def test_design_cooling_floor(self):
        f_m = 14.2 * linewidth(REF_CAVITY)
        n = min_phonons(f_m, REF_CAVITY)
        assert 2.7e-4 <= n <= 3.6e-4
        assert n == pytest.approx(3.1e-4, rel=0.05)

    def test_unresolved_case_closed_form(self):
        f_m = linewidth(REF_CAVITY)          # sideband ratio exactly 1
        expected = 0.5 * (math.sqrt(1.0 + 0.25) - 1.0)
        assert min_phonons(f_m, REF_CAVITY) == pytest.approx(expected,
                                                               rel=1e-12)
        assert expected == pytest.approx(0.059, abs=1e-3)

    def test_deep_resolved_limit(self):
        lw = linewidth(REF_CAVITY)
        n = min_phonons(1e6 * lw, REF_CAVITY)
        assert n < 1e-12
        # reduces to (kappa/(4 w_m))^2 in the resolved limit
        assert n == pytest.approx((1.0 / (4.0 * 1e6)) ** 2, rel=1e-3)

    def test_monotone_decreasing_in_ratio(self):
        lw = linewidth(REF_CAVITY)
        ratios = np.logspace(-1, 3, 40)
        vals = [min_phonons(r * lw, REF_CAVITY) for r in ratios]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestGroundStateFeasible:
    def test_fq_product_at_4k(self):
        threshold = BOLTZMANN * 4.0 / PLANCK
        assert threshold == pytest.approx(8.33e10, rel=1e-3)
        ok, margin = ground_state_feasible(1.1e11 / 418000.0, 418000.0, 4.0)
        assert ok
        assert margin == pytest.approx(1.1e11 / threshold, rel=1e-12)
        assert margin == pytest.approx(1.32, abs=0.01)

    def test_room_temperature_fails(self):
        ok, margin = ground_state_feasible(1.1e11 / 418000.0, 418000.0, 300.0)
        assert not ok
        assert margin < 1.0

    def test_exact_threshold_is_a_fail(self):
        threshold = BOLTZMANN * 4.0 / PLANCK
        ok, margin = ground_state_feasible(threshold / 1e5, 1e5, 4.0)
        assert not ok
        assert margin == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("a", [0.1, 3.0, 1e3])
    def test_only_product_enters(self, a):
        ok1, m1 = ground_state_feasible(250e3, 418000.0, 4.0)
        ok2, m2 = ground_state_feasible(250e3 * a, 418000.0 / a, 4.0)
        assert ok1 == ok2
        assert m1 == pytest.approx(m2, rel=1e-12)


class TestFringe:
    def test_on_resonance_and_half_max(self):
        lw = linewidth(REF_CAVITY)
        assert fringe_response(0.0, REF_CAVITY) == 1.0
        assert fringe_response(lw / 2, REF_CAVITY) == pytest.approx(0.5,
                                                                      rel=1e-12)

    def test_inflection_point_location(self):
        lw = linewidth(REF_CAVITY)
        d_star = scan_maximum(
            lambda d: np.abs(fringe_slope(d, REF_CAVITY)), 0.0, lw)
        assert d_star == pytest.approx(lw / (2 * math.sqrt(3)), rel=1e-6)

    def test_parity(self):
        lw = linewidth(REF_CAVITY)
        d = np.linspace(0.01, 3.0, 17) * lw
        assert np.allclose(fringe_response(d, REF_CAVITY),
                           fringe_response(-d, REF_CAVITY), rtol=1e-14)
        assert np.allclose(fringe_slope(d, REF_CAVITY),
                           -fringe_slope(-d, REF_CAVITY), rtol=1e-14)

    def test_slope_matches_finite_difference(self):
        lw = linewidth(REF_CAVITY)
        d = 0.3 * lw
        h = lw * 1e-7
        fd = (fringe_response(d + h, REF_CAVITY)
              - fringe_response(d - h, REF_CAVITY)) / (2 * h)
        assert fringe_slope(d, REF_CAVITY) == pytest.approx(fd, rel=1e-6)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(length=0.0, wavelength=1e-6, finesse=100.0),
        dict(length=0.05, wavelength=0.0, finesse=100.0),
        dict(length=0.05, wavelength=1e-6, finesse=1.0),
    ])
    def test_cavity_invariants(self, kwargs):
        with pytest.raises(ValueError):
            Cavity(**kwargs)

    def test_sideband_ratio_needs_positive_frequency(self):
        with pytest.raises(ValueError):
            sideband_ratio(0.0, REF_CAVITY)
        with pytest.raises(ValueError):
            min_phonons(-1.0, REF_CAVITY)
