import numpy as np
import pytest

from optomech import (MechMode, NestedModel, chain_transfer, isolation_db,
                      thermal_psd, thermal_rms, transfer_power)
from optomech.constants import BOLTZMANN

from oracles import integrate_psd, rk4_chain_amplitudes, scan_maximum

DESIGN_OUTER = MechMode(f0=2.5e3, q=1e5, m_eff=1e-7, temp=300.0)


class TestTransferPower:
    @pytest.mark.parametrize("f0,q", [(2.5e3, 1e5), (250e3, 418000.0),
                                      (100.0, 10.0), (1e6, 3.0)])
    def test_dc_identity_exact(self, f0, q):
        m = MechMode(f0, q, 1e-7, 300.0)
        assert transfer_power(0.0, m) == 1.0

    @pytest.mark.parametrize("q", [10.0, 100.0, 1e5])
    def test_resonance_value_is_q_squared(self, q):
        m = MechMode(2.5e3, q, 1e-7, 300.0)
        # brute-force evaluation of the closed form at omega = omega0
        w0 = 2 * np.pi * m.f0
        brute = w0 ** 4 / ((w0 ** 2 - w0 ** 2) ** 2 + (w0 / q) ** 2 * w0 ** 2)
        assert transfer_power(w0, m) == pytest.approx(brute, rel=1e-12)
        assert transfer_power(w0, m) == pytest.approx(q * q, rel=1e-12)

    def test_design_point_is_80db(self):
        w = 2 * np.pi * 250e3
        assert transfer_power(w, DESIGN_OUTER) == pytest.approx(1.0e-8, rel=1e-3)
        assert isolation_db(w, DESIGN_OUTER) == pytest.approx(80.0, abs=0.1)

    def test_independent_of_mass_and_temperature(self):
        w = np.logspace(1, 7, 31)
        a = MechMode(2.5e3, 1e5, 1e-7, 300.0)
        b = MechMode(2.5e3, 1e5, 5.0, 0.0)
        assert np.array_equal(transfer_power(w, a), transfer_power(w, b))

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValueError):
            transfer_power(-1.0, DESIGN_OUTER)


class TestIsolationDb:
    def test_one_decade_above_resonance(self):
        assert isolation_db(2 * np.pi * 25e3, DESIGN_OUTER) == pytest.approx(
            40.0, abs=0.1)

    def test_resonance_amplification(self):
        m = MechMode(2.5e3, 100.0, 1e-7, 300.0)
        assert isolation_db(m.omega0, m) == pytest.approx(-40.0, abs=1e-9)

    def test_zero_frequency_is_zero_db(self):
        assert isolation_db(0.0, DESIGN_OUTER) == 0.0

    @pytest.mark.parametrize("q", [10.0, 1e3, 1e6])
    def test_follows_40db_per_decade_above_10x(self, q):
        m = MechMode(2.5e3, q, 1e-7, 300.0)
        w = 2 * np.pi * m.f0 * np.logspace(1, 3, 41)
        iso = isolation_db(w, m)
        ref = 40.0 * np.log10(w / m.omega0)
        assert np.max(np.abs(iso - ref)) <= 0.5


class TestChainTransfer:
    def setup_method(self):
        self.model = NestedModel(outer=DESIGN_OUTER,
                                 inner=MechMode(250e3, 418000.0, 5e-11, 300.0))

    def test_dc_rigid_body(self):
        assert chain_transfer(0.0, self.model, 0.01) == pytest.approx(1.0,
                                                                      abs=1e-9)

    @pytest.mark.parametrize("mass_ratio", [0.01, 5e-4])
    def test_small_mass_ratio_decouples_to_single_stage(self, mass_ratio):
        # between 10*w_outer and w_inner/10 the chain follows the outer stage
        w = 2 * np.pi * np.linspace(10 * 2.5e3, 250e3 / 10, 7)
        chain_db = 10 * np.log10(chain_transfer(w, self.model, mass_ratio))
        single_db = 10 * np.log10(transfer_power(w, DESIGN_OUTER))
        assert np.max(np.abs(chain_db - single_db)) <= 1.0

    @pytest.mark.parametrize("mass_ratio", [1.0, 1.5, 0.0, -0.1])
    def test_rejects_bad_mass_ratio(self, mass_ratio):
        with pytest.raises(ValueError):
            chain_transfer(1.0, self.model, mass_ratio)

    def test_matches_time_domain_integration(self):
        # moderate-Q chain so transients decay quickly in the oracle
        outer = MechMode(100.0, 8.0, 1.0, 300.0)
        inner = MechMode(400.0, 12.0, 0.1, 300.0)
        model = NestedModel(outer=outer, inner=inner)
        freqs = np.logspace(np.log10(outer.f0 / 10), np.log10(2 * inner.f0), 6)
        amp = rk4_chain_amplitudes(outer, inner, 0.1, freqs)
        pred = np.sqrt(chain_transfer(2 * np.pi * freqs, model, 0.1))
        assert np.max(np.abs(amp / pred - 1)) < 1e-3


class TestThermalMotion:
    def test_rms_matches_equipartition_in_expected_window(self):
        m = MechMode(2.5e3, 1e5, 1e-7, 300.0)   # 100 ug outer mass
        expected = np.sqrt(BOLTZMANN * 300.0 / (1e-7 * (2 * np.pi * 2.5e3) ** 2))
        assert thermal_rms(m) == pytest.approx(expected, rel=1e-12)
        assert 1e-11 <= thermal_rms(m) <= 1e-10   # 10-100 pm at room temp
        assert thermal_rms(m) == pytest.approx(1.296e-11, rel=1e-3)

    def test_zero_temperature(self):
        assert thermal_rms(MechMode(2.5e3, 1e5, 1e-7, 0.0)) == 0.0

    def test_mass_scaling(self):
        a = thermal_rms(MechMode(2.5e3, 1e5, 1e-7, 300.0))
        b = thermal_rms(MechMode(2.5e3, 1e5, 4e-7, 300.0))
        assert b == pytest.approx(a / 2, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("f0,q", [(1e3, 50.0), (2.5e3, 1e5),
                                      (250e3, 418000.0)])
    def test_psd_integrates_to_rms_squared(self, f0, q):
        m = MechMode(f0, q, 1e-9, 300.0)
        rms2 = thermal_rms(m) ** 2
        # quadrature on the nondimensional line shape (unit area, peak at u=1)
        ratio = integrate_psd(lambda u: thermal_psd(u * f0, m) * f0 / rms2, 1.0)
        assert ratio == pytest.approx(1.0, rel=5e-3)

    def test_peak_location(self):
        m = MechMode(1e3, 20.0, 1e-9, 300.0)
        f_pk = scan_maximum(lambda f: thermal_psd(f, m), 0.5e3, 1.5e3)
        assert f_pk == pytest.approx(m.f0 * np.sqrt(1 - 1 / (2 * m.q ** 2)),
                                     rel=1e-6)

    def test_fwhm_is_f0_over_q(self):
        m = MechMode(1e3, 2000.0, 1e-9, 300.0)
        peak = thermal_psd(m.f0 * np.sqrt(1 - 1 / (2 * m.q ** 2)), m)
        f = np.linspace(m.f0 * (1 - 5 / m.q), m.f0 * (1 + 5 / m.q), 400001)
        above = f[thermal_psd(f, m) >= peak / 2]
        fwhm = above[-1] - above[0]
        assert fwhm == pytest.approx(m.f0 / m.q, rel=0.01)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(f0=0.0, q=1.0, m_eff=1.0, temp=1.0),
        dict(f0=1.0, q=0.0, m_eff=1.0, temp=1.0),
        dict(f0=1.0, q=1.0, m_eff=0.0, temp=1.0),
        dict(f0=1.0, q=1.0, m_eff=1.0, temp=-1.0),
    ])
    def test_mode_invariants(self, kwargs):
        with pytest.raises(ValueError):
            MechMode(**kwargs)

    def test_nested_ordering(self):
        with pytest.raises(ValueError):
            NestedModel(outer=MechMode(1e3, 10, 1.0, 300.0),
                        inner=MechMode(1e2, 10, 1.0, 300.0))

    def test_derived_rates(self):
        m = MechMode(2.5e3, 1e5, 1e-7, 300.0)
        assert m.omega0 == pytest.approx(2 * np.pi * 2.5e3, rel=1e-15)
        assert m.gamma == pytest.approx(m.omega0 / m.q, rel=1e-15)
