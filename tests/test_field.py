import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qed_decoherence import field as fld
from qed_decoherence import observables as obs
from qed_decoherence.decoherence import gamma_vac_factor
from qed_decoherence.oracle import quad_photon_continuum

from conftest import make_params


class TestModeOccupation:
    """The per-mode occupation summed over the photon continuum: angles and frequencies."""

    def test_continuum_sum_reproduces_mean_photon_number(self, default_params):
        # angular + frequency integration of the per-mode kernel
        p = default_params
        p_bar = 0.3
        for tau in (0.5, 50.0):
            t = p.seconds(tau)
            kernel = quad_photon_continuum(tau, v0=1e-4).value
            n_from_modes = 2.0 * p.alpha / (3.0 * math.pi) * p_bar**2 * 2.0 * kernel
            assert n_from_modes == pytest.approx(
                fld.mean_photon_number(p, p_bar, t), rel=1e-6)


class TestMeanPhotonNumber:
    def test_zero_at_t0(self, default_params):
        assert fld.mean_photon_number(default_params, 0.3, 0.0) == 0.0

    def test_factor2_identity(self, default_params):
        # the dressing/decoherence link: <n> = 2 Gamma_vac pbar^2
        p = default_params
        for tau in (1e-3, 1.0, 1e4):
            t = p.seconds(tau)
            n = fld.mean_photon_number(p, 0.25, t)
            assert n == pytest.approx(
                2.0 * gamma_vac_factor(p, t) * 0.25**2, rel=1e-12)

    @given(st.floats(min_value=1e-4, max_value=1e6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_nondecreasing(self, tau):
        p = make_params()
        t = p.seconds(tau)
        assert fld.mean_photon_number(p, 0.2, 1.1 * t) >= fld.mean_photon_number(p, 0.2, t)

    def test_two_sharp_packets_add(self, default_params):
        # a superposition of two sharp packets carries the sum of the clouds
        p = default_params
        t = p.seconds(10.0)
        n1 = fld.mean_photon_number(p, 0.1, t)
        n2 = fld.mean_photon_number(p, 0.3, t)
        combined = fld.mean_photon_number(p, math.sqrt(0.1**2 + 0.3**2), t)
        assert combined == pytest.approx(n1 + n2, rel=1e-12)


class TestMeanFieldEnergy:
    def test_zero_at_t0(self, default_params):
        assert fld.mean_field_energy(default_params, 0.3, 0.0) == 0.0

    def test_mass_identity(self, default_params):
        # <E_F> = -(pbar^2/2m0)(delta_F m/m0) with delta_F m = -2 delta_m
        p = default_params
        for tau in (1e-2, 1.0, 1e3):
            t = p.seconds(tau)
            ef = fld.mean_field_energy(p, 0.4, t)
            kin = p.energy_si(0.5 * 0.4**2)
            dfm = -2.0 * obs.mass_shift(p, t)
            assert ef == pytest.approx(-kin * dfm / p.mass0, rel=1e-12)

    def test_bounded_by_saturation(self, default_params):
        # (8 alpha/3 pi)(hbar Omega/m0 c^2)(pbar^2/2 m0)
        p = default_params
        bound = p.energy_si(0.5 * 0.4**2) * 2.0 * (4 * p.alpha * p.epsilon / (3 * math.pi))
        for tau in (1e-2, 1.0, 1e2, 1e6):
            assert fld.mean_field_energy(p, 0.4, p.seconds(tau)) <= bound * (1 + 1e-14)

    def test_same_time_shape_as_mass_shift(self, default_params):
        # E_F(t)/E_F(inf) = delta_m(t)/delta_m(inf) exactly
        p = default_params
        sat = 4 * p.alpha * p.epsilon / (3 * math.pi) * p.mass0
        bound = p.energy_si(0.5 * 0.4**2) * 2.0 * sat / p.mass0
        for tau in (1e-2, 1.0, 37.0):
            t = p.seconds(tau)
            lhs = fld.mean_field_energy(p, 0.4, t) / bound
            rhs = obs.mass_shift(p, t) / sat
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(st.floats(min_value=1e-4, max_value=1e6))
    @settings(max_examples=40, deadline=None)
    def test_monotone_nondecreasing(self, tau):
        p = make_params()
        t = p.seconds(tau)
        assert fld.mean_field_energy(p, 0.2, 1.1 * t) >= fld.mean_field_energy(p, 0.2, t)
