import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qed_decoherence import decoherence as dec
from qed_decoherence.decoherence import (
    DecoherenceFactors,
    gamma_th_factor,
    gamma_vac_factor,
    phase_factor,
    spectral_density,
)
from qed_decoherence.params import thermal_time, vacuum_thermal_crossover

from conftest import make_params


def phase_of(params, p, t_seconds):
    """Single-momentum phase (2a/3pi) p^2 (tau - arctan tau): p^2 times the
    interaction part of Phi, in radians."""
    return dec.coupling_scale(params.alpha) * p * p * dec.tau_minus_arctan(params.tau(t_seconds))


class TestGammaVac:
    def test_zero_at_t0(self, default_params):
        assert gamma_vac_factor(default_params, 0.0) == 0.0

    def test_quadratic_small_t_branch(self, default_params):
        # Gamma_vac ~ (2a/3pi) tau^2/2 for tau << 1
        p = default_params
        t = p.seconds(1e-3)
        quad = dec.coupling_scale(p.alpha) * 0.5 * 1e-6
        assert gamma_vac_factor(p, t) == pytest.approx(quad, rel=1e-6)

    def test_scales_linearly_with_alpha(self, default_params):
        p2 = make_params(alpha=2 * default_params.alpha)
        t = default_params.seconds(7.0)
        assert gamma_vac_factor(p2, t) == pytest.approx(
            2 * gamma_vac_factor(default_params, t), rel=1e-14)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing(self, tau):
        p = make_params()
        t = p.seconds(tau)
        assert gamma_vac_factor(p, 1.01 * t) >= gamma_vac_factor(p, t)


class TestGammaTh:
    def test_zero_at_t0_and_T0(self, default_params):
        assert gamma_th_factor(default_params, 0.0) == 0.0
        p0 = make_params(temperature=0.0)
        assert gamma_th_factor(p0, p0.seconds(1e5)) == 0.0

    def test_late_linear_branch(self):
        # ln[sinh x / x] -> x - ln(2x) for large x
        p = make_params(temperature=300.0)
        x = 50.0
        t = thermal_time(300.0) * x
        expected = dec.coupling_scale(p.alpha) * (x - math.log(2 * x))
        assert gamma_th_factor(p, t) == pytest.approx(expected, rel=1e-12)

    def test_overflow_safe_to_1e6_tau_F(self):
        p = make_params(temperature=300.0)
        t = thermal_time(300.0) * 1e6
        g = gamma_th_factor(p, t)
        assert math.isfinite(g)
        assert g == pytest.approx(dec.coupling_scale(p.alpha) * (1e6 - math.log(2e6)),
                                  rel=1e-12)

    def test_warns_when_kT_not_small(self):
        p = make_params(temperature=1e6)  # k_B T/hbar Omega ~ 0.013
        with pytest.warns(UserWarning, match="hbar Omega"):
            gamma_th_factor(p, p.seconds(1.0))

    def test_additivity_is_exact(self, default_params):
        t = default_params.seconds(123.0)
        assert DecoherenceFactors.at_time(default_params, t).gamma == gamma_vac_factor(
            default_params, t) + gamma_th_factor(default_params, t)


class TestLogSinhc:
    def test_series_branch_matches_log(self):
        for x in (1e-4, 5e-4, 9.99e-4):
            assert dec.log_sinhc(x) == pytest.approx(math.log(math.sinh(x) / x), rel=1e-10)

    def test_branches_agree_at_junction(self):
        # both formulas evaluated at the same x, either side of the switch
        for x in (19.5, 20.5):
            direct = math.log(math.sinh(x) / x)
            safe = x - math.log(2 * x) + math.log1p(-math.exp(-2 * x))
            assert dec.log_sinhc(x) == pytest.approx(direct, rel=1e-13)
            assert dec.log_sinhc(x) == pytest.approx(safe, rel=1e-13)

    def test_no_overflow_at_1e6(self):
        assert dec.log_sinhc(1e6) == pytest.approx(1e6 - math.log(2e6), rel=1e-12)

    @pytest.mark.parametrize("x", [1e-4, 1.0001e-3, 1e-2, 0.1, 0.5, 1.0, 19.5, 20.5])
    def test_matches_mpmath_across_branches(self, x):
        # 50-digit reference on both sides of the x = 1 and x = 20 switches;
        # near 1e-3 a plain ln(sinh(x)/x) keeps only ~1e-9 of the value
        with mp.workdps(50):
            ref = mp.log(mp.sinh(mp.mpf(x)) / mp.mpf(x))
        assert dec.log_sinhc(x) == pytest.approx(float(ref), rel=1e-14, abs=0.0)


class TestTauMinusArctan:
    @pytest.mark.parametrize("tau", [*np.geomspace(1e-4, 1e3, 57), 1e-2 * (1 - 1e-12),
                                     1e-2 * (1 + 1e-12), 0.3 * (1 - 1e-15), 0.3,
                                     0.3 * (1 + 1e-15)])
    def test_matches_mpmath(self, tau):
        # 50-digit reference over [1e-4, 1e3], both sides of the old tau = 1e-2
        # join and the tau = 0.3 series join
        with mp.workdps(50):
            ref = mp.mpf(float(tau)) - mp.atan(mp.mpf(float(tau)))
        assert dec.tau_minus_arctan(float(tau)) == pytest.approx(float(ref), rel=1e-14, abs=0.0)


class TestLargeTauKernels:
    @pytest.mark.parametrize("tau", [1.0, 1e8 * (1 - 1e-15), 1e8, 1e77, 1e154, 1e160, 1e300])
    def test_match_mpmath_past_tau_squared_overflow(self, tau):
        with mp.workdps(50):
            t = mp.mpf(tau)
            refs = (mp.log(mp.sqrt(1 + t * t)), t * t / (1 + t * t),
                    2 * t / (1 + t * t) ** 2)
        for kernel, ref in zip((dec.log_sqrt_one_plus_sq, dec.lorentz_weight,
                                dec.lorentz_weight_slope), refs):
            # the slope underflows to 0 past tau ~ 1e103, as its value does
            assert kernel(tau) == pytest.approx(float(ref), rel=1e-14, abs=1e-300)


class TestPhase:
    def test_zero_at_t0(self, default_params):
        assert phase_factor(default_params, 0.0) == 0.0

    def test_free_evolution_limit(self):
        # alpha = 0: Phi = -t/(2 m0 hbar), i.e. -tau/(2 epsilon) internally
        p = make_params(alpha=0.0)
        tau = 37.0
        assert phase_factor(p, p.seconds(tau)) == pytest.approx(
            -0.5 * tau / p.epsilon, rel=1e-14)

    def test_small_t_cubic_interaction_part(self, default_params):
        p = default_params
        tau = 1e-3
        interaction = phase_factor(p, p.seconds(tau)) + 0.5 * tau / p.epsilon
        cubic = dec.coupling_scale(p.alpha) * tau**3 / 3.0
        assert interaction == pytest.approx(cubic, rel=1e-6)

    def test_xi_zero_momentum(self, default_params):
        for tau in (0.1, 10.0, 1e4):
            assert phase_of(default_params, 0.0, default_params.seconds(tau)) == 0.0

    @given(st.floats(min_value=-0.8, max_value=0.8),
           st.floats(min_value=-0.8, max_value=0.8),
           st.floats(min_value=1e-3, max_value=1e5))
    @settings(max_examples=60, deadline=None)
    def test_xi_difference_depends_only_on_energy_difference(self, pa, pb, tau):
        # phase_of(p) - phase_of(p') must be a function of p^2 - p'^2 alone; keep the
        # energy difference large enough that the shifted pair represents it
        assume(abs(pa * pa - pb * pb) > 1e-4)
        p = make_params()
        t = p.seconds(tau)
        d1 = phase_of(p, pa, t) - phase_of(p, pb, t)
        shift = 0.3
        pa2 = math.sqrt(pa * pa + shift)
        pb2 = math.sqrt(pb * pb + shift)
        d2 = phase_of(p, pa2, t) - phase_of(p, pb2, t)
        assert d1 == pytest.approx(d2, rel=1e-9)

    def test_xi_consistent_with_phase_interaction_part(self, default_params):
        p = default_params
        t = p.seconds(42.0)
        pa, pb = 0.4, 0.15
        lhs = phase_of(p, pa, t) - phase_of(p, pb, t)
        rhs = (phase_factor(p, t) + 0.5 * p.tau(t) / p.epsilon) * (pa**2 - pb**2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSpectralDensity:
    def test_zero_at_zero_frequency(self, default_params):
        assert spectral_density(default_params, 0.0, 0.2) == 0.0

    def test_ohmic_linear_below_cutoff(self, default_params):
        p = default_params
        j1 = spectral_density(p, 1e12, 0.2)
        j2 = spectral_density(p, 2e12, 0.2)
        assert j2 / j1 == pytest.approx(2.0, rel=1e-6)

    def test_quadratic_in_momentum_difference(self, default_params):
        p = default_params
        assert spectral_density(p, 1e15, 0.4) == pytest.approx(
            4.0 * spectral_density(p, 1e15, 0.2), rel=1e-14)


class TestCrossoverInvariant:
    def test_vac_equals_th_at_tau_p(self, default_params):
        tp = vacuum_thermal_crossover(default_params.omega_cut, thermal_time(1.0))
        gv = gamma_vac_factor(default_params, tp)
        gt = gamma_th_factor(default_params, tp)
        assert abs(gv - gt) / gv < 1e-8

    def test_vacuum_dominates_before_thermal_after(self, default_params):
        tp = vacuum_thermal_crossover(default_params.omega_cut, thermal_time(1.0))
        assert gamma_vac_factor(default_params, 0.3 * tp) > gamma_th_factor(
            default_params, 0.3 * tp)
        assert gamma_vac_factor(default_params, 3.0 * tp) < gamma_th_factor(
            default_params, 3.0 * tp)


class TestRegimes:
    """The asymptotes of the factors in each time regime, with
    scale = coupling_scale(alpha)."""

    def test_early_branch_one_percent(self, default_params):
        # t << 1/Omega: Gamma ~ scale tau^2/2
        p = default_params
        tau = 1e-3
        assert dec.coupling_scale(p.alpha) * tau**2 / 2 == pytest.approx(
            DecoherenceFactors.at_time(p, p.seconds(tau)).gamma, rel=1e-2)

    def test_intermediate_branch_two_percent(self, default_params):
        # 1/Omega << t << tau_F: Gamma ~ scale ln tau
        p = default_params
        tau = 1e3  # well below tau_F = 2.4e7/Omega
        assert dec.coupling_scale(p.alpha) * math.log(tau) == pytest.approx(
            DecoherenceFactors.at_time(p, p.seconds(tau)).gamma, rel=2e-2)

    def test_late_branch_two_percent_vs_thermal(self, default_params):
        # t >> tau_F: Gamma_th ~ scale t/tau_F; ln(2x)/x < 2% needs x >= ~500
        p = default_params
        t = thermal_time(1.0) * 1e3
        assert dec.coupling_scale(p.alpha) * t / thermal_time(1.0) == pytest.approx(
            gamma_th_factor(p, t), rel=2e-2)

    def test_phi_branches(self, default_params):
        # Phi ~ scale tau^3/3 - tau/2 epsilon early, scale tau - tau/2 epsilon late
        p = default_params
        scale = dec.coupling_scale(p.alpha)
        tau = 1e-3
        assert scale * tau**3 / 3 - tau / (2 * p.epsilon) == pytest.approx(
            phase_factor(p, p.seconds(tau)), rel=1e-6)
        # interaction parts: tau branch within 2% at tau = 100 (arctan -> pi/2)
        tau = 100.0
        free = 0.5 * tau / p.epsilon
        approx_int = scale * tau - tau / (2 * p.epsilon) + free
        exact_int = phase_factor(p, p.seconds(tau)) + free
        assert approx_int == pytest.approx(exact_int, rel=2e-2)


class TestFactorBundle:
    def test_bundle_consistency(self, default_params):
        t = default_params.seconds(55.0)
        f = DecoherenceFactors.at_time(default_params, t)
        assert f.gamma == f.gamma_vac + f.gamma_th
        assert f.t == pytest.approx(55.0, rel=1e-14)
        assert f.gamma_vac >= 0.0 and f.gamma_th >= 0.0

    def test_free_bundle(self, default_params):
        f = DecoherenceFactors.at_time(default_params, 0.0)
        assert f.gamma == 0.0 and f.phi == 0.0

    def test_smooth_and_finite_over_wide_scan(self, default_params):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            taus = np.geomspace(1e-8, 1e6 * default_params.theta / math.pi, 60)
            vals = [DecoherenceFactors.at_time(default_params,
                                               default_params.seconds(tau)).gamma
                    for tau in taus]
        assert all(math.isfinite(v) for v in vals)
        assert all(b >= a * (1 - 1e-14) for a, b in zip(vals, vals[1:]))
