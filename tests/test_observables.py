import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qed_decoherence import observables as obs
from qed_decoherence.decoherence import DecoherenceFactors
from qed_decoherence.densmat import GaussianPacket, rho_p_matrix, rho_r_matrix, width_t, z_factor
from qed_decoherence.params import thermal_time
from qed_decoherence.quadrature import QuadratureSpec, adaptive

from conftest import make_params
from reference import rho_p

EPS = 2.2e-16


def central_derivative(fn, t):
    """4th-order central difference with a two-pass optimal step.

    The first pass estimates the derivative with h = 1e-3 t; the second uses
    the roundoff/truncation balance h* = t (eps |f| / (48 |f'| t))^(1/5),
    which is what keeps the subtractive cancellation below 1e-6 when the
    derivative has decayed far below f/t (late-time acceleration).
    """
    def stencil(h):
        return (fn(t - 2 * h) - 8 * fn(t - h) + 8 * fn(t + h) - fn(t + 2 * h)) / (12 * h)

    d0 = stencil(1e-3 * t)
    if d0 == 0.0:
        return d0
    x = (EPS * abs(fn(t)) / (48.0 * abs(d0) * t)) ** 0.2
    return stencil(t * min(max(x, 1e-4), 0.08))


class TestMomentumWidth:
    def test_constant_in_time(self, default_params):
        for tau in (0.0, 1.0, 1e4):
            assert obs.snapshot(default_params, default_params.seconds(tau)).delta_p_t == 0.1

    def test_grid_second_moment(self, default_params):
        # 1-D slice: diagonal variance is delta_p^2/3
        pk = GaussianPacket.from_params(default_params)
        f = DecoherenceFactors.at_time(default_params, default_params.seconds(100.0))
        grid = np.linspace(0.1 - 0.8, 0.1 + 0.8, 6001)
        diag = np.real(np.diagonal(rho_p_matrix(grid, pk, f)))
        norm = np.trapezoid(diag, grid)
        mean = np.trapezoid(grid * diag, grid) / norm
        var = np.trapezoid((grid - mean) ** 2 * diag, grid) / norm
        assert math.sqrt(3.0 * var) == pytest.approx(0.1, abs=1e-8)


class TestCoherenceLengths:
    def test_lp_starts_at_delta_p(self, default_params):
        assert obs.snapshot(default_params, 0.0).l_p == 0.1

    def test_lp_late_time_asymptote(self):
        # l_p/delta_p ~ (3/(4 dp)) sqrt(pi tau_F/(alpha t)) for t >> t*
        p = make_params()
        tau_F = thermal_time(1.0)
        t_star = (3.0 / (4.0 * p.delta_p)) ** 2 * math.pi * tau_F / p.alpha
        t = 300.0 * t_star
        ratio = obs.snapshot(p, t).l_p / p.delta_p
        asym = (3.0 / (4.0 * p.delta_p)) * math.sqrt(math.pi * tau_F / (p.alpha * t))
        assert ratio == pytest.approx(asym, rel=2e-2)

    def test_lp_gaussian_fit_cross_check(self, fig3_params):
        # fit exp(-c u^2) along the anti-diagonal; l_p = sqrt(3/(8c))
        from qed_decoherence.oracle import fig3_time

        p = fig3_params
        t = fig3_time(p)
        pk = GaussianPacket.from_params(p)
        f = DecoherenceFactors.at_time(p, t)
        u = np.linspace(-0.05, 0.05, 41)
        vals = np.array([abs(
            np.exp(-3 * ((ui / 2) ** 2 + (ui / 2) ** 2) / (4 * pk.delta_p**2))
            * np.exp(-f.gamma * ui**2)) for ui in u])
        # reconstruct through the actual matrix elements for independence
        vals = np.array([abs(rho_p(ui / 2, -ui / 2, pk, f)) for ui in u]) / pk.norm
        c = -np.polyfit(u**2, np.log(vals), 1)[0]
        assert math.sqrt(3.0 / (8.0 * c)) == pytest.approx(
            obs.snapshot(p, t).l_p, rel=1e-2)

    def test_lr_starts_at_delta_r(self, default_params):
        p = default_params
        dr = p.length_si(p.delta_r_internal)
        assert obs.snapshot(p, 0.0).l_r == pytest.approx(dr, rel=1e-14)

    def test_lr_identity_with_lp(self, default_params):
        for tau in (1e-2, 1.0, 1e3, 1e6):
            t = default_params.seconds(tau)
            s = obs.snapshot(default_params, t)
            lhs = s.l_r / s.delta_r_t
            rhs = s.l_p / s.delta_p_t
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(st.floats(min_value=1e-2, max_value=1e6))
    @settings(max_examples=60, deadline=None)
    def test_dressed_coherence_length_below_free(self, tau):
        # interaction always loses space coherence relative to free evolution
        p = make_params(alpha=10.0)
        s = obs.snapshot(p, p.seconds(tau))
        assert s.l_r < s.delta_r_free

    @given(st.floats(min_value=1e-3, max_value=1e5))
    @settings(max_examples=60, deadline=None)
    def test_lp_nonincreasing(self, tau):
        p = make_params()
        t = p.seconds(tau)
        assert obs.snapshot(p, 1.05 * t).l_p <= obs.snapshot(p, t).l_p + 1e-18


class TestMeanMotion:
    def test_initial_values(self, default_params):
        s = obs.snapshot(default_params, 0.0)
        assert np.allclose(s.mean_q, 0.0)
        assert s.mean_v[0] == pytest.approx(0.1 * 299792458.0, rel=1e-12)
        assert np.allclose(s.accel, 0.0)

    def test_free_evolution_displacement(self):
        p = make_params(alpha=0.0, p0=(0.2, 0.0, 0.0))
        t = p.seconds(1e4)
        q = obs.snapshot(p, t).mean_q[0]
        assert q == pytest.approx(0.2 * 299792458.0 * t, rel=1e-12)

    def test_velocity_slows_by_mass_dressing(self, default_params):
        p = default_params
        v_late = obs.snapshot(p, p.seconds(1e4)).mean_v[0]
        drop = 1.0 - v_late / (0.1 * 299792458.0)
        assert drop == pytest.approx(obs.mass_shift(p, p.seconds(1e4)) / p.mass0, rel=1e-10)

    def test_displacement_derivative_is_velocity(self, default_params):
        p = default_params
        for tau in np.geomspace(1e-3, 1e6, 10):
            t = p.seconds(tau)
            fd = central_derivative(lambda s: obs.snapshot(p, s).mean_q[0], t)
            assert fd == pytest.approx(obs.snapshot(p, t).mean_v[0], rel=1e-6)

    def test_velocity_derivative_is_acceleration(self, default_params):
        # grid bounded at tau ~ 30: beyond that the derivative is so far below
        # v/t that double precision cannot resolve it to 1e-6 by differencing
        p = default_params
        for tau in np.geomspace(1e-2, 30.0, 9):
            t = p.seconds(tau)
            fd = central_derivative(lambda s: obs.snapshot(p, s).mean_v[0], t)
            assert fd == pytest.approx(obs.snapshot(p, t).accel[0], rel=1e-6)

    @pytest.mark.parametrize("tau", [1e6, 1e80, 1e160])
    def test_late_acceleration_finite(self, default_params, tau):
        # shape 2 tau/(1 + tau^2)^2; (1 + tau^2)^2 itself overflows past ~1e77
        p = default_params
        with mp.workdps(50):
            shape = float(2 * mp.mpf(tau) / (1 + mp.mpf(tau) ** 2) ** 2)
        want = -2.0 * 2.0 * p.alpha / (3.0 * math.pi) * p.epsilon * shape * 0.1 \
            * p.omega_cut * 299792458.0
        assert obs.snapshot(p, p.seconds(tau)).accel[0] == pytest.approx(
            want, rel=1e-14, abs=1e-300)


class TestMass:
    def test_quadratic_early_branch(self, default_params):
        p = default_params
        tau = 1e-4
        dm = obs.mass_shift(p, p.seconds(tau))
        sat = 4 * p.alpha * p.epsilon / (3 * math.pi) * p.mass0
        assert dm == pytest.approx(sat * tau**2, rel=1e-7)

    def test_saturation(self, default_params):
        p = default_params
        dm = obs.mass_shift(p, p.seconds(1e6))
        sat = 4 * p.alpha * p.epsilon / (3 * math.pi) * p.mass0
        assert dm == pytest.approx(sat, rel=1e-11)

    @given(st.floats(min_value=1e-4, max_value=1e8))
    @settings(max_examples=60, deadline=None)
    def test_mass_bound(self, tau):
        p = make_params()
        m = obs.snapshot(p, p.seconds(tau)).mass_t
        sat = 4 * p.alpha * p.epsilon / (3 * math.pi) * p.mass0
        assert p.mass0 <= m <= p.mass0 + sat

    def test_inv_mass_continuity_at_zero(self, default_params):
        assert obs.snapshot(default_params, 0.0).inv_mass_avg == pytest.approx(
            1.0 / default_params.mass0, rel=1e-14)

    def test_inv_mass_average_vs_quadrature(self, default_params):
        # -2 hbar Phi/t equals (1/t) int dt'/m(t') to first order in dm/m0;
        # mismatch must stay below max(1e-6, few x (dm/m0)^2)
        p = default_params
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-30)
        dm_rel = 4 * p.alpha * p.epsilon / (3 * math.pi)
        tol = max(1e-6, 3.0 * dm_rel**2)
        for tau in (1e-2, 1.0, 1e2, 1e4):
            t = p.seconds(tau)
            quad = adaptive(
                lambda s: 1.0 / obs.snapshot(p, s).mass_t,
                0.0, t, spec).value / t
            closed = obs.snapshot(p, t).inv_mass_avg
            assert closed == pytest.approx(quad, rel=tol)

    def test_inv_mass_first_order_mismatch_scales(self):
        # at alpha = 50 the (dm/m0)^2 mismatch is visible; both values surface
        p = make_params(alpha=50.0)
        t = p.seconds(1e3)
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-30)
        quad = adaptive(
            lambda s: 1.0 / obs.snapshot(p, s).mass_t,
            0.0, t, spec).value / t
        closed = obs.snapshot(p, t).inv_mass_avg
        dm_rel = 4 * p.alpha * p.epsilon / (3 * math.pi)
        mismatch = abs(closed - quad) / quad
        assert mismatch < 3.0 * dm_rel**2
        assert mismatch > 0.01 * dm_rel**2


class TestSpatialWidth:
    def test_free_case_matches_exactly_at_alpha0(self):
        p = make_params(alpha=0.0)
        for tau in (1e-2, 1.0, 1e4):
            s = obs.snapshot(p, p.seconds(tau))
            assert s.delta_r_t == pytest.approx(s.delta_r_free, rel=1e-14)

    def test_width_equals_3d2Z(self, default_params):
        p = default_params
        pk = GaussianPacket.from_params(p)
        for tau in (1e-2, 1.0, 1e3, 1e6):
            f = DecoherenceFactors.at_time(p, p.seconds(tau))
            direct = obs.snapshot(p, p.seconds(tau)).delta_r_t
            viaz = p.length_si(math.sqrt(3.0 * pk.d**2 * z_factor(pk, f)))
            assert direct == pytest.approx(viaz, rel=1e-12)

    def test_grid_variance_of_rho_r_diagonal(self, fig3_params):
        from qed_decoherence.oracle import fig3_time

        p = fig3_params
        t = fig3_time(p)
        pk = GaussianPacket.from_params(p)
        f = DecoherenceFactors.at_time(p, t)
        w = width_t(pk, f)
        grid = np.linspace(-9 * w / math.sqrt(3), 9 * w / math.sqrt(3), 8001)
        diag = np.real(np.diagonal(rho_r_matrix(grid, pk, f)))
        norm = np.trapezoid(diag, grid)
        mean = np.trapezoid(grid * diag, grid) / norm
        var = np.trapezoid((grid - mean) ** 2 * diag, grid) / norm
        # 1-D component variance is delta_r(t)^2/3
        assert math.sqrt(3.0 * var) == pytest.approx(w, rel=1e-6)

    def test_early_widths_exceed_free_late_widths_fall_below(self):
        # small times: the decoherence term wins (O(tau^2) vs O(tau^4) mass
        # drag); large times: the dressed mass slows the spread below free
        p = make_params(alpha=50.0)
        early = obs.snapshot(p, p.seconds(0.3))
        assert early.delta_r_t > early.delta_r_free
        late = obs.snapshot(p, p.seconds(2e5))
        assert late.delta_r_t < late.delta_r_free


class TestLinearEntropy:
    def test_pure_at_t0(self, default_params):
        assert obs.linear_entropy(default_params, 0.0) == 0.0

    def test_identity_with_coherence_ratios(self, default_params):
        p = default_params
        for tau in (1e-2, 1.0, 1e3, 1e6):
            t = p.seconds(tau)
            s = obs.linear_entropy(p, t)
            snap = obs.snapshot(p, t)
            assert s == pytest.approx(1.0 - snap.l_p / snap.delta_p_t, abs=1e-12)
            assert s == pytest.approx(1.0 - snap.l_r / snap.delta_r_t, abs=1e-12)

    def test_quadratic_small_t(self, default_params):
        p = default_params
        t1, t2 = p.seconds(1e-4), p.seconds(2e-4)
        assert obs.linear_entropy(p, t2) / obs.linear_entropy(p, t1) == pytest.approx(
            4.0, rel=1e-3)

    def test_one_minus_s_falls_like_inv_sqrt_t(self):
        p = make_params(alpha=10.0)
        tau_F = thermal_time(1.0)
        r1 = 1.0 - obs.linear_entropy(p, 4e3 * tau_F)
        r2 = 1.0 - obs.linear_entropy(p, 1.6e4 * tau_F)
        assert r1 / r2 == pytest.approx(2.0, rel=2e-2)

    @given(st.floats(min_value=1e-3, max_value=1e5))
    @settings(max_examples=60, deadline=None)
    def test_monotone_nondecreasing(self, tau):
        p = make_params()
        t = p.seconds(tau)
        assert obs.linear_entropy(p, 1.05 * t) >= obs.linear_entropy(p, t) - 1e-15


class TestRadiation:
    def test_acceleration_zero_at_t0(self, default_params):
        assert np.allclose(obs.snapshot(default_params, 0.0).accel, 0.0)

    def test_brems_alpha_cubed_scaling(self, default_params):
        tau = 3.0
        p1 = make_params(alpha=0.01)
        p2 = make_params(alpha=0.04)
        t1 = p1.seconds(tau)
        r = obs.snapshot(p2, t1).brems_power / obs.snapshot(p1, t1).brems_power
        assert r == pytest.approx(4.0**3, rel=1e-12)

    def test_snapshot_consistency(self, default_params):
        t = default_params.seconds(12.0)
        s = obs.snapshot(default_params, t)
        assert s.mass_t == pytest.approx(default_params.mass0 + s.delta_m, rel=1e-14)
        assert s.mean_v_mag == pytest.approx(abs(s.mean_v[0]), rel=1e-14)
        assert s.s_lin == pytest.approx(1.0 - s.l_p / s.delta_p_t, abs=1e-12)
        assert s.brems_power >= 0.0
