import dataclasses
import math

import numpy as np
import pytest

from qed_decoherence import cli
from qed_decoherence import decoherence as dec
from qed_decoherence import oracle
from qed_decoherence.decoherence import DecoherenceFactors
from qed_decoherence.densmat import GaussianPacket, rho_r_matrix
from qed_decoherence.oracle import (
    GridResolutionError,
    ORACLE_CHECKS,
    OracleReport,
    default_transform_grids,
    fig3_time,
    fourier_rho_r,
    quad_field_energy,
    quad_gamma_th,
    quad_gamma_total,
    quad_gamma_vac,
    quad_phase,
    quad_photon,
    run_all,
    transform_consistency,
)
from qed_decoherence.params import DomainError
from qed_decoherence.quadrature import QuadratureSpec

from conftest import make_params

TAUS = np.geomspace(1e-3, 1e6, 25)


class TestFrequencyOracles:
    def test_gamma_vac_grid(self):
        for tau in TAUS:
            r = quad_gamma_vac(tau)
            exact = dec.log_sqrt_one_plus_sq(tau)
            assert abs(r.value - exact) <= 1e-8 * abs(exact), f"tau={tau}"

    def test_phase_grid(self):
        for tau in TAUS:
            r = quad_phase(tau)
            exact = dec.tau_minus_arctan(tau)
            assert abs(r.value - exact) <= 1e-8 * abs(exact), f"tau={tau}"

    def test_phase_large_tau_asymptote(self):
        # tau - arctan tau -> tau - pi/2
        r = quad_phase(1e6)
        assert r.value == pytest.approx(1e6 - math.pi / 2, rel=1e-10)

    def test_photon_grid(self):
        for tau in TAUS[::3]:
            r = quad_photon(tau)
            assert r.value == pytest.approx(math.log1p(tau * tau) / 2.0, rel=1e-8)

    def test_field_energy_grid(self):
        for tau in TAUS[::3]:
            r = quad_field_energy(tau)
            assert r.value == pytest.approx(dec.lorentz_weight(tau), rel=1e-8)

    def test_gamma_th_at_theta_1e4(self):
        # approximation-limited: the closed form drops O(k_BT/hbar Omega) terms
        theta = 1e4
        for x in np.geomspace(1e-2, 1e3, 13):
            tau = x * theta / math.pi
            r = quad_gamma_th(tau, theta)
            closed = dec.log_sinhc(x)
            assert abs(r.value - closed) <= 1e-3 * abs(closed), f"x={x}"

    def test_gamma_th_deviation_visible_at_theta_10(self):
        # quadrature is ground truth where the closed form degrades
        theta = 10.0
        tau = 100.0 * theta / math.pi
        r = quad_gamma_th(tau, theta)
        closed = dec.log_sinhc(100.0)
        rel = abs(r.value - closed) / closed
        assert rel > 1e-3   # measurable deviation, reported not asserted away

    def test_gamma_th_vanishes_at_T0(self):
        r = quad_gamma_th(10.0, math.inf)
        assert r.value == 0.0

    def test_gamma_total_reconstructs_full_factor(self, default_params):
        theta = default_params.theta
        for tau in TAUS[::4]:
            r = quad_gamma_total(tau, theta)
            closed = dec.log_sqrt_one_plus_sq(tau) + dec.log_sinhc(math.pi * tau / theta)
            assert r.value == pytest.approx(closed, rel=1e-6)

    def test_spectral_density_route_matches_gamma(self, default_params):
        # Gamma^{pp'} = int J(w)(1-cos wt) coth/w^2: the J prefactor carries
        # (2a/3pi) dp^2, the quadrature carries the rest
        p = default_params
        dp = 0.2
        tau = 50.0
        t = p.seconds(tau)
        kernel = quad_gamma_total(tau, p.theta).value
        gamma_pp = dec.coupling_scale(p.alpha) * dp**2 * kernel
        closed = (dec.gamma_vac_factor(p, t) + dec.gamma_th_factor(p, t)) * dp**2
        assert gamma_pp == pytest.approx(closed, rel=1e-6)

    def test_requires_positive_time(self):
        with pytest.raises(DomainError):
            quad_gamma_vac(0.0)

    def test_tail_bounds_negligible(self):
        for tau in (1e-3, 1.0, 1e5):
            r = quad_gamma_vac(tau)
            assert r.tail_bound < 1e-20
        assert quad_phase(1e6).tail_bound < 1e6 * math.exp(-50.0) * 1.01

    @pytest.mark.parametrize("name, tau, args, panels", [
        ("quad_gamma_vac", 0.37, (), 10),
        ("quad_gamma_vac", 30.0, (), 50),
        ("quad_gamma_vac", 1e4, (), 75),
        ("quad_phase", 3.0, (), 58),
        ("quad_phase", 1e4, (), 54),
        ("quad_field_energy", 1e3, (), 20),
        ("quad_gamma_th", 30.0, (1e4,), 34),
        ("quad_gamma_total", 1e3, (37.0,), 60),
    ])
    def test_deterministic_with_fixed_panel_counts(self, name, tau, args, panels):
        a = getattr(oracle, name)(tau, *args)
        b = getattr(oracle, name)(tau, *args)
        assert (a.value, a.error, a.panels) == (b.value, b.error, b.panels)
        assert a.panels == panels

    def test_convergence_monotonicity(self):
        loose = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-9)
        tight = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16)
        tau = 5.62
        exact = dec.log_sqrt_one_plus_sq(tau)
        e_loose = abs(quad_gamma_vac(tau, loose).value - exact)
        e_tight = abs(quad_gamma_vac(tau, tight).value - exact)
        assert e_tight <= e_loose
        assert e_tight <= 1e-10 * exact


class TestTransformOracle:
    def test_t0_reproduces_initial(self, fig3_params):
        packet = GaussianPacket.from_params(fig3_params)
        f0 = DecoherenceFactors.at_time(fig3_params, 0.0)
        res = transform_consistency(packet, f0, n_p=1024)
        assert res["max_deviation_over_peak"] <= 1e-6
        assert res["stability_over_peak"] <= 1e-7

    def test_decohered_time_matches_closed_form(self, fig3_params):
        packet = GaussianPacket.from_params(fig3_params)
        f = DecoherenceFactors.at_time(fig3_params, fig3_time(fig3_params))
        res = transform_consistency(packet, f, n_p=1024)
        assert res["max_deviation_over_peak"] <= 1e-6
        assert res["stability_over_peak"] <= 1e-7

    def test_under_resolution_detected(self, fig3_params):
        # 48 momentum points cannot carry the chirp phase at 3 tau_vac
        packet = GaussianPacket.from_params(fig3_params)
        f = DecoherenceFactors.at_time(fig3_params, fig3_time(fig3_params))
        with pytest.raises(GridResolutionError):
            transform_consistency(packet, f, n_p=48)

    def test_moments_match_closed_forms(self, fig3_params):
        # <q> and <q^2> from the transformed diagonal vs -2 p0 Phi and d^2 Z
        p = dataclasses.replace(fig3_params, p0=(0.05, 0.0, 0.0), v0=None)
        packet = GaussianPacket.from_params(p)
        f = DecoherenceFactors.at_time(p, fig3_time(p))
        p_grid, q_grid = default_transform_grids(packet, f, n_p=2048, n_q=801)
        m = fourier_rho_r(packet, f, p_grid, q_grid)
        diag = np.real(np.diagonal(m))
        norm = np.trapezoid(diag, q_grid)
        mean = np.trapezoid(q_grid * diag, q_grid) / norm
        second = np.trapezoid(q_grid**2 * diag, q_grid) / norm
        mean_closed = -2.0 * f.phi * 0.05
        var_closed = packet.d**2 * (1 + 2 * f.gamma / packet.d**2 + (f.phi / packet.d**2) ** 2)
        second_closed = var_closed + mean_closed**2
        assert norm == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(mean_closed, rel=1e-6)
        assert second == pytest.approx(second_closed, rel=1e-6)

    def test_hermiticity_of_numeric_transform(self, fig3_params):
        packet = GaussianPacket.from_params(fig3_params)
        f = DecoherenceFactors.at_time(fig3_params, fig3_time(fig3_params))
        p_grid, q_grid = default_transform_grids(packet, f, n_p=512, n_q=41)
        m = fourier_rho_r(packet, f, p_grid, q_grid)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12 * np.max(np.abs(m))

    def test_nonzero_r0_consistent(self, fig3_params):
        # the packet's r0 phase must cancel against the transform phases
        p = dataclasses.replace(fig3_params, r0=(0.5, 0.0, 0.0))
        packet = GaussianPacket.from_params(p)
        f = DecoherenceFactors.at_time(p, fig3_time(p))
        p_grid, q_grid = default_transform_grids(packet, f, n_p=1024, n_q=101)
        numeric = fourier_rho_r(packet, f, p_grid, q_grid)
        closed = rho_r_matrix(q_grid, packet, f)
        peak = np.max(np.abs(closed))
        assert np.max(np.abs(numeric - closed)) <= 1e-6 * peak


class TestRunAll:
    def test_all_pass_on_default_params(self, default_params):
        t_grid = [default_params.seconds(tau) for tau in np.geomspace(1e-3, 1e6, 9)]
        reports = run_all(default_params, t_grid)
        failed = [r.quantity for r in reports if not r.passed]
        assert not failed, failed

    def test_coverage_enumeration(self, default_params):
        # every registered closed form shows up exactly once per run (transform
        # reports appear twice: both figure times)
        t_grid = [default_params.seconds(tau) for tau in np.geomspace(1e-2, 1e4, 5)]
        fig3 = make_params(alpha=150.0, p0=(0.0, 0.0, 0.0), delta_p=0.1)
        reports = run_all(default_params, t_grid, include_transform=True,
                          transform_params=fig3)
        seen = {r.quantity for r in reports}
        assert seen == set(ORACLE_CHECKS)

    def test_honest_error_detection(self, default_params, monkeypatch):
        # a 1e-6 perturbation injected into a closed form must be flagged
        t_grid = [default_params.seconds(tau) for tau in np.geomspace(1e-2, 1e4, 5)]
        real = dec.log_sqrt_one_plus_sq
        monkeypatch.setattr(dec, "log_sqrt_one_plus_sq",
                            lambda tau: real(tau) * (1.0 + 1e-6))
        reports = run_all(default_params, t_grid)
        by_name = {r.quantity: r for r in reports}
        assert not by_name["gamma_vac"].passed

    def test_failures_collected_not_raised(self, default_params, monkeypatch):
        real = dec.tau_minus_arctan
        monkeypatch.setattr(dec, "tau_minus_arctan", lambda tau: real(tau) * 1.1)
        t_grid = [default_params.seconds(1.0)]
        reports = run_all(default_params, t_grid)
        assert any(not r.passed for r in reports)
        assert any(r.passed for r in reports)

    def test_vacuum_integral_shared_by_gamma_vac_and_photon_number(
            self, default_params, monkeypatch):
        calls, photon_calls = [], []
        real_vac, real_photon = oracle.quad_gamma_vac, oracle.quad_photon
        monkeypatch.setattr(oracle, "quad_gamma_vac",
                            lambda tau, spec: calls.append(tau) or real_vac(tau, spec))
        monkeypatch.setattr(oracle, "quad_photon",
                            lambda tau, spec: photon_calls.append(tau) or real_photon(tau, spec))
        t_grid = [default_params.seconds(tau) for tau in np.geomspace(1e-2, 1e4, 5)]
        reports = {r.quantity: r for r in run_all(default_params, t_grid)}
        assert len(calls) == len(set(calls)) == 5
        # quad_photon is left to the continuum sum, at Doppler-shifted taus only
        assert photon_calls and not set(photon_calls) & set(calls)
        vac, photon = reports["gamma_vac"], reports["photon_number"]
        assert vac.passed and photon.passed
        assert photon.tolerance == ORACLE_CHECKS["photon_number"][1]
        assert (photon.oracle, photon.panels) == (vac.oracle, vac.panels)

    def test_unconverged_oracle_is_a_failure(self, default_params, monkeypatch, capsys):
        # every frequency oracle leaves its cycle sums to oscillatory at tau = 1e3
        real = oracle.oscillatory
        monkeypatch.setattr(oracle, "oscillatory",
                            lambda *a, **kw: dataclasses.replace(real(*a, **kw), converged=False))
        t_grid = [default_params.seconds(tau) for tau in (1.0, 1e3)]
        reports = {r.quantity: r for r in run_all(default_params, t_grid)}
        for quantity in ("gamma_vac", "phase_xi", "photon_number", "field_energy", "gamma_th",
                         "gamma_total_spectral", "photon_continuum"):
            assert not reports[quantity].passed, quantity
            assert "did not converge at tau = 1000" in reports[quantity].detail, quantity
        assert reports["factor2_identity"].passed
        assert cli.main(["verify"]) == cli.EXIT_VERIFY
        assert "did not converge" in capsys.readouterr().out

    def test_t0_branch(self):
        p0 = make_params(temperature=0.0)
        t_grid = [p0.seconds(tau) for tau in (1e-2, 1.0, 1e2)]
        reports = run_all(p0, t_grid)
        assert all(r.passed for r in reports)
        assert "gamma_th" not in {r.quantity for r in reports}

    def test_hot_bath_tolerances_scale_with_validity(self):
        # the thermal closed form deviates like ~1/theta; run_all must stay
        # honest (tolerance anchored at 1e-3 for theta = 1e4) without crying
        # wolf at hot-bath parameters
        from qed_decoherence.oracle import thermal_tolerance

        assert thermal_tolerance(1e4, 1e-7) == pytest.approx(1e-3)
        assert thermal_tolerance(math.inf, 1e-7) == 1e-7
        p = make_params(temperature=1e5)   # theta ~ 764
        t_grid = [p.seconds(tau) for tau in np.geomspace(1e-2, 1e5, 5)]
        reports = run_all(p, t_grid)
        assert all(r.passed for r in reports), [
            (r.quantity, r.rel_err) for r in reports if not r.passed]


class TestOracleReport:
    def test_pass_relative(self):
        r = OracleReport.compare("x", 2.0, 2.0 + 1e-10, 1e-8, 3)
        assert r.passed and r.rel_err == pytest.approx(5e-11)

    def test_fail_relative(self):
        r = OracleReport.compare("x", 2.0, 2.0 + 1e-6, 1e-8, 3)
        assert not r.passed

    def test_near_zero_uses_absolute_floor(self):
        r = OracleReport.compare("x", 0.0, 5e-14, 1e-8, 1)
        assert r.passed
        r2 = OracleReport.compare("x", 0.0, 5e-9, 1e-8, 1)
        assert not r2.passed
