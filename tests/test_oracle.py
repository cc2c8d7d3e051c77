import dataclasses
import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qed_decoherence import cli, densmat
from qed_decoherence import field as fieldmod
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
    quad_photon_continuum,
    run_all,
    transform_consistency,
)
from qed_decoherence.params import DomainError
from qed_decoherence.quadrature import QuadratureSpec

from conftest import make_params
from reference import dense_fourier_rho_r, photon_continuum_sum

TAUS = np.geomspace(1e-3, 1e6, 25)
# tau of the frequency oracles' bit-identity set
GATE_TAUS = sorted({*np.geomspace(1e-3, 1e6, 29).tolist(), 0.37, 3.0, 30.0, 1e3, 1e4})


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

    def test_gamma_total_at_T0_is_the_vacuum_integral_bit_for_bit(self):
        # coth = 1 at theta = inf: the general weight and head give the vacuum bits
        def bits(r):
            return (r.value.hex(), r.error.hex(), float(r.tail_bound).hex(), r.panels,
                    r.converged)

        for tau in GATE_TAUS:
            assert bits(quad_gamma_total(tau, math.inf)) == bits(quad_gamma_vac(tau)), tau

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

    def test_convergence_monotonicity(self, monkeypatch):
        loose = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-9)
        tight = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16)
        tau = 5.62
        exact = dec.log_sqrt_one_plus_sq(tau)
        monkeypatch.setattr(oracle, "DEFAULT_SPEC", loose)
        e_loose = abs(quad_gamma_vac(tau).value - exact)
        monkeypatch.setattr(oracle, "DEFAULT_SPEC", tight)
        e_tight = abs(quad_gamma_vac(tau).value - exact)
        assert e_tight <= e_loose
        assert e_tight <= 1e-10 * exact

    @pytest.mark.parametrize("v0", [0.0, 1e-6, 1e-4])
    def test_continuum_equals_one_integral_per_angular_node(self, v0):
        # photon integral plus one Doppler correction == the 40 per-node integrals
        for tau in TAUS:
            r = quad_photon_continuum(tau, v0)
            assert r.converged, f"tau={tau}"
            ref = photon_continuum_sum(tau, v0)
            assert abs(r.value - ref) <= 1e-15 * abs(ref), f"tau={tau}"


class TestTransformOracle:
    def test_t0_reproduces_initial(self, fig3_params):
        packet = GaussianPacket.from_params(fig3_params)
        f0 = DecoherenceFactors.at_time(fig3_params, 0.0)
        res = transform_consistency(packet, f0, n_p=1024)
        assert res["max_deviation_over_peak"] <= 1e-6
        assert res["stability_over_peak"] <= 1e-7
        assert res["rho_p_deviation_over_peak"] <= 1e-14

    def test_decohered_time_matches_closed_form(self, fig3_params):
        packet = GaussianPacket.from_params(fig3_params)
        f = DecoherenceFactors.at_time(fig3_params, fig3_time(fig3_params))
        res = transform_consistency(packet, f, n_p=1024)
        assert res["max_deviation_over_peak"] <= 1e-6
        assert res["stability_over_peak"] <= 1e-7
        assert res["rho_p_deviation_over_peak"] <= 1e-14

    def test_under_resolution_detected(self, fig3_params):
        # 48 momentum points cannot carry the chirp phase at 3 tau_vac
        packet = GaussianPacket.from_params(fig3_params)
        f = DecoherenceFactors.at_time(fig3_params, fig3_time(fig3_params))
        with pytest.raises(GridResolutionError):
            transform_consistency(packet, f, n_p=48)

    def test_moments_match_closed_forms(self, fig3_params):
        # <q> and <q^2> from the transformed diagonal vs -2 p0 Phi and d^2 Z
        p = dataclasses.replace(fig3_params, p0=0.05, v0=None)
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
        p = dataclasses.replace(fig3_params, r0=0.5)
        packet = GaussianPacket.from_params(p)
        f = DecoherenceFactors.at_time(p, fig3_time(p))
        p_grid, q_grid = default_transform_grids(packet, f, n_p=1024, n_q=101)
        numeric = fourier_rho_r(packet, f, p_grid, q_grid)
        closed = rho_r_matrix(q_grid, packet, f)
        peak = np.max(np.abs(closed))
        assert np.max(np.abs(numeric - closed)) <= 1e-6 * peak

    @given(gamma=st.floats(0.0, 10.0), phi=st.floats(-10.0, 10.0),
           p0=st.floats(-0.5, 0.5), r0=st.floats(-100.0, 100.0),
           delta_p=st.floats(0.02, 0.3), n_p=st.integers(16, 300), n_q=st.integers(5, 60))
    @settings(max_examples=40, deadline=None)
    def test_equals_dense_sandwich(self, gamma, phi, p0, r0, delta_p, n_p, n_q):
        # the Toeplitz convolution is the same trapezoid double sum as E rho_p E^H;
        # gamma and phi in units of 1/delta_p^2 (3 tau_vac of fig3: 1.35 and -5.3)
        packet = GaussianPacket(p0=p0, delta_p=delta_p, r0=r0)
        g, ph = gamma / delta_p**2, phi / delta_p**2
        f = DecoherenceFactors(t=1.0, gamma_vac=g, gamma_th=0.0, gamma=g, phi=ph)
        p_grid, q_grid = default_transform_grids(packet, f, n_p=n_p, n_q=n_q)
        numeric = fourier_rho_r(packet, f, p_grid, q_grid)
        dense = dense_fourier_rho_r(packet, f, p_grid, q_grid)
        assert np.max(np.abs(numeric - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n_q", [1, 17, 33, 201])
    @pytest.mark.parametrize("n_p", [1024, 2048])
    def test_row_blocks_equal_dense_sandwich(self, fig3_params, n_p, n_q):
        # the q rows stream in blocks of 32 (N = 1024) or 16 (N = 2048): one row,
        # one past a block, and the verify grid's 201 with a ragged last block;
        # the n_q middle points of the verify grid keep the packet's peak in view
        p = dataclasses.replace(fig3_params, p0=0.05, r0=0.5)
        packet = GaussianPacket.from_params(p)
        f = DecoherenceFactors.at_time(p, fig3_time(p))
        p_grid, q_full = default_transform_grids(packet, f, n_p=n_p)
        lo = (len(q_full) - n_q) // 2
        q_grid = q_full[lo:lo + n_q]
        numeric = fourier_rho_r(packet, f, p_grid, q_grid)
        dense = dense_fourier_rho_r(packet, f, p_grid, q_grid)
        assert numeric.shape == (n_q, n_q)
        assert np.max(np.abs(numeric - dense)) <= 1e-12 * np.max(np.abs(dense))

    @staticmethod
    def _traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_n_by_n_array(self, fig3_params):
        # one 2048 x 2048 complex array is 64 MiB, one 201 x 4096 complex array 12.6 MiB;
        # the streamed call holds B (6.3 MiB) and one ~1 MiB row block (8.2 MiB traced)
        packet = GaussianPacket.from_params(fig3_params)
        f = DecoherenceFactors.at_time(fig3_params, fig3_time(fig3_params))
        p_grid, q_grid = default_transform_grids(packet, f, n_p=2048, n_q=201)
        assert self._traced_peak(fourier_rho_r, packet, f, p_grid, q_grid) < 12 * 2**20

    def test_transform_consistency_peak(self, fig3_params):
        # fourier_rho_r at N = 2048 sets the peak (9.0 MiB traced); the direct rho_p
        # check streams densmat's row blocks, where a whole 1024 x 1024 grid (16 MiB)
        # peaked at 19.2 MiB, and whole-array FFTs of the 2048 grid at 32.4 MiB
        packet = GaussianPacket.from_params(fig3_params)
        f = DecoherenceFactors.at_time(fig3_params, fig3_time(fig3_params))
        assert self._traced_peak(transform_consistency, packet, f) < 10 * 2**20

    @pytest.mark.parametrize("p_grid", [
        np.array([0.1]),
        np.array([]),
        np.linspace(-0.6, 0.6, 64).reshape(8, 8),
    ], ids=["one point", "empty", "2-D"])
    def test_too_few_points_rejected(self, fig3_params, p_grid):
        packet = GaussianPacket.from_params(fig3_params)
        f = DecoherenceFactors.at_time(fig3_params, 0.0)
        with pytest.raises(DomainError, match="at least 2 points"):
            fourier_rho_r(packet, f, p_grid, np.linspace(-50.0, 50.0, 11))

    def test_nonuniform_grid_rejected(self, fig3_params):
        # the FFT needs G(i - j): spacings within 1e-9 of (p[-1] - p[0])/(n - 1)
        packet = GaussianPacket.from_params(fig3_params)
        f = DecoherenceFactors.at_time(fig3_params, fig3_time(fig3_params))
        q_grid = np.linspace(-50.0, 50.0, 11)
        p_grid = np.linspace(-0.6, 0.6, 257)
        h = p_grid[1] - p_grid[0]
        for bad in (np.concatenate([p_grid[:128], p_grid[128:] + 1e-8 * h]),
                    -0.6 + 1.2 * np.linspace(0.0, 1.0, 257) ** 2,
                    np.where(np.arange(257) == 200, np.nan, p_grid)):
            with pytest.raises(DomainError, match="uniform momentum grid"):
                fourier_rho_r(packet, f, bad, q_grid)
        nudged = np.concatenate([p_grid[:128], p_grid[128:] + 1e-11 * h])
        assert np.allclose(fourier_rho_r(packet, f, nudged, q_grid),
                           fourier_rho_r(packet, f, p_grid, q_grid), rtol=0, atol=1e-12)

    def test_rho_p_mutant_fails_verify(self, monkeypatch, capsys):
        # one token of rho_p's phase, -packet.r0 -> +packet.r0, in rho_p_matrix, which
        # both rho --rep p and the direct check call: invisible to the transform (the oracle
        # builds its own rho_p) and at r0 = 0, so it is the direct rho_p comparison on a
        # packet with r0 != 0 that must fail verify
        real_build = cli.cfg.build_params
        monkeypatch.setattr(cli.cfg, "build_params",
                            lambda resolved: dataclasses.replace(real_build(resolved), r0=0.5))
        assert cli.main(["verify"]) == cli.EXIT_OK
        # the mutant is in what rho --rep p writes, too
        pk, f = GaussianPacket(p0=0.05, delta_p=0.1, r0=0.5), DecoherenceFactors.at_time(
            make_params(), 1e-18)
        grid = np.linspace(-0.5, 0.6, 33)
        written = densmat.rho_p_matrix(grid, pk, f)
        source = inspect.getsource(densmat.rho_p_matrix)
        mutated = source.replace("-packet.r0", "+packet.r0")
        assert inspect.getsource(densmat).count("-packet.r0") == 1 and mutated != source
        namespace = dict(vars(densmat))
        exec(mutated, namespace)
        monkeypatch.setattr(densmat, "rho_p_matrix", namespace["rho_p_matrix"])
        assert not np.allclose(densmat.rho_p_matrix(grid, pk, f), written)
        capsys.readouterr()
        assert cli.main(["verify"]) == cli.EXIT_VERIFY
        out = capsys.readouterr().out
        assert "FAILED: rho_r_transform, rho_r_transform\n" in out
        rho_p_devs = [float(d) for d in re.findall(r"; rho_p (\S+)\]", out)]
        assert len(rho_p_devs) == 2 and min(rho_p_devs) > 1e-6


class TestRunAll:
    def test_all_pass_on_default_params(self, default_params):
        t_grid = [default_params.seconds(tau) for tau in np.geomspace(1e-3, 1e6, 9)]
        reports = run_all(default_params, t_grid)
        failed = [r.quantity for r in reports if not r.passed]
        assert not failed, failed

    def test_coverage_enumeration(self, default_params):
        # every registered closed form shows up in verify's sweep, run_all's
        # reports and then the transform's (twice: both figure times)
        t_grid = [default_params.seconds(tau) for tau in np.geomspace(1e-2, 1e4, 5)]
        fig3 = make_params(alpha=150.0, p0=0.0, delta_p=0.1)
        reports = run_all(default_params, t_grid) + oracle.transform_reports(fig3)
        seen = [r.quantity for r in reports]
        assert set(seen) == set(ORACLE_CHECKS)
        assert seen[-2:] == ["rho_r_transform"] * 2 and len(seen) == len(ORACLE_CHECKS) + 1

    @pytest.mark.parametrize("temperature", [0.0, 1.0, 300.0, 1e5])
    def test_every_applied_tolerance_is_declared(self, temperature):
        # ORACLE_CHECKS is the one table of tolerances: each report's is the declared
        # one, or for the two thermal checks the declared one as thermal_tolerance's base
        p = make_params(temperature=temperature)
        t_grid = [p.seconds(tau) for tau in (1e-2, 1.0, 1e2)]
        for r in run_all(p, t_grid):
            declared = ORACLE_CHECKS[r.quantity][1]
            if r.quantity in ("gamma_th", "gamma_total_spectral"):
                declared = oracle.thermal_tolerance(p.theta, declared)
            assert r.tolerance == declared, (r.quantity, r.tolerance, declared)

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
                            lambda tau: calls.append(tau) or real_vac(tau))
        monkeypatch.setattr(oracle, "quad_photon",
                            lambda tau: photon_calls.append(tau) or real_photon(tau))
        t_grid = [default_params.seconds(tau) for tau in np.geomspace(1e-2, 1e4, 5)]
        reports = {r.quantity: r for r in run_all(default_params, t_grid)}
        assert len(calls) == len(set(calls)) == 5
        # quad_photon runs once per continuum tau (every fifth tau; here all five),
        # under the continuum's Doppler correction
        assert photon_calls == calls
        vac, photon = reports["gamma_vac"], reports["photon_number"]
        assert vac.passed and photon.passed
        assert photon.tolerance == ORACLE_CHECKS["photon_number"][1]
        assert (photon.oracle, photon.panels) == (vac.oracle, vac.panels)

    def test_vacuum_integral_shared_at_t0(self, monkeypatch):
        # at T = 0 gamma_total_spectral is the vacuum integral too: one
        # quad_gamma_vac per tau serves gamma_vac, photon_number and it
        calls = []
        real_vac = oracle.quad_gamma_vac
        monkeypatch.setattr(oracle, "quad_gamma_vac",
                            lambda tau: calls.append(tau) or real_vac(tau))
        p0 = make_params(temperature=0.0)
        t_grid = [p0.seconds(tau) for tau in np.geomspace(1e-2, 1e4, 5)]
        reports = {r.quantity: r for r in run_all(p0, t_grid)}
        assert len(calls) == len(set(calls)) == 5
        vac, total = reports["gamma_vac"], reports["gamma_total_spectral"]
        assert vac.passed and total.passed
        assert (total.oracle, total.panels) == (vac.oracle, vac.panels)

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

    @pytest.mark.parametrize("quantity", sorted(ORACLE_CHECKS))
    def test_thermal_tolerance_at_T0_is_the_base(self, quantity):
        base = ORACLE_CHECKS[quantity][1]
        assert oracle.thermal_tolerance(math.inf, base) == base

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
        r = OracleReport.compare("x", 2.0, 2.0 + 1e-10, 1e-8, 3, scale=2.0)
        assert r.passed and r.rel_err == pytest.approx(5e-11)

    def test_fail_relative(self):
        r = OracleReport.compare("x", 2.0, 2.0 + 1e-6, 1e-8, 3, scale=2.0)
        assert not r.passed

    def test_near_zero_uses_absolute_floor(self):
        # at closed = 0 the floor is min(1e-13, tolerance * scale), scale the quantity's
        # largest |closed| over its points: absolute only for a quantity of order one
        r = OracleReport.compare("x", 0.0, 5e-14, 1e-8, 1, scale=1.0)
        assert r.passed
        r2 = OracleReport.compare("x", 0.0, 5e-9, 1e-8, 1, scale=1.0)
        assert not r2.passed
        # a quantity of order 1e-21 (joules) gets a floor of 1e-29, not 1e-13
        assert not OracleReport.compare("x", 0.0, 5e-14, 1e-8, 1, scale=1e-21).passed
        assert OracleReport.compare("x", 0.0, 5e-30, 1e-8, 1, scale=1e-21).passed

    def test_floor_never_passes_a_tiny_quantity_at_any_relative_error(self):
        # the identity rows' values are ~1e-21 J: a 50% error is far above the floor
        r = OracleReport.compare("x", 2e-21, 3e-21, 1e-12, 0, scale=2e-21)
        assert not r.passed and r.rel_err == pytest.approx(0.5)

    def test_field_energy_mutant_fails_verify(self, monkeypatch, capsys):
        # 8.0 for 4.0 in field.mean_field_energy doubles the cloud energy: only the
        # field_mass_identity row sees it, at rel_err 0.5 on values of ~1e-21 J, which
        # an absolute 1e-13 floor passed
        source = inspect.getsource(fieldmod.mean_field_energy)
        mutated = source.replace("4.0 * coupling_scale", "8.0 * coupling_scale")
        assert mutated != source
        namespace = dict(vars(fieldmod))
        exec(mutated, namespace)
        monkeypatch.setattr(fieldmod, "mean_field_energy", namespace["mean_field_energy"])
        capsys.readouterr()
        assert cli.main(["verify"]) == cli.EXIT_VERIFY
        out = capsys.readouterr().out
        assert out.endswith("FAILED: field_mass_identity\n")
        row = next(ln for ln in out.splitlines() if ln.startswith("field_mass_identity"))
        assert "5.00e-01" in row and row.rstrip().endswith("FAIL")
