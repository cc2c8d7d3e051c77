"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
the CLI `verify` exit code exercised at the bottom is the single source of
truth for the oracle suite.
"""

import math
import time

import numpy as np

from qed_decoherence import cli
from qed_decoherence import decoherence as dec
from qed_decoherence import field as fld
from qed_decoherence import observables as obs
from qed_decoherence import oracle
from qed_decoherence.decoherence import DecoherenceFactors
from qed_decoherence.densmat import GaussianPacket, rho_p_matrix, rho_r_matrix, width_t, z_factor
from qed_decoherence.params import (
    thermal_time,
    transition_time,
    vacuum_thermal_crossover,
)

from conftest import make_params
from reference import rho_p, rho_p_initial, rho_r
from test_observables import central_derivative

GRID_25 = np.geomspace(1e-3, 1e6, 25)


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_vacuum_oracle():
    start = time.perf_counter()
    worst = 0.0
    for tau in GRID_25:
        r = oracle.quad_gamma_vac(tau)
        exact = dec.log_sqrt_one_plus_sq(tau)
        worst = max(worst, abs(r.value - exact) / abs(exact))
    elapsed = time.perf_counter() - start
    report("criterion 1: vacuum quadrature vs ln sqrt(1+t^2), 25 points",
           worst <= 1e-8 and elapsed < 5.0,
           f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_phase_oracle():
    worst = 0.0
    for tau in GRID_25:
        r = oracle.quad_phase(tau)
        exact = dec.tau_minus_arctan(tau)
        worst = max(worst, abs(r.value - exact) / abs(exact))
    report("criterion 2: phase quadrature vs tau - arctan tau", worst <= 1e-8,
           f"worst rel {worst:.2e}")


def test_criterion_03_thermal_oracle():
    theta = 1e4
    worst = 0.0
    for x in np.geomspace(1e-2, 1e3, 17):
        tau = x * theta / math.pi
        r = oracle.quad_gamma_th(tau, theta)
        closed = dec.log_sinhc(x)
        worst = max(worst, abs(r.value - closed) / abs(closed))
    report("criterion 3: full-coth thermal quadrature vs ln[sinh(x)/x] at "
           "hbar Omega/k_B T = 1e4", worst <= 1e-3, f"worst rel {worst:.2e}")


def test_criterion_04_photon_factor2(default_params):
    p = default_params
    p_bar = 0.3
    worst = 0.0
    for tau in GRID_25:
        t = p.seconds(tau)
        n = fld.mean_photon_number(p, p_bar, t)
        ident = 2.0 * dec.gamma_vac_factor(p, t) * p_bar**2
        worst = max(worst, abs(n - ident) / max(n, 1e-300))
    report("criterion 4: <n_pbar> = 2 Gamma_vac pbar^2", worst <= 1e-12,
           f"worst rel {worst:.2e}")


def test_criterion_05_field_energy(default_params):
    p = default_params
    p_bar = 0.3
    worst_ident = 0.0
    for tau in GRID_25:
        t = p.seconds(tau)
        ef = fld.mean_field_energy(p, p_bar, t)
        ident = p.energy_si(0.5 * p_bar**2) * 2.0 * obs.mass_shift(p, t) / p.mass0
        worst_ident = max(worst_ident, abs(ef - ident) / max(ef, 1e-300))
    worst_quad = 0.0
    for tau in GRID_25:
        r = oracle.quad_field_energy(tau)
        exact = dec.lorentz_weight(tau)
        worst_quad = max(worst_quad, abs(r.value - exact) / abs(exact))
    report("criterion 5: <E_F> mass identity and frequency integral",
           worst_ident <= 1e-12 and worst_quad <= 1e-8,
           f"identity {worst_ident:.2e}, quadrature {worst_quad:.2e}")


def test_criterion_06_transform_consistency(fig3_params):
    start = time.perf_counter()
    packet = GaussianPacket.from_params(fig3_params)
    worst_dev = 0.0
    worst_stab = 0.0
    for t in (0.0, oracle.fig3_time(fig3_params)):
        f = DecoherenceFactors.at_time(fig3_params, t)
        res = oracle.transform_consistency(packet, f, n_p=1024)
        worst_dev = max(worst_dev, res["max_deviation_over_peak"])
        worst_stab = max(worst_stab, res["stability_over_peak"])
    elapsed = time.perf_counter() - start
    report("criterion 6: double Fourier transform vs closed-form rho_r at "
           "t in {0, 3 tau_vac}",
           worst_dev <= 1e-6 and worst_stab <= 1e-7 and elapsed < 60.0,
           f"deviation {worst_dev:.2e}, stability {worst_stab:.2e}, {elapsed:.1f}s")


def test_criterion_07_reference_timescales():
    tau_F = thermal_time(1.0)
    ok_tau_F = abs(tau_F - 2.43e-12) / 2.43e-12 <= 0.01

    # the transition time (~1e-10 s at Omega = 1e19/s, T = 1 K) is the time
    # where vacuum and thermal contributions are equal; the exact crossing
    tau_p = vacuum_thermal_crossover(1e19, tau_F)
    ok_window = 0.5e-10 <= tau_p <= 2.0e-10
    p = make_params()
    gv = dec.gamma_vac_factor(p, tau_p)
    gt = dec.gamma_th_factor(p, tau_p)
    residual_cross = abs(gv - gt) / gv

    # and the approximate defining equation ln(Omega t) = t/tau_F
    tau_p_log = transition_time(1e19, tau_F)
    residual_log = abs(math.log(1e19 * tau_p_log) - tau_p_log / tau_F) / (
        tau_p_log / tau_F)

    report("criterion 7: tau_F(1K) = 2.43e-12 s +-1%; tau_p in [0.5,2]e-10 s "
           "with exact root residual <= 1e-10",
           ok_tau_F and ok_window and residual_cross <= 1e-10
           and residual_log <= 1e-10,
           f"tau_F {tau_F:.4e}, tau_p {tau_p:.4e} (ln-eq root {tau_p_log:.4e}), "
           f"residuals {residual_cross:.1e}/{residual_log:.1e}")


def test_criterion_08_identity_suite(default_params):
    p = default_params
    pk = GaussianPacket.from_params(p)
    worst = 0.0
    for tau in (1e-2, 1.0, 1e2, 1e5):
        t = p.seconds(tau)
        f = DecoherenceFactors.at_time(p, t)
        s = obs.linear_entropy(p, t)
        snap = obs.snapshot(p, t)
        worst = max(worst, abs(s - (1 - snap.l_p / 0.1)))
        worst = max(worst, abs(s - (1 - snap.l_r / snap.delta_r_t)))
        dr2 = (snap.delta_r_t / p.length_si(1.0)) ** 2
        worst = max(worst, abs(dr2 - 3 * pk.d**2 * z_factor(pk, f)) / dr2)
        # diagonal constancy and hermiticity
        worst = max(worst, abs(rho_p(0.21, 0.21, pk, f) - rho_p_initial(0.21, 0.21, pk))
                    / pk.norm)
        worst = max(worst, abs(rho_p(0.2, -0.1, pk, f)
                               - rho_p(-0.1, 0.2, pk, f).conjugate()) / pk.norm)
        worst = max(worst, abs(rho_r(2.0, -1.0, pk, f)
                               - rho_r(-1.0, 2.0, pk, f).conjugate()) / abs(
                                   rho_r(0.0, 0.0, pk, f)))
    # alpha = 0 degeneration
    p0 = make_params(alpha=0.0)
    t = p0.seconds(1e3)
    f0 = DecoherenceFactors.at_time(p0, t)
    worst = max(worst, abs(f0.gamma))
    worst = max(worst, abs(f0.phi + 0.5 * 1e3 / p0.epsilon) / (0.5 * 1e3 / p0.epsilon))
    snap = obs.snapshot(p0, t)
    worst = max(worst, abs(snap.delta_r_t - snap.delta_r_free) / snap.delta_r_free)
    worst = max(worst, abs(snap.l_r - snap.delta_r_t) / snap.delta_r_t)
    report("criterion 8: identity suite (entropy/coherence, 3 d^2 Z, pointer "
           "basis, hermiticity, free limit)", worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_09_regime_approximations(default_params):
    p = default_params
    scale = dec.coupling_scale(p.alpha)
    worst = 0.0
    # early quadratic branch, scale tau^2/2
    tau = 1e-3
    gamma = DecoherenceFactors.at_time(p, p.seconds(tau)).gamma
    worst = max(worst, abs(scale * tau**2 / 2 - gamma) / gamma / 0.02)
    # intermediate logarithmic branch, scale ln tau
    tau = 1e3
    gamma = DecoherenceFactors.at_time(p, p.seconds(tau)).gamma
    worst = max(worst, abs(scale * math.log(tau) - gamma) / gamma / 0.02)
    # late linear branch, scale t/tau_F, against the exact thermal factor
    t = thermal_time(1.0) * 1e3
    worst = max(worst, abs(scale * t / thermal_time(1.0)
                           - dec.gamma_th_factor(p, t)) / dec.gamma_th_factor(p, t) / 0.02)
    # phase branches: scale tau^3/3 - tau/2 epsilon early, scale tau - tau/2 epsilon late
    tau = 1e-3
    phi = dec.phase_factor(p, p.seconds(tau))
    worst = max(worst, abs(scale * tau**3 / 3 - tau / (2 * p.epsilon) - phi) / abs(phi) / 0.02)
    tau = 100.0
    free = 0.5 * tau / p.epsilon
    a_int = scale * tau - tau / (2 * p.epsilon) + free
    e_int = dec.phase_factor(p, p.seconds(tau)) + free
    worst = max(worst, abs(a_int - e_int) / abs(e_int) / 0.02)
    branches_ok = worst <= 1.0

    # quadratic small-t expansion of |rho(t)/rho(0)| within 1% while
    # Gamma^{pp'} < 0.01
    pk = GaussianPacket.from_params(p)
    worst_rho = 0.0
    du = 0.2
    for tau in (1e-3, 1e-2, 0.05):
        f = DecoherenceFactors.at_time(p, p.seconds(tau))
        gpp = f.gamma * du**2
        if gpp >= 0.01:
            continue
        ratio = abs(rho_p(0.1 + du / 2, 0.1 - du / 2, pk, f)) / abs(
            rho_p_initial(0.1 + du / 2, 0.1 - du / 2, pk))
        zeta = dec.coupling_scale(p.alpha) * du**2
        approx = 1.0 - zeta * 0.5 * tau**2
        worst_rho = max(worst_rho, abs(ratio - approx) / ratio)
    report("criterion 9: regime branches within 2%, small-t density expansion "
           "within 1%", branches_ok and worst_rho <= 1e-2,
           f"branch worst {worst * 2:.2f}%, rho expansion {worst_rho:.2e}")


def test_criterion_10_derivatives_and_scaling(default_params):
    p = default_params
    worst_v = 0.0
    for tau in np.geomspace(1e-3, 1e6, 10):
        t = p.seconds(tau)
        fd = central_derivative(lambda s: obs.snapshot(p, s).mean_q[0], t)
        v = obs.snapshot(p, t).mean_v[0]
        worst_v = max(worst_v, abs(fd - v) / abs(v))
    worst_a = 0.0
    for tau in np.geomspace(1e-2, 30.0, 9):
        t = p.seconds(tau)
        fd = central_derivative(lambda s: obs.snapshot(p, s).mean_v[0], t)
        a = obs.snapshot(p, t).accel[0]
        worst_a = max(worst_a, abs(fd - a) / abs(a))
    p1 = make_params(alpha=0.02)
    p2 = make_params(alpha=0.06)
    t = p1.seconds(2.0)
    ratio = obs.snapshot(p2, t).brems_power / obs.snapshot(p1, t).brems_power
    scaling = abs(ratio - 3.0**3) / 27.0
    report("criterion 10: finite-difference derivative consistency and alpha^3 "
           "radiated-power scaling",
           worst_v <= 1e-6 and worst_a <= 1e-6 and scaling <= 1e-12,
           f"d<q>/dt {worst_v:.2e}, d<v>/dt {worst_a:.2e}, alpha^3 {scaling:.2e}")


def test_criterion_11_trace_normalization(fig3_params):
    p = fig3_params
    pk = GaussianPacket.from_params(p)
    times = [0.0, oracle.fig3_time(p), 10.0 * thermal_time(p.temperature)]
    worst = 0.0
    for t in times:
        f = DecoherenceFactors.at_time(p, t)
        p_grid = np.linspace(-8 * pk.delta_p, 8 * pk.delta_p, 4001)
        diag = np.real(np.diagonal(rho_p_matrix(p_grid, pk, f)))
        worst = max(worst, abs(np.trapezoid(diag, p_grid) - 1.0))
        w = width_t(pk, f) / math.sqrt(3.0)
        q_grid = np.linspace(-8 * w, 8 * w, 4001)
        diag = np.real(np.diagonal(rho_r_matrix(q_grid, pk, f)))
        worst = max(worst, abs(np.trapezoid(diag, q_grid) - 1.0))
    report("criterion 11: unit traces in both representations at "
           "t in {0, 3 tau_vac, 10 tau_F}", worst <= 1e-8, f"worst {worst:.2e}")


def test_full_verify_suite_under_two_minutes(capsys):
    start = time.perf_counter()
    code = cli.main(["verify"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    report("cmd_verify: exit 0 and under 2 minutes",
           code == 0 and elapsed < 120.0, f"exit {code}, {elapsed:.1f}s")
    assert "PASS" in out
