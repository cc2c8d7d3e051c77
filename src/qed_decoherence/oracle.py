"""Independent numerical verification of every closed form.

Each analytic result in decoherence/field/densmat has exactly one oracle
counterpart here: adaptive quadrature of the defining frequency integral
(in cutoff units w = omega/Omega, tau = Omega t, theta = hbar Omega/k_B T),
or, for the coordinate-space density matrix, a direct double Fourier
transform evaluated as plain trapezoid double sums so the phase conventions
stay manifestly identical to the analytic transform.

The oracles never call the closed forms they check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import decoherence, densmat, field as fieldmod, observables
from .decoherence import DecoherenceFactors
from .densmat import GaussianPacket
from .params import DomainError, ModelParams, vacuum_decoherence_time
from .quadrature import (
    QuadratureError,
    QuadratureSpec,
    QuadResult,
    adaptive,
    oscillatory,
    trapezoid_weights,
)

__all__ = ["ORACLE_CHECKS", "GridResolutionError", "OracleReport", "default_transform_grids",
           "fig3_time", "fourier_rho_r", "quad_field_energy", "quad_gamma_th",
           "quad_gamma_total", "quad_gamma_vac", "quad_phase", "quad_photon",
           "quad_photon_continuum", "run_all", "small_omega_series", "thermal_tolerance",
           "transform_consistency"]

DEFAULT_SPEC = QuadratureSpec()


class GridResolutionError(RuntimeError):
    """Transform grid failed the doubling-stability detector."""


# ---------------------------------------------------------------------------
# integrands (cutoff units, vectorized over node arrays)
# ---------------------------------------------------------------------------

def _one_minus_cos(x):
    """1 - cos(x) as 2 sin^2(x/2): no cancellation at small x, exact recurrence zeros."""
    return 2.0 * np.sin(0.5 * x) ** 2


def _cothm1(x):
    """coth(x) - 1 = 2/(e^{2x} - 1) for x > 0; 0 at x = +inf."""
    with np.errstate(over="ignore"):
        return 2.0 / np.expm1(2.0 * np.asarray(x, dtype=float))


def small_omega_series(kind: str, ell: float, tau: float, theta: float = math.inf) -> float:
    """Leading behavior of each integrand on [0, ell], ell << min(1/tau, 1/theta, 1).

    vac / photon:  integrand e^-w (1-cos w tau)/w ~ w tau^2/2 (1 - w):
                   tau^2 ell^2/4 - tau^2 ell^3/6
    phase:         e^-w (w tau - sin w tau)/w ~ w^2 tau^3/6 (1 - w):
                   tau^3 ell^3/18 - tau^3 ell^4/24
    thermal:       extra factor coth(theta w/2) - 1 ~ 2/(theta w) - 1:
                   tau^2 ell/theta - (tau^2/2 + tau^2/theta) ell^2/2
    total:         vac + thermal (coth = 1 + (coth - 1), exact split)
    """
    t2 = tau * tau
    if kind in ("vac", "photon"):
        return t2 * ell * ell * (0.25 - ell / 6.0)
    if kind == "phase":
        return tau * t2 * ell**3 * (1.0 / 18.0 - ell / 24.0)
    if kind == "thermal":
        if math.isinf(theta):
            return 0.0
        return t2 * ell / theta - (0.5 * t2 + t2 / theta) * ell * ell / 2.0
    if kind == "total":
        return (small_omega_series("vac", ell, tau)
                + small_omega_series("thermal", ell, tau, theta))
    raise DomainError(f"unknown series kind {kind!r}")


def _frequency_integral(tau: float, theta: float, kind: str | None, combined, envelope,
                        trig: str, tail_bound, spec: QuadratureSpec, smooth=None) -> QuadResult:
    """integral_0^wmax dw combined(w), combined = smooth - envelope * trig(w tau): the
    one split policy of every frequency oracle.

    kind names the small_omega_series head on [0, ell], where the integrand
    carries a 1/w; None marks an integrand regular at w = 0, integrated from 0.
    Up to the oscillation threshold the combined form is integrated whole, with
    panels at the decades, the thermal scales k/theta and the first 79 half
    periods. Above it the combined form covers the first ~10 periods (the 1/w
    envelope is too steep there for clean cycle sums), then smooth minus the
    epsilon-accelerated cycle sum of envelope * trig. smooth defaults to the
    envelope, whose 1/w also gets the decade points; a separate smooth part (the
    phase's tau e^-w) gets only (1, 5, 20). tail_bound(wmax) bounds the
    discarded tail; it is reported, never added.
    """
    if tau <= 0.0:
        raise DomainError("oracle quadratures need t > 0")
    wmax = spec.cutoff_multiple
    fixed = (1.0, 5.0, 20.0)    # the scales of e^-w
    if kind is None:
        ell = wc = 0.0
        head = QuadResult(0.0, 0.0, 0)
    else:
        ell = 1e-6 * min(1.0 / tau, 1.0 / theta if not math.isinf(theta) else 1.0, 1.0)
        wc = min(1.0, 20.0 * math.pi / tau)
        head = QuadResult(small_omega_series(kind, ell, tau, theta), 0.0, 0)

    def scales(lo: float, hi: float) -> tuple[float, ...]:
        """Decades in [lo, hi] (none from lo = 0) and the thermal scales; adaptive
        keeps the points strictly inside its interval."""
        pts = [10.0**k for k in range(math.ceil(math.log10(lo)),
                                      math.floor(math.log10(hi)) + 1)] if lo > 0.0 else []
        if not math.isinf(theta):
            pts += [c / theta for c in (0.2, 2.0, 20.0, 200.0)]
        return tuple(pts)

    if tau <= spec.oscillation_threshold:
        h = math.pi / tau
        half = tuple(ell + k * h for k in range(1, 80)) if tau > 2.0 else ()
        result = head + adaptive(combined, ell, wmax, spec,
                                 breakpoints=scales(ell, wmax) + half + fixed)
    else:
        if wc > ell:    # a regular integrand (kind None) has no near piece
            head = head + adaptive(combined, ell, wc, spec, breakpoints=scales(ell, wc))
        body = (adaptive(envelope, wc, wmax, spec, breakpoints=scales(wc, wmax) + fixed)
                if smooth is None else adaptive(smooth, wc, wmax, spec, breakpoints=fixed))
        osc = oscillatory(envelope, tau, wc, wmax, trig, spec)
        result = head + body + (-osc)
    result.tail_bound = tail_bound(wmax)
    return result


def _omc_kernel(tau: float, weight) -> tuple:
    """combined form, envelope, trig and tail bound of e^-w weight(w) (1 - cos w tau)/w."""
    return (lambda w: np.exp(-w) * weight(w) * _one_minus_cos(w * tau) / w,
            lambda w: np.exp(-w) * weight(w) / w, "cos",
            lambda wmax: 2.0 * float(weight(wmax)) * math.exp(-wmax) / wmax)


def quad_gamma_vac(tau: float, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """integral dw e^-w (1-cos w tau)/w; closed form ln sqrt(1 + tau^2)."""
    return _frequency_integral(tau, math.inf, "vac", *_omc_kernel(tau, lambda w: 1.0), spec)


def quad_photon(tau: float, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """Same frequency integral as the vacuum factor; closed form ln(1 + tau^2)/2."""
    return _frequency_integral(tau, math.inf, "photon", *_omc_kernel(tau, lambda w: 1.0), spec)


def quad_gamma_th(tau: float, theta: float, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """integral dw e^-w (coth(theta w/2) - 1)(1-cos w tau)/w, the full thermal
    integrand without the k_B T << hbar Omega simplification; compared against
    ln[sinh(x)/x] at x = pi tau / theta which is only that limit."""
    if theta <= 0.0:
        raise DomainError("theta must be positive (T > 0)")
    if math.isinf(theta):
        return QuadResult(0.0, 0.0, 0)
    weight = lambda w: _cothm1(0.5 * theta * w)
    return _frequency_integral(tau, theta, "thermal", *_omc_kernel(tau, weight), spec)


def quad_gamma_total(tau: float, theta: float, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """Full spectral-density reconstruction: integral of J(w)(1-cos w tau)
    coth(theta w/2)/w^2 with the (p-p')^2 prefactor divided out."""
    if math.isinf(theta):
        return quad_gamma_vac(tau, spec)
    weight = lambda w: 1.0 + _cothm1(0.5 * theta * w)
    return _frequency_integral(tau, theta, "total", *_omc_kernel(tau, weight), spec)


def quad_phase(tau: float, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """integral dw e^-w (w tau - sin w tau)/w; closed form tau - arctan tau."""
    def combined(w):
        wt = w * tau
        return np.exp(-w) * (wt - np.sin(wt)) / w

    return _frequency_integral(tau, math.inf, "phase", combined, lambda w: np.exp(-w) / w, "sin",
                               lambda wmax: tau * math.exp(-wmax), spec,
                               smooth=lambda w: tau * np.exp(-w))


def quad_field_energy(tau: float, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """integral dw e^-w (1-cos w tau); closed form tau^2/(1 + tau^2) (times Omega in SI)."""
    return _frequency_integral(
        tau, math.inf, None, lambda w: np.exp(-w) * _one_minus_cos(w * tau), lambda w: np.exp(-w),
        "cos", lambda wmax: 2.0 * math.exp(-wmax), spec)


def quad_photon_continuum(tau: float, v0: float = 0.0, n_angular: int = 40,
                          spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """Angular + frequency continuum sum of the per-mode occupation.

    (3/4) integral_-1^1 dmu (1-mu^2) K(tau (1 - v0 mu)) with K the photon
    frequency integral; the coupling geometry (1 - mu^2) is the polarization
    sum for p_bar along the motion. Reduces to the closed form at first order
    in v0 (the linear angular term integrates to zero), so v0 must be small
    for a tight comparison: residual O(v0^2).
    """
    if not 0.0 <= v0 < 1.0:
        raise DomainError("v0 must be in [0, 1)")
    mu, wts = np.polynomial.legendre.leggauss(n_angular)
    total = 0.0
    err = 0.0
    panels = 0
    converged = True
    for m, w in zip(mu, wts):
        inner = quad_photon(tau * (1.0 - v0 * m), spec)
        total += w * 0.75 * (1.0 - m * m) * inner.value
        err += w * 0.75 * (1.0 - m * m) * inner.error
        panels += inner.panels
        converged = converged and inner.converged
    return QuadResult(value=total, error=abs(err), panels=panels, converged=converged)


# ---------------------------------------------------------------------------
# double Fourier transform oracle (1-D grids)
# ---------------------------------------------------------------------------

def fourier_rho_r(packet: GaussianPacket, factors: DecoherenceFactors,
                  p_grid: np.ndarray, q_grid: np.ndarray) -> np.ndarray:
    """rho_r(q, q') = (1/2 pi) sum_ij w_i w_j rho_p(p_i, p_j) e^{i(p_i r - p_j r')}.

    Plain trapezoid double sum (vectorized as matrix sandwiches, which changes
    nothing about the quadrature rule). q values are displacements; the
    absolute positions r = q + r0 carry the transform phases so the packet's
    own r0 phase cancels exactly as in the analytic calculation.
    """
    p = np.asarray(p_grid, dtype=float)
    rho = densmat.rho_p_matrix(p, packet, factors)
    w = trapezoid_weights(p)
    r = np.asarray(q_grid, dtype=float) + packet.r0
    E = np.exp(1j * np.outer(r, p)) * w
    return (E @ rho @ E.conj().T) / (2.0 * math.pi)


def default_transform_grids(packet: GaussianPacket, factors: DecoherenceFactors,
                            n_p: int = 1024, n_q: int = 201,
                            p_halfspan_widths: float = 6.0) -> tuple[np.ndarray, np.ndarray]:
    """Grids per the oracle policy: p symmetric about p0 spanning >= 8 delta_p
    total (default 12), q centered on <q>_t within the packet's +-6 delta_r(t)."""
    p_grid = np.linspace(packet.p0 - p_halfspan_widths * packet.delta_p,
                         packet.p0 + p_halfspan_widths * packet.delta_p, n_p)
    center = densmat.mean_displacement(packet, factors)
    half = 10.0 * packet.d * math.sqrt(densmat.z_factor(packet, factors))  # = 5.77 delta_r(t)
    q_grid = np.linspace(center - half, center + half, n_q)
    return p_grid, q_grid


def transform_consistency(packet: GaussianPacket, factors: DecoherenceFactors,
                          n_p: int = 1024, n_q: int = 201,
                          stability_tol: float = 1e-7) -> dict:
    """Compare the transform oracle against the closed-form rho_r on a grid.

    Returns peak-relative max deviation plus the grid-doubling stability; the
    stability detector raises GridResolutionError when the quadrature grid is
    underresolved.
    """
    p_grid, q_grid = default_transform_grids(packet, factors, n_p=n_p, n_q=n_q)
    numeric = fourier_rho_r(packet, factors, p_grid, q_grid)
    p2 = np.linspace(p_grid[0], p_grid[-1], 2 * n_p)
    numeric2 = fourier_rho_r(packet, factors, p2, q_grid)
    peak = float(np.max(np.abs(numeric2)))
    stability = float(np.max(np.abs(numeric2 - numeric))) / peak
    if stability > stability_tol:
        raise GridResolutionError(
            f"transform unstable under grid doubling: {stability:.3g} > {stability_tol:g} "
            f"(n_p = {n_p}); refine the momentum grid"
        )
    closed = densmat.rho_r_matrix(q_grid, packet, factors)
    deviation = float(np.max(np.abs(numeric2 - closed))) / peak
    return {"max_deviation_over_peak": deviation, "stability_over_peak": stability}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class OracleReport:
    """Per-quantity comparison record."""

    quantity: str
    closed_form: float
    oracle: float
    abs_err: float
    rel_err: float
    tolerance: float
    panels: int
    passed: bool
    detail: str = ""

    @classmethod
    def compare(cls, quantity: str, closed: float, oracle_val: float, tolerance: float,
                panels: int, detail: str = "", abs_floor: float = 1e-13) -> "OracleReport":
        abs_err = abs(closed - oracle_val)
        rel_err = abs_err / abs(closed) if closed != 0.0 else math.inf
        passed = abs_err <= max(tolerance * abs(closed), abs_floor)
        return cls(quantity, closed, oracle_val, abs_err,
                   rel_err if closed != 0.0 else abs_err, tolerance, panels, passed, detail)


# quantity -> (closed-form home, declared tolerance); coverage is asserted in tests
ORACLE_CHECKS = {
    "gamma_vac": ("decoherence.gamma_vac_factor", 1e-8),
    "gamma_th": ("decoherence.gamma_th_factor", 1e-3),
    "gamma_total_spectral": ("decoherence.spectral_density -> Gamma", 1e-6),
    "phase_xi": ("decoherence.phase_factor interaction part", 1e-8),
    "photon_number": ("field.mean_photon_number", 1e-8),
    "photon_continuum": ("field.mode_occupation continuum sum", 1e-6),
    "field_energy": ("field.mean_field_energy", 1e-8),
    "factor2_identity": ("field.mean_photon_number = 2 Gamma_vac pbar^2", 1e-12),
    "field_mass_identity": ("field.mean_field_energy = (pbar^2/2m0)(2 dm/m0)", 1e-12),
    "rho_r_transform": ("densmat.rho_r_matrix", 1e-6),
}


def thermal_tolerance(theta: float, base: float) -> float:
    """Approximation-limited tolerance for the k_B T << hbar Omega closed forms.

    Their relative deviation from the full-coth integral scales like 10/theta
    (1e-3 at the theta = 1e4 anchor); below that the quadrature floor applies.
    The closed forms stop being meaningful references for theta < ~100, where
    the assumption itself is flagged.
    """
    if math.isinf(theta):
        return base
    return min(0.5, max(base, 10.0 / theta))


def _worst(reports: list[OracleReport]) -> OracleReport:
    worst = max(reports, key=lambda r: (not r.passed, r.rel_err if math.isfinite(r.rel_err) else r.abs_err))
    worst.passed = all(r.passed for r in reports)
    worst.panels = sum(r.panels for r in reports)
    return worst


def run_all(params: ModelParams, t_grid_seconds, spec: QuadratureSpec = DEFAULT_SPEC,
            include_transform: bool = False,
            transform_params: ModelParams | None = None) -> list[OracleReport]:
    """Every oracle against its closed form, aggregated to one worst-case
    report per quantity. Per-quantity failures are collected, never raised."""
    taus = params.tau(np.asarray(t_grid_seconds, dtype=float)).tolist()
    theta = params.theta
    p_bar = params.p0_mag if params.p0_mag > 0.0 else params.delta_p
    reports: list[OracleReport] = []

    def gather(quantity, closed_fn, quad_fn, tol, grid, detail=""):
        rows = []
        for tau in grid:
            try:
                res = quad_fn(tau)
                row = OracleReport.compare(
                    quantity, closed_fn(tau), res.value, tol, res.panels,
                    detail=detail or f"worst over {len(grid)}-point grid")
                if not res.converged:
                    row.passed = False
                    row.detail = f"oracle did not converge at tau = {tau:g}; {row.detail}"
                rows.append(row)
            except (QuadratureError, DomainError) as exc:
                rows.append(OracleReport(quantity, math.nan, math.nan, math.inf,
                                         math.inf, tol, 0, False, f"error: {exc}"))
        reports.append(_worst(rows))

    # the vacuum factor and the photon number share one frequency integral:
    # integrate it once per tau and check both closed forms against it
    quad_vac = functools.lru_cache(maxsize=None)(lambda tau: quad_gamma_vac(tau, spec))
    gather("gamma_vac", decoherence.log_sqrt_one_plus_sq,
           quad_vac, ORACLE_CHECKS["gamma_vac"][1], taus)
    gather("phase_xi", decoherence.tau_minus_arctan,
           lambda tau: quad_phase(tau, spec), ORACLE_CHECKS["phase_xi"][1], taus)
    gather("photon_number", lambda tau: math.log1p(tau * tau) / 2.0,
           quad_vac, ORACLE_CHECKS["photon_number"][1], taus)
    gather("field_energy", decoherence.lorentz_weight,
           lambda tau: quad_field_energy(tau, spec), ORACLE_CHECKS["field_energy"][1], taus)
    if params.temperature > 0.0:
        gather("gamma_th",
               lambda tau: decoherence.log_sinhc(math.pi * tau / theta),
               lambda tau: quad_gamma_th(tau, theta, spec),
               thermal_tolerance(theta, 1e-7), taus,
               detail=f"k_BT << hbar Omega form at theta = {theta:.3g}")
    # at T = 0 (theta = inf) the thermal term is log_sinhc(0) = 0, the tolerance
    # is the base one and the quadrature is the vacuum integral
    gather("gamma_total_spectral",
           lambda tau: decoherence.log_sqrt_one_plus_sq(tau)
           + decoherence.log_sinhc(math.pi * tau / theta),
           lambda tau: quad_gamma_total(tau, theta, spec),
           thermal_tolerance(theta, ORACLE_CHECKS["gamma_total_spectral"][1]), taus,
           detail="" if params.temperature > 0.0 else "T = 0: coth = 1 branch")

    # angular + frequency continuum: small v0 keeps the O(v0^2) residual
    # below the declared tolerance
    v0c = min(params.v0, 1e-4)
    cont_taus = taus[:: max(1, len(taus) // 5)]
    gather("photon_continuum", lambda tau: math.log1p(tau * tau) / 2.0,
           lambda tau: quad_photon_continuum(tau, v0c, spec=spec),
           ORACLE_CHECKS["photon_continuum"][1], cont_taus,
           detail=f"v0 = {v0c:g}, 40-node angular rule")

    # cross-module identity routes
    t = np.asarray(t_grid_seconds, dtype=float)
    kin = params.energy_si(0.5 * p_bar**2)
    for quantity, closed, ident, detail in (
            ("factor2_identity", fieldmod.mean_photon_number(params, p_bar, t),
             2.0 * decoherence.gamma_vac_factor(params, t) * p_bar**2, f"p_bar = {p_bar:g}"),
            ("field_mass_identity", fieldmod.mean_field_energy(params, p_bar, t),
             kin * 2.0 * observables.mass_shift(params, t) / params.mass0, "")):
        reports.append(_worst([
            OracleReport.compare(quantity, float(c), float(i), ORACLE_CHECKS[quantity][1], 0,
                                 detail=detail) for c, i in zip(closed, ident)]))

    if include_transform:
        tp = transform_params if transform_params is not None else params
        reports.extend(transform_reports(tp, spec))
    return reports


def fig3_time(params: ModelParams) -> float:
    """t = 3 tau_vac at dp = delta_p, the decohered panel of the density-matrix figure.

    tau_vac grows like exp[(3 pi / 2 alpha)(m0 c / delta_p)^2], so at small
    alpha delta_p^2 the time, or the factors at it, overflow; that is a
    DomainError, never a panel of NaN.
    """
    tau_vac, log_tau_vac = vacuum_decoherence_time(params, params.delta_p)
    t = 3.0 * tau_vac
    what = "3 tau_vac overflows"
    if math.isfinite(t):
        factors = DecoherenceFactors.at_time(params, t)
        if math.isfinite(factors.gamma) and math.isfinite(factors.phi):
            return t
        what = f"the factors at 3 tau_vac = {t:.6g} s overflow"
    raise DomainError(
        f"{what}: ln(tau_vac / s) = {log_tau_vac:.6g} at alpha = {params.alpha:g}, "
        f"delta_p = {params.delta_p:g} m0 c; the decohered panel needs a larger alpha delta_p^2")


def transform_reports(params: ModelParams, spec: QuadratureSpec = DEFAULT_SPEC,
                      n_p: int = 1024) -> list[OracleReport]:
    """Transform-consistency reports at t = 0 and t = 3 tau_vac."""
    packet = GaussianPacket.from_params(params)
    tol = ORACLE_CHECKS["rho_r_transform"][1]
    out = []
    for label, t in (("t=0", 0.0), ("t=3tau_vac", fig3_time(params))):
        factors = DecoherenceFactors.at_time(params, t)
        try:
            res = transform_consistency(packet, factors, n_p=n_p)
            dev = res["max_deviation_over_peak"]
            out.append(OracleReport(
                "rho_r_transform", 0.0, dev, dev, dev, tol, n_p, dev <= tol,
                f"{label}: peak-relative deviation; stability {res['stability_over_peak']:.2e}"))
        except GridResolutionError as exc:
            out.append(OracleReport("rho_r_transform", math.nan, math.nan, math.inf,
                                    math.inf, tol, n_p, False, f"{label}: {exc}"))
    return out
