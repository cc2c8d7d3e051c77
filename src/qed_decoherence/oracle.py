"""Independent numerical verification of every closed form.

Each analytic result in decoherence/field/densmat has exactly one oracle
counterpart here: adaptive quadrature of the defining frequency integral
(in cutoff units w = omega/Omega, tau = Omega t, theta = hbar Omega/k_B T),
or, for the coordinate-space density matrix, a direct double Fourier
transform: the plain trapezoid double sum over rho_p written from its
definition, so the phase conventions stay manifestly identical to the
analytic transform, evaluated as a Toeplitz convolution (one FFT per row;
numpy.fft is loaded on the first call, not at import). The transform streams
its q rows in cache-sized blocks through one reused buffer and writes its
phases in place, so no N x N and no (n_q, 2N) array is formed. The momentum
matrix densmat builds is checked element by element against that same rho_p, a
block of rows at a time as rho_p_matrix builds them, so verify forms no N x N array.

Every frequency oracle passes its integrand's pieces to one driver as functions; the
four 1 - cos integrals share one kernel whose weight is 1, coth - 1 or coth.

The oracles never call the closed forms they check. Their policy is stated once:
the frequency cutoff and oscillation threshold below, the tolerances in ORACLE_CHECKS.
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
           "quad_photon_continuum", "run_all", "thermal_tolerance",
           "transform_consistency"]

DEFAULT_SPEC = QuadratureSpec()
_CUTOFF_MULTIPLE = 50.0         # every frequency integral ends at w = 50, omega = 50 Omega
_OSCILLATION_THRESHOLD = 10.0   # above this tau the cycles go to per-period handling
_N_P = 1024   # momentum points of the transform oracle; its stability check doubles them


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


def _omc_head(ell: float, tau: float, theta: float, vacuum: bool) -> float:
    """integral_0^ell of e^-w W(w) (1 - cos w tau)/w for ell << min(1/tau, 1/theta, 1),
    with W = 1 (if vacuum) + coth(theta w/2) - 1, as the vacuum part plus the thermal part:

    vacuum:   e^-w (1 - cos w tau)/w ~ w tau^2/2 (1 - w):  tau^2 ell^2/4 - tau^2 ell^3/6
    thermal:  extra factor coth(theta w/2) - 1 ~ 2/(theta w) - 1:
              tau^2 ell/theta - (tau^2/2 + tau^2/theta) ell^2/2;  0 at theta = inf
    """
    t2 = tau * tau
    vac = t2 * ell * ell * (0.25 - ell / 6.0) if vacuum else 0.0
    if math.isinf(theta):
        return vac
    return vac + (t2 * ell / theta - (0.5 * t2 + t2 / theta) * ell * ell / 2.0)


def _phase_head(ell: float, tau: float) -> float:
    """integral_0^ell of e^-w (w tau - sin w tau)/w ~ w^2 tau^3/6 (1 - w):
    tau^3 ell^3/18 - tau^3 ell^4/24."""
    return tau * (tau * tau) * ell**3 * (1.0 / 18.0 - ell / 24.0)


def _frequency_integral(tau: float, theta: float, head, combined, envelope, trig,
                        tail_bound, smooth=None) -> QuadResult:
    """integral_0^wmax dw combined(w), combined = smooth - envelope * trig(w tau) with
    trig np.cos or np.sin: the one split policy of every frequency oracle.

    head(ell), the small-w series of the integral over [0, ell], stands in where the
    integrand carries a 1/w; None marks one regular at w = 0, integrated from 0.
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
    spec, wmax = DEFAULT_SPEC, _CUTOFF_MULTIPLE
    fixed = (1.0, 5.0, 20.0)    # the scales of e^-w
    if head is None:
        ell = wc = 0.0
        near = QuadResult(0.0, 0.0, 0)
    else:
        ell = 1e-6 * min(1.0 / tau, 1.0 / theta if not math.isinf(theta) else 1.0, 1.0)
        wc = min(1.0, 20.0 * math.pi / tau)
        near = QuadResult(head(ell), 0.0, 0)

    def scales(lo: float, hi: float) -> tuple[float, ...]:
        """Decades in [lo, hi] (none from lo = 0) and the thermal scales; adaptive
        keeps the points strictly inside its interval."""
        pts = [10.0**k for k in range(math.ceil(math.log10(lo)),
                                      math.floor(math.log10(hi)) + 1)] if lo > 0.0 else []
        if not math.isinf(theta):
            pts += [c / theta for c in (0.2, 2.0, 20.0, 200.0)]
        return tuple(pts)

    if tau <= _OSCILLATION_THRESHOLD:
        h = math.pi / tau
        half = tuple(ell + k * h for k in range(1, 80)) if tau > 2.0 else ()
        result = near + adaptive(combined, ell, wmax, spec,
                                 breakpoints=scales(ell, wmax) + half + fixed)
    else:
        if wc > ell:    # a regular integrand (head None) has no near piece
            near = near + adaptive(combined, ell, wc, spec, breakpoints=scales(ell, wc))
        body = (adaptive(envelope, wc, wmax, spec, breakpoints=scales(wc, wmax) + fixed)
                if smooth is None else adaptive(smooth, wc, wmax, spec, breakpoints=fixed))
        osc = oscillatory(envelope, tau, wc, wmax, trig, spec)
        result = near + body + -1.0 * osc
    result.tail_bound = tail_bound(wmax)
    return result


def _omc(tau: float, theta: float, vacuum: bool) -> QuadResult:
    """integral dw e^-w W(w) (1 - cos w tau)/w with the weight W = 1 (vacuum),
    coth(theta w/2) - 1 (thermal, not vacuum) or their sum coth(theta w/2)."""
    def weight(w):
        return float(vacuum) + _cothm1(0.5 * theta * w)

    return _frequency_integral(
        tau, theta, lambda ell: _omc_head(ell, tau, theta, vacuum),
        lambda w: np.exp(-w) * weight(w) * _one_minus_cos(w * tau) / w,
        lambda w: np.exp(-w) * weight(w) / w, np.cos,
        lambda wmax: 2.0 * float(weight(wmax)) * math.exp(-wmax) / wmax)


def quad_gamma_vac(tau: float) -> QuadResult:
    """integral dw e^-w (1-cos w tau)/w; closed form ln sqrt(1 + tau^2)."""
    return _omc(tau, math.inf, True)


def quad_photon(tau: float) -> QuadResult:
    """Same frequency integral as the vacuum factor; closed form ln(1 + tau^2)/2."""
    return _omc(tau, math.inf, True)


def quad_gamma_th(tau: float, theta: float) -> QuadResult:
    """integral dw e^-w (coth(theta w/2) - 1)(1-cos w tau)/w, the full thermal
    integrand without the k_B T << hbar Omega simplification; compared against
    ln[sinh(x)/x] at x = pi tau / theta which is only that limit."""
    if theta <= 0.0:
        raise DomainError("theta must be positive (T > 0)")
    if math.isinf(theta):
        return QuadResult(0.0, 0.0, 0)
    return _omc(tau, theta, False)


def quad_gamma_total(tau: float, theta: float) -> QuadResult:
    """Full spectral-density reconstruction: integral of J(w)(1-cos w tau)
    coth(theta w/2)/w^2 with the (p-p')^2 prefactor divided out."""
    return _omc(tau, theta, True)


def quad_phase(tau: float) -> QuadResult:
    """integral dw e^-w (w tau - sin w tau)/w; closed form tau - arctan tau."""
    def combined(w):
        wt = w * tau
        return np.exp(-w) * (wt - np.sin(wt)) / w

    return _frequency_integral(
        tau, math.inf, lambda ell: _phase_head(ell, tau), combined, lambda w: np.exp(-w) / w,
        np.sin, lambda wmax: tau * math.exp(-wmax), smooth=lambda w: tau * np.exp(-w))


def quad_field_energy(tau: float) -> QuadResult:
    """integral dw e^-w (1-cos w tau); closed form tau^2/(1 + tau^2) (times Omega in SI)."""
    return _frequency_integral(
        tau, math.inf, None, lambda w: np.exp(-w) * _one_minus_cos(w * tau), lambda w: np.exp(-w),
        np.cos, lambda wmax: 2.0 * math.exp(-wmax))


@functools.cache
def _angular_rule() -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes mu_k, weights c_k = (3/4) w_k (1 - mu_k^2) and C = sum_k c_k of the
    40-node Gauss-Legendre rule of quad_photon_continuum, built once (read-only)."""
    mu, wts = np.polynomial.legendre.leggauss(40)
    c = 0.75 * wts * (1.0 - mu * mu)
    mu.flags.writeable = c.flags.writeable = False
    return mu, c, float(np.sum(c))


def quad_photon_continuum(tau: float, v0: float = 0.0) -> QuadResult:
    """Angular + frequency continuum sum of the per-mode occupation.

    (3/4) integral_-1^1 dmu (1-mu^2) K(tau (1 - v0 mu)) with K the photon
    frequency integral; the coupling geometry (1 - mu^2) is the polarization
    sum for p_bar along the motion. Reduces to the closed form at first order
    in v0 (the linear angular term integrates to zero), so v0 must be small
    for a tight comparison: residual O(v0^2).

    The angular integral is the 40-node Gauss-Legendre rule, weights
    c_k = (3/4) w_k (1 - mu_k^2). Nodes and weights are symmetric, so the sine
    terms of cos(w tau (1 - v0 mu_k)) cancel in pairs and

        sum_k c_k (1 - cos w tau_k) = C (1 - cos w tau) + cos(w tau) D(w),
        C = sum_k c_k,   D(w) = sum_k c_k 2 sin^2(w tau v0 mu_k / 2):

    the rule's 40 frequency integrals are C K(tau) plus one integral of the
    Doppler correction e^-w D(w) cos(w tau)/w. That integrand is regular at
    w = 0, and D varies on the scale 1/(tau v0), ~1e4 half periods of
    cos(w tau) at v0 <= 1e-4, so it is a smooth envelope for the cycle sums.
    D keeps the 2 sin^2 form: C - sum_k c_k cos(...) cancels at small tau v0.
    """
    if not 0.0 <= v0 < 1.0:
        raise DomainError("v0 must be in [0, 1)")
    mu, c, c_total = _angular_rule()
    shift = tau * v0 * mu

    def doppler(w):
        """-e^-w D(w)/w; the driver subtracts it times cos(w tau)."""
        return -np.exp(-w) * (_one_minus_cos(np.multiply.outer(w, shift)) @ c) / w

    # the correction has no smooth part: it is the cycle term alone
    return c_total * quad_photon(tau) + _frequency_integral(
        tau, math.inf, None, lambda w: -doppler(w) * np.cos(w * tau), doppler, np.cos,
        lambda wmax: 2.0 * c_total * math.exp(-wmax) / wmax, smooth=np.zeros_like)


# ---------------------------------------------------------------------------
# double Fourier transform oracle (1-D grids)
# ---------------------------------------------------------------------------

def _rho_p_factors(packet: GaussianPacket, factors: DecoherenceFactors,
                   p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho_p(p_i, p_j) = b_i G(i - j) conj(b_j) on a uniform momentum grid p, from
    the definition rho_p = rho_p(0) exp[-Gamma (p - p')^2 + i Phi (p^2 - p'^2)]:

        b_i = sqrt(N) exp(-3 (p_i - p0)^2 / 4 delta_p^2) exp(i theta_i),
        theta_i = Phi p_i^2 - r0 p_i,      G(k) = exp(-Gamma (k h)^2),

    with theta taken less its value at p0, which cancels in b_i conj(b_j).
    Returns b and G(0), ..., G(n - 1). A grid that is not uniform, or has fewer
    than two points, is a DomainError: G is a function of i - j only on a
    uniform grid.
    """
    n = len(p) if p.ndim == 1 else 0
    if n < 2:
        raise DomainError("the transform oracle needs a 1-D momentum grid of at least 2 points")
    h = (p[-1] - p[0]) / (n - 1)
    if not np.all(np.abs(np.diff(p) - h) <= 1e-9 * abs(h)):
        raise DomainError("the transform oracle needs a uniform momentum grid: its spacings "
                          f"differ from (p[-1] - p[0])/(n - 1) = {h:.6g} by more than 1e-9")
    u = p - packet.p0
    theta = u * (factors.phi * (u + 2.0 * packet.p0) - packet.r0)
    b = math.sqrt(packet.norm) * np.exp(-0.75 * (u / packet.delta_p) ** 2) * np.exp(1j * theta)
    return b, np.exp(-factors.gamma * (np.arange(n) * h) ** 2)


def fourier_rho_r(packet: GaussianPacket, factors: DecoherenceFactors,
                  p_grid: np.ndarray, q_grid: np.ndarray) -> np.ndarray:
    """rho_r(q, q') = (1/2 pi) sum_ij w_i w_j rho_p(p_i, p_j) e^{i(p_i r - p_j r')}.

    Plain trapezoid double sum on a uniform p grid, evaluated as a Toeplitz
    convolution, which changes nothing about the quadrature rule: with
    rho_p = b_i G(i - j) conj(b_j) (_rho_p_factors) and B = E diag(b w),
    E_qi = e^{i r_q p_i}, the sum is (B G) B^H / 2 pi. Each row of B G is a
    linear convolution with the symmetric kernel G, done by one zero-padded FFT
    of length 2N through the circulant embedding of G (Golub & Van Loan,
    Matrix Computations, 4th ed., 2013). q values are displacements; the
    absolute positions r = q + r0 carry the transform phases so the packet's
    own r0 phase cancels exactly as in the analytic calculation.

    E's phases r_q p_i are written into B's imaginary part and turned into
    cos and sin in place. The q rows are then streamed in blocks of ~1 MiB
    (at least 16 rows): each block is convolved in one reused (rows, 2N)
    buffer, FFT, spectrum product and inverse FFT in place, and contracted
    straight into its rows of the result as conj(conj(B G) B^T), so neither an
    N x N nor an (n_q, 2N) array, nor B^H, is ever formed.
    """
    p = np.asarray(p_grid, dtype=float)
    b, kernel = _rho_p_factors(packet, factors, p)
    n = len(p)
    r = np.asarray(q_grid, dtype=float) + packet.r0
    n_q = len(r)
    # E in place: cos and sin of the phases give the bits of exp(1j r_q p_i)
    bw = np.empty((n_q, n), dtype=complex)
    np.multiply.outer(r, p, out=bw.imag)
    np.cos(bw.imag, out=bw.real)
    np.sin(bw.imag, out=bw.imag)
    bw *= b * trapezoid_weights(p)
    # G(i - j) is the leading n x n block of the circulant of size 2n whose first
    # column is G(0..n-1), a zero, then the wrap-around half G(n-1..1); that column
    # is even, so its spectrum is real
    size = 2 * n
    column = np.zeros(size)
    column[:n] = kernel
    column[size - n + 1:] = kernel[:0:-1]
    spectrum = np.fft.fft(column).real
    out = np.empty((n_q, n_q), dtype=complex)
    rows = max(16, densmat._BLOCK_BYTES // (16 * size))
    buf = np.empty((min(rows, n_q), size), dtype=complex)
    for lo in range(0, n_q, rows):
        hi = min(lo + rows, n_q)
        bg = buf[:hi - lo]
        np.fft.fft(bw[lo:hi], size, axis=1, out=bg)
        bg *= spectrum
        np.fft.ifft(bg, axis=1, out=bg)
        # rows of (B G) B^H, conjugated: conj(B G) B^T needs no copy of B^H
        np.conjugate(bg, out=bg)
        np.matmul(bg[:, :n], bw.T, out=out[lo:hi])
    np.conjugate(out, out=out)
    out /= 2.0 * math.pi
    return out


def default_transform_grids(packet: GaussianPacket, factors: DecoherenceFactors,
                            n_p: int = _N_P, n_q: int = 201) -> tuple[np.ndarray, np.ndarray]:
    """Grids per the oracle policy: p symmetric about p0 spanning 12 delta_p
    in total, q centered on <q>_t within the packet's +-6 delta_r(t)."""
    p_grid = np.linspace(packet.p0 - 6.0 * packet.delta_p, packet.p0 + 6.0 * packet.delta_p, n_p)
    center = densmat.mean_displacement(packet, factors)
    half = 10.0 * packet.d * math.sqrt(densmat.z_factor(packet, factors))  # = 5.77 delta_r(t)
    q_grid = np.linspace(center - half, center + half, n_q)
    return p_grid, q_grid


def _rho_p_deviation(packet: GaussianPacket, factors: DecoherenceFactors,
                     p_grid: np.ndarray) -> float:
    """Peak-relative max deviation of densmat.rho_p_matrix from the oracle's own
    b_i G(|i - j|) conj(b_j) (_rho_p_factors), element by element: each row block it
    passes to each_block against the same rows of the reference, in one reused complex
    and one real buffer, G(|i - j|) from a strided Toeplitz view; no N x N array."""
    b, kernel = _rho_p_factors(packet, factors, np.asarray(p_grid, dtype=float))
    n = len(b)
    # row i of the view is G(|i - j|), j = 0..n-1: a window of G(n-1), ..., G(0), ..., G(n-1)
    toeplitz = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([kernel[:0:-1], kernel]), n)[::-1]
    b_conj = b.conj()
    shape = (min(densmat._block_rows(n), n), n)
    cbuf, rbuf = np.empty(shape, dtype=complex), np.empty(shape)
    worst = peak = 0.0

    def compare(lo, hi, grid):
        nonlocal worst, peak
        ref, mag = cbuf[:hi - lo], rbuf[:hi - lo]
        np.multiply.outer(b[lo:hi], b_conj, out=ref)
        ref *= toeplitz[lo:hi]
        peak = max(peak, float(np.max(np.abs(ref, out=mag))))
        ref -= grid
        worst = max(worst, float(np.max(np.abs(ref, out=mag))))

    densmat.rho_p_matrix(p_grid, packet, factors, each_block=compare)
    return worst / peak


def transform_consistency(packet: GaussianPacket, factors: DecoherenceFactors,
                          n_p: int = _N_P) -> dict:
    """Compare the transform oracle against the closed-form rho_r on a grid, and
    densmat's rho_p grid against the oracle's rho_p on the n_p grid.

    Returns both peak-relative max deviations plus the grid-doubling stability;
    the stability detector raises GridResolutionError when the quadrature grid
    is underresolved: the two grids' results differ by more than 1e-7 of the peak.
    """
    p_grid, q_grid = default_transform_grids(packet, factors, n_p=n_p)
    numeric = fourier_rho_r(packet, factors, p_grid, q_grid)
    p2 = np.linspace(p_grid[0], p_grid[-1], 2 * n_p)
    numeric2 = fourier_rho_r(packet, factors, p2, q_grid)
    peak = float(np.max(np.abs(numeric2)))
    stability = float(np.max(np.abs(numeric2 - numeric))) / peak
    if stability > 1e-7:
        raise GridResolutionError(
            f"transform unstable under grid doubling: {stability:.3g} > 1e-07 "
            f"(n_p = {n_p}); refine the momentum grid"
        )
    closed = densmat.rho_r_matrix(q_grid, packet, factors)
    deviation = float(np.max(np.abs(numeric2 - closed))) / peak
    return {"max_deviation_over_peak": deviation, "stability_over_peak": stability,
            "rho_p_deviation_over_peak": _rho_p_deviation(packet, factors, p_grid)}


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
                panels: int, scale: float, detail: str = "") -> "OracleReport":
        """Pass within tolerance * |closed|, or within a floor of min(1e-13, tolerance *
        scale), scale the quantity's largest |closed| over its points, so that a
        quantity near zero in its own unit is still checked."""
        abs_err = abs(closed - oracle_val)
        rel_err = abs_err / abs(closed) if closed != 0.0 else math.inf
        passed = abs_err <= max(tolerance * abs(closed), min(1e-13, tolerance * scale))
        return cls(quantity, closed, oracle_val, abs_err,
                   rel_err if closed != 0.0 else abs_err, tolerance, panels, passed, detail)


# quantity -> (closed-form home, tolerance), each tolerance applied as written, or as the
# base of thermal_tolerance by the two thermal checks; coverage is asserted in tests
ORACLE_CHECKS = {
    "gamma_vac": ("decoherence.gamma_vac_factor", 1e-8),
    "gamma_th": ("decoherence.gamma_th_factor", 1e-7),
    "gamma_total_spectral": ("decoherence.gamma_vac_factor + gamma_th_factor", 1e-6),
    "phase_xi": ("decoherence.phase_factor interaction part", 1e-8),
    "photon_number": ("field.mean_photon_number", 1e-8),
    "photon_continuum": ("field.mean_photon_number (angular continuum)", 1e-6),
    "field_energy": ("field.mean_field_energy", 1e-8),
    "factor2_identity": ("field.mean_photon_number = 2 Gamma_vac pbar^2", 1e-12),
    "field_mass_identity": ("field.mean_field_energy = (pbar^2/2m0)(2 dm/m0)", 1e-12),
    "rho_r_transform": ("densmat.rho_r_matrix", 1e-6),
}


def thermal_tolerance(theta: float, base: float) -> float:
    """Approximation-limited tolerance for the k_B T << hbar Omega closed forms.

    Their relative deviation from the full-coth integral scales like 10/theta
    (1e-3 at the theta = 1e4 anchor); below that the base, the quadrature floor
    that ORACLE_CHECKS declares, applies.
    The closed forms stop being meaningful references for theta < ~100, where
    the assumption itself is flagged.
    """
    return min(0.5, max(base, 10.0 / theta))


def _worst(reports: list[OracleReport]) -> OracleReport:
    worst = max(reports, key=lambda r: (not r.passed, r.rel_err if math.isfinite(r.rel_err) else r.abs_err))
    worst.passed = all(r.passed for r in reports)
    worst.panels = sum(r.panels for r in reports)
    return worst


def run_all(params: ModelParams, t_grid_seconds) -> list[OracleReport]:
    """Every frequency oracle and identity check (not the transform: transform_reports)
    against its closed form, aggregated to one worst-case report per quantity at its
    ORACLE_CHECKS tolerance. Per-quantity failures are collected, never raised."""
    p_bar = abs(params.p0) or params.delta_p
    if not math.isfinite(p_bar * p_bar):
        raise DomainError(f"p0 = {params.p0:g} m0 c overflows the identity checks' p0^2")
    taus = params.tau(np.asarray(t_grid_seconds, dtype=float)).tolist()
    theta = params.theta
    reports: list[OracleReport] = []

    def gather(quantity, closed_fn, quad_fn, grid, detail=""):
        tol = ORACLE_CHECKS[quantity][1]
        if quantity in ("gamma_th", "gamma_total_spectral"):
            tol = thermal_tolerance(theta, tol)
        points = []
        for tau in grid:
            try:
                points.append((tau, quad_fn(tau), closed_fn(tau)))
            except (QuadratureError, DomainError) as exc:
                points.append((tau, exc, math.nan))
        scale = max((abs(c) for _, _, c in points if math.isfinite(c)), default=0.0)
        rows = []
        for tau, res, closed in points:
            if isinstance(res, Exception):
                rows.append(OracleReport(quantity, math.nan, math.nan, math.inf,
                                         math.inf, tol, 0, False, f"error: {res}"))
                continue
            row = OracleReport.compare(
                quantity, closed, res.value, tol, res.panels, scale,
                detail=detail or f"worst over {len(grid)}-point grid")
            if not res.converged:
                row.passed = False
                row.detail = f"oracle did not converge at tau = {tau:g}; {row.detail}"
            rows.append(row)
        reports.append(_worst(rows))

    # the vacuum factor and the photon number share one frequency integral:
    # integrate it once per tau and check both closed forms against it
    quad_vac = functools.lru_cache(maxsize=None)(quad_gamma_vac)
    gather("gamma_vac", decoherence.log_sqrt_one_plus_sq, quad_vac, taus)
    gather("phase_xi", decoherence.tau_minus_arctan, quad_phase, taus)
    gather("photon_number", lambda tau: math.log1p(tau * tau) / 2.0, quad_vac, taus)
    gather("field_energy", decoherence.lorentz_weight, quad_field_energy, taus)
    if params.temperature > 0.0:
        gather("gamma_th", lambda tau: decoherence.log_sinhc(math.pi * tau / theta),
               lambda tau: quad_gamma_th(tau, theta), taus,
               detail=f"k_BT << hbar Omega form at theta = {theta:.3g}")
    # at T = 0 (theta = inf) the thermal term is log_sinhc(0) = 0, the tolerance
    # is the base one and the quadrature is the vacuum integral, already integrated
    gather("gamma_total_spectral",
           lambda tau: decoherence.log_sqrt_one_plus_sq(tau)
           + decoherence.log_sinhc(math.pi * tau / theta),
           quad_vac if math.isinf(theta) else lambda tau: quad_gamma_total(tau, theta), taus,
           detail="" if params.temperature > 0.0 else "T = 0: coth = 1 branch")

    # angular + frequency continuum: small v0 keeps the O(v0^2) residual
    # below the declared tolerance
    v0c = min(params.v0, 1e-4)
    cont_taus = taus[:: max(1, len(taus) // 5)]
    gather("photon_continuum", lambda tau: math.log1p(tau * tau) / 2.0,
           lambda tau: quad_photon_continuum(tau, v0c), cont_taus,
           detail=f"v0 = {v0c:g}, 40-node angular rule")

    # cross-module identity routes
    t = np.asarray(t_grid_seconds, dtype=float)
    kin = params.energy_si(0.5 * p_bar**2)
    for quantity, closed, ident, detail in (
            ("factor2_identity", fieldmod.mean_photon_number(params, p_bar, t),
             2.0 * decoherence.gamma_vac_factor(params, t) * p_bar**2, f"p_bar = {p_bar:g}"),
            ("field_mass_identity", fieldmod.mean_field_energy(params, p_bar, t),
             kin * 2.0 * observables.mass_shift(params, t) / params.mass0, "")):
        scale = float(np.max(np.abs(closed), where=np.isfinite(closed), initial=0.0))
        reports.append(_worst([
            OracleReport.compare(quantity, float(c), float(i), ORACLE_CHECKS[quantity][1], 0,
                                 scale, detail=detail) for c, i in zip(closed, ident)]))
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


def transform_reports(params: ModelParams) -> list[OracleReport]:
    """Transform-consistency reports at t = 0 and t = 3 tau_vac."""
    packet = GaussianPacket.from_params(params)
    tol = ORACLE_CHECKS["rho_r_transform"][1]
    out = []
    for label, t in (("t=0", 0.0), ("t=3tau_vac", fig3_time(params))):
        factors = DecoherenceFactors.at_time(params, t)
        try:
            res = transform_consistency(packet, factors)
            dev, dev_p = res["max_deviation_over_peak"], res["rho_p_deviation_over_peak"]
            out.append(OracleReport(
                "rho_r_transform", 0.0, dev, dev, dev, tol, _N_P, dev <= tol and dev_p <= tol,
                f"{label}: peak-relative deviation; stability {res['stability_over_peak']:.2e}"
                f"; rho_p {dev_p:.2e}"))
        except GridResolutionError as exc:
            out.append(OracleReport("rho_r_transform", math.nan, math.nan, math.inf,
                                    math.inf, tol, _N_P, False, f"{label}: {exc}"))
    return out
