"""Momentum-independent decoherence and phase factors.

These are the exact closed forms for the exponents of the reduced density
matrix,

    rho(p, p', t) = rho(p, p', 0) exp[-Gamma(t) (p - p')^2 + i Phi(t) (p^2 - p'^2)],

in internal units (factors in 1/(m0 c)^2, momenta in m0 c). The (p - p')^2
and (p^2 - p'^2) multiplications are deliberately the caller's job (densmat):
this module is the single source of truth for the factors themselves.

The dimensionless kernels (log_sqrt_one_plus_sq, log_sinhc, tau_minus_arctan,
lorentz_weight, lorentz_weight_slope) are shared with the field and
observables modules so that the exact factor-of-2 and mass identities hold to
machine precision.

Every kernel and every function of t_seconds takes a scalar or an array and
gives a scalar for a scalar; branches are chosen per element with masks.
Times enter through ModelParams.tau, which rejects negative, NaN and
infinite times.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .params import DomainError, ModelParams, _caller_stacklevel

__all__ = [
    "DecoherenceFactors", "coupling_scale", "gamma_th_factor", "gamma_vac_factor",
    "log_sinhc", "log_sqrt_one_plus_sq", "lorentz_weight", "lorentz_weight_slope",
    "phase_factor", "tau_minus_arctan",
]


# ---------------------------------------------------------------------------
# dimensionless kernels (scalar or array in; a scalar in gives a scalar out)
# ---------------------------------------------------------------------------

# Above this tau the large-tau forms take over: 1 + tau^2 already rounds to
# tau^2 there, and tau^2 is still ~1e138 below overflow.
_LARGE_TAU = 1e8


def _piecewise(x, cut: float, below, above):
    """below(x) where x < cut, above(x) elsewhere, each evaluated only on its
    own elements so neither branch sees an argument it overflows on."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    lo = x < cut
    out[lo], out[~lo] = below(x[lo]), above(x[~lo])
    return out[()]


def log_sqrt_one_plus_sq(tau):
    """ln sqrt(1 + tau^2): log1p keeps the tau^2/2 regime at tiny tau, and
    ln tau + ln(1 + tau^-2)/2 stays finite where tau^2 overflows (tau > ~1.3e154)."""
    return _piecewise(tau, _LARGE_TAU, lambda t: 0.5 * np.log1p(t * t),
                      lambda t: np.log(t) + 0.5 * np.log1p((1.0 / t) ** 2))


def log_sinhc(x):
    """ln[sinh(x)/x], overflow-safe and accurate to a few ulp for all x >= 0.

    log1p of the series sinh(x)/x - 1 = x^2/3! + x^4/5! + ... (through x^18/19!,
    truncation below 1e-19 relative) for x < 1, where ln of sinh(x)/x ~ 1 would
    cancel; x - ln(2x) + ln(1 - e^-2x) from x = 20 (x = t/tau_F reaches 1e6 in
    late-time scans, and sinh itself overflows past x ~ 710).
    """
    if np.any(np.asarray(x) < 0.0):
        raise DomainError("log_sinhc domain is x >= 0")

    def series(x):
        x2 = x * x
        s = x2 * (1 / 6 + x2 * (1 / 120 + x2 * (1 / 5040 + x2 * (1 / 362880 + x2 * (
            1 / 39916800 + x2 * (1 / 6227020800 + x2 * (1 / 1307674368000 + x2 * (
                1 / 355687428096000 + x2 / 121645100408832000))))))))
        return np.log1p(s)

    return _piecewise(x, 1.0, series, lambda x: _piecewise(
        x, 20.0, lambda x: np.log(np.sinh(x) / x),
        lambda x: x - np.log(2.0 * x) + np.log1p(-np.exp(-2.0 * x))))


# tau^3 sum_k (-1)^k tau^2k / (2k + 3); at the tau = 0.3 join the first term
# left out is ~1e-21 of the sum
_TAU_MINUS_ARCTAN_SERIES = tuple((-1) ** k / (2 * k + 3) for k in range(19))


def tau_minus_arctan(tau):
    """tau - arctan(tau) for tau >= 0, by its Taylor series below tau = 0.3,
    where the plain difference cancels (it keeps ~2e-12 relative at tau = 1e-2)."""

    def series(t):
        t2 = t * t
        s = np.zeros_like(t)
        for c in reversed(_TAU_MINUS_ARCTAN_SERIES):
            s = s * t2 + c
        return t * t2 * s

    return _piecewise(tau, 0.3, series, lambda t: t - np.arctan(t))


def lorentz_weight(tau):
    """tau^2 / (1 + tau^2): the saturation shape shared by delta_m and <E_F>."""
    return _piecewise(tau, _LARGE_TAU, lambda t: t * t / (1.0 + t * t),
                      lambda t: 1.0 / (1.0 + (1.0 / t) ** 2))


def lorentz_weight_slope(tau):
    """d/dtau of lorentz_weight, 2 tau / (1 + tau^2)^2: the shape of the mean
    acceleration, computed without the (1 + tau^2)^2 that overflows past ~1e77."""
    return _piecewise(tau, _LARGE_TAU, lambda t: 2.0 * t / (1.0 + t * t) ** 2,
                      lambda t: 2.0 * (1.0 / t) ** 3 / (1.0 + (1.0 / t) ** 2) ** 2)


def coupling_scale(alpha: float) -> float:
    """2 alpha / 3 pi, the prefactor of every decoherence integral."""
    return 2.0 * alpha / (3.0 * math.pi)


# ---------------------------------------------------------------------------
# factors: t_seconds is a scalar or an array of times; ModelParams.tau checks it
# ---------------------------------------------------------------------------

def gamma_vac_factor(params: ModelParams, t_seconds):
    """Vacuum decoherence factor Gamma_vac(t) = (2a/3pi) ln sqrt(1 + tau^2), in 1/(m0 c)^2."""
    return coupling_scale(params.alpha) * log_sqrt_one_plus_sq(params.tau(t_seconds))


def gamma_th_factor(params: ModelParams, t_seconds):
    """Thermal decoherence factor Gamma_th(t) = (2a/3pi) ln[sinh(t/tau_F)/(t/tau_F)].

    Exactly zero at T = 0 (the k_B T << hbar Omega closed form; a warning is
    emitted when k_B T / hbar Omega > 0.01 where it degrades).
    """
    if 1.0 / params.theta > 0.01:
        warnings.warn(
            f"k_B T / hbar Omega = {1.0 / params.theta:.3g} > 0.01: the thermal "
            "closed form assumes k_B T << hbar Omega",
            UserWarning,
            stacklevel=_caller_stacklevel(2),
        )
    return coupling_scale(params.alpha) * log_sinhc(params.thermal_x(t_seconds))


def phase_factor(params: ModelParams, t_seconds):
    """Global phase factor Phi(t) = (2a/3pi)(tau - arctan tau) - tau/(2 epsilon).

    The second term is the free-evolution phase -t/(2 m0 hbar); at alpha = 0
    the factor reduces to it exactly. Units 1/(m0 c)^2.
    """
    tau = params.tau(t_seconds)
    interaction = coupling_scale(params.alpha) * tau_minus_arctan(tau)
    return interaction - 0.5 * tau / params.epsilon


@dataclass(frozen=True)
class DecoherenceFactors:
    """Factor bundle at one time or on a time grid (then every field is an
    array of the grid's shape). t is in Omega^-1 units, factors in 1/(m0 c)^2."""

    t: float | np.ndarray
    gamma_vac: float | np.ndarray
    gamma_th: float | np.ndarray
    gamma: float | np.ndarray
    phi: float | np.ndarray

    @classmethod
    def at_time(cls, params: ModelParams, t_seconds) -> "DecoherenceFactors":
        gv = gamma_vac_factor(params, t_seconds)
        gt = gamma_th_factor(params, t_seconds)
        return cls(
            t=params.tau(t_seconds),
            gamma_vac=gv,
            gamma_th=gt,
            gamma=gv + gt,
            phi=phase_factor(params, t_seconds),
        )
