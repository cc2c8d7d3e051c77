"""Momentum-independent decoherence and phase factors.

These are the exact closed forms for the exponents of the reduced density
matrix,

    rho(p, p', t) = rho(p, p', 0) exp[-Gamma(t) (p - p')^2 + i Phi(t) (p^2 - p'^2)],

in internal units (factors in 1/(m0 c)^2, momenta in m0 c). The (p - p')^2
and (p^2 - p'^2) multiplications are deliberately the caller's job (densmat):
this module is the single source of truth for the factors themselves.

The dimensionless kernels (log_sqrt_one_plus_sq, log_sinhc, tau_minus_arctan,
lorentz_weight) are shared with the field and observables modules so that the
exact factor-of-2 and mass identities hold to machine precision.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .params import DomainError, ModelParams, thermal_time


# ---------------------------------------------------------------------------
# dimensionless kernels
# ---------------------------------------------------------------------------

def log_sqrt_one_plus_sq(tau: float) -> float:
    """ln sqrt(1 + tau^2), via log1p so the tau^2/2 branch survives tiny tau."""
    return 0.5 * math.log1p(tau * tau)


def log_sinhc(x: float) -> float:
    """ln[sinh(x)/x], overflow-safe and accurate to a few ulp for all x >= 0.

    log1p of the series sinh(x)/x - 1 = x^2/3! + x^4/5! + ... (through x^18/19!,
    truncation below 1e-19 relative) for x < 1, where ln of sinh(x)/x ~ 1 would
    cancel; x - ln(2x) + ln(1 - e^-2x) for large x (x = t/tau_F reaches 1e6 in
    late-time scans, and sinh itself overflows past x ~ 710).
    """
    if x < 0.0:
        raise DomainError("log_sinhc domain is x >= 0")
    if x < 1.0:
        x2 = x * x
        s = x2 * (1 / 6 + x2 * (1 / 120 + x2 * (1 / 5040 + x2 * (1 / 362880 + x2 * (
            1 / 39916800 + x2 * (1 / 6227020800 + x2 * (1 / 1307674368000 + x2 * (
                1 / 355687428096000 + x2 / 121645100408832000))))))))
        return math.log1p(s)
    if x > 20.0:
        return x - math.log(2.0 * x) + math.log1p(-math.exp(-2.0 * x))
    return math.log(math.sinh(x) / x)


def tau_minus_arctan(tau: float) -> float:
    """tau - arctan(tau), with the series branch guarding the tau^3/3 regime."""
    if tau < 0.0:
        raise DomainError("time must be >= 0")
    if tau < 1e-2:
        t2 = tau * tau
        # alternating series tau^3/3 - tau^5/5 + ...; truncation < tau^11/11
        return tau * t2 * (1.0 / 3.0 + t2 * (-1.0 / 5.0 + t2 * (1.0 / 7.0 - t2 / 9.0)))
    return tau - math.atan(tau)


def lorentz_weight(tau: float) -> float:
    """tau^2 / (1 + tau^2): the saturation shape shared by delta_m and <E_F>."""
    t2 = tau * tau
    return t2 / (1.0 + t2)


def coupling_scale(alpha: float) -> float:
    """2 alpha / 3 pi, the prefactor of every decoherence integral."""
    return 2.0 * alpha / (3.0 * math.pi)


# ---------------------------------------------------------------------------
# factors
# ---------------------------------------------------------------------------

def gamma_vac_factor(params: ModelParams, t_seconds: float) -> float:
    """Vacuum decoherence factor Gamma_vac(t) = (2a/3pi) ln sqrt(1 + tau^2), in 1/(m0 c)^2."""
    if t_seconds < 0.0:
        raise DomainError("time must be >= 0")
    return coupling_scale(params.alpha) * log_sqrt_one_plus_sq(params.tau(t_seconds))


def gamma_th_factor(params: ModelParams, t_seconds: float) -> float:
    """Thermal decoherence factor Gamma_th(t) = (2a/3pi) ln[sinh(t/tau_F)/(t/tau_F)].

    Exactly zero at T = 0 (the k_B T << hbar Omega closed form; a warning is
    emitted when k_B T / hbar Omega > 0.01 where it degrades).
    """
    if t_seconds < 0.0:
        raise DomainError("time must be >= 0")
    if params.temperature == 0.0:
        return 0.0
    if 1.0 / params.theta > 0.01:
        warnings.warn(
            f"k_B T / hbar Omega = {1.0 / params.theta:.3g} > 0.01: the thermal "
            "closed form assumes k_B T << hbar Omega",
            UserWarning,
            stacklevel=2,
        )
    return coupling_scale(params.alpha) * log_sinhc(params.thermal_x(t_seconds))


def gamma_factor(params: ModelParams, t_seconds: float) -> float:
    """Gamma(t) = Gamma_vac(t) + Gamma_th(t)."""
    return gamma_vac_factor(params, t_seconds) + gamma_th_factor(params, t_seconds)


def phase_factor(params: ModelParams, t_seconds: float) -> float:
    """Global phase factor Phi(t) = (2a/3pi)(tau - arctan tau) - tau/(2 epsilon).

    The second term is the free-evolution phase -t/(2 m0 hbar); at alpha = 0
    the factor reduces to it exactly. Units 1/(m0 c)^2.
    """
    if t_seconds < 0.0:
        raise DomainError("time must be >= 0")
    tau = params.tau(t_seconds)
    interaction = coupling_scale(params.alpha) * tau_minus_arctan(tau)
    return interaction - 0.5 * tau / params.epsilon


def xi(params: ModelParams, p: float, t_seconds: float) -> float:
    """Single-momentum phase xi(p, t) = (2a/3pi) p^2 (tau - arctan tau), radians.

    xi(p, t) - xi(p', t) depends only on p^2 - p'^2; p in m0 c.
    """
    if t_seconds < 0.0:
        raise DomainError("time must be >= 0")
    return coupling_scale(params.alpha) * p * p * tau_minus_arctan(params.tau(t_seconds))


def spectral_density(params: ModelParams, omega: float, dp: float) -> float:
    """Ohmic spectral density J(omega) = (2a/3pi) dp^2 omega e^{-omega/Omega}.

    omega in rad/s, dp in m0 c; the returned density carries the rad/s of
    omega (the dp^2/m0^2 c^2 part is dimensionless internally). Linear in
    omega below the cutoff, which is what makes the damping of coherences
    frequency independent.
    """
    if omega < 0.0:
        raise DomainError("omega must be >= 0")
    return (
        coupling_scale(params.alpha) * dp * dp * omega * math.exp(-omega / params.omega_cut)
    )


@dataclass(frozen=True)
class DecoherenceFactors:
    """Factor bundle at one time. t is in Omega^-1 units, factors in 1/(m0 c)^2."""

    t: float
    gamma_vac: float
    gamma_th: float
    gamma: float
    phi: float

    @classmethod
    def at_time(cls, params: ModelParams, t_seconds: float) -> "DecoherenceFactors":
        gv = gamma_vac_factor(params, t_seconds)
        gt = gamma_th_factor(params, t_seconds)
        return cls(
            t=params.tau(t_seconds),
            gamma_vac=gv,
            gamma_th=gt,
            gamma=gv + gt,
            phi=phase_factor(params, t_seconds),
        )

    @classmethod
    def free(cls) -> "DecoherenceFactors":
        """The t = 0 bundle (also the alpha = 0, t = 0 case)."""
        return cls(t=0.0, gamma_vac=0.0, gamma_th=0.0, gamma=0.0, phi=0.0)


# ---------------------------------------------------------------------------
# regime approximations (reporting/tests only, never primary evaluation)
# ---------------------------------------------------------------------------

EARLY, INTERMEDIATE, LATE = "early", "intermediate", "late"
_GUARD = math.sqrt(10.0)   # half-decade guard band around each boundary


@dataclass(frozen=True)
class Regime:
    """A guard-banded time zone: early t << 1/Omega, intermediate 1/Omega << t << tau_F,
    late t >> tau_F. Bounds in seconds."""

    label: str
    t_min: float
    t_max: float

    def contains(self, t_seconds: float) -> bool:
        return self.t_min <= t_seconds <= self.t_max

    @classmethod
    def of(cls, params: ModelParams, label: str) -> "Regime":
        inv_omega = 1.0 / params.omega_cut
        tau_F = thermal_time(params.temperature) if params.temperature > 0.0 else math.inf
        if label == EARLY:
            return cls(EARLY, 0.0, inv_omega / _GUARD)
        if label == INTERMEDIATE:
            return cls(INTERMEDIATE, inv_omega * _GUARD, tau_F / _GUARD)
        if label == LATE:
            if math.isinf(tau_F):
                raise DomainError("late regime undefined at T = 0")
            return cls(LATE, tau_F * _GUARD, math.inf)
        raise DomainError(f"unknown regime {label!r}")


def classify_regime(params: ModelParams, t_seconds: float) -> str | None:
    """Label of the guard-banded regime containing t, or None between bands."""
    for label in (EARLY, INTERMEDIATE, LATE):
        try:
            if Regime.of(params, label).contains(t_seconds):
                return label
        except DomainError:
            continue
    return None


def _check_regime(params: ModelParams, t_seconds: float, label: str) -> None:
    reg = Regime.of(params, label)
    if not reg.contains(t_seconds):
        raise DomainError(
            f"t = {t_seconds:.3g} s outside the {label} regime "
            f"[{reg.t_min:.3g}, {reg.t_max:.3g}] s"
        )


def gamma_regime_approx(params: ModelParams, t_seconds: float, regime: str) -> float:
    """Branch approximations of Gamma(t).

    early: (2a/3pi) tau^2/2 (vacuum, quadratic); intermediate: (2a/3pi) ln tau
    (vacuum, logarithmic); late: (2a/3pi) t/tau_F (thermal, linear). The late
    branch approximates Gamma_th and its relative accuracy is ln(2x)/x, so 2%
    needs t beyond ~500 tau_F; accuracy generally degrades toward band edges.
    """
    _check_regime(params, t_seconds, regime)
    scale = coupling_scale(params.alpha)
    tau = params.tau(t_seconds)
    if regime == EARLY:
        return scale * 0.5 * tau * tau
    if regime == INTERMEDIATE:
        return scale * math.log(tau)
    return scale * params.thermal_x(t_seconds)


def phi_regime_approx(params: ModelParams, t_seconds: float, regime: str) -> float:
    """Branch approximations of Phi(t): interaction part tau^3/3 (early) or tau
    (late, meaning t >> 1/Omega), both minus the free term tau/(2 epsilon)."""
    if regime == INTERMEDIATE:
        raise DomainError("Phi has only early (t << 1/Omega) and late (t >> 1/Omega) branches")
    tau = params.tau(t_seconds)
    free = 0.5 * tau / params.epsilon
    if regime == EARLY:
        _check_regime(params, t_seconds, EARLY)
        return coupling_scale(params.alpha) * tau**3 / 3.0 - free
    if t_seconds < _GUARD / params.omega_cut:
        raise DomainError(f"t = {t_seconds:.3g} s is not >> 1/Omega")
    return coupling_scale(params.alpha) * tau - free
