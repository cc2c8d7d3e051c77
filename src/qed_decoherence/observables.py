"""Derived physical quantities: widths, coherence lengths, mean motion,
dressed mass, entropy, and the radiated-power scaling estimate.

Unit conventions at this API: time in seconds in, SI out for dimensionful
quantities (meters, m/s, m/s^2, kg, J), momentum widths in m0 c (they are
ratios of the configured inputs), entropy and mass ratio dimensionless. Time
is a scalar or a 1-D array of T times; results are scalars or (T,) columns,
and 3-vectors (3,) or (T, 3).

The coherence-length / width / entropy identities are exact by construction:
everything is derived from the single ratio 1/sqrt(1 + 8 dp^2 Gamma / 3), so

    S_lin = 1 - l_p/delta_p = 1 - l_r/delta_r(t)

holds to machine precision, as does delta_r(t)^2 = 3 d^2 Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HBAR, SPEED_OF_LIGHT
from .decoherence import (
    DecoherenceFactors,
    coupling_scale,
    lorentz_weight,
    lorentz_weight_slope,
    tau_minus_arctan,
)
from .params import ModelParams

__all__ = [
    "ObservableSnapshot", "brems_power_estimate", "dressed_mass",
    "inv_mass_time_average", "linear_entropy", "mass_shift", "mean_acceleration",
    "mean_displacement", "mean_velocity", "momentum_coherence_length", "momentum_width",
    "snapshot", "spatial_coherence_length", "spatial_width", "spatial_width_free",
]


def _coherence_ratio(params: ModelParams, gamma):
    """l_p/delta_p = l_r/delta_r(t) = 1 - S_lin, from Gamma in 1/(m0 c)^2."""
    return 1.0 / np.sqrt(1.0 + 8.0 * params.delta_p**2 * gamma / 3.0)


def _mass_shift_ratio(params: ModelParams, tau):
    """delta_m(t)/m0 = (4 alpha epsilon / 3 pi) tau^2/(1+tau^2)."""
    return 2.0 * coupling_scale(params.alpha) * params.epsilon * lorentz_weight(tau)


def _inv_mass_avg_ratio(params: ModelParams, tau):
    """m0 <1/m>_t = 1 - (4 alpha epsilon / 3 pi)(tau - arctan tau)/tau; 1 at t=0.

    Equals -2 hbar Phi(t)/t exactly; it agrees with (1/t) int dt'/m(t') only to
    first order in delta_m/m0 (see mass_shift).
    """
    tau = np.asarray(tau, dtype=float)
    shift = 2.0 * coupling_scale(params.alpha) * params.epsilon * tau_minus_arctan(tau)
    return 1.0 - np.divide(shift, tau, out=np.zeros_like(shift), where=tau > 0.0)[()]


# -- momentum space ----------------------------------------------------------

def momentum_width(params: ModelParams, t_seconds):
    """delta_p(t) = delta_p for all t (no spreading in the pointer basis), m0 c."""
    return np.full(np.shape(params.tau(t_seconds)), params.delta_p)[()]


def momentum_coherence_length(params: ModelParams, t_seconds):
    """l_p(t) = delta_p / sqrt(1 + 8 dp^2 Gamma(t)/3), m0 c; falls off as 1/sqrt(t)."""
    gamma = DecoherenceFactors.at_time(params, t_seconds).gamma
    return params.delta_p * _coherence_ratio(params, gamma)


def linear_entropy(params: ModelParams, t_seconds):
    """S_lin(t) = 1 - 1/sqrt(1 + 6 Gamma hbar^2/delta_r^2): purity loss, 0 at t=0."""
    return 1.0 - _coherence_ratio(params, DecoherenceFactors.at_time(params, t_seconds).gamma)


# -- mean motion and dressing -------------------------------------------------

def _displacement(params: ModelParams, phi):
    return np.multiply.outer(-2.0 * phi, params.p0) * HBAR / (params.mass0 * SPEED_OF_LIGHT)


def mean_displacement(params: ModelParams, t_seconds):
    """<q>_t = -2 p0 Phi(t) hbar, meters, per component."""
    return _displacement(params, DecoherenceFactors.at_time(params, t_seconds).phi)


def mean_velocity(params: ModelParams, t_seconds):
    """<qdot>_t = (p0/m0)[1 - delta_m(t)/m0], m/s, per component (exact derivative)."""
    factor = 1.0 - _mass_shift_ratio(params, params.tau(t_seconds))
    return np.multiply.outer(factor, params.p0) * SPEED_OF_LIGHT


def mean_acceleration(params: ModelParams, t_seconds):
    """<qddot>_t = -(p0/m0^2)(4 a hbar Omega/3 pi c^2) 2 Omega^2 t/(1+tau^2)^2, m/s^2."""
    shape = (-2.0 * coupling_scale(params.alpha) * params.epsilon
             * lorentz_weight_slope(params.tau(t_seconds)))
    return np.multiply.outer(shape, params.p0) * params.omega_cut * SPEED_OF_LIGHT


def mass_shift(params: ModelParams, t_seconds):
    """Dressing mass increase delta_m(t) = (4 a hbar Omega/3 pi c^2) tau^2/(1+tau^2), kg.

    Quadratic for t << 1/Omega, saturating to the full electromagnetic mass
    shift 4 a hbar Omega / 3 pi c^2 for t >> 1/Omega.
    """
    return params.mass0 * _mass_shift_ratio(params, params.tau(t_seconds))


def dressed_mass(params: ModelParams, t_seconds):
    """m(t) = m0 + delta_m(t), kg."""
    return params.mass0 + mass_shift(params, t_seconds)


def inv_mass_time_average(params: ModelParams, t_seconds):
    """<1/m>_t = -2 hbar Phi(t) / t, in 1/kg, with the continuity value 1/m0 at t=0.

    First order in delta_m/m0: the difference from (1/t) int_0^t dt'/m(t')
    scales as (delta_m/m0)^2.
    """
    return _inv_mass_avg_ratio(params, params.tau(t_seconds)) / params.mass0


# -- coordinate space ----------------------------------------------------------

def _width(params: ModelParams, tau, inv_mass_ratio, gamma):
    dr = params.delta_r_internal
    drift = params.delta_p * (tau / params.epsilon) * inv_mass_ratio / dr
    # dr sqrt(1 + drift^2 + 6 Gamma/dr^2) in hypot form: drift^2 overflows long
    # before delta_r does
    return params.length_si(dr * np.hypot(drift, np.sqrt(1.0 + 6.0 * gamma / dr**2)))


def spatial_width(params: ModelParams, t_seconds):
    """delta_r(t) = dr sqrt(1 + (dp t <1/m>)^2/dr^2 + 6 Gamma hbar^2/dr^2), meters."""
    f = DecoherenceFactors.at_time(params, t_seconds)
    return _width(params, f.t, _inv_mass_avg_ratio(params, f.t), f.gamma)


def spatial_width_free(params: ModelParams, t_seconds):
    """Free spread delta_r(t)^0 = dr sqrt(1 + dp^2 t^2 / (dr^2 m0^2)), meters."""
    return _width(params, params.tau(t_seconds), 1.0, 0.0)


def spatial_coherence_length(params: ModelParams, t_seconds):
    """l_r(t) = delta_r(t)/sqrt(1 + 6 hbar^2 Gamma/dr^2), meters.

    l_r/delta_r(t) coincides with l_p/delta_p; for alpha > 0 it stays strictly
    below the free coherence length delta_r(t)^0.
    """
    f = DecoherenceFactors.at_time(params, t_seconds)
    return (_width(params, f.t, _inv_mass_avg_ratio(params, f.t), f.gamma)
            * _coherence_ratio(params, f.gamma))


# -- radiation ----------------------------------------------------------------

def _brems_power(params: ModelParams, acc):
    return params.alpha * HBAR * np.sum(acc * acc, axis=-1) / SPEED_OF_LIGHT**2


def brems_power_estimate(params: ModelParams, t_seconds):
    """Radiated-power scale alpha hbar <qddot>^2 / c^2 (order-of-magnitude estimate).

    Proportionality constant fixed to 1; the physical content is the alpha^3
    scaling at fixed Omega t, which is what rules radiation out as the vacuum
    decoherence mechanism.
    """
    return _brems_power(params, mean_acceleration(params, t_seconds))


# -- snapshot ------------------------------------------------------------------

@dataclass(frozen=True)
class ObservableSnapshot:
    """Everything at one time, or as columns over a time grid: scalars become
    (T,) arrays and 3-vectors (T, 3), with their magnitudes as (T,)."""

    t_seconds: float | np.ndarray
    factors: DecoherenceFactors
    delta_p_t: float | np.ndarray      # m0 c
    l_p: float | np.ndarray            # m0 c
    mean_q: np.ndarray                 # m
    mean_q_mag: float | np.ndarray
    mean_v: np.ndarray                 # m/s
    mean_v_mag: float | np.ndarray
    mass_t: float | np.ndarray         # kg
    delta_m: float | np.ndarray        # kg
    inv_mass_avg: float | np.ndarray   # 1/kg
    delta_r_t: float | np.ndarray      # m
    delta_r_free: float | np.ndarray   # m
    l_r: float | np.ndarray            # m
    s_lin: float | np.ndarray
    accel: np.ndarray                  # m/s^2
    accel_mag: float | np.ndarray
    brems_power: float | np.ndarray    # W-scale estimate


def snapshot(params: ModelParams, t_seconds) -> ObservableSnapshot:
    """Every observable at t_seconds (a scalar or a 1-D array), each computed
    once, with Gamma and Phi from one factor bundle."""
    f = DecoherenceFactors.at_time(params, t_seconds)
    ratio = _coherence_ratio(params, f.gamma)
    inv_mass_ratio = _inv_mass_avg_ratio(params, f.t)
    shift = mass_shift(params, t_seconds)
    q = _displacement(params, f.phi)
    v = mean_velocity(params, t_seconds)
    a = mean_acceleration(params, t_seconds)
    width = _width(params, f.t, inv_mass_ratio, f.gamma)
    return ObservableSnapshot(
        t_seconds=t_seconds,
        factors=f,
        delta_p_t=np.full(np.shape(f.t), params.delta_p)[()],
        l_p=params.delta_p * ratio,
        mean_q=q,
        mean_q_mag=np.linalg.norm(q, axis=-1),
        mean_v=v,
        mean_v_mag=np.linalg.norm(v, axis=-1),
        mass_t=params.mass0 + shift,
        delta_m=shift,
        inv_mass_avg=inv_mass_ratio / params.mass0,
        delta_r_t=width,
        delta_r_free=_width(params, f.t, 1.0, 0.0),
        l_r=width * ratio,
        s_lin=1.0 - ratio,
        accel=a,
        accel_mag=np.linalg.norm(a, axis=-1),
        brems_power=_brems_power(params, a),
    )
