"""Derived physical quantities: widths, coherence lengths, mean motion,
dressed mass, entropy, and the radiated-power scaling estimate.

Every observable is a column of snapshot(params, t_seconds), computed from
one factor bundle; linear_entropy and mass_shift are also exposed alone.

Unit conventions at this API: time in seconds in, SI out for dimensionful
quantities (meters, m/s, m/s^2, kg, J), momentum widths in m0 c (they are
ratios of the configured inputs), entropy and mass ratio dimensionless. Time
is a scalar or a 1-D array of T times; results are scalars or (T,) columns.
Mean position, velocity and acceleration are components along the packet
axis, the axis of ModelParams.p0, and carry its sign.

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

__all__ = ["ObservableSnapshot", "linear_entropy", "mass_shift", "snapshot"]


def _coherence_ratio(params: ModelParams, gamma):
    """l_p/delta_p = l_r/delta_r(t) = 1 - S_lin, from Gamma in 1/(m0 c)^2."""
    return 1.0 / np.sqrt(1.0 + 8.0 * params.delta_p**2 * gamma / 3.0)


def _mass_shift_ratio(params: ModelParams, tau):
    """delta_m(t)/m0 = (4 alpha epsilon / 3 pi) tau^2/(1+tau^2)."""
    return 2.0 * coupling_scale(params.alpha) * params.epsilon * lorentz_weight(tau)


def _inv_mass_avg_ratio(params: ModelParams, tau):
    """m0 <1/m>_t = 1 - (4 alpha epsilon / 3 pi)(tau - arctan tau)/tau; 1 at t=0.

    Equals -2 hbar Phi(t)/t exactly; it agrees with (1/t) int dt'/m(t') only to
    first order in delta_m/m0: the difference scales as (delta_m/m0)^2.
    """
    tau = np.asarray(tau, dtype=float)
    shift = 2.0 * coupling_scale(params.alpha) * params.epsilon * tau_minus_arctan(tau)
    return 1.0 - np.divide(shift, tau, out=np.zeros_like(shift), where=tau > 0.0)[()]


def _width(params: ModelParams, tau, inv_mass_ratio, gamma):
    """delta_r(t) = dr sqrt(1 + (dp t <1/m>)^2/dr^2 + 6 Gamma hbar^2/dr^2), meters;
    the free spread delta_r(t)^0 at inv_mass_ratio = 1, Gamma = 0."""
    dr = params.delta_r_internal
    drift = params.delta_p * (tau / params.epsilon) * inv_mass_ratio / dr
    # in hypot form: drift^2 overflows long before delta_r does
    return params.length_si(dr * np.hypot(drift, np.sqrt(1.0 + 6.0 * gamma / dr**2)))


def linear_entropy(params: ModelParams, t_seconds):
    """S_lin(t) = 1 - 1/sqrt(1 + 6 Gamma hbar^2/delta_r^2): purity loss, 0 at t=0."""
    return 1.0 - _coherence_ratio(params, DecoherenceFactors.at_time(params, t_seconds).gamma)


def mass_shift(params: ModelParams, t_seconds):
    """Dressing mass increase delta_m(t) = (4 a hbar Omega/3 pi c^2) tau^2/(1+tau^2), kg.

    Quadratic for t << 1/Omega, saturating to the full electromagnetic mass
    shift 4 a hbar Omega / 3 pi c^2 for t >> 1/Omega.
    """
    return params.mass0 * _mass_shift_ratio(params, params.tau(t_seconds))


@dataclass(frozen=True)
class ObservableSnapshot:
    """Everything at one time, or as (T,) columns over a time grid."""

    t_seconds: float | np.ndarray
    factors: DecoherenceFactors
    delta_p_t: float | np.ndarray      # m0 c; constant (no spreading in the pointer basis)
    l_p: float | np.ndarray            # m0 c; delta_p/sqrt(1 + 8 dp^2 Gamma/3)
    mean_q: float | np.ndarray         # m; -2 p0 Phi(t) hbar
    mean_v: float | np.ndarray         # m/s; (p0/m0)[1 - delta_m(t)/m0], d<q>/dt exactly
    mass_t: float | np.ndarray         # kg; m0 + delta_m(t)
    delta_m: float | np.ndarray        # kg; mass_shift
    inv_mass_avg: float | np.ndarray   # 1/kg; -2 hbar Phi(t)/t, 1/m0 at t = 0
    delta_r_t: float | np.ndarray      # m
    delta_r_free: float | np.ndarray   # m; dr sqrt(1 + dp^2 t^2/(dr^2 m0^2))
    l_r: float | np.ndarray            # m; delta_r(t) l_p/delta_p, below delta_r_free at alpha > 0
    s_lin: float | np.ndarray          # linear_entropy
    accel: float | np.ndarray          # m/s^2; d<qdot>/dt, shape 2 tau/(1+tau^2)^2
    # W-scale estimate alpha hbar <qddot>^2/c^2 with its constant set to 1: the
    # alpha^3 scaling at fixed Omega t is what rules radiation out as the
    # vacuum decoherence mechanism
    brems_power: float | np.ndarray


def snapshot(params: ModelParams, t_seconds) -> ObservableSnapshot:
    """Every observable at t_seconds (a scalar or a 1-D array), each computed
    once, with Gamma and Phi from one factor bundle."""
    f = DecoherenceFactors.at_time(params, t_seconds)
    ratio = _coherence_ratio(params, f.gamma)
    inv_mass_ratio = _inv_mass_avg_ratio(params, f.t)
    shift_ratio = _mass_shift_ratio(params, f.t)
    slope = -2.0 * coupling_scale(params.alpha) * params.epsilon * lorentz_weight_slope(f.t)
    a = slope * params.p0 * params.omega_cut * SPEED_OF_LIGHT
    width = _width(params, f.t, inv_mass_ratio, f.gamma)
    shift = params.mass0 * shift_ratio
    return ObservableSnapshot(
        t_seconds=t_seconds,
        factors=f,
        delta_p_t=np.full(np.shape(f.t), params.delta_p)[()],
        l_p=params.delta_p * ratio,
        mean_q=-2.0 * f.phi * params.p0 * HBAR / (params.mass0 * SPEED_OF_LIGHT),
        mean_v=(1.0 - shift_ratio) * params.p0 * SPEED_OF_LIGHT,
        mass_t=params.mass0 + shift,
        delta_m=shift,
        inv_mass_avg=inv_mass_ratio / params.mass0,
        delta_r_t=width,
        delta_r_free=_width(params, f.t, 1.0, 0.0),
        l_r=width * ratio,
        s_lin=1.0 - ratio,
        accel=a,
        brems_power=params.alpha * HBAR * (a * a) / SPEED_OF_LIGHT**2,
    )
