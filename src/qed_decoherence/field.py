"""Photon-cloud (dressing) dynamics around a sharp momentum component.

A sharp sub-packet centered at p_bar builds up a coherent transverse-photon
cloud; its mean occupation

    <n_pbar>(t) = (2 alpha / 3 pi) (pbar^2 / m0^2 c^2) ln(1 + Omega^2 t^2)

is exactly twice the vacuum decoherence factor times pbar^2, and the cloud
energy reproduces the dressing mass shift through delta_F m = -2 delta_m.
The sharp-packet width never enters these closed forms (it is a derivation
device only).

The free-evolution phase of the momentum eigenstates is dropped throughout,
matching the convention under which the field trace is taken; it cannot
affect occupations or energies.
"""

from __future__ import annotations

import numpy as np

from .decoherence import coupling_scale, log_sqrt_one_plus_sq, lorentz_weight
from .params import DomainError, ModelParams

__all__ = ["mean_field_energy", "mean_photon_number", "mode_occupation"]

# t_seconds is a scalar or a 1-D array of times, as in decoherence and observables.


def mean_photon_number(params: ModelParams, p_bar: float, t_seconds):
    """<n_pbar>(t) = (2 alpha/3 pi) pbar^2 ln(1 + Omega^2 t^2), p_bar in m0 c.

    Apart from a factor 2 this is the vacuum decoherence factor: the buildup
    of packet-photon correlations IS the temperature-independent decoherence.
    """
    return (coupling_scale(params.alpha) * p_bar * p_bar
            * (2.0 * log_sqrt_one_plus_sq(params.tau(t_seconds))))


def mean_field_energy(params: ModelParams, p_bar: float, t_seconds):
    """Cloud energy <E_F>(t) = (8 alpha/3 pi)(hbar Omega/m0 c^2)
    (tau^2/(1+tau^2)) (pbar^2/2 m0), joules.

    Carries the same saturation shape as delta_m(t); numerically it satisfies
    <E_F> = -(pbar^2/2 m0)(delta_F m/m0) with delta_F m = -2 delta_m.
    """
    e_internal = (4.0 * coupling_scale(params.alpha) * params.epsilon
                  * lorentz_weight(params.tau(t_seconds)) * 0.5 * p_bar * p_bar)
    return params.energy_si(e_internal)


def mode_occupation(params: ModelParams, p_bar: float, omega: float, t_seconds,
                    projection: float = 0.0, geometry: float = 1.0):
    """Per-mode occupation |beta|^2 before mode summation.

    omega in rad/s; projection X = k.v0/omega (|X| <= v0 < 1); geometry is the
    coupling-geometry prefactor of the mode (polarization overlap and mode
    volume), kept explicit because it cancels against the mode density in the
    continuum limit. With geometry = 1 the returned kernel is

        pbar^2 (1 - cos[omega t (1 - X)]) / (omega^3 (1 - X)^2)

    in cutoff units, and integrating it against the continuum measure
    (alpha/pi) w^2 e^{-w} dw (3/4)(1 - mu^2) dmu reproduces <n_pbar>.
    Vanishes at t = 0 and at every recurrence omega t (1 - X) = 2 pi n.
    """
    if omega <= 0.0:
        raise DomainError("omega must be positive")
    if abs(projection) > params.v0:
        raise DomainError(f"|X| = {abs(projection):.3g} exceeds v0 = {params.v0:.3g}")
    w = omega / params.omega_cut
    tau = params.tau(t_seconds)
    det = 1.0 - projection
    x = w * tau * det
    # 1 - cos(x) via half-angle, exact zero at recurrences
    one_minus_cos = 2.0 * np.sin(0.5 * x) ** 2
    return geometry * p_bar * p_bar * one_minus_cos / (w**3 * det**2)
