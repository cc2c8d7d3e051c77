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

from .decoherence import coupling_scale, log_sqrt_one_plus_sq, lorentz_weight
from .params import ModelParams

__all__ = ["mean_field_energy", "mean_photon_number"]

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

