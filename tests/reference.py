"""References restated in the tests.

Scalar references for the density-matrix grids: each evaluates one element of
the 1-D closed form term by term, with no factoring, so the grids built by
densmat.rho_p_matrix and rho_r_matrix can be checked element by element
against it.

Direct forms of two oracle sums that the oracle evaluates rearranged: the
transform as the dense sandwich E rho_p E^H, and the photon continuum as one
frequency integral per angular node.
"""

import math

import numpy as np

from qed_decoherence import densmat, oracle
from qed_decoherence.densmat import GaussianPacket, mean_displacement, width_t
from qed_decoherence.quadrature import trapezoid_weights


def _polar(log_modulus: float, phase: float) -> complex:
    return complex(math.exp(log_modulus) * math.cos(phase),
                   math.exp(log_modulus) * math.sin(phase))


def rho_p_initial(p: float, p_prime: float, packet: GaussianPacket) -> complex:
    """Initial packet element N exp{-3[(p-p0)^2 + (p'-p0)^2]/(4 dp^2) - i r0 (p-p')}."""
    gauss = -3.0 * ((p - packet.p0) ** 2 + (p_prime - packet.p0) ** 2) / (4.0 * packet.delta_p**2)
    return packet.norm * _polar(gauss, -packet.r0 * (p - p_prime))


def rho_p(p: float, p_prime: float, packet: GaussianPacket, factors) -> complex:
    """Momentum-space element at the time carried by `factors`.

    The diagonal (p = p') is constant in time: momentum is the pointer basis.
    """
    env = -factors.gamma * (p - p_prime) ** 2
    return rho_p_initial(p, p_prime, packet) * _polar(env, factors.phi * (p**2 - p_prime**2))


def rho_r_initial(q: float, q_prime: float, packet: GaussianPacket) -> complex:
    """Initial coordinate element, q = r - r0 the displacement:

    (N dp / dr) exp[i p0 (q-q') - 3(q^2 + q'^2)/(4 dr^2)].
    """
    dr = packet.delta_r
    gauss = -3.0 * (q**2 + q_prime**2) / (4.0 * dr**2)
    return packet.norm * (packet.delta_p / dr) * _polar(gauss, packet.p0 * (q - q_prime))


def rho_r(q: float, q_prime: float, packet: GaussianPacket, factors) -> complex:
    """Coordinate-space element at the time carried by `factors` (q displacements).

    Closed form of the double Fourier transform: the t = 0 shape with
    delta_r -> delta_r(t), center -> <q>_t, the drift phase rescaled by
    (delta_r^2 + 6 Gamma)/delta_r(t)^2, and the decoherence/phase exponent
    (dp^2/delta_r(t)^2)[-Gamma (q-q')^2 - i Phi (q^2 - q'^2)].
    """
    wt = width_t(packet, factors)
    wt2 = wt * wt
    qc = mean_displacement(packet, factors)
    drift_phase = (packet.delta_r**2 + 6.0 * factors.gamma) / wt2 * (packet.p0 * (q - q_prime))
    gauss = -3.0 * ((q - qc) ** 2 + (q_prime - qc) ** 2) / (4.0 * wt2)
    scale = packet.delta_p**2 / wt2
    env = gauss - scale * factors.gamma * (q - q_prime) ** 2
    phase = drift_phase - scale * factors.phi * (q**2 - q_prime**2)
    return packet.norm * (packet.delta_p / wt) * _polar(env, phase)


def dense_fourier_rho_r(packet: GaussianPacket, factors, p_grid, q_grid) -> np.ndarray:
    """The trapezoid double sum (1/2 pi) sum_ij w_i w_j rho_p(p_i, p_j) e^{i(p_i r - p_j r')}
    as the dense sandwich E rho_p E^H, E_qi = w_i e^{i r_q p_i}, r = q + r0."""
    p = np.asarray(p_grid, dtype=float)
    rho = densmat.rho_p_matrix(p, packet, factors)
    r = np.asarray(q_grid, dtype=float) + packet.r0
    e = np.exp(1j * np.outer(r, p)) * trapezoid_weights(p)
    return (e @ rho @ e.conj().T) / (2.0 * math.pi)


def photon_continuum_sum(tau: float, v0: float) -> float:
    """(3/4) sum_k w_k (1 - mu_k^2) K(tau (1 - v0 mu_k)) over the 40-node
    Gauss-Legendre rule, one photon frequency integral K per node."""
    mu, wts = np.polynomial.legendre.leggauss(40)
    total = 0.0
    for m, w in zip(mu, wts):
        total += w * 0.75 * (1.0 - m * m) * oracle.quad_photon(tau * (1.0 - v0 * m)).value
    return total
