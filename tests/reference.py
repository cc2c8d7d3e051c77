"""Scalar references for the density-matrix grids.

Each function evaluates one element of the 1-D closed form term by term, with
no factoring, so the grids built by densmat.rho_p_matrix and rho_r_matrix
can be checked element by element against it.
"""

import math

from qed_decoherence.densmat import GaussianPacket, mean_displacement, width_t


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
