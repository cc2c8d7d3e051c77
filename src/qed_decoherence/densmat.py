"""Reduced density matrix of the particle for a Gaussian initial packet.

Momentum representation (exact for all t):

    rho(p, p', t) = rho(p, p', 0) exp[-Gamma(t) (p-p')^2 + i Phi(t) (p^2 - p'^2)]

and the closed-form coordinate representation obtained from its double
Fourier transform, expressed with the dimensionless

    Z = 1 + 2 Gamma / d^2 + Phi^2 / d^4,        d = delta_r / sqrt(3),

so that the packet width obeys delta_r(t)^2 = 3 d^2 Z.

All quantities in internal units: momenta in m0 c, positions in hbar/(m0 c),
hbar = 1. The 3-D matrices factorize into identical per-axis 1-D pieces; 1-D
mode is primary (it is what the figure data uses), 3-D is the product of the
per-axis factors. Grids are always chosen by the caller.

On a 1-D grid x both representations have the factored form

    rho_ij = N v_i M_ij conj(v_j),
    M_ij = exp(-a [(x_i - c)^2 + (x_j - c)^2] - g (x_i - x_j)^2),   v_i = exp(i theta_i),

with M real and symmetric and the phase separable (theta = Phi p^2 - r0 p in
the momentum representation). `rho_p_matrix` and `rho_r_matrix` build it
with N^2 real exponentials, evaluated in place, and N complex ones. M is
built from -g (x_i - x_j)^2 as it stands: splitting it into
exp(-g x_i^2) exp(2 g x_i x_j) exp(-g x_j^2) would overflow once g x^2
passes ~709 (late times, large Gamma) and cancel catastrophically before
that. The scalar element functions evaluate the closed forms term by term
and stay the independent references the grids are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoherence import DecoherenceFactors
from .params import DomainError, ModelParams

__all__ = [
    "MAX_PHASE", "GaussianPacket", "mean_displacement_vec", "rho_p", "rho_p_initial",
    "rho_p_matrix", "rho_r", "rho_r_initial", "rho_r_matrix", "width_t", "z_factor",
]


@dataclass(frozen=True)
class GaussianPacket:
    """Initial Gaussian wave packet: mean momentum p0 (m0 c), width delta_p
    (m0 c), initial position r0 (hbar/m0 c), in dims = 1 or 3 dimensions.

    delta_r delta_p = 3/2 (hbar = 1) is built in; d = delta_r/sqrt(3) is the
    per-axis Gaussian scale.
    """

    p0: tuple[float, ...]
    delta_p: float
    r0: tuple[float, ...]
    dims: int = 1

    def __post_init__(self):
        if self.dims not in (1, 3):
            raise DomainError("dims must be 1 or 3")
        if self.delta_p <= 0.0:
            raise DomainError("delta_p must be positive")
        p0 = tuple(float(x) for x in np.atleast_1d(self.p0))
        r0 = tuple(float(x) for x in np.atleast_1d(self.r0))
        if len(p0) != self.dims or len(r0) != self.dims:
            raise DomainError(f"p0 and r0 must have {self.dims} components")
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "r0", r0)

    @classmethod
    def from_params(cls, params: ModelParams, dims: int = 1) -> "GaussianPacket":
        r0 = params.r0_internal()
        if dims == 1:
            return cls(p0=(params.p0[0],), delta_p=params.delta_p, r0=(r0[0],), dims=1)
        return cls(p0=params.p0, delta_p=params.delta_p, r0=r0, dims=3)

    @property
    def norm(self) -> float:
        """N = (sqrt(3)/(sqrt(2 pi) delta_p))^dims, the unit-trace normalization."""
        return (math.sqrt(3.0) / (math.sqrt(2.0 * math.pi) * self.delta_p)) ** self.dims

    @property
    def delta_r(self) -> float:
        return 1.5 / self.delta_p

    @property
    def d(self) -> float:
        return self.delta_r / math.sqrt(3.0)


def _vec(x, dims: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (dims,):
        raise DomainError(f"expected {dims}-component vector, got shape {v.shape}")
    return v


def rho_p_initial(p, p_prime, packet: GaussianPacket) -> complex:
    """Initial packet element N exp{-3[(p-p0)^2 + (p'-p0)^2]/(4 dp^2) - i r0.(p-p')}."""
    p = _vec(p, packet.dims)
    pp = _vec(p_prime, packet.dims)
    p0 = np.asarray(packet.p0)
    r0 = np.asarray(packet.r0)
    gauss = -3.0 * (np.sum((p - p0) ** 2) + np.sum((pp - p0) ** 2)) / (4.0 * packet.delta_p**2)
    phase = -np.dot(r0, p - pp)
    return packet.norm * complex(math.exp(gauss) * math.cos(phase),
                                 math.exp(gauss) * math.sin(phase))


def rho_p(p, p_prime, packet: GaussianPacket, factors: DecoherenceFactors) -> complex:
    """Momentum-space element at the time carried by `factors`.

    The diagonal (p = p') is constant in time: momentum is the pointer basis.
    """
    p = _vec(p, packet.dims)
    pp = _vec(p_prime, packet.dims)
    dp2 = float(np.sum((p - pp) ** 2))
    e2 = float(np.sum(p**2) - np.sum(pp**2))
    env = -factors.gamma * dp2
    return rho_p_initial(p, p_prime, packet) * complex(
        math.exp(env) * math.cos(factors.phi * e2),
        math.exp(env) * math.sin(factors.phi * e2),
    )


def rho_r_initial(q, q_prime, packet: GaussianPacket) -> complex:
    """Initial coordinate element, q = r - r0 the displacement:

    (N dp^dims / dr^dims) exp[i p0.(q-q') - 3(q^2 + q'^2)/(4 dr^2)].
    """
    q = _vec(q, packet.dims)
    qp = _vec(q_prime, packet.dims)
    p0 = np.asarray(packet.p0)
    dr = packet.delta_r
    pref = packet.norm * (packet.delta_p / dr) ** packet.dims
    gauss = -3.0 * (np.sum(q**2) + np.sum(qp**2)) / (4.0 * dr**2)
    phase = float(np.dot(p0, q - qp))
    return pref * complex(math.exp(gauss) * math.cos(phase),
                          math.exp(gauss) * math.sin(phase))


def z_factor(packet: GaussianPacket, factors: DecoherenceFactors) -> float:
    """Z = 1 + 2 Gamma / d^2 + Phi^2 / d^4; delta_r(t)^2 = 3 d^2 Z."""
    d2 = packet.d ** 2
    return 1.0 + 2.0 * factors.gamma / d2 + (factors.phi / d2) ** 2


def width_t(packet: GaussianPacket, factors: DecoherenceFactors) -> float:
    """Packet spatial width delta_r(t) = sqrt(3 d^2 Z)."""
    return math.sqrt(3.0) * packet.d * math.sqrt(z_factor(packet, factors))


def mean_displacement_vec(packet: GaussianPacket, factors: DecoherenceFactors) -> np.ndarray:
    """<q>_t = -2 p0 Phi(t) per component (hbar = 1)."""
    return -2.0 * factors.phi * np.asarray(packet.p0)


def rho_r(q, q_prime, packet: GaussianPacket, factors: DecoherenceFactors) -> complex:
    """Coordinate-space element at the time carried by `factors` (q displacements).

    Closed form of the double Fourier transform: the t = 0 shape with
    delta_r -> delta_r(t), center -> <q>_t, the drift phase rescaled by
    (delta_r^2 + 6 Gamma)/delta_r(t)^2, and the decoherence/phase exponent
    (dp^2/delta_r(t)^2)[-Gamma (q-q')^2 - i Phi (q^2 - q'^2)].
    """
    q = _vec(q, packet.dims)
    qp = _vec(q_prime, packet.dims)
    p0 = np.asarray(packet.p0)
    dr2 = packet.delta_r**2
    wt = width_t(packet, factors)
    wt2 = wt * wt
    qc = mean_displacement_vec(packet, factors)

    pref = packet.norm * (packet.delta_p / wt) ** packet.dims
    drift_phase = (dr2 + 6.0 * factors.gamma) / wt2 * float(np.dot(p0, q - qp))
    gauss = -3.0 * (np.sum((q - qc) ** 2) + np.sum((qp - qc) ** 2)) / (4.0 * wt2)
    dq2 = float(np.sum((q - qp) ** 2))
    q2diff = float(np.sum(q**2) - np.sum(qp**2))
    scale = packet.delta_p**2 / wt2
    env = gauss - scale * factors.gamma * dq2
    phase = drift_phase - scale * factors.phi * q2diff
    return pref * complex(math.exp(env) * math.cos(phase), math.exp(env) * math.sin(phase))


# ---------------------------------------------------------------------------
# vectorized 1-D grids (the figure and oracle workhorses)
# ---------------------------------------------------------------------------

# Past 1/eps rad the rounding of the phase theta alone exceeds 1 rad and re, im carry no
# digits; |rho| does not depend on theta, so only callers that write re and im pass it.
MAX_PHASE = 1.0 / np.finfo(float).eps


def _factored_grid(x: np.ndarray, norm: float, a: float, c: float, g: float,
                   phase2: float, phase1: float, max_phase: float) -> np.ndarray:
    """norm v_i M_ij conj(v_j) on the grid x (see the module docstring), with
    M_ij = exp(-a[(x_i-c)^2 + (x_j-c)^2] - g (x_i-x_j)^2) and
    v = exp(i theta), theta = phase2 x^2 + phase1 x, |theta| <= max_phase.

    theta is taken about c, where the packet sits: the constant theta(c)
    cancels in v_i conj(v_j), and the rest grows with x - c rather than with
    x, so a packet far from the origin (a drifted coordinate grid) costs no
    phase accuracy. The result is Hermitian to rounding.
    """
    u = x - c
    env = a * u**2
    m = np.subtract.outer(x, x)
    np.square(m, out=m)
    m *= g
    np.subtract(-env[:, None], m, out=m)
    m -= env[None, :]
    np.exp(m, out=m)
    theta = u * (phase2 * u + (2.0 * phase2 * c + phase1))
    if np.max(np.abs(theta)) > max_phase:
        raise DomainError(
            f"the phase of rho reaches {np.max(np.abs(theta)):.3g} rad on this grid; past "
            f"{max_phase:.3g} rad its rounding alone exceeds 1 rad, so re and im carry no digits")
    w = math.sqrt(norm) * np.exp(1j * theta)
    out = np.multiply.outer(w, w.conj())
    out *= m
    # populations are real; the complex products leave ~1e-17 rounding there
    np.fill_diagonal(out.imag, 0.0)
    return out


def rho_p_matrix(p_grid: np.ndarray, packet: GaussianPacket, factors: DecoherenceFactors,
                 max_phase: float = math.inf) -> np.ndarray:
    """Full (N, N) momentum matrix rho(p_i, p_j) on a 1-D grid (max_phase: see MAX_PHASE)."""
    if packet.dims != 1:
        raise DomainError("rho_p_matrix is 1-D only")
    return _factored_grid(np.asarray(p_grid, dtype=float), packet.norm,
                          0.75 / packet.delta_p**2, packet.p0[0], factors.gamma,
                          factors.phi, -packet.r0[0], max_phase)


def rho_r_matrix(q_grid: np.ndarray, packet: GaussianPacket, factors: DecoherenceFactors,
                 max_phase: float = math.inf) -> np.ndarray:
    """Full (N, N) coordinate matrix rho(q_i, q_j) on a 1-D displacement grid."""
    if packet.dims != 1:
        raise DomainError("rho_r_matrix is 1-D only")
    p0 = packet.p0[0]
    wt2 = width_t(packet, factors) ** 2
    scale = packet.delta_p**2 / wt2
    return _factored_grid(np.asarray(q_grid, dtype=float),
                          packet.norm * packet.delta_p / math.sqrt(wt2), 0.75 / wt2,
                          -2.0 * factors.phi * p0, scale * factors.gamma,
                          -scale * factors.phi,
                          (packet.delta_r**2 + 6.0 * factors.gamma) / wt2 * p0, max_phase)
