"""Reduced density matrix of the particle for a Gaussian initial packet.

Momentum representation (exact for all t):

    rho(p, p', t) = rho(p, p', 0) exp[-Gamma(t) (p-p')^2 + i Phi(t) (p^2 - p'^2)]

and the closed-form coordinate representation obtained from its double
Fourier transform, expressed with the dimensionless

    Z = 1 + 2 Gamma / d^2 + Phi^2 / d^4,        d = delta_r / sqrt(3),

so that the packet width obeys delta_r(t)^2 = 3 d^2 Z.

All quantities in internal units: momenta in m0 c, positions in hbar/(m0 c),
hbar = 1. The 3-D matrices factorize into identical per-axis pieces, so the
packet and its grids are 1-D, along the axis of p0. Grids are always chosen
by the caller.

On a 1-D grid x both representations have the factored form

    rho_ij = N v_i M_ij conj(v_j),
    M_ij = exp(-a [(x_i - c)^2 + (x_j - c)^2] - g (x_i - x_j)^2),   v_i = exp(i theta_i),

with M real and symmetric and the phase separable (theta = Phi p^2 - r0 p in
the momentum representation). `rho_p_matrix` and `rho_r_matrix` build it
from N complex exponentials for v and N^2 real ones for M, a block of rows at
a time: each block's slice of M is evaluated in one reused buffer sized for
the L2 cache and multiplied into its rows of v_i conj(v_j), so the result is
the only N x N array, and its bits are those of a whole-matrix build (given
each_block, rho_p_matrix passes it the blocks instead and forms none). M is
built from -g (x_i - x_j)^2 as it stands: splitting it into
exp(-g x_i^2) exp(2 g x_i x_j) exp(-g x_j^2) would overflow once g x^2
passes ~709 (late times, large Gamma) and cancel catastrophically before
that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoherence import DecoherenceFactors
from .params import DomainError, ModelParams

__all__ = [
    "MAX_PHASE", "GaussianPacket", "mean_displacement", "rho_p_matrix", "rho_r_matrix",
    "width_t", "z_factor",
]


@dataclass(frozen=True)
class GaussianPacket:
    """Initial 1-D Gaussian wave packet: mean momentum p0 (m0 c), width
    delta_p (m0 c), initial position r0 (hbar/m0 c).

    delta_r delta_p = 3/2 (hbar = 1) is built in; d = delta_r/sqrt(3) is the
    per-axis Gaussian scale.
    """

    p0: float
    delta_p: float
    r0: float

    def __post_init__(self):
        if self.delta_p <= 0.0:
            raise DomainError("delta_p must be positive")

    @classmethod
    def from_params(cls, params: ModelParams) -> "GaussianPacket":
        """The packet of ModelParams, along its p0 and r0 axis."""
        return cls(p0=params.p0, delta_p=params.delta_p, r0=params.r0_internal())

    @property
    def norm(self) -> float:
        """N = sqrt(3)/(sqrt(2 pi) delta_p), the unit-trace normalization."""
        return math.sqrt(3.0) / (math.sqrt(2.0 * math.pi) * self.delta_p)

    @property
    def delta_r(self) -> float:
        return 1.5 / self.delta_p

    @property
    def d(self) -> float:
        return self.delta_r / math.sqrt(3.0)


def z_factor(packet: GaussianPacket, factors: DecoherenceFactors) -> float:
    """Z = 1 + 2 Gamma / d^2 + Phi^2 / d^4; delta_r(t)^2 = 3 d^2 Z."""
    d2 = packet.d ** 2
    return 1.0 + 2.0 * factors.gamma / d2 + (factors.phi / d2) ** 2


def width_t(packet: GaussianPacket, factors: DecoherenceFactors) -> float:
    """Packet spatial width delta_r(t) = sqrt(3 d^2 Z)."""
    return math.sqrt(3.0) * packet.d * math.sqrt(z_factor(packet, factors))


def mean_displacement(packet: GaussianPacket, factors: DecoherenceFactors) -> float:
    """<q>_t = -2 p0 Phi(t) (hbar = 1)."""
    return -2.0 * factors.phi * packet.p0


# ---------------------------------------------------------------------------
# vectorized 1-D grids (the figure and oracle workhorses)
# ---------------------------------------------------------------------------

# Past 1/eps rad the rounding of the phase theta alone exceeds 1 rad and re, im carry no
# digits; |rho| does not depend on theta, so only callers that write re and im pass it.
MAX_PHASE = 1.0 / np.finfo(float).eps

# Bytes of one row block of a grid build: its float slice of M and its complex rows of
# the result, 24 bytes a column, sized to stay in a per-core L2 cache (1-2 MiB).
_BLOCK_BYTES = 1 << 20


def _block_rows(n: int) -> int:
    """Rows per block of an (n, n) grid build, at least one."""
    return max(1, _BLOCK_BYTES // (24 * n))


def _factored_grid(x: np.ndarray, norm: float, a: float, c: float, g: float,
                   phase2: float, phase1: float, max_phase: float,
                   each_block=None) -> np.ndarray | None:
    """norm v_i M_ij conj(v_j) on the grid x (see the module docstring), with
    M_ij = exp(-a[(x_i-c)^2 + (x_j-c)^2] - g (x_i-x_j)^2) and
    v = exp(i theta), theta = phase2 x^2 + phase1 x, |theta| <= max_phase.

    theta is taken about c, where the packet sits: the constant theta(c)
    cancels in v_i conj(v_j), and the rest grows with x - c rather than with
    x, so a packet far from the origin (a drifted coordinate grid) costs no
    phase accuracy. The result is Hermitian to rounding.

    Filled _block_rows(N) rows at a time (see the module docstring); every
    element gets the same operations whatever the block size, so the same bits.
    Given each_block, each_block(lo, hi, rows) gets every block, rows from one
    reused buffer, instead; no (N, N) array is allocated and None is returned.
    """
    u = x - c
    env = a * u**2
    theta = u * (phase2 * u + (2.0 * phase2 * c + phase1))
    if np.max(np.abs(theta)) > max_phase:
        raise DomainError(
            f"the phase of rho reaches {np.max(np.abs(theta)):.3g} rad on this grid; past "
            f"{max_phase:.3g} rad its rounding alone exceeds 1 rad, so re and im carry no digits")
    w = math.sqrt(norm) * np.exp(1j * theta)
    w_conj = w.conj()
    n = len(x)
    rows = min(_block_rows(n), n)
    out = np.empty((n if each_block is None else rows, n), dtype=complex)
    buf = np.empty((rows, n))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        m = buf[:hi - lo]
        np.subtract.outer(x[lo:hi], x, out=m)
        np.square(m, out=m)
        m *= g
        np.subtract(-env[lo:hi, None], m, out=m)
        m -= env[None, :]
        np.exp(m, out=m)
        o = out[lo:hi] if each_block is None else out[:hi - lo]
        np.multiply.outer(w[lo:hi], w_conj, out=o)
        o *= m
        # populations are real; the complex products leave ~1e-17 rounding there
        np.fill_diagonal(o.imag[:, lo:hi], 0.0)
        if each_block is not None:
            each_block(lo, hi, o)
    return out if each_block is None else None


def rho_p_matrix(p_grid: np.ndarray, packet: GaussianPacket, factors: DecoherenceFactors,
                 max_phase: float = math.inf, each_block=None) -> np.ndarray | None:
    """Full (N, N) momentum matrix rho(p_i, p_j) on a 1-D grid (max_phase: see MAX_PHASE;
    each_block: see _factored_grid, the oracle's direct check streams the blocks)."""
    return _factored_grid(np.asarray(p_grid, dtype=float), packet.norm,
                          0.75 / packet.delta_p**2, packet.p0, factors.gamma,
                          factors.phi, -packet.r0, max_phase, each_block)


def rho_r_matrix(q_grid: np.ndarray, packet: GaussianPacket, factors: DecoherenceFactors,
                 max_phase: float = math.inf) -> np.ndarray:
    """Full (N, N) coordinate matrix rho(q_i, q_j) on a 1-D displacement grid."""
    p0 = packet.p0
    wt2 = width_t(packet, factors) ** 2
    scale = packet.delta_p**2 / wt2
    return _factored_grid(np.asarray(q_grid, dtype=float),
                          packet.norm * packet.delta_p / math.sqrt(wt2), 0.75 / wt2,
                          -2.0 * factors.phi * p0, scale * factors.gamma,
                          -scale * factors.phi,
                          (packet.delta_r**2 + 6.0 * factors.gamma) / wt2 * p0, max_phase)
