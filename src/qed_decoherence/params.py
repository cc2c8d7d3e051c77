"""Physical inputs, the dimensionless internal unit system, and characteristic timescales.

Internal unit system
--------------------
hbar = c = m0 = 1. Everything the closed forms need then collapses to four
dimensionless numbers:

    tau     = Omega * t                     (time in cutoff units)
    epsilon = hbar Omega / (m0 c^2)         (cutoff strength)
    theta   = hbar Omega / (k_B T)          (inverse temperature in cutoff units)
    alpha   = e^2 / (hbar c)                (coupling)

plus the packet numbers p0, delta_p in units of m0 c.  p0 and the initial
position r0 are signed floats along the packet's one axis.  Derived
conventions: momenta in m0 c, lengths in hbar/(m0 c), energies in m0 c^2,
decoherence and phase factors in 1/(m0 c)^2.  The "internal time" carrying
the free-evolution phase is t * m0 c^2 / hbar = tau / epsilon.

Public operations accept and return SI (seconds, kelvin, kg); the conversion
happens once at this boundary.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import BOLTZMANN, ELECTRON_MASS, FINE_STRUCTURE, HBAR, SPEED_OF_LIGHT

__all__ = ["DipoleValidityWarning", "DomainError", "ModelParams", "Timescales",
           "thermal_decoherence_time", "thermal_time", "vacuum_decoherence_time",
           "vacuum_thermal_crossover", "validity_bound", "validity_window"]


class DomainError(ValueError):
    """A physical-input precondition was violated."""


class DipoleValidityWarning(UserWarning):
    """Packet width approaches the cutoff wavelength c/Omega."""


# dataclasses.replace, this module and the closed-form modules: a warning names the first
# caller outside them
_PASSED_THROUGH = {dataclasses.__file__, *(str(Path(__file__).with_name(f"{m}.py")) for m in
                   ("params", "decoherence", "densmat", "observables", "field"))}


def _caller_stacklevel(start: int = 3) -> int:
    """warnings stack level, seen from the function that warns, of the first caller
    from level start on (the default skips the generated __init__ of ModelParams)
    whose file is not in _PASSED_THROUGH."""
    frame, level = sys._getframe(start), start
    while frame is not None and frame.f_code.co_filename in _PASSED_THROUGH:
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs. Momenta in m0 c, positions in c/Omega, everything else SI.

    alpha = 0 is the free-evolution limit and is accepted; temperature = 0
    selects the pure-vacuum branch.
    """

    alpha: float = FINE_STRUCTURE
    omega_cut: float = 1e19            # Omega, rad/s
    temperature: float = 1.0           # K
    mass0: float = ELECTRON_MASS       # kg
    p0: float = 0.1                    # units of m0 c, along the packet axis
    delta_p: float = 0.1               # units of m0 c
    r0: float = 0.0                    # units of c/Omega, along the packet axis
    v0: float | None = None            # units of c; defaults to |p0|

    def __post_init__(self):
        for name in (f.name for f in dataclasses.fields(self)):
            val = getattr(self, name)
            if name == "v0" and val is None:   # auto: |p0|, set below
                continue
            if not isinstance(val, numbers.Real):
                raise DomainError(f"{name} = {val!r} must be a real number")
            if not math.isfinite(val):
                raise DomainError(f"{name} = {val} must be finite")
            object.__setattr__(self, name, float(val))
        if self.alpha < 0.0:
            raise DomainError("alpha must be >= 0 (0 selects free evolution)")
        if self.omega_cut <= 0.0:
            raise DomainError("omega_cut must be positive")
        if self.temperature < 0.0:
            raise DomainError("temperature must be >= 0 (0 selects the pure-vacuum branch)")
        if self.mass0 <= 0.0:
            raise DomainError("mass0 must be positive")
        if self.delta_p <= 0.0:
            raise DomainError("delta_p must be positive")
        # what the float arithmetic cannot carry: epsilon or theta at 0, delta_p^2 at inf
        if not self.epsilon > 0.0:
            raise DomainError(f"omega_cut = {self.omega_cut:g} rad/s, mass0 = {self.mass0:g} kg: "
                              "epsilon = hbar Omega/(m0 c^2) underflows to 0")
        if self.temperature > 0.0 and not (BOLTZMANN * self.temperature > 0.0
                                           and self.theta > 0.0):
            raise DomainError(f"temperature = {self.temperature:g} K, omega_cut = "
                              f"{self.omega_cut:g} rad/s: k_B T or theta underflows to 0")
        if not math.isfinite(self.delta_p * self.delta_p):
            raise DomainError(f"delta_p = {self.delta_p:g} overflows delta_p^2")
        if self.v0 is None:
            object.__setattr__(self, "v0", abs(self.p0))
        if not 0.0 <= self.v0 < 1.0:
            raise DomainError(f"v0 = {self.v0} outside the non-relativistic range [0, 1)")
        # Dipole validity: packet width must stay below the cutoff wavelength.
        ratio = self.delta_r_internal * self.epsilon   # delta_r / (c/Omega)
        if ratio >= 1.0:
            raise DomainError(
                f"delta_r = {ratio:.3g} c/Omega violates the dipole condition delta_r < c/Omega; "
                "increase delta_p, lower omega_cut, or raise mass0"
            )
        if ratio > 0.1:
            warnings.warn(
                f"delta_r = {ratio:.3g} c/Omega is inside the warning band (> 0.1 c/Omega); "
                "dipole-approximation accuracy degrades here",
                DipoleValidityWarning,
                stacklevel=_caller_stacklevel(),
            )

    # -- dimensionless internal parameters ------------------------------------

    @property
    def epsilon(self) -> float:
        """hbar Omega / m0 c^2."""
        return HBAR * self.omega_cut / (self.mass0 * SPEED_OF_LIGHT**2)

    @property
    def theta(self) -> float:
        """hbar Omega / k_B T; infinite at T = 0."""
        if self.temperature == 0.0:
            return math.inf
        return HBAR * self.omega_cut / (BOLTZMANN * self.temperature)

    @property
    def delta_r_internal(self) -> float:
        """Packet spatial width 3 hbar / (2 delta_p), in hbar/(m0 c)."""
        return 1.5 / self.delta_p

    # -- SI <-> internal conversions (idempotent round trips) -----------------

    def tau(self, t_seconds):
        """Omega t for a time in seconds, or an array of them. SI time enters
        every closed form here, so negative, NaN and infinite times stop here."""
        t = np.asarray(t_seconds, dtype=float)
        ok = (t >= 0.0) & (t < math.inf)
        if not np.all(ok):
            raise DomainError(f"time must be >= 0 and finite, got {float(t[~ok].flat[0])!r} s")
        return (self.omega_cut * t)[()]

    def seconds(self, tau):
        return tau / self.omega_cut

    def thermal_x(self, t_seconds):
        """t / tau_F = pi tau / theta; 0 at T = 0, where theta is infinite."""
        return math.pi * self.tau(t_seconds) / self.theta

    def length_si(self, length_internal: float) -> float:
        """hbar/(m0 c) units -> meters."""
        return length_internal * HBAR / (self.mass0 * SPEED_OF_LIGHT)

    def energy_si(self, e_internal: float) -> float:
        """m0 c^2 units -> J."""
        return e_internal * self.mass0 * SPEED_OF_LIGHT**2

    def r0_internal(self) -> float:
        """Initial position, c/Omega units -> hbar/(m0 c) units."""
        return self.r0 / self.epsilon


@dataclass(frozen=True)
class Timescales:
    """Characteristic times, all in seconds. math.inf marks divergent entries."""

    tau_F: float          # thermal time hbar / pi k_B T
    tau_0: float          # dipole time c / v0 Omega
    tau_d: float          # spreading validity time Omega^-1 m0 c / delta_p
    tau_vac: float        # vacuum decoherence time at dp = delta_p
    tau_vac_log: float    # ln(tau_vac / s), finite even when tau_vac overflows
    tau_th: float         # thermal decoherence time at dp = delta_p
    tau_p: float          # vacuum -> thermal crossover (exact Gamma_vac = Gamma_th root)
    tau_p_log_eq: float   # larger root of the approximate equation ln(Omega t) = t / tau_F


def thermal_time(temperature: float) -> float:
    """hbar / (pi k_B T), seconds. Approximately 2.43e-12 s / T[K]."""
    if temperature <= 0.0:
        raise DomainError(
            "thermal_time requires T > 0; T = 0 means the bath is pure vacuum "
            "(Gamma_th vanishes identically and tau_F diverges)"
        )
    return HBAR / (math.pi * BOLTZMANN * temperature)


def _bisect(f, lo: float, hi: float) -> float:
    """Bracketed bisection to 1e-15 relative; f(lo) and f(hi) must differ in sign."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise DomainError(f"root not bracketed on [{lo:g}, {hi:g}]: f = ({flo:g}, {fhi:g})")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) <= 1e-15 * abs(mid):
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _transition_time(omega_cut: float, tau_F: float) -> float:
    """Late root of ln(Omega t) = t / tau_F, seconds.

    The equation has two crossings when Omega tau_F >> e: an early one near
    t ~ Omega^-1 where the log leaves zero, and a late one where the linear
    term overtakes. The late root is the physically quoted transition time.
    """
    w = omega_cut * tau_F
    if not w > math.e:
        raise DomainError(
            f"no late-time crossing of ln(Omega t) = t/tau_F: Omega tau_F = {w:.3g} <= e"
        )
    f = lambda x: math.log(w * x) - x   # x = t / tau_F
    return _bisect(f, 1.0, 1e6) * tau_F


def vacuum_thermal_crossover(omega_cut: float, tau_F: float) -> float:
    """Time where the exact vacuum and thermal decoherence factors are equal, seconds.

    Solves ln sqrt(1 + (Omega t)^2) = ln[sinh(t/tau_F) / (t/tau_F)]; the
    coupling and momentum prefactors cancel, so the crossover is independent
    of alpha and of p - p'.
    """
    from .decoherence import log_sinhc, log_sqrt_one_plus_sq

    w = omega_cut * tau_F
    if not w > math.e:
        raise DomainError(f"no vacuum->thermal crossover: Omega tau_F = {w:.3g} <= e")
    f = lambda x: log_sqrt_one_plus_sq(w * x) - log_sinhc(x)
    return _bisect(f, 1.0, 1e6) * tau_F


def vacuum_decoherence_time(params: ModelParams, dp: float) -> tuple[float, float]:
    """(tau_vac seconds, ln tau_vac) for momentum separation dp (m0 c units).

    tau_vac = Omega^-1 exp[(3 pi / 2 alpha) (m0 c / dp)^2]. The exponent
    reaches 10^3 for small alpha, so the log-space value is returned alongside
    the linear one (which saturates to inf instead of overflowing).
    """
    if dp < 0.0:
        raise DomainError("dp must be >= 0")
    if dp == 0.0:
        return math.inf, math.inf   # diagonal elements never decohere
    if not params.alpha * dp * dp > 0.0:    # alpha = 0, or alpha dp^2 underflowing to 0
        raise DomainError("vacuum_decoherence_time requires alpha dp^2 > 0")
    log_tau = 1.5 * math.pi / (params.alpha * dp * dp) - math.log(params.omega_cut)
    try:
        lin = math.exp(log_tau)
    except OverflowError:
        lin = math.inf
    return lin, log_tau


def thermal_decoherence_time(params: ModelParams, dp: float) -> float:
    """tau_th = tau_F (3 pi / 2 alpha) (m0 c / dp)^2, seconds."""
    if dp < 0.0:
        raise DomainError("dp must be >= 0")
    if dp == 0.0:
        return math.inf
    if not params.alpha * dp * dp > 0.0:    # alpha = 0, or alpha dp^2 underflowing to 0
        raise DomainError("thermal_decoherence_time requires alpha dp^2 > 0")
    return thermal_time(params.temperature) * 1.5 * math.pi / (params.alpha * dp * dp)


def _validity_times(params: ModelParams) -> tuple[float, float]:
    """(tau_0, tau_d), seconds. tau_0 = c / (v0 Omega) bounds the moving-dipole
    approximation (inf for a stationary packet); tau_d = Omega^-1 m0 c / delta_p
    bounds the treatment against free spreading."""
    tau_0 = math.inf if params.v0 == 0.0 else 1.0 / (params.v0 * params.omega_cut)
    return tau_0, 1.0 / (params.omega_cut * params.delta_p)


def validity_window(params: ModelParams) -> Timescales:
    """All characteristic times for this parameter set, in seconds.
    Time-series output is flagged beyond min(tau_d, tau_0) (validity_bound).
    """
    tau_0, tau_d = _validity_times(params)
    if params.temperature > 0.0:
        tau_F = thermal_time(params.temperature)
        w = params.omega_cut * tau_F
        tau_p = vacuum_thermal_crossover(params.omega_cut, tau_F) if w > math.e else math.nan
        tau_p_log = _transition_time(params.omega_cut, tau_F) if w > math.e else math.nan
    else:
        tau_F = math.inf
        tau_p = math.inf
        tau_p_log = math.inf
    if params.alpha > 0.0:
        tau_vac, tau_vac_log = vacuum_decoherence_time(params, params.delta_p)
        tau_th = (
            thermal_decoherence_time(params, params.delta_p)
            if params.temperature > 0.0
            else math.inf
        )
    else:
        tau_vac, tau_vac_log, tau_th = math.inf, math.inf, math.inf
    return Timescales(
        tau_F=tau_F,
        tau_0=tau_0,
        tau_d=tau_d,
        tau_vac=tau_vac,
        tau_vac_log=tau_vac_log,
        tau_th=tau_th,
        tau_p=tau_p,
        tau_p_log_eq=tau_p_log,
    )


def validity_bound(params: ModelParams) -> float:
    """min(tau_d, tau_0), seconds; samples beyond it are flagged invalid."""
    tau_0, tau_d = _validity_times(params)
    return min(tau_d, tau_0)
