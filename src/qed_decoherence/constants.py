"""Frozen table of fundamental constants (CODATA 2018).

All SI. These are the single source of truth for every SI <-> internal
conversion in the package; nothing else in the code defines a constant.
"""

from __future__ import annotations

# Exact by SI definition (2019 redefinition)
SPEED_OF_LIGHT = 299_792_458.0          # c, m/s
BOLTZMANN = 1.380_649e-23               # k_B, J/K

# Derived / measured
HBAR = 1.054_571_817e-34                # h / 2 pi, J s (CODATA 2018 rounding)
ELECTRON_MASS = 9.109_383_7015e-31      # kg
FINE_STRUCTURE = 7.297_352_5693e-3      # e^2 / hbar c, dimensionless

__all__ = [
    "SPEED_OF_LIGHT",
    "BOLTZMANN",
    "HBAR",
    "ELECTRON_MASS",
    "FINE_STRUCTURE",
]
