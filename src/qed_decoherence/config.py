"""Flat key-value run configuration.

File format: one `key = value` per line, `#` comments, blank lines ignored.
Recognized keys (all overridable by CLI flags of the same names):

    alpha, omega_cut_rad_s, temperature_K, mass0_kg,
    p0_over_m0c, delta_p_over_m0c, v0_over_c

v0_over_c also takes `auto` (use |p0|), as the CSV provenance headers write it.

Defaults: Omega = 1e19 rad/s (hbar Omega is about m_e c^2 / 100 for an
electron), T = 1 K, delta_p/m0 c = 0.1.
"""

from __future__ import annotations

from pathlib import Path

from .constants import ELECTRON_MASS, FINE_STRUCTURE
from .params import DomainError, ModelParams

__all__ = ["CONFIG_KEYS", "DEFAULTS", "build_params", "parse_config_file", "provenance_lines",
           "resolve"]

CONFIG_KEYS = (
    "alpha",
    "omega_cut_rad_s",
    "temperature_K",
    "mass0_kg",
    "p0_over_m0c",
    "delta_p_over_m0c",
    "v0_over_c",
)

DEFAULTS: dict[str, float | None] = {
    "alpha": FINE_STRUCTURE,
    "omega_cut_rad_s": 1e19,
    "temperature_K": 1.0,
    "mass0_kg": ELECTRON_MASS,
    "p0_over_m0c": 0.1,
    "delta_p_over_m0c": 0.1,
    "v0_over_c": None,
}


def parse_config_file(path: str | Path) -> dict[str, float | None]:
    """Read `key = value` pairs; unknown keys are an error (they are typos)."""
    values: dict[str, float | None] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        if key == "v0_over_c" and val.strip() == "auto":
            values[key] = None
            continue
        try:
            values[key] = float(val.strip())
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: bad number {val.strip()!r}") from exc
    return values


def resolve(config_file: str | Path | None = None,
            overrides: dict[str, float] | None = None) -> dict[str, float | None]:
    """defaults < config file < CLI overrides."""
    merged = dict(DEFAULTS)
    if config_file is not None:
        merged.update(parse_config_file(config_file))
    if overrides:
        for key, val in overrides.items():
            if val is None:
                continue
            if key not in CONFIG_KEYS:
                raise DomainError(f"unknown config key {key!r}")
            merged[key] = float(val)
    return merged


def build_params(resolved: dict[str, float | None]) -> ModelParams:
    return ModelParams(
        alpha=resolved["alpha"],
        omega_cut=resolved["omega_cut_rad_s"],
        temperature=resolved["temperature_K"],
        mass0=resolved["mass0_kg"],
        p0=(resolved["p0_over_m0c"], 0.0, 0.0),
        delta_p=resolved["delta_p_over_m0c"],
        v0=resolved["v0_over_c"],
    )


def provenance_lines(resolved: dict[str, float | None]) -> list[str]:
    """The fully resolved configuration, for CSV `#` comment headers."""
    out = []
    for key in CONFIG_KEYS:
        val = resolved.get(key)
        out.append(f"{key} = {'auto' if val is None else repr(float(val))}")
    return out
