"""Run configuration, resolved in layers: defaults < preset < config file < flags.

The defaults are the field defaults of ModelParams. A preset is the standard
parameter set of a figure (cli._FIGURE_PRESETS). The config file and the CLI
flags are the user's layers; the flags win.

File format: one `key = value` per line, `#` comments, blank lines ignored.
The keys are CONFIG_KEYS, each also a CLI flag of the same name. v0_over_c
also takes `auto` (use |p0|), as the CSV provenance headers write it.
"""

from __future__ import annotations

from pathlib import Path

from .params import DomainError, ModelParams

__all__ = ["CONFIG_KEYS", "DEFAULTS", "build_params", "parse_config_file", "provenance_lines",
           "resolve"]

# config key -> ModelParams field
_FIELDS = {"alpha": "alpha", "omega_cut_rad_s": "omega_cut", "temperature_K": "temperature",
           "mass0_kg": "mass0", "p0_over_m0c": "p0", "delta_p_over_m0c": "delta_p",
           "v0_over_c": "v0"}

CONFIG_KEYS = tuple(_FIELDS)
# a dataclass field's default is the class attribute of its name
DEFAULTS: dict[str, float | None] = {key: getattr(ModelParams, name)
                                     for key, name in _FIELDS.items()}


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


def resolve(preset: dict[str, float] | None = None,
            overrides: dict[str, float | None] | None = None) -> dict[str, float | None]:
    """DEFAULTS < preset < overrides (the config file's values under the flags').
    A None layer or value sets nothing; an unknown key is a DomainError."""
    merged = dict(DEFAULTS)
    for layer in (preset, overrides):
        for key, val in (layer or {}).items():
            if key not in CONFIG_KEYS:
                raise DomainError(f"unknown config key {key!r}")
            if val is not None:
                merged[key] = float(val)
    return merged


def build_params(resolved: dict[str, float | None]) -> ModelParams:
    return ModelParams(**{name: resolved[key] for key, name in _FIELDS.items()})


def provenance_lines(resolved: dict[str, float | None]) -> list[str]:
    """The fully resolved configuration, for CSV `#` comment headers."""
    out = []
    for key in CONFIG_KEYS:
        val = resolved.get(key)
        out.append(f"{key} = {'auto' if val is None else repr(float(val))}")
    return out
