"""Shared run configuration.

Config files are flat key-value text with square-bracket sections, e.g.

    [mc]
    workers = 2

    [quad]
    tol = 1e-12

CLI flags override file values.  The environment variable WPL_THREADS caps
the worker count regardless of configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .errors import ConfigError

QUAD_TOL_DEFAULT = 1e-12


@dataclass(frozen=True)
class QuadConfig:
    tol: float = QUAD_TOL_DEFAULT


@dataclass(frozen=True)
class McConfig:
    workers: int = 1


@dataclass(frozen=True)
class RunConfig:
    mc: McConfig = field(default_factory=McConfig)
    quad: QuadConfig = field(default_factory=QuadConfig)

    def validate(self) -> "RunConfig":
        if self.quad.tol <= 0:
            raise ConfigError("quad.tol must be positive")
        if self.mc.workers < 1:
            raise ConfigError("mc.workers must be >= 1")
        return self


_COERCERS = {
    ("mc", "workers"): int,
    ("quad", "tol"): float,
}


def parse_config_text(text: str) -> dict[tuple[str, str], object]:
    """Parse section/key pairs from flat key-value text, coercing known keys."""
    out: dict[tuple[str, str], object] = {}
    section = ""
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        coerce = _COERCERS.get((section, key))
        if coerce is None:
            raise ConfigError(f"line {ln}: unknown config key [{section}] {key}")
        try:
            out[(section, key)] = coerce(val)
        except ValueError as exc:
            raise ConfigError(f"line {ln}: bad value for {key}: {val!r}") from exc
    return out


def load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            pairs = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    by_section: dict[str, dict[str, object]] = {}
    for (section, key), val in pairs.items():
        by_section.setdefault(section, {})[key] = val
    if "mc" in by_section:
        cfg = replace(cfg, mc=replace(cfg.mc, **by_section["mc"]))
    if "quad" in by_section:
        cfg = replace(cfg, quad=replace(cfg.quad, **by_section["quad"]))
    return cfg.validate()


def effective_workers(requested: int) -> int:
    """Worker count after the WPL_THREADS cap."""
    cap = os.environ.get("WPL_THREADS")
    if cap is None:
        return max(1, requested)
    try:
        cap_n = int(cap)
    except ValueError as exc:
        raise ConfigError(f"WPL_THREADS must be an integer, got {cap!r}") from exc
    return max(1, min(requested, cap_n))
