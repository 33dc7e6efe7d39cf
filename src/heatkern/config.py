"""Flat key=value run configuration.

Config files are plain text, one ``section.key = value`` per line, with
``#`` comments.  Unknown keys are rejected loudly rather than ignored, so
typos cannot silently fall back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math
from pathlib import Path

from .errors import ConfigError
from .space import KINDS


@dataclass(frozen=True)
class RunConfig:
    parametrix_kind: str = "dirac"
    parametrix_profile: str = "epanechnikov"
    parametrix_order: int = 0
    parametrix_n_modes: int = 0  # 0 means all modes
    laplacian: str = "combinatorial"
    horizon: float = 10.0
    tol: float = 1e-8
    max_terms: int = 64
    validate_tolerance: float = 1e-6
    outputs_dir: str = ""


_KEYS = {
    "parametrix.kind": ("parametrix_kind", str),
    "parametrix.profile": ("parametrix_profile", str),
    "parametrix.order": ("parametrix_order", int),
    "parametrix.n_modes": ("parametrix_n_modes", int),
    "laplacian": ("laplacian", str),
    "time.horizon": ("horizon", float),
    "neumann.tol": ("tol", float),
    "neumann.max_terms": ("max_terms", int),
    "validate.tolerance": ("validate_tolerance", float),
    "outputs.dir": ("outputs_dir", str),
}

_PARAMETRIX_KINDS = ("dirac", "profile", "spectral", "rkhs")


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', "
                              f"got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}; "
                              f"known keys: {', '.join(sorted(_KEYS))}")
        attr, typ = _KEYS[key]
        try:
            updates[attr] = typ(value)
        except ValueError:
            raise ConfigError(f"{origin}:{lineno}: cannot read {value!r} as "
                              f"{typ.__name__} for {key}") from None
    cfg = replace(cfg, **updates)
    # "profile-epanechnikov" style shorthand folds the profile into the kind
    if cfg.parametrix_kind.startswith("profile-"):
        cfg = replace(cfg, parametrix_kind="profile",
                      parametrix_profile=cfg.parametrix_kind[len("profile-"):])
    if cfg.parametrix_kind not in _PARAMETRIX_KINDS:
        raise ConfigError(f"{origin}: parametrix.kind must be one of "
                          f"{_PARAMETRIX_KINDS}, got {cfg.parametrix_kind!r}")
    if cfg.laplacian not in KINDS:
        raise ConfigError(f"{origin}: laplacian must be one of {KINDS}, "
                          f"got {cfg.laplacian!r}")
    for key, value in (("time.horizon", cfg.horizon), ("neumann.tol", cfg.tol),
                       ("validate.tolerance", cfg.validate_tolerance)):
        if not 0.0 < value < math.inf:  # NaN fails too
            raise ConfigError(f"{origin}: {key} must be positive and finite, got {value}")
    if cfg.max_terms < 1:
        raise ConfigError(f"{origin}: neumann.max_terms must be at least 1")
    if cfg.parametrix_order < 0 or cfg.parametrix_n_modes < 0:
        raise ConfigError(f"{origin}: parametrix orders and mode counts "
                          f"cannot be negative")
    return cfg


def parse_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    return parse_config_text(text, origin=str(path))
