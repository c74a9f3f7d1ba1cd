"""Experiment configuration: dotted key-value files, defaults, validation.

The on-disk format is plain text, one ``section.key = value`` pair per line
(``#`` starts a comment line).  Sections: ``model.*`` selects and
parameterizes the family (its keys are the fields of the family's model
class in ``models.MODELS``), ``coupling.mode`` the driver construction,
``experiment.*`` the grids and budgets, ``rng.root_seed`` the randomness.

Parsing fills kind-specific defaults and *echoes every effective value* into
the canonical snapshot, so ``parse(render(cfg)) == cfg`` exactly — the
snapshot written next to results is the complete, reproducible input.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from .models import (COUPLING_MODES, FAMILIES, INDEPENDENT, MODELS,
                     SHARED_INNOVATIONS, InvalidParameterError, Model)

EXPERIMENT_KINDS = ("rate", "tail", "phis", "maxima")

_KIND_DEFAULTS: dict[str, dict[str, object]] = {
    "rate": {"t_grid": tuple(float(2 ** k) for k in range(10, 17)),
             "replications": 200},
    "tail": {"t_grid": (1024.0, 8192.0), "replications": 10000},
    "phis": {"t_grid": (256.0,), "replications": 200},
    "maxima": {"t_grid": tuple(float(2 ** k) for k in range(10, 17)),
               "replications": 600},
}

_DEFAULT_X_FACTORS = tuple(float(f) for f in np.geomspace(1.0, 4.0, 6))


class ConfigParseError(ValueError):
    """Malformed config text; the message carries the offending line."""


class ConfigValidationError(ValueError):
    """Well-formed config that violates a contract (moments, grids, modes)."""


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError(f"not a number: {text!r}") from exc


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"not an integer: {text!r}") from exc


def _parse_vector(text: str) -> np.ndarray:
    return np.array([_parse_float(p) for p in text.split(",") if p.strip()])


def _model_defaults(family: str) -> dict[str, object]:
    """The family's config parameters: its model fields and their defaults."""
    return {f.name: f.default for f in fields(MODELS[family])}


def _parse_param(default: object, text: str):
    """A model parameter, read as the type of its field's default.  A field
    defaulting to None (a vector or a covariance) reads a number, ``a,b`` or
    ``a,b;c,d``, and the family checks the shape."""
    if isinstance(default, int):
        return _parse_int(text)
    if isinstance(default, float):
        return _parse_float(text)
    if ";" not in text:
        return _parse_vector(text) if "," in text else _parse_float(text)
    rows = [_parse_vector(row) for row in text.split(";") if row.strip()]
    if len({row.size for row in rows}) != 1:
        raise ValueError(f"ragged matrix rows in {text!r}")
    return np.array(rows)


def _render_param(default: object, value) -> str:
    """Canonical text of a normalized model parameter."""
    if isinstance(default, int):
        return str(int(value))
    if isinstance(value, np.ndarray):
        return ";".join(",".join(repr(float(v)) for v in row)
                        for row in np.atleast_2d(value))
    return repr(float(value))


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved experiment description; equality is semantic identity.

    ``model_params`` holds canonical string forms (sorted by key), so two
    configs are equal exactly when they produce the same run.
    """

    kind: str
    family: str
    model_params: tuple[tuple[str, str], ...]
    p: float
    mode: str
    t_grid: tuple[float, ...]
    x_factors: tuple[float, ...]
    replications: int
    root_seed: int
    c_factor: float
    # not a config key: a constant the benchmark still reads; ROADMAP
    # item 1b deletes it
    grid_step: ClassVar[float] = 1.0

    def build_model(self) -> Model:
        params = _model_defaults(self.family)
        return MODELS[self.family](**{
            key: _parse_param(params[key], raw)
            for key, raw in self.model_params})

    def x_grid_for(self, t: float) -> tuple[float, ...]:
        """Per-horizon thresholds c t^{1/p} * factor, kept inside the pair
        region x <= t / log t (beyond it the target bound is trivial)."""
        base = self.c_factor * t ** (1.0 / self.p)
        limit = t / math.log(t)
        return tuple(base * f for f in self.x_factors if base * f <= limit)

    def render(self) -> str:
        """Canonical text form; parsing it back reproduces this config."""
        lines = [f"coupling.mode = {self.mode}",
                 f"experiment.c_factor = {self.c_factor!r}",
                 f"experiment.p = {self.p!r}",
                 f"experiment.replications = {self.replications}",
                 f"experiment.t_grid = {','.join(repr(t) for t in self.t_grid)}",
                 "experiment.x_factors = "
                 + ",".join(repr(f) for f in self.x_factors),
                 f"model.family = {self.family}"]
        lines += [f"model.{key} = {raw}" for key, raw in self.model_params]
        lines.append(f"rng.root_seed = {self.root_seed}")
        return "\n".join(lines) + "\n"


def build_config(kind: str, family: str = "gamma-gaussian",
                 model_params: dict[str, object] | None = None,
                 p: float = 3.0, mode: str | None = None,
                 t_grid=None, x_factors=None, replications: int | None = None,
                 root_seed: int = 0,
                 c_factor: float = 1.5) -> ExperimentConfig:
    """Programmatic constructor: fill defaults, canonicalize, validate."""
    if kind not in EXPERIMENT_KINDS:
        raise ConfigValidationError(
            f"unknown experiment kind {kind!r}; choose from "
            f"{EXPERIMENT_KINDS}")
    if family not in MODELS:
        raise ConfigValidationError(
            f"unknown model family {family!r}; choose from {FAMILIES}")
    params = _model_defaults(family)
    kwargs = {}
    for key, value in (model_params or {}).items():
        if key not in params:
            raise ConfigValidationError(
                f"family {family} has no parameter {key!r}; "
                f"valid: {sorted(params)}")
        kwargs[key] = _parse_param(params[key], value) \
            if isinstance(value, str) else value
    try:
        model = MODELS[family](**kwargs)
    except InvalidParameterError as exc:
        raise ConfigValidationError(str(exc)) from exc
    defaults = _KIND_DEFAULTS[kind]
    if mode is None:
        mode = model.coupling_modes[0] if model.coupling_modes else INDEPENDENT
    elif mode == "quantile-1d":  # the former name of the coupled mode
        mode = SHARED_INNOVATIONS
    cfg = ExperimentConfig(
        kind=kind, family=family,
        # the effective parameters, read back from the built model
        model_params=tuple((key, _render_param(default, getattr(model, key)))
                           for key, default in sorted(params.items())),
        p=float(p), mode=mode,
        t_grid=tuple(float(t) for t in (t_grid if t_grid is not None
                                        else defaults["t_grid"])),
        x_factors=tuple(float(f) for f in (x_factors if x_factors is not None
                                           else _DEFAULT_X_FACTORS)),
        replications=int(replications if replications is not None
                         else defaults["replications"]),
        root_seed=int(root_seed), c_factor=float(c_factor))
    validate_config(cfg, model)
    return cfg


def validate_config(cfg: ExperimentConfig, model: Model) -> None:
    """Enforce every cross-field contract of ``cfg``, whose model is
    ``model``; raise with the violated one."""
    try:
        model._check_p(cfg.p)
    except InvalidParameterError as exc:
        raise ConfigValidationError(str(exc)) from exc
    if cfg.p > 4:
        warnings.warn(
            f"p={cfg.p:g} demands horizons far beyond the default grids for "
            "the asymptotic regime; expect pre-asymptotic slopes",
            stacklevel=2)
    if cfg.replications < 50:
        raise ConfigValidationError(
            f"replications={cfg.replications} < 50: too few for any "
            "confidence-interval-bearing output")
    if not cfg.t_grid or not all(0 < t < math.inf for t in cfg.t_grid) \
            or list(cfg.t_grid) != sorted(cfg.t_grid):
        raise ConfigValidationError(
            f"t_grid must be finite, positive and ascending, got {cfg.t_grid}")
    if cfg.kind == "phis" and len(cfg.t_grid) > 1:
        raise ConfigValidationError(
            f"a phis run reads one horizon, got {len(cfg.t_grid)}")
    if cfg.kind == "rate" and len(cfg.t_grid) < 4:
        raise ConfigValidationError(
            f"rate fits need at least 4 horizons, got {len(cfg.t_grid)}")
    if not 0 < cfg.c_factor < math.inf:
        raise ConfigValidationError(
            f"c_factor must be finite and positive, got {cfg.c_factor}")
    if not cfg.x_factors \
            or not all(0 < f < math.inf for f in cfg.x_factors):
        raise ConfigValidationError(
            f"x_factors must be finite and positive, got {cfg.x_factors}")
    if not 0 <= cfg.root_seed < 2 ** 64:
        raise ConfigValidationError(
            f"root_seed must lie in [0, 2^64), got {cfg.root_seed}")
    if cfg.mode not in COUPLING_MODES:
        raise ConfigValidationError(f"unknown coupling mode {cfg.mode!r}; "
                                    f"choose from {COUPLING_MODES}")
    if cfg.kind in ("rate", "tail", "phis") \
            and cfg.mode not in model.coupling_modes:
        supported = (", ".join(model.coupling_modes)
                     or "none - degenerate durations cannot be coupled")
        raise ConfigValidationError(
            f"coupling mode {cfg.mode!r} unsupported by {cfg.family} "
            f"(supported: {supported})")
    if cfg.kind == "maxima":
        for t in cfg.t_grid:
            if t < 1 or t != int(t):
                raise ConfigValidationError(
                    f"maxima horizons are cycle counts and must be whole "
                    f"numbers >= 1, got t={t:g}")
    if cfg.kind in ("tail", "phis"):
        for t in cfg.t_grid:
            # both tabulate thresholds up to t / log t
            if t < math.e:
                raise ConfigValidationError(
                    f"{cfg.kind} horizons must be at least e, got t={t:g}")
            if not cfg.x_grid_for(t):
                raise ConfigValidationError(
                    f"empty threshold grid at t={t:g}: c t^(1/p) = "
                    f"{cfg.c_factor * t ** (1 / cfg.p):g} already exceeds "
                    f"t/log t = {t / math.log(t):g}")


def parse_config_text(text: str, kind: str) -> ExperimentConfig:
    """Parse dotted key-value text into a validated config for this kind."""
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigParseError(
                f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigParseError(
                f"line {lineno}: expected 'key = value', got {raw_line!r}")
        if key in pairs:
            raise ConfigParseError(f"line {lineno}: duplicate key {key!r} "
                                   f"(first set on line {pairs[key][1]})")
        pairs[key] = (value, lineno)

    def take(key: str) -> tuple[str, int] | None:
        return pairs.pop(key, None)

    family_entry = take("model.family")
    family = family_entry[0] if family_entry else "gamma-gaussian"
    if family not in MODELS:
        lineno = family_entry[1] if family_entry else 0
        raise ConfigParseError(
            f"line {lineno}: unknown model family {family!r}; "
            f"choose from {FAMILIES}")
    params = _model_defaults(family)
    kwargs: dict[str, object] = {}
    for key in list(pairs):
        if not key.startswith("model."):
            continue
        value, lineno = pairs.pop(key)
        param = key[len("model."):]
        if param not in params:
            raise ConfigParseError(
                f"line {lineno}: family {family} has no parameter "
                f"{param!r}; valid: {sorted(params)}")
        try:
            kwargs[param] = _parse_param(params[param], value)
        except ValueError as exc:
            raise ConfigParseError(f"line {lineno}: bad value for {key}: "
                                   f"{exc}") from exc

    scalars: dict[str, object] = {}
    scalar_schema = {
        "coupling.mode": ("mode", str),
        "experiment.p": ("p", _parse_float),
        "experiment.t_grid": ("t_grid", _parse_vector),
        "experiment.x_factors": ("x_factors", _parse_vector),
        "experiment.replications": ("replications", _parse_int),
        "experiment.c_factor": ("c_factor", _parse_float),
        "rng.root_seed": ("root_seed", _parse_int),
    }
    for key, (dest, parser) in scalar_schema.items():
        entry = take(key)
        if entry is None:
            continue
        value, lineno = entry
        try:
            scalars[dest] = parser(value)
        except ValueError as exc:
            raise ConfigParseError(
                f"line {lineno}: bad value for {key}: {exc}") from exc
    if pairs:
        key, (_, lineno) = next(iter(pairs.items()))
        raise ConfigParseError(
            f"line {lineno}: unknown key {key!r}; sections are model.*, "
            "coupling.mode, experiment.*, rng.root_seed")
    return build_config(kind=kind, family=family, model_params=kwargs,
                        **scalars)


def parse_config(path: str | Path, kind: str) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigParseError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), kind)
