"""Experiment configuration: dotted key-value files, defaults, validation.

The on-disk format is plain text, one ``section.key = value`` pair per line
(``#`` starts a comment line).  Sections: ``model.*`` selects and
parameterizes the family, ``coupling.mode`` the driver construction,
``experiment.*`` the grids and budgets, ``rng.root_seed`` the randomness.

Parsing fills kind-specific defaults and *echoes every effective value* into
the canonical snapshot, so ``parse(render(cfg)) == cfg`` exactly — the
snapshot written next to results is the complete, reproducible input.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coupling import grid_points_per_unit
from .models import (COUPLING_MODES, FAMILIES, INDEPENDENT,
                     SHARED_INNOVATIONS, CompoundJumpModel,
                     GammaGaussianModel, IidSumModel, InvalidParameterError,
                     MM1BusyCycleModel, Model, ParetoCycleModel)

EXPERIMENT_KINDS = ("rate", "tail", "phis", "maxima")

_FLOAT, _INT, _VECTOR, _MATRIX = "float", "int", "vector", "matrix"

_MODEL_PARAMS: dict[str, dict[str, str]] = {
    "iid-sums": {"xi_mean": _VECTOR, "xi_cov": _MATRIX, "tau_const": _FLOAT,
                 "dim": _INT},
    "gamma-gaussian": {"tau_shape": _FLOAT, "tau_scale": _FLOAT,
                       "beta": _VECTOR, "kappa": _VECTOR,
                       "noise_cov": _MATRIX, "dim": _INT},
    "pareto-cycle": {"tail_index": _FLOAT},
    "mm1-busy-cycle": {"arrival_rate": _FLOAT, "service_rate": _FLOAT},
    "compound-jump": {"cycle_rate": _FLOAT, "jump_rate": _FLOAT,
                      "jump_mean": _VECTOR, "jump_cov": _MATRIX, "dim": _INT},
}

_MODEL_CLASSES: dict[str, type[Model]] = {
    "iid-sums": IidSumModel,
    "gamma-gaussian": GammaGaussianModel,
    "pareto-cycle": ParetoCycleModel,
    "mm1-busy-cycle": MM1BusyCycleModel,
    "compound-jump": CompoundJumpModel,
}

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


def _parse_matrix(text: str) -> np.ndarray:
    rows = [[_parse_float(c) for c in row.split(",") if c.strip()]
            for row in text.split(";") if row.strip()]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged matrix rows in {text!r}")
    return np.array(rows)


_PARSERS = {_FLOAT: _parse_float, _INT: _parse_int, _VECTOR: _parse_vector,
            _MATRIX: _parse_matrix}


def _render_vector(values: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in np.atleast_1d(values))


def _render_matrix(matrix: np.ndarray) -> str:
    matrix = np.atleast_2d(matrix)
    return ";".join(",".join(repr(float(v)) for v in row) for row in matrix)


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
    grid_step: float
    c_factor: float

    def build_model(self) -> Model:
        schema = _MODEL_PARAMS[self.family]
        kwargs = {key: _PARSERS[schema[key]](raw)
                  for key, raw in self.model_params}
        return _MODEL_CLASSES[self.family](**kwargs)

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
                 f"experiment.grid_step = {self.grid_step!r}",
                 f"experiment.p = {self.p!r}",
                 f"experiment.replications = {self.replications}",
                 f"experiment.t_grid = {','.join(repr(t) for t in self.t_grid)}",
                 "experiment.x_factors = "
                 + ",".join(repr(f) for f in self.x_factors),
                 f"model.family = {self.family}"]
        lines += [f"model.{key} = {raw}" for key, raw in self.model_params]
        lines.append(f"rng.root_seed = {self.root_seed}")
        return "\n".join(lines) + "\n"


def _canonical_model_params(model: Model) -> tuple[tuple[str, str], ...]:
    """Effective family parameters, read back from the built instance."""
    schema = _MODEL_PARAMS[model.family]
    out = []
    for key in sorted(schema):
        value = getattr(model, key)
        ptype = schema[key]
        if ptype == _FLOAT:
            raw = repr(float(value))
        elif ptype == _INT:
            raw = str(int(value))
        elif ptype == _VECTOR:
            vec = np.broadcast_to(np.atleast_1d(np.asarray(value, float)),
                                  (model.d,))
            raw = _render_vector(vec)
        else:
            raw = _render_matrix(np.asarray(value, float))
        out.append((key, raw))
    return tuple(out)


def build_config(kind: str, family: str = "gamma-gaussian",
                 model_params: dict[str, object] | None = None,
                 p: float = 3.0, mode: str | None = None,
                 t_grid=None, x_factors=None, replications: int | None = None,
                 root_seed: int = 0, grid_step: float = 1.0,
                 c_factor: float = 1.5) -> ExperimentConfig:
    """Programmatic constructor: fill defaults, canonicalize, validate."""
    if kind not in EXPERIMENT_KINDS:
        raise ConfigValidationError(
            f"unknown experiment kind {kind!r}; choose from "
            f"{EXPERIMENT_KINDS}")
    if family not in _MODEL_CLASSES:
        raise ConfigValidationError(
            f"unknown model family {family!r}; choose from {FAMILIES}")
    schema = _MODEL_PARAMS[family]
    kwargs = {}
    for key, value in (model_params or {}).items():
        if key not in schema:
            raise ConfigValidationError(
                f"family {family} has no parameter {key!r}; "
                f"valid: {sorted(schema)}")
        kwargs[key] = _PARSERS[schema[key]](value) \
            if isinstance(value, str) else value
    try:
        model = _MODEL_CLASSES[family](**kwargs)
    except InvalidParameterError as exc:
        raise ConfigValidationError(str(exc)) from exc
    defaults = _KIND_DEFAULTS[kind]
    if mode is None:
        mode = model.coupling_modes[0] if model.coupling_modes else INDEPENDENT
    elif mode == "quantile-1d":  # the former name of the coupled mode
        mode = SHARED_INNOVATIONS
    cfg = ExperimentConfig(
        kind=kind, family=family,
        model_params=_canonical_model_params(model), p=float(p), mode=mode,
        t_grid=tuple(float(t) for t in (t_grid if t_grid is not None
                                        else defaults["t_grid"])),
        x_factors=tuple(float(f) for f in (x_factors if x_factors is not None
                                           else _DEFAULT_X_FACTORS)),
        replications=int(replications if replications is not None
                         else defaults["replications"]),
        root_seed=int(root_seed), grid_step=float(grid_step),
        c_factor=float(c_factor))
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """Enforce every cross-field contract; raise with the violated one."""
    try:
        model = cfg.build_model()
    except InvalidParameterError as exc:
        raise ConfigValidationError(str(exc)) from exc
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
    if not cfg.t_grid or any(t <= 0 for t in cfg.t_grid) \
            or list(cfg.t_grid) != sorted(cfg.t_grid):
        raise ConfigValidationError(
            f"t_grid must be positive and ascending, got {cfg.t_grid}")
    if cfg.kind == "rate" and len(cfg.t_grid) < 4:
        raise ConfigValidationError(
            f"rate fits need at least 4 horizons, got {len(cfg.t_grid)}")
    if cfg.c_factor <= 0:
        raise ConfigValidationError(
            f"c_factor must be positive, got {cfg.c_factor}")
    try:
        grid_points_per_unit(cfg.grid_step)
    except ValueError as exc:
        raise ConfigValidationError(str(exc)) from exc
    if not cfg.x_factors or any(f <= 0 for f in cfg.x_factors):
        raise ConfigValidationError(
            f"x_factors must be positive, got {cfg.x_factors}")
    if cfg.root_seed < 0:
        raise ConfigValidationError(
            f"root_seed must be nonnegative, got {cfg.root_seed}")
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
    if cfg.kind == "tail":
        for t in cfg.t_grid:
            if t < math.e:
                raise ConfigValidationError(
                    f"tail horizons must be at least e, got t={t:g}")
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
    if family not in _MODEL_CLASSES:
        lineno = family_entry[1] if family_entry else 0
        raise ConfigParseError(
            f"line {lineno}: unknown model family {family!r}; "
            f"choose from {FAMILIES}")
    schema = _MODEL_PARAMS[family]
    kwargs: dict[str, object] = {}
    for key in list(pairs):
        if not key.startswith("model."):
            continue
        value, lineno = pairs.pop(key)
        param = key[len("model."):]
        if param not in schema:
            raise ConfigParseError(
                f"line {lineno}: family {family} has no parameter "
                f"{param!r}; valid: {sorted(schema)}")
        try:
            kwargs[param] = _PARSERS[schema[param]](value)
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
        "experiment.grid_step": ("grid_step", _parse_float),
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
