"""Command-line front end.

Subcommands fall into three groups:

* object inspection -- ``simulate`` (write sampled cycles to CSV), ``greeks``
  (print estimated and, where available, exact cycle parameters), ``couple``
  (replay one replication of a ``rate``, ``tail`` or ``phis`` run by its
  stream address: write its coupled path, its Gaussian approximant, and the
  eight error terms at the evaluation points, with left-limit rows at the
  jumps, and print its sup-deviation);
* closed-form calculators -- ``bounds`` evaluates a single named tail bound
  and prints one CSV row, ``certify`` checks a named bound against its exact
  oracle and reports PASS or FAIL (no oracle draws a random number, so its
  ``--seed`` and ``--workers`` are accepted and have no effect).  Their
  ``--key value`` flags are the keyword parameters of the named function in
  :data:`BOUND_CALCULATORS` or :data:`harness.CERTIFIERS`, read by
  :func:`_arguments`;
* experiments -- ``rate``, ``tail``, ``phis``, ``maxima`` parse a config file
  (or use the kind's defaults), run the experiment, and persist results, a
  canonical config snapshot, a report, and a manifest line under ``--out``.

Every output directory is written by one routine, :func:`_write_run`: all of
a run's files are rendered before the first one is written, so a failure
leaves no new file behind.

Exit codes: 0 on success, 1 when a verdict-bearing subcommand (``certify``,
``maxima``, ``rate``) reports FAIL, 2 on usage, parse, or validation errors,
3 on an internal fault (a violated telescoping identity, a path that falls
short of its horizon: ``HorizonExceededError``, or any other exception that
is not a usage error), so that a crash never reads as a FAIL verdict.
"""
from __future__ import annotations

import argparse
import ctypes
import inspect
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, bounds as bounds_mod
from .config import build_config, parse_config
from .coupling import (build_bundle, phi_decomposition, sup_deviation,
                       sup_inputs)
from .greeks import (DegenerateTauError, check_greek_identities,
                     estimate_greeks)
from .harness import (CERTIFIERS, _whole, certify_bound, fit_constant_a,
                      maxima_scaling_experiment, replication_stream,
                      run_phi_diagnostics, run_rate_experiment,
                      run_tail_experiment)
from .models import reference_greeks
from .reporting import (append_manifest, atomic_write_text, csv_text,
                        format_value, render_report)
from .rng import RngStream

# Stream area for the one-shot subcommands, disjoint from every experiment
# kind (the harness uses kind ids 0..4, each spanning 2**34 stream indices).
_CLI_STREAM_BASE = 5 * 2 ** 34
_SIMULATE_OFFSET = 0
_GREEKS_OFFSET = 1


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _load_config(config_path: str | None, kind: str):
    if config_path is None:
        return build_config(kind)
    return parse_config(config_path, kind)


def _write_run(out: str, subcommand: str, config_path: str | None, cfg,
               root_seed: int | None, files: dict[str, str],
               **manifest_extra) -> Path:
    """Write a run directory from its already-rendered ``{name: text}`` files.

    Adds ``config.snapshot`` when the run has a config, writes each file
    atomically, then appends the run's one manifest line.
    """
    out_dir = Path(out)
    if cfg is not None:
        files = {**files, "config.snapshot": cfg.render()}
    for name, text in files.items():
        atomic_write_text(out_dir / name, text)
    append_manifest(out_dir, {"subcommand": subcommand,
                              "config": config_path or "<defaults>",
                              "out_dir": str(out_dir),
                              "root_seed": root_seed,
                              "version": __version__, **manifest_extra})
    return out_dir


def _run_section(cfg) -> dict:
    return {"family": cfg.family,
            "kind": cfg.kind,
            "mode": cfg.mode,
            "p": cfg.p,
            "replications": cfg.replications,
            "root_seed": cfg.root_seed,
            "version": __version__}


def _t_label(t: float) -> str:
    return str(int(t)) if float(t).is_integer() else repr(float(t)).replace(".", "p")


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


# ---------------------------------------------------------------------------
# simulate / greeks / couple
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config, "maxima")
    model = cfg.build_model()
    stream = RngStream(cfg.root_seed, _CLI_STREAM_BASE + _SIMULATE_OFFSET)
    path = model.sample_path(args.cycles, stream)
    xi_cols = [f"xi_{j + 1}" for j in range(path.d)]
    files = {"cycles.csv": csv_text(
        ["cycle_index", "tau", *xi_cols, "eta"],
        [[k, tau, *xi, eta] for k, (tau, xi, eta)
         in enumerate(zip(path.tau, path.xi, path.eta()))])}
    if args.events:
        counts = np.diff(path.cycle_event_ptr)
        cycle = np.repeat(np.arange(path.n_cycles), counts)
        offsets = path.event_times - np.repeat(path.renewal_times[:-1], counts)
        values = path.event_values - np.repeat(path.prefix_xi[:-1], counts,
                                               axis=0)
        # terminal rows carry the sampled (tau, xi), exactly as cycles.csv
        last = path.cycle_event_ptr[1:] - 1
        offsets[last] = path.tau
        values[last] = path.xi
        files["events.csv"] = csv_text(
            ["cycle_index", "offset",
             *(f"value_{j + 1}" for j in range(path.d))],
            [[k, o, *v] for k, o, v in zip(cycle, offsets, values)])
    out_dir = _write_run(args.out, "simulate", args.config, cfg,
                         cfg.root_seed, files, cycles=args.cycles)
    total = float(path.renewal_times[-1])
    print(f"simulate: {args.cycles} cycles of {cfg.family} "
          f"(total duration {total:.6g}) -> {out_dir / 'cycles.csv'}")
    return 0


def _matrix_entries(prefix: str, matrix: np.ndarray) -> dict:
    out = {}
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            out[f"{prefix}_{i + 1}{j + 1}"] = m[i, j]
    return out


def _greeks_section(g) -> dict:
    section = {"mu": g.mu, "gamma": g.gamma, "lam": g.lam}
    for name in ("kappa", "beta", "alpha"):
        vec = np.atleast_1d(np.asarray(getattr(g, name), dtype=float))
        for j, value in enumerate(vec):
            section[f"{name}_{j + 1}"] = value
    section.update(_matrix_entries("sigma", g.sigma))
    section.update(_matrix_entries("v", g.v))
    return section


def _cmd_greeks(args) -> int:
    cfg = _load_config(args.config, "maxima")
    model = cfg.build_model()
    stream = RngStream(cfg.root_seed, _CLI_STREAM_BASE + _GREEKS_OFFSET)
    batch = model.sample_cycles(args.cycles, stream)
    estimated = estimate_greeks(batch)
    sections = {"estimated": _greeks_section(estimated)}
    try:
        exact = model.true_greeks()
        sections["exact"] = _greeks_section(exact)
    except DegenerateTauError as exc:
        sections["exact"] = {"available": False, "reason": str(exc)}
    residuals = check_greek_identities(estimated)
    sections["identities"] = dict(residuals)
    sections["run"] = {"family": cfg.family, "cycles": args.cycles,
                       "p": cfg.p, "root_seed": cfg.root_seed,
                       "version": __version__}
    sys.stdout.write(render_report(sections))
    return 0


def _cmd_couple(args) -> int:
    if args.t is not None and not 0 < args.t < math.inf:
        raise ValueError(f"--t must be a finite positive horizon, got {args.t}")
    cfg = _load_config(args.config, args.kind)
    if not 0 <= args.t_index < len(cfg.t_grid):
        raise ValueError(f"--t-index {args.t_index} is outside the "
                         f"{len(cfg.t_grid)} horizon(s) a {args.kind} run uses")
    if not 0 <= args.rep < cfg.replications:
        raise ValueError(f"--rep {args.rep} is outside the "
                         f"{cfg.replications} replications of the config")
    model = cfg.build_model()
    greeks = reference_greeks(model, cfg.p)
    t = float(args.t) if args.t is not None else float(cfg.t_grid[args.t_index])
    stream = replication_stream(cfg.root_seed, args.kind, args.t_index,
                                cfg.replications, args.rep)
    path, bundle = build_bundle(model, greeks, t, cfg.mode, stream)
    dec = phi_decomposition(path, bundle, t)
    # the sup the replayed run computed: a rate or tail run reads W
    # without W_circ, a phis run the decomposition's rows
    if args.kind == "phis":
        sup_dev = dec.sup_deviation()
    else:
        (sup_path, w), = sup_inputs(model, greeks, t, cfg.mode, [stream])
        sup_dev = sup_deviation(sup_path, w, greeks, t)
    d = path.d
    header = (["u", "left"]
              + [f"S_{j + 1}" for j in range(d)]
              + [f"W_{j + 1}" for j in range(d)]
              + [f"phi{q}_{j + 1}" for q in range(1, 9) for j in range(d)]
              + ["deviation"])
    rows = [[dec.grid[i], int(dec.left[i]), *dec.s_values[i], *dec.w_values[i],
             *(value for phi in dec.phi for value in phi[i]), dec.deviation[i]]
            for i in range(dec.grid.size)]
    out_dir = _write_run(args.out, "couple", args.config, cfg, cfg.root_seed,
                         {"couple.csv": csv_text(header, rows)}, t=t,
                         mode=cfg.mode, kind=args.kind, t_index=args.t_index,
                         rep=args.rep)
    print(f"couple: replication root_seed={cfg.root_seed} kind={args.kind} "
          f"t_index={args.t_index} rep={args.rep} mode={cfg.mode} t={t:g} "
          f"rows={dec.grid.size} ({int(dec.left.sum())} left limits) "
          f"sup_deviation={sup_dev!r} identity-residual={dec.residual:.3g} "
          f"(tolerance {dec.tolerance:.3g}) -> {out_dir / 'couple.csv'}")
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _finite(key: str, text: str) -> float:
    """A numeric parameter; nan and infinities are usage errors (exit 2)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"parameter --{key.replace('_', '-')} must be a "
                         f"finite number, got {text!r}")
    return value


def _parse_laplace(text: str):
    """Duration Laplace transform from a compact descriptor string.

    ``exp:RATE`` for exponential durations, ``gamma:SHAPE,SCALE`` for gamma
    durations, ``point:TAU`` for a deterministic duration.
    """
    kind, _, rest = text.partition(":")
    if kind == "exp":
        rate = _finite("laplace", rest)
        if rate <= 0:
            raise ValueError(f"exponential rate must be positive, got {rate}")
        return lambda b: rate / (rate + b)
    if kind == "gamma":
        shape_text, _, scale_text = rest.partition(",")
        shape = _finite("laplace", shape_text)
        scale = _finite("laplace", scale_text)
        if shape <= 0 or scale <= 0:
            raise ValueError(
                f"gamma shape and scale must be positive, got {shape}, {scale}")
        return lambda b: (1.0 + scale * b) ** (-shape)
    if kind == "point":
        tau0 = _finite("laplace", rest)
        if tau0 <= 0:
            raise ValueError(f"point duration must be positive, got {tau0}")
        return lambda b: math.exp(-b * tau0)
    raise ValueError(
        f"unknown laplace descriptor {text!r}; use exp:RATE, gamma:SHAPE,SCALE, "
        "or point:TAU")


def _laplace_at_1(laplace_at_1: float | None, laplace: str | None) -> float:
    """The duration Laplace transform at 1, from exactly one of
    ``--laplace-at-1 VALUE`` and ``--laplace DESC``."""
    if (laplace_at_1 is None) == (laplace is None):
        raise ValueError("give exactly one duration transform: "
                         "--laplace-at-1 VALUE or --laplace DESC")
    if laplace is None:
        return laplace_at_1
    return float(_parse_laplace(laplace)(1.0))


def _moments(n, p, abs_moment, variance,
             laplace_at_1=None) -> bounds_mod.TailMoments:
    return bounds_mod.TailMoments(n=_whole("n", n), p=p, abs_moment=abs_moment,
                                  variance=variance, laplace_at_1=laplace_at_1)


def _bound_renewal_count(t, x, mu, laplace: str):
    return bounds_mod.renewal_count_tail(t, x, mu, _parse_laplace(laplace))


def _bound_nagaev(n, p, abs_moment, variance, x):
    return bounds_mod.nagaev_tail(_moments(n, p, abs_moment, variance), x)


def _bound_block_maximal(n, p, abs_moment, variance, x, c=1.0):
    return bounds_mod.block_maximal_tail(
        _moments(n, p, abs_moment, variance), x, c=c)


def _bound_random_sum_m0(laplace_at_1: float | None = None,
                         laplace: str | None = None):
    value = _laplace_at_1(laplace_at_1, laplace)
    m0 = bounds_mod.random_sum_M0(lambda b: value)
    return bounds_mod.BoundResult(float(m0), None, {"M0": m0})


def _bound_random_sum_nagaev(t, x, n, p, abs_moment, variance,
                             laplace_at_1: float | None = None,
                             laplace: str | None = None):
    return bounds_mod.random_sum_nagaev_tail(t, x, _moments(
        n, p, abs_moment, variance, _laplace_at_1(laplace_at_1, laplace)))


def _bound_brownian_sup(t, x, d=1):
    return bounds_mod.brownian_sup_tail(t, x, _whole("d", d))


def _bound_exp_to_power(A, B, C, p):
    c, a0 = bounds_mod.exp_to_power(A, B, C, p)
    return bounds_mod.BoundResult(a0, None, {"c": c, "a0": a0})


# name: calculator; its keyword parameters, with their defaults, are the
# parameters of ``regenlab bounds NAME``
BOUND_CALCULATORS = {
    "poisson-inverse-tail": bounds_mod.poisson_inverse_tail,
    "renewal-count-tail": _bound_renewal_count,
    "brownian-grid-increment-tail": bounds_mod.brownian_grid_increment_tail,
    "nagaev-tail": _bound_nagaev,
    "block-maximal-tail": _bound_block_maximal,
    "random-sum-m0": _bound_random_sum_m0,
    "random-sum-nagaev-tail": _bound_random_sum_nagaev,
    "brownian-sup-tail": _bound_brownian_sup,
    "exp-to-power": _bound_exp_to_power,
}


def _flags(keys) -> str:
    return ", ".join(f"--{key.replace('_', '-')}" for key in keys)


def _arguments(registry: dict, name: str, what: str,
               extra: list[str]) -> dict:
    """The keyword arguments of ``registry[name]`` from its ``--key value``
    and ``--key=value`` flags, read by its signature: a tuple default takes
    comma-separated finite numbers, a ``str`` (or ``str | None``) annotation
    text, anything else one finite number, and a parameter without a
    default is required.  An unknown ``name``, an unknown, repeated or
    missing flag and a bad number are usage errors raised before any
    computation."""
    raw: dict[str, str] = {}
    tokens = iter(extra)
    for token in tokens:
        if not token.startswith("--") or len(token) <= 2:
            raise ValueError(f"unexpected argument {token!r}")
        key, sep, value = token[2:].partition("=")
        if not sep:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"flag --{key} is missing a value")
        key = key.replace("-", "_")
        if key in raw:
            raise ValueError(f"duplicate parameter {key!r}")
        raw[key] = value
    if name not in registry:
        raise ValueError(f"unknown {what} {name!r}; known {what}s: "
                         f"{', '.join(sorted(registry))}")
    params = inspect.signature(registry[name]).parameters
    unknown = [key for key in raw if key not in params]
    if unknown:
        raise ValueError(f"{what} {name} does not take {_flags(unknown)}; "
                         f"accepted: {_flags(params)}")
    for key, param in params.items():
        if param.default is param.empty and key not in raw:
            raise ValueError(f"missing required parameter {_flags([key])}")
    args = {}
    for key, text in raw.items():
        param = params[key]
        if isinstance(param.default, tuple):
            args[key] = tuple(_finite(key, item) for item in text.split(","))
        elif param.annotation in ("str", "str | None"):
            args[key] = text
        else:
            args[key] = _finite(key, text)
    return args


def _cmd_bounds(args, extra: list[str]) -> int:
    params = _arguments(BOUND_CALCULATORS, args.name, "bound", extra)
    res = BOUND_CALCULATORS[args.name](**params)
    constant_text = ";".join(
        f"{key}={format_value(val)}" for key, val in res.constants_used.items())
    print(f"{args.name},{format_value(res.value)},{res.region or 'none'},"
          f"{constant_text}")
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _cmd_certify(args, extra: list[str]) -> int:
    params = _arguments(CERTIFIERS, args.name, "certification", extra)
    record = certify_bound(args.name, params)
    width = max(len(row.label) for row in record.rows)
    for row in record.rows:
        print(f"  {row.label:<{width}}  lhs={row.lhs:.6g}  se={row.se:.3g}  "
              f"bound={row.bound:.6g}  {_verdict(row.passed)}")
    print(f"certify {record.name}: {_verdict(record.passed)}")
    if args.out:
        fields = ["label", "lhs", "se", "bound", "passed"]
        cells = [[getattr(row, name) for name in fields] for row in record.rows]
        sections = {"run": {"name": record.name, "passed": record.passed,
                            "version": __version__},
                    "details": dict(record.details),
                    **{f"row_{k}": dict(zip(fields, row_cells))
                       for k, row_cells in enumerate(cells)}}
        _write_run(args.out, "certify", None, None, None,
                   {"results.csv": csv_text(fields, cells),
                    "report.txt": render_report(sections)},
                   name=record.name, passed=record.passed)
    return 0 if record.passed else 1


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _cmd_rate(args) -> int:
    cfg = _load_config(args.config, "rate")
    fit = run_rate_experiment(cfg, workers=args.workers)
    out_dir = _write_run(args.out, "rate", args.config, cfg, cfg.root_seed, {
        "results.csv": csv_text(
            ["t", "replications", "median", "ci_low", "ci_high", "mean",
             "q90"],
            [[s.t, s.n, s.median, s.ci_low, s.ci_high, s.mean, s.q90]
             for s in fit.per_t]),
        "report.txt": render_report({
            "run": _run_section(cfg),
            "fit": {"slope": fit.slope,
                    "intercept": fit.intercept,
                    "slope_ci_low": fit.slope_ci[0],
                    "slope_ci_high": fit.slope_ci[1],
                    "threshold": fit.threshold,
                    "passed": fit.passed},
        }),
    })
    print(f"rate: slope={fit.slope:.4f} "
          f"ci=({fit.slope_ci[0]:.4f}, {fit.slope_ci[1]:.4f}) "
          f"threshold={fit.threshold:.4f} {_verdict(fit.passed)} -> {out_dir}")
    return 0 if fit.passed else 1


def _cmd_tail(args) -> int:
    cfg = _load_config(args.config, "tail")
    estimates = run_tail_experiment(cfg, workers=args.workers)
    per_t: dict[float, list] = {}
    for e in estimates:
        per_t.setdefault(e.t, []).append(e.normalized_high)
    a_hat = fit_constant_a(estimates)
    horizon_maxima = [max(group) for group in per_t.values()]
    fit_section = {"a_hat": a_hat,
                   **{f"a_hat_t{_t_label(t)}": m
                      for t, m in zip(per_t, horizon_maxima)},
                   "horizon_spread": (max(horizon_maxima)
                                      / max(min(horizon_maxima), 1e-300))}
    out_dir = _write_run(args.out, "tail", args.config, cfg, cfg.root_seed, {
        "results.csv": csv_text(
            ["t", "x", "region", "replications", "hits", "p_hat", "ci_low",
             "ci_high", "normalized", "normalized_high"],
            [[e.t, e.x, e.region, e.n, e.hits, e.p_hat, e.ci_low, e.ci_high,
              e.normalized, e.normalized_high] for e in estimates]),
        "report.txt": render_report({"run": _run_section(cfg),
                                     "fit": fit_section}),
    })
    print(f"tail: a_hat={a_hat:.6g} over {len(estimates)} (t, x) cells, "
          f"horizon spread {fit_section['horizon_spread']:.3g}x -> {out_dir}")
    return 0


def _cmd_phis(args) -> int:
    cfg = _load_config(args.config, "phis")
    diag = run_phi_diagnostics(cfg, workers=args.workers)
    # q = 1..8 are the terms, q = 0 the deviation itself
    tables = [*enumerate(diag.per_term, 1), (0, diag.deviation_table)]
    rows = [[q, e.t, e.x, e.region, e.n, e.hits, e.p_hat, e.ci_low,
             e.ci_high, e.normalized] for q, table in tables for e in table]
    diagnostics = {
        "t": diag.t,
        "passage_exceed_freq": diag.passage_exceed_freq,
        "passage_exceed_bound": diag.passage_exceed_bound,
        "count_exceed_freq": diag.count_exceed_freq,
        "eta_pth_moment": diag.eta_pth_moment,
        "triangle_max_violation": diag.triangle_max_violation,
        "max_residual": diag.max_residual,
        "dominant_term": 1 + int(np.argmax(diag.term_sup_medians)),
    }
    for q in range(1, 9):
        diagnostics[f"term_sup_median_{q}"] = diag.term_sup_medians[q - 1]
    structure = {}
    for k, (x, lhs, rhs) in enumerate(diag.structure_rows):
        structure[f"x_{k}"] = x
        structure[f"empirical_{k}"] = lhs
        structure[f"bound_{k}"] = rhs
        structure[f"holds_{k}"] = bool(lhs <= rhs)
    out_dir = _write_run(args.out, "phis", args.config, cfg, cfg.root_seed, {
        "results.csv": csv_text(
            ["q", "t", "x", "region", "replications", "hits", "p_hat",
             "ci_low", "ci_high", "normalized"], rows),
        "report.txt": render_report({"run": _run_section(cfg),
                                     "diagnostics": diagnostics,
                                     "structure": structure}),
    })
    print(f"phis: t={diag.t:g} dominant term phi{diagnostics['dominant_term']} "
          f"max identity residual {diag.max_residual:.3g} -> {out_dir}")
    return 0


def _cmd_maxima(args) -> int:
    cfg = _load_config(args.config, "maxima")
    trend = maxima_scaling_experiment(cfg, workers=args.workers)
    trend_section = {"passed": trend.passed,
                     "first_median": trend.rows[0].median,
                     "last_median": trend.rows[-1].median,
                     "decay_ratio": trend.rows[-1].median
                     / max(trend.rows[0].median, 1e-300)}
    out_dir = _write_run(args.out, "maxima", args.config, cfg, cfg.root_seed, {
        "results.csv": csv_text(
            ["n", "replications", "median", "ci_low", "ci_high"],
            [[n, row.n, row.median, row.ci_low, row.ci_high]
             for n, row in zip(trend.n_values, trend.rows)]),
        "report.txt": render_report({"run": _run_section(cfg),
                                     "trend": trend_section}),
    })
    print(f"maxima: medians "
          f"{[round(row.median, 4) for row in trend.rows]} "
          f"{_verdict(trend.passed)} -> {out_dir}")
    return 0 if trend.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    """A ``--workers`` or ``--cycles`` count: a positive integer, or a usage
    error (exit 2) that names the flag, rather than a silent serial run or an
    empty sample at 0 or below."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regenlab",
        description="Simulation laboratory for Gaussian coupling of "
                    "cumulative processes with regeneration.",
        allow_abbrev=False)
    parser.add_argument("--version", action="version",
                        version=f"regenlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", allow_abbrev=False, help="sample cycles and write CSV")
    sim.add_argument("--config", default=None)
    sim.add_argument("--cycles", type=_positive_int, default=1000)
    sim.add_argument("--out", required=True)
    sim.add_argument("--events", action="store_true",
                     help="also write intra-cycle events")
    sim.set_defaults(handler=_cmd_simulate)

    grk = sub.add_parser("greeks", allow_abbrev=False, help="print cycle parameters")
    grk.add_argument("--config", default=None)
    grk.add_argument("--cycles", type=_positive_int, default=100_000)
    grk.set_defaults(handler=_cmd_greeks)

    cpl = sub.add_parser("couple", allow_abbrev=False,
                         help="replay one replication and write its error terms")
    cpl.add_argument("--config", default=None)
    cpl.add_argument("--kind", choices=("rate", "tail", "phis"),
                     default="phis",
                     help="experiment whose replication stream to replay "
                          "(default: phis)")
    cpl.add_argument("--t-index", type=int, default=0,
                     help="horizon index in the config's t_grid (default: 0)")
    cpl.add_argument("--rep", type=int, default=0,
                     help="replication index (default: 0)")
    cpl.add_argument("--t", type=float, default=None,
                     help="horizon (default: the --t-index grid entry)")
    cpl.add_argument("--out", required=True)
    cpl.set_defaults(handler=_cmd_couple)

    bnd = sub.add_parser("bounds", allow_abbrev=False, help="evaluate one closed-form tail bound")
    bnd.add_argument("name")
    bnd.set_defaults(handler=_cmd_bounds, takes_extra=True)

    crt = sub.add_parser("certify", allow_abbrev=False,
                         help="cross-check one bound against its exact "
                              "oracle")
    crt.add_argument("name")
    crt.add_argument("--seed", type=int, default=0,
                     help="accepted and ignored: no oracle draws")
    crt.add_argument("--workers", type=_positive_int, default=1,
                     help="accepted and ignored: no oracle opens a pool")
    crt.add_argument("--out", default=None)
    crt.set_defaults(handler=_cmd_certify, takes_extra=True)

    for kind, handler, description in (
            ("rate", _cmd_rate,
             "median sup-deviation growth across horizons"),
            ("tail", _cmd_tail,
             "deviation exceedance probabilities over a (t, x) grid"),
            ("phis", _cmd_phis,
             "per-term decomposition diagnostics at one horizon"),
            ("maxima", _cmd_maxima,
             "scaling of cycle maxima against n^(1/p)")):
        exp = sub.add_parser(kind, allow_abbrev=False, help=description)
        exp.add_argument("--config", default=None)
        exp.add_argument("--out", required=True)
        exp.add_argument("--workers", type=_positive_int, default=1,
                         help="most processes to run replications in "
                              "(default: 1)")
        exp.set_defaults(handler=handler)

    return parser


# glibc's mallopt parameters, and the values its dynamic mmap threshold
# reaches at most on a 64-bit build
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 2 ** 20


def _heap_for_temporaries() -> None:
    """Serve allocations up to 32 MB from the heap, for this process and the
    pool workers it forks.

    glibc maps an allocation above its mmap threshold, 128 KB at first,
    afresh and unmaps it when freed, so every replication faults the pages
    of its larger numpy temporaries in again: a phis run on compound-jump
    at t = 1024 took 21,000 page faults where it takes 500 with the heap.
    The threshold grows only when such a block is freed, which an import
    of scipy used to do by chance.  Here it is fixed at the 32 MB glibc's
    own adjustment stops at, and the heap top is returned to the system
    above 64 MB, twice that, as the adjustment would set it.  A libc
    without ``mallopt`` is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def main(argv: list[str] | None = None) -> int:
    _heap_for_temporaries()
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    takes_extra = getattr(args, "takes_extra", False)
    if extra and not takes_extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if takes_extra:
            return args.handler(args, extra)
        return args.handler(args)
    # the config, parameter and greeks errors all subclass ValueError
    except (ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    # a violated identity, a path short of its horizon, a RuntimeError or
    # anything unexpected: a fault, never exit 1, the FAIL verdict
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
