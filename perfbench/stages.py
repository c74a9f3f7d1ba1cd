"""Stage-by-stage replication pipeline with in-memory spans.

The pipeline rebuilds what ``build_bundle`` + ``sup_deviation`` /
``phi_decomposition`` compute for one replication, calling each module's
public functions itself so that every stage gets its own span:

    replication stream -> sample cycles and drive Gaussians (Gamma quantile
    apart) -> Poisson embedding -> assemble W -> evaluation grid -> S(u),
    W(u) -> sup, or the eight-term decomposition.

Nothing inside ``regenlab`` is instrumented; the spans sit around the calls
made here.  :func:`library_mismatches` re-runs the library path for a
replication and lists every array that differs from the pipeline's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from regenlab import (AssembledW, CouplingBundle,
                      GaussianDriver, PhiDecomposition, ScaledPath,
                      UnitGridPath, assemble_W, build_bundle,
                      build_inverse_wiener, build_poisson_from_brownian,
                      build_timechange_wiener, evaluation_grid,
                      horizon_cycles_for, phi_decomposition,
                      replication_stream, single_event_path, sup_deviation)
from regenlab.models import INDEPENDENT
from regenlab.paths import PIECEWISE_CONSTANT, HorizonExceededError



class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer, self.index = tracer, index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent index, rep id]``.

    ``rep`` is the identifier shared by the spans of one replication.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rep: str | None = None

    def span(self, name: str) -> _Span:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, 0.0, 0.0, parent, self.rep])
        self.spans[index][1] = time.perf_counter()
        return _Span(self, index)

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per name: summed duration minus the time of child spans."""
        out: dict[str, float] = {}
        for name, start, end, parent, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
            if parent >= 0:
                pname = self.spans[parent][0]
                out[pname] = out.get(pname, 0.0) - (end - start)
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans
                if n == name]


@dataclass
class Counters:
    """Work counts of the replications the pipeline ran."""

    bundles: int = 0
    cycles_drawn: int = 0
    cycles_used: int = 0
    events: int = 0
    poisson_jumps: int = 0
    jumps_needed: int = 0
    grid_points: int = 0
    gap_reps: int = 0
    gap_max: float = 0.0


@dataclass
class Replication:
    """What one replication of the pipeline produced."""

    path: object
    bundle: CouplingBundle
    sup: float | None = None                      # rate / tail
    dec: PhiDecomposition | None = None           # phis
    phis_row: tuple | None = None                 # harness per-rep record


def _drive(tr: Tracer, model, k: int, mode: str, rng):
    """Cycles and Gaussian drivers, as ``drive_gaussians`` builds them."""
    d = model.d
    if mode == INDEPENDENT:
        with tr.span("models.sample_s"):
            path = model.sample_path(k, rng.child(0))
        with tr.span("rng.stream_s"):
            gen_b, gen_dur = rng.child(1).generator(), rng.child(2).generator()
        with tr.span("models.sample_s"):
            g = gen_b.standard_normal((k, d))
            g_dur = gen_dur.standard_normal(k)
        return path, GaussianDriver(g, g_dur, INDEPENDENT)
    # shared-innovations and quantile-1d: durations through the quantile
    with tr.span("rng.stream_s"):
        gen_b, gen_dur = rng.child(1).generator(), rng.child(2).generator()
    with tr.span("models.sample_s"):
        g_dur = gen_dur.standard_normal(k)
    with tr.span("models.tau_quantile_s"):
        tau = model.tau_from_gaussian(g_dur)
    with tr.span("models.sample_s"):
        g = gen_b.standard_normal((k, d))
        xi = model.increments_from(tau, g)
        path = single_event_path(tau, xi, model.interpolation)
    return path, GaussianDriver(g, g_dur, mode)


def replicate(tr: Tracer, model, greeks, cfg, t_index: int, t: float,
              rep: int, counters: Counters, phis: bool) -> Replication:
    """One replication, stage by stage, inside a ``bundle`` span."""
    tr.rep = f"{cfg.kind}/{t_index}/{rep}"
    with tr.span("bundle"):
        with tr.span("rng.stream_s"):
            rng = replication_stream(cfg.root_seed, cfg.kind, t_index,
                                     cfg.replications, rep)
        k = horizon_cycles_for(t, greeks.mu)
        path, driver = _drive(tr, model, k, cfg.mode, rng)
        if path.horizon < t:
            raise HorizonExceededError(f"{k} cycles reach only {path.horizon}")
        with tr.span("coupling.assemble_s"):
            b = UnitGridPath.from_increments(driver.unit_increments_b)
            btilde = UnitGridPath.from_increments(
                driver.unit_increments_btilde)
        with tr.span("coupling.embed_s"):
            n_path = build_poisson_from_brownian(btilde, greeks, horizon=k)
        needed = int(math.floor(t / greeks.gamma)) + 1
        if n_path.n_jumps < needed or needed / greeks.lam > k:
            raise HorizonExceededError(
                f"{n_path.n_jumps} jumps, need {needed}")
        with tr.span("rng.stream_s"):
            gen_circ = rng.child(3).generator()
        with tr.span("coupling.assemble_s"):
            circ = gen_circ.standard_normal((int(math.ceil(t)) + 2, greeks.d))
            wtilde = build_inverse_wiener(btilde, greeks)
            wstar = build_timechange_wiener(b, greeks)
            wcirc = ScaledPath(base=UnitGridPath.from_increments(circ),
                               value_scale=1.0, time_scale=1.0)
            w = assemble_W(wstar, wtilde, wcirc, greeks)
        bundle = CouplingBundle(driver=driver, b=b, btilde=btilde,
                                n_path=n_path, wtilde=wtilde, wstar=wstar,
                                wcirc=wcirc, w=w, greeks=greeks,
                                horizon_cycles=k)
        out = Replication(path=path, bundle=bundle)
        if phis:
            with tr.span("coupling.decomp_s"):
                dec = phi_decomposition(path, bundle, t, cfg.grid_step)
                sups = dec.sup_per_term()
                dev = dec.sup_deviation()
                out.phis_row = (
                    sups, dev,
                    bundle.first_passage(t) > 2.0 * t / greeks.mu,
                    int(path.renewal_counts(np.array([t]))[0])
                    > 2.0 * t / greeks.mu,
                    dev - float(sups.sum()), dec.residual)
            out.dec = dec
            grid_size = dec.grid.size
        else:
            with tr.span("coupling.grid_s"):
                grid = evaluation_grid(path, t, cfg.grid_step,
                                       lattices=(greeks.mu,))
            with tr.span("paths.evaluate_s"):
                s_u = path.evaluate(grid)
            with tr.span("coupling.w_eval_s"):
                w_u = np.atleast_2d(w.at(grid))
            with tr.span("coupling.sup_s"):
                dev = s_u - np.outer(grid, greeks.kappa) - w_u @ greeks.sigma
                out.sup = float(np.max(np.abs(dev)))
            grid_size = grid.size
    counters.bundles += 1
    counters.cycles_drawn += k
    counters.cycles_used += min(k, int(path.renewal_counts(np.array([t]))[0])
                                + 1)
    counters.events += path.event_times.size
    counters.poisson_jumps += n_path.n_jumps
    counters.jumps_needed += needed
    counters.grid_points += grid_size
    return out


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def library_mismatches(model, greeks, cfg, t_index: int, t: float, rep: int,
                       ours: Replication) -> list[str]:
    """Names of the arrays where the pipeline and the library differ."""
    rng = replication_stream(cfg.root_seed, cfg.kind, t_index,
                             cfg.replications, rep)
    path, bundle = build_bundle(model, greeks, t, cfg.mode, rng)
    pairs = {
        "tau": (path.tau, ours.path.tau),
        "xi": (path.xi, ours.path.xi),
        "event_times": (path.event_times, ours.path.event_times),
        "event_values": (path.event_values, ours.path.event_values),
        "cycle_event_ptr": (path.cycle_event_ptr, ours.path.cycle_event_ptr),
        "driver_b": (bundle.driver.unit_increments_b,
                     ours.bundle.driver.unit_increments_b),
        "driver_btilde": (bundle.driver.unit_increments_btilde,
                          ours.bundle.driver.unit_increments_btilde),
        "jump_times": (bundle.n_path.jump_times,
                       ours.bundle.n_path.jump_times),
        "wcirc": (bundle.wcirc.base.values, ours.bundle.wcirc.base.values),
    }
    if ours.dec is not None:
        dec = phi_decomposition(path, bundle, t, cfg.grid_step)
        pairs.update({"grid": (dec.grid, ours.dec.grid),
                      "w_values": (dec.w_values, ours.dec.w_values),
                      "deviation": (dec.deviation, ours.dec.deviation),
                      "residual": (dec.residual, ours.dec.residual)})
        pairs.update({f"phi{q + 1}": (dec.phi[q], ours.dec.phi[q])
                      for q in range(8)})
    else:
        pairs["sup"] = (sup_deviation(path, bundle.w, greeks, t,
                                      cfg.grid_step), ours.sup)
    where = f"{cfg.family} t={t:g} rep={rep}"
    return [f"{where}: {name}" for name, (lib, mine) in pairs.items()
            if not _same(lib, mine)]


def sup_with_left_limits(path, w: AssembledW, greeks, t: float,
                         grid_sup: float) -> float:
    """The grid sup, raised by the deviations at the left limits S(e-).

    For piecewise-constant paths S(e-) is the previous event's value; W is
    continuous, so W(e-) = W(e).  Piecewise-linear paths have no jumps.
    """
    if path.interpolation != PIECEWISE_CONSTANT:
        return grid_sup
    keep = path.event_times <= t
    times = path.event_times[keep]
    if not times.size:
        return grid_sup
    left = np.vstack([np.zeros((1, path.d)), path.event_values[:-1]])[keep]
    w_e = np.atleast_2d(w.at(times))
    dev = left - np.outer(times, greeks.kappa) - w_e @ greeks.sigma
    return max(grid_sup, float(np.max(np.abs(dev))))
