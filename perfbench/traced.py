"""Traced run of one workload: one fresh process, ``workers=1``.

    python3 perfbench/traced.py WORKLOAD SEED REPLICATIONS WORKDIR

1. Set-up: config parse and ``reference_greeks`` (span ``models.oracle_s``).
2. Each job through ``regenlab.cli.main`` at ``workers=1``.  The CLI's
   reference to its harness entry point (``run_*`` or ``certify_bound``) is
   wrapped for the duration of the call, so the harness call and the CLI's
   own config and write phase are timed apart.  Its outputs are checked and
   their digests returned for the determinism comparison.
3. The stage-by-stage pipeline (:mod:`stages`) over the same replications,
   then the benchmark's own calls into ``stats`` and ``bounds`` on the
   pipeline's results.  Every result is compared with the harness's, and a
   sample of replications with ``build_bundle`` + ``sup_deviation`` /
   ``phi_decomposition`` bit for bit.

The last line of standard output is a JSON object with the per-layer
metrics, the output digests and any problems found.
"""

import contextlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from regenlab import (RngStream, TailMoments, block_maximal_tail,
                      bootstrap_slope_ci, brownian_grid_increment_tail,
                      brownian_sup_tail, cli, eta_moment, loglog_slope,
                      median_ci, nagaev_tail, parse_config,
                      poisson_inverse_tail, random_sum_M0,
                      random_sum_nagaev_tail, reference_greeks,
                      renewal_count_tail, sup_deviation, validity_region,
                      wilson_interval)
from stages import (Counters, Tracer, library_mismatches, replicate,
                    sup_with_left_limits)
from workloads import (CERTIFY_MC, CERTIFY_NAMES, HARNESS_CHUNK, STAGES,
                       WORKLOADS, check_outputs, cli_argv, digests)

HARNESS_ENTRY = {"tail": "run_tail_experiment", "rate": "run_rate_experiment",
                 "phis": "run_phi_diagnostics", "certify": "certify_bound"}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _timed_cli(tr: Tracer, job, argv: list[str]):
    """Run one CLI call; return (harness result, exit code, CLI-only time)."""
    attr = HARNESS_ENTRY[job.command]
    span = ("harness.run_s" if job.command != "certify"
            else f"harness.certify.{job.label}_s")
    real = getattr(cli, attr)
    results = []

    def timed(*args, **kwargs):
        with tr.span(span):
            results.append(real(*args, **kwargs))
        return results[-1]

    setattr(cli, attr, timed)
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
        total = time.perf_counter() - start
    finally:
        setattr(cli, attr, real)
    return results[0], code, total - tr.durations(span)[-1]


def _differs(name: str, ours, theirs) -> list[str]:
    same = np.asarray(ours).tobytes() == np.asarray(theirs).tobytes()
    return [] if same else [f"{name}: pipeline {ours!r} != harness {theirs!r}"]


def _tail_table(tr: Tracer, sups: np.ndarray, t: float, x_values):
    """(x, hits, ci_low, ci_high, region) per threshold, as the harness
    tabulates exceedances."""
    rows = []
    for x in x_values:
        hits = int(np.count_nonzero(sups >= x))
        lo, hi = wilson_interval(hits, sups.size)
        with tr.span("bounds.s"):
            region = validity_region(t, x)
        rows.append((x, hits, lo, hi, region))
    return rows


def _rate_stats(tr, cfg, per_t, fit) -> list[str]:
    with tr.span("stats.s"):
        medians = [median_ci(devs).median for devs in per_t]
        q90 = [float(np.quantile(devs, 0.9)) for devs in per_t]
        slope, _ = loglog_slope(cfg.t_grid, medians)
        bootstrap_slope_ci(cfg.t_grid, per_t,
                           RngStream(cfg.root_seed, 0).generator())
    problems = _differs("rate slope", slope, fit.slope)
    for i, devs in enumerate(per_t):
        problems += _differs(f"rate deviations t={cfg.t_grid[i]:g}",
                             devs, np.asarray(fit.deviations[i]))
        problems += _differs("rate median", medians[i], fit.per_t[i].median)
        problems += _differs("rate q90", q90[i], fit.per_t[i].q90)
    return problems


def _tail_stats(tr, cfg, per_t, estimates) -> list[str]:
    ours = []
    with tr.span("stats.s"):
        for t, devs in zip(cfg.t_grid, per_t):
            ours += _tail_table(tr, devs, t, cfg.x_grid_for(t))
    theirs = [(e.x, e.hits, e.ci_low, e.ci_high, e.region) for e in estimates]
    return [] if ours == theirs else ["tail estimates differ from harness"]


def _phis_stats(tr, cfg, model, greeks, rows, diag) -> list[str]:
    t = float(cfg.t_grid[0])
    sup_rows = np.vstack([r[0] for r in rows])
    devs = np.array([r[1] for r in rows])
    x_values = cfg.x_grid_for(t)
    with tr.span("stats.s"):
        tables = [_tail_table(tr, sup_rows[:, q], t, x_values)
                  for q in range(8)]
        tables.append(_tail_table(tr, devs, t, x_values))
        medians = tuple(float(np.median(sup_rows[:, q])) for q in range(8))
        fp_freq = float(np.mean([r[2] for r in rows]))
        count_freq = float(np.mean([r[3] for r in rows]))
    with tr.span("bounds.s"):
        fp_bound = poisson_inverse_tail(t, t / math.log(t), greeks.gamma).value
    with tr.span("models.sample_s"):
        eta_moment(model, cfg.p)
    theirs = [[(e.x, e.hits, e.ci_low, e.ci_high, e.region) for e in table]
              for table in (*diag.per_term, diag.deviation_table)]
    problems = [] if tables == theirs else [
        f"{cfg.family}: per-term tables differ from harness"]
    for name, ours, their in (
            ("term sup medians", medians, diag.term_sup_medians),
            ("passage frequency", fp_freq, diag.passage_exceed_freq),
            ("passage bound", fp_bound, diag.passage_exceed_bound),
            ("count frequency", count_freq, diag.count_exceed_freq),
            ("triangle", max(r[4] for r in rows), diag.triangle_max_violation),
            ("residual", max(r[5] for r in rows), diag.max_residual)):
        problems += _differs(f"{cfg.family} {name}", ours, their)
    return problems


def _certify_bounds(name: str) -> list[float]:
    """The bound column of each certifier's rows at its default parameters."""
    normal = TailMoments(n=1, p=3.0, abs_moment=2.0 * math.sqrt(2.0 / math.pi),
                         variance=1.0)
    if name == "poisson-inverse":
        return [poisson_inverse_tail(t, t / math.log(t), 1.0).value
                for t in (64.0, 256.0, 1024.0)]
    if name == "renewal-count":
        t = 20.0
        value = renewal_count_tail(t, t / math.log(t), 1.0,
                                   lambda b: 1.0 / (1.0 + b)).value
        return [value, value]
    if name == "block-maximal":
        moments = TailMoments(n=16, p=3.0, abs_moment=1.0, variance=1.0)
        return [block_maximal_tail(moments, 4.0, c=1.0).value]
    if name == "random-sum":
        t = 10.0
        moments = TailMoments(n=1, p=3.0, abs_moment=normal.abs_moment,
                              variance=1.0, laplace_at_1=0.5)
        random_sum_M0(lambda b: 1.0 / (1.0 + b))
        return [random_sum_nagaev_tail(t, t / math.log(t), moments).value, 3.0]
    if name == "grid-increment":
        return [brownian_grid_increment_tail(t, x).value
                for t in (1.0, 2.0, 3.0, 5.0, 10.0)
                for x in (2.6, 2.9, 3.2, 3.6, 4.0)]
    if name == "brownian-sup":
        return [brownian_sup_tail(t, f * t / math.log(t), 1).value
                for t in (4.0, 16.0, 64.0, 256.0, 1024.0)
                for f in (1.05, 1.5, 2.5, 4.0, 8.0)
                if f * t / math.log(t) > math.e]
    two_point = TailMoments(n=100, p=3.0, abs_moment=1.0, variance=1.0)
    return [nagaev_tail(two_point, 50.0).value, nagaev_tail(normal, 5.0).value]


def certify_draws(name: str) -> int:
    """Random draws one certifier makes at its defaults, computed from its
    parameters (renewal sums of 41 exponentials, random sums over 80
    durations and 81 normals, 10 units of 1000 grid steps)."""
    reps = CERTIFY_MC.get(name, (0, 0))[0]
    per_rep = {"renewal-count": 41, "random-sum": 80 + 81,
               "grid-increment": 10 * 1000}
    return reps * per_rep.get(name, 0)


def _bundle_times(tr: Tracer) -> dict[str, float]:
    ms = np.array(tr.durations("bundle")) * 1e3
    if not ms.size:
        return {"coupling.bundle_p50_ms": 0.0, "coupling.bundle_tail_ms": 0.0,
                "coupling.bundle_tail_pct": 0.0}
    pct = next((q for q in TAIL_PERCENTILES if ms.size * (1 - q / 100) >= 10),
               50.0)
    return {"coupling.bundle_p50_ms": float(np.median(ms)),
            "coupling.bundle_tail_ms": float(np.percentile(ms, pct)),
            "coupling.bundle_tail_pct": pct}


def _run_pipeline(tr, job, cfg, model, greeks, result,
                  counters: Counters) -> list[str]:
    phis = job.command == "phis"
    problems = []
    per_t, rows = [], []
    for t_index, t in enumerate(cfg.t_grid):
        sups = []
        for rep in range(cfg.replications):
            out = replicate(tr, model, greeks, cfg, t_index, float(t), rep,
                            counters, phis)
            if phis:
                rows.append(out.phis_row)
                with tr.span("probe"):
                    grid_sup = sup_deviation(out.path, out.bundle.w, greeks,
                                             float(t), cfg.grid_step)
                    gap = sup_with_left_limits(out.path, out.bundle.w, greeks,
                                               float(t), grid_sup) - grid_sup
                counters.gap_reps += gap > 0
                counters.gap_max = max(counters.gap_max, gap)
            else:
                sups.append(out.sup)
            if rep % HARNESS_CHUNK == 0:
                with tr.span("check"):
                    problems += library_mismatches(model, greeks, cfg, t_index,
                                                   float(t), rep, out)
        per_t.append(np.asarray(sups))
    if job.command == "rate":
        problems += _rate_stats(tr, cfg, per_t, result)
    elif job.command == "tail":
        problems += _tail_stats(tr, cfg, per_t, result)
    else:
        problems += _phis_stats(tr, cfg, model, greeks, rows, result)
    return problems


def main(argv: list[str]) -> int:
    name, seed, replications, work = argv
    seed, replications, work = int(seed), int(replications), Path(work)
    workload = WORKLOADS[name]
    tr = Tracer()
    setups = {}
    for job in workload.jobs:
        if job.command != "certify":
            cfg = parse_config(work / "configs" / f"{job.label}.cfg",
                               job.command)
            model = cfg.build_model()
            with tr.span("models.oracle_s"):
                greeks = reference_greeks(model, cfg.p)
            setups[job.label] = (cfg, model, greeks)

    problems, results = [], {}
    write_s = 0.0
    for job in workload.jobs:
        argv_job = cli_argv(job, work / "configs", work / "out", seed, 1)
        results[job.label], code, cli_only = _timed_cli(tr, job, argv_job)
        write_s += cli_only
        if code != 0:
            problems.append(f"{job.label}: regenlab exited {code}")
    problems += check_outputs(workload, work / "out")

    counters = Counters()
    pipeline_start = time.perf_counter()
    for job in workload.jobs:
        if job.command == "certify":
            with tr.span("bounds.s"):
                bounds = _certify_bounds(job.label)
            theirs = [row.bound for row in results[job.label].rows]
            problems += _differs(f"certify {job.label} bounds", bounds,
                                 theirs)
        else:
            cfg, model, greeks = setups[job.label]
            problems += _run_pipeline(tr, job, cfg, model, greeks,
                                      results[job.label], counters)
    pipeline_s = time.perf_counter() - pipeline_start

    st = tr.self_times()
    metrics = {stage: st.get(stage, 0.0) for stage in STAGES}
    stage_total = sum(metrics.values())
    certify_s = {f"harness.certify.{n}_s": 0.0 for n in CERTIFY_NAMES}
    certify_s.update({k: v for k, v in st.items() if k in certify_s})
    harness_s = st.get("harness.run_s", 0.0) + sum(certify_s.values())
    chunks = sum(len(j.horizons) * math.ceil(replications / HARNESS_CHUNK)
                 for j in workload.jobs if j.command != "certify")
    chunks += sum(math.ceil(reps / size) for label, (reps, size)
                  in CERTIFY_MC.items()
                  if any(j.label == label for j in workload.jobs))
    out_bytes = sum(p.stat().st_size for p in (work / "out").rglob("*")
                    if p.is_file())
    c = counters
    metrics.update(certify_s)
    metrics.update(_bundle_times(tr))
    metrics.update({
        "models.oracle_s": st.get("models.oracle_s", 0.0),
        "models.cycles_drawn": c.cycles_drawn,
        "models.cycles_used": c.cycles_used,
        "models.cycle_use_ratio": c.cycles_used / max(c.cycles_drawn, 1),
        "paths.events": c.events,
        "coupling.poisson_jumps": c.poisson_jumps,
        "coupling.jump_use_ratio": c.jumps_needed / max(c.poisson_jumps, 1),
        "coupling.grid_points": c.grid_points,
        "coupling.bundles": c.bundles,
        "coupling.sup_grid_gap_reps": c.gap_reps,
        "coupling.sup_grid_gap_max": c.gap_max,
        "harness.run_s": harness_s,
        "harness.self_s": harness_s - stage_total,
        "harness.chunks": chunks,
        "harness.certify.draws": sum(certify_draws(j.label)
                                     for j in workload.jobs),
        "reporting.write_s": write_s,
        "reporting.bytes": out_bytes,
        "trace.overhead_s": pipeline_s - stage_total
        - st.get("check", 0.0) - st.get("probe", 0.0),
    })
    with open(work.parent / f"spans-{name}.jsonl", "w") as handle:
        for span in tr.spans:
            handle.write(json.dumps(span) + "\n")
    print(json.dumps({"metrics": metrics, "problems": problems,
                      "digests": digests(workload, work / "out")}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
