"""Acceptance gate: the full-scale empirical claims, at their stated sizes.

Each test here runs one headline check at the parameters it is quoted at —
no reduced sizes, no loosened tolerances.  The unit suite covers the pieces;
this module certifies the assembled claims.
"""
import math

import numpy as np
import pytest

from regenlab.config import build_config
from regenlab.coupling import build_bundle, phi_decomposition
from regenlab.greeks import (DegenerateTauError, check_greek_identities,
                             estimate_greeks)
from regenlab.harness import (certify_bound, fit_constant_a,
                              maxima_scaling_experiment, run_embedding_check,
                              run_phi_diagnostics, run_rate_experiment,
                              run_tail_experiment)
from regenlab.models import (CompoundJumpModel, CycleBatch,
                             GammaGaussianModel, IidSumModel,
                             MM1BusyCycleModel, ParetoCycleModel,
                             reference_greeks)
from regenlab.rng import RngStream
import regenlab.cli as cli

SEED = 2026

GG2 = {"tau_shape": 2.0, "tau_scale": 1.0, "beta": "0.3,-0.2",
       "kappa": "0.1,0.2", "noise_cov": "1.0,0.3;0.3,0.8", "dim": 2}

DECOMPOSITION_MATRIX = [
    ("gamma-gaussian", {}, "shared-innovations"),
    ("gamma-gaussian", {}, "independent"),
    ("gamma-gaussian", GG2, "shared-innovations"),
    ("gamma-gaussian", GG2, "independent"),
    ("pareto-cycle", {"tail_index": 3.5}, "shared-innovations"),
    ("pareto-cycle", {"tail_index": 3.5}, "independent"),
    ("mm1-busy-cycle", {}, "independent"),
    ("compound-jump", {}, "independent"),
]


@pytest.mark.parametrize("family,params,mode", DECOMPOSITION_MATRIX,
                         ids=[f"{f}-{m}" for f, _, m in DECOMPOSITION_MATRIX])
def test_criterion_01_decomposition_residual(family, params, mode):
    """Eight-term identity closes to 1e-8 relative on every family x mode."""
    cfg = build_config("phis", family=family, model_params=params,
                       mode=mode, t_grid=(256.0,), replications=50,
                       root_seed=SEED)
    model = cfg.build_model()
    greeks = reference_greeks(model, cfg.p)
    worst = 0.0
    for case, t in enumerate((256.0, 1000.0)):
        for rep in range(3):
            rng = RngStream(SEED, 6 * case + 2 * rep)
            path, bundle = build_bundle(model, greeks, t, mode, rng)
            decomp = phi_decomposition(path, bundle, t)
            ceiling = 1e-8 * (1.0 + float(np.max(np.abs(decomp.s_values))))
            assert decomp.residual <= ceiling
            assert decomp.residual <= decomp.tolerance
            worst = max(worst, decomp.residual / ceiling)
    print(f"[criterion 1] PASS {family}/{mode}: worst residual at "
          f"{worst:.2e} of the ceiling")


def _random_models(count: int):
    gen = np.random.default_rng(20260822)
    models = []
    for i in range(count):
        kind = i % 5
        dim = int(gen.integers(1, 4))
        if kind <= 2:
            a = gen.standard_normal((dim, dim))
            models.append(GammaGaussianModel(
                tau_shape=float(gen.uniform(0.5, 5.0)),
                tau_scale=float(gen.uniform(0.2, 3.0)),
                beta=gen.uniform(-1.0, 1.0, dim),
                kappa=gen.uniform(-1.0, 1.0, dim),
                noise_cov=a @ a.T + 0.1 * np.eye(dim), dim=dim))
        elif kind == 3:
            models.append(ParetoCycleModel(
                tail_index=float(gen.uniform(3.2, 6.0))))
        else:
            a = gen.standard_normal((dim, dim))
            models.append(CompoundJumpModel(
                cycle_rate=float(gen.uniform(0.5, 2.0)),
                jump_rate=float(gen.uniform(0.5, 3.0)),
                jump_mean=gen.uniform(-1.0, 1.0, dim),
                jump_cov=a @ a.T + 0.05 * np.eye(dim), dim=dim))
    return models


def test_criterion_02_greek_identities():
    """All structural identities hold to 1e-8: 100 random closed forms and
    estimates from 1e5 simulated cycles."""
    worst = 0.0
    for model in _random_models(100):
        res = check_greek_identities(model.true_greeks())
        worst = max(worst, max(res.values()))
        assert max(res.values()) <= 1e-8, (model.family, res)
    estimated_models = [
        GammaGaussianModel(tau_shape=2.0, tau_scale=1.0, beta=[0.3, -0.2],
                           kappa=[0.1, 0.2],
                           noise_cov=[[1.0, 0.3], [0.3, 0.8]], dim=2),
        ParetoCycleModel(tail_index=4.5),
        CompoundJumpModel(jump_mean=[0.4, -0.1], dim=2),
    ]
    for k, model in enumerate(estimated_models):
        batch = model.sample_cycles(100_000, RngStream(SEED, 50 + k))
        res = check_greek_identities(estimate_greeks(batch))
        worst = max(worst, max(res.values()))
        assert max(res.values()) <= 1e-8, (model.family, res)
    print(f"[criterion 2] PASS: worst identity residual {worst:.2e}")


def _flatten_greeks(g) -> np.ndarray:
    return np.concatenate([
        np.atleast_1d(g.mu), np.atleast_1d(g.var_tau),
        np.atleast_1d(g.gamma), np.atleast_1d(g.lam),
        np.atleast_1d(g.kappa), np.atleast_1d(g.beta),
        np.atleast_1d(g.alpha), np.ravel(g.v2), np.ravel(g.sigma2),
    ]).astype(float)


@pytest.mark.parametrize("model", [
    GammaGaussianModel(tau_shape=2.0, tau_scale=1.0, beta=[0.3, -0.2],
                       kappa=[0.1, 0.2], noise_cov=[[1.0, 0.3], [0.3, 0.8]],
                       dim=2),
    ParetoCycleModel(tail_index=4.5),
    CompoundJumpModel(cycle_rate=1.0, jump_rate=2.0, jump_mean=[0.4, -0.1],
                      jump_cov=[[0.5, 0.1], [0.1, 0.3]], dim=2),
    MM1BusyCycleModel(arrival_rate=0.5, service_rate=1.0),
], ids=["gamma-gaussian", "pareto-cycle", "compound-jump", "mm1-busy-cycle"])
def test_criterion_03_estimated_vs_closed_form(model):
    """Estimates from 1e5 cycles agree with the closed forms to 4 SE,
    component by component (batch-means standard errors)."""
    n, batches = 100_000, 50
    batch = model.sample_cycles(n, RngStream(SEED, 80))
    true = _flatten_greeks(model.true_greeks())
    full = _flatten_greeks(estimate_greeks(batch))
    size = n // batches
    per_batch = np.vstack([
        _flatten_greeks(estimate_greeks(CycleBatch(
            batch.tau[b * size:(b + 1) * size],
            batch.xi[b * size:(b + 1) * size],
            batch.eta[b * size:(b + 1) * size])))
        for b in range(batches)])
    se = per_batch.std(axis=0, ddof=1) / math.sqrt(batches)
    gap = np.abs(full - true)
    ceiling = 4.0 * se + 1e-9 * (1.0 + np.abs(true))
    assert np.all(gap <= ceiling), \
        (model.family, np.max(gap / np.maximum(ceiling, 1e-300)))
    print(f"[criterion 3] PASS {model.family}: max |est-true| at "
          f"{np.max(gap / np.maximum(ceiling, 1e-300)):.2f} of 4 SE")


def test_criterion_03_families_without_closed_forms():
    with pytest.raises(DegenerateTauError):
        IidSumModel().true_greeks()


def test_criterion_04_rate_slopes(workers):
    """Coupled deviations grow no faster than t^{1/3+0.1}; uncoupled ones
    keep the sqrt(t) slope.  200 replications, horizons 2^10..2^16."""
    coupled = run_rate_experiment(
        build_config("rate", mode="shared-innovations", root_seed=SEED),
        workers=workers)
    assert coupled.per_t[0].t == 1024.0 and coupled.per_t[-1].t == 65536.0
    assert all(s.n == 200 for s in coupled.per_t)
    assert coupled.slope <= 1.0 / 3.0 + 0.1
    assert coupled.passed
    null = run_rate_experiment(
        build_config("rate", mode="independent", root_seed=SEED),
        workers=workers)
    assert null.slope >= 0.4
    print(f"[criterion 4] PASS: coupled slope {coupled.slope:.4f} <= "
          f"{coupled.threshold:.4f}; independent slope {null.slope:.4f} "
          ">= 0.4")


def test_criterion_05_tail_constant(workers):
    """The fitted tail constant is finite and horizon-stable: the per-horizon
    certified constants differ by less than one order of magnitude."""
    cfg = build_config("tail", root_seed=SEED)
    assert cfg.t_grid == (1024.0, 8192.0) and cfg.replications == 10_000
    estimates = run_tail_experiment(cfg, workers=workers)
    a_hat = fit_constant_a(estimates)
    assert np.isfinite(a_hat) and a_hat > 0
    per_t = {}
    for e in estimates:
        per_t[e.t] = max(per_t.get(e.t, 0.0), e.normalized_high)
    assert set(per_t) == {1024.0, 8192.0}
    spread = max(per_t.values()) / min(per_t.values())
    assert spread < 10.0
    print(f"[criterion 5] PASS: a_hat={a_hat:.3f}, per-horizon constants "
          f"{sorted(per_t.values())}, spread {spread:.2f}x")


def test_criterion_06_poisson_inverse_certificate():
    record = certify_bound("poisson-inverse")
    assert record.passed and len(record.rows) == 3
    for row in record.rows:
        assert row.se == 0.0 and row.lhs <= row.bound
    print("[criterion 6] PASS: exact Gamma-CDF under the bound at "
          + ", ".join(r.label for r in record.rows))


def test_criterion_07_renewal_count_certificate():
    record = certify_bound("renewal-count")
    assert record.passed
    poisson, gamma = record.rows
    assert poisson.label == "exact-poisson-tail"
    assert gamma.label == "exact-gamma-cdf"
    for row in record.rows:
        assert row.se == 0.0 and row.lhs <= row.bound
    assert poisson.lhs == pytest.approx(gamma.lhs, rel=1e-13)
    assert poisson.bound == pytest.approx(4.4125517470983166e-4)
    print(f"[criterion 7] PASS: exact Poisson tail {poisson.lhs:.6e} = "
          f"Gamma CDF {gamma.lhs:.6e} vs bound {poisson.bound:.3e}")


def test_criterion_08_block_maximal_certificate():
    record = certify_bound("block-maximal")
    assert record.passed
    row = record.rows[0]
    assert row.label == "runs n=16 x=4" and row.se == 0.0
    assert row.lhs <= row.bound
    assert row.lhs == 0.39501953125
    print(f"[criterion 8] PASS: exact run probability {row.lhs:.4f} <= "
          f"bound {row.bound:.4f}")


def test_criterion_09_random_sum_certificate():
    record = certify_bound("random-sum")
    assert record.passed
    exact, pivot = record.rows
    assert exact.label == "exact t=10 x=4.34294"
    assert exact.se == 0.0 and exact.lhs <= exact.bound
    assert pivot.label == "pivot-M0" and pivot.lhs == 3.0
    print(f"[criterion 9] PASS: exact tail {exact.lhs:.6f} vs bound "
          f"{exact.bound:.4f}; pivot M0 = 3")


def test_criterion_10_wiener_oscillation_certificates():
    grid = certify_bound("grid-increment")
    assert grid.passed and len(grid.rows) == 25
    envelope = certify_bound("brownian-sup")
    assert envelope.passed and len(envelope.rows) >= 20
    assert all(r.label.startswith("exact t=") for r in envelope.rows)
    moments = certify_bound("nagaev")
    assert moments.passed
    for record in (grid, envelope, moments):
        for row in record.rows:
            assert row.se == 0.0 and row.lhs <= row.bound
    print(f"[criterion 10] PASS: grid-increment {len(grid.rows)} exact rows, "
          f"brownian-sup {len(envelope.rows)} exact rows, nagaev exact rows")


def test_criterion_11_maxima_scaling(workers):
    """Median of (max cycle maximum)/n^{1/3} decays along n = 2^10..2^16 for
    the tail-index-3.5 family."""
    cfg = build_config("maxima", family="pareto-cycle",
                       model_params={"tail_index": 3.5}, root_seed=SEED)
    assert cfg.replications == 600 and len(cfg.t_grid) == 7
    trend = maxima_scaling_experiment(cfg, workers=workers)
    assert trend.passed
    medians = [r.median for r in trend.rows]
    assert trend.rows[-1].ci_high < trend.rows[0].ci_low
    print(f"[criterion 11] PASS: normalized medians "
          f"{[round(m, 4) for m in medians]}")


def test_criterion_12_embedding_marginals(workers):
    result = run_embedding_check(root_seed=SEED, workers=workers)
    assert result["gof_pvalue"] > 0.001
    assert result["gof_ok"] and result["cov_ok"]
    assert result["max_se_multiples"] <= 4.0
    print(f"[criterion 12] PASS: GOF p={result['gof_pvalue']:.3f}, "
          f"covariance gap {result['max_se_multiples']:.2f} SE")


def test_criterion_13_worker_invariance(tmp_path):
    """results.csv and report.txt are byte-identical for any --workers."""
    specs = {
        "rate": ("experiment.t_grid = 64.0, 128.0, 256.0, 512.0\n"
                 "experiment.replications = 50\n"
                 "coupling.mode = quantile-1d\n"
                 "rng.root_seed = 99\n"),
        "tail": ("experiment.t_grid = 64.0, 256.0\n"
                 "experiment.replications = 60\n"
                 "coupling.mode = shared-innovations\n"
                 "rng.root_seed = 99\n"),
    }
    for sub, text in specs.items():
        cfg = tmp_path / f"{sub}.cfg"
        cfg.write_text(text)
        outs = []
        for w in (1, 3):
            out = tmp_path / f"{sub}-w{w}"
            assert cli.main([sub, "--config", str(cfg), "--out", str(out),
                             "--workers", str(w)]) == 0
            outs.append(out)
        assert ((outs[0] / "results.csv").read_bytes()
                == (outs[1] / "results.csv").read_bytes())
        assert ((outs[0] / "report.txt").read_bytes()
                == (outs[1] / "report.txt").read_bytes())
    print("[criterion 13] PASS: byte-identical outputs for workers 1 and 3")


def test_phi_diagnostics_at_reference_horizon(workers):
    """The per-term audit at the reference horizon: identity residual within
    ceiling, side events within their bounds, structure rows hold."""
    cfg = build_config("phis", root_seed=SEED)
    diag = run_phi_diagnostics(cfg, workers=workers)
    assert diag.max_residual <= 1e-6
    assert diag.triangle_max_violation <= 1e-9
    assert diag.passage_exceed_freq <= diag.passage_exceed_bound + 3.0 * \
        math.sqrt(max(diag.passage_exceed_freq, 1.0 / cfg.replications)
                  * (1 - diag.passage_exceed_freq) / cfg.replications)
    for x, lhs, rhs in diag.structure_rows:
        se = math.sqrt(max(lhs, 1.0 / cfg.replications) * (1 - lhs)
                       / cfg.replications)
        assert lhs <= rhs + 3.0 * se, (x, lhs, rhs)
    print(f"[diagnostics] PASS: residual {diag.max_residual:.2e}, "
          f"dominant term phi{int(np.argmax(diag.term_sup_medians)) + 1}")
