"""Experiment drivers: stream layout, summaries, worker invariance."""
import dataclasses
import math
from fractions import Fraction

from concurrent.futures import Future

import numpy as np
import pytest

from regenlab import harness
from regenlab.config import build_config
from regenlab.coupling import (_draw_drivers, _durations_past, build_bundle,
                               horizon_cycles_for, sup_deviation)
from scipy.special import gammainc

from regenlab.harness import (TailEstimate, _map_chunks, _poisson_sf,
                              _random_sum_tail, _replicate, _run_tail,
                              _symmetric_binomial_sf,
                              _wiener_oscillation_tail, certify_bound,
                              fit_constant_a, maxima_scaling_experiment,
                              replication_stream, run_embedding_check,
                              run_phi_diagnostics, run_rate_experiment,
                              run_tail_experiment)
from regenlab.models import GammaGaussianModel, reference_greeks
from regenlab.paths import HorizonExceededError


def _estimate(normalized_high: float) -> TailEstimate:
    return TailEstimate(t=1024.0, x=64.0, p=3.0, region="pair", n=1000,
                        hits=2, p_hat=0.002, ci_low=0.001, ci_high=0.003,
                        normalized=0.002 * 64.0 ** 3 / 1024.0,
                        normalized_high=normalized_high)


class TestStreamLayout:
    def test_distinct_addresses_within_kind(self):
        seen = set()
        for t_index in range(3):
            for rep in range(40):
                s = replication_stream(11, "rate", t_index, 40, rep)
                seen.add(s.stream_index)
        assert len(seen) == 120

    def test_kinds_never_collide(self):
        indices = {}
        for kind in ("rate", "tail", "phis", "maxima", "embedding"):
            for rep in range(200):
                idx = replication_stream(0, kind, 4, 500, rep).stream_index
                assert idx not in indices, (kind, indices.get(idx))
                indices[idx] = kind

    def test_component_children_do_not_leak_into_next_rep(self):
        a = replication_stream(0, "tail", 0, 100, 0)
        b = replication_stream(0, "tail", 0, 100, 1)
        # each replication owns 4 consecutive child slots
        assert b.stream_index - a.stream_index >= 4

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            replication_stream(0, "sideways", 0, 10, 0)


def _short_at_rep_7(model, greeks, cfg, t, streams):
    """A replication function whose replication 7 of horizon 1 falls short."""
    failing = replication_stream(cfg.root_seed, "tail", 1, cfg.replications, 7)
    for stream in streams:
        if stream.stream_index == failing.stream_index:
            raise HorizonExceededError("cycles reach only 3.5")
        yield float(t)


class TestFailingReplication:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_exception_names_its_stream_address(self, workers):
        cfg = build_config("tail", t_grid=(64.0, 128.0), replications=120,
                           root_seed=5)
        with pytest.raises(HorizonExceededError) as err:
            _replicate(_short_at_rep_7, cfg, None, cfg.t_grid, "tail",
                       workers)
        assert str(err.value) == ("replication root_seed=5 kind=tail "
                                  "t_index=1 rep=7: cycles reach only 3.5")


def test_a_tail_chunk_quantiles_its_durations_in_few_calls(monkeypatch):
    # one group of 50 replications at t=1024: a call per round, not one or
    # more per replication, and every driver quantiled once, as before
    cfg = build_config("tail", mode="shared-innovations", t_grid=(1024.0,),
                       replications=50, root_seed=101)
    model = cfg.build_model()
    greeks = reference_greeks(model, cfg.p)
    k = horizon_cycles_for(1024.0, greeks.mu)
    expected = 0
    for rep in range(50):
        stream = replication_stream(101, "tail", 0, 50, rep)
        driver = _draw_drivers(model, k, cfg.mode, stream)
        expected += _durations_past(model, [driver.unit_increments_btilde],
                                    greeks, 1024.0)[0].size
    sizes = []
    real = GammaGaussianModel.tau_from_gaussian

    def counted(self, g):
        sizes.append(np.size(g))
        return real(self, g)

    monkeypatch.setattr(GammaGaussianModel, "tau_from_gaussian", counted)
    devs = harness._replicate_chunk(
        (harness._deviations, cfg, greeks, "tail", 0, 1024.0, 0, 50))
    assert len(devs) == 50
    assert 2 <= len(sizes) <= 3
    assert sum(sizes) == expected


def _short_at_two_reps(model, greeks, cfg, t, streams):
    """Replication 60 of horizon 0 and replication 7 of horizon 1 fall
    short; horizon 1's chunks cost more, so they run first."""
    for stream in streams:
        for t_index, rep in ((0, 60), (1, 7)):
            if stream.stream_index == replication_stream(
                    cfg.root_seed, "tail", t_index, cfg.replications,
                    rep).stream_index:
                raise HorizonExceededError(f"cycles reach only {t_index}.5")
        yield float(t), stream.stream_index


def _address(model, greeks, cfg, t, streams):
    for stream in streams:
        yield float(t), stream.stream_index


class _InlinePool:
    """A stand-in for ProcessPoolExecutor: runs each chunk as it is
    submitted, and records its size and the submission order."""

    def __init__(self, pools, max_workers):
        self.max_workers, self.submitted = max_workers, []
        pools.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, arg):
        self.submitted.append(arg)
        future = Future()
        try:
            future.set_result(fn(arg))
        except Exception as exc:
            future.set_exception(exc)
        return future


@pytest.fixture
def pools(monkeypatch):
    made = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        lambda max_workers: _InlinePool(made, max_workers))
    return made


class TestChunkOrder:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failure_in_canonical_order_raises(self, workers):
        cfg = build_config("tail", t_grid=(64.0, 128.0), replications=120,
                           root_seed=5)
        with pytest.raises(HorizonExceededError) as err:
            _replicate(_short_at_two_reps, cfg, None, cfg.t_grid, "tail",
                       workers)
        assert str(err.value) == ("replication root_seed=5 kind=tail "
                                  "t_index=0 rep=60: cycles reach only 0.5")

    def test_pool_results_equal_the_sequential_ones(self):
        cfg = build_config("tail", t_grid=(32.0, 64.0, 128.0),
                           replications=120, root_seed=5)
        runs = [_replicate(_address, cfg, None, cfg.t_grid, "tail", workers)
                for workers in (1, 2)]
        assert runs[0] == runs[1]
        assert [len(per_t) for per_t in runs[0]] == [120, 120, 120]

    def test_costliest_chunks_are_submitted_first(self, pools):
        # chunks of 50, 50 and 20 replications; cost = t * replications
        cfg = build_config("tail", t_grid=(64.0, 128.0), replications=120,
                           root_seed=5)
        per_t = _replicate(_address, cfg, None, cfg.t_grid, "tail", 2)
        (pool,) = pools
        assert [(a[4], a[6]) for a in pool.submitted] == [
            (1, 0), (1, 50), (0, 0), (0, 50), (1, 100), (0, 100)]
        assert per_t == _replicate(_address, cfg, None, cfg.t_grid, "tail", 1)

    def test_ties_keep_canonical_order(self, pools):
        costs = [1.0, 5.0, 5.0, 2.0, 9.0, 1.0]
        assert _map_chunks(str, list(range(6)), 2, costs) == list("012345")
        assert pools[0].submitted == [4, 1, 2, 3, 0, 5]

    @pytest.mark.parametrize("workers, chunks, size", [
        (64, 3, 3), (2, 6, 2), (8, 1, None), (1, 6, None), (0, 6, None),
        (-3, 6, None)])
    def test_pool_opens_at_most_one_process_per_chunk(self, pools, workers,
                                                      chunks, size):
        args = list(range(chunks))
        assert _map_chunks(str, args, workers, [1.0] * chunks) \
            == [str(a) for a in args]
        assert [pool.max_workers for pool in pools] \
            == ([] if size is None else [size])


class TestTailFit:
    def test_constant_is_max_upper_normalized(self):
        ests = [_estimate(0.5), _estimate(0.003 * 64.0 ** 3 / 1024.0),
                _estimate(0.1)]
        assert fit_constant_a(ests) == pytest.approx(0.768)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_constant_a([])

    def test_interval_ordering_enforced(self):
        with pytest.raises(ValueError, match="ordering"):
            TailEstimate(t=8.0, x=2.0, p=3.0, region="pair", n=10, hits=1,
                         p_hat=0.1, ci_low=0.2, ci_high=0.3,
                         normalized=0.1, normalized_high=0.3)


@pytest.fixture(scope="module")
def rate_cfg():
    return build_config("rate", mode="shared-innovations",
                        t_grid=(64.0, 128.0, 256.0, 512.0),
                        replications=50, root_seed=3)


class TestRateExperiment:
    def test_structure_and_plausible_fit(self, rate_cfg, workers):
        fit = run_rate_experiment(rate_cfg, workers=workers)
        assert [s.t for s in fit.per_t] == [64.0, 128.0, 256.0, 512.0]
        assert all(s.n == 50 for s in fit.per_t)
        assert all(0 < s.ci_low <= s.median <= s.ci_high for s in fit.per_t)
        assert all(s.median <= s.q90 for s in fit.per_t)
        assert np.isfinite(fit.slope)
        # coupled deviations grow far slower than the sqrt(t) null
        assert fit.slope < 0.45
        assert fit.threshold == pytest.approx(1.0 / 3.0 + 0.1)
        assert fit.passed == (fit.slope <= fit.threshold)
        assert fit.slope_ci[0] <= fit.slope <= fit.slope_ci[1]
        assert len(fit.deviations) == 4
        assert all(len(d) == 50 for d in fit.deviations)

    def test_workers_do_not_change_the_result(self, rate_cfg):
        one = run_rate_experiment(rate_cfg, workers=1)
        two = run_rate_experiment(rate_cfg, workers=2)
        assert one == two


@pytest.fixture(scope="module")
def addressed_cfg():
    # 120 replications: chunks of 50, 50 and 20 per horizon
    return build_config("rate", mode="shared-innovations",
                        t_grid=(16.0, 32.0, 64.0, 128.0),
                        replications=120, root_seed=17)


@pytest.fixture(scope="module")
def addressed_deviations(addressed_cfg):
    """Each replication computed on its own, straight from its address."""
    cfg = addressed_cfg
    model = cfg.build_model()
    greeks = reference_greeks(model, cfg.p)
    out = []
    for i, t in enumerate(cfg.t_grid):
        row = []
        for rep in range(cfg.replications):
            rng = replication_stream(cfg.root_seed, "rate", i,
                                     cfg.replications, rep)
            path, bundle = build_bundle(model, greeks, t, cfg.mode, rng)
            row.append(sup_deviation(path, bundle.w, greeks, t))
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_deviations_sit_at_their_stream_addresses(
        addressed_cfg, addressed_deviations, n_workers):
    fit = run_rate_experiment(addressed_cfg, workers=n_workers)
    assert fit.deviations == addressed_deviations


class TestTailExperiment:
    def test_rows_and_normalization(self, workers):
        cfg = build_config("tail", mode="shared-innovations",
                           t_grid=(64.0, 256.0), replications=60,
                           root_seed=5)
        ests = run_tail_experiment(cfg, workers=workers)
        by_t = {}
        for e in ests:
            by_t.setdefault(e.t, []).append(e)
        assert set(by_t) == {64.0, 256.0}
        for t, rows in by_t.items():
            assert [e.x for e in rows] == sorted(e.x for e in rows)
            for e in rows:
                assert e.n == 60
                assert e.normalized == pytest.approx(
                    e.p_hat * e.x ** cfg.p / t)
                assert e.normalized_high == pytest.approx(
                    e.ci_high * e.x ** cfg.p / t)
        assert np.isfinite(fit_constant_a(ests))

    def test_workers_do_not_change_the_result(self):
        cfg = build_config("tail", mode="independent",
                           t_grid=(64.0,), replications=50, root_seed=6)
        assert (run_tail_experiment(cfg, workers=1)
                == run_tail_experiment(cfg, workers=2))


class TestPhiDiagnostics:
    def test_tables_and_side_events(self, workers):
        cfg = build_config("phis", mode="shared-innovations",
                           t_grid=(128.0,), replications=60, root_seed=2)
        diag = run_phi_diagnostics(cfg, workers=workers)
        assert diag.t == 128.0
        assert len(diag.per_term) == 8
        assert len(diag.term_sup_medians) == 8
        assert all(m >= 0 for m in diag.term_sup_medians)
        assert diag.max_residual < 1e-8 * 100
        assert diag.triangle_max_violation <= 1e-9
        assert 0.0 <= diag.passage_exceed_freq <= 1.0
        assert diag.passage_exceed_freq <= diag.passage_exceed_bound + 0.05
        # structural rows: empirical term-1 tail against its moment bound
        for x, lhs, rhs in diag.structure_rows:
            assert x > 0 and 0.0 <= lhs <= 1.0 and rhs > 0


class TestMaximaExperiment:
    def test_rows_and_scaling_fields(self, workers):
        cfg = build_config("maxima", family="pareto-cycle",
                           model_params={"tail_index": 3.5},
                           t_grid=(1024.0, 4096.0, 16384.0),
                           replications=60, root_seed=4)
        trend = maxima_scaling_experiment(cfg, workers=workers)
        assert trend.n_values == (1024, 4096, 16384)
        assert len(trend.rows) == 3
        for row in trend.rows:
            assert 0 < row.ci_low <= row.median <= row.ci_high
        assert isinstance(trend.passed, bool)

    def test_workers_do_not_change_the_result(self):
        cfg = build_config("maxima", family="pareto-cycle",
                           model_params={"tail_index": 3.5},
                           t_grid=(512.0, 2048.0), replications=50,
                           root_seed=4)
        assert (maxima_scaling_experiment(cfg, workers=1)
                == maxima_scaling_experiment(cfg, workers=2))


class TestCertification:
    def test_unknown_name(self):
        with pytest.raises(KeyError, match="registry"):
            certify_bound("no-such-inequality")

    def test_poisson_inverse_is_exact(self):
        record = certify_bound("poisson-inverse")
        assert record.passed
        assert len(record.rows) == 3
        for row in record.rows:
            assert row.se == 0.0
            assert row.lhs <= row.bound

    def test_nagaev_tail_is_the_exact_rational(self):
        for n in range(1, 61):
            for k in range(-2, n + 2):
                upper = sum(Fraction(math.comb(n, j), 2 ** n)
                            for j in range(max(k + 1, 0), n + 1))
                assert _symmetric_binomial_sf(k, n) == float(upper), (n, k)
        # the shipped default, n=100 and x=50, reads the committed fixture
        record = certify_bound("nagaev")
        assert record.rows[0].lhs == 5.636282034205402e-07

    def test_rows_are_recomputable(self):
        record = certify_bound("poisson-inverse")
        for row in record.rows:
            again = dataclasses.replace(row)
            assert again == row


class TestGridIncrementOracle:
    """The exact law of sup_{s<=1} |W(s)| behind the grid-increment rows."""

    def test_reflection_series_matches_the_theta_form(self):
        for x in np.linspace(0.3, 4.0, 75):
            theta = 1.0 - 4.0 / math.pi * math.fsum(
                (-1) ** k / (2 * k + 1)
                * math.exp(-(2 * k + 1) ** 2 * math.pi ** 2 / (8 * x * x))
                for k in range(60))
            assert abs(_wiener_oscillation_tail(float(x)) - theta) <= 1e-12, x

    def test_grid_simulation_does_not_read_above_it(self):
        # the max over a 1/1000 grid is pathwise <= the continuous sup
        gen = np.random.default_rng(20_201)
        steps, chunks, size = 1000, 8, 500
        maxima = np.concatenate([
            np.abs(gen.standard_normal((size, steps)).cumsum(axis=1))
            .max(axis=1) / math.sqrt(steps) for _ in range(chunks)])
        for x in (1.0, 1.5, 2.0):
            q = _wiener_oscillation_tail(x)
            se = math.sqrt(q * (1.0 - q) / maxima.size)
            assert np.mean(maxima >= x) <= q + 4.0 * se, x

    def test_rises_in_t_and_falls_in_x(self):
        t_values = (1.0, 2.0, 2.5, 3.0, 5.0, 10.0)
        x_values = (2.6, 2.9, 3.2, 3.6, 4.0)
        record = certify_bound("grid-increment", {"t_values": t_values,
                                                  "x_values": x_values})
        lhs = np.array([row.lhs for row in record.rows]).reshape(
            len(t_values), len(x_values))
        # strict along t, so the partial unit puts t=2.5 between 2 and 3
        assert np.all(np.diff(lhs, axis=0) > 0)
        assert np.all(np.diff(lhs, axis=1) < 0)

    def test_rows_are_exact_and_below_the_bound(self):
        record = certify_bound("grid-increment")
        assert record.passed and len(record.rows) == 25
        for row in record.rows:
            assert row.label.startswith("exact t=")
            assert row.se == 0.0 and row.lhs <= row.bound


def _enumerated_run_tail(n: int, x: float) -> float:
    """The block-maximal event by enumerating every +-1 path of n steps."""
    codes = np.arange(2 ** n, dtype=np.uint32)
    steps = ((codes[:, None] >> np.arange(n, dtype=np.uint32)) & 1) \
        .astype(np.int8) * 2 - 1
    q = np.zeros((codes.size, n + 1), dtype=np.int32)
    np.cumsum(steps, axis=1, out=q[:, 1:])
    exceeded = np.zeros(codes.size, dtype=bool)
    for k in range(1, math.floor(x) + 1):
        exceeded |= (q[:, k:] - q[:, :-k]).max(axis=1) >= x
    return float(exceeded.mean())


class TestExactOracles:
    """The Poisson-tail, run-count and Nystrom oracles behind the
    renewal-count, block-maximal and random-sum rows."""

    @pytest.mark.parametrize("t", [2.5, 5.0, 20.0, 50.0, 200.0])
    def test_renewal_routes_agree(self, t):
        count = math.floor(2.0 * t) + 1
        assert _poisson_sf(count, t) == pytest.approx(
            float(gammainc(count, t)), rel=1e-13)

    def test_run_recursion_equals_enumeration(self):
        for n in range(1, 17):
            for x in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0, 8.0, 16.0):
                if math.floor(x) <= n:
                    assert _run_tail(n, x) == _enumerated_run_tail(n, x), \
                        (n, x)

    def test_run_longer_than_the_walk_is_impossible(self):
        assert _run_tail(16, 17.0) == 0.0
        assert _run_tail(3, 8.0) == 0.0
        assert _run_tail(40, 40.0) == 2.0 ** -40

    @pytest.mark.parametrize("t, x", [(10.0, 4.343), (10.0, 8.0),
                                      (50.0, 30.0)])
    def test_nystrom_is_stable_under_doubling_the_nodes(self, monkeypatch,
                                                        t, x):
        once = _random_sum_tail(t, x)
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda m: leggauss(2 * m))
        assert _random_sum_tail(t, x) == pytest.approx(once, rel=1e-12)

    @pytest.mark.parametrize("x", [10.0 / math.log(10.0), 8.0])
    def test_nystrom_matches_simulation(self, x):
        t, chunks, size = 10.0, 10, 20_000
        gen = np.random.default_rng(90_210)
        hits = 0
        for _ in range(chunks):
            steps = gen.poisson(t, size) + 1
            walks = gen.standard_normal((size, steps.max())).cumsum(axis=1)
            inside = np.arange(1, steps.max() + 1) <= steps[:, None]
            hits += int(np.count_nonzero(
                np.where(inside, np.abs(walks), 0.0).max(axis=1) > x))
        p_hat, p = hits / (chunks * size), _random_sum_tail(t, x)
        assert abs(p_hat - p) <= 4.0 * math.sqrt(p * (1 - p) / (chunks * size))


class TestEmbeddingCheck:
    def test_marginals_hold_at_reduced_size(self, workers):
        result = run_embedding_check(root_seed=0, n_units=20_000,
                                     bundles=100, t=200.0, workers=workers)
        assert result["gof_pvalue"] > 0.001
        assert result["count_mean"] == pytest.approx(result["rate"], rel=0.05)
        assert result["covariance"].shape == (2, 2)
        assert result["cov_ok"]
        assert result["gof_ok"]

    def test_root_seed_reaches_the_covariance_bundles(self):
        runs = [run_embedding_check(root_seed=seed, n_units=1_000,
                                    bundles=50, t=50.0)
                for seed in (0, 1)]
        assert runs[0]["gof_pvalue"] != runs[1]["gof_pvalue"]
        assert not np.array_equal(runs[0]["covariance"],
                                  runs[1]["covariance"])
