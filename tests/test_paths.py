"""Flat path construction, path evaluation, counting inversion, CSV round
trips."""
import numpy as np
import pytest

from regenlab import cli
from regenlab.cli import main
from regenlab.config import parse_config
from regenlab.paths import (PIECEWISE_CONSTANT, PIECEWISE_LINEAR,
                            CountingPath, HorizonExceededError,
                            RegenerativePath, invert_counting)
from regenlab.models import (CompoundJumpModel, MM1BusyCycleModel,
                             single_event_path)
from regenlab.reporting import csv_text
from regenlab.rng import RngStream


def _one_cycle(tau, xi, offsets, values) -> RegenerativePath:
    return RegenerativePath.from_cycle_events(
        np.array([tau]), np.array([xi]), np.array(offsets), np.array(values),
        np.array([0, len(offsets)]), "piecewise-constant")


def _two_cycle_path() -> RegenerativePath:
    return RegenerativePath.from_cycle_events(
        tau=np.array([2.0, 1.0]), xi=np.array([[1.0], [-2.0]]),
        offsets=np.array([0.5, 2.0, 0.25, 1.0]),
        values=np.array([[3.0], [1.0], [-0.5], [-2.0]]),
        cycle_event_ptr=np.array([0, 2, 4]),
        interpolation="piecewise-constant")


class TestFromCycleEvents:
    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            _one_cycle(0.0, [1.0], [0.0], [[1.0]])

    def test_rejects_mismatched_terminal_value(self):
        with pytest.raises(ValueError):
            _one_cycle(1.0, [1.0], [1.0], [[0.5]])

    def test_rejects_last_offset_not_tau(self):
        with pytest.raises(ValueError):
            _one_cycle(1.0, [1.0], [0.5], [[1.0]])

    def test_rejects_non_increasing_offsets(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _one_cycle(1.0, [1.0], [0.5, 0.5, 1.0], [[2.0], [3.0], [1.0]])

    def test_rejects_cycle_without_events(self):
        with pytest.raises(ValueError, match="at least one event"):
            RegenerativePath.from_cycle_events(
                np.array([1.0, 1.0]), np.array([[1.0], [1.0]]),
                np.array([1.0]), np.array([[1.0]]), np.array([0, 1, 1]),
                "piecewise-constant")


class TestRegenerativePath:
    def test_renewal_structure(self):
        path = _two_cycle_path()
        np.testing.assert_array_equal(path.renewal_times, [0.0, 2.0, 3.0])
        np.testing.assert_array_equal(path.prefix_xi[:, 0], [0.0, 1.0, -1.0])

    def test_evaluate_exact_at_events(self):
        path = _two_cycle_path()
        values = path.evaluate(np.array([0.5, 2.0, 2.25, 3.0]))
        np.testing.assert_array_equal(values[:, 0], [3.0, 1.0, 0.5, -1.0])

    def test_left_limits_at_events(self):
        path = _two_cycle_path()
        times = np.array([0.5, 2.0, 2.25, 3.0, 1.0])
        left = path.evaluate(times, side="left")
        np.testing.assert_array_equal(left[:, 0], [0.0, 3.0, 1.0, 0.5, 3.0])
        brute = [sum(1 for rt in path.renewal_times[1:] if rt < t)
                 for t in times]
        np.testing.assert_array_equal(
            path.renewal_counts(times, side="left"), brute)

    def test_piecewise_constant_holds_between_events(self):
        path = _two_cycle_path()
        values = path.evaluate(np.array([0.0, 0.49, 0.51, 1.99]))
        np.testing.assert_array_equal(values[:, 0], [0.0, 0.0, 3.0, 3.0])

    def test_evaluate_beyond_horizon_raises(self):
        path = _two_cycle_path()
        with pytest.raises(HorizonExceededError):
            path.evaluate(np.array([3.1]))
        with pytest.raises(HorizonExceededError):
            path.evaluate(np.array([-0.1]))

    def test_renewal_counts_matches_brute_force(self):
        path = _two_cycle_path()
        times = np.array([0.0, 1.0, 2.0, 2.5, 3.0])
        counts = path.renewal_counts(times)
        brute = [sum(1 for rt in path.renewal_times[1:] if rt <= t)
                 for t in times]
        np.testing.assert_array_equal(counts, brute)

    def test_eta_is_per_cycle_sup(self):
        path = _two_cycle_path()
        np.testing.assert_array_equal(path.eta(), [3.0, 2.0])

    def test_cycle_events_round_trip(self):
        path = _two_cycle_path()
        counts = np.diff(path.cycle_event_ptr)
        offsets = path.event_times - np.repeat(path.renewal_times[:-1], counts)
        values = path.event_values - np.repeat(path.prefix_xi[:-1], counts,
                                               axis=0)
        np.testing.assert_array_equal(offsets, [0.5, 2.0, 0.25, 1.0])
        np.testing.assert_array_equal(values[:, 0], [3.0, 1.0, -0.5, -2.0])


def _padded_evaluate(path, u, side="right"):
    """The reference reader: the events behind a leading (0, 0) row, which
    puts the value before the first event, and its interpolation, in the
    same lookup as every other."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if path.interpolation == PIECEWISE_CONSTANT:
        idx = np.searchsorted(path.event_times, u, side=side)
        padded = np.concatenate([np.zeros((1, path.d)), path.event_values])
        return padded[idx]
    out = np.empty((u.size, path.d))
    xs = np.concatenate([[0.0], path.event_times])
    for j in range(path.d):
        ys = np.concatenate([[0.0], path.event_values[:, j]])
        out[:, j] = np.interp(u, xs, ys)
    return out


def _tied_path(seed, d, interpolation):
    # about a third of the cycles last 1e-20, too short to move the clock
    # past 1, so their renewal times tie; so does cycle ``seed``: the first
    # event at 1e-20 at seed 0, a tie with it at seed 1
    rng = np.random.default_rng(seed)
    tau = rng.gamma(2.0, 1.0, size=40)
    tau[rng.random(40) < 0.3] = 1e-20
    tau[seed] = 1e-20
    return single_event_path(tau, rng.standard_normal((40, d)),
                             interpolation)


REFERENCE_PATHS = {
    **{f"single-{interpolation}-d{d}-seed{seed}":
       (lambda s=seed, d=d, i=interpolation: _tied_path(s, d, i))
       for interpolation in (PIECEWISE_CONSTANT, PIECEWISE_LINEAR)
       for d in (1, 2) for seed in (0, 1)},
    "compound-jump": lambda: CompoundJumpModel(dim=2).sample_path(
        30, RngStream(7, 1)),
    "mm1": lambda: MM1BusyCycleModel(arrival_rate=0.5, service_rate=1.0)
    .sample_path(30, RngStream(7, 2)),
}


class TestEvaluateReference:
    """``evaluate`` reads no padded copy, with the padded reader's bits."""

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("name", sorted(REFERENCE_PATHS))
    def test_equals_the_padded_reader(self, name, side):
        path = REFERENCE_PATHS[name]()
        times = path.event_times
        assert np.any(times[1:] == times[:-1]) or not name.startswith("single")
        rng = np.random.default_rng(len(name))
        u = rng.permutation(np.concatenate([
            [0.0, path.horizon], times, rng.uniform(0.0, times[0], 5),
            rng.uniform(0.0, path.horizon, 50)]))
        # the events alone: none lies before the first, the first included
        for points in (u, rng.permutation(times)):
            got = path.evaluate(points, side=side)
            expected = _padded_evaluate(path, points, side=side)
            assert got.shape == expected.shape == (points.size, path.d)
            assert got.tobytes() == expected.tobytes()


class TestEventRows:
    """``event_rows`` reads S and S(e-) at the events by index, with
    ``evaluate``'s bits, tied events included."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_PATHS))
    def test_equals_evaluate_at_the_events(self, name):
        path = REFERENCE_PATHS[name]()
        times = path.event_times
        n = times.size
        bounds = [(0, n), (0, 1), (n - 1, n), (1, n - 1), (3, 9), (5, 5)]
        bounds += [(lo, lo + 4) for lo in range(0, n - 4, 3)]
        for lo, hi in bounds:
            right, left = path.event_rows(lo, hi)
            at = times[lo:hi]
            assert right.shape == left.shape == (hi - lo, path.d)
            assert right.tobytes() == path.evaluate(at).tobytes()
            assert left.tobytes() == path.evaluate(at, side="left").tobytes()

    @pytest.mark.parametrize("interpolation",
                             [PIECEWISE_CONSTANT, PIECEWISE_LINEAR])
    def test_tie_free_blocks_are_views(self, interpolation):
        path = single_event_path(np.array([1.0, 2.0, 0.5, 1.5]),
                                 np.array([1.0, -3.0, 2.0, 0.25]),
                                 interpolation)
        right, left = path.event_rows(1, 4)
        assert np.shares_memory(right, path.event_values)
        assert np.shares_memory(left, path.event_values)
        assert not right.flags.writeable


class TestSingleEventPath:
    def test_prefix_sums_at_renewals(self):
        tau = np.array([1.0, 2.0, 0.5])
        xi = np.array([[1.0], [-3.0], [0.25]])
        path = single_event_path(tau, xi, "piecewise-linear")
        at_renewals = path.evaluate(path.renewal_times)
        np.testing.assert_allclose(at_renewals[:, 0],
                                   [0.0, 1.0, -2.0, -1.75], atol=0)

    @pytest.mark.parametrize("interpolation",
                             [PIECEWISE_CONSTANT, PIECEWISE_LINEAR])
    def test_nan_times_are_rejected(self, interpolation):
        path = single_event_path([1.0, 2.0], [1.0, -3.0], interpolation)
        for u in ([np.nan, 0.5], np.nan, [0.5, np.nan, 2.0]):
            with pytest.raises(ValueError, match="NaN"):
                path.evaluate(u)
            with pytest.raises(ValueError, match="NaN"):
                path.evaluate(u, side="left")

    @pytest.mark.parametrize("interpolation",
                             [PIECEWISE_CONSTANT, PIECEWISE_LINEAR])
    def test_durations_and_increments_must_pair(self, interpolation):
        with pytest.raises(ValueError, match="3 durations for 2 increments"):
            single_event_path([1.0, 2.0, 0.5], [1.0, -3.0], interpolation)

    def test_linear_interpolation_midpoint(self):
        tau = np.array([2.0])
        xi = np.array([[4.0]])
        path = single_event_path(tau, xi, "piecewise-linear")
        value = path.evaluate(np.array([1.0]))
        np.testing.assert_allclose(value[0, 0], 2.0)


class TestCountingInversion:
    def test_first_passage_is_ceiling_inverse(self):
        jump_times = np.array([0.5, 1.25, 1.25, 4.0])
        counting = CountingPath(jump_times=jump_times)
        # level 2 is first reached at the double jump, level 0 at time zero
        assert invert_counting(counting, 0.0) == 0.0
        assert invert_counting(counting, 1.0) == 0.5
        assert invert_counting(counting, 2.0) == 1.25
        assert invert_counting(counting, 3.0) == 1.25
        assert invert_counting(counting, 3.5) == 4.0

    def test_fractional_level_rounds_up(self):
        counting = CountingPath(jump_times=np.array([1.0, 2.0]))
        assert invert_counting(counting, 0.5) == 1.0
        assert invert_counting(counting, 1.5) == 2.0

    def test_level_beyond_jumps_raises(self):
        counting = CountingPath(jump_times=np.array([1.0]))
        with pytest.raises(HorizonExceededError):
            invert_counting(counting, 2.0)


class TestCsv:
    def test_cycle_csv_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        tau = rng.gamma(2.0, 1.0, size=13)
        xi = rng.standard_normal((13, 2))
        eta = np.abs(xi).max(axis=1)
        target = tmp_path / "cycles.csv"
        target.write_text(csv_text(
            ["cycle_index", "tau", "xi_1", "xi_2", "eta"],
            [[k, tau[k], *xi[k], eta[k]] for k in range(13)]))
        body = np.loadtxt(target, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(tau, body[:, 1])
        np.testing.assert_array_equal(xi, body[:, 2:4])
        np.testing.assert_array_equal(eta, body[:, 4])

    def test_events_csv_header_and_offsets(self, tmp_path, capsys):
        config = tmp_path / "jump.cfg"
        config.write_text("model.family = compound-jump\nmodel.dim = 2\n"
                          "coupling.mode = independent\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--cycles", "30",
                     "--events", "--out", str(out)]) == 0
        lines = (out / "events.csv").read_text().splitlines()
        assert lines[0] == "cycle_index,offset,value_1,value_2"
        rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
        cycles = np.loadtxt(out / "cycles.csv", delimiter=",", skiprows=1)
        tau, xi = cycles[:, 1], cycles[:, 2:4]
        # one terminal row per cycle closes it at exactly the (tau, xi) of
        # cycles.csv
        last = np.flatnonzero(np.diff(rows[:, 0], append=30.0))
        np.testing.assert_array_equal(rows[last, 0], np.arange(30))
        np.testing.assert_array_equal(rows[last, 1], tau)
        np.testing.assert_array_equal(rows[last, 2:], xi)
        # the jump rows are recovered from absolute times, so they match the
        # path's events to rounding only
        jumps = np.setdiff1d(np.arange(rows.shape[0]), last)
        cycle = rows[jumps, 0].astype(int)
        assert np.all((rows[jumps, 1] > 0) & (rows[jumps, 1] < tau[cycle]))
        starts = np.concatenate([[0.0], np.cumsum(tau)])
        prefix = np.vstack([np.zeros((1, 2)), np.cumsum(xi, axis=0)])
        cfg = parse_config(config, "maxima")
        path = cfg.build_model().sample_path(30, RngStream(
            cfg.root_seed, cli._CLI_STREAM_BASE + cli._SIMULATE_OFFSET))
        on_path = np.setdiff1d(np.arange(path.event_times.size),
                               path.cycle_event_ptr[1:] - 1)
        np.testing.assert_allclose(rows[jumps, 1] + starts[cycle],
                                   path.event_times[on_path], rtol=1e-12)
        np.testing.assert_allclose(rows[jumps, 2:] + prefix[cycle],
                                   path.event_values[on_path], rtol=1e-12,
                                   atol=1e-12)
