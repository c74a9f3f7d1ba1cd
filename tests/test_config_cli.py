"""Config parsing/validation and the command-line surface."""
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from regenlab import cli, harness
from regenlab.cli import main
from regenlab.coupling import IdentityViolationError
from regenlab.config import (ConfigParseError, ConfigValidationError,
                             EXPERIMENT_KINDS, build_config, parse_config,
                             parse_config_text)
from regenlab.harness import HorizonSummary, RateFit, run_rate_experiment
from regenlab.models import reference_greeks
from regenlab.paths import HorizonExceededError

ROOT = Path(__file__).resolve().parents[1]

# one valid argv per bound calculator: (required flags, optional flags)
BOUND_ARGV = {
    "poisson-inverse-tail": (["--t", "100", "--x", "10", "--gamma", "1"], []),
    "renewal-count-tail": (["--t", "20", "--x", "6.67", "--mu", "1",
                            "--laplace", "exp:1"], []),
    "brownian-grid-increment-tail": (["--t", "10", "--x", "3"], []),
    "nagaev-tail": (["--n", "100", "--p", "3", "--abs-moment", "1",
                     "--variance", "1", "--x", "50"], []),
    "block-maximal-tail": (["--n", "16", "--p", "3", "--abs-moment", "1",
                            "--variance", "1", "--x", "8"], ["--c", "2"]),
    "random-sum-m0": ([], ["--laplace", "exp:1"]),
    "random-sum-nagaev-tail": (["--t", "10", "--x", "5", "--n", "1",
                                "--p", "3", "--abs-moment", "1.6",
                                "--variance", "1"],
                               ["--laplace-at-1", "0.5"]),
    "brownian-sup-tail": (["--t", "100", "--x", "40"], ["--d", "1"]),
    "exp-to-power": (["--A", "1", "--B", "2", "--C", "0.5", "--p", "3"], []),
}


def _documented_lines() -> list[list[str]]:
    """The ``regenlab bounds`` and ``regenlab certify`` lines of
    scripts/run_all.sh and README.md as argument lists; ``$name`` expands
    over run_all.sh's ``for name in`` loop."""
    lines = []
    for doc in ("scripts/run_all.sh", "README.md"):
        text = (ROOT / doc).read_text().replace("\\\n", " ")
        loop = re.search(r"for name in ([^;]*); do", text)
        for line in text.splitlines():
            if not line.strip().startswith(("regenlab bounds ",
                                            "regenlab certify ")):
                continue
            argv = shlex.split(line)[1:]
            names = loop.group(1).split() if "$name" in line else [""]
            lines += [[arg.replace("$name", name) for arg in argv]
                      for name in names]
    return lines


def _failing_fit() -> RateFit:
    summary = HorizonSummary(t=1024.0, n=50, median=2.0, ci_low=1.0,
                             ci_high=3.0, mean=2.0, q90=3.5)
    return RateFit(slope=0.6, intercept=0.0, slope_ci=(0.5, 0.7),
                   per_t=(summary,), threshold=1.0 / 3.0 + 0.1,
                   passed=False, deviations=((2.0,),))


class TestConfigRoundTrip:
    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_defaults_round_trip(self, kind):
        cfg = build_config(kind)
        assert parse_config_text(cfg.render(), kind) == cfg

    def test_nondefault_round_trip(self):
        cfg = build_config(
            "tail", family="gamma-gaussian",
            model_params={"tau_shape": 3.0, "beta": "0.2,-0.1",
                          "kappa": "0.0,0.3", "dim": 2,
                          "noise_cov": "1.0,0.2;0.2,0.5"},
            p=3.5, mode="shared-innovations", replications=128, root_seed=9)
        assert parse_config_text(cfg.render(), "tail") == cfg

    def test_snapshot_is_canonical(self):
        cfg = build_config("rate")
        again = parse_config_text(cfg.render(), "rate")
        assert again.render() == cfg.render()

    @pytest.mark.parametrize("family, params", [
        ("iid-sums", {"dim": 3, "xi_mean": "0.5,-1.0,2.0", "tau_const": 1.5,
                      "xi_cov": "2.0,0.1,0.0;0.1,1.0,0.2;0.0,0.2,0.5"}),
        ("gamma-gaussian", {"dim": 3, "beta": "0.3,0.0,-0.3", "tau_scale": 0.5,
                            "noise_cov": "1.0,0.5,0.0;0.5,1.0,0.0;0.0,0.0,2.0"}),
        ("pareto-cycle", {"tail_index": 4.5}),
        ("mm1-busy-cycle", {"arrival_rate": 0.3, "service_rate": "2.0"}),
        ("compound-jump", {"dim": 2, "cycle_rate": 2.0, "jump_rate": 0.5,
                           "jump_mean": "0.2,-0.4",
                           "jump_cov": "1.0,0.3;0.3,0.8"})])
    def test_every_family_round_trips(self, family, params):
        cfg = build_config("maxima", family=family, model_params=params)
        assert parse_config_text(cfg.render(), "maxima") == cfg
        assert cfg.build_model().d == params.get("dim", 1)
        snapshot = dict(cfg.model_params)
        for key, value in params.items():
            assert snapshot[key] == str(value)

    @pytest.mark.parametrize("name, kind", [
        ("greeks_mm1", "maxima"), ("maxima_pareto", "maxima"),
        ("phis_gamma", "phis"), ("rate_gamma", "rate"),
        ("rate_independent_null", "rate"), ("tail_gamma", "tail")])
    def test_shipped_configs_round_trip(self, name, kind):
        cfg = parse_config(ROOT / "scripts" / "configs" / f"{name}.cfg", kind)
        assert parse_config_text(cfg.render(), kind) == cfg


class TestConfigErrors:
    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigParseError, match="line 2"):
            parse_config_text("model.family = gamma-gaussian\n"
                              "model.nonsense = 1\n", "rate")

    def test_duplicate_key(self):
        with pytest.raises(ConfigParseError, match="duplicate"):
            parse_config_text("rng.root_seed = 1\nrng.root_seed = 2\n",
                              "rate")

    def test_missing_equals(self):
        with pytest.raises(ConfigParseError, match="line 1"):
            parse_config_text("rng.root_seed 5\n", "rate")

    def test_unknown_family(self):
        with pytest.raises(ConfigParseError, match="family"):
            parse_config_text("model.family = banana\n", "rate")

    def test_pareto_moment_ceiling_message(self):
        text = ("model.family = pareto-cycle\nmodel.tail_index = 3.5\n"
                "experiment.p = 4.0\n")
        with pytest.raises(ConfigValidationError,
                           match=r"p=4.* p_max=3\.5"):
            parse_config_text(text, "maxima")

    def test_iid_sums_cannot_be_coupled(self):
        text = "model.family = iid-sums\ncoupling.mode = independent\n"
        with pytest.raises(ConfigValidationError, match="degenerate"):
            parse_config_text(text, "rate")

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_unknown_mode_is_named_first(self, kind):
        # before the family's supported modes, and for maxima too, which
        # drives no Gaussians
        with pytest.raises(ConfigValidationError,
                           match="unknown coupling mode 'bogus'"):
            build_config(kind, family="iid-sums", mode="bogus")

    def test_too_few_replications(self):
        with pytest.raises(ConfigValidationError, match="confidence"):
            build_config("rate", replications=10)

    def test_rate_needs_four_horizons(self):
        with pytest.raises(ConfigValidationError):
            build_config("rate", t_grid=(64.0, 128.0))

    @pytest.mark.parametrize("family, params, name", [
        ("gamma-gaussian", {"noise_cov": "1,0;0,1"}, "noise_cov"),
        ("gamma-gaussian", {"dim": 3, "beta": "0.1,0.2"}, "beta"),
        ("iid-sums", {"dim": 2, "xi_mean": "1,0;0,1"}, "xi_mean")])
    def test_shape_mismatch_names_the_parameter(self, family, params, name):
        with pytest.raises(ConfigValidationError,
                           match=f"{name} shape .* does not match dimension"):
            build_config("maxima", family=family, model_params=params)

    def test_scalar_parameter_rejects_a_vector(self):
        with pytest.raises(ConfigParseError, match="model.tau_shape"):
            parse_config_text("model.tau_shape = 1.0, 2.0\n", "rate")

    def test_grid_step_is_an_unknown_key(self, tmp_path, capsys):
        # the sup and the decomposition read only the kinks: no grid step
        # is left to set, and the snapshot names none
        cfg = tmp_path / "step.cfg"
        cfg.write_text("experiment.grid_step = 1.0\n")
        out = tmp_path / "out"
        assert main(["tail", "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown key 'experiment.grid_step'" in capsys.readouterr().err
        assert not out.exists()
        assert "grid_step" not in build_config("tail").render()


class TestCliExitCodes:
    def test_bounds_success(self, capsys):
        code = main(["bounds", "poisson-inverse-tail", "--t", "100",
                     "--x", "10", "--gamma", "1"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        fields = out.split(",")
        assert fields[0] == "poisson-inverse-tail"
        assert float(fields[1]) == pytest.approx(0.09297905615356902)
        assert fields[2] == "pair"

    def test_bounds_unknown_name(self, capsys):
        assert main(["bounds", "not-a-bound", "--t", "5"]) == 2
        assert "known bounds" in capsys.readouterr().err

    def test_bounds_missing_parameter(self, capsys):
        assert main(["bounds", "poisson-inverse-tail", "--t", "100"]) == 2
        assert "--x" in capsys.readouterr().err

    def test_bounds_region_error_is_exit_2(self, capsys):
        assert main(["bounds", "poisson-inverse-tail", "--t", "100",
                     "--x", "90", "--gamma", "1"]) == 2
        assert "region" in capsys.readouterr().err

    def test_certify_unknown_name(self, capsys):
        assert main(["certify", "no-such-inequality"]) == 2

    @pytest.mark.parametrize("argv, key", [
        (["certify", "nagaev", "--x", "inf"], "--x"),
        (["certify", "block-maximal", "--n", "inf"], "--n"),
        (["bounds", "nagaev-tail", "--n", "inf", "--p", "3",
          "--abs-moment", "1", "--variance", "1", "--x", "10"], "--n"),
        (["bounds", "brownian-sup-tail", "--t", "100", "--x", "40",
          "--d", "inf"], "--d"),
        (["certify", "poisson-inverse", "--t-values", "64,inf"],
         "--t-values"),
    ])
    def test_non_finite_parameter_is_exit_2(self, capsys, argv, key):
        # int(inf) would raise OverflowError, a crash that exits 1 (FAIL)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"parameter {key} must be a finite number" in err

    @pytest.mark.parametrize("argv, rows", [
        # one t value times the five default x values
        (["certify", "grid-increment", "--t-values", "3"], 5),
        (["certify", "grid-increment", "--t-values", "3,5"], 10),
        (["certify", "poisson-inverse", "--t-values", "64"], 1),
        # the five default t values, each with x = 2 t / log t > e
        (["certify", "brownian-sup", "--factors", "2"], 5),
    ])
    def test_certify_list_parameters(self, capsys, argv, rows):
        # a single number is a one-element list, not a crash (exit 1, FAIL)
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"certify {argv[1]}: PASS"
        assert len(lines) == rows + 1

    @pytest.mark.parametrize("argv, message", [
        # t / log t divides by zero at t = 1 (a crash that exits 1, FAIL)
        (["certify", "poisson-inverse", "--t-values", "1"],
         "parameter --t-values must exceed 1"),
        (["certify", "brownian-sup", "--t-values", "64,1"],
         "parameter --t-values must exceed 1"),
        (["certify", "renewal-count", "--t", "1"],
         "parameter --t must exceed 1"),
        (["certify", "random-sum", "--t", "1"], "parameter --t must exceed 1"),
        # the random-sum oracle's quadrature would outgrow 32 MB
        (["certify", "random-sum", "--x", "300"],
         "parameter --x must be at most 256"),
        # a fractional count was truncated: n = 16.9 certified n = 16
        (["certify", "block-maximal", "--n", "16.9"],
         "parameter --n must be a whole number"),
        (["certify", "nagaev", "--n", "100.7"],
         "parameter --n must be a whole number"),
        (["bounds", "nagaev-tail", "--n", "16.9", "--p", "3",
          "--abs-moment", "1", "--variance", "1", "--x", "10"],
         "parameter --n must be a whole number"),
        (["bounds", "brownian-sup-tail", "--t", "100", "--x", "40",
          "--d", "1.7"], "parameter --d must be a whole number"),
        # the reflection series never settles at x <= 0: the oracle never
        # returned
        (["certify", "grid-increment", "--x-values", "0"],
         "parameter --x-values must be positive"),
        (["certify", "grid-increment", "--x-values", "-1"],
         "parameter --x-values must be positive"),
        # x = 0.5 * 4 / log 4 < e skips the only pair: no vacuous PASS
        (["certify", "brownian-sup", "--t-values", "4", "--factors", "0.5"],
         "certification brownian-sup has no row to check"),
        # oracle and bound both underflow to 0: "lhs=0 bound=0 PASS"
        # checked nothing
        (["certify", "renewal-count", "--t", "2000"],
         "row 'exact-poisson-tail' compares 0 with 0"),
        (["certify", "poisson-inverse", "--t-values", "64,100000"],
         "row 'gamma-cdf t=100000' compares 0 with 0"),
        # both transforms used to read --laplace-at-1 and drop --laplace
        (["bounds", "random-sum-m0", "--laplace-at-1", "0.5",
          "--laplace", "exp:9"], "give exactly one duration transform"),
        (["bounds", "random-sum-m0"], "give exactly one duration transform"),
        (["bounds", "random-sum-nagaev-tail",
          *BOUND_ARGV["random-sum-nagaev-tail"][0], "--laplace-at-1", "0.5",
          "--laplace", "exp:9"], "give exactly one duration transform"),
        (["bounds", "random-sum-nagaev-tail",
          *BOUND_ARGV["random-sum-nagaev-tail"][0]],
         "give exactly one duration transform"),
    ])
    def test_parameter_out_of_range_is_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, key, accepted", [
        (["bounds", "brownian-sup-tail", "--t", "100", "--x", "40",
          "--dim", "7"], "--dim", "--t, --x, --d"),
        (["certify", "nagaev", "--bogus", "3"], "--bogus", "--n, --x, --p"),
        (["certify", "grid-increment", "--reps", "20000"], "--reps",
         "--t-values, --x-values"),
        (["certify", "renewal-count", "--reps", "2000"], "--reps", "--t"),
        (["certify", "random-sum", "--reps", "2000"], "--reps", "--t, --x"),
        # --param KEY=VALUE is gone: only --key value and --key=value remain
        (["bounds", "poisson-inverse-tail", "--t", "100", "--x", "20",
          "--param", "gamma=1"], "--param", "--t, --x, --gamma"),
    ])
    def test_unknown_parameter_is_exit_2(self, capsys, argv, key, accepted):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"does not take {key}; accepted: {accepted}" in captured.err
        assert captured.out == ""

    def test_every_calculator_has_a_valid_argv(self, capsys):
        assert set(BOUND_ARGV) == set(cli.BOUND_CALCULATORS)
        for name, (required, optional) in BOUND_ARGV.items():
            assert main(["bounds", name, *required, *optional]) == 0, name

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name, (required, _) in BOUND_ARGV.items()
        for flag in required[::2]])
    def test_missing_required_flag_is_exit_2(self, capsys, name, flag):
        required, optional = BOUND_ARGV[name]
        index = required.index(flag)
        argv = [*required[:index], *required[index + 2:], *optional]
        assert main(["bounds", name, *argv]) == 2
        captured = capsys.readouterr()
        assert f"missing required parameter {flag}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", _documented_lines(), ids=" ".join)
    def test_documented_bounds_lines_run(self, tmp_path, capsys, argv):
        # a documented line that spells a removed flag fails here
        assert main([arg.replace("$runs", str(tmp_path))
                     for arg in argv]) == 0

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert main(["rate", "--config", str(missing),
                     "--out", str(tmp_path / "out")]) == 2

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.family = gamma-gaussian\nbroken line\n")
        assert main(["phis", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_config_validation_error_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.family = mm1-busy-cycle\n"
                       "coupling.mode = shared-innovations\n")
        assert main(["tail", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 2


    @pytest.mark.parametrize("kind, lines, message", [
        ("rate", "experiment.t_grid = 1024.0, 2048.0, 4096.0, inf\n",
         "t_grid must be finite"),
        ("rate", "experiment.t_grid = 1024.0, 2048.0, 4096.0, nan\n",
         "t_grid must be finite"),
        ("tail", "experiment.t_grid = 1024.0, inf\n", "t_grid must be finite"),
        ("phis", "experiment.t_grid = nan\n", "t_grid must be finite"),
        ("maxima", "experiment.t_grid = inf\n", "t_grid must be finite"),
        ("maxima", "model.family = iid-sums\nmodel.xi_cov = 1,0;0,1\n",
         "xi_cov shape"),
        ("maxima", "model.family = compound-jump\nmodel.jump_cov = 1,0;0,1\n",
         "jump_cov shape"),
        ("maxima", "model.family = compound-jump\nmodel.dim = 3\n"
         "model.jump_mean = 1,2\n", "jump_mean shape"),
        ("phis", "experiment.t_grid = 1.0\n", "at least e"),
        ("phis", "experiment.t_grid = 256.0, 512.0\n", "reads one horizon"),
        ("rate", "experiment.p = 2.0\n", "must exceed 2"),
        ("phis", "experiment.t_grid = 2.0\n", "at least e"),
        ("maxima", "experiment.t_grid = 1024.5, 2048.0\n", "whole numbers"),
        ("maxima", "experiment.t_grid = 0.5, 1024.0\n", "whole numbers"),
        ("phis", "experiment.c_factor = nan\n", "c_factor"),
        ("phis", "experiment.c_factor = 100.0\n", "empty threshold grid"),
        ("tail", "experiment.c_factor = inf\n", "c_factor"),
        ("phis", "experiment.x_factors = nan, 1.0\n", "x_factors"),
        ("tail", f"rng.root_seed = {2 ** 64}\n", "root_seed")])
    def test_invalid_config_is_exit_2_before_any_work(
            self, tmp_path, monkeypatch, capsys, kind, lines, message):
        def no_work(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness, "_replicate", no_work)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(lines)
        out = tmp_path / "out"
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t", ["inf", "-inf", "nan"])
    def test_couple_non_finite_t_is_exit_2_before_any_work(
            self, tmp_path, monkeypatch, capsys, t):
        def no_work(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(cli, "build_bundle", no_work)
        out = tmp_path / "out"
        assert main(["couple", f"--t={t}", "--out", str(out)]) == 2
        assert "--t must be a finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fault", [IdentityViolationError, RuntimeError,
                                       HorizonExceededError, TypeError,
                                       AssertionError])
    def test_internal_fault_is_exit_3(self, tmp_path, monkeypatch, capsys,
                                      fault):
        def broken(*args, **kwargs):
            raise fault("telescoping residual out of tolerance")

        monkeypatch.setattr(cli, "phi_decomposition", broken)
        assert main(["couple", "--t", "16", "--out", str(tmp_path)]) == 3
        assert (f"internal error: {fault.__name__}"
                in capsys.readouterr().err)

    def test_rate_internal_fault_is_exit_3_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        # exit 1 would read as the rate FAIL verdict
        def broken(cfg, workers):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli, "run_rate_experiment", broken)
        out = tmp_path / "out"
        assert main(["rate", "--out", str(out)]) == 3
        assert ("internal error: TypeError: unsupported operand"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_rate_fail_is_exit_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_rate_experiment",
                            lambda cfg, workers: _failing_fit())
        assert main(["rate", "--out", str(tmp_path / "out")]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert "passed = false" in (tmp_path / "out" / "report.txt").read_text()


class TestCliArtifacts:
    def test_simulate_reproduces_committed_demo(self, tmp_path, capsys):
        committed = (Path(__file__).resolve().parents[1] / "runs"
                     / "simulate-demo" / "cycles.csv")
        out = tmp_path / "sim"
        assert main(["simulate", "--cycles", "1000", "--out", str(out)]) == 0
        assert (out / "cycles.csv").read_bytes() == committed.read_bytes()

    def test_simulate_writes_readable_cycles(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--cycles", "40", "--out", str(out)]) == 0
        cycles = (out / "cycles.csv").read_text()
        assert cycles.startswith("cycle_index,tau,xi_1,eta\n")
        body = np.loadtxt(out / "cycles.csv", delimiter=",", skiprows=1)
        tau, xi = body[:, 1], body[:, 2:3]
        assert tau.shape == (40,) and xi.shape == (40, 1)
        assert np.all(tau > 0)
        records = [json.loads(line) for line in
                   (out / "manifest.jsonl").read_text().splitlines()]
        assert records[-1]["subcommand"] == "simulate"
        assert "timestamp" in records[-1]

    def test_simulate_valid_snapshot(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--cycles", "10", "--out", str(out)]) == 0
        snapshot = (out / "config.snapshot").read_text()
        cfg = parse_config_text(snapshot, "maxima")
        assert cfg.render() == snapshot

    def test_greeks_prints_sections(self, capsys):
        assert main(["greeks", "--cycles", "5000"]) == 0
        out = capsys.readouterr().out
        assert "[estimated]" in out and "[identities]" in out
        assert "mu = " in out

    def test_greeks_prints_exact_mm1(self, capsys):
        config = (Path(__file__).resolve().parents[1] / "scripts" / "configs"
                  / "greeks_mm1.cfg")
        assert main(["greeks", "--config", str(config),
                     "--cycles", "5000"]) == 0
        out = capsys.readouterr().out
        exact = out.split("[exact]\n", 1)[1].split("\n\n", 1)[0]
        lines = dict(line.split(" = ") for line in exact.splitlines())
        assert float(lines["mu"]) == 4.0
        assert float(lines["kappa_1"]) == 0.5

    def test_couple_replays_a_rate_replication(self, tmp_path, capsys):
        cfg_path = tmp_path / "rate.cfg"
        cfg_path.write_text("experiment.t_grid = 16.0, 32.0, 64.0, 128.0\n"
                            "experiment.replications = 50\n"
                            "coupling.mode = shared-innovations\n"
                            "rng.root_seed = 5\n")
        fit = run_rate_experiment(parse_config(cfg_path, "rate"))
        for t_index, rep in ((0, 0), (2, 17), (3, 49)):
            assert main(["couple", "--config", str(cfg_path),
                         "--kind", "rate", "--t-index", str(t_index),
                         "--rep", str(rep),
                         "--out", str(tmp_path / "cpl")]) == 0
            line = capsys.readouterr().out
            assert (f"replication root_seed=5 kind=rate t_index={t_index} "
                    f"rep={rep} ") in line
            replayed = float(line.split("sup_deviation=")[1].split()[0])
            assert replayed == fit.deviations[t_index][rep]
        # a rank-deficient sigma: the run's W, without W_circ, differs from
        # the full bundle's in the last bits at replications 9 and 11
        cfg_path.write_text("model.family = gamma-gaussian\n"
                            "model.dim = 2\n"
                            "model.beta = 0.3,0.3\n"
                            "model.kappa = 0.1,0.1\n"
                            "model.noise_cov = 1,1;1,1\n"
                            "experiment.t_grid = 64.0\n"
                            "experiment.replications = 50\n"
                            "coupling.mode = shared-innovations\n"
                            "rng.root_seed = 5\n")
        cfg = parse_config(cfg_path, "tail")
        model = cfg.build_model()
        (devs,) = harness._replicate(
            harness._deviations, cfg, reference_greeks(model, cfg.p),
            cfg.t_grid, "tail", 1)
        for rep in (0, 9, 11):
            assert main(["couple", "--config", str(cfg_path),
                         "--kind", "tail", "--rep", str(rep),
                         "--out", str(tmp_path / "cpl")]) == 0
            line = capsys.readouterr().out
            replayed = float(line.split("sup_deviation=")[1].split()[0])
            assert replayed == devs[rep]

    @pytest.mark.parametrize("flags", [["--t-index", "1"], ["--rep", "200"],
                                       ["--rep", "-1"]])
    def test_couple_rejects_an_address_outside_the_run(self, tmp_path,
                                                       capsys, flags):
        # the default phis run has one horizon and 200 replications
        assert main(["couple", *flags, "--out", str(tmp_path)]) == 2
        assert "outside" in capsys.readouterr().err

    def test_couple_csv_telescopes(self, tmp_path, capsys):
        out = tmp_path / "cpl"
        assert main(["couple", "--t", "16", "--out", str(out)]) == 0
        lines = (out / "couple.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["u", "left"] and header[-1] == "deviation"
        assert "phi1_1" in header and "phi8_1" in header
        # re-verify the decomposition from the serialized numbers alone
        idx = {name: k for k, name in enumerate(header)}
        flags = []
        for line in lines[1:]:
            cells = [float(c) for c in line.split(",")]
            flags.append(cells[idx["left"]])
            phi_sum = sum(cells[idx[f"phi{q}_1"]] for q in range(1, 9))
            # the sum of the eight terms reproduces the coupling gap, whose
            # max-norm is the deviation column (d = 1 here)
            assert abs(abs(phi_sum) - cells[idx["deviation"]]) < 1e-7
        # left-limit rows (flag 1) sit at the jumps, right rows (flag 0)
        # everywhere, and the first and last rows are right rows at 0 and t
        assert set(flags) == {0.0, 1.0} and flags[0] == flags[-1] == 0.0

    def test_rate_experiment_files(self, tmp_path, capsys):
        cfg = tmp_path / "rate.cfg"
        cfg.write_text("experiment.t_grid = 64.0, 128.0, 256.0, 512.0\n"
                       "experiment.replications = 50\n"
                       "coupling.mode = shared-innovations\n")
        out = tmp_path / "out"
        assert main(["rate", "--config", str(cfg), "--out", str(out)]) == 0
        results = (out / "results.csv").read_text().splitlines()
        assert results[0] == "t,replications,median,ci_low,ci_high,mean,q90"
        assert len(results) == 5
        report = (out / "report.txt").read_text()
        assert "[fit]" in report and "slope = " in report
        assert sorted(p.name for p in out.iterdir()) == [
            "config.snapshot", "manifest.jsonl", "report.txt", "results.csv"]
        record = json.loads(
            (out / "manifest.jsonl").read_text().splitlines()[-1])
        assert record["subcommand"] == "rate"
        assert record["config"] == str(cfg)

    def test_render_failure_leaves_no_file(self, tmp_path, monkeypatch,
                                           capsys):
        def broken(sections):
            raise RuntimeError("report rendering failed")

        monkeypatch.setattr(cli, "run_rate_experiment",
                            lambda cfg, workers: _failing_fit())
        monkeypatch.setattr(cli, "render_report", broken)
        out = tmp_path / "out"
        assert main(["rate", "--out", str(out)]) == 3
        assert not (out / "results.csv").exists()
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    @pytest.mark.parametrize("command, flag", [
        (["rate"], "--workers"), (["tail"], "--workers"),
        (["phis"], "--workers"), (["maxima"], "--workers"),
        (["certify", "nagaev"], "--workers"),
        (["simulate"], "--cycles"), (["greeks"], "--cycles")])
    def test_counts_must_be_positive(self, tmp_path, capsys, command, flag,
                                     value):
        # --workers 0 and below ran serially and said nothing; simulate
        # --cycles 0 wrote a header-only cycles.csv, and a negative --cycles
        # failed in numpy with "negative dimensions are not allowed"
        out = [] if command == ["greeks"] else ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as err:
            main([*command, *out, flag, value])
        assert err.value.code == 2
        assert (f"argument {flag}: must be a positive integer"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_extra_args_rejected_outside_bounds(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["greeks", "--unknown-flag", "3"])
        assert err.value.code == 2


class TestConfigFromCli:
    def test_workers_flag_does_not_change_results(self, tmp_path, capsys):
        cfg = tmp_path / "rate.cfg"
        cfg.write_text("experiment.t_grid = 64.0, 128.0, 256.0, 512.0\n"
                       "experiment.replications = 50\n"
                       "coupling.mode = quantile-1d\n"
                       "rng.root_seed = 77\n")
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["rate", "--config", str(cfg), "--out", str(out1),
                     "--workers", "1"]) == 0
        assert main(["rate", "--config", str(cfg), "--out", str(out2),
                     "--workers", "3"]) == 0
        assert ((out1 / "results.csv").read_bytes()
                == (out2 / "results.csv").read_bytes())

    def test_quantile_1d_is_an_alias_of_shared_innovations(self, tmp_path,
                                                            capsys):
        # the former name parses to the canonical one, so every output
        # file of a phis run names and holds the same construction
        base = ("model.family = pareto-cycle\n"
                "experiment.t_grid = 64.0\n"
                "experiment.replications = 50\n"
                "rng.root_seed = 5\n")
        cfgs, outs = [], []
        for mode in ("quantile-1d", "shared-innovations"):
            text = base + f"coupling.mode = {mode}\n"
            cfgs.append(parse_config_text(text, "phis"))
            path = tmp_path / f"{mode}.cfg"
            path.write_text(text)
            outs.append(tmp_path / mode)
            assert main(["phis", "--config", str(path),
                         "--out", str(outs[-1])]) == 0
        assert cfgs[0] == cfgs[1]
        assert cfgs[0].mode == "shared-innovations"
        for file in ("results.csv", "report.txt", "config.snapshot"):
            assert ((outs[0] / file).read_bytes()
                    == (outs[1] / file).read_bytes())


CERTIFIER_NAMES = ["poisson-inverse", "renewal-count", "block-maximal",
                   "random-sum", "grid-increment", "brownian-sup", "nagaev"]


class TestCertifyIsDeterministic:
    @pytest.mark.parametrize("name", CERTIFIER_NAMES)
    def test_seed_and_workers_change_no_byte(self, tmp_path, capsys, name):
        assert main(["certify", name, "--seed", "0",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["certify", name, "--seed", "7", "--workers", "2",
                     "--out", str(tmp_path / "b")]) == 0
        for file in ("results.csv", "report.txt"):
            assert ((tmp_path / "a" / file).read_bytes()
                    == (tmp_path / "b" / file).read_bytes()), file
        assert "root_seed" not in (tmp_path / "a" / "report.txt").read_text()

    @pytest.mark.parametrize("name", CERTIFIER_NAMES)
    def test_no_pool_is_opened(self, monkeypatch, capsys, name):
        def no_pool(*args, **kwargs):
            raise AssertionError("a certifier reached _map_chunks")

        monkeypatch.setattr(harness, "_map_chunks", no_pool)
        assert main(["certify", name, "--workers", "2"]) == 0
