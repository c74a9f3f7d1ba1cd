"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests

They cover the benchmark's contract: a tiny run emits every metric that
``BENCHMARK.json`` names, with its unit; the stage-by-stage pipeline
reproduces the library bit for bit for every family and mode the workloads
use; a failing output check is counted as a failed attempt; and without the
package's sources the benchmark exits non-zero and prints no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from regenlab import parse_config_text, reference_greeks  # noqa: E402
from stages import (Counters, Tracer, library_mismatches,  # noqa: E402
                    replicate, sup_with_left_limits)
from workloads import WORKLOADS, check_outputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--workload", "tail-gamma", "--seed", "3", "--seconds", "0"]


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_names_each_workload_of_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == [BENCH.name]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(capsys, trace, section):
    code = run.main(TINY + ["--trace", str(trace)], replications=60,
                    min_trials=1)
    result = _result(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_failing_output_check_raises_failed_share(capsys):
    code = run.main(TINY + ["--trace", "0"], replications=60, min_trials=2,
                    checker=lambda workload, out: ["forced failure"])
    result = _result(capsys)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert result["metrics"]["ok_share"]["value"] == 0.0


def test_output_check_rejects_a_failed_verdict(tmp_path):
    out = tmp_path / "rate"
    out.mkdir()
    (out / "results.csv").write_text("t,median\n1024.0,1.0\n")
    (out / "report.txt").write_text(
        "[fit]\nslope = 0.6\nthreshold = 0.43\npassed = false\n")
    assert check_outputs(WORKLOADS["rate-gamma"], tmp_path)


_JOBS = {(job.command, job.label): job for w in WORKLOADS.values()
         for job in w.jobs if job.command != "certify"}


@pytest.mark.parametrize("key", sorted(_JOBS), ids="/".join)
def test_pipeline_matches_library_bit_for_bit(key):
    job = _JOBS[key]
    cfg = parse_config_text(job.config_text(seed=5, replications=50),
                            job.command)
    model = cfg.build_model()
    greeks = reference_greeks(model, cfg.p)
    tracer, counters = Tracer(), Counters()
    for t_index, t in list(enumerate(cfg.t_grid))[:2]:
        for rep in (0, 1, 49):
            out = replicate(tracer, model, greeks, cfg, t_index, t, rep,
                            counters, job.command == "phis")
            assert library_mismatches(model, greeks, cfg, t_index, t, rep,
                                      out) == []
            grid_sup = out.sup if out.sup is not None \
                else out.dec.sup_deviation()
            assert sup_with_left_limits(out.path, out.bundle.w, greeks, t,
                                        grid_sup) >= grid_sup
    assert counters.bundles == len(tracer.durations("bundle"))


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *TINY, "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
