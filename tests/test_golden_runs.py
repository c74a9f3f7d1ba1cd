"""Golden byte-diff: the committed ``runs/`` fixtures regenerate exactly.

Each run goes through ``cli.main`` at ``--workers 2`` so the pooled path is
the one compared; the determinism contract makes the bytes independent of
the worker count.
"""
from pathlib import Path

import pytest

from regenlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"

EXPERIMENTS = [
    ("maxima-pareto",
     ["maxima", "--config", str(CONFIGS / "maxima_pareto.cfg")]),
    ("phis-shared", ["phis", "--config", str(CONFIGS / "phis_gamma.cfg")]),
]
CERTIFIERS = ["poisson-inverse", "renewal-count", "block-maximal",
              "random-sum", "grid-increment", "brownian-sup", "nagaev"]
RUNS = EXPERIMENTS + [(f"certify-{name}", ["certify", name])
                      for name in CERTIFIERS]


@pytest.mark.parametrize("run, argv", RUNS, ids=[r for r, _ in RUNS])
def test_committed_run_regenerates_byte_for_byte(run, argv, tmp_path, capsys):
    out = tmp_path / run
    assert main([*argv, "--out", str(out), "--workers", "2"]) == 0
    for name in ("results.csv", "report.txt"):
        committed = ROOT / "runs" / run / name
        assert (out / name).read_bytes() == committed.read_bytes(), name
