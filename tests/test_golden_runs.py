"""Golden byte-diff: the committed ``runs/`` fixtures regenerate exactly.

Each pooled run goes through ``cli.main`` at ``--workers 2`` so the pooled
path is the one compared; the determinism contract makes the bytes
independent of the worker count.  ``couple`` builds one bundle in process.
"""
from pathlib import Path

import pytest

from regenlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"

OUTPUTS = ("results.csv", "report.txt")
POOL = ["--workers", "2"]
EXPERIMENTS = [
    ("maxima-pareto",
     ["maxima", "--config", str(CONFIGS / "maxima_pareto.cfg"), *POOL],
     OUTPUTS),
    ("phis-shared",
     ["phis", "--config", str(CONFIGS / "phis_gamma.cfg"), *POOL], OUTPUTS),
    ("rate-shared",
     ["rate", "--config", str(CONFIGS / "rate_gamma.cfg"), *POOL], OUTPUTS),
    ("couple-demo", ["couple", "--t", "256"], ("couple.csv",)),
]
CERTIFIERS = ["poisson-inverse", "renewal-count", "block-maximal",
              "random-sum", "grid-increment", "brownian-sup", "nagaev"]
RUNS = EXPERIMENTS + [(f"certify-{name}", ["certify", name, *POOL], OUTPUTS)
                      for name in CERTIFIERS]


@pytest.mark.parametrize("run, argv, files", RUNS, ids=[r for r, *_ in RUNS])
def test_committed_run_regenerates_byte_for_byte(run, argv, files, tmp_path,
                                                 capsys):
    out = tmp_path / run
    assert main([*argv, "--out", str(out)]) == 0
    for name in files:
        committed = ROOT / "runs" / run / name
        assert (out / name).read_bytes() == committed.read_bytes(), name
