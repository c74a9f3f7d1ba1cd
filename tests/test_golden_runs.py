"""Golden byte-diff: the committed ``runs/`` fixtures regenerate exactly.

Each pooled experiment goes through ``cli.main`` at ``--workers 2`` so the
pooled path is the one compared; the determinism contract makes the bytes
independent of the worker count.  ``couple`` builds one bundle in process,
and the certifiers open no pool.  ``rate-independent`` is the uncoupled
null: its rate verdict is FAIL, exit 1.
Every committed file but the wall-clock manifest is compared, and the
regenerated directory must hold exactly the committed file set.
"""
from pathlib import Path

import pytest

from regenlab.cli import main
from regenlab.reporting import MANIFEST_NAME

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"

POOL = ["--workers", "2"]
EXPERIMENTS = [
    ("maxima-pareto",
     ["maxima", "--config", str(CONFIGS / "maxima_pareto.cfg"), *POOL]),
    ("phis-shared", ["phis", "--config", str(CONFIGS / "phis_gamma.cfg"), *POOL]),
    ("rate-shared", ["rate", "--config", str(CONFIGS / "rate_gamma.cfg"), *POOL]),
    ("rate-independent",
     ["rate", "--config", str(CONFIGS / "rate_independent_null.cfg"), *POOL]),
    ("couple-demo", ["couple", "--t", "256"]),
    ("simulate-demo", ["simulate", "--cycles", "1000"]),
]
CERTIFIERS = ["poisson-inverse", "renewal-count", "block-maximal",
              "random-sum", "grid-increment", "brownian-sup", "nagaev"]
EXIT_CODES = {"rate-independent": 1}
RUNS = EXPERIMENTS + [(f"certify-{name}", ["certify", name])
                      for name in CERTIFIERS]


def _file_names(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name != MANIFEST_NAME)


@pytest.mark.parametrize("run, argv", RUNS, ids=[r for r, _ in RUNS])
def test_committed_run_regenerates_byte_for_byte(run, argv, tmp_path, capsys):
    out = tmp_path / run
    assert main([*argv, "--out", str(out)]) == EXIT_CODES.get(run, 0)
    committed = ROOT / "runs" / run
    names = _file_names(committed)
    assert _file_names(out) == names
    for name in names:
        assert (out / name).read_bytes() == (committed / name).read_bytes(), name
