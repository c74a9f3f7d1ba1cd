"""Start-up cost: what ``import regenlab`` and a run load.

Every CLI call and every pool-less run pays the package import first, so
numpy and ``scipy.special`` are the only scientific modules on the import
path.  ``scipy.stats`` (about half a second on its own), ``scipy.integrate``
and ``scipy.optimize`` (which bring ``scipy.sparse`` and ``scipy.linalg``
with them) stay out: the exact binomial and chi-square quantities come from
``scipy.special`` and integer arithmetic, the Pareto moment from
``hyp2f1``, the renewal-count tilt from a golden-section search, and the
square roots and pseudo-inverse from ``numpy.linalg.eigh``.
The run-path test keeps the cost from moving from the import into the run.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.sparse",
         "scipy.linalg")

PARETO_PHIS = """\
model.family = pareto-cycle
model.tail_index = 3.5
coupling.mode = quantile-1d
experiment.p = 3.0
experiment.t_grid = 256.0
experiment.replications = 50
rng.root_seed = 7
"""


def _loaded_heavy_modules(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter, then list the HEAVY modules (or
    their submodules) it left in ``sys.modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps(sorted(m for m in sys.modules if any("
             f"m == h or m.startswith(h + '.') for h in {HEAVY!r}))))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_import_loads_only_numpy_and_scipy_special():
    assert _loaded_heavy_modules("import regenlab, regenlab.cli") == []


def test_run_path_loads_only_numpy_and_scipy_special(tmp_path):
    cfg = tmp_path / "pareto.cfg"
    cfg.write_text(PARETO_PHIS)
    code = (
        "from regenlab.cli import main\n"
        f"assert main(['phis', '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path / 'phis')!r}]) == 0\n"
        "assert main(['certify', 'renewal-count']) == 0\n"
        "assert main(['certify', 'random-sum']) == 0")
    assert _loaded_heavy_modules(code) == []
