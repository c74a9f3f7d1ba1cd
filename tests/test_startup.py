"""Start-up cost: no shipped run loads scipy.

Every CLI call and every pool worker pays the package import first, and
``scipy.special`` alone costs about a quarter of a second and 20 MB, so
numpy is the only scientific module on the import path and on every
shipped run: the normal law is ``regenlab._normal`` (plain numpy), the
Poisson and Gamma tails of the certifiers are exact sums and a
Gauss-Legendre quadrature, the Pareto moment a hypergeometric series, the
M/M/1 moment ``math.lgamma``, the renewal-count tilt a golden-section
search, and the square roots and pseudo-inverse ``numpy.linalg.eigh``.
Two paths still import scipy, inside the function that needs it: the Gamma
quantile at a non-integer shape and the embedding check's chi-square
p-value.  The run-path test keeps the cost from moving from the import into
a run.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

GAMMA = """\
model.family = gamma-gaussian
model.tau_shape = 2.0
model.beta = 0.4
model.kappa = 0.25
model.noise_cov = 0.9
coupling.mode = shared-innovations
experiment.p = 3.0
experiment.t_grid = 64.0, 128.0, 256.0, 512.0
experiment.replications = 50
rng.root_seed = 7
"""

PHIS = {
    "compound-jump": "model.family = compound-jump\n",
    "mm1-busy-cycle": "model.family = mm1-busy-cycle\n",
    "pareto-cycle": ("model.family = pareto-cycle\n"
                     "model.tail_index = 3.5\n"
                     "coupling.mode = shared-innovations\n"),
}
PHIS_REST = """\
experiment.p = 3.0
experiment.t_grid = 64.0
experiment.replications = 50
rng.root_seed = 7
"""

CERTIFIERS = ("poisson-inverse", "renewal-count", "block-maximal",
              "random-sum", "grid-increment", "brownian-sup", "nagaev")


def _loaded_scipy_modules(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter, then list the modules named
    ``scipy`` or ``scipy.*`` it left in ``sys.modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps(sorted(m for m in sys.modules "
             f"if m == 'scipy' or m.startswith('scipy.'))))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert _loaded_scipy_modules("import regenlab, regenlab.cli") == []


def test_shipped_runs_load_no_scipy(tmp_path):
    gamma = tmp_path / "gamma.cfg"
    gamma.write_text(GAMMA)
    runs = [["tail", "--config", str(gamma)],
            ["rate", "--config", str(gamma)],
            ["couple", "--config", str(gamma), "--kind", "tail"],
            ["simulate", "--config", str(gamma), "--cycles", "100"]]
    for family, head in PHIS.items():
        cfg = tmp_path / f"{family}.cfg"
        cfg.write_text(head + PHIS_REST)
        runs.append(["phis", "--config", str(cfg)])
    runs.append(["maxima", "--config", str(tmp_path / "pareto-cycle.cfg")])
    lines = ["from regenlab.cli import main"]
    for i, argv in enumerate(runs):
        argv = [*argv, "--out", str(tmp_path / f"run{i}")]
        # rate and tail may FAIL their verdict (exit 1) at this size
        lines.append(f"assert main({argv!r}) in (0, 1), {argv!r}")
    lines.append("assert main(['greeks', '--cycles', '1000']) == 0")
    lines.append("assert main(['bounds', 'brownian-sup-tail', '--t', '100', "
                 "'--x', '40', '--d', '1']) == 0")
    lines += [f"assert main(['certify', {name!r}]) == 0" for name in CERTIFIERS]
    assert _loaded_scipy_modules("\n".join(lines)) == []


def test_non_integer_shape_imports_scipy_lazily():
    code = ("import sys\n"
            "import numpy as np\n"
            "from regenlab.models import GammaGaussianModel\n"
            "assert 'scipy' not in sys.modules\n"
            "tau = GammaGaussianModel(tau_shape=2.5).tau_from_gaussian("
            "np.array([-1.0, 0.0, 1.0]))\n"
            "assert np.all(np.diff(tau) > 0) and tau[0] > 0")
    assert "scipy.special" in _loaded_scipy_modules(code)
