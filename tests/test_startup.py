"""Start-up cost: what ``import regenlab`` loads.

Every CLI call and every pool-less run pays the package import first, so
``scipy.stats`` (about half a second on its own) must stay out of it; the
exact binomial and chi-square quantities come from ``scipy.special`` and
integer arithmetic instead.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    code = ("import sys, regenlab, regenlab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy.stats' or m.startswith('scipy.stats.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
