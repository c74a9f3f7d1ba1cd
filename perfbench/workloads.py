"""Workloads of the regenlab benchmark: configs, sizes, output checks, digests.

Each workload is a list of jobs, and each job is one regenlab subcommand
(``tail``, ``rate``, ``phis`` or ``certify``) with its config.  The seed is a
benchmark argument; it is written into every config (``rng.root_seed``) and
passed to ``certify --seed``, so the same seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

# Pool size of the end-to-end runs: the core count of the reference machine.
WORKERS = 2

# Chunk sizes the harness uses to split work across its pool: 50 replications
# per experiment chunk, and per-certifier Monte Carlo chunks.
HARNESS_CHUNK = 50
CERTIFY_MC = {  # name: (replications, chunk) at the certifiers' defaults
    "renewal-count": (1_000_000, 100_000),
    "random-sum": (100_000, 20_000),
    "grid-increment": (20_000, 500),
}

# Spans of the traced replay whose self time is work the harness also does;
# harness.self_s is the harness wall minus their sum.
STAGES = ("rng.stream_s", "models.sample_s", "models.tau_quantile_s",
          "coupling.embed_s", "coupling.assemble_s", "coupling.grid_s",
          "paths.evaluate_s", "coupling.w_eval_s", "coupling.sup_s",
          "coupling.decomp_s", "stats.s", "bounds.s")

_GAMMA_GAUSSIAN = """\
model.family = gamma-gaussian
model.tau_shape = 2.0
model.tau_scale = 1.0
model.beta = 0.4
model.kappa = 0.25
model.noise_cov = 0.9
model.dim = 1
coupling.mode = shared-innovations
experiment.p = 3.0
"""


@dataclass(frozen=True)
class Job:
    """One regenlab subcommand call; ``label`` names its output directory."""

    label: str
    command: str
    model: str = ""           # config text before the experiment keys
    horizons: tuple[float, ...] = ()
    extra: str = ""           # further experiment.* lines

    def config_text(self, seed: int, replications: int) -> str:
        grid = ", ".join(repr(float(t)) for t in self.horizons)
        return (f"{self.model}experiment.t_grid = {grid}\n"
                f"experiment.replications = {replications}\n"
                f"{self.extra}rng.root_seed = {seed}\n")

    def replications(self, per_horizon: int) -> int:
        """Replications one call completes (Monte Carlo ones for certify)."""
        if self.command == "certify":
            return CERTIFY_MC.get(self.label, (0, 0))[0]
        return per_horizon * len(self.horizons)


@dataclass(frozen=True)
class Workload:
    """Jobs run in order by one trial; why each was chosen is in
    BENCHMARK.json.  The sizes keep each shipped workload's shape (families,
    modes, horizons) at a fraction of its replication count."""

    name: str
    jobs: tuple[Job, ...]
    replications: int = 0                # per horizon, experiment jobs only

    def total_replications(self, per_horizon: int) -> int:
        return sum(job.replications(per_horizon) for job in self.jobs)


def _phis(family: str, model_lines: str, mode: str) -> Job:
    return Job(label=family, command="phis",
               model=(f"model.family = {family}\n{model_lines}"
                      f"coupling.mode = {mode}\nexperiment.p = 3.0\n"),
               horizons=(1024.0,))


CERTIFY_NAMES = ("poisson-inverse", "renewal-count", "block-maximal",
                 "random-sum", "grid-increment", "brownian-sup", "nagaev")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="tail-gamma",
        jobs=(Job(label="tail", command="tail", model=_GAMMA_GAUSSIAN,
                  horizons=(1024.0, 8192.0),
                  extra="experiment.c_factor = 1.5\n"),),
        replications=600),
    Workload(
        name="rate-gamma",
        jobs=(Job(label="rate", command="rate", model=_GAMMA_GAUSSIAN,
                  horizons=tuple(float(2 ** k) for k in range(10, 17))),),
        replications=100),
    Workload(
        name="phis-jump",
        jobs=(_phis("compound-jump", "", "independent"),
              _phis("mm1-busy-cycle", "", "independent"),
              _phis("pareto-cycle", "model.tail_index = 3.5\n",
                    "quantile-1d")),
        replications=100),
    Workload(
        name="certify-all",
        jobs=tuple(Job(label=name, command="certify")
                   for name in CERTIFY_NAMES)),
)}


def write_configs(workload: Workload, seed: int, replications: int,
                  directory: Path) -> None:
    """One ``<label>.cfg`` per experiment job, with the seed written in."""
    directory.mkdir(parents=True, exist_ok=True)
    for job in workload.jobs:
        if job.command != "certify":
            (directory / f"{job.label}.cfg").write_text(
                job.config_text(seed, replications))


def cli_argv(job: Job, config_dir: Path, out_dir: Path, seed: int,
             workers: int) -> list[str]:
    """Arguments of ``regenlab <command>`` for one job."""
    out = str(out_dir / job.label)
    if job.command == "certify":
        return ["certify", job.label, "--seed", str(seed),
                "--workers", str(workers), "--out", out]
    return [job.command, "--config", str(config_dir / f"{job.label}.cfg"),
            "--out", out, "--workers", str(workers)]


# -- output checks ----------------------------------------------------------


def read_report(path: Path) -> dict[str, dict[str, str]]:
    """Sections of a ``report.txt``: ``{section: {key: raw value}}``."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] = {}
    for line in path.read_text().splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif " = " in line:
            key, _, value = line.partition(" = ")
            current[key] = value
    return sections


def _check_job(job: Job, out: Path) -> list[str]:
    for name in ("results.csv", "report.txt"):
        if not (out / name).is_file() or (out / name).stat().st_size == 0:
            return [f"{job.label}: {name} missing or empty"]
    report = read_report(out / "report.txt")
    problems = []
    if job.command == "tail":
        a_hat = float(report["fit"]["a_hat"])
        spread = float(report["fit"]["horizon_spread"])
        if not (math.isfinite(a_hat) and a_hat > 0):
            problems.append(f"tail: a_hat={a_hat} is not finite and positive")
        if not spread < 10.0:
            problems.append(f"tail: per-horizon spread {spread} >= 10")
    elif job.command == "rate":
        if report["fit"]["passed"] != "true":
            problems.append(f"rate: slope {report['fit']['slope']} above "
                            f"threshold {report['fit']['threshold']}")
    elif job.command == "phis":
        diag = report["diagnostics"]
        # The acceptance suite's ceilings for the per-term audit.
        if not float(diag["max_residual"]) <= 1e-6:
            problems.append(f"{job.label}: identity residual "
                            f"{diag['max_residual']} above tolerance")
        if not float(diag["triangle_max_violation"]) <= 1e-9:
            problems.append(f"{job.label}: triangle violation "
                            f"{diag['triangle_max_violation']} above 1e-9")
    elif report["run"]["passed"] != "true":
        problems.append(f"certify {job.label}: FAIL")
    return problems


def check_outputs(workload: Workload, out_dir: Path) -> list[str]:
    """Acceptance verdicts of every job; an empty list means all hold."""
    problems = []
    for job in workload.jobs:
        try:
            problems += _check_job(job, out_dir / job.label)
        except (KeyError, ValueError, OSError) as exc:
            problems.append(f"{job.label}: unreadable output ({exc!r})")
    return problems


def digests(workload: Workload, out_dir: Path) -> dict[str, str]:
    """sha256 of each job's ``results.csv`` and ``report.txt``."""
    out = {}
    for job in workload.jobs:
        for name in ("results.csv", "report.txt"):
            path = out_dir / job.label / name
            if path.is_file():
                out[f"{job.label}/{name}"] = \
                    hashlib.sha256(path.read_bytes()).hexdigest()
    return out
