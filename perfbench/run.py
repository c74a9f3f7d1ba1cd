"""Benchmark of regenlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it repeats end-to-end
trials of the workload for about ``--seconds`` seconds (at least three), each
a fresh process running the workload's regenlab subcommands at
``workers=2``, checks every trial's outputs and prints the median of each
end-to-end metric.  With ``--trace 1`` it makes one traced run
(``traced.py``, ``workers=1``) plus one ``workers=2`` trial, requires equal
output digests from the two, and prints the per-layer metrics.

The last line of standard output is the JSON result; the exit status is 0
only when every output check held.  Without ``src/regenlab`` beside it the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (STAGES, WORKERS, WORKLOADS, check_outputs, digests,
                       write_configs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_TRIALS = 3
BUDGET_S = 150.0          # no trial starts after this; the run ends by 180 s
RECORDED_DIGESTS = HERE / "digests.json"


def _env() -> dict[str, str]:
    env = dict(os.environ)
    # One BLAS thread per process: the pool's workers already fill the cores.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _run(args: list[str], timeout: float) -> tuple[int, str, str]:
    """Run a Python script of the benchmark in its own process group; on
    timeout the whole group (pool workers included) is killed."""
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {timeout:.0f} s"
    return proc.returncode, out, err


def _last_json(text: str) -> dict | None:
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def environment() -> dict:
    """Core count, cache sizes and library versions of this machine."""
    import numpy
    import scipy
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "caches_per_core_or_shared": caches,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_per_process": 1}


class Run:
    """One benchmark invocation: its workload, seed and work directory."""

    def __init__(self, name: str, seed: int, replications: int | None):
        self.workload = WORKLOADS[name]
        self.seed = seed % 2 ** 64        # any integer gives a valid seed
        self.replications = (self.workload.replications if replications is None
                             else replications)
        self.started = time.monotonic()
        self.work = HERE / ".work" / f"{name}-{seed}-{os.getpid()}"
        if not (ROOT / "src" / "regenlab" / "__init__.py").is_file():
            raise FileNotFoundError(f"no regenlab under {ROOT / 'src'}")
        shutil.rmtree(self.work, ignore_errors=True)
        write_configs(self.workload, seed, self.replications,
                      self.work / "configs")

    def remaining(self) -> float:
        return BUDGET_S - (time.monotonic() - self.started)

    def trial(self, checker) -> tuple[dict | None, list[str], dict]:
        """One workers=2 trial: (timings, problems, output digests)."""
        shutil.rmtree(self.work / "out", ignore_errors=True)
        spawned = time.monotonic()
        code, out, err = _run(
            [str(HERE / "trial.py"), self.workload.name, str(self.seed),
             str(self.replications), str(WORKERS), str(self.work)],
            self.remaining() + 25.0)
        record = _last_json(out)
        if code != 0 or record is None:
            return None, [f"trial exited {code}: {err[-2000:]}"], {}
        record["setup_s"] = record["setup_done"] - spawned
        problems = [f"{job.label}: regenlab exited {c}" for job, c
                    in zip(self.workload.jobs, record["exit_codes"]) if c != 0]
        problems += checker(self.workload, self.work / "out")
        return record, problems, digests(self.workload, self.work / "out")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _digest_notes(name: str, seed: int, found: dict) -> list[str]:
    """Flag (never fail) outputs whose bytes differ from the recorded ones."""
    if not RECORDED_DIGESTS.is_file():
        return []
    recorded = json.loads(RECORDED_DIGESTS.read_text()).get(name, {})
    expected = recorded.get(str(seed))
    if expected is None or expected == found:
        return []
    return [f"note: {file} bytes differ from the recorded digest for seed "
            f"{seed}" for file in sorted(found)
            if expected.get(file) != found[file]]


def measure(run: Run, seconds: float, checker=check_outputs,
            min_trials: int = MIN_TRIALS) -> tuple[dict, int, int, list[str]]:
    """End-to-end trials until ``seconds`` pass; medians of their metrics."""
    deadline = run.started + seconds
    good, durations, lines = [], [], []
    attempted = failed = 0
    first = None
    while attempted < min_trials or (
            time.monotonic() + statistics.median(durations) <= deadline):
        if attempted and run.remaining() < statistics.median(durations):
            break
        begun = time.monotonic()
        record, problems, found = run.trial(checker)
        durations.append(time.monotonic() - begun)
        attempted += 1
        if record is not None:
            first = found if first is None else first
            if found != first:
                problems.append("outputs differ between trials of one seed")
        if problems:
            failed += 1
            lines += [f"trial {attempted}: {p}" for p in problems]
        else:
            good.append(record)
            lines.append(f"trial {attempted}: wall_s={record['wall_s']:.4f} "
                         f"setup_s={record['setup_s']:.4f} "
                         f"cpu_s={record['cpu_s']:.4f}")
    if first:
        lines += _digest_notes(run.workload.name, run.seed, first)
        lines += [f"sha256 {file} {digest}" for file, digest in first.items()]
    reps = run.workload.total_replications(run.replications)

    def median(values):
        return float(statistics.median(values)) if values else 0.0

    metrics = {
        "wall_s": median([r["wall_s"] for r in good]),
        "setup_s": median([r["setup_s"] for r in good]),
        "reps_per_s": median([reps / r["wall_s"] for r in good]),
        "cpu_s": median([r["cpu_s"] for r in good]),
        "peak_rss_mb": median([(r["rss_self_kb"] + r["rss_worker_kb"]) / 1024
                               for r in good]),
        "ok_share": (attempted - failed) / attempted,
    }
    return metrics, attempted, failed, lines


def trace(run: Run, checker=check_outputs) -> tuple[dict, int, int, list[str]]:
    """The traced workers=1 run and one workers=2 trial to compare with."""
    shutil.rmtree(run.work / "out", ignore_errors=True)
    code, out, err = _run([str(HERE / "traced.py"), run.workload.name,
                           str(run.seed), str(run.replications),
                           str(run.work)], run.remaining() + 25.0)
    record = _last_json(out)
    lines, failed = [], 0
    if code != 0 or record is None:
        lines.append(f"traced run exited {code}: {err[-2000:]}")
        record = {"metrics": {}, "problems": [], "digests": {}}
        failed += 1
    elif record["problems"]:
        lines += [f"traced run: {p}" for p in record["problems"]]
        failed += 1
    _, problems, found = run.trial(checker)
    if record["digests"] and found != record["digests"]:
        problems.append("workers=1 and workers=2 outputs differ")
    if problems:
        failed += 1
        lines += [f"workers=2 trial: {p}" for p in problems]
    metrics = record["metrics"]
    harness = metrics.get("harness.run_s", 0.0)
    parts = [name for name in (*STAGES, "harness.self_s") if metrics.get(name)]
    for name in parts:
        share = metrics[name] / harness if harness else 0.0
        lines.append(f"  {name:<24} {metrics[name]:10.4f} s "
                     f"{100 * share:6.1f}% of harness.run_s")
    lines.append(f"  {'sum':<24} {sum(metrics[n] for n in parts):10.4f} s "
                 f"= harness.run_s {harness:.4f} s at workers=1")
    return metrics, 2, failed, lines


def main(argv: list[str] | None = None, replications: int | None = None,
         checker=check_outputs, min_trials: int = MIN_TRIALS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        run = Run(args.workload, args.seed, replications)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            values, attempted, failed, lines = trace(run, checker)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed, lines = measure(
                run, args.seconds, checker, min_trials)
            wanted = spec["end_to_end"]
    finally:
        run.close()
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    for line in lines:
        print(line)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
