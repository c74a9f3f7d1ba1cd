"""One end-to-end trial of a workload in a fresh process, tracing off.

    python3 perfbench/trial.py WORKLOAD SEED REPLICATIONS WORKERS WORKDIR

Set-up (the import, the config parse and ``reference_greeks``) happens first,
then every job of the workload runs through ``regenlab.cli.main``.  The last
line of standard output is a JSON object with the set-up end time (on the
system-wide monotonic clock, so the parent can measure from the spawn), the
wall and CPU time of the jobs, their exit codes and the peak RSS of this
process and of its largest pool worker.
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

from regenlab import cli, parse_config, reference_greeks
from workloads import WORKLOADS, cli_argv


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    name, seed, replications, workers, work = argv
    seed, replications, workers = int(seed), int(replications), int(workers)
    work = Path(work)
    workload = WORKLOADS[name]
    for job in workload.jobs:
        if job.command != "certify":
            cfg = parse_config(work / "configs" / f"{job.label}.cfg",
                               job.command)
            reference_greeks(cfg.build_model(), cfg.p)
    setup_done = time.monotonic()

    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    wall0 = time.perf_counter()
    codes = []
    with contextlib.redirect_stdout(sys.stderr):
        for job in workload.jobs:
            codes.append(cli.main(cli_argv(job, work / "configs", work / "out",
                                           seed, workers)))
    wall = time.perf_counter() - wall0
    cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    print(json.dumps({
        "setup_done": setup_done, "wall_s": wall,
        "cpu_s": cpu, "exit_codes": codes,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_worker_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
