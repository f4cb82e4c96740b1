"""Tally one workload's inputs in a fresh process and report what happened.

``run.py`` starts this script, writes one JSON request to its standard
input and reads one JSON result from its standard output.  The request
holds the jobs (input text and run options), the seconds to measure and
whether to run the traced pass.  The process imports llull from the
checkout's ``src`` and nothing else of the repository, so its peak RSS is
that of one ``llull run`` process plus the benchmark's bookkeeping.

Passes, in order:

1. untraced: tally every job once, capturing the turnout program to compute
   its KKT residual, and check and digest the report; then go on tallying
   the jobs in turn until the time is up, comparing each report with the
   checked one.  Every tally is timed, the first one of a job included, as
   each ``llull run`` process pays the first-call costs;
2. traced (only with ``trace``): the same passes with every stage wrapped.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_thread_env": {k: os.environ[k] for k in threads if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def check_pass(run, jobs, configs, walls: list, cpus: list) -> list[dict]:
    """Tally each job once, timing it, and check and digest its report.

    The QP capture adds one call per tally; the checks run outside the
    timed region.
    """
    from llull import rates
    from llull.qp import constraint_rows, kkt_residual

    # Headroom is read against the tie tolerance the tally used at the
    # commit that defined the benchmark, should the constant go away.
    tie_tol = getattr(rates, "TIE_TOL", 1e-9)
    results = []
    for job, config in zip(jobs, configs):
        solves: list = []
        report, error = None, None
        with tracing.capture_qp(solves):
            w0, c0 = perf_counter(), process_time()
            try:
                report = run(job["text"], config)
            except Exception as exc:  # a failed tally is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            c1, w1 = process_time(), perf_counter()
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        if error is not None:
            results.append({"report": None, "problems": [error]})
            continue
        # A tally whose turnout program did not go through the captured
        # function (say, after the solver is replaced) gets no QP readings.
        qp = dict(kkt=None, qp_rows=None, qp_iterations=None, qp_active=None)
        if solves:
            problem, solution = solves[-1]
            qp = dict(
                kkt=kkt_residual(problem, solution),
                qp_rows=len(constraint_rows(problem)),
                qp_iterations=solution.iterations,
                qp_active=len(solution.active_set),
            )
        info = checks.examine(report, qp["kkt"])
        info.update(
            qp,
            report=report,
            tie_headroom=(
                None if info["tie_margin"] is None
                else float(Fraction(info["tie_margin"])) / tie_tol
            ),
        )
        results.append(info)
    return results


def timed_passes(call, jobs, configs, checked, estimates, seconds, start, walls, cpus) -> dict:
    """Tally the jobs in turn, from job ``len(walls) % len(jobs)`` on, until
    the next tally would end more than ``seconds`` after ``start``.

    ``estimates`` holds each job's check-pass tally time, which judges the
    length of its next tally, so a run ends close to ``seconds`` instead of
    overshooting by up to a pass; at least one tally always runs.  Returns
    per job the tallies that raised or whose report differs from the
    checked one.
    """
    failed = [0] * len(jobs)
    i = len(walls) % len(jobs)
    while not walls or perf_counter() - start + estimates[i] <= seconds:
        if i == 0:
            gc.collect()
        want = checked[i]
        w0, c0 = perf_counter(), process_time()
        try:
            report = call(jobs[i]["text"], configs[i])
        except Exception:  # counted below as a failed tally
            report = None
        c1, w1 = process_time(), perf_counter()
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        failed[i] += report is None or report != want["report"]
        i = (i + 1) % len(jobs)
    return {"walls": walls, "cpus": cpus, "failed": failed}


def main() -> int:
    request = json.load(sys.stdin)
    import llull
    from llull import pipeline
    from llull.pipeline import RunConfig, parse_variant

    if Path(llull.__file__).resolve().parent != ROOT / "src" / "llull":
        print(f"imported llull from {llull.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    jobs = request["jobs"]
    configs = [
        RunConfig(
            variant=parse_variant(job["variant"]),
            json_output=True,
            intermediates=True,
            matrix_input=job["matrix_input"],
        )
        for job in jobs
    ]
    seconds = request["seconds"]
    if request["trace"]:
        # Half the time untraced, half traced, on the same jobs: the ratio of
        # the two is the tracing overhead.
        seconds /= 2
    gc.collect()
    start, walls, cpus = perf_counter(), [], []
    checked = check_pass(pipeline.run, jobs, configs, walls, cpus)
    estimates = list(walls)
    untraced = timed_passes(
        pipeline.run, jobs, configs, checked, estimates, seconds, start, walls, cpus
    )
    result = {"environment": environment(), "checked": checked, "untraced": untraced}
    if request["trace"]:
        tracer = tracing.Tracer()
        with tracer.installed() as missing:
            traced = timed_passes(
                lambda text, config: tracer.run(pipeline.run, text, config),
                jobs, configs, checked, estimates, seconds, perf_counter(), [], [],
            )
        traced.update(
            self_times=dict(tracer.self_times()),
            calls=dict(tracer.calls),
            work=dict(tracer.work),
            tallies=tracer.tally + 1,
            missing=missing,
        )
        result["traced"] = traced
        with open(request["spans_path"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "tally"], "spans": tracer.spans}, fh)
    for info in checked:
        info.pop("report")
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
