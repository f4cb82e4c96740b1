"""Fixed-seed tally benchmark for llull.

    python3 perfbench/run.py --workload ballots-unique --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout of the repository: the benchmark
imports llull from the checkout's ``src`` and fails, printing no result,
when there is none.  It generates the workload's inputs from ``--seed``,
then

* times fresh interpreters importing ``llull.cli`` (``setup_s``; every
  ``llull run`` pays it), skipped with ``--trace 1``;
* starts one worker process (``worker.py``) that tallies the inputs through
  ``llull.pipeline.run`` with JSON intermediates, exactly what ``llull run
  --json --intermediates`` does, checks every report, and times tallies for
  ``--seconds`` seconds, single-process and sequentially, with the BLAS
  thread count left at its default;
* with ``--trace 1``, also runs a traced pass that wraps each public stage
  function from outside the package and reports per-layer metrics.

It prints a readable summary, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The full record, with input properties and environment, goes to
``.perfbench_out/`` in the checkout, together with the spans of a traced
run.  ``--smoke`` shrinks every workload to a few seconds of work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170  # a run must end within 180 seconds

SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the harness")
    return parser.parse_args(argv)


def _child_env() -> dict:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def measure_setup(repeats: int) -> list[float]:
    """Wall seconds for a fresh interpreter to import ``llull.cli``.

    One untimed import first writes the bytecode cache, as the first
    ``llull run`` after installing does.
    """
    probe = "import llull.cli, sys; sys.stdout.write(llull.__file__)"
    first = subprocess.run(
        [sys.executable, "-c", probe], env=_child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    if Path(first.stdout).resolve().parent != ROOT / "src" / "llull":
        raise RuntimeError(f"imported llull from {first.stdout}, not from {ROOT / 'src'}")
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import llull.cli"], env=_child_env(), cwd=ROOT,
            capture_output=True, timeout=60, check=True,
        )
        times.append(perf_counter() - start)
    return times


def run_worker(request: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(request), capture_output=True, text=True,
        cwd=ROOT, env=_child_env(), timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def tail(samples: list[float], beyond: int = 10):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (percentile, value, samples above) by the nearest-rank rule, or
    None when the run holds too few samples.
    """
    ordered = sorted(samples)
    count = len(ordered)
    for p in (99.9, *range(99, 49, -1)):
        rank = math.ceil(p / 100 * count)
        if count - rank >= beyond:
            return p, ordered[rank - 1], count - rank
    return None


def end_to_end(jobs, worker: dict, setup: list[float]) -> tuple[dict, list[str]]:
    walls, cpus = worker["untraced"]["walls"], worker["untraced"]["cpus"]
    lines = [len(workloads.ballot_lines(job)) for job in jobs]
    tallied_lines = sum(lines[i % len(jobs)] for i in range(len(walls)))
    metrics = {
        "tally_p50_s": (statistics.median(walls), "s"),
        "cpu_per_tally_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (worker["peak_rss_kb"] / 1024, "MB"),
    }
    notes = {
        "tally_p50_s": f"median of {len(walls)} tallies",
        "cpu_per_tally_s": f"median process CPU of {len(walls)} tallies, helper threads included",
        "setup_s": f"median of {len(setup)} fresh imports of llull.cli",
        "peak_rss_mb": "peak RSS of the worker process",
    }
    found = tail(walls)
    extra = [
        f"tally_tail_s     "
        + (
            f"{found[1]:.6f} s  (p{found[0]:g} of {len(walls)} tallies, {found[2]} beyond it)"
            if found
            else f"n/a  ({len(walls)} tallies; no percentile from p50 up has 10 beyond it)"
        ),
        f"ballots_per_s    "
        + (
            f"{tallied_lines / sum(walls):.1f} 1/s  ({tallied_lines} ballot lines over {len(walls)} tallies)"
            if tallied_lines
            else "n/a  (matrix input, no ballot lines)"
        ),
    ]
    summary = [f"{name:<16} {value:.6f} {unit}  ({notes[name]})" for name, (value, unit) in metrics.items()]
    return metrics, summary + extra


def design_check(workload: workloads.Workload, shares: dict) -> str:
    """Whether the traced tally splits over the layers as the workload intends."""
    if workload.dominant:
        share = sum(shares.get(name, 0.0) for name in workload.dominant)
        ok = share >= workloads.DOMINANT_SHARE
        return (
            f"design {'holds' if ok else 'FAILS'}: {' + '.join(workload.dominant)} = "
            f"{share:.1%} of the traced tally (meant: at least {workloads.DOMINANT_SHARE:.0%})"
        )
    name, share = max(shares.items(), key=lambda kv: kv[1])
    ok = share <= workloads.FLAT_SHARE
    return (
        f"design {'holds' if ok else 'FAILS'}: largest layer {name} = "
        f"{share:.1%} of the traced tally (meant: at most {workloads.FLAT_SHARE:.0%})"
    )


def per_layer(workload: workloads.Workload, worker: dict) -> tuple[dict, list[str]]:
    traced, checked = worker["traced"], worker["checked"]
    tallies = traced["tallies"]
    selfs, calls, work = traced["self_times"], traced["calls"], traced["work"]
    metrics = {f"{name}.s": (selfs.get(name, 0.0) / tallies, "s") for _, _, name in tracing.SPANS}
    metrics["pipeline.self.s"] = (selfs.get(tracing.ROOT, 0.0) / tallies, "s")
    for name in ("matrix.turnouts", "ordering.copeland_ranks"):
        metrics[f"{name}.calls"] = (calls.get(name, 0) / tallies, "count")
    metrics["closures.relaxations"] = (work.get("closures.relaxations", 0) / tallies, "count")

    # Per-input readings from the check pass; every pass covers the jobs
    # alike, so their mean over jobs is their mean per tally.
    ok = [info for info in checked if info.get("qp_iterations") is not None]
    iterations = sum(info["qp_iterations"] for info in ok)
    active = sum(info["qp_active"] for info in ok)
    headrooms = [info["tie_headroom"] for info in ok if info["tie_headroom"] is not None]
    count = len(ok) or 1
    metrics.update(
        {
            "qp.iterations": (iterations / count, "count"),
            "qp.rows": (sum(info["qp_rows"] for info in ok) / count, "count"),
            "qp.active_set_size": (active / count, "count"),
            "qp.useful_step_ratio": (active / iterations if iterations else 0.0, "ratio"),
            "qp.kkt_residual": (max((info["kkt"] for info in ok), default=0.0), "1"),
            "rates.tie_headroom": (min(headrooms, default=0.0), "ratio"),
        }
    )
    # Both passes start at job 0 and take the jobs in turn; the traced pass
    # may cover fewer of them, so compare it with the untraced mean of the
    # same jobs.  Check-pass tallies run cold, between checks, so a job's
    # later untraced tallies stand for it where it has any.
    jobs = len(checked)
    untraced = worker["untraced"]["walls"]
    job_means = [
        statistics.fmean(untraced[jobs + j :: jobs] or untraced[j : j + 1]) for j in range(jobs)
    ]
    traced_wall = statistics.fmean(traced["walls"])
    expected = statistics.fmean(job_means[k % jobs] for k in range(len(traced["walls"])))
    metrics["trace.tally_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / expected - 1, "ratio")

    shares = {
        name[:-2]: value / traced_wall
        for name, (value, unit) in metrics.items()
        if name.endswith(".s") and value > 0
    }
    summary = [
        f"traced {tallies} tallies, {traced_wall:.6f} s each, tracing overhead "
        f"{metrics['trace.overhead_ratio'][0]:.2%}; layer self times cover "
        f"{sum(selfs.values()) / sum(traced['walls']):.2%} of it",
        "self-time share of the traced tally: "
        + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
        design_check(workload, shares),
    ]
    if traced["missing"]:
        summary.append("trace targets not found: " + ", ".join(traced["missing"]))
    return metrics, summary


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "llull" / "__init__.py").is_file():
        print(f"error: no llull sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    jobs = workloads.build(args.workload, args.seed, args.smoke)
    setup = [] if args.trace else measure_setup(2 if args.smoke else SETUP_REPEATS)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    request = {
        "jobs": [job.__dict__ for job in jobs],
        "seconds": args.seconds,
        "trace": args.trace,
        "spans_path": str(OUT / f"spans-{tag}.json"),
    }
    pinned = None
    if args.seed == checks.DEFAULT_SEED:
        reference = checks.load_reference(args.workload, args.smoke)
        if reference is None or len(reference["reports"]) != len(jobs):
            print("error: no pinned reference matches the default seed's jobs", file=sys.stderr)
            return 2
        pinned = reference["reports"]
    worker = run_worker(request, DEADLINE_S - (perf_counter() - started))

    checked = worker["checked"]
    if pinned is not None:
        for info, want in zip(checked, pinned):
            if "digest" in info:
                info["problems"] += checks.compare(info["digest"], want)
    # Every tally of a job whose checked report has a problem fails; of the
    # others, those that raised or changed their report.  Each pass takes the
    # jobs in turn from the first, the check pass included.
    timed = [worker[k] for k in ("untraced", "traced") if k in worker]
    attempted = sum(len(t["walls"]) for t in timed)
    failed = sum(
        len(t["walls"][i :: len(jobs)]) if info["problems"] else t["failed"][i]
        for t in timed
        for i, info in enumerate(checked)
    )
    ok = [info for info in checked if "n" in info]
    turnouts = [info["mean_turnout"] for info in ok if info["mean_turnout"] is not None]
    rows = [info["qp_rows"] for info in ok if info["qp_rows"] is not None]
    properties = workloads.input_properties(jobs)
    properties.update(
        n_min=min((info["n"] for info in ok), default=None),
        n_max=max((info["n"] for info in ok), default=None),
        mean_pair_turnout=statistics.fmean(turnouts) if turnouts else None,
        qp_rows=statistics.fmean(rows) if rows else None,
    )
    if args.trace:
        metrics, summary = per_layer(workloads.WORKLOADS[args.workload], worker)
    else:
        metrics, summary = end_to_end(jobs, worker, setup)
    summary.append(f"failed_ratio     {failed / attempted:.6f}  ({failed} of {attempted} tallies)")

    env = worker["environment"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}{', smoke' if args.smoke else ''}")
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']} "
        f"(thread env {env['blas_thread_env'] or 'unset'}), nproc {env['nproc']}"
    )
    print("input: " + ", ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}" for k, v in properties.items()))
    for line in summary:
        print(line)
    unchecked = sum(1 for info in ok if info["kkt"] is None)
    if unchecked:
        print(f"KKT not checked on {unchecked} inputs: no turnout program was captured")
    problems = [(i, p) for i, info in enumerate(checked) for p in info["problems"]]
    for i, problem in problems[:10]:
        print(f"check failed, job {i}: {problem}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, smoke=args.smoke,
                  environment=env, properties=properties, summary=summary,
                  problems=[f"job {i}: {p}" for i, p in problems],
                  setup_walls=setup, tally_walls={k: worker[k]["walls"] for k in ("untraced", "traced") if k in worker})
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
