"""Pin the default seed's reference reports at the current commit.

    python3 perfbench/make_reference.py [--smoke] [WORKLOAD ...]

Run this only on a commit whose output is trusted (the commit that
defines the benchmark, or after a deliberate change of the workloads);
the benchmark then requires every later commit to reproduce these
reports on the default seed.
"""

from __future__ import annotations

import argparse
import sys

import checks
import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("workload", nargs="*", default=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for name in args.workload:
        jobs = workloads.build(name, checks.DEFAULT_SEED, args.smoke)
        request = {"jobs": [job.__dict__ for job in jobs], "seconds": 0, "trace": 0}
        checked = run.run_worker(request, timeout=600)["checked"]
        failed = [info["problems"] for info in checked if info["problems"]]
        if failed:
            print(f"{name}: refusing to pin failing reports: {failed[:3]}", file=sys.stderr)
            return 1
        path = checks.write_reference(
            name, args.smoke, checks.DEFAULT_SEED, [info["digest"] for info in checked]
        )
        print(f"{name}: pinned {len(checked)} reports in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
