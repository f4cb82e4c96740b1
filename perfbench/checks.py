"""Output checks for the benchmark's tallies.

Every report is checked for the invariants that hold on any input: rates in
[1, N] and a turnout-program KKT residual of at most ``KKT_MAX``.  For the
default seed the report is also compared with a reference pinned from the
parent commit: the exact fields must be byte-identical and the float fields
must agree within ``FLOAT_TOL``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 1
FLOAT_TOL = 1e-9  # pinned; the tolerance of build_intervals and check_structure
KKT_MAX = 1e-8

# Fields under "intermediates" that are exact rationals or labels.
EXACT_INTERMEDIATES = ("v", "vstar", "vbar", "m", "copeland", "xi", "msigma")
FLOAT_INTERMEDIATES = ("tausigma", "gamma", "pi")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _hash(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _flat(grid) -> list[float]:
    return [float(x) for row in grid for x in row]


def examine(report: str, kkt: float | None) -> dict:
    """Digest one report and check its invariants.

    ``kkt`` is the residual of the tally's turnout program, or None when it
    could not be captured.  Returns the digest that a reference pins, the
    problems found, and the input properties read off the report.
    """
    doc = json.loads(report)
    inter = doc["intermediates"]
    names = doc["candidates"]
    n = len(names)
    rates = [doc["rates"][c] for c in names]
    exact = {f: _hash(inter[f]) for f in EXACT_INTERMEDIATES}
    exact["ranking"] = _hash(doc["ranking"])
    floats = {"rates": rates}
    floats.update({f: _flat(inter[f]) for f in FLOAT_INTERMEDIATES})

    problems = []
    outside = [r for r in rates if not 1 - FLOAT_TOL <= r <= n + FLOAT_TOL]
    if outside:
        problems.append(f"rates outside [1, {n}]: {outside}")
    if kkt is not None and not kkt <= KKT_MAX:
        problems.append(f"KKT residual {kkt:.3g} > {KKT_MAX:g}")

    turnouts = [Fraction(inter["t"][x][y]) for x in range(n) for y in range(x + 1, n)]
    superdiagonal = [abs(Fraction(inter["msigma"][i][i + 1])) for i in range(n - 1)]
    nonzero = [m for m in superdiagonal if m]
    return {
        "digest": {"exact": exact, "floats": floats},
        "problems": problems,
        "n": n,
        "mean_turnout": float(sum(turnouts) / len(turnouts)) if turnouts else None,
        "tie_margin": str(min(nonzero)) if nonzero else None,
    }


def reference_path(workload: str, smoke: bool) -> Path:
    return REFERENCE_DIR / f"{workload}{'.smoke' if smoke else ''}.json.gz"


def load_reference(workload: str, smoke: bool) -> dict | None:
    path = reference_path(workload, smoke)
    if not path.exists():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(workload: str, smoke: bool, seed: int, digests: list[dict]) -> Path:
    path = reference_path(workload, smoke)
    path.parent.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed, "float_tol": FLOAT_TOL, "reports": digests}
    # mtime=0 keeps the file byte-identical when regenerated from equal digests.
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
    return path


def compare(digest: dict, pinned: dict) -> list[str]:
    """Differences between a report digest and its pinned reference."""
    problems = [
        f"{field} differs from the reference"
        for field, value in pinned["exact"].items()
        if digest["exact"].get(field) != value
    ]
    for field, want in pinned["floats"].items():
        got = digest["floats"].get(field, [])
        if len(got) != len(want):
            problems.append(f"{field} has {len(got)} entries, reference {len(want)}")
            continue
        worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
        if worst > FLOAT_TOL:
            problems.append(f"{field} differs from the reference by {worst:.3g}")
    return problems
