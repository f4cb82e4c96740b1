"""Nearest-point quadratic programs over boxes and pairwise differences.

Problems here have an identity Hessian: find the Euclidean projection of a
center point onto a polyhedron cut out by per-variable bounds and two-sided
constraints on differences x_i - x_j.  Two independent solvers are provided:

* ``solve_active_set``: a dual active-set iteration.  Starting from the
  unconstrained optimum it adds the most violated constraint at a time,
  dropping blocking ones along the way; an unbounded dual step certifies
  infeasibility (``Infeasible``) and a defensive step cap ends a run that
  does not converge (``MaxIterations``).  Rows are held as index arrays, so
  pricing every row is one vectorized expression, and the inverse of the
  working set's Gram matrix is updated as rows enter and leave, in the
  manner of Goldfarb and Idnani (Math. Programming 27, 1983), so no step
  factorizes a matrix.
* ``solve_dykstra``: Dykstra's alternating projections onto the individual
  boxes and slabs.  Slower, but an entirely separate route to the same
  projection, kept for cross-validation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, MaxIterations

_DEP_TOL = 1e-11  # below this, a normal counts as dependent on the working set
_TOL = 1e-10  # active-set multipliers and slacks count as negative below -_TOL
_DYKSTRA_TOL = 1e-12  # Dykstra stops after a sweep that moves no coordinate this far
_DYKSTRA_MAX_SWEEPS = 100_000


@dataclass(frozen=True)
class QpProblem:
    """Projection target and constraints.

    ``bounds[k]`` is an optional (lo, hi) pair for variable k, either side
    may be None.  ``difference_constraints`` holds (i, j, lo, hi) meaning
    lo <= x_i - x_j <= hi.  lo == hi makes a constraint an equality.
    """

    center: tuple[float, ...]
    bounds: tuple[tuple[float | None, float | None], ...] = ()
    difference_constraints: tuple[tuple[int, int, float, float], ...] = ()

    def __post_init__(self):
        for lo, hi in self.bounds:
            if lo is not None and hi is not None and lo > hi:
                raise ValueError(f"empty bound interval [{lo}, {hi}]")
        for i, j, lo, hi in self.difference_constraints:
            if i == j:
                raise ValueError("difference constraint needs two distinct variables")
            if lo > hi:
                raise ValueError(f"empty difference interval [{lo}, {hi}]")


@dataclass(frozen=True)
class QpSolution:
    point: tuple[float, ...]
    active_set: tuple[int, ...]  # indices into `constraint_rows(problem)`
    iterations: int
    multipliers: tuple[float, ...] = ()  # aligned with active_set


@dataclass(frozen=True)
class _Rows:
    """The constraint rows as parallel arrays, in ``constraint_rows`` order.

    Row r reads ``sign[r] * (x[i[r]] - x[j[r]]) >= rhs[r]``, an equality when
    ``eq[r]``.  Bound rows have ``j[r] == d``, a padding variable that
    callers hold at zero in slot d of a length d + 1 point.
    """

    i: np.ndarray
    j: np.ndarray
    sign: np.ndarray
    rhs: np.ndarray
    eq: np.ndarray

    def slacks(self, x: np.ndarray) -> np.ndarray:
        return self.sign * (x[self.i] - x[self.j]) - self.rhs


def _row_arrays(problem: QpProblem) -> _Rows:
    """Flatten the problem into rows; the single definition of row order.

    A two-sided constraint with lo < hi yields a lower row and then a
    negated upper row; lo == hi yields a single equality row.
    """
    d = len(problem.center)
    rows: list[tuple[int, int, float, float, bool]] = []
    for k, (lo, hi) in enumerate(problem.bounds):
        if lo is not None and hi is not None and lo == hi:
            rows.append((k, d, 1.0, float(lo), True))
            continue
        if lo is not None:
            rows.append((k, d, 1.0, float(lo), False))
        if hi is not None:
            rows.append((k, d, -1.0, 0.0 - float(hi), False))
    for i, j, lo, hi in problem.difference_constraints:
        if lo == hi:
            rows.append((i, j, 1.0, float(lo), True))
            continue
        rows.append((i, j, 1.0, float(lo), False))
        rows.append((i, j, -1.0, 0.0 - float(hi), False))
    i, j, sign, rhs, eq = zip(*rows) if rows else ((),) * 5
    return _Rows(
        np.array(i, dtype=np.intp),
        np.array(j, dtype=np.intp),
        np.array(sign, dtype=float),
        np.array(rhs, dtype=float),
        np.array(eq, dtype=bool),
    )


def _padded(point, d: int) -> np.ndarray:
    x = np.zeros(d + 1)
    x[:d] = point
    return x


def constraint_rows(problem: QpProblem):
    """Flatten the problem into rows (normal, rhs, is_equality).

    Every row reads normal . x >= rhs.  A two-sided constraint with lo < hi
    yields two rows; lo == hi yields a single equality row.  Row order is
    the public indexing used in ``QpSolution.active_set``.
    """
    rows = _row_arrays(problem)
    d = len(problem.center)
    normals = np.zeros((len(rows.rhs), d + 1))
    at = np.arange(len(rows.rhs))
    normals[at, rows.i] = rows.sign
    normals[at, rows.j] = 0.0 - rows.sign
    return list(zip(normals[:, :d], rows.rhs.tolist(), rows.eq.tolist()))


class _WorkingSet:
    """Working rows with their oriented normals N and the inverse of N Nᵀ.

    Rows keep the order they entered in.  They stay linearly independent,
    so at most min(d, rows) are ever held and every buffer is sized once.
    """

    def __init__(self, capacity: int, width: int):
        self.size = 0
        self.rows = np.empty(capacity, dtype=np.intp)  # indices into the rows
        self.mults = np.empty(capacity)  # for the working orientation, kept >= 0
        self.normals = np.zeros((capacity, width))
        self.inverse = np.empty((capacity, capacity))
        self._outer = np.empty((capacity, capacity))

    def project(self, a: np.ndarray, i: int, j: int, sign: float):
        """r = (N Nᵀ)⁻¹ N a and the residual z = a - Nᵀ r of the row
        a = sign (e_i - e_j), whose product with N reads off two columns."""
        k = self.size
        normals = self.normals[:k]
        r = self.inverse[:k, :k] @ (sign * (normals[:, i] - normals[:, j]))
        return r, a - normals.T @ r

    def add(self, row: int, a: np.ndarray, r: np.ndarray, schur: float, mult: float):
        """Append row a; ``schur`` = |z|² is the Schur complement of the new
        Gram matrix, so the inverse grows by the block formula."""
        k = self.size
        inverse = self.inverse
        inverse[:k, :k] += np.outer(r, r / schur, out=self._outer[:k, :k])
        inverse[:k, k] = inverse[k, :k] = (0.0 - r) / schur
        inverse[k, k] = 1.0 / schur
        self.normals[k] = a
        self.rows[k] = row
        self.mults[k] = mult
        self.size = k + 1

    def drop(self, p: int):
        """Delete working row p; the inverse takes a rank-one downdate."""
        k = self.size
        inverse = self.inverse[:k, :k]
        col = inverse[:, p].copy()
        inverse -= np.outer(col, col / col[p], out=self._outer[:k, :k])
        self.inverse[p : k - 1, :k] = self.inverse[p + 1 : k, :k]
        self.inverse[: k - 1, p : k - 1] = self.inverse[: k - 1, p + 1 : k]
        for buf in (self.normals, self.rows, self.mults):
            buf[p : k - 1] = buf[p + 1 : k]
        self.size = k - 1


def _first_blocking(ratios: np.ndarray) -> int:
    """The ratio a scan in working-set order settles on, when a later ratio
    replaces the current one only if smaller by more than 1e-15."""
    pick = 0
    while True:
        later = np.flatnonzero(ratios[pick + 1 :] < ratios[pick] - 1e-15)
        if not later.size:
            return pick
        pick += 1 + int(later[0])


def solve_active_set(problem: QpProblem) -> QpSolution:
    """Project the center onto the polyhedron by dual active-set steps.

    Returns the unique minimizer with KKT multipliers nonnegative up to
    ``_TOL``.  Raises ``Infeasible`` when a violated constraint admits no
    bounded dual step, ``MaxIterations`` past the defensive cap of
    max(100, 10 r**2) steps for r constraint rows.

    The working normals N stay linearly independent, and the inverse of
    their Gram matrix N Nᵀ is updated per added or dropped row, so a step
    costs matrix-vector products only.
    """
    rows = _row_arrays(problem)
    d = len(problem.center)
    x = _padded(problem.center, d)
    max_iter = max(100, 10 * len(rows.rhs) ** 2)

    ws = _WorkingSet(min(d, len(rows.rhs)), d + 1)
    priced_out = rows.eq.copy()  # equalities and working rows
    flipped = np.zeros(len(rows.rhs), dtype=bool)
    iterations = 0

    def steps_onto(target: int) -> None:
        # Bring row `target` to zero slack, dropping blocking inequality rows
        # along the way.  Equalities with positive slack are approached from
        # the other side by flipping the normal, so steps stay nonnegative.
        nonlocal iterations
        i, j = rows.i[target], rows.j[target]
        sign, b, eq = rows.sign[target], rows.rhs[target], rows.eq[target]
        if eq and sign * (x[i] - x[j]) - b > 0:
            sign, b = 0.0 - sign, 0.0 - b
            flipped[target] = True
        a = np.zeros(d + 1)
        a[i] = sign
        a[j] = 0.0 - sign
        a[d] = 0.0  # the padding variable of a bound row
        accumulated = 0.0
        while True:
            iterations += 1
            if iterations > max_iter:
                raise MaxIterations(f"no convergence within {max_iter} active-set steps")
            r, z = ws.project(a, i, j, sign)
            znorm2 = float(z @ z)
            slack = float(sign * (x[i] - x[j]) - b)
            if eq and znorm2 <= _DEP_TOL:
                # Dependent equality: consistent exactly when already tight.
                # Consistent ones can be skipped for good, because at this
                # stage the working set holds only equalities, which never
                # get dropped again.
                if abs(slack) <= max(_TOL, 1e-9):
                    return
                raise Infeasible("inconsistent equality constraints")

            # Longest step before some inequality multiplier turns negative.
            mults = ws.mults[: ws.size]
            t_dual = math.inf
            drop = -1
            blocking = np.flatnonzero((r > _TOL) & ~rows.eq[ws.rows[: ws.size]])
            if blocking.size:
                ratios = mults[blocking] / r[blocking]
                pick = _first_blocking(ratios)
                t_dual = float(ratios[pick])
                drop = int(blocking[pick])
            t_full = -slack / znorm2 if znorm2 > _DEP_TOL else math.inf
            step = min(t_dual, t_full)
            if step == math.inf:
                raise Infeasible("constraint cannot be reached: empty feasible set")
            if znorm2 > _DEP_TOL:
                x[:] = x + step * z
            mults -= step * r
            accumulated += step
            if t_full <= t_dual:
                ws.add(target, a, r, znorm2, accumulated)
                priced_out[target] = True
                return
            priced_out[ws.rows[drop]] = False
            ws.drop(drop)

    # Install equality rows first.  Dual steps never drop them, so any
    # dependencies found later cannot disturb rows skipped here.
    for idx in np.flatnonzero(rows.eq):
        steps_onto(int(idx))

    while not priced_out.all():
        slacks = np.where(priced_out, math.inf, rows.slacks(x))
        worst = int(np.argmin(slacks))  # the lowest index among ties
        if not slacks[worst] < -_TOL:
            break
        steps_onto(worst)
        # A dropped row may have drifted back out; the loop re-checks all.

    work = ws.rows[: ws.size]
    order = np.argsort(work, kind="stable")
    active, mults = work[order], ws.mults[: ws.size][order]
    return QpSolution(
        point=tuple(x[:d].tolist()),
        active_set=tuple(active.tolist()),
        iterations=iterations,
        multipliers=tuple(np.where(flipped[active], 0.0 - mults, mults).tolist()),
    )


def kkt_residual(problem: QpProblem, solution: QpSolution) -> float:
    """Worst violation among feasibility, stationarity and multiplier signs."""
    rows = _row_arrays(problem)
    d = len(problem.center)
    x = _padded(solution.point, d)
    slacks = rows.slacks(x)
    infeasible = np.where(rows.eq, np.abs(slacks), 0.0 - slacks)
    mults = np.asarray(solution.multipliers, dtype=float)
    active = np.asarray(solution.active_set, dtype=np.intp)[: len(mults)]
    mults = mults[: len(active)]
    pull = mults * rows.sign[active]
    grad = x - _padded(problem.center, d)
    np.subtract.at(grad, rows.i[active], pull)
    np.add.at(grad, rows.j[active], pull)
    return max(
        0.0,
        float(infeasible.max(initial=0.0)),
        float((0.0 - mults[~rows.eq[active]]).max(initial=0.0)),
        float(np.abs(grad[:d]).max(initial=0.0)),
    )


def solve_dykstra(problem: QpProblem) -> QpSolution:
    """Dykstra's alternating projections onto the boxes and slabs.

    Used as an independent check of ``solve_active_set``; converges to the
    same projection but only asymptotically.
    """
    d = len(problem.center)
    x = np.asarray(problem.center, dtype=float).copy()

    sets: list[tuple] = []
    for k, (lo, hi) in enumerate(problem.bounds):
        if lo is not None or hi is not None:
            sets.append(("box", k, -math.inf if lo is None else lo, math.inf if hi is None else hi))
    for i, j, lo, hi in problem.difference_constraints:
        sets.append(("slab", i, j, lo, hi))
    if not sets:
        return QpSolution(tuple(x), (), 0)

    increments = [np.zeros(d) for _ in sets]
    sweeps = 0
    while True:
        sweeps += 1
        if sweeps > _DYKSTRA_MAX_SWEEPS:
            raise MaxIterations(f"Dykstra did not converge in {_DYKSTRA_MAX_SWEEPS} sweeps")
        delta = 0.0
        for si, spec in enumerate(sets):
            y = x + increments[si]
            z = y.copy()
            if spec[0] == "box":
                _, k, lo, hi = spec
                z[k] = min(max(y[k], lo), hi)
            else:
                _, i, j, lo, hi = spec
                gap = y[i] - y[j]
                shift = (gap - min(max(gap, lo), hi)) / 2.0
                z[i] -= shift
                z[j] += shift
            increments[si] = y - z
            delta = max(delta, float(np.max(np.abs(z - x))))
            x = z
        if delta < _DYKSTRA_TOL:
            break

    rows = constraint_rows(problem)
    active = tuple(
        idx
        for idx, (a, b, eq) in enumerate(rows)
        if eq or abs(float(a @ x - b)) <= 1e-8
    )
    return QpSolution(tuple(float(v) for v in x), active, sweeps)


# --------------------------------------------------------------------------
# Debug dumps for failure triage.


def problem_to_json(problem: QpProblem) -> str:
    return json.dumps(
        {
            "center": list(problem.center),
            "bounds": [list(b) for b in problem.bounds],
            "difference_constraints": [list(c) for c in problem.difference_constraints],
        },
        sort_keys=True,
    )
