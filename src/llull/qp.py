"""Nearest-point quadratic programs over boxes and pairwise differences.

Problems here have a positive diagonal Hessian: find the projection of a
center point, in the norm sum_k w_k x_k**2 of positive per-variable weights
w (all ones by default), onto a polyhedron cut out by per-variable bounds
and two-sided constraints on differences x_i - x_j.  Two independent
solvers are provided:

* ``solve_active_set``: a dual active-set iteration.  Every row is
  e_i - e_j or a bound on one variable, so a linearly independent working
  set is a forest over the variables and a zero node.  The equality rows
  enter first, in row order, by the same dual step as every other row, and
  never leave.  Then the most violated inequality enters at a time,
  dropping the blocking row with the smallest ratio along the way (ties
  need no rule; see ``solve_active_set``).  A step moves x by one constant
  per tree and changes multipliers along tree paths of the two trees that
  hold the ends of the entering row: a few to a few hundred nodes, kept in
  Python lists.
  Weights enter through each tree's total and subtree weights, where an
  unweighted solve reads node counts.
  An unbounded dual step certifies infeasibility (``Infeasible``) and a
  step cap ends a run that does not converge (``MaxIterations``).  Pricing
  every row is two gathers, two subtractions and an argmin over the rows
  flattened once per problem (``QpProblem.rows``).  This is the active-set
  view of isotonic-type regression (Best and Chakravarti, Math. Programming
  47, 1990) in the dual order of Goldfarb and Idnani (Math. Programming
  27, 1983), with no matrix stored or factorized.
* ``solve_dykstra``: Dykstra's alternating projections onto the individual
  boxes and slabs.  Slower, but an entirely separate route to the same
  projection, kept for cross-validation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from .errors import Infeasible, MaxIterations

_TOL = 1e-10  # active-set multipliers and slacks count as negative below -_TOL
_DYKSTRA_TOL = 1e-12  # Dykstra stops after a sweep that moves no coordinate this far
_DYKSTRA_MAX_SWEEPS = 100_000


@dataclass(frozen=True)
class _Rows:
    """The constraint rows as parallel arrays, in ``QpProblem`` row order.

    Row r reads ``sign[r] * (x[i[r]] - x[j[r]]) >= rhs[r]``, an equality when
    ``eq[r]``.  Bound rows have ``j[r] == d``, a padding variable that
    callers hold at zero in slot d of a length d + 1 point.
    """

    i: np.ndarray
    j: np.ndarray
    sign: np.ndarray
    rhs: np.ndarray
    eq: np.ndarray

    def __len__(self) -> int:
        return self.rhs.size

    def slacks(self, x: np.ndarray) -> np.ndarray:
        return self.sign * (x[self.i] - x[self.j]) - self.rhs


@dataclass(frozen=True)
class QpProblem:
    """Projection target and constraints.

    ``bounds[k]`` is an optional (lo, hi) pair for variable k, either side
    may be None.  ``difference_constraints`` holds (i, j, lo, hi) meaning
    lo <= x_i - x_j <= hi.  lo == hi makes a constraint an equality.

    ``weights`` holds the positive weight w_k of each variable in the
    objective sum_k w_k (x_k - center_k)**2; empty means all ones.

    ``rows`` holds the constraints as rows, the one row order every solver
    and ``QpSolution.active_set`` use: the bounds by variable, then the
    difference constraints in order.  A constraint with lo < hi yields a
    lower row and then a negated upper row, lo == hi a single equality row,
    and a missing side of a bound no row.  A NaN side, an empty interval, an
    equality at infinity, a center that is not finite or a weight that is
    not finite and positive raises ValueError.
    """

    center: tuple[float, ...]
    bounds: tuple[tuple[float | None, float | None], ...] = ()
    difference_constraints: tuple[tuple[int, int, float, float], ...] = ()
    weights: tuple[float, ...] = ()
    rows: _Rows = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check the problem and flatten its constraints into ``rows``, in one pass."""
        d = len(self.center)
        if len(self.bounds) > d:
            raise ValueError(f"{len(self.bounds)} bounds for {d} variables")
        if not all(map(math.isfinite, self.center)):
            k = next(k for k, c in enumerate(self.center) if not math.isfinite(c))
            raise ValueError(f"center of variable {k} is {self.center[k]}, not finite")
        if self.weights:
            if len(self.weights) != d:
                raise ValueError(f"{len(self.weights)} weights for {d} variables")
            # NaN compares false, so ``0 < w < inf`` fails on it too.
            bad = [k for k, w in enumerate(self.weights) if not 0.0 < w < math.inf]
            if bad:
                w = self.weights[bad[0]]
                raise ValueError(f"weight of variable {bad[0]} is {w}, not finite and positive")
        rows: list[tuple[int, int, float, float, bool]] = []
        # NaN compares false both ways, so ``not lo <= hi`` catches it too.
        for k, (lo, hi) in enumerate(self.bounds):
            low, high = -math.inf if lo is None else lo, math.inf if hi is None else hi
            if not low <= high or low == high and not math.isfinite(low):
                raise ValueError(f"bound of variable {k}: [{lo}, {hi}] is empty or NaN")
            if low == high:
                rows.append((k, d, 1.0, float(lo), True))
                continue
            if lo is not None:
                rows.append((k, d, 1.0, float(lo), False))
            if hi is not None:
                rows.append((k, d, -1.0, 0.0 - float(hi), False))
        for c, (i, j, lo, hi) in enumerate(self.difference_constraints):
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"difference constraint ({i}, {j}) outside variables 0..{d - 1}")
            if i == j:
                raise ValueError("difference constraint needs two distinct variables")
            if not lo <= hi or lo == hi and not math.isfinite(lo):
                raise ValueError(f"difference constraint {c}: [{lo}, {hi}] is empty or NaN")
            if lo == hi:
                rows.append((i, j, 1.0, float(lo), True))
                continue
            rows.append((i, j, 1.0, float(lo), False))
            rows.append((i, j, -1.0, 0.0 - float(hi), False))
        columns = zip(*rows) if rows else ((),) * 5
        types = (np.intp, np.intp, float, float, bool)  # i, j, sign, rhs, eq
        arrays = (np.array(column, dtype=t) for column, t in zip(columns, types))
        object.__setattr__(self, "rows", _Rows(*arrays))


@dataclass(frozen=True)
class QpSolution:
    point: tuple[float, ...]
    active_set: tuple[int, ...]  # indices into `problem.rows`
    iterations: int
    multipliers: tuple[float, ...] = ()  # aligned with active_set


def _padded(point, d: int) -> np.ndarray:
    x = np.zeros(d + 1)
    x[:d] = point
    return x


def constraint_rows(problem: QpProblem) -> _Rows:
    """The problem's rows, ``problem.rows``; ``len`` counts them."""
    return problem.rows


_NODE, _SIZE, _ROW, _SIGN, _WEIGHT = range(5)  # the fields of a tree, one list each


def _path(size: list, p: int) -> list:
    """Positions of the node at p and its ancestors, root first: from each
    ancestor, step over the child subtrees that end before p."""
    path, q = [0], 0
    while q < p:
        q += 1
        while q + size[q] <= p:
            q += size[q]
        path.append(q)
    return path


class _Forest:
    """The working rows as a forest over the variables and the zero node.

    Row ``sign (e_i - e_j)`` is an edge between nodes i and j; a bound row
    ends at node d, which stands for the constant 0 and stays the root of
    its tree.  Such rows are linearly independent exactly when their edges
    close no cycle, so a row whose ends share a tree is dependent.

    A tree is five lists over its nodes in preorder: the node, its subtree
    size, the row to its parent, that row's sign as a flow out of the
    subtree (unused at the root) and the subtree's weight, the sum of its
    nodes' ``weight``.  A subtree is a slice, a position is ``list.index``
    of the node list, and the ancestors of position p are the q <= p whose
    slice reaches p.  ``tree`` maps a node to its tree's index in
    ``trees``: d for the zero node's tree, v for node v alone, built when
    first used.  ``working`` marks the rows in the forest; ``floor`` is the
    rhs pricing reads, -inf on equality and working rows (``link`` and
    ``cut`` each flip one entry).

    Subtree weights are kept up to date by sums and differences, exact when
    the weights are integers, as the unit weights and the turnout program's
    are; a unit-weight tree's weights equal its sizes.
    """

    def __init__(self, d: int, rows: _Rows, weights: tuple[float, ...] = ()):
        self.zero, self.rows = d, rows
        self.weight = [*map(float, weights or [1.0] * d), 1.0]  # the zero node's is unused
        self.tree, self.trees = list(range(d + 1)), [None] * (d + 1)
        self.working = np.zeros(len(rows), dtype=bool)
        self.floor = np.where(rows.eq, -math.inf, rows.rhs)

    def direction(self, i: int, j: int, sign: float):
        """Split the normal a of row ``sign (e_i - e_j)`` along the working
        rows N: a = W z + Nᵀ r with N z = 0, W the diagonal of the weights.

        Returns (|z|², shifts, rows, r), where |z|² is a·z = zᵀ W z.  z is constant on each tree: on the
        trees of i and j it is the tree's entry of a over its weight W(T),
        on the zero node's tree and every other tree it is zero; ``shifts``
        pairs each tree's nodes with its nonzero constant.  r is the flow
        that carries a's entries to w·z, on the ``rows`` it is nonzero on, by
        tree (i's first) in preorder: a subtree's weight times its share of
        -coeff / W(T), plus coeff on v's root path.  ``paths`` keeps the
        root paths of i and j."""
        ti, tj = self.tree[i], self.tree[j]
        if ti == tj:
            nodes, size, row, sgn, _ = self.trees[ti]
            path_i = set(_path(size, nodes.index(i)))
            path = sorted(path_i.symmetric_difference(_path(size, nodes.index(j))))
            r = [sgn[q] * (sign if q in path_i else 0.0 - sign) for q in path]
            return 0.0, (), [row[q] for q in path], r
        znorm2, shifts, rows, r, paths = 0.0, [], [], [], []
        for k, v, coeff in ((ti, i, sign), (tj, j, 0.0 - sign)):
            # Built on first use.
            self.trees[k] = t = self.trees[k] or [[k], [1], [-1], [0], [self.weight[k]]]
            nodes, size, row, sgn, weight = t
            n = len(nodes)
            path = [0] if v == self.zero or n == 1 else _path(size, nodes.index(v))
            paths.append(path)
            if k != self.zero:
                total = weight[0]
                znorm2 += 1.0 / total
                shifts.append((nodes, coeff / total))
                if n > 1:
                    # Each subtree's share of -coeff, plus coeff on v's root path.
                    base, at = 0.0 - coeff / total, len(r) - 1
                    rows += row[1:]
                    r += [g * (s * base) for g, s in zip(sgn[1:], weight[1:])]
                    for q in path[1:]:
                        r[at + q] = sgn[q] * (weight[q] * base + coeff)
            elif v != self.zero:
                rows += [row[q] for q in path[1:]]
                r += [sgn[q] * coeff for q in path[1:]]
        self.paths = paths
        return znorm2, shifts, rows, r

    def link(self, row: int, i: int, j: int, sign: float) -> None:
        """Add row ``sign (e_i - e_j)``, whose ends lie in different trees,
        right after ``direction(i, j, sign)``: the tree of one end is
        re-rooted there, turning the rows on its root path, and hung under
        the other end."""
        ti, tj = self.tree[i], self.tree[j]
        smaller = len(self.trees[ti][_NODE]) <= len(self.trees[tj][_NODE])
        if tj == self.zero or (ti != self.zero and smaller):
            top, hung, (path, up), orient = tj, ti, self.paths, sign
        else:
            top, hung, (up, path), orient = ti, tj, self.paths, 0.0 - sign
        sub, p = self.trees[hung], path[-1]
        if p:
            _, size, to_parent, sgn, weight = sub
            n, total = len(sub[_NODE]), weight[0]
            span, held = [size[q] for q in path], [weight[q] for q in path[1:]]
            # The root-path subtrees nest; the new preorder takes p's subtree,
            # then each enclosing one minus the next one in, innermost first.
            parts = [(p, p + span[-1])]
            for q, inner, s, s_in, w_in in zip(path, path[1:], span, span[1:], held):
                parts[1:1] = ((q, inner), (inner + s_in, q + s))
                size[q], to_parent[q], sgn[q] = n - s_in, to_parent[inner], 0 - sgn[inner]
                weight[q] = total - w_in
            size[p], weight[p] = n, total
            sub = [list(chain.from_iterable(old[a:b] for a, b in parts)) for old in sub]
        sub[_ROW][0], sub[_SIGN][0] = row, orient
        self.working[row], self.floor[row] = True, -math.inf
        t, at = self.trees[top], up[-1] + 1
        n, total = len(sub[_NODE]), sub[_WEIGHT][0]
        for q in up:
            t[_SIZE][q] += n
            t[_WEIGHT][q] += total
        for part, add in zip(t, sub):
            part[at:at] = add
        for v in sub[_NODE]:
            self.tree[v] = top
        self.trees[hung] = None

    def cut(self, i: int, j: int) -> None:
        """Drop working row (i, j); the subtree of its child end, the one
        later in preorder, becomes a tree."""
        t = self.trees[self.tree[i]]
        nodes, size, row, _, weight = t
        p = max(nodes.index(i), nodes.index(j))
        n, total, dropped = size[p], weight[p], row[p]
        self.working[dropped], self.floor[dropped] = False, self.rows.rhs[dropped]
        for q in _path(size, p)[:-1]:
            size[q] -= n
            weight[q] -= total
        sub = [part[p : p + n] for part in t]
        for part in t:
            del part[p : p + n]
        for v in sub[_NODE]:
            self.tree[v] = len(self.trees)
        self.trees.append(sub)


def solve_active_set(problem: QpProblem) -> QpSolution:
    """Project the center onto the polyhedron, in the problem's weighted
    norm, by dual active-set steps.

    Returns the unique minimizer with KKT multipliers nonnegative up to
    ``_TOL``.  Raises ``Infeasible`` when a violated constraint admits no
    bounded dual step, ``MaxIterations`` past the defensive cap of
    max(100, 10 r**2) steps for r constraint rows.

    The working rows form a forest (``_Forest``).  The equality rows enter
    first, in row order, by the same step as an inequality.  Their
    multipliers are unrestricted, so none blocks or leaves.  An equality row
    whose ends already share a tree is dependent: it must hold within
    max(_TOL, 1e-9), or the equalities are inconsistent (``Infeasible``).
    Every equality row counts one step, linked or dependent.  Then two rules
    choose the rows of the dual steps:

    * the most violated inequality enters: the lowest index among
      float-equal slacks.  Rows whose slacks tie exactly in rationals (tie
      equalities make many) are told apart by their last-bit rounding, so
      the lowest index of an exact tie need not be the one that enters;
    * the blocking row with the smallest ratio of multiplier to flow
      leaves: on float-equal ratios, the first in ``direction``'s row order.

    Ties need no finer rule.  Whichever tied row is taken, every inequality
    multiplier stays nonnegative and the working rows stay independent, so
    the dual method still ends (Goldfarb and Idnani, 1983): a row that
    enters raises the dual objective, since it was violated, and between
    two entries only working rows drop.  The point it ends at is the unique
    projection; a tie only picks among optimal working sets.
    """
    rows, d, n_rows = problem.rows, len(problem.center), len(problem.rows)
    x, max_iter = _padded(problem.center, d), max(100, 10 * n_rows**2)
    forest, ineq = _Forest(d, rows, problem.weights), (~rows.eq).tolist()
    mults = [0.0] * n_rows  # inequality ones kept >= 0
    iterations = 0
    # Dual steps never drop equality rows, so no later step disturbs them.
    equalities = iter(np.flatnonzero(rows.eq).tolist())
    # Row r reads x[a[r]] - x[b[r]] >= forest.floor[r], its sign taken in.
    a, b = np.where(rows.sign > 0, rows.i, rows.j), np.where(rows.sign > 0, rows.j, rows.i)
    while n_rows:
        target = next(equalities, -1)
        if target < 0:
            slacks = x[a]
            slacks -= x[b]
            slacks -= forest.floor
            target = int(slacks.argmin())
            if not slacks[target] < -_TOL:
                break
        # Bring the row to zero slack, dropping blocking rows along the way.
        i, j = rows.i.item(target), rows.j.item(target)
        sign, rhs = rows.sign.item(target), rows.rhs.item(target)
        accumulated = 0.0
        while True:
            iterations += 1
            if iterations > max_iter:
                raise MaxIterations(f"no convergence within {max_iter} active-set steps")
            znorm2, shifts, tree_rows, r = forest.direction(i, j, sign)
            slack = sign * (x.item(i) - x.item(j)) - rhs
            if not (znorm2 or ineq[target]):  # a dependent equality row
                if abs(slack) > max(_TOL, 1e-9):
                    raise Infeasible("inconsistent equality constraints")
                break
            # Longest step before some inequality multiplier turns negative.
            t_dual, drop = math.inf, -1
            for row, flow in zip(tree_rows, r):
                if flow > _TOL and ineq[row] and (ratio := mults[row] / flow) < t_dual:
                    t_dual, drop = ratio, row
            t_full = -slack / znorm2 if znorm2 else math.inf
            step = min(t_dual, t_full)
            if step == math.inf:
                raise Infeasible("constraint cannot be reached: empty feasible set")
            for nodes, shift in shifts:
                delta = step * shift
                if len(nodes) <= 4:  # below an index array's cost
                    for v in nodes:
                        x[v] += delta
                else:
                    x[np.array(nodes, dtype=np.intp)] += delta
            for row, flow in zip(tree_rows, r):
                mults[row] -= step * flow
            accumulated += step
            if t_full <= t_dual:
                forest.link(target, i, j, sign)
                mults[target] = accumulated
                break
            forest.cut(rows.i.item(drop), rows.j.item(drop))
        # A dropped row may have drifted back out; the loop re-checks all.

    active = np.flatnonzero(forest.working).tolist()
    point, multipliers = x[:d].tolist(), [mults[k] for k in active]
    return QpSolution(tuple(point), tuple(active), iterations, tuple(multipliers))


def kkt_residual(problem: QpProblem, solution: QpSolution) -> float:
    """Worst violation of feasibility, complementary slackness, stationarity or multiplier signs.

    Stationarity reads the gradient of the weighted objective, w·(x - center).
    """
    rows, d = problem.rows, len(problem.center)
    x = _padded(solution.point, d)
    slacks = rows.slacks(x)
    infeasible = np.where(rows.eq, np.abs(slacks), 0.0 - slacks)
    mults = np.asarray(solution.multipliers, dtype=float)
    active = np.asarray(solution.active_set, dtype=np.intp)[: len(mults)]
    mults = mults[: len(active)]
    pull = mults * rows.sign[active]
    grad = x - _padded(problem.center, d)
    if problem.weights:
        grad[:d] *= problem.weights
    np.subtract.at(grad, rows.i[active], pull)
    np.add.at(grad, rows.j[active], pull)
    worst = (infeasible, np.abs(slacks[active]), 0.0 - mults[~rows.eq[active]], np.abs(grad[:d]))
    worst = np.max([v.max(initial=0.0) for v in worst])  # NaN if any term is NaN
    return math.inf if math.isnan(worst) else float(worst)  # no bound accepts NaN


def solve_dykstra(problem: QpProblem) -> QpSolution:
    """Dykstra's alternating projections onto the boxes and slabs.

    Used as an independent check of ``solve_active_set``; converges to the
    same projection but only asymptotically.  It reports the point and the
    sweep count, and no active set.  Each projection is in the weighted
    norm: a box clips, and a slab splits its correction between x_i and x_j
    in the ratio 1/w_i : 1/w_j, halves under unit weights.
    """
    x = [float(c) for c in problem.center]
    w = problem.weights or (1.0,) * len(x)
    # Per set: the coordinates, the interval and, for a slab, the shares of
    # x_i and x_j in its correction.
    sets = [
        (k, None, -math.inf if lo is None else float(lo), math.inf if hi is None else float(hi))
        + (1.0, 0.0)
        for k, (lo, hi) in enumerate(problem.bounds)
        if lo is not None or hi is not None
    ] + [
        (i, j, float(lo), float(hi), w[j] / (w[i] + w[j]), w[i] / (w[i] + w[j]))
        for i, j, lo, hi in problem.difference_constraints
    ]
    if not sets:
        return QpSolution(tuple(x), (), 0)
    increments = [(0.0, 0.0)] * len(sets)  # per set: on x_i, and on x_j for a slab
    for sweeps in range(1, _DYKSTRA_MAX_SWEEPS + 1):
        delta = 0.0
        for s, (i, j, lo, hi, share_i, share_j) in enumerate(sets):
            y_i = x[i] + increments[s][0]
            if j is None:
                z_i = min(max(y_i, lo), hi)
                increments[s], delta = (y_i - z_i, 0.0), max(delta, abs(z_i - x[i]))
                x[i] = z_i
                continue
            y_j = x[j] + increments[s][1]
            gap = y_i - y_j
            excess = gap - min(max(gap, lo), hi)
            z_i, z_j = y_i - excess * share_i, y_j + excess * share_j
            increments[s] = (y_i - z_i, y_j - z_j)
            delta = max(delta, abs(z_i - x[i]), abs(z_j - x[j]))
            x[i], x[j] = z_i, z_j
        if delta < _DYKSTRA_TOL:
            break
    else:
        raise MaxIterations(f"Dykstra did not converge in {_DYKSTRA_MAX_SWEEPS} sweeps")
    return QpSolution(tuple(x), (), sweeps)


def problem_to_json(problem: QpProblem) -> str:
    """The problem as one line of JSON, for failure reports."""
    inputs = {f.name: getattr(problem, f.name) for f in fields(problem) if f.init}
    return json.dumps(inputs, sort_keys=True)
