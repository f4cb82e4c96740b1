"""Nearest-point quadratic programs over boxes and pairwise differences.

Problems here have an identity Hessian: find the Euclidean projection of a
center point onto a polyhedron cut out by per-variable bounds and two-sided
constraints on differences x_i - x_j.  Two independent solvers are provided:

* ``solve_active_set``: a dual active-set iteration.  Every row is
  e_i - e_j or a bound on one variable, so a linearly independent working
  set is a forest over the variables and a zero node.  The equality rows
  enter first, in one pass: the projection onto them is known in closed
  form, tree by tree.  Then the most violated inequality enters at a time,
  dropping the blocking row with the smallest ratio along the way (ties in
  either choice need no rule; see ``solve_active_set``).  Each step moves x
  by one constant per tree and changes multipliers along tree paths,
  touching only the two trees that hold the ends of the entering row.  An
  unbounded dual step certifies infeasibility (``Infeasible``) and a
  defensive step cap ends a run that does not converge (``MaxIterations``).
  Each problem flattens its constraints into index arrays once, when it
  is built (``QpProblem.rows``), so pricing every row is one vectorized
  expression.  This is the active-set view of isotonic-type regression
  (Best and Chakravarti, Math. Programming 47, 1990) in the dual order of
  Goldfarb and Idnani (Math. Programming 27, 1983), with no matrix stored
  or factorized.
* ``solve_dykstra``: Dykstra's alternating projections onto the individual
  boxes and slabs.  Slower, but an entirely separate route to the same
  projection, kept for cross-validation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

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

    ``rows`` holds the constraints as rows, the one row order every solver
    and ``QpSolution.active_set`` use: the bounds by variable, then the
    difference constraints in order.  A constraint with lo < hi yields a
    lower row and then a negated upper row, lo == hi a single equality row,
    and a missing side of a bound no row.
    """

    center: tuple[float, ...]
    bounds: tuple[tuple[float | None, float | None], ...] = ()
    difference_constraints: tuple[tuple[int, int, float, float], ...] = ()
    rows: _Rows = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check the constraints and flatten them into ``rows``, in one pass."""
        d = len(self.center)
        if len(self.bounds) > d:
            raise ValueError(f"{len(self.bounds)} bounds for {d} variables")
        rows: list[tuple[int, int, float, float, bool]] = []
        for k, (lo, hi) in enumerate(self.bounds):
            if lo is not None and hi is not None:
                if lo > hi:
                    raise ValueError(f"empty bound interval [{lo}, {hi}]")
                if lo == hi:
                    rows.append((k, d, 1.0, float(lo), True))
                    continue
            if lo is not None:
                rows.append((k, d, 1.0, float(lo), False))
            if hi is not None:
                rows.append((k, d, -1.0, 0.0 - float(hi), False))
        for i, j, lo, hi in self.difference_constraints:
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"difference constraint ({i}, {j}) outside variables 0..{d - 1}")
            if i == j:
                raise ValueError("difference constraint needs two distinct variables")
            if lo > hi:
                raise ValueError(f"empty difference interval [{lo}, {hi}]")
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


_NODE, _SIZE, _ROW, _SIGN = range(4)  # the fields of a tree, one array row each


class _Forest:
    """The working rows as a forest over the variables and the zero node.

    Row ``sign (e_i - e_j)`` is an edge between nodes i and j; a bound row
    ends at node d, which stands for the constant 0 and stays the root of
    its tree.  Such rows are linearly independent exactly when their edges
    close no cycle, so a row whose ends share a tree is dependent.

    A tree is a 4 x size int array over its nodes in preorder: the node,
    its subtree size, the row to its parent and that row's sign as a flow
    out of the subtree (row and sign are unused at the root).  A subtree is
    then a slice, and the ancestors of the node at position p are the
    positions q <= p whose slice reaches p.  No two trees share memory.
    Trees are numbered; the zero node's tree keeps number d throughout.
    ``working`` marks the rows in the forest; ``span`` starts it.
    """

    def __init__(self, d: int):
        self.zero = d
        self.tree = np.arange(d + 1)  # tree id of each node
        self.pos = np.zeros(d + 1, dtype=np.intp)  # its position in the tree
        self.at = np.arange(d + 1)
        single = np.zeros((d + 1, 4, 1), dtype=np.intp)
        single[:, _NODE, 0] = self.at
        single[:, _SIZE, 0] = 1
        self.trees = list(single)  # by tree id

    def _path(self, tree: np.ndarray, p: int) -> np.ndarray:
        """Positions of the node at p and its ancestors, root first."""
        return (tree[_SIZE, : p + 1] > p - self.at[: p + 1]).nonzero()[0]

    def direction(self, i: int, j: int, sign: float):
        """Split the normal a of row ``sign (e_i - e_j)`` along the working
        rows: a = z + Nᵀ r with z orthogonal to every working row.

        Returns (|z|², shifts, rows, r).  z is constant on each tree: on the
        trees of i and j it is the tree's mean of a, on the zero node's tree
        and every other tree it is zero; ``shifts`` pairs each tree's nodes
        with its nonzero constant.  r is the flow that carries a's entries
        to those means, given on ``rows``.
        """
        tree, pos, zero = self.tree, self.pos, self.zero
        ti, tj = tree.item(i), tree.item(j)
        if ti == tj:
            t = self.trees[ti]
            flow = np.zeros(t.shape[1])
            flow[self._path(t, pos.item(i))] += sign
            flow[self._path(t, pos.item(j))] -= sign
            return 0.0, (), t[_ROW, 1:], t[_SIGN, 1:] * flow[1:]
        znorm2, shifts, parts = 0.0, [], []
        for k, v, coeff in ((ti, i, sign), (tj, j, 0.0 - sign)):
            t = self.trees[k]
            n = t.shape[1]
            if k != zero:
                znorm2 += 1.0 / n
                shifts.append((t[_NODE], coeff / n))
                if n > 1:
                    flow = t[_SIZE] * (0.0 - coeff / n)
                    flow[self._path(t, pos.item(v))] += coeff
                    parts.append((t[_ROW, 1:], t[_SIGN, 1:] * flow[1:]))
            elif v != zero:
                path = self._path(t, pos.item(v))[1:]
                parts.append((t[_ROW, path], t[_SIGN, path] * coeff))
        if len(parts) == 2:
            (rows_i, r_i), (rows_j, r_j) = parts
            return znorm2, shifts, np.concatenate((rows_i, rows_j)), np.concatenate((r_i, r_j))
        rows, r = parts[0] if parts else (self.at[:0], np.empty(0))
        return znorm2, shifts, rows, r

    def span(self, rows: _Rows, eq: np.ndarray, x: np.ndarray, mults: np.ndarray) -> None:
        """Link the equality rows ``eq`` into this forest of single nodes, move
        x from the center onto them and set their multipliers, in one pass.

        Union-find in row order links, and marks working, the rows that
        steps one at a time would; a dependent row must hold at the new x.  A
        component's tree is rooted at its largest node (the zero node when it
        holds it) and takes that node's number.  Offsets add up ``sign * rhs``
        down the tree; x is the offsets in the zero node's tree and the
        offsets plus the mean of ``center - offset`` elsewhere.  A row's
        multiplier is its sign as a flow times the subtree sum of x - center.
        """
        self.working = np.zeros(rows.rhs.size, dtype=bool)
        up = list(range(self.zero + 1))  # union-find links, each to a larger node
        def root(v: int) -> int:
            while up[v] != v:
                up[v] = v = up[up[v]]
            return v
        edges: dict[int, list] = {}  # node -> (neighbour, row, its sign as a flow, rhs)
        dependent = []
        ends = (a[eq].tolist() for a in (rows.i, rows.j, rows.sign, rows.rhs))
        for r, i, j, s, b in zip(eq.tolist(), *ends):
            low, high = sorted((root(i), root(j)))
            if low == high:
                dependent.append(r)
                continue
            up[low] = high
            edges.setdefault(i, []).append((j, r, 0.0 - s, b))
            edges.setdefault(j, []).append((i, r, s, b))
        for top in sorted(v for v in edges if up[v] == v):
            order = [(top, 0, -1, 0, 0.0)]  # node, parent position, row, sign, offset
            stack = [(u, 0, *e) for u, *e in edges[top]]
            while stack:  # depth first, so subtrees come out contiguous
                v, p, r, s, b = stack.pop()
                stack.extend((u, len(order), *e) for u, *e in edges[v] if e[0] != r)
                order.append((v, p, r, s, order[p][4] + s * b))
            nodes, parent, row, sign, offset = zip(*order)
            center, point, spread = x[list(nodes)], np.array(offset), 0.0
            if top != self.zero:
                point += math.fsum((center - point).tolist()) / len(nodes)
                # x - center sums to that mean's rounding: spread it evenly.
                spread = np.mean(point - center)
            x[list(nodes)] = point
            size, below = [1] * len(nodes), (point - center - spread).tolist()
            for q in range(len(nodes) - 1, 0, -1):
                size[parent[q]] += size[q]
                below[parent[q]] += below[q]
            self.working[list(row[1:])] = True
            mults[list(row[1:])] = [s * g for s, g in zip(sign[1:], below[1:])]
            for v in nodes[1:]:
                self.trees[v] = None
            self._place(top, np.array((nodes, size, row, sign), dtype=np.intp))
        if np.abs(rows.slacks(x)[dependent]).max(initial=0.0) > max(_TOL, 1e-9):
            raise Infeasible("inconsistent equality constraints")

    def _place(self, k: int, tree: np.ndarray) -> None:
        self.trees[k] = tree
        self.tree[tree[_NODE]] = k
        self.pos[tree[_NODE]] = self.at[: tree.shape[1]]

    def _reroot(self, k: int, v: int) -> None:
        """Make v the root of tree k, turning the rows on its root path."""
        t = self.trees[k]
        p = self.pos.item(v)
        if p == 0:
            return
        n = t.shape[1]
        path = self._path(t, p)
        span = t[_SIZE, path]
        # The root-path subtrees nest; a node's new preorder position puts
        # the innermost subtree that holds it first.
        starts = np.bincount(path, minlength=n + 1)
        depth = np.cumsum(starts - np.bincount(path + span, minlength=n + 1))
        order = np.argsort(0 - depth[:n], kind="stable")
        t[_SIZE, path[:-1]] = n - span[1:]
        t[_SIZE, p] = n
        t[_ROW, path[:-1]] = t[_ROW, path[1:]]
        t[_SIGN, path[:-1]] = 0 - t[_SIGN, path[1:]]
        self._place(k, t[:, order])

    def link(self, row: int, i: int, j: int, sign: float) -> None:
        """Add row ``sign (e_i - e_j)``, whose ends lie in different trees:
        the tree of one end is re-rooted there and hung under the other."""
        ti, tj = self.tree.item(i), self.tree.item(j)
        smaller = self.trees[ti].shape[1] <= self.trees[tj].shape[1]
        if tj == self.zero or (ti != self.zero and smaller):
            top, hung, u, v, orient = tj, ti, j, i, sign
        else:
            top, hung, u, v, orient = ti, tj, i, j, 0.0 - sign
        self._reroot(hung, v)
        self.working[row] = True
        sub = self.trees[hung]
        sub[_ROW, 0], sub[_SIGN, 0] = row, orient
        t = self.trees[top]
        p = self.pos.item(u)
        t[_SIZE, self._path(t, p)] += sub.shape[1]
        self.trees[hung] = None
        self._place(top, np.concatenate((t[:, : p + 1], sub, t[:, p + 1 :]), axis=1))

    def cut(self, i: int, j: int) -> None:
        """Drop working row (i, j); the subtree of its child end, the one
        later in preorder, becomes a tree."""
        k = self.tree.item(i)
        t = self.trees[k]
        p = max(self.pos.item(i), self.pos.item(j))
        size = t.item(_SIZE, p)
        self.working[t.item(_ROW, p)] = False
        t[_SIZE, self._path(t, p)[:-1]] -= size
        self._place(k, np.concatenate((t[:, :p], t[:, p + size :]), axis=1))
        self.trees.append(None)
        self._place(len(self.trees) - 1, t[:, p : p + size])


def solve_active_set(problem: QpProblem) -> QpSolution:
    """Project the center onto the polyhedron by dual active-set steps.

    Returns the unique minimizer with KKT multipliers nonnegative up to
    ``_TOL``.  Raises ``Infeasible`` when a violated constraint admits no
    bounded dual step, ``MaxIterations`` past the defensive cap of
    max(100, 10 r**2) steps for r constraint rows.

    The working rows form a forest (``_Forest``).  The equality rows go in
    first, in one pass (``_Forest.span``), and count one step each, linked
    or dependent; then each dual step touches only the two trees holding
    the ends of the row it brings in.  Two rules choose the rows:

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
    rows = problem.rows
    d = len(problem.center)
    x = _padded(problem.center, d)
    n_rows = len(rows)
    max_iter = max(100, 10 * n_rows**2)
    forest = _Forest(d)
    mults = np.zeros(n_rows)  # inequality ones kept >= 0
    ineq = ~rows.eq

    # Dual steps never drop equality rows, so no later step disturbs them.
    eq = np.flatnonzero(rows.eq)
    forest.span(rows, eq, x, mults)
    iterations = eq.size

    priced_out = rows.eq | forest.working
    while not priced_out.all():
        slacks = np.where(priced_out, math.inf, rows.slacks(x))
        target = int(np.argmin(slacks))
        if not slacks[target] < -_TOL:
            break
        # Bring the row to zero slack, dropping blocking rows along the way.
        i, j = rows.i.item(target), rows.j.item(target)
        sign, b = rows.sign.item(target), rows.rhs.item(target)
        accumulated = 0.0
        while True:
            iterations += 1
            if iterations > max_iter:
                raise MaxIterations(f"no convergence within {max_iter} active-set steps")
            znorm2, shifts, tree_rows, r = forest.direction(i, j, sign)
            slack = sign * (x.item(i) - x.item(j)) - b
            # Longest step before some inequality multiplier turns negative.
            t_dual, drop = math.inf, -1
            blocking = ((r > _TOL) & ineq[tree_rows]).nonzero()[0] if r.size else r
            if blocking.size:
                ratios = mults[tree_rows[blocking]] / r[blocking]
                pick = int(np.argmin(ratios))
                t_dual = float(ratios[pick])
                drop = int(tree_rows[blocking[pick]])
            t_full = -slack / znorm2 if znorm2 else math.inf
            step = min(t_dual, t_full)
            if step == math.inf:
                raise Infeasible("constraint cannot be reached: empty feasible set")
            for nodes, shift in shifts:
                x[nodes] += step * shift
            if r.size:
                mults[tree_rows] -= step * r
            accumulated += step
            if t_full <= t_dual:
                forest.link(target, i, j, sign)
                mults[target] = accumulated
                break
            forest.cut(rows.i.item(drop), rows.j.item(drop))
        # A dropped row may have drifted back out; the loop re-checks all.
        priced_out = rows.eq | forest.working

    active = np.flatnonzero(forest.working)
    point, multipliers = x[:d].tolist(), mults[active].tolist()
    return QpSolution(tuple(point), tuple(active.tolist()), iterations, tuple(multipliers))


def kkt_residual(problem: QpProblem, solution: QpSolution) -> float:
    """Worst violation among feasibility, stationarity and multiplier signs."""
    rows = problem.rows
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
    worst = (infeasible, 0.0 - mults[~rows.eq[active]], np.abs(grad[:d]))
    return max(0.0, *(float(v.max(initial=0.0)) for v in worst))


def solve_dykstra(problem: QpProblem) -> QpSolution:
    """Dykstra's alternating projections onto the boxes and slabs.

    Used as an independent check of ``solve_active_set``; converges to the
    same projection but only asymptotically.  It reports the point and the
    sweep count, and no active set.
    """
    d = len(problem.center)
    x = np.array(problem.center, dtype=float)
    sets = [
        (k, None, -math.inf if lo is None else lo, math.inf if hi is None else hi)
        for k, (lo, hi) in enumerate(problem.bounds)
        if lo is not None or hi is not None
    ] + list(problem.difference_constraints)  # boxes (k, None, lo, hi), then slabs
    if not sets:
        return QpSolution(tuple(x), (), 0)
    increments = [np.zeros(d) for _ in sets]
    for sweeps in range(1, _DYKSTRA_MAX_SWEEPS + 1):
        delta = 0.0
        for si, (i, j, lo, hi) in enumerate(sets):
            y = x + increments[si]
            z = y.copy()
            if j is None:
                z[i] = min(max(y[i], lo), hi)
            else:
                gap = y[i] - y[j]
                shift = (gap - min(max(gap, lo), hi)) / 2.0
                z[i] -= shift
                z[j] += shift
            increments[si] = y - z
            delta = max(delta, float(np.max(np.abs(z - x))))
            x = z
        if delta < _DYKSTRA_TOL:
            break
    else:
        raise MaxIterations(f"Dykstra did not converge in {_DYKSTRA_MAX_SWEEPS} sweeps")
    return QpSolution(tuple(x.tolist()), (), sweeps)


def problem_to_json(problem: QpProblem) -> str:
    """The problem as one line of JSON, for failure reports."""
    inputs = {f.name: getattr(problem, f.name) for f in fields(problem) if f.init}
    return json.dumps(inputs, sort_keys=True)
