"""Spans and counters recorded from outside the llull package.

Each public stage function is replaced, for the duration of a ``with``
block, by a wrapper installed where its caller looks it up (for example
``llull.pipeline.aggregate``, which is the name ``load_input`` calls).  The
package itself is not edited.  Spans stay in memory as tuples
``(name, start, end, parent, tally)`` and are written out by the caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from time import perf_counter

ROOT = "pipeline.run"

# (module or class, attribute, span name): timed stages.
SPANS = (
    ("llull.pipeline", "read_ballot_file", "ballots.read_ballot_file"),
    ("llull.pipeline", "aggregate", "matrix.aggregate"),
    ("llull.pipeline", "read_matrix", "matrix.read_matrix"),
    ("llull.projection", "indirect_scores", "closures.indirect_scores"),
    ("llull.projection", "variant_margins", "closures.variant_margins"),
    ("llull.projection", "admissible_order", "ordering.admissible_order"),
    ("llull.projection", "intermediate_margins", "projection.intermediate_margins"),
    ("llull.projection", "turnout_qp", "projection.turnout_qp"),
    ("llull.projection", "solve_active_set", "qp.solve_active_set"),
    ("llull.projection", "build_intervals", "projection.build_intervals"),
    ("llull.projection", "projected_scores", "projection.projected_scores"),
    ("llull.projection:ProjectedMatrix", "check_structure", "projection.check_structure"),
    ("llull.pipeline", "rank_like_rates", "rates.rank_like_rates"),
    ("llull.pipeline", "social_ranking", "rates.social_ranking"),
    ("llull.pipeline", "render_json", "pipeline.render_json"),
)

# (module, attribute, counter name, work per call or None): counted, not
# timed, so their time stays in the calling stage.  Both lookups of
# copeland_ranks are wrapped, so the second computation inside
# project_details shows as a second call.  A closure makes n**3 triangle
# relaxations.
COUNTERS = (
    ("llull.projection", "turnouts", "matrix.turnouts", None),
    ("llull.ordering", "copeland_ranks", "ordering.copeland_ranks", None),
    ("llull.projection", "copeland_ranks", "ordering.copeland_ranks", None),
    ("llull.closures", "maxmin_closure_grid", "closures.relaxations", lambda grid: len(grid) ** 3),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``(owner path, attribute, make_wrapper)`` replacements.

    Targets that no longer exist are skipped and reported in the yielded
    list, so a later refactor of the package degrades the trace instead of
    breaking the run.
    """
    saved, missing = [], []
    try:
        for path, attr, make in replacements:
            owner = _owner(path)
            original = vars(owner).get(attr)
            if original is None:
                missing.append(f"{path}.{attr}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """In-memory span and call recorder for one traced pass."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.tally = -1

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.tally)
                self.calls[name] += 1

        return wrapper

    def counter(self, name: str, work, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if work is not None:
                self.work[name] += work(*args)
            return fn(*args, **kwargs)

        return wrapper

    def installed(self):
        """Context manager that wraps every stage and counter target."""
        return patched(
            [(p, a, functools.partial(self.span, name)) for p, a, name in SPANS]
            + [
                (p, a, functools.partial(self.counter, name, work))
                for p, a, name, work in COUNTERS
            ]
        )

    def run(self, fn, *args):
        """Call ``fn`` as one tally under the root span."""
        self.tally += 1
        return self.span(ROOT, fn)(*args)

    def self_times(self) -> Counter:
        """Total self time per span name: duration minus child durations."""
        totals: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            totals[name] += end - start
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return totals


def capture_qp(sink: list):
    """Context manager that appends ``(problem, solution)`` of every solve."""

    def make(original):
        @functools.wraps(original)
        def wrapper(problem, *args, **kwargs):
            solution = original(problem, *args, **kwargs)
            sink.append((problem, solution))
            return solution

        return wrapper

    return patched([("llull.projection", "solve_active_set", make)])
