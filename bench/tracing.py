"""Span tracing around the public functions of each ``meetjoin`` module.

The library modules import each other's functions by name
(``from .poset import meet_closure``), so a wrapper only takes effect once it
is bound in every ``meetjoin.*`` namespace that holds the original.
:class:`Tracer` does that on ``install`` and puts the originals back on
``uninstall``.  Per-pair primitives (``meet``, ``join``, ``leq``) are left
alone: they run O(n^2) times per request and a wrapper would swamp them.

Every span records its name, the request it belongs to, its parent span and
its start and end.  A span's self time is its duration minus the durations
of its direct children; spans nest on one thread, so the children never
overlap.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# Public functions wrapped, by module.  ``Subset.restrict`` is wrapped on the
# class and named ``poset.restrict``.
WRAPPED = {
    "cli": ("run",),
    "numtheory": ("build_named_matrix",),
    "matrices": (
        "meet_matrix", "join_matrix", "factored_meet_matrix",
        "factored_join_matrix", "det_general", "det_closed",
    ),
    "definiteness": (
        "classify_and_test", "structure_flags", "pd_oracle", "pd_meet_closed",
        "pd_join_closed", "pd_superset_sufficient", "pd_tree",
    ),
    "mobius": ("psi", "phi", "mobius_table"),
    "poset": (
        "meet_closure", "join_closure", "is_meet_closed", "is_join_closed",
        "is_chain", "is_wedge_tree_set", "is_vee_tree_set", "is_A_set",
        "cover_graph", "down_set", "up_set",
    ),
    "spectral": ("eigen_sym", "meet_bounds", "join_bounds"),
}

# Per-layer time metrics: the self time of every span in the group, except
# ``definiteness.flags_s``, which is the whole duration of ``structure_flags``
# (its classifier calls also count in ``poset.*``).
SELF_TIMES = {
    "cli.self_s": ("cli.run",),
    "numtheory.build_named_matrix_s": ("numtheory.build_named_matrix",),
    "matrices.assemble_s": (
        "matrices.meet_matrix", "matrices.join_matrix",
        "matrices.factored_meet_matrix", "matrices.factored_join_matrix",
    ),
    "matrices.det_s": ("matrices.det_general", "matrices.det_closed"),
    "definiteness.decide_s": ("definiteness.classify_and_test",),
    "definiteness.oracle_s": ("definiteness.pd_oracle",),
    "mobius.mass_s": ("mobius.psi", "mobius.phi"),
    "mobius.mobius_table_s": ("mobius.mobius_table",),
    "poset.closure_s": ("poset.meet_closure", "poset.join_closure"),
    "poset.restrict_s": ("poset.restrict",),
    "poset.classifier_s": tuple(
        "poset." + name for name in WRAPPED["poset"]
        if name not in ("meet_closure", "join_closure")
    ),
    "spectral.eigen_s": ("spectral.eigen_sym",),
    "spectral.bounds_s": ("spectral.meet_bounds", "spectral.join_bounds"),
}
TOTAL_TIMES = {"definiteness.flags_s": ("definiteness.structure_flags",)}
CALL_COUNTS = {
    "definiteness.routes_tried": (
        "definiteness.pd_meet_closed", "definiteness.pd_join_closed",
        "definiteness.pd_superset_sufficient", "definiteness.pd_tree",
        "definiteness.pd_oracle",
    ),
    "poset.closure_calls": ("poset.meet_closure", "poset.join_closure"),
    "poset.restrict_calls": ("poset.restrict",),
    "mobius.mass_calls": ("mobius.psi", "mobius.phi"),
    "mobius.mobius_table_calls": ("mobius.mobius_table",),
}
# Work sizes read off the wrapped calls: the order of every matrix handed to
# ``det_general``, and the universe of every ``build_named_matrix`` model.
SIZE_METRICS = ("matrices.det_order", "numtheory.universe_size")

NAME, REQUEST, PARENT, START, END = range(5)


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.sizes: dict[int, Counter] = {}
        self.request = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, self.request, stack[-1] if stack else None,
                          time.perf_counter(), None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][END] = time.perf_counter()
                stack.pop()
            self._record_size(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record_size(self, name: str, args, result) -> None:
        if name == "matrices.det_general":
            key, size = "matrices.det_order", args[0].n
        elif name == "numtheory.build_named_matrix":
            key, size = "numtheory.universe_size", result.poset.n
        else:
            return
        self.sizes.setdefault(self.request, Counter())[key] += size

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if (key == "meetjoin" or key.startswith("meetjoin.")) and m]
        for short, names in WRAPPED.items():
            home = sys.modules["meetjoin." + short]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
        subset = sys.modules["meetjoin.poset"].Subset
        self._saved.append((subset, "restrict", subset.restrict))
        subset.restrict = self._wrap("poset.restrict", subset.restrict)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def per_request(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of every traced request, keyed by request id."""
        self_time = [0.0] * len(self.spans)
        for index, span in enumerate(self.spans):
            duration = span[END] - span[START]
            self_time[index] += duration
            if span[PARENT] is not None:
                self_time[span[PARENT]] -= duration
        out: dict[int, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            row = out.setdefault(span[REQUEST], _empty_row())
            name = span[NAME]
            for metric, names in SELF_TIMES.items():
                if name in names:
                    row[metric] += self_time[index]
            for metric, names in TOTAL_TIMES.items():
                if name in names:
                    row[metric] += span[END] - span[START]
            for metric, names in CALL_COUNTS.items():
                if name in names:
                    row[metric] += 1
        for request, sizes in self.sizes.items():
            out.setdefault(request, _empty_row()).update(sizes)
        return out


def layer_metric_names() -> list[str]:
    return [*SELF_TIMES, *TOTAL_TIMES, *CALL_COUNTS, *SIZE_METRICS]


def _empty_row() -> dict[str, float]:
    return dict.fromkeys(layer_metric_names(), 0)
