"""Per-layer spans recorded from outside the program.

The layers are the package modules.  ``Tracer.installed()`` replaces each
traced public function at every place it is bound: its own module, every
``ulrichbundles`` module that imported it by name (``from .cohomology
import cohomology`` in ``ulrich``, ``search`` and ``cli``) and the package
namespace.  Modules are reached through ``sys.modules``, because the
attribute ``ulrichbundles.cohomology`` is the function, not the module.
On exit every binding is restored.

A span's self time is its duration minus the durations of the traced
spans nested inside it; the program is single-threaded, so there is no
waiting to report.  Spans are folded into counters as they close, so
memory stays flat however many points a scan visits.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter


def _scan_points(stats, args, kwargs, result):
    box = next(a for a in (*args, *kwargs.values()) if hasattr(a, "volume"))
    stats["search.scan.points"] += box.volume


def _sym_summands(stats, args, kwargs, result):
    stats["picard.sym_power.summands"] += result.rank


def _table_variety(stats, args, kwargs, result):
    picard = sys.modules["ulrichbundles.picard"]
    fibred = tuple(getattr(picard, name) for name in ("ProjBundle", "Hirzebruch")
                   if hasattr(picard, name))
    if isinstance(args[0], fibred):
        stats["cohomology.table.pb_calls"] += 1


def _presentation_exact(stats, args, kwargs, result):
    stats["kernelbundle.presentation.exact"] += bool(result.surjectivity.exact)


def _rank_shape(stats, args, kwargs, result):
    rows = args[0]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    cells = nrows * ncols
    stats["exactlinalg.rank.cells"] += cells
    stats["exactlinalg.rank.max_cells"] = max(stats["exactlinalg.rank.max_cells"], cells)
    stats["exactlinalg.rank.full"] += result == min(nrows, ncols)


# module -> {public function: (span name, extra counter or None)}
SPANS = {
    "cli": {"run": ("cli.run", None)},
    "picard": {
        "parse_variety": ("picard.parse", None),
        "parse_divisor": ("picard.parse", None),
        "parse_bundle": ("picard.parse", None),
        "is_ample": ("picard.ample", None),
        "is_very_ample": ("picard.ample", None),
        "sym_power": ("picard.sym_power", _sym_summands),
    },
    "search": {
        "zero_cohomology_line_bundles": ("search.scan", _scan_points),
        "ulrich_line_bundles": ("search.scan", _scan_points),
        "pullback_ulrich_line_search": ("search.scan", _scan_points),
    },
    "ulrich": {
        "is_ulrich": ("ulrich.definition", None),
        "pullback_ulrich_criterion": ("ulrich.criterion", None),
        "direct_ulrich_check": ("ulrich.direct", None),
        "semiorthogonality_probe": ("ulrich.probe", None),
    },
    "cohomology": {
        "cohomology": ("cohomology.table", _table_variety),
        "euler_characteristic": ("cohomology.chi", None),
        "toric_cech_oracle": ("cohomology.oracle", None),
    },
    "kernelbundle": {
        "staircase_presentation": ("kernelbundle.presentation", _presentation_exact),
        "sym_euler_presentation": ("kernelbundle.presentation", _presentation_exact),
        "random_presentation": ("kernelbundle.presentation", _presentation_exact),
        "kernel_cohomology": ("kernelbundle.kernel_cohomology", None),
        "prop61_builder": ("kernelbundle.prop61", None),
    },
    "exactlinalg": {
        "rank": ("exactlinalg.rank", _rank_shape),
        "solve_square": ("exactlinalg.solve", None),
    },
}

# (metric, unit) in report order; every one is printed on a traced run
LAYER_METRICS = (
    ("cli.run.calls", "count"), ("cli.run.self_s", "s"),
    ("picard.parse.calls", "count"), ("picard.parse.self_s", "s"),
    ("picard.ample.calls", "count"), ("picard.ample.self_s", "s"),
    ("picard.sym_power.calls", "count"), ("picard.sym_power.summands", "count"),
    ("picard.sym_power.self_s", "s"),
    ("search.scan.calls", "count"), ("search.scan.points", "count"),
    ("search.scan.self_s", "s"),
    ("ulrich.definition.calls", "count"), ("ulrich.criterion.calls", "count"),
    ("ulrich.direct.calls", "count"), ("ulrich.self_s", "s"),
    ("cohomology.table.calls", "count"), ("cohomology.table.pb_calls", "count"),
    ("cohomology.table.self_s", "s"), ("cohomology.table.max_ms", "ms"),
    ("cohomology.chi.calls", "count"), ("cohomology.chi.self_s", "s"),
    ("cohomology.oracle.calls", "count"), ("cohomology.oracle.self_s", "s"),
    ("kernelbundle.presentation.calls", "count"),
    ("kernelbundle.presentation.self_s", "s"),
    ("kernelbundle.presentation.exact_ratio", "ratio"),
    ("kernelbundle.kernel_cohomology.calls", "count"),
    ("kernelbundle.kernel_cohomology.self_s", "s"),
    ("kernelbundle.prop61.calls", "count"), ("kernelbundle.prop61.self_s", "s"),
    ("exactlinalg.rank.calls", "count"), ("exactlinalg.rank.self_s", "s"),
    ("exactlinalg.rank.cells", "count"), ("exactlinalg.rank.max_cells", "count"),
    ("exactlinalg.rank.full_ratio", "ratio"),
    ("exactlinalg.solve.calls", "count"), ("exactlinalg.solve.self_s", "s"),
)


class Tracer:
    """Counters and self times per span name, filled while installed."""

    def __init__(self):
        self.stats = defaultdict(float)
        self.missing = []
        self._open = []  # traced time of the children of each open span

    def _wrap(self, span: str, fn, extra):
        stats, open_spans = self.stats, self._open
        calls, self_s, max_ms = span + ".calls", span + ".self_s", span + ".max_ms"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats[calls] += 1
                stats[self_s] += elapsed - children
                if elapsed * 1000 > stats[max_ms]:
                    stats[max_ms] = elapsed * 1000
            if extra is not None:
                extra(stats, args, kwargs, result)
            return result

        traced.span = span
        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ulrichbundles" or name.startswith("ulrichbundles.")]
        undo = []
        try:
            for module_name, functions in SPANS.items():
                module = sys.modules["ulrichbundles." + module_name]
                for fname, (span, extra) in functions.items():
                    original = getattr(module, fname, None)
                    if original is None:
                        self.missing.append(f"{module_name}.{fname}")
                        continue
                    traced = self._wrap(span, original, extra)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, traced)
                                undo.append((m, attr, original))
            yield self
        finally:
            for m, attr, original in reversed(undo):
                setattr(m, attr, original)

    def metrics(self, passes: int) -> dict:
        """Every LAYER_METRICS value: counts and times per pass, maxima and
        ratios over all traced passes."""
        s = self.stats
        ulrich_self = sum(s[f"ulrich.{k}.self_s"]
                          for k in ("definition", "criterion", "direct", "probe"))
        ratios = {
            "kernelbundle.presentation.exact_ratio":
                ("kernelbundle.presentation.exact", "kernelbundle.presentation.calls"),
            "exactlinalg.rank.full_ratio":
                ("exactlinalg.rank.full", "exactlinalg.rank.calls"),
        }
        out = {}
        for name, unit in LAYER_METRICS:
            if name in ratios:
                hits, calls = ratios[name]
                value = s[hits] / s[calls] if s[calls] else 0.0
            elif name.endswith((".max_ms", ".max_cells")):
                value = s[name]
            elif name == "ulrich.self_s":
                value = ulrich_self / passes
            else:
                value = s[name] / passes
            out[name] = {"value": value, "unit": unit}
        return out
