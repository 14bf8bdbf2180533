"""Span recorder for the traced run, kept entirely in the benchmark.

It rebinds the public functions of each ppsd_lab layer, and the scipy
kernels they call, with wrappers that record a span per call: name, start,
end, parent span and job id.  Nothing under ``src/`` is edited; the
original objects are put back by ``uninstall``.  Spans stay in memory until
the run ends.  Counts that a layer's result carries (``nfev``, hits) are
read from the returned values.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

#: Layer entry points, rebound wherever the package binds them (a function
#: defined in lindblad and imported into cli is traced from both).
LAYER_FUNCTIONS = (
    ("cli", "main"),
    ("models", "catalog_model"),
    ("lindblad", "liouvillian_matrix"),
    ("lindblad", "liouvillian_norm"),
    ("lindblad", "propagate"),
    ("lindblad", "stationarity_defect"),
    ("ppsd", "ppsd_search"),
    ("ppsd", "consistency_check"),
    ("ppsd", "evolve_pure_nonlinear"),
    ("ppsd", "ppsd_residual"),
    ("ppsd", "is_stationary_state"),
)

#: scipy kernels, rebound only in the module named: lindblad and ppsd hold
#: the same solve_ivp object, and their calls are told apart.
KERNELS = (
    ("lindblad", "expm"),
    ("lindblad", "solve_ivp"),
    ("ppsd", "minimize"),
    ("ppsd", "solve_ivp"),
)

#: The invariant gate of every DensityMatrix construction.
GATES = (("hilbert", "DensityMatrix", "__post_init__"),)

#: Per-layer metrics reported by a traced run, in report order.
METRIC_NAMES = (
    "cli.main.self_s",
    "models.catalog_model.calls", "models.catalog_model.self_s",
    "hilbert.DensityMatrix.calls", "hilbert.DensityMatrix.self_s",
    "lindblad.liouvillian_matrix.calls", "lindblad.liouvillian_matrix.self_s",
    "lindblad.liouvillian_matrix.bytes_computed",
    "lindblad.liouvillian_norm.calls", "lindblad.liouvillian_norm.self_s",
    "lindblad.expm.calls", "lindblad.expm.self_s",
    "lindblad.propagate.calls", "lindblad.propagate.self_s",
    "lindblad.propagate.points",
    "lindblad.propagate.path.entrywise", "lindblad.propagate.path.dense_expm",
    "lindblad.propagate.path.rk",
    "lindblad.solve_ivp.nfev", "lindblad.solve_ivp.self_s",
    "lindblad.stationarity_defect.calls", "lindblad.stationarity_defect.self_s",
    "ppsd.minimize.calls", "ppsd.minimize.self_s", "ppsd.minimize.nfev",
    "ppsd.ppsd_search.self_s",
    "ppsd.search.restarts", "ppsd.search.hits", "ppsd.search.hits_per_restart",
    "ppsd.consistency_check.calls", "ppsd.consistency_check.self_s",
    "ppsd.evolve_pure_nonlinear.calls", "ppsd.evolve_pure_nonlinear.self_s",
    "ppsd.solve_ivp.nfev", "ppsd.solve_ivp.self_s",
    "ppsd.ppsd_residual.calls", "ppsd.ppsd_residual.self_s",
    "ppsd.is_stationary_state.calls", "ppsd.is_stationary_state.self_s",
)

#: Times that are zero by design on some workload, because the layer never
#: runs there: the run record keeps them, the reported line leaves them out.
ZERO_BY_DESIGN = (
    "lindblad.solve_ivp.self_s",
    "ppsd.minimize.self_s",
    "ppsd.ppsd_search.self_s",
)


def _is_diagonal(m: np.ndarray) -> bool:
    return not np.any(m - np.diag(np.diag(m)))


def infer_path(model, method: str, dense_limit: int | None) -> str:
    """Propagation path the parent's dispatch rule picks (inferred, not seen)."""
    if method == "adaptive_rk":
        return "rk"
    mats = [model.hamiltonian.matrix] + [t.op.matrix for t in model.terms]
    if all(_is_diagonal(m) for m in mats):
        return "entrywise"
    if dense_limit is not None and model.dim > dense_limit:
        return "rk"
    return "dense_expm"


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` rows are [name, start, end, parent index, job]; overlapping
    children are merged and clipped to the parent's interval.
    """
    children = defaultdict(list)
    for k, (_, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for k, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(k, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans of calls made while ``job`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._bindings: list[tuple] = []
        self._dense_limit = None

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """A callable recording a span around ``fn``; ``after`` sees the
        arguments and the result once the span has ended."""

        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            row = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
                   self.job]
            self._stack.append(len(self.spans))
            self.spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count_nfev(self, name):
        def after(args, kwargs, result):
            self.counts[name + ".nfev"] += result.nfev
        return after

    def _after_liouvillian(self, args, kwargs, result):
        d = args[0].dim
        self.counts["lindblad.liouvillian_matrix.bytes_computed"] += 16 * d**4

    def _after_propagate(self, args, kwargs, result):
        model = args[0]
        times = args[2] if len(args) > 2 else kwargs["times"]
        method = args[3] if len(args) > 3 else kwargs.get("method", "exact_exponential")
        self.counts["lindblad.propagate.points"] += len(np.atleast_1d(times))
        path = infer_path(model, method, self._dense_limit)
        self.counts[f"lindblad.propagate.path.{path}"] += 1

    def _after_search(self, args, kwargs, result):
        config = args[1] if len(args) > 1 else kwargs.get("config")
        if config is None:
            from ppsd_lab.ppsd import SearchConfig
            config = SearchConfig()
        self.counts["ppsd.search.restarts"] += config.n_restarts
        self.counts["ppsd.search.hits"] += len(result)

    # -- binding -----------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name in the loaded ppsd_lab modules."""
        if self._bindings:
            return
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "ppsd_lab" or name.startswith("ppsd_lab.")}
        self._dense_limit = getattr(modules.get("ppsd_lab.lindblad"),
                                    "DENSE_EXPM_DIM_LIMIT", None)
        after = {
            "lindblad.liouvillian_matrix": self._after_liouvillian,
            "lindblad.propagate": self._after_propagate,
            "ppsd.ppsd_search": self._after_search,
            "lindblad.solve_ivp": self._count_nfev("lindblad.solve_ivp"),
            "ppsd.minimize": self._count_nfev("ppsd.minimize"),
            "ppsd.solve_ivp": self._count_nfev("ppsd.solve_ivp"),
        }
        for module, attr in LAYER_FUNCTIONS + KERNELS:
            name = f"{module}.{attr}"
            home = modules.get(f"ppsd_lab.{module}")
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, after.get(name))
            targets = [home]
            if (module, attr) in LAYER_FUNCTIONS:
                targets = [m for m in modules.values()
                           if getattr(m, attr, None) is original]
            for target in targets:
                self._bindings.append((target, attr, original))
                setattr(target, attr, wrapper)
        for module, cls_name, attr in GATES:
            cls = getattr(modules.get(f"ppsd_lab.{module}"), cls_name, None)
            original = getattr(cls, attr, None)
            if original is None:
                self.missing.append(f"{module}.{cls_name}")
                continue
            self._bindings.append((cls, attr, original))
            setattr(cls, attr, self.wrap(f"{module}.{cls_name}", original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._bindings):
            setattr(target, attr, original)
        self._bindings.clear()

    # -- reporting ---------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """calls and self_s per span name, plus the recorded counts."""
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            totals[name + ".calls"] += 1
            totals[name + ".self_s"] += own
        for key, value in self.counts.items():
            totals[key] += value
        return totals

    def metrics(self, cycles: int) -> dict[str, float]:
        """Every named per-layer metric, per cycle of the job mix."""
        totals = self.layer_totals()
        out = {name: totals.get(name, 0.0) / cycles for name in METRIC_NAMES}
        restarts = totals.get("ppsd.search.restarts", 0.0)
        out["ppsd.search.hits_per_restart"] = (
            totals.get("ppsd.search.hits", 0.0) / restarts if restarts else 0.0
        )
        return out
