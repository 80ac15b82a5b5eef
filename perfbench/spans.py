"""Module-boundary tracer for the meanex benchmark.

The tracer leaves the meanex source unchanged. ``install`` rebinds, in
the current process only, every name that one ``meanex`` module imports
from another ``meanex`` module to a timing wrapper, and wraps
``scipy.integrate.quad``. Each wrapped call records a span (op, id,
parent, name, start, end) in memory and adds to per-layer counters:

* ``<layer>.self_s``: span durations minus the time covered by child
  spans, summed per layer (the layer is the callee's module);
* counts of work at the boundary (points, rows, draws, ...), see
  ``_COUNTERS``;
* ``quad.calls``, ``quad.s`` (time inside outermost quad calls) and
  ``quad.warned`` (calls that raised an ``IntegrationWarning``; the
  warning is re-issued so the caller's filters still decide).

Spans are kept up to ``MAX_SPANS`` and written out by ``dump`` at the
end of the run; counters and self times are exact beyond the cap.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
import warnings
from collections import defaultdict

_perf = time.perf_counter
MAX_SPANS = 200_000
_CALIBRATION_BATCHES = 21  # plus one that warms up
_CALIBRATION_CALLS = 2000  # per batch


def _size(x) -> int:
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    try:
        return len(x)
    except TypeError:
        return 1


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs[name]


def _text_rows(result) -> int:
    return result.count("\n") if isinstance(result, str) else 0


# callee "module.function" -> [(counter, f(args, kwargs, result) -> increment)]
_COUNTERS = {
    "quad": [("quad.calls", lambda a, k, r: 1)],
    "cli.main": [("cli.calls", lambda a, k, r: 1)],
    "distributions.std_survival": [("distributions.survival_calls", lambda a, k, r: 1)],
    "distributions.std_pdf": [("distributions.pdf_calls", lambda a, k, r: 1)],
    "distributions.std_sample": [("distributions.sample_calls", lambda a, k, r: 1)],
    "gh.gh_pdf": [
        ("gh.pdf_calls", lambda a, k, r: 1),
        ("gh.pdf_points", lambda a, k, r: _size(_arg(a, k, 1, "x"))),
    ],
    "bessel.bessel_k_scaled": [
        ("bessel.kve_calls", lambda a, k, r: 1),
        ("bessel.kve_points", lambda a, k, r: _size(_arg(a, k, 1, "x"))),
    ],
    "gig.gig_sample": [
        ("gig.sample_calls", lambda a, k, r: 1),
        ("gig.draws", lambda a, k, r: int(_arg(a, k, 4, "n"))),
    ],
    "mef.theoretical_mef_curve": [
        ("mef.theoretical_thresholds", lambda a, k, r: _size(_arg(a, k, 1, "grid").points)),
    ],
    "mef.theoretical_mef": [("mef.theoretical_thresholds", lambda a, k, r: 1)],
    "mef.empirical_mef_curve": [
        ("mef.emef_thresholds", lambda a, k, r: _size(_arg(a, k, 1, "grid").points)),
    ],
    "mef.consistency_band": [
        ("mef.emef_thresholds", lambda a, k, r: _size(_arg(a, k, 1, "grid").points)),
    ],
    "mef.empirical_mef": [("mef.emef_thresholds", lambda a, k, r: 1)],
    "mef.asymptotic_variance": [("mef.asymvar_thresholds", lambda a, k, r: 1)],
    "types.make_sample": [("types.make_sample_values", lambda a, k, r: int(r.n))],
    "montecarlo.stallion": [("montecarlo.replicates", lambda a, k, r: int(r.n_reps))],
    "montecarlo.coverage_experiment": [("montecarlo.replicates", lambda a, k, r: int(r.replicate_count))],
    "montecarlo.convergence_experiment": [
        ("montecarlo.replicates", lambda a, k, r: int(r.replicate_count) * len(r.metrics)),
    ],
    "svgplot.svg_plot": [
        ("svgplot.points", lambda a, k, r: sum(_size(s[2]) for s in _arg(a, k, 0, "series"))),
    ],
    "ohlcv.parse_ohlcv_csv": [("ohlcv.rows", lambda a, k, r: int(r.n))],
}
for _name in ("curve_csv", "band_csv", "fit_csv", "experiment_csv", "compare_csv", "ohlcv_csv"):
    _COUNTERS[f"serialize.{_name}"] = [("serialize.rows", lambda a, k, r: _text_rows(r))]

# boundaries whose outermost-call wall time is reported on its own
_INCLUSIVE = {"quad": "quad.s", "distributions.dist_mean_abs": "distributions.mean_abs_s"}


class Tracer:
    """Span recorder with per-layer self time and boundary counters."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.dropped = 0
        self.op = -1
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.inclusive = defaultdict(float)
        self._stack = []  # frames [span_id, child_seconds]
        self._depth = defaultdict(int)
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def _enter(self):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, frame, layer, name, t0, t1):
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        self.self_s[layer] += dur - frame[1]
        parent_id = -1
        if stack:
            parent = stack[-1]
            parent[1] += dur
            parent_id = parent[0]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.op, frame[0], parent_id, name, t0, t1))
        else:
            self.dropped += 1

    def wrap(self, layer: str, name: str, fn):
        counters = tuple(_COUNTERS.get(name, ()))
        inclusive = _INCLUSIVE.get(name)
        tracer = self
        enter, leave, depth = self._enter, self._leave, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = enter()
            if inclusive:
                depth[name] += 1
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                leave(frame, layer, name, t0, t1)
                if inclusive:
                    depth[name] -= 1
                    if depth[name] == 0:
                        tracer.inclusive[inclusive] += t1 - t0
            for counter, inc in counters:
                tracer.counts[counter] += inc(args, kwargs, result)
            return result

        return traced

    def wrap_quad(self, quad):
        """quad in a span; counts calls and those that raised an
        IntegrationWarning, then re-issues every warning so the caller's
        filters still decide."""
        from scipy.integrate import IntegrationWarning

        tracer = self

        @functools.wraps(quad)
        def observed_quad(*args, **kwargs):
            if not tracer.active:
                return quad(*args, **kwargs)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                result = quad(*args, **kwargs)
            if any(issubclass(w.category, IntegrationWarning) for w in caught):
                tracer.counts["quad.warned"] += 1
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return self.wrap("quad", "quad", observed_quad)

    # -- installation ------------------------------------------------------

    def install(self, package) -> list[str]:
        """Rebind cross-module meanex names and scipy.integrate.quad.

        Returns the sorted list of rebound "module.name" targets.
        """
        import pkgutil
        import importlib
        import scipy.integrate

        prefix = package.__name__ + "."
        modules = [
            importlib.import_module(prefix + info.name)
            for info in pkgutil.iter_modules(package.__path__)
        ]
        rebound = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith(prefix) or home == mod.__name__:
                    continue
                layer = home[len(prefix):]
                wrapped = self.wrap(layer, f"{layer}.{value.__name__}", value)
                setattr(mod, attr, wrapped)
                rebound.append(f"{mod.__name__[len(prefix):]}.{attr}")
        scipy.integrate.quad = self.wrap_quad(scipy.integrate.quad)
        return sorted(rebound)

    # -- output ------------------------------------------------------------

    def calls(self) -> int:
        """Number of wrapped calls made while active."""
        return self._next_id

    def summary(self) -> dict:
        out = {f"{layer}.self_s": s for layer, s in self.self_s.items()}
        out.update(self.counts)
        out.update(self.inclusive)
        return out

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["summary"] = self.summary()
        doc["spans_dropped"] = self.dropped
        doc["span_fields"] = ["op", "id", "parent", "name", "start_s", "end_s"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def call_overhead_s() -> float:
    """Extra seconds one traced call costs over one untraced call.

    Times a wrapper with the counters of the busiest boundary
    (``bessel.bessel_k_scaled``, about two thirds of the wrapped calls on
    ``gh-compare``) around a function that does nothing, in a scratch
    tracer, active and inactive in alternating batches so that changes in
    machine speed hit both alike; returns the median batch difference per
    call.
    """
    import numpy as np

    probe = Tracer()
    fn = probe.wrap("bessel", "bessel.bessel_k_scaled", lambda nu, x: x)
    x = np.float64(1.0)
    diffs = []
    for _ in range(_CALIBRATION_BATCHES + 1):
        seconds = []
        for active in (False, True):
            probe.active = active
            t0 = _perf()
            for _ in range(_CALIBRATION_CALLS):
                fn(0.5, x)
            seconds.append(_perf() - t0)
        diffs.append((seconds[1] - seconds[0]) / _CALIBRATION_CALLS)
    return statistics.median(diffs[1:])
