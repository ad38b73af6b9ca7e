"""Span tracing for the benchmark's traced run, installed from outside q4lab.

Each traced name gets a wrapper in the namespace of every q4lab module that
holds it (``oval`` is looked up in ``quadrature`` as well as ``model``), or
on its class for methods.  A span records its name, start, end, parent span
and the run id; spans stay in memory until the episode ends.  Self time is
a span's duration minus the durations of its direct child spans.

Counters (``solve_ivp`` nfev, ``brentq`` calls) are not spans: the time of
a counted call stays with the span that made it.  Each counter is installed
only in the module namespace its metric is named after.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time

# (module, attribute, how the span is named from the bound arguments,
#  key of what the call requests, for a hit ratio; None for neither)
SPANS = [
    ("model", "oval", None, None),
    ("model", "Oval.bounding_box", None, None),
    ("model", "real_roots_y", None, None),
    ("quadrature", "moment", lambda a: a["method"],
     lambda a: (a["index"], a["h"], a["params"].kappa, a["method"], a["tol"])),
    ("quadrature", "basis_values", None, None),
    ("reduction", "recurrence_residual", None, None),
    ("reduction", "assemble_I", None, None),
    ("reduction", "mu_G_from_eq211", None, None),
    ("picard_fuchs", "PFPropagation.__init__", None, None),
    ("picard_fuchs", "PFPropagation.derivs", None, None),
    ("picard_fuchs", "continue_state", None, None),
    ("picard_fuchs", "initial_jstate", None, None),
    ("picard_fuchs", "propagate_J", None, None),
    ("picard_fuchs", "infinity_exponents", None, None),
    ("melnikov", "extract_R_coeffs", None, None),
    ("melnikov", "get_propagation", None, lambda a: a["params"].kappa),
    ("melnikov", "eval_R", None, None),
    ("analysis", "bound_scanner", None, None),
    ("analysis", "bound_pipeline", None, None),
    ("analysis", "BoundScanner.count", lambda a: a["which"], None),
    ("analysis", "keyhole_contour", None, None),
    ("analysis", "j_table", None, None),
    ("analysis", "winding_count", None, None),
    ("analysis", "count_zeros", None, None),
    ("analysis", "L2Frame.__init__", None, None),
    ("analysis", "L2Frame.rotation_span", None, None),
    ("analysis", "chebyshev_probe", None, None),
    ("dynamics", "find_period", None, None),
    ("dynamics", "integrate_orbit", None, None),
]

# (module namespace, attribute, counted statistic)
COUNTERS = [
    ("picard_fuchs", "solve_ivp", "nfev"),
    ("analysis", "solve_ivp", "nfev"),
    ("analysis", "brentq", "calls"),
]

# spans whose per-call durations are kept for a p99
P99_SPANS = {"analysis.bound_pipeline", "analysis.winding_count"}


class Tracer:
    """In-memory span recorder for one episode (one interpreter)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []      # (id, parent id, name, start, end)
        self.stack = []      # [span id, time covered by direct children]
        self.stats = {}      # span name -> [calls, self seconds, total seconds]
        self.durations = {}  # span name -> inclusive durations, P99_SPANS only
        self.counts = {}     # counter or hit-ratio name -> int
        self.requested = {}  # hit-ratio name -> set of request keys seen
        self._ids = itertools.count()

    def call(self, name, fn, args, kwargs):
        sid = next(self._ids)
        parent = self.stack[-1][0] if self.stack else None
        frame = [sid, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            dur = end - start
            if self.stack:
                self.stack[-1][1] += dur
            self.spans.append((sid, parent, name, start, end))
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dur - frame[1]
            st[2] += dur
            if name in P99_SPANS:
                self.durations.setdefault(name, []).append(dur)

    def request(self, name: str, key) -> None:
        seen = self.requested.setdefault(name, set())
        self.count(name + ".calls")
        if key in seen:
            self.count(name + ".hits")
        seen.add(key)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def summary(self) -> dict:
        return {"stats": self.stats, "durations": self.durations,
                "counts": self.counts}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def _span_wrapper(tracer: Tracer, fn, base: str, split, key):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = base
        if split is not None or key is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if key is not None:
                tracer.request(base, key(a))
            if split is not None:
                name = f"{base}.{split(a)}"
        return tracer.call(name, fn, args, kwargs)

    return wrapper


def _counter_wrapper(tracer: Tracer, fn, name: str, stat: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        tracer.count(f"{name}.{stat}", out.nfev if stat == "nfev" else 1)
        return out

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every traced name; call once, right after ``import q4lab``."""
    modules = {name: importlib.import_module(f"q4lab.{name}")
               for name in {mod for mod, *_ in SPANS + COUNTERS}}
    namespaces = [m for name, m in sys.modules.items()
                  if name == "q4lab" or name.startswith("q4lab.")]
    for mod, attr, split, key in SPANS:
        base = f"{mod}.{attr.replace('.__init__', '.init')}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(modules[mod], cls_name)
            setattr(cls, meth, _span_wrapper(tracer, getattr(cls, meth), base, split, key))
            continue
        original = getattr(modules[mod], attr)
        wrapper = _span_wrapper(tracer, original, base, split, key)
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, name, wrapper)
    for mod, attr, stat in COUNTERS:
        ns = modules[mod]
        setattr(ns, attr, _counter_wrapper(tracer, getattr(ns, attr), f"{mod}.{attr}", stat))
