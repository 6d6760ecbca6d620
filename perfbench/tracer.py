"""In-memory spans and counts at hjbkit's layer boundaries.

The tracer measures each layer from outside: it replaces a layer's public
functions with timing wrappers, at every hjbkit module where the name is
bound (``cn_step`` is imported by name into ``spatial_growth`` and
``pollution``, for example), and restores the originals on ``uninstall``.
Nothing inside ``src/`` is edited.

A span records its name, its duration and the wrapped span that called it.
Spans are aggregated as they close, per name and per (parent, name) edge,
so a pass with a quarter of a million ``handle.step`` calls stays small in
memory.  A span's self time is its duration minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODEL_MODULES = ("spatial_growth", "pollution", "vintage_dde",
                 "vintage_transport", "time_to_build")

# (module, function) pairs wrapped as timed spans
SPAN_TARGETS = (
    ("gridcore", "cn_step"),
    ("gridcore", "solve_periodic_tridiagonal"),
    ("spectral", "principal_eigenpair"),
    ("spectral", "solve_elliptic"),
    ("spectral", "char_root_vintage"),
    ("spectral", "char_root_ttb"),
    ("spectral", "transport_resolvent"),
    ("spatial_growth", "build_spatial_spec"),
    ("spatial_growth", "simulate_spatial"),
    ("spatial_growth", "hjb_residual_spatial"),
    ("pollution", "build_pollution_spec"),
    ("pollution", "simulate_pollution"),
    ("pollution", "hjb_residual_pollution"),
    ("vintage_dde", "build_vintage_spec"),
    ("vintage_dde", "simulate_vintage"),
    ("vintage_dde", "hjb_residual_vintage"),
    ("vintage_transport", "build_transport_spec"),
    ("vintage_transport", "simulate_transport"),
    ("vintage_transport", "hjb_residual_transport"),
    ("time_to_build", "build_ttb_spec"),
    ("time_to_build", "simulate_ttb"),
    ("time_to_build", "hjb_residual_ttb"),
    ("verify", "value_match"),
    ("verify", "suboptimality_margin"),
    ("verify", "transversality"),
    ("verify", "brute_force_value"),
    ("scenarios", "build_scenario"),
    ("scenarios", "residual_study"),
    ("scenarios", "verify_scenario"),
    ("scenarios", "oracle_scenario"),
    ("cli", "main"),
)

# classes whose constructions are counted (through __post_init__)
COUNTED_CLASSES = (("gridcore", "Field"), ("gridcore", "HistorySegment"))


class Tracer:
    """Aggregated spans and counts for one traced pass."""

    def __init__(self):
        self.calls = Counter()            # span name -> closed spans
        self.busy = defaultdict(float)    # span name -> inclusive seconds
        self.self_time = defaultdict(float)
        self.edges = Counter()            # (parent name, name) -> spans
        self.counts = Counter()           # construction counters
        self.oracle_evaluations = 0
        self.oracle_passes = 0
        self.bindings = {}                # label -> bindings replaced
        self._stack = []                  # open spans: [name, child seconds]
        self._restore = []                # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def span(self, name, fn):
        """Wrap ``fn`` so that each call records a span called ``name``."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                self.edges[(parent and parent[0], name)] += 1

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, replacement):
        """Replace ``original`` at every hjbkit module that binds it."""
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hjbkit"
                                   or mod_name.startswith("hjbkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)
                    bound += 1
        return bound

    def install(self):
        """Wrap every target, recording in ``bindings`` how many module
        bindings each replaced."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        bindings = self.bindings
        for module, func in SPAN_TARGETS:
            mod = importlib.import_module(f"hjbkit.{module}")
            label = f"{module}.{func}"
            wrapped = self.span(label, getattr(mod, func))
            if func == "brute_force_value":
                wrapped = self._record_bracket(wrapped)
            bindings[label] = self._rebind_everywhere(getattr(mod, func),
                                                      wrapped)
        for module in MODEL_MODULES:
            mod = importlib.import_module(f"hjbkit.{module}")
            label = f"{module}.make_handle"
            bindings[label] = self._rebind_everywhere(
                mod.make_handle, self._trace_handles(module, mod.make_handle))
        for module, cls_name in COUNTED_CLASSES:
            cls = getattr(importlib.import_module(f"hjbkit.{module}"),
                          cls_name)
            label = f"{module}.{cls_name}"
            self._set(cls, "__post_init__",
                      self._count(label, cls.__post_init__))
            bindings[label] = 1

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _record_bracket(self, wrapped):
        @functools.wraps(wrapped)
        def wrapper(*args, **kwargs):
            bracket = wrapped(*args, **kwargs)
            self.oracle_evaluations += bracket.evaluations
            self.oracle_passes += bracket.passes
            return bracket

        return wrapper

    def _trace_handles(self, module, make_handle):
        label = f"{module}.handle.step"

        @functools.wraps(make_handle)
        def wrapper(*args, **kwargs):
            handle = make_handle(*args, **kwargs)
            handle.step = self.span(label, handle.step)
            return handle

        return wrapper

    def _count(self, label, post_init):
        counts = self.counts

        @functools.wraps(post_init)
        def wrapper(obj):
            counts[label] += 1
            post_init(obj)

        return wrapper
