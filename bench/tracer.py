"""Outside-in tracer: spans around the public functions of each blocksym layer.

``Tracer.install()`` wraps every public function defined in the layer
modules and rebinds the wrapper under every name that refers to the
function in any ``blocksym`` module, because the modules bind each other's
functions with ``from .x import y``. Nothing in ``src`` changes.

A span is pushed on entry and popped on exit; a span's self time is its
duration minus the time of the spans it caused. Generator functions
(``generate_panels``, ``substream_iter``) get one span per ``next()``, so
the consumer's work between items is charged to the consumer, not to the
producer. Spans are aggregated in memory by name and by (parent, child)
edge, so a run of a million keys keeps a few hundred records.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("seeding", "processes", "blocking", "gaussian", "psi",
          "remainders", "quadrature", "verify", "cli")

# verify functions that are not estimators, timed under their own metrics.
_REDUCE = ("verify.plain_stats_for_chunk", "verify.multiplier_stats_for_chunk")
_NOT_ESTIMATORS = _REDUCE + ("verify.exact_enumeration",)

# Counts that must repeat exactly between two traced rounds of one seed.
COUNT_METRICS = (
    "seeding.keys", "processes.passes", "processes.distinct_passes",
    "processes.panels", "processes.bytes", "blocking.multiplier_calls",
    "verify.outcomes", "gaussian.ks_points", "psi.evals", "quadrature.calls",
    "cli.bytes_written",
)


class _TracedIter:
    """Iterator proxy that records one span per ``next()``."""

    __slots__ = ("_tracer", "_name", "_it", "_on_item")

    def __init__(self, tracer, name, it, on_item):
        self._tracer, self._name, self._it, self._on_item = tracer, name, it, on_item

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.on:
            return next(self._it)
        tracer.enter(self._name)
        try:
            item = next(self._it)
        finally:
            tracer.exit()
        if self._on_item is not None:
            self._on_item(item)
        return item


class Tracer:
    def __init__(self):
        self._stack = []  # frames: [name, start, time of child spans]
        self.calls = defaultdict(lambda: [0, 0.0, 0.0])  # name -> count, incl, self
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, name) -> count, incl
        self.counts = defaultdict(int)
        self.pass_keys = set()
        self.on = True

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block are neither timed nor counted."""
        self.on = False
        try:
            yield
        finally:
            self.on = True

    # -- spans -------------------------------------------------------------

    def enter(self, name):
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self):
        end = perf_counter()
        name, start, child = self._stack.pop()
        dur = end - start
        rec = self.calls[name]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        parent = ""
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        edge = self.edges[(parent, name)]
        edge[0] += 1
        edge[1] += dur

    # -- counters hooked to particular functions ----------------------------

    def _count_key(self, _call_or_item):
        self.counts["keys"] += 1

    def _count_panels(self, item):
        panels = item[1]
        self.counts["panels"] += len(panels)
        self.counts["bytes"] += panels.size * 8

    def _pass(self, stream):
        """Hook for the single-panel draws, keyed like generate_panels."""
        def hook(bound):
            args = bound.arguments
            self.counts["passes"] += 1
            self.counts["panels"] += 1
            self.counts["bytes"] += args["spec"].n * args["spec"].p * 8
            self.pass_keys.add((args["spec"], args["seed"], stream, 0, 1))
        return hook

    def _panels_pass(self, bound):
        a = bound.arguments
        self.counts["passes"] += 1
        self.pass_keys.add((a["spec"], a["seed"], a["stream"], a["purpose"], a["reps"]))

    def _ks(self, bound):
        self.counts["ks_points"] += len(bound.arguments["a"]) + len(bound.arguments["b"])

    def _outcomes(self, bound):
        a = bound.arguments
        self.counts["outcomes"] += 2 ** (a["spec"].n * a["spec"].p) * 2 ** a["scheme"].count

    def _hooks(self):
        """name -> (hook on the bound call arguments, hook on each yielded item)."""
        seeding = sys.modules["blocksym.seeding"]
        return {
            "seeding.substream": (self._count_key, None),
            "seeding.substream_iter": (None, self._count_key),
            "processes.generate_panels": (self._panels_pass, self._count_panels),
            "processes.generate": (self._pass(seeding.STREAM_PANEL), None),
            "processes.independent_copy": (self._pass(seeding.STREAM_COPY), None),
            "gaussian.kolmogorov_distance": (self._ks, None),
            "verify.exact_enumeration": (self._outcomes, None),
        }

    # -- installation ------------------------------------------------------

    def _wrap(self, name, fn, on_call, on_item):
        before = None
        if on_call is not None:
            sig = inspect.signature(fn)

            def before(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_call(bound)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if before is not None and self.on:
                    before(args, kwargs)
                return _TracedIter(self, name, fn(*args, **kwargs), on_item)
            return gen_wrapper

        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return wrapper

    def install(self):
        """Wrap the public functions of every layer module."""
        modules = {layer: importlib.import_module(f"blocksym.{layer}") for layer in LAYERS}
        hooks = self._hooks()
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                on_call, on_item = hooks.get(name, (None, None))
                wrappers[id(obj)] = self._wrap(name, obj, on_call, on_item)
        namespaces = [m for key, m in sys.modules.items()
                      if key == "blocksym" or key.startswith("blocksym.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    # -- results -----------------------------------------------------------

    def _self(self, *names):
        return sum(self.calls[n][2] for n in names if n in self.calls)

    def _self_prefix(self, prefix, exclude=()):
        return sum(rec[2] for n, rec in self.calls.items()
                   if n.startswith(prefix) and n not in exclude)

    def _incl(self, name):
        return self.calls[name][1] if name in self.calls else 0.0

    def _count(self, name):
        return self.calls[name][0] if name in self.calls else 0

    def layer_metrics(self, bytes_written):
        """Per-layer metrics, keyed by the names in BENCHMARK.json."""
        passes = self.counts["passes"]
        distinct = len(self.pass_keys)
        verify_estimators = self._self_prefix("verify.", exclude=_NOT_ESTIMATORS)
        return {
            "seeding.keys": self.counts["keys"],
            "seeding.key_s": self._self("seeding.substream", "seeding.substream_iter"),
            "processes.passes": passes,
            "processes.distinct_passes": distinct,
            "processes.pass_reuse": distinct / passes if passes else 0.0,
            "processes.panels": self.counts["panels"],
            "processes.draw_s": self._self("processes.generate_panels",
                                           "processes.generate",
                                           "processes.independent_copy"),
            "processes.bytes": self.counts["bytes"],
            "blocking.multiplier_calls": self._count("blocking.draw_multipliers_with"),
            "blocking.multiplier_s": self._self("blocking.draw_multipliers_with"),
            "verify.reduce_s": self._self(*_REDUCE),
            "verify.estimator_s": verify_estimators,
            "verify.prop1_s": self._incl("verify.verify_prop1"),
            "verify.prop2_s": self._incl("verify.verify_prop2"),
            "verify.theorem1_s": self._incl("verify.theorem1_bound"),
            "verify.enumerate_s": self._self("verify.exact_enumeration"),
            "verify.outcomes": self.counts["outcomes"],
            "gaussian.simulate_s": self._self("gaussian.simulate_max_statistics"),
            "gaussian.model_s": self._incl("gaussian.estimate_gaussian_model"),
            "gaussian.gauss_max_s": self._incl("gaussian.sample_gaussian_max"),
            "gaussian.ks_s": self._self("gaussian.kolmogorov_distance"),
            "gaussian.ks_points": self.counts["ks_points"],
            "psi.eval_s": self._self("psi.psi_eval"),
            "psi.evals": self._count("psi.psi_eval"),
            "psi.norm_s": self._incl("psi.psi_moment_norm"),
            "remainders.s": self._self_prefix("remainders."),
            "quadrature.calls": self._count("quadrature.integrate_to_tolerance"),
            "quadrature.s": self._incl("quadrature.integrate_to_tolerance"),
            "cli.parse_s": self._incl("cli.load_config"),
            "cli.run_self_s": self._self("cli.run_experiment"),
            "cli.bytes_written": bytes_written,
        }

    def span_table(self):
        """Aggregated spans with parent links, for the run's detail file."""
        return {
            "functions": {n: {"count": c, "incl_s": i, "self_s": s}
                          for n, (c, i, s) in sorted(self.calls.items())},
            "edges": [{"parent": p, "child": c, "count": k, "incl_s": t}
                      for (p, c), (k, t) in sorted(self.edges.items())],
        }
