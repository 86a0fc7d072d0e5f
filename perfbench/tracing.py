"""Span tracing of gssamp's public functions, built only from benchmark code.

``Tracer.install`` replaces each traced function wherever a gssamp module
holds it -- as a module attribute, a name re-imported into another module
(``gssamp.cli``, ``gssamp.pyramid``, ``gssamp.reduction``, the package
itself) or a value of a module-level dict such as ``cli._GENERATORS`` -- and
``scipy.linalg.eigh``. It also counts ``Graph`` and ``SamplingContext``
constructions and ``Graph.is_connected`` calls by patching the classes.
``uninstall`` puts every original back; ``assert_clean`` proves that no
wrapper is left, which untraced runs check before they time anything.

A span is ``(name, start, end, parent, job)``; spans stay in memory until
``write_spans``. Self time is a span's duration minus its children's.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

import scipy.linalg

from gssamp import cli, graphs, pyramid, reduction, sampling, spectral

_MARK = "_perfbench_original"

# (home module, function name, span name). Every graph generator and the
# edge-list loader share the span "graphs.build".
TRACED = [
    *[(graphs, fn, "graphs.build") for fn in (
        "build_path", "build_ring", "build_grid", "build_complete", "build_comet",
        "build_community", "build_random_regular", "build_random_sensor",
        "load_edge_list",
    )],
    (graphs, "laplacian", "graphs.laplacian"),
    *[(spectral, fn, f"spectral.{fn}") for fn in (
        "eigendecompose", "collapse_duplicate_nodes", "sample_interpolant", "gft", "igft",
    )],
    *[(reduction, fn, f"reduction.{fn}") for fn in (
        "kron_reduce", "sparsify", "select_polarity",
    )],
    *[(sampling, fn, f"sampling.{fn}") for fn in (
        "vertex_downsample", "vertex_upsample", "spectral_downsample_index",
        "spectral_upsample_index", "spectral_downsample_spectrum",
        "spectral_upsample_spectrum", "fractional_downsample",
    )],
    *[(pyramid, fn, f"pyramid.{fn}") for fn in (
        "analyze", "synthesize", "nonlinear_approximate", "filter_signal", "nla_error_curve",
    )],
    (cli, "run_experiment", "cli.run_experiment"),
]

# Operators that take a SamplingContext as their first argument.
CONTEXT_OPS = frozenset({
    "sampling.spectral_downsample_index", "sampling.spectral_upsample_index",
    "sampling.spectral_downsample_spectrum", "sampling.spectral_upsample_spectrum",
    "sampling.fractional_downsample",
})

# Class attributes patched for counters: (class, attribute, counter name).
_CLASS_HOOKS = [
    (graphs.Graph, "__post_init__", "graphs.Graph.constructions"),
    (graphs.Graph, "is_connected", "graphs.is_connected.calls"),
    (sampling.SamplingContext, "__init__", "sampling.SamplingContext.constructions"),
]


def _holders():
    """Every namespace a traced function can be looked up through."""
    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == "gssamp" or name.startswith("gssamp."))]
    for mod in mods:
        yield vars(mod)
        for key, value in list(vars(mod).items()):
            if isinstance(value, dict) and not key.startswith("__"):
                yield value


def assert_clean() -> None:
    """Raise if any benchmark wrapper is installed anywhere tracing reaches."""
    dirty = [key for holder in _holders() for key, v in holder.items()
             if callable(v) and hasattr(v, _MARK)]
    dirty += [f"{cls.__name__}.{attr}" for cls, attr, _ in _CLASS_HOOKS
              if hasattr(vars(cls)[attr], _MARK)]
    if hasattr(scipy.linalg.eigh, _MARK):
        dirty.append("scipy.linalg.eigh")
    if hasattr(spectral.eigendecompose, _MARK) or spectral.eigendecompose.__module__ != "gssamp.spectral":
        dirty.append("gssamp.spectral.eigendecompose")
    if dirty:
        raise RuntimeError(f"tracing wrappers still installed: {sorted(set(dirty))}")


class Tracer:
    """Collects spans and counters while installed and ``active``."""

    def __init__(self):
        self.active = False
        self.job = None
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, child seconds]
        self._sparsify_depth = 0
        self._contexts = weakref.WeakSet()
        self._restore: list = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])

    def _exit(self):
        end = time.perf_counter()
        idx, child = self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        self.calls[span[0]] += 1
        self.self_s[span[0]] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, fn, name):
        tracer = self
        is_ctx_op = name in CONTEXT_OPS
        is_sparsify = name == "reduction.sparsify"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if is_ctx_op and args and args[0] not in tracer._contexts:
                tracer._contexts.add(args[0])
                tracer.counts["sampling.contexts_used"] += 1
            tracer._sparsify_depth += is_sparsify
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
                tracer._sparsify_depth -= is_sparsify

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _counting(self, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[counter] += 1
                if counter == "graphs.Graph.constructions" and tracer._sparsify_depth:
                    tracer.counts["graphs.Graph.constructions_in_sparsify"] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for mod, attr, name in TRACED:
            fn = getattr(mod, attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, name))
        for holder in _holders():
            for key, value in list(holder.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    holder[key] = hit[1]
                    self._restore.append((holder, key, value))
        eigh = scipy.linalg.eigh
        scipy.linalg.eigh = self._wrap(eigh, "spectral.eigh")
        self._restore.append((vars(scipy.linalg), "eigh", eigh))
        for cls, attr, counter in _CLASS_HOOKS:
            original = vars(cls)[attr]
            setattr(cls, attr, self._counting(original, counter))
            self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        self.active = False
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "job"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, jobs: int, job_wall_s: float) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``, normalized per job."""
        jobs = max(jobs, 1)
        out = {}

        def per_job(name, count, unit):
            out[name] = (count / jobs, unit)

        for name in sorted({name for _, _, name in TRACED}):
            per_job(f"{name}.calls", self.calls[name], "calls/job")
            per_job(f"{name}.self_s", self.self_s[name], "s/job")
        for _, _, counter in _CLASS_HOOKS:
            per_job(counter, self.counts[counter], "count/job")
        eigh_s = self.self_s["spectral.eigh"]
        per_job("spectral.eigh_s", eigh_s, "s/job")
        out["spectral.eigh_share"] = (eigh_s / job_wall_s if job_wall_s else 0.0, "frac")
        in_sparsify = self.counts["graphs.Graph.constructions_in_sparsify"]
        out["reduction.sparsify.useful_frac"] = (
            self.calls["reduction.sparsify"] / in_sparsify if in_sparsify else 0.0, "frac")
        used = self.counts["sampling.contexts_used"]
        ctx_calls = sum(self.calls[name] for name in CONTEXT_OPS)
        out["sampling.calls_per_context"] = (ctx_calls / used if used else 0.0, "calls/ctx")
        return out

