"""Span recording for the traced benchmark run.

Spans are taken at layer boundaries from the benchmark's side only.  Inside
a `Tracer.patched()` block the benchmark rebinds the public names that
`mwreg.simulation`, `mwreg.cli` and `mwreg.posterior` look up at call time
(`fit`, `gibbs`, `read_tensor`, ...) to timing wrappers, and puts the
originals back when the block ends.  No file of the package is touched, and
an untraced run never enters the block.

`summarize` turns the spans of the timed operations into the per-layer
figures: per-operation seconds, self time (a span minus its child spans)
and exact counts.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

LAYERS = ("simulation", "fitting", "posterior", "fileio", "cli")

# module -> {name the module calls: span name}
_REBIND = {
    "mwreg.simulation": {
        "simulate": "simulation.simulate",
        "fit": "fitting.fit",
        "predict": "fitting.predict",
        "gibbs": "posterior.gibbs",
        "posterior_predictive": "posterior.predictive",
        "credible_intervals": "posterior.intervals",
    },
    "mwreg.cli": {
        "simulate": "simulation.simulate",
        "fit": "fitting.fit",
        "predict": "fitting.predict",
        "gibbs": "posterior.gibbs",
        "posterior_predictive": "posterior.predictive",
        "credible_intervals": "posterior.intervals",
        "dic": "posterior.dic",
        "read_tensor": "fileio.read",
        "read_model": "fileio.read",
        "read_draws": "fileio.read",
        "write_tensor": "fileio.write",
        "write_model": "fileio.write",
        "write_draws": "fileio.write",
    },
    # `mwreg gibbs` fits its own starting point inside `gibbs`
    "mwreg.posterior": {"fit": "fitting.fit"},
}


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "attrs")

    def __init__(self, sid, parent, name, attrs):
        self.id = sid
        self.parent = parent
        self.name = name
        self.t0 = time.perf_counter()
        self.t1 = None
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "t0": self.t0, "t1": self.t1, **self.attrs}


def _fit_attrs(args, kwargs, out) -> dict:
    return {"sweeps": int(out.iterations), "converged": bool(out.converged)}


def _gibbs_attrs(args, kwargs, out) -> dict:
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    return {"iterations": cfg.burn_in + cfg.n_samples * cfg.thin}


def _predictive_attrs(args, kwargs, out) -> dict:
    # the stack of draws x rows x cells doubles, computed from the shapes
    return {"stack_bytes": len(out) * out[0].size * 8}


def _file_attrs(args, kwargs, out) -> dict:
    # every fileio function takes the path first; the size is read after the call
    return {"bytes": os.path.getsize(args[0])}


_ATTRS = {
    "fitting.fit": _fit_attrs,
    "posterior.gibbs": _gibbs_attrs,
    "posterior.predictive": _predictive_attrs,
    "fileio.read": _file_attrs,
    "fileio.write": _file_attrs,
}


class Tracer:
    """In-memory span list with a stack of open spans (one thread)."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), parent, name, attrs)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.t1 = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, func):
        attrs = _ATTRS.get(name)

        def traced(*args, **kwargs):
            with self.span(name, call=func.__name__) as s:
                out = func(*args, **kwargs)
                if attrs is not None:
                    s.attrs.update(attrs(args, kwargs, out))
                return out

        return traced

    @contextmanager
    def patched(self):
        """Rebind the package's call sites to traced wrappers, then restore."""
        import importlib

        saved = []
        try:
            for modname, names in _REBIND.items():
                mod = importlib.import_module(modname)
                for attr, span_name in names.items():
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self.wrap(span_name, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def _descendants_of_ops(spans, root_name):
    """Spans that descend from a root span named root_name, the roots excluded."""
    root_of = {}
    for s in spans:  # parents are recorded before their children
        if s.parent is None:
            root_of[s.id] = s.id if s.name == root_name else None
        else:
            root_of[s.id] = root_of[s.parent]
    return [s for s in spans if root_of[s.id] is not None and s.name != root_name]


def summarize(spans, root_name: str, n_ops: int) -> dict:
    """Per-layer figures of the spans under the timed operations.

    Times are seconds per operation; counts and bytes are totals over the
    traced pass, so they repeat exactly for a given seed.
    """
    roots = [s for s in spans if s.name == root_name and s.parent is None]
    inner = _descendants_of_ops(spans, root_name)
    child_time = {}
    for s in inner:
        child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
    total = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for s in inner:
        total[s.name] = total.get(s.name, 0.0) + s.seconds
        layer = s.name.split(".")[0]
        self_by_layer[layer] += s.seconds - child_time.get(s.id, 0.0)
    op_time = sum(r.seconds for r in roots)

    def per_op(name):
        return total.get(name, 0.0) / n_ops

    def spans_named(name):
        return [s for s in inner if s.name == name]

    fits = spans_named("fitting.fit")
    gibbs = spans_named("posterior.gibbs")
    # a chain's own time excludes the starting fit it runs itself
    gibbs_self = sum(s.seconds - child_time.get(s.id, 0.0) for s in gibbs)
    gibbs_iters = sum(s.attrs["iterations"] for s in gibbs)
    sweeps = sum(s.attrs["sweeps"] for s in fits)
    fit_s = total.get("fitting.fit", 0.0)
    read_s, write_s = total.get("fileio.read", 0.0), total.get("fileio.write", 0.0)
    bytes_read = sum(s.attrs["bytes"] for s in spans_named("fileio.read"))
    bytes_written = sum(s.attrs["bytes"] for s in spans_named("fileio.write"))
    stacks = [s.attrs["stack_bytes"] for s in spans_named("posterior.predictive")]
    cli_spans = [s for s in inner if s.name.startswith("cli.")]

    return {
        "simulation.run_cell_s": per_op("simulation.run_cell"),
        "simulation.simulate_s": per_op("simulation.simulate"),
        "fitting.fit_s": per_op("fitting.fit"),
        "fitting.predict_s": per_op("fitting.predict"),
        "fitting.fit_calls": len(fits),
        "fitting.sweeps": sweeps,
        "fitting.sweep_ms": 1e3 * fit_s / sweeps if sweeps else 0.0,
        "fitting.unconverged_share": (
            sum(not s.attrs["converged"] for s in fits) / len(fits) if fits else 0.0
        ),
        "posterior.gibbs_s": gibbs_self / n_ops,
        "posterior.gibbs_iter_ms": 1e3 * gibbs_self / gibbs_iters if gibbs_iters else 0.0,
        "posterior.gibbs_iters": gibbs_iters,
        "posterior.predictive_s": per_op("posterior.predictive"),
        "posterior.intervals_s": per_op("posterior.intervals"),
        "posterior.dic_s": per_op("posterior.dic"),
        "posterior.predictive_mb": max(stacks, default=0) / 1e6,
        "fileio.read_s": read_s / n_ops,
        "fileio.write_s": write_s / n_ops,
        "fileio.bytes_read": bytes_read,
        "fileio.bytes_written": bytes_written,
        "fileio.read_mb_s": bytes_read / 1e6 / read_s if read_s else 0.0,
        "fileio.write_mb_s": bytes_written / 1e6 / write_s if write_s else 0.0,
        **{f"cli.{c}_s": per_op(f"cli.{c}") for c in ("simulate", "fit", "predict", "gibbs")},
        "cli.nonzero_exits": sum(s.attrs.get("exit", 0) != 0 for s in cli_spans),
        **{f"{layer}.self_s": v / n_ops for layer, v in self_by_layer.items()},
        "bench.self_s": (op_time - sum(self_by_layer.values())) / n_ops,
    }
