"""Spans and counts at faquad's layer boundaries, taken from outside.

``Tracer.install`` replaces each public function named in ``LAYERS`` (and
``numpy.linalg.eigh``) at the module attribute its callers look up, with a
wrapper that records a span: name, start, end and the span that was open
when it was called. ``MidpointTable`` is wrapped at its ``__init__``.
Spans and counts stay in memory until ``write``. ``layer_metrics`` turns
the written trace into the per-layer metrics; a span's self time is its
duration minus the durations of its child spans.

Spans nest by one stack of open spans, so the traced calls must run on one
thread: the benchmark removes ``FAQUAD_WORKERS`` from the environment, and
faquad's sweeps then run on the calling thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name). Every caller in faquad reaches these
# through the module attribute (``_model.hamiltonian(...)``, or a global
# lookup inside the defining module), so patching the attribute sees them.
LAYERS = (
    ("faquad.model", "hamiltonian", "model.hamiltonian"),
    ("faquad.spectral", "track_frames", "spectral.track_frames"),
    ("faquad.protocol", "design_faquad", "protocol.design"),
    ("faquad.protocol", "design_local_adiabatic", "protocol.design"),
    ("faquad.protocol", "design_uniform_adiabatic", "protocol.design"),
    ("faquad.protocol", "linear_ramp", "protocol.design"),
    ("faquad.dynamics", "default_n_steps", "dynamics.default_n_steps"),
    ("faquad.dynamics", "fidelity_sweep", "dynamics.fidelity_sweep"),
    ("faquad.dynamics", "evolve", "dynamics.evolve"),
    ("faquad.tg", "duration_sweep", "tg.duration_sweep"),
    ("faquad.tg", "epsilon_sweep", "tg.epsilon_sweep"),
    ("faquad.tg", "evolve_stack", "tg.evolve_stack"),
    ("faquad.tg", "stack_at", "tg.stack_at"),
    ("faquad.tg", "tg_fidelity", "tg.tg_fidelity"),
    ("faquad.perturbation", "predict", "perturbation.predict"),
)
# Sweep entry points: one call is one curve. The argument holding the
# curve's points, and the one holding its step count.
CURVES = {
    "dynamics.fidelity_sweep": "tf_list",
    "tg.duration_sweep": "tf_list",
    "tg.epsilon_sweep": "epsilons",
}
MB = 2.0 ** 20


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.curves = []  # [span index, points, n_steps or None]
        self.results = {}  # span index -> return value of default_n_steps
        self._open_spans = []
        self._restore = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._open_spans.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._open_spans.pop()

    @contextmanager
    def span(self, name):
        """Record one span around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, owner, attr, name, after=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def install(self):
        def count_matrices(idx, args, kwargs, result):
            a = np.asarray(args[0] if args else kwargs["a"])
            self.counts["eigh.matrices"] += int(np.prod(a.shape[:-2], dtype=np.int64))

        self._wrap(np.linalg, "eigh", "eigh", count_matrices)
        for module_name, attr, name in LAYERS:
            module = importlib.import_module(module_name)
            after = None
            if name in CURVES:
                after = self._curve_recorder(getattr(module, attr), CURVES[name])
            elif name == "dynamics.default_n_steps":
                after = self._keep_result
            self._wrap(module, attr, name, after)

        dynamics = importlib.import_module("faquad.dynamics")

        def table_bytes(idx, args, kwargs, result):
            table = args[0]
            self.counts["dynamics.table.bytes"] += sum(
                getattr(table, a).nbytes for a in ("lams", "eigvals", "eigvecs"))

        self._wrap(dynamics.MidpointTable, "__init__", "dynamics.table", table_bytes)

    def _keep_result(self, idx, args, kwargs, result):
        self.results[idx] = int(result)

    def _curve_recorder(self, function, points_arg):
        signature = inspect.signature(function)

        def record(idx, args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            points = int(np.size(bound.arguments[points_arg]))
            n_steps = bound.arguments.get("n_steps")
            self.curves.append([idx, points, None if n_steps is None else int(n_steps)])

        return record

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        """Write spans, counts and curves as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "curves": self.curves, "results": self.results}, handle)


def layer_metrics(trace: dict, points: int, bytes_written: int) -> dict:
    """Per-layer metrics (name -> (value, unit)) of one traced round.

    ``points`` is the round's number of curve points, ``bytes_written``
    the size of the files its faquad calls wrote.
    """
    spans = trace["spans"]
    total = defaultdict(float)
    calls = defaultdict(int)
    child = [0.0] * len(spans)
    children = defaultdict(list)
    for idx, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
            children[parent].append(idx)
    self_time = defaultdict(float)
    for idx, (name, start, end, parent) in enumerate(spans):
        self_time[name] += (end - start) - child[idx]

    results = {int(k): v for k, v in trace["results"].items()}
    n_steps = 0
    table_points = 0
    for idx, curve_points, curve_steps in trace["curves"]:
        if curve_steps is None:
            curve_steps = next((results[c] for c in children[idx] if c in results), 0)
        n_steps += curve_steps
        if any(spans[c][0] == "dynamics.table" for c in children[idx]):
            table_points += curve_points

    counts = trace["counts"]
    matrices = counts.get("eigh.matrices", 0)
    tables = calls["dynamics.table"]
    return {
        "eigh.matrices": (int(matrices), "count"),
        "eigh.s": (total["eigh"], "s"),
        "eigh.matrices_per_point": (matrices / points, "ratio"),
        "model.hamiltonian.calls": (calls["model.hamiltonian"], "count"),
        "model.hamiltonian.s": (total["model.hamiltonian"], "s"),
        "spectral.track_frames.calls": (calls["spectral.track_frames"], "count"),
        "spectral.track_frames.self_s": (self_time["spectral.track_frames"], "s"),
        "protocol.design.calls": (calls["protocol.design"], "count"),
        "protocol.design.s": (total["protocol.design"], "s"),
        "dynamics.n_steps": (n_steps, "count"),
        "dynamics.table.builds": (tables, "count"),
        "dynamics.table.s": (total["dynamics.table"], "s"),
        "dynamics.table.mb": (counts.get("dynamics.table.bytes", 0) / MB, "MB"),
        "dynamics.points_per_table": (table_points / tables if tables else 0.0, "ratio"),
        "dynamics.fidelity_sweep.self_s": (self_time["dynamics.fidelity_sweep"], "s"),
        "dynamics.evolve.calls": (calls["dynamics.evolve"], "count"),
        "dynamics.evolve.self_s": (self_time["dynamics.evolve"], "s"),
        "tg.evolve_stack.calls": (calls["tg.evolve_stack"], "count"),
        "tg.stack_at.s": (total["tg.stack_at"], "s"),
        "tg.tg_fidelity.s": (total["tg.tg_fidelity"], "s"),
        "perturbation.predict.s": (total["perturbation.predict"], "s"),
        "cli.self_s": (self_time["cli"], "s"),
        "cli.bytes_written": (int(bytes_written), "bytes"),
    }
