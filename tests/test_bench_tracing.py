"""The benchmark's tracer still finds the layers it wraps.

``bench/tracing.py`` patches faquad's functions by name and binds their
arguments by name, so a rename or a signature change breaks ``--trace 1``.
This runs it, unchanged, over reduced versions of two benchmark calls.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from faquad import cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_metrics(tracing, tmp_path, argv):
    """layer_metrics of one traced ``cli.main(argv)`` run, and its manifest."""
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    try:
        # install patches numpy.linalg.eigh, which every later test uses.
        tracer.install()
        with tracer.span("cli"):
            assert cli.main(argv + ["--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    tracer.write(tmp_path / "trace.json")
    trace = json.loads((tmp_path / "trace.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    metrics = tracing.layer_metrics(trace, points=1, bytes_written=0)
    return {name: value for name, (value, _) in metrics.items()}, manifest


def test_tracer_reports_the_layers_of_a_ring_figure(tracing, tmp_path, monkeypatch):
    # Spans nest on one stack, so the sweeps must run on the calling thread.
    monkeypatch.delenv("FAQUAD_WORKERS", raising=False)
    metrics, _ = _traced_metrics(tracing, tmp_path, ["figure", "fig6a", "--K", "20",
                                                     "--n-steps", "400", "--tf-count", "2"])
    # The frame pass solves its steps in chunks and keeps no midpoint table,
    # so the tracer's table spans see none of the three sweeps.
    assert metrics["dynamics.table.builds"] == 0
    assert metrics["protocol.design.calls"] > 0
    # The linear ramp and the two FAQUAD designs, 400 steps each.
    assert metrics["dynamics.n_steps"] == 3 * 400
    assert metrics["spectral.track_frames.calls"] == 1
    # Each sweep steps all its durations in one frame pass, not by evolve.
    assert metrics["dynamics.evolve.calls"] == 0
    # The ring's secular solver takes every control where no two poles
    # (k - Omega/2pi)^2 tie; numpy's eigh sees only the tie controls
    # Omega = 0 and pi: the 7 single-control stacks (start and N = 3, 9
    # targets of the linear ramp, start and target of each FAQUAD design)
    # and the 2 end points of the 2001-point design grid. No midpoint of
    # the 3 x 400 steps is a tie: 7 + 2.
    assert metrics["eigh.matrices"] == 9
    # The many-body layers stay on the CLI path.
    assert metrics["tg.stack_at.s"] > 0
    assert metrics["tg.tg_fidelity.s"] > 0


def test_tracer_reports_the_default_step_rule_of_a_sweep(tracing, tmp_path, monkeypatch):
    monkeypatch.delenv("FAQUAD_WORKERS", raising=False)
    metrics, manifest = _traced_metrics(tracing, tmp_path, [
        "sweep-tf", "--model", "two-level", "--U", "22.3", "--lambda-start", "66.7",
        "--lambda-end", "0", "--tf-min", "0.5", "--tf-max", "10", "--tf-count", "3"])
    assert metrics["dynamics.table.builds"] == 1
    assert metrics["protocol.design.calls"] > 0
    assert metrics["dynamics.n_steps"] == manifest["derived"]["n_steps"] == 14162
    # The 14162-step table, the 2001-point design grid, the start vector
    # and the step rule's 129 gap probes: 14162 + 2001 + 1 + 129. The
    # prediction reads the design's gap and diagonalises nothing.
    assert metrics["eigh.matrices"] == 16293
