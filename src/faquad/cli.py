"""Command-line front end producing deterministic CSV/JSON artifacts.

Subcommands: design, spectrum, evolve, sweep-tf, sweep-eps, and
figure <preset> for the eight built-in experiment presets. A preset is a
shared config plus a list of steps, each a subcommand, run into one
output directory. A JSON config file provides any subset of the
options; command-line flags override file values, which override preset
values. Before any step runs, every key is checked against its one
declaration in ``_FLAGS``: an unknown key, a value of the wrong type or
out of its range, and a key that no step of the run reads without setting
it itself are rejected. Exit codes: 0 success, 2 configuration error, 3
numerical failure. The environment variable FAQUAD_WORKERS, checked with
the config, caps the number of concurrent sweep workers (default 1).

All CSV numbers are written with ``%.12g`` so that re-running an
identical configuration reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import numbers
import os
import sys
import time

import numpy as np

from . import __version__
from . import dynamics as _dynamics
from . import model as _model
from . import perturbation as _perturbation
from . import protocol as _protocol
from . import spectral as _spectral
from . import tg as _tg
from .errors import ConfigError, FaquadError

# The library function that builds each model kind, and the argument each
# key of the model section passes to it. A key not given takes the
# library's default; one whose argument has none is required.
_BIAS_ARGS = {"U": "U", "J": "J", "lambda_start": "delta_start", "lambda_end": "delta_end"}
_MODEL_ARGS = {
    "two-level": (_model.two_level, _BIAS_ARGS),
    "bose-hubbard-3": (_model.bose_hubbard3, _BIAS_ARGS),
    "ring": (_model.ring, {"u0": "u0", "K": "K", "lambda_start": "omega_start",
                           "lambda_end": "omega_end"}),
}

MIN_RING_K = 20
DEFAULT_OUTPUT_DIR = "faquad-out"
_TYPES = {int: "an integer", float: "a finite number", str: "a string"}


def _is_a(value, kind) -> bool:
    if kind is str:
        return isinstance(value, str)
    if isinstance(value, bool):
        return False
    if kind is int:
        return isinstance(value, numbers.Integral)
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _int_or_str(text: str):
    return int(text) if text.isdecimal() else text


def _at_least(bound):
    return (f">= {bound}", lambda v: v >= bound)


_POSITIVE = ("> 0", lambda v: v > 0)
_ODD = ("odd and >= 1", lambda v: v >= 1 and v % 2 == 1)
_LEVEL = (f"{_dynamics.GROUND!r} or an integer >= 1",
          lambda v: v == _dynamics.GROUND or _is_a(v, int) and v >= 1)

# Every config key, declared once: the command-line flag that sets it, the
# key as "section.key" or a top-level key, the flag's argparse options and
# the range of its value, as (description, test) or None for no range. The
# options give the key's type too: ``type`` is the type of each value, which
# must be one of ``choices`` where these are given, and ``nargs`` or action
# "append" make the value a list of them, of length ``nargs``.
_FLAGS = (
    ("--model", "model.kind", {"choices": sorted(_MODEL_ARGS)}, None),
    ("--U", "model.U", {"type": float}, None),
    ("--J", "model.J", {"type": float}, None),
    ("--u0", "model.u0", {"type": float}, None),
    ("--K", "model.K", {"type": int}, _at_least(MIN_RING_K)),
    ("--lambda-start", "model.lambda_start", {"type": float}, None),
    ("--lambda-end", "model.lambda_end", {"type": float}, None),
    ("--protocol", "protocol.kind", {"choices": sorted(_protocol.KINDS)}, None),
    ("--pair", "protocol.pair", {"nargs": 2, "type": int, "metavar": ("I", "J")}, None),
    ("--grid-points", "protocol.grid_points", {"type": int}, _at_least(2)),
    ("--value", "protocol.value", {"type": float, "help": "constant protocol level"}, None),
    ("--tf", "sweep.tf", {"type": float}, _POSITIVE),
    ("--tf-min", "sweep.tf_min", {"type": float}, _POSITIVE),
    ("--tf-max", "sweep.tf_max", {"type": float}, _POSITIVE),
    ("--tf-count", "sweep.tf_count", {"type": int}, _at_least(2)),
    ("--eps", "sweep.epsilons", {"action": "append", "type": float}, _at_least(-1)),
    ("--N", "sweep.N", {"action": "append", "type": int}, _ODD),
    ("--n-steps", "integrator.n_steps", {"type": int}, _at_least(1)),
    ("--n-save", "integrator.n_save", {"type": int}, _at_least(2)),
    ("--start", "start", {"type": _int_or_str}, _LEVEL),
    ("--target", "target", {"type": _int_or_str}, _LEVEL),
    ("--levels", "levels", {"type": int}, _at_least(1)),
    ("--points", "points", {"type": int}, _at_least(2)),
    ("--out", "output_dir",
     {"type": str, "help": f"output directory (default {DEFAULT_OUTPUT_DIR})"},
     ("not empty", lambda v: v != "")),
)
_DECLARED = {name: (options, allowed) for _, name, options, allowed in _FLAGS}
_SECTIONS = {name.split(".")[0] for name in _DECLARED if "." in name}
_MODEL_KEYS = {name for name in _DECLARED if name.startswith("model.")}


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def _items(cfg: dict):
    """Each key of ``cfg`` as in ``_DECLARED``, with its value."""
    for name, value in cfg.items():
        if name not in _SECTIONS:
            yield name, value
        elif not isinstance(value, dict):
            raise ConfigError(f"config.{name} must be an object")
        else:
            yield from ((f"{name}.{key}", v) for key, v in value.items())


def _check_value(where: str, value, options: dict, allowed) -> None:
    """Reject ``value`` unless it has the type that its key's ``options``
    give and lies in the range ``allowed``."""
    many = "nargs" in options or options.get("action") == "append"
    if many:
        count = options.get("nargs")
        if not isinstance(value, (list, tuple)) or not value or count not in (None, len(value)):
            raise ConfigError(f"{where} must be a list of {count or 'one or more'} values, "
                              f"got {value!r}")
        where = f"each element of {where}"
    kind, choices = options.get("type"), options.get("choices")
    for item in value if many else [value]:
        if choices is not None and not (isinstance(item, str) and item in choices):
            raise ConfigError(f"{where} must be one of {', '.join(choices)}, got {item!r}")
        if kind in _TYPES and not _is_a(item, kind):
            raise ConfigError(f"{where} must be {_TYPES[kind]}, got {item!r}")
        if allowed is not None and not allowed[1](item):
            raise ConfigError(f"{where} must be {allowed[0]}, got {item!r}")
    if options.get("action") == "append" and len(set(value)) < len(value):
        raise ConfigError(f"{where} must differ from the others, got {value!r}")


def _validate_config(cfg: dict) -> None:
    """Reject a key that ``_FLAGS`` does not declare or the model kind does
    not take, and a value of the wrong type or out of its range."""
    if not isinstance(cfg.get("model"), dict) or "kind" not in cfg["model"]:
        raise ConfigError("config.model.kind is required")
    for name, value in _items(cfg):
        if name not in _DECLARED:
            raise ConfigError(f"unknown key config.{name}")
        _check_value(f"config.{name}", value, *_DECLARED[name])
    kind = cfg["model"]["kind"]
    for key in cfg["model"]:
        if key != "kind" and key not in _MODEL_ARGS[kind][1]:
            raise ConfigError(f"unknown key config.model.{key} for model kind {kind}")


def _build_spec(mdl: dict) -> _model.ModelSpec:
    build, names = _MODEL_ARGS[mdl["kind"]]
    parameters = inspect.signature(build).parameters
    missing = [f"config.model.{key}" for key, arg in names.items()
               if key not in mdl and parameters[arg].default is inspect.Parameter.empty]
    if missing:
        raise ConfigError(f"model kind {mdl['kind']} requires {' and '.join(missing)}")
    args = {names[key]: _DECLARED[f"model.{key}"][0]["type"](value)
            for key, value in mdl.items() if key != "kind"}
    try:
        return build(**args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc


def _build_trajectories(spec, cfg: dict, ns=(1,)) -> list:
    """The trajectory of the protocol section of ``cfg`` at the level pair
    (N, N + 1) of each N in ``ns``, which a pair given in that section
    overrides. The designed kinds diagonalise their grid once for every
    pair, and that track is dropped on return."""
    proto = cfg.get("protocol", {})
    kind = proto.get("kind", _protocol.FAQUAD)
    pairs = [tuple(proto.get("pair", (N, N + 1))) for N in ns]
    designers = {_protocol.FAQUAD: _protocol.design_faquad,
                 _protocol.LOCAL_ADIABATIC: _protocol.design_local_adiabatic,
                 _protocol.UNIFORM_ADIABATIC: _protocol.design_uniform_adiabatic}
    try:
        if kind in designers:
            grid_points = proto.get("grid_points", _protocol.DEFAULT_GRID_POINTS)
            track = _protocol.design_track(spec, pairs, grid_points=grid_points)
            return [designers[kind](spec, pair=pair, track=track) for pair in pairs]
        if kind == _protocol.LINEAR:
            return [_protocol.linear_ramp(spec)] * len(pairs)
        if "value" not in proto:
            raise ConfigError("constant protocol requires protocol.value")
        return [_protocol.constant_protocol(spec, float(proto["value"]))] * len(pairs)
    except ValueError as exc:
        raise ConfigError(f"invalid protocol parameters: {exc}") from exc


def _workers() -> int:
    raw = os.environ.get("FAQUAD_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise ConfigError(f"FAQUAD_WORKERS must be an integer, got {raw!r}") from exc


def _tf_grid(sweep: dict) -> np.ndarray:
    try:
        return np.linspace(sweep["tf_min"], sweep["tf_max"], sweep.get("tf_count", 300))
    except KeyError as exc:
        raise ConfigError(f"config.sweep.{exc.args[0]} is required for duration sweeps") from exc


class _Run:
    """Outputs, manifest data and sweep ``workers`` of one invocation.

    A figure preset runs several steps into one directory. While a step
    runs, ``tag`` holds its tag, which ``path`` and ``derive`` append to
    file stems and derived keys: ``sweep.csv`` becomes ``sweep_faquad.csv``
    and ``c_tilde`` becomes ``c_tilde_faquad``.
    """

    def __init__(self, out_dir, command, cfg, workers):
        self.out_dir = out_dir
        self.workers = workers
        self.tag = None
        self.started = time.monotonic()
        self.manifest = {
            "command": command,
            "config": cfg,
            "version": __version__,
            "outputs": [],
            "derived": {},
            "point_failures": [],
        }

    def _tagged(self, name):
        return name if self.tag is None else f"{name}_{self.tag}"

    def path(self, name):
        stem, ext = os.path.splitext(name)
        name = self._tagged(stem) + ext
        os.makedirs(self.out_dir, exist_ok=True)
        self.manifest["outputs"].append(name)
        return os.path.join(self.out_dir, name)

    def derive(self, key, value):
        self.manifest["derived"][self._tagged(key)] = value

    def failures(self, entries):
        if self.tag is not None:
            entries = (dict(e, step=self.tag) for e in entries)
        self.manifest["point_failures"].extend(entries)

    def finish(self) -> int:
        self.manifest["wall_time_s"] = round(time.monotonic() - self.started, 3)
        os.makedirs(self.out_dir, exist_ok=True)
        with open(os.path.join(self.out_dir, "manifest.json"), "w") as handle:
            json.dump(self.manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return 0


def _check_some_point_ran(values):
    """Raise FaquadError, before a sweep step writes its CSV, if every
    value of the sweep is NaN: then every point failed."""
    if np.all(np.isnan(values)):
        raise FaquadError("every sweep point failed")


def _n_steps(cfg):
    return cfg.get("integrator", {}).get("n_steps")


def _derive_frame(run, result, suffix=""):
    """The adiabatic levels a sweep or evolution stepped and their leakage,
    if it took a frame pass."""
    if result.frame_levels is not None:
        run.derive(f"frame_levels{suffix}", result.frame_levels)
        run.derive(f"frame_leakage{suffix}", result.frame_leakage)


def _cmd_design(cfg, spec, run):
    """Schedules at (1, 2), or with sweep.N (ring) at (N, N + 1) of each N."""
    ns = cfg.get("sweep", {}).get("N")
    if ns is not None:
        for N, traj in zip(ns, _build_trajectories(spec, cfg, ns)):
            _write_csv(run.path(f"trajectory_N{N}.csv"), "s,lambda", zip(traj.s_grid, traj.values))
            if traj.c_tilde is not None:
                run.derive(f"c_tilde_N{N}", traj.c_tilde)
        return
    (traj,) = _build_trajectories(spec, cfg)
    _write_csv(run.path("trajectory.csv"), "s,lambda", zip(traj.s_grid, traj.values))
    run.derive("kind", traj.kind)
    if traj.c_tilde is not None:
        pred = _perturbation.predict(traj)
        for key in ("c_tilde", "phi", "period"):
            run.derive(key, getattr(pred, key))


def _cmd_spectrum(cfg, spec, run):
    levels = cfg.get("levels", min(5, spec.dim))
    points = cfg.get("points", 161)
    grid = np.linspace(spec.lambda_start, spec.lambda_end, points)
    # Chunk by chunk with one eigenvector column kept: the grid's
    # eigenvector table is never held.
    energies = np.empty((points, levels))
    for lo, hi, chunk, _ in _spectral._solved(spec, grid, [0]):
        energies[lo:hi] = chunk[:, :levels]
    rows = [(lam, n + 1, energies[i, n]) for i, lam in enumerate(grid) for n in range(levels)]
    _write_csv(run.path("spectrum.csv"), "lambda,n,energy", rows)
    if spec.kind == _model.RING:
        rows = []
        for lam in grid:
            alphas = _model.ring_alpha_roots(lam, spec.params.u0, levels)
            rows.extend((lam, n + 1, alphas[n], alphas[n] ** 2) for n in range(levels))
        _write_csv(run.path("alpha.csv"), "lambda,n,alpha,energy", rows)


def _cmd_evolve(cfg, spec, run):
    sweep = cfg.get("sweep", {})
    if "tf" not in sweep:
        raise ConfigError("config.sweep.tf is required for evolve")
    t_f = float(sweep["tf"])
    (traj,) = _build_trajectories(spec, cfg)
    n_save = cfg.get("integrator", {}).get("n_save", 401)
    start = cfg.get("start", _dynamics.GROUND)

    control = _protocol.rescale(traj, t_f)
    psi0 = _dynamics._level_vector(traj, start, 0.0)
    result = _dynamics.evolve(control, psi0.astype(complex), n_steps=_n_steps(cfg),
                              n_save=n_save)
    proj = _dynamics.adiabatic_projection(result)

    rows = []
    for k, t in enumerate(proj.times):
        for n in range(spec.dim):
            gg = proj.g[k, n]
            rows.append((t, n + 1, gg.real, gg.imag))
    _write_csv(run.path("projection.csv"), "t,n,re_g,im_g", rows)
    run.derive("n_steps", result.n_steps)
    run.derive("norm_drift", result.norm_drift)
    _derive_frame(run, result)
    run.derive("final_populations",
               [float(np.abs(result.final_state[i]) ** 2) for i in range(spec.dim)])
    if traj.c_tilde is not None:
        run.derive("c_tilde", traj.c_tilde)


def _sweep_fillings(cfg, spec, run, tf_grid, ns):
    """Many-body fidelity against duration for each N in ``ns``, with the linear
    ramp as reference, in one tg_sweep.csv. A designed kind is swept at (N, N + 1)
    of each N; the linear ramp and a constant schedule once for all N."""
    trajs = _build_trajectories(spec, cfg, ns)
    kind = trajs[0].kind
    shared = kind in (_protocol.LINEAR, _protocol.CONSTANT)
    plan = [] if kind == _protocol.LINEAR else [(_protocol.linear_ramp(spec), ns, "")]
    plan += [(trajs[0], ns, "")] if shared else [(t, [N], f"_N{N}") for N, t in zip(ns, trajs)]
    curves = {}
    for traj, fillings, suffix in plan:
        found = _tg.duration_sweep(fillings, traj, tf_grid, n_steps=_n_steps(cfg),
                                   workers=run.workers)
        _derive_frame(run, found[0], f"_{traj.kind.replace('-', '_')}{suffix}")
        curves.update(((N, traj.kind), curve) for N, curve in zip(fillings, found))
    rows = []
    for N, traj in zip(ns, trajs):
        if traj.c_tilde is not None:
            run.derive(f"c_tilde_N{N}", traj.c_tilde)
        for protocol in dict.fromkeys((kind, _protocol.LINEAR)):
            curve = curves[N, protocol]
            rows.extend((t, f, N, protocol) for t, f in zip(curve.abscissa, curve.fidelity))
            run.failures({"N": N, "protocol": protocol, "tf": t, "error": m}
                         for t, m in curve.failures)
    _check_some_point_ran([r[1] for r in rows])
    _write_csv(run.path("tg_sweep.csv"), "tf,fidelity,N,protocol", rows)


def _cmd_sweep_tf(cfg, spec, run):
    sweep = cfg.get("sweep", {})
    tf_grid = _tf_grid(sweep)
    if "N" in sweep:
        return _sweep_fillings(cfg, spec, run, tf_grid, sweep["N"])
    (traj,) = _build_trajectories(spec, cfg)
    start = cfg.get("start", _dynamics.GROUND)
    target = cfg.get("target", 1)
    curve = _dynamics.fidelity_sweep(traj, tf_grid, start=start, target=target,
                                     n_steps=_n_steps(cfg), workers=run.workers)
    _check_some_point_ran(curve.population)

    _write_csv(run.path("sweep.csv"), "tf,population", zip(curve.tf, curve.population))
    run.derive("n_steps", curve.n_steps)
    _derive_frame(run, curve)
    run.failures({"tf": t, "error": m} for t, m in curve.failures)
    if traj.c_tilde is not None:
        pred = _perturbation.predict(traj)
        for key in ("c_tilde", "phi", "period"):
            run.derive(key, getattr(pred, key))
        rows = zip(curve.tf, _perturbation.predicted_infidelity(pred, curve.tf),
                   pred.envelope(curve.tf))
        _write_csv(run.path("prediction.csv"), "tf,predicted_infidelity,envelope", rows)


def _cmd_sweep_eps(cfg, spec, run):
    if spec.kind != _model.RING:
        raise ConfigError("sweep-eps is defined for the ring model")
    sweep = cfg.get("sweep", {})
    if "tf" not in sweep:
        raise ConfigError("config.sweep.tf is required for sweep-eps")
    t_f = float(sweep["tf"])
    ns = sweep.get("N", (3, 9))
    epsilons = [float(e) for e in sweep.get("epsilons", _tg.DEFAULT_EPSILONS)]

    rows = []
    for N, traj in zip(ns, _build_trajectories(spec, cfg, ns)):
        curve = _tg.epsilon_sweep(N, traj, t_f, epsilons, n_steps=_n_steps(cfg),
                                  workers=run.workers)
        rows.extend((e, f, N) for e, f in zip(curve.abscissa, curve.fidelity))
        _derive_frame(run, curve, f"_N{N}")
        run.failures({"N": N, "epsilon": e, "error": m} for e, m in curve.failures)
        if traj.c_tilde is not None:
            run.derive(f"c_tilde_N{N}", traj.c_tilde)
    _check_some_point_ran([r[1] for r in rows])
    _write_csv(run.path("epsilon.csv"), "epsilon,fidelity,N", rows)
    run.derive("tf", t_f)


_COMMANDS = {
    "design": _cmd_design,
    "spectrum": _cmd_spectrum,
    "evolve": _cmd_evolve,
    "sweep-tf": _cmd_sweep_tf,
    "sweep-eps": _cmd_sweep_eps,
}

# The config keys each step reads besides the model, which every step reads,
# as "section.key" or a top-level key. Every step writes into output_dir.
_READS_PROTOCOL = {name for name in _DECLARED if name.startswith("protocol.")}
_READS = {step: {"output_dir"} | keys for step, keys in {
    "design": _READS_PROTOCOL | {"sweep.N"},
    "spectrum": {"levels", "points"},
    "evolve": _READS_PROTOCOL | {"sweep.tf", "integrator.n_steps", "integrator.n_save", "start"},
    "sweep-tf": _READS_PROTOCOL | {"sweep.tf_min", "sweep.tf_max", "sweep.tf_count",
                                   "sweep.N", "integrator.n_steps", "start", "target"},
    # Every filling of sweep-eps is designed at its own pair (N, N + 1).
    "sweep-eps": (_READS_PROTOCOL - {"protocol.pair"}) | {"sweep.tf", "sweep.N", "sweep.epsilons",
                                                           "integrator.n_steps"},
}.items()}


def builtin_figures() -> dict:
    """The eight built-in experiment presets, keyed by figure tag.

    A preset is the config its steps share plus ``steps``, a list of
    (command, overrides, tag). Each step runs the subcommand ``command`` on
    the shared config with ``overrides`` laid over it, section by section,
    and appends ``_<tag>`` to its file stems and derived keys (a tag of
    None appends nothing). No shared config holds a key that a step sets.
    """
    two_level = {"kind": "two-level", "U": 22.3, "J": 1.0,
                 "lambda_start": 66.7, "lambda_end": 0.0}
    splitting = {"kind": "bose-hubbard-3", "U": 33.45, "J": 1.0,
                 "lambda_start": 100.0, "lambda_end": 0.0}
    cotunneling = {"kind": "bose-hubbard-3", "U": 22.3, "J": 1.0,
                   "lambda_start": 66.7, "lambda_end": -66.7}
    ring_dyn = {"kind": "ring", "u0": 0.5, "K": 40,
                "lambda_start": 0.0, "lambda_end": math.pi}
    ring_spec = {"kind": "ring", "K": 60, "lambda_start": 0.0, "lambda_end": math.pi}

    def sweeps(*kinds):
        return [("sweep-tf", {"protocol": {"kind": k}}, k.replace("-", "_")) for k in kinds]

    return {
        "fig1b": {
            "model": dict(two_level),
            "sweep": {"tf_min": 0.05, "tf_max": 10.0, "tf_count": 300},
            "start": "ground", "target": 1,
            "steps": sweeps("faquad"),
        },
        "fig1d": {
            "model": dict(two_level),
            "sweep": {"tf_min": 0.05, "tf_max": 10.0, "tf_count": 300},
            "start": "ground", "target": 1,
            "steps": sweeps("local-adiabatic", "uniform-adiabatic", "linear"),
        },
        "fig3b": {
            "model": dict(splitting),
            "sweep": {"tf_min": 0.05, "tf_max": 60.0, "tf_count": 300},
            "start": "ground", "target": 2,
            "steps": sweeps("faquad", "linear"),
        },
        "fig4b": {
            "model": dict(cotunneling),
            "sweep": {"tf_min": 0.05, "tf_max": 80.0, "tf_count": 320},
            "start": "ground", "target": 1,
            "steps": sweeps("faquad", "linear"),
        },
        "fig5a": {
            "model": dict(ring_spec),
            "levels": 5, "points": 161,
            "steps": [("spectrum", {"model": {"u0": 4.0}}, "u0_4"),
                      ("spectrum", {"model": {"u0": 0.5}}, "u0_0p5")],
        },
        "fig5b": {
            "model": dict(ring_dyn),
            "sweep": {"N": [1, 3, 5, 7, 9]},
            "steps": [("design", {"protocol": {"kind": "faquad"}}, None)],
        },
        "fig6a": {
            "model": dict(ring_dyn),
            "sweep": {"tf_min": 5.0, "tf_max": 120.0, "tf_count": 40, "N": [3, 9]},
            "integrator": {"n_steps": 4000},
            "steps": [("sweep-tf", {"protocol": {"kind": "faquad"}}, None)],
        },
        "fig6b": {
            "model": dict(ring_dyn),
            "sweep": {"tf": 90.0, "N": [3, 9],
                      "epsilons": [round(-0.1 + 0.02 * i, 2) for i in range(11)]},
            "integrator": {"n_steps": 4000},
            "steps": [("sweep-eps", {"protocol": {"kind": "faquad"}}, None)],
        },
    }


def _overlay(cfg: dict, extra: dict) -> dict:
    """``cfg`` with ``extra`` laid over it; sections merge key by key."""
    out = dict(cfg)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            value = {**out[key], **value}
        out[key] = value
    return out


def _reject_unread_keys(cfg: dict, command: str, steps) -> None:
    """Reject a key of ``cfg`` that no step of ``steps`` reads without
    setting it itself; only the user can have put such a key there."""
    read = set()
    for name, overrides, _ in steps:
        read |= (_READS[name] | _MODEL_KEYS) - {key for key, _ in _items(overrides)}
    for key, _ in _items(cfg):
        if key not in read:
            raise ConfigError(f"no step of {command} reads config.{key} without setting it")


def _step_config(cfg: dict, overrides: dict):
    """(config, model) of a step: ``cfg`` with the step's ``overrides`` laid
    over it, checked key by key and by the checks that involve two keys,
    and the ModelSpec that its model section builds."""
    step_cfg = _overlay(cfg, overrides)
    _validate_config(step_cfg)
    spec = _build_spec(step_cfg["model"])
    sweep = step_cfg.get("sweep", {})
    if "tf_min" in sweep and "tf_max" in sweep and sweep["tf_min"] >= sweep["tf_max"]:
        raise ConfigError("config.sweep.tf_min must be < config.sweep.tf_max")
    if "N" in sweep and (spec.kind != _model.RING or {"start", "target"} & set(step_cfg)
                         or "pair" in step_cfg.get("protocol", {})):
        raise ConfigError("config.sweep.N takes the ring model and none of config.start, "
                          "config.target and config.protocol.pair: each filling N runs from "
                          "ground to ground state at its own pair (N, N + 1)")
    if "N" in sweep and max(sweep["N"]) > 2 * spec.params.K - 1:
        raise ConfigError(f"each element of config.sweep.N must be <= 2K - 1 = "
                          f"{2 * spec.params.K - 1}, got {sweep['N']}")
    for key in ("start", "target", "levels"):
        level = step_cfg.get(key, 1)
        if level != _dynamics.GROUND and level > spec.dim:
            raise ConfigError(f"config.{key} must be <= {spec.dim}, the dimension of "
                              f"the {spec.kind} model, got {level}")
    return step_cfg, spec


def run_steps(command: str, cfg: dict, steps) -> int:
    """Run ``steps`` (see ``builtin_figures``) on ``cfg`` into its
    ``output_dir`` (default DEFAULT_OUTPUT_DIR), with one manifest for them
    all. A subcommand is a single untagged step. Every key and value, and
    FAQUAD_WORKERS, is checked before the first step runs, and each step
    is handed its config and the model that config builds."""
    _validate_config(cfg)
    _reject_unread_keys(cfg, command, steps)
    configs = [(name, *_step_config(cfg, overrides), tag) for name, overrides, tag in steps]
    cfg = dict(cfg)
    run = _Run(cfg.pop("output_dir", DEFAULT_OUTPUT_DIR), command, cfg, _workers())
    run.manifest["steps"] = steps
    if any(spec.kind == _model.RING for _, _, spec, _ in configs):
        run.manifest["ring_lapack"] = _spectral.LAPACK
    for name, step_cfg, spec, tag in configs:
        run.tag = tag
        _COMMANDS[name](step_cfg, spec, run)
    return run.finish()


def _load_config(path) -> dict:
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _flag_config(args) -> dict:
    """The config that the command-line flags given spell out."""
    cfg = {}
    for flag, name, _, _ in _FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            section, _, key = name.rpartition(".")
            (cfg.setdefault(section, {}) if section else cfg)[key] = value
    return cfg


def _add_common_flags(parser):
    parser.add_argument("--config", help="JSON config file")
    for flag, _, options, _ in _FLAGS:
        parser.add_argument(flag, **options)


@functools.cache
def _build_parser():
    """The command-line parser, built once per process: building it adds
    every flag of every subcommand, and ``parse_args`` keeps no state
    between calls."""
    parser = argparse.ArgumentParser(
        prog="faquad",
        description="Design and simulate fast quasi-adiabatic control schedules.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        _add_common_flags(sub.add_parser(name))
    fig = sub.add_parser("figure")
    fig.add_argument("preset", choices=sorted(builtin_figures()))
    _add_common_flags(fig)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "figure":
            cfg = builtin_figures()[args.preset]
            steps = cfg.pop("steps")
            command = f"figure {args.preset}"
        else:
            cfg, steps, command = {}, [(args.subcommand, {}, None)], args.subcommand
        if args.config:
            cfg = _overlay(cfg, _load_config(args.config))
        cfg = _overlay(cfg, _flag_config(args))
        return run_steps(command, cfg, steps)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FaquadError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
