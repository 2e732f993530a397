"""End-to-end command-line runs against temporary output directories."""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import faquad
from faquad import cli, dynamics

from conftest import traced_peak

TWO_LEVEL_FLAGS = ["--model", "two-level", "--U", "22.3",
                   "--lambda-start", "66.7", "--lambda-end", "0"]
RING_FLAGS = ["--model", "ring", "--u0", "0.5", "--K", "20"]
# A many-body duration sweep of a designed kind that no preset runs.
RING_LA_SWEEP = ["sweep-tf", "--model", "ring", "--u0", "0.5", "--K", "20", "--N", "3",
                 "--N", "9", "--protocol", "local-adiabatic", "--tf-min", "5", "--tf-max", "120",
                 "--n-steps", "400", "--tf-count", "2"]


def _read_csv(path):
    with open(path) as handle:
        header = handle.readline().strip()
        rows = [line.strip().split(",") for line in handle if line.strip()]
    return header, rows


def test_design_writes_trajectory_and_manifest(tmp_path):
    out = tmp_path / "design"
    code = cli.main(["design", *TWO_LEVEL_FLAGS, "--protocol", "faquad",
                     "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out / "trajectory.csv")
    assert header == "s,lambda"
    assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 66.7
    assert float(rows[-1][0]) == 1.0 and float(rows[-1][1]) == 0.0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "design"
    assert manifest["derived"]["c_tilde"] == pytest.approx(0.35179079601708424, rel=1e-9)
    assert manifest["derived"]["phi"] == pytest.approx(4.195468594893811, rel=1e-9)
    assert "trajectory.csv" in manifest["outputs"]
    assert "version" in manifest and "wall_time_s" in manifest


def test_reruns_are_byte_identical(tmp_path):
    args = ["design", *TWO_LEVEL_FLAGS, "--protocol", "faquad"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_csv_precision_roundtrip(tmp_path):
    out = tmp_path / "rt"
    assert cli.main(["design", *TWO_LEVEL_FLAGS, "--protocol", "faquad",
                     "--out", str(out)]) == 0
    _, rows = _read_csv(out / "trajectory.csv")
    values = np.array([float(r[1]) for r in rows])
    from faquad import model, protocol
    spec = model.two_level(U=22.3, delta_start=66.7, delta_end=0.0)
    traj = protocol.design_faquad(spec)
    assert np.max(np.abs(values - traj.values)) <= 1e-10 * 66.7


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": {"kind": "two-level", "U": 22.3,
                                         "lambda_start": 66.7, "lambda_end": 0.0,
                                         "typo_key": 1}}))
    code = cli.main(["design", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "typo_key" in capsys.readouterr().err


def test_invalid_json_is_rejected(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert cli.main(["design", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2


def test_missing_model_is_rejected(tmp_path):
    assert cli.main(["design", "--out", str(tmp_path / "o")]) == 2


def test_small_ring_truncation_rejected(tmp_path):
    assert cli.main(["design", "--model", "ring", "--u0", "0.5", "--K", "6",
                     "--out", str(tmp_path / "o")]) == 2


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # The parser is built once; a good call leaves nothing in it that lets a
    # later bad flag through or hands a flag to a later call.
    assert cli._build_parser() is cli._build_parser()
    assert cli.main(["design", *TWO_LEVEL_FLAGS, "--out", str(tmp_path / "a")]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["design", *TWO_LEVEL_FLAGS, "--no-such-flag", "--out", str(tmp_path / "b")])
    assert exc.value.code == 2
    assert "--no-such-flag" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()
    assert cli.main(["design", "--out", str(tmp_path / "c")]) == 2
    assert cli._flag_config(cli._build_parser().parse_args(["design"])) == {}


def test_numerical_failure_maps_to_exit_3(tmp_path, capsys):
    # A barrier-free ring makes the requested pair exactly degenerate,
    # which is a numerical (not configuration) failure.
    code = cli.main(["design", "--model", "ring", "--u0", "0", "--K", "20",
                     "--pair", "2", "3", "--out", str(tmp_path / "o")])
    assert code == 3


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "two-level", "U": 10.0,
                  "lambda_start": 66.7, "lambda_end": 0.0},
        "protocol": {"kind": "faquad"},
    }))
    out = tmp_path / "o"
    assert cli.main(["design", "--config", str(cfg), "--U", "22.3",
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["model"]["U"] == 22.3
    assert manifest["derived"]["c_tilde"] == pytest.approx(0.35179079601708424, rel=1e-9)


def test_builtin_presets_are_complete():
    figs = cli.builtin_figures()
    assert sorted(figs) == ["fig1b", "fig1d", "fig3b", "fig4b",
                            "fig5a", "fig5b", "fig6a", "fig6b"]
    assert figs["fig3b"]["model"]["U"] == 33.45
    assert figs["fig3b"]["model"]["lambda_start"] == 100.0
    assert figs["fig3b"]["target"] == 2
    assert figs["fig4b"]["model"]["lambda_end"] == -66.7
    assert figs["fig6b"]["sweep"]["tf"] == 90.0
    assert figs["fig6b"]["sweep"]["N"] == [3, 9]
    assert figs["fig5a"]["model"]["K"] == 60


def test_figure_preset_with_overrides(tmp_path):
    out = tmp_path / "f1b"
    code = cli.main(["figure", "fig1b", "--tf-min", "0.5", "--tf-max", "2.0",
                     "--tf-count", "6", "--n-steps", "2048", "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out / "sweep_faquad.csv")
    assert header == "tf,population"
    assert len(rows) == 6
    assert float(rows[0][0]) == 0.5 and float(rows[-1][0]) == 2.0
    header, _ = _read_csv(out / "prediction_faquad.csv")
    assert header == "tf,predicted_infidelity,envelope"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["derived"]["c_tilde_faquad"] == pytest.approx(
        0.35179079601708424, rel=1e-9)


def test_sweep_tf_outputs(tmp_path):
    out = tmp_path / "sw"
    code = cli.main(["sweep-tf", *TWO_LEVEL_FLAGS, "--protocol", "faquad",
                     "--tf-min", "0.5", "--tf-max", "1.5", "--tf-count", "5",
                     "--n-steps", "2048", "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out / "sweep.csv")
    assert header == "tf,population"
    assert len(rows) == 5
    pops = [float(r[1]) for r in rows]
    assert all(0.0 <= p <= 1.0 + 1e-9 for p in pops)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["point_failures"] == []
    assert manifest["derived"]["n_steps"] == 2048
    # The tree product truncates nothing, so there is no frame to report.
    assert "frame_levels" not in manifest["derived"]


@pytest.mark.parametrize("args,tags", [
    (["sweep-tf", "--model", "ring", "--u0", "0.5", "--K", "20", "--protocol", "linear",
      "--tf-min", "2", "--tf-max", "10", "--tf-count", "2", "--n-steps", "400"], [""]),
    (["figure", "fig6a", "--K", "20", "--n-steps", "400", "--tf-count", "2"],
     ["_linear", "_faquad_N3", "_faquad_N9"]),
    (RING_LA_SWEEP, ["_linear", "_local_adiabatic_N3", "_local_adiabatic_N9"]),
], ids=["sweep-tf", "fig6a", "sweep-tf-N"])
def test_ring_duration_sweeps_report_their_frame(tmp_path, args, tags):
    # Each sweep's adiabatic levels and leakage, so that a reader can judge
    # the truncation from the manifest.
    assert cli.main(args + ["--out", str(tmp_path / "o")]) == 0
    derived = json.loads((tmp_path / "o" / "manifest.json").read_text())["derived"]
    for tag in tags:
        assert derived[f"frame_levels{tag}"] == dynamics.FRAME_LEVELS
        assert 0 < derived[f"frame_leakage{tag}"] <= dynamics.LEAKAGE_LIMIT


def test_sweep_eps_outputs(tmp_path):
    out = tmp_path / "eps"
    code = cli.main(["sweep-eps", "--model", "ring", "--u0", "0.5", "--K", "40",
                     "--N", "3", "--tf", "20", "--eps", "-0.1", "--eps", "0",
                     "--n-steps", "1500", "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out / "epsilon.csv")
    assert header == "epsilon,fidelity,N"
    assert [r[2] for r in rows] == ["3", "3"]
    assert float(rows[1][0]) == 0.0
    # Each epsilon point is one frame pass; the largest levels and leakage
    # over the points are reported per N.
    derived = json.loads((out / "manifest.json").read_text())["derived"]
    assert derived["frame_levels_N3"] == dynamics.FRAME_LEVELS
    assert 0 < derived["frame_leakage_N3"] <= dynamics.LEAKAGE_LIMIT


def test_evolve_projection_output(tmp_path):
    out = tmp_path / "ev"
    code = cli.main(["evolve", *TWO_LEVEL_FLAGS, "--protocol", "faquad",
                     "--tf", "1.5", "--n-steps", "2048", "--n-save", "11",
                     "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out / "projection.csv")
    assert header == "t,n,re_g,im_g"
    assert len(rows) == 11 * 2
    assert float(rows[0][2]) == 1.0 and float(rows[0][3]) == 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    pops = manifest["derived"]["final_populations"]
    assert sum(pops) == pytest.approx(1.0, abs=1e-9)
    # Two levels are the whole model: the frame pass truncates nothing.
    assert manifest["derived"]["frame_levels"] == 2
    assert abs(manifest["derived"]["frame_leakage"]) <= 1e-12


def test_spectrum_outputs_ring_oracle_files(tmp_path):
    out = tmp_path / "sp"
    code = cli.main(["spectrum", "--model", "ring", "--u0", "4", "--K", "20",
                     "--points", "7", "--levels", "4", "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out / "spectrum.csv")
    assert header == "lambda,n,energy"
    assert len(rows) == 7 * 4
    header, rows = _read_csv(out / "alpha.csv")
    assert header == "lambda,n,alpha,energy"
    for r in rows:
        assert float(r[3]) == pytest.approx(float(r[2]) ** 2, rel=1e-9)
    # A ring run names the LAPACK that solved it.
    from faquad import spectral
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ring_lapack"] == spectral.LAPACK


def test_spectrum_default_levels_fit_the_model(tmp_path):
    out = tmp_path / "sp"
    assert cli.main(["spectrum", *TWO_LEVEL_FLAGS, "--points", "3", "--out", str(out)]) == 0
    _, rows = _read_csv(out / "spectrum.csv")
    assert len(rows) == 3 * 2
    assert "ring_lapack" not in json.loads((out / "manifest.json").read_text())


def test_spectrum_streams_its_grid(tmp_path, monkeypatch):
    # 4000 K = 40 ring controls. One eigh of the whole grid held a
    # (4000, 81, 81) eigenvector table: a traced peak of 210 MB. The stream
    # keeps one column per chunk: traced peaks of 1.0 MB on the solver
    # threads and 4.5 MB with every chunk solved inline (one core). The
    # bound is the larger plus 3.5 MB of margin. The root oracle of
    # alpha.csv is stubbed: it is not what is measured.
    from faquad import model, spectral
    monkeypatch.setattr(model, "ring_alpha_roots", lambda lam, u0, n: np.zeros(n))
    out = tmp_path / "sp"
    args = ["spectrum", "--model", "ring", "--u0", "0.5", "--K", "40", "--points", "4000",
            "--levels", "1", "--out", str(out)]
    code, peak = traced_peak(lambda: cli.main(args))
    assert code == 0
    assert peak <= 8e6
    _, rows = _read_csv(out / "spectrum.csv")
    spec = model.ring(u0=0.5, K=40)
    grid = np.linspace(spec.lambda_start, spec.lambda_end, 4000)[::97]
    energies = spectral.eigh(spec, grid)[0][:, 0]
    assert [row[0] for row in rows[::97]] == [cli._fmt(lam) for lam in grid]
    assert [row[2] for row in rows[::97]] == [cli._fmt(energy) for energy in energies]


@pytest.mark.parametrize("args,csv", [
    pytest.param(["sweep-tf", *TWO_LEVEL_FLAGS, "--protocol", "faquad", "--tf-min", "0.5",
                  "--tf-max", "1.5", "--tf-count", "5", "--n-steps", "2048"],
                 "sweep.csv", id="sweep-tf"),
    pytest.param(["sweep-eps", "--model", "ring", "--u0", "0.5", "--K", "20", "--tf", "10",
                  "--N", "3", "--eps", "-0.05", "--eps", "0", "--eps", "0.05",
                  "--n-steps", "400"],
                 "epsilon.csv", id="sweep-eps"),
    pytest.param(["figure", "fig6a", "--K", "20", "--n-steps", "400", "--tf-count", "3"],
                 "tg_sweep.csv", id="fig6a"),
])
def test_workers_env_does_not_change_results(tmp_path, monkeypatch, args, csv):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.delenv("FAQUAD_WORKERS", raising=False)
    assert cli.main(args + ["--out", str(a)]) == 0
    monkeypatch.setenv("FAQUAD_WORKERS", "2")
    assert cli.main(args + ["--out", str(b)]) == 0
    assert (a / csv).read_bytes() == (b / csv).read_bytes()


@pytest.mark.parametrize("args", [
    ["figure", "fig6a", "--tf-count", "2"],
    ["design", *TWO_LEVEL_FLAGS],
], ids=["fig6a", "design"])
def test_malformed_workers_env_is_rejected_before_any_step(tmp_path, monkeypatch, capsys, args):
    from faquad import spectral
    calls = []
    monkeypatch.setattr(spectral, "track_frames", lambda *a, **k: calls.append(a))
    monkeypatch.setenv("FAQUAD_WORKERS", "x")
    assert cli.main(args + ["--out", str(tmp_path / "o")]) == 2
    assert "FAQUAD_WORKERS" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,section,key,value", [
    ("sweep-tf", "sweep", "tf_count", "x"),
    ("sweep-tf", "protocol", "kind", ["faquad"]),
    ("sweep-tf", "protocol", "pair", 3),
    ("sweep-eps", "sweep", "N", ["x"]),
    ("design", "protocol", "pair", [3]),
    ("sweep-eps", "sweep", "N", [3.5]),
    ("sweep-tf", "sweep", "tf_count", 2.9),
    ("sweep-tf", "integrator", "n_steps", 400.7),
])
def test_wrong_typed_config_value_is_rejected(tmp_path, capsys, command, section, key, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    model = {"sweep-eps": ["--model", "ring", "--u0", "0.5", "--K", "20", "--tf", "10"],
             "sweep-tf": TWO_LEVEL_FLAGS + ["--tf-min", "0.5", "--tf-max", "1"],
             "design": TWO_LEVEL_FLAGS}[command]
    assert cli.main([command, *model, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config.{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args,key", [
    (["figure", "fig1b", "--points", "7", "--tf-count", "3"], "config.points"),
    (["figure", "fig1b", "--eps", "3", "--tf-count", "3"], "config.sweep.epsilons"),
    (["figure", "fig6b", "--tf-min", "1"], "config.sweep.tf_min"),
    (["figure", "fig5b", "--n-steps", "400"], "config.integrator.n_steps"),
    (["design", *TWO_LEVEL_FLAGS, "--tf", "3"], "config.sweep.tf"),
    (["sweep-eps", *RING_FLAGS, "--tf", "10", "--eps", "0", "--pair", "1", "2"],
     "config.protocol.pair"),
])
def test_a_key_no_step_reads_is_rejected(tmp_path, capsys, args, key):
    assert cli.main(args + ["--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args", [
    ["figure", "fig5b", "--K", "20"],
    ["figure", "fig6a", "--K", "20", "--n-steps", "400", "--tf-count", "2"],
    ["sweep-eps", "--model", "ring", "--u0", "0.5", "--K", "20", "--N", "3", "--N", "9",
     "--tf", "10", "--eps", "0", "--n-steps", "400"],
    ["design", "--model", "ring", "--u0", "0.5", "--K", "20", "--N", "1", "--N", "3"],
    RING_LA_SWEEP,
], ids=["fig5b", "fig6a", "sweep-eps", "design-N", "sweep-tf-N"])
def test_ring_designs_share_one_track(tmp_path, monkeypatch, args):
    from faquad import protocol, spectral
    grids = []
    track_frames = spectral.track_frames

    def counting(spec, grid, pairs=((1, 2),)):
        if len(grid) == protocol.DEFAULT_GRID_POINTS:
            grids.append(len(pairs))
        return track_frames(spec, grid, pairs)

    monkeypatch.setattr(spectral, "track_frames", counting)
    assert cli.main(args + ["--out", str(tmp_path / "o")]) == 0
    n_pairs = 5 if args[1] == "fig5b" else 2
    assert grids == [n_pairs]


def test_ring_sweep_tf_over_fillings_matches_the_library(tmp_path):
    # tg_sweep.csv holds, per N, the designed kind's curve at (N, N + 1) and
    # the linear ramp's, one sweep of the N = 9 stack serving both N.
    from faquad import model, protocol, tg
    out = tmp_path / "o"
    assert cli.main(RING_LA_SWEEP + ["--out", str(out)]) == 0
    spec = model.ring(u0=0.5, K=20)
    track = protocol.design_track(spec, [(3, 4), (9, 10)])
    tf = np.linspace(5.0, 120.0, 2)
    linear = tg.duration_sweep([3, 9], protocol.linear_ramp(spec), tf, n_steps=400)
    expected, c_tilde = [], {}
    for N, reference in zip((3, 9), linear):
        traj = protocol.design_local_adiabatic(spec, pair=(N, N + 1), track=track)
        (curve,) = tg.duration_sweep([N], traj, tf, n_steps=400)
        c_tilde[f"c_tilde_N{N}"] = traj.c_tilde
        for kind, c in (("local-adiabatic", curve), ("linear", reference)):
            expected.extend([format(t, ".12g"), format(f, ".12g"), str(N), kind]
                            for t, f in zip(c.abscissa, c.fidelity))
    header, rows = _read_csv(out / "tg_sweep.csv")
    assert header == "tf,fidelity,N,protocol"
    assert rows == expected
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["tg_sweep.csv"]
    assert {k: manifest["derived"][k] for k in c_tilde} == c_tilde


def test_ring_sweep_tf_without_fillings_stays_single_particle(tmp_path):
    out = tmp_path / "o"
    assert cli.main(["sweep-tf", *RING_FLAGS, "--protocol", "faquad", "--tf-min", "2",
                     "--tf-max", "10", "--tf-count", "2", "--n-steps", "400",
                     "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"sweep.csv", "prediction.csv", "manifest.json"}
    assert _read_csv(out / "sweep.csv")[0] == "tf,population"


def test_only_spectral_builds_and_diagonalises_a_hamiltonian(tmp_path, monkeypatch):
    """Every subcommand assembles H only inside ``spectral.eigh``: the step
    rule, the prediction's Phi and ``spectrum`` read their energies from it."""
    from faquad import model
    callers = set()
    hamiltonian = model.hamiltonian

    def recording(*args, **kwargs):
        callers.add(sys._getframe(1).f_globals["__name__"])
        return hamiltonian(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh called")

    monkeypatch.setattr(model, "hamiltonian", recording)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    tf_flags = ["--tf-min", "0.5", "--tf-max", "2", "--tf-count", "3"]
    runs = [
        ["design", *TWO_LEVEL_FLAGS, "--protocol", "faquad"],
        ["spectrum", *TWO_LEVEL_FLAGS, "--points", "5"],
        ["evolve", *TWO_LEVEL_FLAGS, "--protocol", "faquad", "--tf", "1.5"],
        ["sweep-tf", *TWO_LEVEL_FLAGS, "--protocol", "faquad", *tf_flags],
        ["sweep-tf", *TWO_LEVEL_FLAGS, "--protocol", "linear", *tf_flags],
        ["spectrum", *RING_FLAGS, "--points", "5"],
        ["sweep-eps", *RING_FLAGS, "--N", "3", "--tf", "10", "--eps", "0",
         "--n-steps", "400"],
    ]
    for i, args in enumerate(runs):
        assert cli.main(args + ["--out", str(tmp_path / str(i))]) == 0, args
    assert callers == {"faquad.spectral"}


def test_import_loads_no_scipy():
    """A fresh ``import faquad.cli`` loads no scipy module: the ring
    solver takes ``dlaed9`` from the LAPACK that numpy links. The root
    oracle imports ``brentq`` when it is called."""
    code = (
        "import sys\n"
        "import faquad.cli\n"
        "from faquad import model\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        "print(model.ring_alpha_roots(0.5, 1.0, 3).tolist())\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(faquad.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    roots = json.loads(done.stdout)
    assert len(roots) == 3 and roots == sorted(roots)


@pytest.mark.parametrize("args,key", [
    (["sweep-eps", *RING_FLAGS, "--N", "4", "--tf", "10", "--eps", "0"], "config.sweep.N"),
    (["figure", "fig6a", "--K", "20", "--N", "4", "--n-steps", "400", "--tf-count", "2"],
     "config.sweep.N"),
    (["sweep-eps", *RING_FLAGS, "--N", "41", "--tf", "10", "--eps", "0"], "config.sweep.N"),
    (["sweep-eps", *RING_FLAGS, "--tf", "0", "--eps", "0"], "config.sweep.tf"),
    (["sweep-eps", *RING_FLAGS, "--tf", "10", "--eps", "-2"], "config.sweep.epsilons"),
    (["sweep-tf", *TWO_LEVEL_FLAGS, "--tf-min", "0.5", "--tf-max", "1", "--n-steps", "0"],
     "config.integrator.n_steps"),
    (["sweep-tf", *TWO_LEVEL_FLAGS, "--tf-min", "1", "--tf-max", "0.5"], "config.sweep.tf_min"),
    (["evolve", *TWO_LEVEL_FLAGS, "--tf", "1", "--n-save", "1"], "config.integrator.n_save"),
    (["spectrum", *RING_FLAGS, "--points", "0"], "config.points"),
    (["spectrum", *TWO_LEVEL_FLAGS, "--levels", "3"], "config.levels"),
    (["sweep-tf", *TWO_LEVEL_FLAGS, "--tf-min", "0.5", "--tf-max", "1", "--target", "7"],
     "config.target"),
    (["sweep-tf", *TWO_LEVEL_FLAGS, "--tf-min", "0.5", "--tf-max", "1", "--start", "0"],
     "config.start"),
    (["figure", "fig6a", "--K", "20", "--n-steps", "400", "--tf-count", "2", "--N", "3",
      "--N", "3"], "config.sweep.N"),
    (["sweep-eps", *RING_FLAGS, "--N", "3", "--tf", "10", "--eps", "0", "--eps", "0"],
     "config.sweep.epsilons"),
    (["design", *TWO_LEVEL_FLAGS, "--N", "3"], "config.sweep.N"),
    (["sweep-tf", *TWO_LEVEL_FLAGS, "--tf-min", "0.5", "--tf-max", "1", "--N", "3"],
     "config.sweep.N"),
    (["figure", "fig6a", "--K", "20", "--tf-count", "2", "--start", "ground"], "config.start"),
    (["sweep-tf", *RING_FLAGS, "--tf-min", "1", "--tf-max", "2", "--N", "3", "--target", "1"],
     "config.target"),
    (["design", *RING_FLAGS, "--N", "3", "--N", "9", "--pair", "1", "2"],
     "config.protocol.pair"),
    (["sweep-tf", *RING_FLAGS, "--tf-min", "1", "--tf-max", "2", "--N", "3", "--pair", "1", "2"],
     "config.protocol.pair"),
    (["design", "--model", "ring", "--K", "20", "--N", "1"], "config.model.u0"),
    (["design", "--model", "two-level", "--U", "22.3"], "config.model.lambda_start"),
    (["design", "--model", "two-level", "--lambda-start", "1", "--lambda-end", "0"],
     "config.model.U"),
], ids=["sweep-eps-even-N", "fig6a-even-N", "N-above-2K-1", "tf", "eps", "n-steps",
        "tf-order", "n-save", "points", "levels", "target", "start", "repeated-N",
        "repeated-eps", "design-N-two-level", "sweep-tf-N-two-level", "start-with-N",
        "target-with-N", "design-N-pair", "sweep-tf-N-pair", "ring-without-u0",
        "two-level-without-lambdas", "two-level-without-U"])
def test_out_of_range_value_is_rejected_before_any_step(tmp_path, monkeypatch, capsys, args, key):
    from faquad import spectral
    calls = []
    monkeypatch.setattr(spectral, "track_frames", lambda *a, **k: calls.append(a))
    assert cli.main(args + ["--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert calls == []


@pytest.mark.parametrize("args,key", [
    (["evolve", *TWO_LEVEL_FLAGS, "--n-steps", "10"], "config.sweep.tf"),
    (["sweep-tf", *TWO_LEVEL_FLAGS, "--tf-max", "1"], "config.sweep.tf_min"),
    (["sweep-tf", *TWO_LEVEL_FLAGS, "--tf-min", "0.5"], "config.sweep.tf_max"),
], ids=["evolve-tf", "sweep-tf-min", "sweep-tf-max"])
def test_missing_duration_is_rejected_before_the_design(tmp_path, monkeypatch, capsys, args, key):
    from faquad import protocol
    calls = []
    design = protocol.design_faquad
    monkeypatch.setattr(protocol, "design_faquad",
                        lambda *a, **k: calls.append(a) or design(*a, **k))
    assert cli.main(args + ["--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("value", [3, ""])
def test_output_dir_of_the_wrong_type_is_rejected_before_any_step(tmp_path, monkeypatch, capsys,
                                                                  value):
    from faquad import spectral
    calls = []
    monkeypatch.setattr(spectral, "track_frames", lambda *a, **k: calls.append(a))
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": value}))
    assert cli.main(["design", *TWO_LEVEL_FLAGS, "--config", str(cfg)]) == 2
    assert "config.output_dir" in capsys.readouterr().err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_out_flag_overrides_the_config_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": "from_file"}))
    args = ["design", *TWO_LEVEL_FLAGS, "--config", str(cfg)]
    assert cli.main(args + ["--out", "from_flag"]) == 0
    assert (tmp_path / "from_flag" / "trajectory.csv").exists()
    assert not (tmp_path / "from_file").exists()
    assert cli.main(args) == 0
    assert (tmp_path / "from_file" / "trajectory.csv").exists()
    assert cli.main(["design", *TWO_LEVEL_FLAGS]) == 0
    manifest = json.loads((tmp_path / cli.DEFAULT_OUTPUT_DIR / "manifest.json").read_text())
    assert "output_dir" not in manifest["config"]


def test_every_key_is_declared_once_and_read():
    names = [name for _, name, _, _ in cli._FLAGS]
    assert len(names) == len(set(names))
    read = set().union(*cli._READS.values())
    assert read <= set(names)
    assert {name for name in names if not name.startswith("model.")} <= read


def test_protocol_choices_are_the_protocol_kinds(tmp_path):
    from faquad import protocol
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, command in sub.choices.items():
        (flag,) = [a for a in command._actions if "--protocol" in a.option_strings]
        assert flag.choices == sorted(protocol.KINDS), name
    with pytest.raises(SystemExit) as exc:
        cli.main(["design", *TWO_LEVEL_FLAGS, "--protocol", "la", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    cfg = tmp_path / "ua.json"
    cfg.write_text(json.dumps({"protocol": {"kind": "ua"}}))
    assert cli.main(["design", *TWO_LEVEL_FLAGS, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args,csv", [
    (["sweep-tf", *TWO_LEVEL_FLAGS, "--tf-min", "0.5", "--tf-max", "2", "--tf-count", "3",
      "--n-steps", "400"], "sweep.csv"),
    (["sweep-eps", "--model", "ring", "--u0", "0.5", "--K", "20", "--N", "3", "--tf", "10",
      "--eps", "0", "--n-steps", "400"], "epsilon.csv"),
    (["figure", "fig6a", "--K", "20", "--n-steps", "400", "--tf-count", "2"], "tg_sweep.csv"),
], ids=["sweep-tf", "sweep-eps", "fig6a"])
def test_a_sweep_whose_every_point_fails_exits_3(tmp_path, monkeypatch, capsys, args, csv):
    from faquad import dynamics
    from faquad.errors import StepSizeTooCoarse

    def failing(*_, **__):
        raise StepSizeTooCoarse("forced")

    monkeypatch.setattr(dynamics, "_check_norm", failing)
    assert cli.main(args + ["--out", str(tmp_path / "o")]) == 3
    assert "every sweep point failed" in capsys.readouterr().err
    assert not (tmp_path / "o" / csv).exists()


def test_constant_protocol_requires_value(tmp_path):
    assert cli.main(["design", *TWO_LEVEL_FLAGS, "--protocol", "constant",
                     "--out", str(tmp_path / "o")]) == 2
    assert cli.main(["design", *TWO_LEVEL_FLAGS, "--protocol", "constant",
                     "--value", "22.3", "--out", str(tmp_path / "p")]) == 0


def test_preset_steps_set_no_key_of_their_shared_config():
    for name, preset in cli.builtin_figures().items():
        steps = preset.pop("steps")
        cli._validate_config(preset)
        for command, overrides, tag in steps:
            assert command in cli._COMMANDS, (name, command)
            for section, values in overrides.items():
                assert not set(values) & set(preset.get(section, {})), (name, section)
            cli._validate_config(cli._overlay(preset, overrides))


def test_figure_rejects_a_key_its_steps_set(tmp_path, capsys):
    assert cli.main(["figure", "fig1b", "--protocol", "linear",
                     "--out", str(tmp_path / "a")]) == 2
    assert "config.protocol.kind" in capsys.readouterr().err
    assert cli.main(["figure", "fig5a", "--u0", "1", "--out", str(tmp_path / "b")]) == 2
    assert "config.model.u0" in capsys.readouterr().err
    assert cli.main(["figure", "fig6a", "--protocol", "linear",
                     "--out", str(tmp_path / "c")]) == 2
    assert "config.protocol.kind" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_figure_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"sweep": {"tf_min": 0.5, "tf_max": 1.0, "tf_count": 3,
                                         "typo_key": 1}}))
    assert cli.main(["figure", "fig1b", "--config", str(cfg), "--n-steps", "200",
                     "--out", str(tmp_path / "o")]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_figure_honours_points_flag(tmp_path):
    out = tmp_path / "f5a"
    assert cli.main(["figure", "fig5a", "--points", "7", "--K", "20", "--out", str(out)]) == 0
    for tag in ("u0_4", "u0_0p5"):
        for stem in ("spectrum", "alpha"):
            _, rows = _read_csv(out / f"{stem}_{tag}.csv")
            assert len(rows) == 7 * 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["points"] == 7
    assert manifest["config"]["model"]["K"] == 20


@pytest.mark.parametrize("K", ["x", 20.7, 40.0, True])
def test_ring_K_must_be_an_integer(tmp_path, capsys, K):
    cfg = tmp_path / "ring.json"
    cfg.write_text(json.dumps({"model": {"kind": "ring", "u0": 4.0, "K": K}}))
    assert cli.main(["spectrum", "--config", str(cfg), "--points", "3",
                     "--out", str(tmp_path / "o")]) == 2
    assert "config.model.K" in capsys.readouterr().err


FEW_LEVEL_SMOKE = ["--tf-count", "3", "--n-steps", "2000"]
RING_SMOKE = ["--K", "20", "--n-steps", "2000"]


@pytest.mark.parametrize("preset,flags,files", [
    ("fig1b", FEW_LEVEL_SMOKE, {"sweep_faquad.csv", "prediction_faquad.csv"}),
    ("fig1d", FEW_LEVEL_SMOKE, {"sweep_local_adiabatic.csv", "sweep_uniform_adiabatic.csv",
                                "sweep_linear.csv", "prediction_local_adiabatic.csv",
                                "prediction_uniform_adiabatic.csv"}),
    ("fig3b", FEW_LEVEL_SMOKE, {"sweep_faquad.csv", "sweep_linear.csv",
                                "prediction_faquad.csv"}),
    ("fig4b", FEW_LEVEL_SMOKE, {"sweep_faquad.csv", "sweep_linear.csv",
                                "prediction_faquad.csv"}),
    ("fig5a", ["--K", "20", "--points", "5"], {"spectrum_u0_4.csv", "alpha_u0_4.csv",
                                               "spectrum_u0_0p5.csv", "alpha_u0_0p5.csv"}),
    ("fig5b", ["--K", "20", "--N", "1"], {"trajectory_N1.csv"}),
    ("fig6a", RING_SMOKE + ["--N", "3", "--tf-count", "2"], {"tg_sweep.csv"}),
    ("fig6b", RING_SMOKE + ["--N", "3", "--eps", "0"], {"epsilon.csv"}),
])
def test_presets_run_at_reduced_size(tmp_path, preset, flags, files):
    out = tmp_path / preset
    assert cli.main(["figure", preset, *flags, "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == files | {"manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == files
    assert manifest["point_failures"] == []
