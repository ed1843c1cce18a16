import json
from pathlib import Path

import numpy as np
import pytest

from qcfield import (CapacityError, ConsistencyError, GaugeError,
                     ModelAssumptionError, NormalizationError, SolverError,
                     TruncationError, load_model, model_to_json, save_model)
from qcfield import cli
from qcfield.cli import (EXIT_ASSERTION, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION,
                         ConfigError, main, parse_run_config, render_json)
from qcfield.model import (ModelSpec, build_dispersion, build_field_modes,
                           build_particle_grid, nelson_form_factor)
from qcfield.presets import (cosine_coupled_reference, decoupled_reference,
                             two_particle_nelson)

DEMO_MODELS = Path(__file__).resolve().parent.parent / "demos" / "models"


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    save_model(decoupled_reference(), d / "decoupled.json")
    save_model(cosine_coupled_reference(), d / "cosine.json")
    return d


def _write_cfg(path, text):
    path.write_text(text)
    return path


def test_config_parsing(tmp_path, model_dir):
    cfg_path = _write_cfg(tmp_path / "run.cfg", f"""
# comment line
command = qc-min
model = {model_dir / 'decoupled.json'}
seed = 9
eps_list = 0.5, 0.25
tol_gap = 1e-7
""")
    cfg = parse_run_config(cfg_path)
    assert cfg["command"] == "qc-min"
    assert cfg["seed"] == 9
    assert cfg["eps_list"] == [0.5, 0.25]
    assert cfg["tol_gap"] == 1e-7


def test_config_rejects_bad_inputs(tmp_path, model_dir):
    bad = _write_cfg(tmp_path / "a.cfg", "command = nope\nmodel = x.json\n")
    with pytest.raises(ConfigError):
        parse_run_config(bad)
    missing = _write_cfg(tmp_path / "b.cfg",
                         "command = qc-min\nmodel = missing.json\n")
    with pytest.raises(ConfigError):
        parse_run_config(missing)
    increasing = _write_cfg(
        tmp_path / "c.cfg",
        f"command = qc-min\nmodel = {model_dir / 'decoupled.json'}\n"
        "eps_list = 0.25, 0.5\n")
    with pytest.raises(ConfigError):
        parse_run_config(increasing)
    empty = _write_cfg(
        tmp_path / "d.cfg",
        f"command = qc-min\nmodel = {model_dir / 'decoupled.json'}\n"
        "eps_list = ,\n")
    with pytest.raises(ConfigError, match="eps_list must be non-empty"):
        parse_run_config(empty)


def test_model_round_trip_via_cli_paths(model_dir):
    spec = load_model(model_dir / "decoupled.json")
    assert spec.family == "nelson"
    assert spec.grid.points_per_axis == 64


def test_qc_min_run_and_artifacts(tmp_path, model_dir):
    cfg = _write_cfg(tmp_path / "run.cfg", f"""
command = qc-min
model = {model_dir / 'cosine.json'}
""")
    out = tmp_path / "out"
    code = main(["qc-min", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    results = json.loads((out / "results.json").read_text())
    assert results["converged"] is True
    assert results["psi_residual"] <= 1e-7
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,energy,psi_residual,field_residual"
    energies = [float(line.split(",")[1]) for line in trace[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    # every number in results.json reproducible from the library
    from qcfield import alternating_minimize
    res = alternating_minimize(load_model(model_dir / "cosine.json"))
    assert results["energy"] == res.energy


def test_equivalence_exit_codes(tmp_path, model_dir):
    cfg = _write_cfg(tmp_path / "eq.cfg", f"""
command = equivalence
model = {model_dir / 'decoupled.json'}
n_starts = 2
""")
    out = tmp_path / "eq_out"
    assert main(["equivalence", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    results = json.loads((out / "results.json").read_text())
    assert results["gap"] <= 1e-8
    # impossible tolerance trips the assertion exit
    cfg_tight = _write_cfg(tmp_path / "eq2.cfg", f"""
command = equivalence
model = {model_dir / 'cosine.json'}
tol_gap = 1e-300
""")
    assert main(["equivalence", "--config", str(cfg_tight),
                 "--out", str(tmp_path / "eq2_out")]) == EXIT_ASSERTION


@pytest.mark.parametrize("command, max_iter", [("equivalence", 1),
                                               ("measures-check", 5)])
def test_max_iter_caps_every_minimization(tmp_path, command, max_iter):
    """max_iter caps the minimizations that equivalence and measures-check
    run, as it caps pekar's: on the demo cosine trap both commands exit 3
    where pekar does."""
    for cmd in ("pekar", command):
        cfg = _write_cfg(tmp_path / f"{cmd}.cfg", f"""command = {cmd}
model = {DEMO_MODELS / 'cosine_trap.json'}
max_iter = {max_iter}
""")
        out = tmp_path / f"{cmd}_out"
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) \
            == EXIT_SOLVER
    results = json.loads((out / "results.json").read_text())
    if command == "measures-check":
        assert results == {"command": command,
                           "error": "reduced minimization diverged"}
    else:  # unconverged: exit 3 whatever the gap check says
        assert results["command"] == command and "passes" in results


def test_fock_sweep_artifacts_and_flagging(tmp_path, model_dir):
    cfg = _write_cfg(tmp_path / "sw.cfg", f"""
command = fock-sweep
model = {model_dir / 'decoupled.json'}
eps_list = 0.5, 0.25
""")
    out = tmp_path / "sw_out"
    assert main(["fock-sweep", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == "epsilon,E_eps,E_qc,abs_err,n_max,tail_mass"
    plot = (out / "sweep.plot").read_text().splitlines()
    assert len(plot) == 2 and len(plot[0].split()) == 2
    # a too-small pinned cutoff flags rows and exits 4
    cfg_small = _write_cfg(tmp_path / "sw2.cfg", f"""
command = fock-sweep
model = {model_dir / 'decoupled.json'}
eps_list = 0.5, 0.25
n_max = 2
""")
    assert main(["fock-sweep", "--config", str(cfg_small),
                 "--out", str(tmp_path / "sw2_out")]) == EXIT_ASSERTION


@pytest.mark.parametrize("error, code", [
    (CapacityError, EXIT_VALIDATION), (ModelAssumptionError, EXIT_VALIDATION),
    (GaugeError, EXIT_VALIDATION), (NormalizationError, EXIT_VALIDATION),
    (SolverError, EXIT_SOLVER), (ConsistencyError, EXIT_ASSERTION),
    (TruncationError, EXIT_ASSERTION), (ValueError, EXIT_VALIDATION)])
def test_mid_run_error_exit_codes(tmp_path, model_dir, monkeypatch, capsys,
                                  error, code):
    def raising_runner(spec, cfg, out_dir):
        raise error("raised mid-run")

    monkeypatch.setitem(cli._RUNNERS, "qc-min", raising_runner)
    cfg = _write_cfg(tmp_path / "err.cfg", f"""command = qc-min
model = {model_dir / 'decoupled.json'}
""")
    out = tmp_path / "err_out"
    assert main(["qc-min", "--config", str(cfg), "--out", str(out)]) == code
    assert capsys.readouterr().err.splitlines() == [
        f"error: {error.__name__}: raised mid-run"]
    assert json.loads((out / "results.json").read_text()) == {
        "command": "qc-min", "error": f"{error.__name__}: raised mid-run"}


def test_pekar_kernel_over_cap_exits_validation(tmp_path):
    # two particles on G = 48: the configuration kernel has 2304^2 entries
    save_model(two_particle_nelson(points=48), tmp_path / "pair.json")
    cfg = _write_cfg(tmp_path / "pk.cfg", f"""command = pekar
model = {tmp_path / 'pair.json'}
export_kernel = true
max_iter = 3
""")
    out = tmp_path / "pk_out"
    assert main(["pekar", "--config", str(cfg), "--out", str(out)]) \
        == EXIT_VALIDATION
    results = json.loads((out / "results.json").read_text())
    assert results["command"] == "pekar"
    assert results["error"].startswith("CapacityError: kernel would need")


def test_pekar_default_max_iter_converges_on_fine_grid(tmp_path, soliton):
    save_model(soliton(256), tmp_path / "soliton.json")
    cfg = _write_cfg(tmp_path / "pk.cfg", f"""command = pekar
model = {tmp_path / 'soliton.json'}
""")
    out = tmp_path / "pk_out"
    assert main(["pekar", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "results.json").read_text())["converged"]


def _version_2(doc):
    doc["version"] = 2


def _one_table_for_two_particles(doc):
    doc["form_factor"]["per_particle"] = doc["form_factor"]["per_particle"][:1]


def _table_two_rows_short(doc):
    doc["form_factor"]["table"] = doc["form_factor"]["table"][:-2]


def _no_grid(doc):
    del doc["grid"]


def _grid_a_number(doc):
    doc["grid"] = 5


def _no_form_factor(doc):
    del doc["form_factor"]


def _modes_null(doc):
    doc["modes"] = None


def _one_dispersion_for_two_modes(doc):
    doc["dispersion"] = [1.0]


def _negative_weight(doc):
    doc["modes"]["quadrature_weights"] = [-1.0, 1.0]


def _zero_weight(doc):
    doc["modes"]["quadrature_weights"] = [0.0, 1.0]


def _duplicate_momenta(doc):
    doc["modes"]["momenta"] = [[1.0], [1.0]]


def _mass_a_string(doc):
    doc["masses"] = ["a"]


def _table_rows_not_pairs(doc):
    doc["form_factor"]["table"] = [[1]]


def _potential_null_entry(doc):
    doc["external_potential"][0] = None


def _zero_extent(doc):
    doc["grid"]["extent"] = 0


def _nan_extent(doc):
    doc["grid"]["extent"] = float("nan")


def _nine_points(doc):
    doc["grid"]["points_per_axis"] = 9


def _masses_on_nelson(doc):
    doc["masses"] = [7.0]


def _nan_charge(doc):
    doc["charge"] = float("nan")


def _charge_on_polaron(doc):
    doc["charge"] = 0.5


def _alpha_on_pauli_fierz(doc):
    doc["alpha"] = 2.0


@pytest.mark.parametrize("model, corrupt, message", [
    ("decoupled", _version_2, "ValueError: unsupported model version 2"),
    ("pf_pair", _one_table_for_two_particles,
     "ValueError: form factor needs 2 table(s) of shape (8, 2), got [(8, 2)]"),
    ("decoupled", _table_two_rows_short,
     "ValueError: form factor needs 1 table(s) of shape (64, 1), "
     "got [(62, 1)]"),
    ("decoupled", _no_grid, "ValueError: model key 'grid' is missing"),
    ("decoupled", _grid_a_number,
     "ValueError: model key 'grid' has the wrong type (int)"),
    ("decoupled", _no_form_factor,
     "ValueError: model key 'form_factor' is missing"),
    ("decoupled", _modes_null,
     "ValueError: model key 'modes' has the wrong type (NoneType)"),
    ("nelson_small", _one_dispersion_for_two_modes,
     "ValueError: dispersion needs one value per mode (2), got (1,)"),
    ("nelson_small", _negative_weight,
     "ValueError: weights must be positive, one per mode"),
    ("nelson_small", _zero_weight,
     "ValueError: weights must be positive, one per mode"),
    ("nelson_small", _duplicate_momenta,
     "ValueError: mode momenta must be pairwise distinct"),
    ("pf_small", _mass_a_string,
     "ValueError: model key 'masses' has malformed entries"),
    ("decoupled", _table_rows_not_pairs,
     "ValueError: model key 'form_factor.table' has malformed entries"),
    ("decoupled", _potential_null_entry,
     "ValueError: model key 'external_potential' has malformed entries"),
    ("decoupled", _zero_extent,
     "ValueError: extent must be positive and finite"),
    ("decoupled", _nan_extent,
     "ValueError: extent must be positive and finite"),
    ("decoupled", _nine_points,
     "ValueError: points_per_axis must be even and >= 8"),
    ("decoupled", _masses_on_nelson,
     "ValueError: nelson family takes no masses"),
    ("polaron_small", _charge_on_polaron,
     "ValueError: polaron family takes no charge"),
    ("pf_small", _nan_charge, "ValueError: charge must be finite"),
    ("pf_pair", _alpha_on_pauli_fierz,
     "ValueError: pauli_fierz family takes no alpha")])
def test_model_load_failure_writes_results(tmp_path, request, capsys, model,
                                           corrupt, message):
    spec = (decoupled_reference() if model == "decoupled"
            else request.getfixturevalue(model))
    doc = model_to_json(spec)
    corrupt(doc)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    cfg = _write_cfg(tmp_path / "bad.cfg", f"""command = qc-min
model = {tmp_path / 'bad.json'}
""")
    out = tmp_path / "bad_out"
    assert main(["qc-min", "--config", str(cfg), "--out", str(out)]) \
        == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        f"validation error: {message}"]
    assert json.loads((out / "results.json").read_text()) == {
        "command": "qc-min", "error": message}


def test_pekar_kernel_minimal_coupling_exits_validation(tmp_path, pf_pair):
    save_model(pf_pair, tmp_path / "pf.json")
    cfg = _write_cfg(tmp_path / "pk.cfg", f"""command = pekar
model = {tmp_path / 'pf.json'}
export_kernel = true
max_iter = 3
""")
    out = tmp_path / "pk_out"
    assert main(["pekar", "--config", str(cfg), "--out", str(out)]) \
        == EXIT_VALIDATION
    assert not (out / "kernel.csv").exists()
    results = json.loads((out / "results.json").read_text())
    assert results == {"command": "pekar", "error": "ModelAssumptionError: "
                       "minimal coupling leaves no self-interaction kernel"}


def test_command_mismatch_rejected(tmp_path, model_dir):
    cfg = _write_cfg(tmp_path / "mm.cfg", f"""
command = qc-min
model = {model_dir / 'decoupled.json'}
""")
    assert main(["pekar", "--config", str(cfg),
                 "--out", str(tmp_path / "mm_out")]) == EXIT_VALIDATION


def test_render_json_deterministic():
    payload = {"a": 1.0 / 3.0, "b": [1, 2.5e-17], "c": None, "d": True,
               "e": "quote\"d"}
    one = render_json(payload)
    two = render_json(payload)
    assert one == two
    parsed = json.loads(one)
    assert parsed["a"] == 1.0 / 3.0  # 17 significant digits round-trip
    assert parsed["b"][1] == 2.5e-17


def test_repeated_runs_byte_identical(tmp_path, model_dir):
    cfg = _write_cfg(tmp_path / "det.cfg", f"""
command = qc-min
model = {model_dir / 'cosine.json'}
n_starts = 2
""")
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["qc-min", "--config", str(cfg), "--out", str(out),
                     "--seed", "11"]) == EXIT_OK
        outs.append((out / "results.json").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("line", ["seed = abc", "tol_energy = small",
                                  "n_starts = 2.5", "eps_list = 0.5, half"])
def test_non_numeric_value_exits_validation(tmp_path, model_dir, capsys, line):
    cfg = _write_cfg(tmp_path / "nn.cfg", f"""command = qc-min
model = {model_dir / 'decoupled.json'}
{line}
""")
    with pytest.raises(ConfigError, match=r"nn\.cfg:3: .*" + line.split()[0]):
        parse_run_config(cfg)
    assert main(["qc-min", "--config", str(cfg),
                 "--out", str(tmp_path / "nn_out")]) == EXIT_VALIDATION
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "nn_out").exists()


@pytest.mark.parametrize("key", ["n_start", "tol_grad", "max_atoms", "scale",
                                 "delta", "tail0", "min_shells",
                                 "tol_energy", "tol_residual"])
def test_unknown_key_exits_validation(tmp_path, model_dir, key):
    cfg = _write_cfg(tmp_path / "uk.cfg", f"""command = qc-min
model = {model_dir / 'decoupled.json'}
{key} = 4
""")
    with pytest.raises(ConfigError, match=rf"uk\.cfg:3: unknown key '{key}'"):
        parse_run_config(cfg)
    assert main(["qc-min", "--config", str(cfg),
                 "--out", str(tmp_path / "uk_out")]) == EXIT_VALIDATION


@pytest.mark.parametrize("key, low", [("max_iter", 1), ("n_starts", 1),
                                      ("n_samples", 1), ("n_max", 0),
                                      ("seed", 0)])
def test_integer_below_range_exits_validation(tmp_path, model_dir, capsys,
                                              key, low):
    head = f"command = qc-min\nmodel = {model_dir / 'decoupled.json'}\n"
    assert parse_run_config(_write_cfg(tmp_path / "ok.cfg",
                                       head + f"{key} = {low}\n"))[key] == low
    cfg = _write_cfg(tmp_path / "lo.cfg", head + f"{key} = {low - 1}\n")
    with pytest.raises(ConfigError, match=f"{key} must be >= {low}"):
        parse_run_config(cfg)
    assert main(["qc-min", "--config", str(cfg),
                 "--out", str(tmp_path / "lo_out")]) == EXIT_VALIDATION
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "lo_out").exists()


def test_negative_seed_override_exits_validation(tmp_path, model_dir, capsys):
    cfg = _write_cfg(tmp_path / "sd.cfg", f"""command = qc-min
model = {model_dir / 'decoupled.json'}
""")
    assert main(["qc-min", "--config", str(cfg), "--out",
                 str(tmp_path / "sd_out"), "--seed", "-1"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        "config error: --seed must be >= 0"]
    assert not (tmp_path / "sd_out").exists()


@pytest.mark.parametrize("line", ["tol_gap = nan", "tol_gap = inf"])
def test_non_finite_tolerance_exits_validation(tmp_path, model_dir, capsys,
                                               line):
    key = line.split()[0]
    cfg = _write_cfg(tmp_path / "nf.cfg", f"""command = qc-min
model = {model_dir / 'decoupled.json'}
{line}
""")
    with pytest.raises(ConfigError, match=f"{key} must be finite and positive"):
        parse_run_config(cfg)
    assert main(["qc-min", "--config", str(cfg),
                 "--out", str(tmp_path / "nf_out")]) == EXIT_VALIDATION
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "nf_out").exists()


def test_every_schema_key_accepted(tmp_path, model_dir):
    """Each optional key documented in the schema parses, and every key the
    parser knows is documented."""
    schema = (Path(__file__).resolve().parent.parent / "docs"
              / "run_config_schema.txt").read_text()
    section = schema.split("Optional keys")[1].split("Outputs")[0]
    keys = [line.split()[0] for line in section.splitlines()[2:]
            if line and not line.startswith(" ")]
    assert "seed" in keys and "export_kernel" in keys
    values = {"out_dir": "res", "eps_list": "0.5, 0.25",
              "export_kernel": "true"}
    body = "".join(f"{k} = {values.get(k, '3')}\n" for k in keys)
    cfg = _write_cfg(tmp_path / "all.cfg", f"""command = qc-min
model = {model_dir / 'decoupled.json'}
{body}""")
    parsed = parse_run_config(cfg)
    assert parsed["n_max"] == 3 and parsed["eps_list"] == [0.5, 0.25]
    documented = {line.split()[0] for line in schema.splitlines()
                  if line and not line.startswith(" ")}
    assert cli._KNOWN_KEYS <= documented, cli._KNOWN_KEYS - documented


@pytest.mark.parametrize("model, error", [
    ("pair", "CapacityError: kernel would need"),
    ("pf", "ModelAssumptionError: minimal coupling leaves no")])
def test_pekar_kernel_refused_before_minimizing(tmp_path, monkeypatch, pf_pair,
                                                model, error):
    def no_minimization(*args, **kwargs):
        raise AssertionError("pekar_minimize ran before the kernel check")

    monkeypatch.setattr(cli.mz, "pekar_minimize", no_minimization)
    spec = two_particle_nelson(points=48) if model == "pair" else pf_pair
    save_model(spec, tmp_path / "m.json")
    cfg = _write_cfg(tmp_path / "pk.cfg", f"""command = pekar
model = {tmp_path / 'm.json'}
export_kernel = true
""")
    out = tmp_path / "pk_out"
    assert main(["pekar", "--config", str(cfg), "--out", str(out)]) \
        == EXIT_VALIDATION
    assert not (out / "kernel.csv").exists()
    results = json.loads((out / "results.json").read_text())
    assert results["error"].startswith(error)


def test_model_directory_exits_validation(tmp_path, capsys):
    (tmp_path / "model_dir").mkdir()
    cfg = _write_cfg(tmp_path / "dir.cfg", f"""command = qc-min
model = {tmp_path / 'model_dir'}
""")
    out = tmp_path / "dir_out"
    assert main(["qc-min", "--config", str(cfg), "--out", str(out)]) \
        == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("validation error: IsADirectoryError: ")
    results = json.loads((out / "results.json").read_text())
    assert results["command"] == "qc-min"
    assert results["error"].startswith("IsADirectoryError: ")


def test_out_an_existing_file_exits_validation(tmp_path, model_dir, capsys):
    cfg = _write_cfg(tmp_path / "of.cfg", f"""command = qc-min
model = {model_dir / 'decoupled.json'}
""")
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["qc-min", "--config", str(cfg), "--out", str(out)]) \
        == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert out.read_text() == "not a directory\n"


def test_model_failing_validation_writes_parsable_results(tmp_path, capsys):
    # a coupled zero-frequency mode, as in test_model.py
    grid = build_particle_grid(1, 1, 8.0, 16)
    modes = build_field_modes([[0.0], [1.0]], weights=[1.0, 1.0])
    disp = build_dispersion([0.0, 1.0])
    ff = nelson_form_factor(grid, modes, [0.3, 0.3])
    spec = ModelSpec(family="nelson", grid=grid, modes=modes, dispersion=disp,
                     form_factor=ff,
                     external_potential=np.zeros(grid.total_points))
    save_model(spec, tmp_path / "zero.json")
    cfg = _write_cfg(tmp_path / "zero.cfg", f"""command = qc-min
model = {tmp_path / 'zero.json'}
""")
    out = tmp_path / "zero_out"
    assert main(["qc-min", "--config", str(cfg), "--out", str(out)]) \
        == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        "validation error: model validation failed"]
    results = json.loads((out / "results.json").read_text())
    assert results["command"] == "qc-min"
    assert results["error"] == "model validation failed"
    assert "FAIL" in results["validation"]


@pytest.mark.parametrize("value", ["ture", "yes", "1"])
def test_export_kernel_accepts_only_true_false(tmp_path, model_dir, capsys,
                                               value):
    head = f"command = pekar\nmodel = {model_dir / 'cosine.json'}\n"
    for flag, expected in (("true", True), ("False", False)):
        parsed = parse_run_config(_write_cfg(
            tmp_path / "ok.cfg", head + f"export_kernel = {flag}\n"))
        assert parsed["export_kernel"] is expected
    cfg = _write_cfg(tmp_path / "ek.cfg", head + f"export_kernel = {value}\n")
    with pytest.raises(ConfigError, match=r"ek\.cfg:3: bad value .* for "
                                          r"export_kernel"):
        parse_run_config(cfg)
    assert main(["pekar", "--config", str(cfg),
                 "--out", str(tmp_path / "ek_out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert "export_kernel" in err[0]
    assert not (tmp_path / "ek_out").exists()


def test_config_not_utf8_exits_validation(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"command = qc-min\nmodel = \xe9t\xe9.json\n")
    assert main(["qc-min", "--config", str(cfg),
                 "--out", str(tmp_path / "latin_out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not (tmp_path / "latin_out").exists()
