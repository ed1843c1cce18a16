"""The four benchmark workloads: set-up, tasks and the check on every result.

Each ``setup_<workload>(seed)`` builds or loads the workload's models
and returns its tasks in a fixed order.  A task takes an empty working
directory and returns its outputs as ``{"values": {name: float},
"exact": {name: int}, "flags": {name: bool}}`` (CLI tasks add the raw
results.json text under ``"raw"``).  Every call into the library goes through
a module attribute (``minimize.alternating_minimize``), so the timing shims
of a traced pass see it.

Why each workload exists (which layer it loads, which it bypasses) is in
README.md next to this file.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import numpy as np

cli = importlib.import_module("qcfield.cli")
fock = importlib.import_module("qcfield.fock")
minimize = importlib.import_module("qcfield.minimize")
model = importlib.import_module("qcfield.model")
presets = importlib.import_module("qcfield.presets")

ENERGY_TOL = 1e-8    # every recorded energy, absolute
AGREEMENT_TOL = 1e-6  # coupled vs reduced minimum (equivalence gap)

REFERENCES = Path(__file__).with_name("references.json")


def _outputs(values=None, exact=None, flags=None) -> dict:
    return {"values": {k: float(v) for k, v in (values or {}).items()},
            "exact": {k: int(v) for k, v in (exact or {}).items()},
            "flags": {k: bool(v) for k, v in (flags or {}).items()}}


# ---------------------------------------------------------------------------
# demo_configs: the six shipped CLI runs, in process
# ---------------------------------------------------------------------------

# The shipped configs, in the order they run; each names its model by a path
# relative to itself, which the CLI resolves and loads on every run.
DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
DEMO_COMMANDS = ("qc-min", "pekar", "equivalence", "fock-sweep", "convexity",
                 "measures-check")


def _cli_outputs(command: str, code: int, text: str) -> dict:
    res = json.loads(text) if text else {}
    nan = float("nan")

    def get(key):
        return res.get(key, nan)

    flags = {"exit_ok": code == cli.EXIT_OK}
    if command == "qc-min":
        out = _outputs({"energy": get("energy")},
                       flags={"converged": res.get("converged", False)})
    elif command == "pekar":
        out = _outputs({"energy": get("energy"),
                        "kernel_energy": get("kernel_energy")},
                       flags={"converged": res.get("converged", False)})
    elif command == "equivalence":
        out = _outputs({"e_qc": get("e_qc"), "e_pekar": get("e_pekar")},
                       flags={"passes": res.get("passes", False),
                              "gap_ok": get("gap") <= AGREEMENT_TOL})
    elif command == "fock-sweep":
        rows = res.get("rows", [])
        values = {"e_qc": get("e_qc")}
        values.update({f"e_eps[{r['epsilon']}]": r["e_eps"] for r in rows})
        out = _outputs(values, {f"n_max[{r['epsilon']}]": r["n_max"]
                                for r in rows},
                       {"monotone_ok": res.get("monotone_ok", False),
                        "all_reliable": res.get("all_reliable", False)})
    elif command == "convexity":
        out = _outputs(exact={"n_samples": res.get("n_samples", -1)},
                       flags={"passes": res.get("passes", False)})
    else:  # measures-check
        out = _outputs({k: get(k) for k in ("e_qc", "dirac_svm", "dirac_pm",
                                            "e_pekar")},
                       flags={"passes": res.get("passes", False)})
    out["flags"].update(flags)
    out["raw"] = text
    return out


def setup_demo_configs(seed: int):
    """The six `qcfield` commands users run on demos/configs/*.cfg."""
    tasks = []
    for command in DEMO_COMMANDS:
        cfg = DEMO_CONFIGS / f"{command.replace('-', '_')}.cfg"

        def run(workdir: Path, command=command, cfg=cfg) -> dict:
            code = cli.main([command, "--config", str(cfg),
                             "--out", str(workdir), "--seed", str(seed)])
            results = workdir / "results.json"
            text = results.read_text() if results.exists() else ""
            return _cli_outputs(command, code, text)

        tasks.append((command, run))
    return tasks


# ---------------------------------------------------------------------------
# grid_large: coupled and reduced minimization on large particle grids
# ---------------------------------------------------------------------------

def _one_mode_nelson(dim: int, points: int, momentum) -> "model.ModelSpec":
    grid = model.build_particle_grid(dim, 1, 8.0, points)
    modes = model.build_field_modes([momentum], weights=[1.0])
    disp = model.build_dispersion([1.0])
    form = model.nelson_form_factor(grid, modes, [0.5], dispersion=disp)
    return model.make_model("nelson", grid, modes, disp, form, "harmonic")


def setup_grid_large(seed: int):
    """ROADMAP large tier: 1-d G = 2048, 2-d G = 64, two particles G = 64.

    The 1-d instance starts from the zero field (the path `qcfield qc-min`
    takes with one start): its outer iteration count swings between 5 and 8
    with a random start, which would make wall_s a function of the seed.
    The two smaller instances start from the seeded random state.
    """
    instances = (
        ("grid1d_G2048", _one_mode_nelson(1, 2048, [1.0]), None),
        ("grid2d_G64", _one_mode_nelson(2, 64, [1.0, 0.0]), seed),
        ("two_particles_G64", presets.two_particle_nelson(points=64), seed),
    )
    tasks = []
    for name, spec, start_seed in instances:

        def run(workdir: Path, spec=spec, start_seed=start_seed) -> dict:
            alt = minimize.alternating_minimize(spec, seed=start_seed)
            red = minimize.pekar_minimize(spec)
            return _outputs(
                {"e_alternating": alt.energy, "e_pekar": red.energy},
                flags={"alternating_converged": alt.converged,
                       "pekar_converged": red.converged,
                       "agree": abs(alt.energy - red.energy) <= AGREEMENT_TOL})

        tasks.append((name, run))
    return tasks


# ---------------------------------------------------------------------------
# fock_polaron / fock_modes: quantized ground energies along an eps sweep
# ---------------------------------------------------------------------------

def _sweep_task(spec, eps_list, seed: int):
    def run(workdir: Path) -> dict:
        ref = minimize.alternating_minimize(spec, seed=seed)
        rep = fock.epsilon_sweep(spec, eps_list, ref.energy, ref.z_star)
        values = {"e_qc": ref.energy}
        values.update({f"e_eps[{r.epsilon}]": r.energy for r in rep.rows})
        return _outputs(values,
                        {f"n_max[{r.epsilon}]": r.n_max for r in rep.rows},
                        {"converged": ref.converged,
                         "monotone_ok": rep.monotone_ok,
                         "all_reliable": rep.all_reliable})
    return run


FOCK_POLARON_EPS = (0.65, 0.5)
FOCK_MODES_EPS = (0.5, 0.25, 0.125)


def setup_fock_polaron(seed: int):
    """Shell-rule eps sweep on the four-mode polaron (K = 4, G = 16)."""
    spec = presets.small_polaron()
    return [("sweep", _sweep_task(spec, FOCK_POLARON_EPS, seed))]


def setup_fock_modes(seed: int):
    """Shell-rule eps sweep on a frozen site with six nelson modes."""
    grid = model.frozen_particle_grid()
    k = np.linspace(0.0, 1.0, 6)
    modes = model.build_field_modes([[x] for x in k], weights=[1.0] * 6)
    disp = model.build_dispersion(list(1.0 + k))
    form = model.nelson_form_factor(grid, modes, [0.3] * 6, dispersion=disp)
    spec = model.make_model("nelson", grid, modes, disp, form, "zero")
    return [("sweep", _sweep_task(spec, FOCK_MODES_EPS, seed))]


WORKLOADS = {
    "demo_configs": setup_demo_configs,
    "grid_large": setup_grid_large,
    "fock_polaron": setup_fock_polaron,
    "fock_modes": setup_fock_modes,
}


def warm_up() -> None:
    """One small call down each layer, so first-use costs land in set-up."""
    spec = presets.decoupled_reference()
    minimize.alternating_minimize(spec)
    minimize.pekar_minimize(spec)
    frozen = presets.frozen_mode_reference()
    ref = minimize.alternating_minimize(frozen)
    fock.epsilon_sweep(frozen, [0.5], ref.energy, ref.z_star)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check(outputs: dict, reference: dict) -> list[str]:
    """Problems with one task's outputs; empty when the task passed.

    Energies must lie within ENERGY_TOL of the reference, integer outputs
    must match it exactly, and every verdict must be true.
    """
    problems = []
    for key, ref in reference["values"].items():
        got = outputs["values"].get(key, float("nan"))
        if not abs(got - ref) <= ENERGY_TOL:
            problems.append(f"{key} = {got!r}, reference {ref!r}")
    for key, ref in reference["exact"].items():
        got = outputs["exact"].get(key)
        if got != ref:
            problems.append(f"{key} = {got!r}, reference {ref!r}")
    for key in reference["flags"]:
        if not outputs["flags"].get(key, False):
            problems.append(f"{key} is false")
    for part in ("values", "exact", "flags"):
        extra = set(outputs[part]) - set(reference[part])
        if extra:
            problems.append(f"outputs without a reference: {sorted(extra)}")
    return problems


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def fingerprint(outputs: dict) -> str:
    """Exact text of a task's outputs (floats by repr, so bit-exact)."""
    return json.dumps(outputs, sort_keys=True)
