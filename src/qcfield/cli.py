"""Batch front end: run configs in, deterministic result files out.

Usage:
    qcfield <command> --config <path> [--out <dir>] [--seed <u64>]

The config is a key-value text file (one `key = value` per line, `#`
comments); see docs/run_config_schema.txt for the full key list.  Outputs
are results.json plus trace.csv / sweep.csv / sweep.plot where applicable,
written with 17-significant-digit numbers so repeated runs with the same
config and seed are byte-identical.

Exit codes: 0 success, 2 config/model validation failure, 3 solver
non-convergence, 4 assertion failure (an embedded check did not hold).  A
model that fails to load, and an error raised mid-run, map to one of them
(see _EXIT_CODES), print one stderr line and leave results.json with the
command and the error.  BLAS threading follows the standard variables
(OMP_NUM_THREADS, OPENBLAS_NUM_THREADS), set before the process starts.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import fock as fk
from . import minimize as mz
from . import pekar as pk
from .errors import ConsistencyError, SolverError, TruncationError
from .measures import atomic_bound_check
from .model import _complex_out, load_model, validate_model
from .qc_energy import complex_normal, field_eta, random_wavefunction

COMMANDS = ("qc-min", "pekar", "equivalence", "fock-sweep", "convexity",
            "measures-check")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_ASSERTION = 4

# errors raised mid-run and their documented exit codes; ValueError covers
# CapacityError, GaugeError, ModelAssumptionError and NormalizationError
_EXIT_CODES = {SolverError: EXIT_SOLVER, ConsistencyError: EXIT_ASSERTION,
               TruncationError: EXIT_ASSERTION, ValueError: EXIT_VALIDATION}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    pass


_FLOAT_KEYS = {"tol_energy", "tol_residual", "tol_gap", "tail0"}
_INT_KEYS = {"seed", "max_iter", "n_starts", "n_max", "n_samples",
             "min_shells"}
_INT_MINIMA = {"seed": 0, "max_iter": 1, "n_starts": 1, "n_samples": 1,
               "n_max": 0, "min_shells": 0}
# every key of docs/run_config_schema.txt
_KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | {"command", "model", "out_dir",
                                         "eps_list", "export_kernel"}
_DEFAULTS = {
    "seed": 0,
    "tol_energy": 1e-10,
    "tol_residual": 1e-7,
    "tol_gap": 1e-6,
    "max_iter": 200,
    "n_starts": 1,
    "n_samples": 200,
    "min_shells": 4,
    "tail0": 1e-8,
    "out_dir": "results",
    "export_kernel": False,
}


def parse_run_config(path: Path) -> dict:
    cfg = dict(_DEFAULTS)
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key in _FLOAT_KEYS:
                cfg[key] = float(value)
            elif key in _INT_KEYS:
                cfg[key] = int(value)
            elif key == "eps_list":
                cfg[key] = [float(v) for v in value.split(",") if v.strip()]
            elif key == "export_kernel":
                cfg[key] = value.lower() in ("1", "true", "yes")
            else:
                cfg[key] = value
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for "
                              f"{key}") from None
    if "command" not in cfg:
        raise ConfigError("config must set 'command'")
    if cfg["command"] not in COMMANDS:
        raise ConfigError(f"unknown command {cfg['command']!r}; "
                          f"one of {', '.join(COMMANDS)}")
    if "model" not in cfg:
        raise ConfigError("config must set 'model' (path to a model JSON)")
    model_path = Path(cfg["model"])
    if not model_path.is_absolute():
        model_path = path.parent / model_path
    if not model_path.exists():
        raise ConfigError(f"model file {model_path} does not exist")
    cfg["model"] = model_path
    for key in ("tol_energy", "tol_residual", "tol_gap", "tail0"):
        if not 0 < cfg[key] < math.inf:
            raise ConfigError(f"{key} must be finite and positive")
    for key, low in _INT_MINIMA.items():
        if cfg.get(key, low) < low:
            raise ConfigError(f"{key} must be >= {low}")
    try:
        cfg["eps_list"] = fk.check_eps_list(
            cfg.get("eps_list", [0.5, 0.25, 0.125, 0.0625]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    raise TypeError(f"cannot format {type(x)}")


def render_json(obj, indent: int = 0) -> str:
    """Minimal JSON renderer with fixed float formatting and key order."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}"{k}": {render_json(v, indent + 2)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{render_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return _fmt(obj)


def write_results(out_dir: Path, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "results.json"
    path.write_text(render_json(payload) + "\n")
    return path


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _run_qc_min(spec, cfg, out_dir):
    kwargs = dict(tol_energy=cfg["tol_energy"], tol_residual=cfg["tol_residual"],
                  max_iter=cfg["max_iter"])
    if cfg["n_starts"] > 1:
        ms = mz.multi_start(spec, cfg["n_starts"], seed=cfg["seed"], **kwargs)
        res = ms.best
        extra = {"n_starts": cfg["n_starts"],
                 "min_energy": ms.min_energy,
                 "max_energy": ms.max_energy,
                 "max_pair_distance": ms.max_pair_distance}
    else:
        res = mz.alternating_minimize(spec, seed=None, **kwargs)
        extra = {"n_starts": 1}
    payload = {
        "command": "qc-min",
        "seed": cfg["seed"],
        "energy": res.energy,
        "iterations": res.iterations,
        "converged": res.converged,
        "psi_residual": res.el_residuals.psi_residual,
        "field_residual": res.el_residuals.field_residual,
        "z": _complex_out(res.z_star.values),
        **extra,
    }
    write_csv(out_dir / "trace.csv",
              ["iteration", "energy", "psi_residual", "field_residual"],
              [list(row) for row in res.iteration_rows])
    write_results(out_dir, payload)
    return EXIT_OK if res.converged else EXIT_SOLVER


def _run_pekar(spec, cfg, out_dir):
    res = mz.pekar_minimize(spec, max_iter=cfg["max_iter"])
    energy = pk.pekar_energy(spec, res.psi_star)
    payload = {
        "command": "pekar",
        "seed": cfg["seed"],
        "energy": energy.value,
        "kernel_energy": energy.kernel_value,
        "iterations": res.iterations,
        "converged": res.converged,
        "grad_norm": res.grad_norm,
        "eta": _complex_out(energy.eta.values),
    }
    if cfg["export_kernel"]:
        kern = pk.pekar_kernel(spec)
        np_rows = kern.config_matrix
        write_csv(out_dir / "kernel.csv",
                  [f"y{j}" for j in range(np_rows.shape[1])],
                  [list(map(float, row)) for row in np_rows])
    write_results(out_dir, payload)
    return EXIT_OK if res.converged else EXIT_SOLVER


def _run_equivalence(spec, cfg, out_dir):
    rep = mz.equivalence_check(spec, tol=cfg["tol_gap"],
                               n_starts=max(cfg["n_starts"], 2),
                               seed=cfg["seed"])
    payload = {
        "command": "equivalence",
        "seed": cfg["seed"],
        "e_qc": rep.e_qc,
        "e_pekar": rep.e_pekar,
        "gap": rep.gap,
        "pekar_at_qc_minimizer": rep.pekar_at_qc_minimizer,
        "qc_at_pekar_minimizer": rep.qc_at_pekar_minimizer,
        "tolerance": cfg["tol_gap"],
        "passes": rep.passes,
        "notes": list(rep.notes),
    }
    rows = [[i, float(e)] for i, e in enumerate(rep.qc_result.energy_trace)]
    write_csv(out_dir / "trace.csv", ["iteration", "energy"], rows)
    write_results(out_dir, payload)
    return EXIT_OK if rep.passes else EXIT_ASSERTION


def _reference_minimum(spec, cfg, out_dir):
    """The converged coupled minimum that fock-sweep and measures-check
    measure against; None once the divergence is written to results.json."""
    res = mz.alternating_minimize(spec, tol_energy=cfg["tol_energy"],
                                  tol_residual=cfg["tol_residual"],
                                  max_iter=cfg["max_iter"])
    if not res.converged:
        write_results(out_dir, {"command": cfg["command"],
                                "error": "reference minimization diverged"})
        return None
    return res


def _run_fock_sweep(spec, cfg, out_dir):
    res = _reference_minimum(spec, cfg, out_dir)
    if res is None:
        return EXIT_SOLVER
    rep = fk.epsilon_sweep(spec, cfg["eps_list"], res.energy, res.z_star,
                           n_max=cfg.get("n_max"), tail0=cfg["tail0"],
                           min_shells=cfg["min_shells"])
    payload = {
        "command": "fock-sweep",
        "seed": cfg["seed"],
        "e_qc": res.energy,
        "monotone_ok": rep.monotone_ok,
        "all_reliable": rep.all_reliable,
        "rows": [{
            "epsilon": r.epsilon, "e_eps": r.energy, "abs_err": r.abs_err,
            "n_max": r.n_max, "tail_mass": r.tail_indicator,
            "reliable": r.reliable} for r in rep.rows],
    }
    write_csv(out_dir / "sweep.csv",
              ["epsilon", "E_eps", "E_qc", "abs_err", "n_max", "tail_mass"],
              [[r.epsilon, r.energy, res.energy, r.abs_err, r.n_max,
                r.tail_indicator] for r in rep.rows])
    plot_lines = [f"{_fmt(r.epsilon)} {_fmt(r.abs_err)}" for r in rep.rows]
    (out_dir / "sweep.plot").write_text("\n".join(plot_lines) + "\n")
    write_results(out_dir, payload)
    ok = rep.monotone_ok and rep.all_reliable
    return EXIT_OK if ok else EXIT_ASSERTION


def _run_convexity(spec, cfg, out_dir):
    rng = np.random.default_rng(cfg["seed"])
    worst_rel = 0.0
    min_gap = float("inf")
    for _ in range(cfg["n_samples"]):
        psi = random_wavefunction(spec.grid, rng)
        e1 = field_eta(complex_normal(rng, spec.n_modes))
        e2 = field_eta(complex_normal(rng, spec.n_modes))
        beta = float(rng.uniform(0.05, 0.95))
        g = pk.convexity_gap(spec, psi, e1, e2, beta)
        min_gap = min(min_gap, g.gap)
        worst_rel = max(worst_rel,
                        abs(g.gap - g.prediction) / max(abs(g.prediction), 1e-30))
    passes = min_gap > 0 and worst_rel <= 1e-10
    write_results(out_dir, {
        "command": "convexity",
        "seed": cfg["seed"],
        "n_samples": cfg["n_samples"],
        "min_gap": min_gap,
        "worst_relative_error": worst_rel,
        "passes": passes,
    })
    return EXIT_OK if passes else EXIT_ASSERTION


def _run_measures_check(spec, cfg, out_dir):
    res = _reference_minimum(spec, cfg, out_dir)
    if res is None:
        return EXIT_SOLVER
    rep = atomic_bound_check(spec, cfg["n_samples"], cfg["seed"],
                             reference=res,
                             e_pekar=mz.pekar_minimize(spec).energy)
    payload = {
        "command": "measures-check",
        "seed": cfg["seed"],
        "n_samples": rep.n_samples,
        "e_qc": rep.e_qc,
        "dirac_svm": rep.dirac_svm,
        "dirac_pm": rep.dirac_pm,
        "e_pekar": rep.e_pekar,
        "min_sampled_measure_energy": rep.min_sampled_measure_energy,
        "min_sampled_field_energy": rep.min_sampled_field_energy,
        "passes": rep.passes,
        "witness": rep.witness,
    }
    write_results(out_dir, payload)
    return EXIT_OK if rep.passes else EXIT_ASSERTION


_RUNNERS = {
    "qc-min": _run_qc_min,
    "pekar": _run_pekar,
    "equivalence": _run_equivalence,
    "fock-sweep": _run_fock_sweep,
    "convexity": _run_convexity,
    "measures-check": _run_measures_check,
}


def run(cfg: dict) -> int:
    """Execute a parsed run config; returns the process exit code."""
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        spec = load_model(cfg["model"])
        report = validate_model(spec)
        if not report.passes:
            write_results(out_dir, {"command": cfg["command"],
                                    "error": "model validation failed",
                                    "validation": report.summary()})
            return EXIT_VALIDATION
    except ValueError as exc:
        error = f"{type(exc).__name__}: {exc}"
        print(f"validation error: {error}", file=sys.stderr)
        write_results(out_dir, {"command": cfg["command"], "error": error})
        return EXIT_VALIDATION
    try:
        return _RUNNERS[cfg["command"]](spec, cfg, out_dir)
    except tuple(_EXIT_CODES) as exc:
        error = f"{type(exc).__name__}: {exc}"
        print(f"error: {error}", file=sys.stderr)
        write_results(out_dir, {"command": cfg["command"], "error": error})
        return next(code for cls, code in _EXIT_CODES.items()
                    if isinstance(exc, cls))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcfield",
        description="coupled particle-field ground-state computations")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = parse_run_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if cfg["command"] != args.command:
        print(f"config command {cfg['command']!r} does not match "
              f"{args.command!r}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.seed is not None and args.seed < 0:
        print("config error: --seed must be >= 0", file=sys.stderr)
        return EXIT_VALIDATION
    if args.out is not None:
        cfg["out_dir"] = str(args.out)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
