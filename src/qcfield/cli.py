"""Batch front end: run configs in, deterministic result files out.

Usage:
    qcfield <command> --config <path> [--out <dir>] [--seed <u64>]

The config is a key-value text file (one `key = value` per line, `#`
comments); see docs/run_config_schema.txt for the full key list.  Outputs
are results.json plus trace.csv / sweep.csv / sweep.plot where applicable.
Numbers are written as Python's shortest round-trip repr (json.dumps), so
each parses back to the exact double and repeated runs with the same config
and seed are byte-identical.

Exit codes: 0 success, 2 config/model validation failure, 3 solver
non-convergence, 4 assertion failure (an embedded check did not hold).  A
model that fails to load (an OSError such as a directory given as the model
included) or to validate, and an error raised mid-run, map to one of them
(see _EXIT_CODES), print one stderr line and leave results.json with the
command and the error.  An output directory that cannot be made exits 2
with one "config error" line and no results.json.  BLAS threading follows
the standard variables (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS), set before
the process starts.
"""

from __future__ import annotations

import argparse
import json
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


def _flag(value: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise ValueError(value)
    return value.lower() == "true"


def _floats(value: str) -> list[float]:
    return [float(v) for v in value.split(",") if v.strip()]


# every key of docs/run_config_schema.txt: (parse, default, lowest value);
# float lowest math.ulp(0.0) reads "finite and positive", None is unchecked
_KEYS = {
    "command": (str, None, None),
    "model": (str, None, None),
    "out_dir": (str, "results", None),
    "seed": (int, 0, 0),
    "tol_gap": (float, 1e-6, math.ulp(0.0)),
    "max_iter": (int, 200, 1),
    "n_starts": (int, 1, 1),
    "n_samples": (int, 200, 1),
    "eps_list": (_floats, [0.5, 0.25, 0.125, 0.0625], None),
    "n_max": (int, None, 0),
    "export_kernel": (_flag, False, None),
}
_KNOWN_KEYS = set(_KEYS)


def parse_run_config(path: Path) -> dict:
    cfg = {key: default for key, (_, default, _) in _KEYS.items()}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        parse, _, low = _KEYS[key]
        try:
            cfg[key] = parse(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for "
                              f"{key}") from None
        if low is not None and not low <= cfg[key] < math.inf:
            raise ConfigError(f"{key} must be >= {low}" if parse is int
                              else f"{key} must be finite and positive")
    if cfg["command"] is None:
        raise ConfigError("config must set 'command'")
    if cfg["command"] not in COMMANDS:
        raise ConfigError(f"unknown command {cfg['command']!r}; "
                          f"one of {', '.join(COMMANDS)}")
    if cfg["model"] is None:
        raise ConfigError("config must set 'model' (path to a model JSON)")
    model_path = Path(cfg["model"])
    if not model_path.is_absolute():
        model_path = path.parent / model_path
    if not model_path.exists():
        raise ConfigError(f"model file {model_path} does not exist")
    cfg["model"] = model_path
    try:
        cfg["eps_list"] = fk.check_eps_list(cfg["eps_list"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    """One CSV / plot number: JSON spelling, floats as shortest repr."""
    return json.dumps(x)


def render_json(obj) -> str:
    """results.json text: key order kept, floats as shortest repr."""
    return json.dumps(obj, indent=2)


def write_results(out_dir: Path, payload: dict) -> None:
    (out_dir / "results.json").write_text(render_json(payload) + "\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _run_qc_min(spec, cfg, out_dir):
    ms = mz.multi_start(spec, cfg["n_starts"], seed=cfg["seed"],
                        max_iter=cfg["max_iter"])
    res = ms.best
    extra = {"n_starts": cfg["n_starts"]}
    if cfg["n_starts"] > 1:
        extra.update(min_energy=ms.min_energy, max_energy=ms.max_energy,
                     max_pair_distance=ms.max_pair_distance)
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
    # a kernel pekar_kernel refuses fails the run before the minimization
    kern = pk.pekar_kernel(spec) if cfg["export_kernel"] else None
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
    if kern is not None:
        rows = kern.config_matrix.tolist()
        write_csv(out_dir / "kernel.csv",
                  [f"y{j}" for j in range(len(rows[0]))], rows)
    write_results(out_dir, payload)
    return EXIT_OK if res.converged else EXIT_SOLVER


def _run_equivalence(spec, cfg, out_dir):
    rep = mz.equivalence_check(spec, tol=cfg["tol_gap"],
                               n_starts=max(cfg["n_starts"], 2),
                               seed=cfg["seed"], max_iter=cfg["max_iter"])
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
    if not (rep.qc_result.converged and rep.pekar_result.converged):
        return EXIT_SOLVER
    return EXIT_OK if rep.passes else EXIT_ASSERTION


def _diverged(res, cfg, out_dir, name) -> bool:
    """Whether the minimization res did not converge; if so, results.json
    holds the command and the error "<name> minimization diverged"."""
    if not res.converged:
        write_results(out_dir, {"command": cfg["command"],
                                "error": f"{name} minimization diverged"})
    return not res.converged


def _run_fock_sweep(spec, cfg, out_dir):
    res = mz.alternating_minimize(spec, max_iter=cfg["max_iter"])
    if _diverged(res, cfg, out_dir, "reference"):
        return EXIT_SOLVER
    rep = fk.epsilon_sweep(spec, cfg["eps_list"], res.energy, res.z_star,
                           n_max=cfg["n_max"])
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
    res = mz.alternating_minimize(spec, max_iter=cfg["max_iter"])
    if _diverged(res, cfg, out_dir, "reference"):
        return EXIT_SOLVER
    reduced = mz.pekar_minimize(spec, max_iter=cfg["max_iter"])
    if _diverged(reduced, cfg, out_dir, "reduced"):
        return EXIT_SOLVER
    rep = atomic_bound_check(spec, cfg["n_samples"], cfg["seed"],
                             reference=res, e_pekar=reduced.energy)
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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        spec = load_model(cfg["model"])
    except (ValueError, OSError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        print(f"validation error: {error}", file=sys.stderr)
        write_results(out_dir, {"command": cfg["command"], "error": error})
        return EXIT_VALIDATION
    report = validate_model(spec)
    if not report.passes:
        print("validation error: model validation failed", file=sys.stderr)
        write_results(out_dir, {"command": cfg["command"],
                                "error": "model validation failed",
                                "validation": report.summary()})
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
    except (ValueError, OSError) as exc:  # ConfigError, or not UTF-8
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
