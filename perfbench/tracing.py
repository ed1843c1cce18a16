"""Timing shims around qcfield's public functions, installed from outside.

The library is not instrumented.  In a traced pass the benchmark replaces
each function named in LAYER_FUNCTIONS by a shim that records a span (name,
start, end, parent span, task id) and the size counts named in COUNTERS.
Because the package uses ``from .x import f``, a function is reachable under
several module namespaces (``qcfield.minimize.assemble_hz`` as well as
``qcfield.qc_energy.assemble_hz``); the shim replaces every one of them and
``uninstall`` puts the originals back.

What cannot be read from outside without changing the call is left out:
ARPACK matvec counts and which eigensolver path ran (dense or Lanczos).
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "qcfield"

# (module, function) pairs that get a span.  Outer loops (multi_start,
# epsilon_sweep, ...) get one too, so that their own time is not booked to
# their caller's self time.
LAYER_FUNCTIONS = (
    ("model", "make_model"),
    ("model", "load_model"),
    ("model", "validate_model"),
    ("qc_energy", "assemble_k0"),
    ("qc_energy", "assemble_hz"),
    ("qc_energy", "qc_energy"),
    ("qc_energy", "qc_energy_eta"),
    ("qc_energy", "el_residual"),
    ("pekar", "eta_pekar"),
    ("pekar", "kernel_convolve"),
    ("pekar", "pekar_energy"),
    ("pekar", "convexity_gap"),
    ("minimize", "ground_eigenpair"),
    ("minimize", "alternating_minimize"),
    ("minimize", "multi_start"),
    ("minimize", "pekar_minimize"),
    ("minimize", "equivalence_check"),
    ("minimize", "best_particle_energy"),
    ("fock", "build_fock_basis"),
    ("fock", "ladder_operators"),
    ("fock", "assemble_h_eps"),
    ("fock", "ground_energy_eps"),
    ("fock", "epsilon_sweep"),
    ("measures", "atomic_bound_check"),
    ("cli", "main"),
    ("cli", "run"),
)

# Span name of the benchmark's own wrapper around one task; its self time is
# the part of a task that no library span covers.
TASK_SPAN = "bench.task"


def _sparse_bytes(mat) -> int:
    """Bytes of a CSR matrix's three arrays (computed, not measured)."""
    return int(mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)


# name -> {counter: (how to read it, how to combine over calls)}
COUNTERS = {
    "minimize.ground_eigenpair": {
        "max_dim": (lambda args, result: args[0].matrix.shape[0], max)},
    "minimize.alternating_minimize": {
        "iterations": (lambda args, result: result.iterations, sum)},
    "minimize.pekar_minimize": {
        "iterations": (lambda args, result: result.iterations, sum)},
    "fock.ground_energy_eps": {
        "max_dim": (lambda args, result: args[0].shape[0], max)},
    "fock.build_fock_basis": {
        "states": (lambda args, result: result.dim, sum)},
    "fock.assemble_h_eps": {
        "nnz": (lambda args, result: int(result.nnz), sum),
        "bytes_computed": (lambda args, result: _sparse_bytes(result), max)},
}


class Tracer:
    """Records spans in memory while installed; does nothing otherwise.

    A span is a list [name, start, end, parent, task, counts]; parent is the
    index of the enclosing span in ``spans``, or -1 for a root.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.task = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.task,
                           {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _shim(self, name: str, func):
        counters = COUNTERS.get(name, {})

        @functools.wraps(func)
        def shim(*args, **kwargs):
            idx = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(idx)
            counts = self.spans[idx][5]
            for key, (read, _) in counters.items():
                counts[key] = read(args, result)
            return result

        return shim

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for mod_name, func_name in LAYER_FUNCTIONS:
            func = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], func_name)
            shim = self._shim(f"{mod_name}.{func_name}", func)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        self._patched.append((mod, attr, func))
                        setattr(mod, attr, shim)

    def uninstall(self) -> None:
        for mod, attr, func in reversed(self._patched):
            setattr(mod, attr, func)
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans nest strictly (one thread, shims close in LIFO order), so the
    children of a span never overlap each other.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, task, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child_time)]


def layer_stats(spans: list[list], keep) -> dict:
    """Per-function calls, summed self time and combined counters over the
    spans for which keep(span) is true."""
    stats: dict[str, dict] = {}
    for span, self_s in zip(spans, self_times(spans)):
        if not keep(span):
            continue
        name, counts = span[0], span[5]
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        for key, (_, combine) in COUNTERS.get(name, {}).items():
            # a call that raised recorded no counts
            entry[key] = combine((entry.get(key, 0), counts.get(key, 0)))
    return stats
