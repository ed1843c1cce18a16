"""Quantize the field and watch the ground energy approach the coupled limit.

The scaled commutator makes the field semiclassical as eps shrinks; the
quantized ground energy then converges to the coupled classical-field
minimum.  A frozen-site instance doubles as an exact anchor: its ground
energy is -g^2/omega at every eps.
"""

from qcfield import (alternating_minimize, build_fock_basis, epsilon_sweep,
                     ground_state_eps, stability_lower_bound)
from qcfield.presets import decoupled_reference, frozen_mode_reference

EPS_LIST = [0.5, 0.25, 0.125, 0.0625]

# --- exact anchor: displaced oscillator -------------------------------------
frozen = frozen_mode_reference(g=0.3, omega=2.0)
basis = build_fock_basis(1, 12)
print("frozen site, g = 0.3, omega = 2 (exact ground energy -0.045):")
for eps in EPS_LIST:
    energy, _ = ground_state_eps(frozen, basis, eps)
    print(f"  eps = {eps:<7}: E_eps = {energy:+.12f}  "
          f"err = {abs(energy + 0.045):.1e}")

# --- convergence sweep -------------------------------------------------------
spec = decoupled_reference()
reference = alternating_minimize(spec)
print(f"\ncoupled minimum: {reference.energy:.12f}")
report = epsilon_sweep(spec, EPS_LIST, reference.energy, reference.z_star)
print("sweep with the shell-rule cutoff (tail budget shrinks like eps^2):")
print("  eps      n_max  |E_eps - E_qc|   top-shell mass")
for row in report.rows:
    print(f"  {row.epsilon:<8} {row.n_max:<6} {row.abs_err:.3e}       "
          f"{row.tail_indicator:.1e}")
print(f"errors non-increasing: {report.monotone_ok}")

bound = stability_lower_bound(spec)
print(f"\na-priori lower bound: {bound:+.6f} "
      f"(all E_eps above it: "
      f"{all(r.energy >= bound for r in report.rows)})")

# Plot data, two columns, log-log ready.
with open("sweep_demo.plot", "w") as fh:
    for row in report.rows:
        fh.write(f"{row.epsilon:.17g} {row.abs_err:.17g}\n")
print("wrote sweep_demo.plot")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 4))
    ax.loglog([r.epsilon for r in report.rows],
              [r.abs_err for r in report.rows], "o-")
    ax.set_xlabel("eps")
    ax.set_ylabel("|E_eps - E_qc|")
    ax.set_title("quantized ground energy vs the coupled minimum")
    ax.grid(True, which="both", alpha=0.3)
    fig.tight_layout()
    fig.savefig("sweep_demo.png", dpi=120)
    print("wrote sweep_demo.png")
except ImportError:
    pass
