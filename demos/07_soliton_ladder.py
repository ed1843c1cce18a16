"""A continuum limit: the 1-d polaron's reduced minimum tends to the soliton.

With K unit-frequency modes on linspace(-Lambda, Lambda) and trapezoid
weights, sum_j w_j cos(k_j r) tends to 2 pi delta(r), so the reduced energy
of a polaron on a zero potential tends to

    int |psi'|^2 - 2 pi alpha int |psi|^4,

whose minimum over normalized psi is -pi^2 alpha^2 / 3, attained by the
cubic NLS soliton sqrt(kappa / 2) sech(kappa x) with kappa = pi alpha.
Refining the grid with Lambda = 12 G / 64 (mode spacing 0.5) shows the
error fall fourfold per doubling, while the preconditioned reduced
minimizer takes about the same number of steps at every grid size.  The
alternating route (exact psi- and field-steps) reaches the same minimum.
"""

import numpy as np

from qcfield import alternating_minimize, pekar_minimize
from qcfield.presets import soliton_polaron

alpha = soliton_polaron(64).alpha
exact = -np.pi ** 2 * alpha ** 2 / 3

print(f"alpha = {alpha}, continuum minimum -pi^2 alpha^2 / 3 = {exact:.10f}")
print(f"{'G':>5} {'K':>5} {'E':>15} {'E - exact':>11} {'ratio':>6} "
      f"{'steps':>6} {'alt steps':>9} {'E_alt - E':>10}")
previous = None
for points in (64, 128, 256, 512):
    spec = soliton_polaron(points)
    res = pekar_minimize(spec)
    alt = alternating_minimize(spec)
    error = res.energy - exact
    ratio = f"{previous / error:6.2f}" if previous is not None else " " * 6
    print(f"{points:5d} {spec.n_modes:5d} {res.energy:15.10f} {error:11.3e} "
          f"{ratio} {res.iterations:6d} {alt.iterations:9d} "
          f"{alt.energy - res.energy:10.1e}")
    previous = error
