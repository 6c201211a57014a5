"""Desk-scale continuous wavelet transform round trip.

Analyzes a band-limited test signal over the 2-D shearlet group, inverts
with the truncated-box reproduction constant, and shows the error shrinking
as the dilation sampling refines.  Also demonstrates the measure-transfer
identity that underpins the reproduction constant.

Run:  python3 demos/04_desk_scale_cwt.py   (about a minute)
"""

import numpy as np

from orbitlet import atoms as at
from orbitlet import embeddedness as em
from orbitlet import groups as gr
from orbitlet import orbit as ob
from orbitlet import transform as tr

spec = gr.Shearlet2D(0.5)
psi = at.make_atom(spec, 2, at.spline_base([5, 5]))
signal = tr.modulated_gaussian(extent=8 / 3, n=64, carrier=(1.0, 0.15), sigma=1.0)

print("=== measure transfer: orbit integral vs group parametrization ===")
gauss = lambda pts: np.exp(-np.pi * np.einsum("ni,ni->n", pts, pts))
rep = ob.haar_transfer_check(spec, gauss)
print(f"  orbit side {rep.lhs:.6f} vs group side {rep.rhs:.6f} "
      f"(rel error {rep.rel_error:.1e})")

print("\n=== analysis ===")
grid = tr.make_transform_grid(spec, signal, r_max=2.5, n_r=21, t_max=2.0, n_t=9)
coeffs = tr.analyze(signal, psi, grid)
print(f"  {len(grid.dilations)} dilations x {grid.counts} translations")
peak = np.unravel_index(np.argmax(np.abs(coeffs.values)), coeffs.values.shape)
h_peak = gr.element(spec, grid.dilations[peak[0]])
eps, a, b = gr.shearlet2d_ab(h_peak)
print(f"  largest coefficient at scale a = {a:.3f}, shear b = {b:.3f} "
      f"(signal carrier sits at xi = (1, 0.15))")

print("\n=== norms ===")
c_psi = tr.calderon_constant(spec, psi, r_max=2.5, t_max=2.0)
w_flat = em.WeightSpec.make(p=2, q=2, s=0, family=em.POWER, power_k=0)
nrm = tr.coefficient_norm(coeffs, w_flat)
print(f"  c_psi (truncated box) = {c_psi:.4f}")
print(f"  ||W f||^2 / (c_psi ||f||^2) = "
      f"{nrm ** 2 / (c_psi * signal.l2_norm() ** 2):.4f}  (isometry up to c_psi)")

print("\n=== inversion and refinement trend ===")
for n_r, n_t in ((11, 5), (21, 9), (41, 17)):
    err = tr.roundtrip_error(spec, psi, signal, r_max=2.5, n_r=n_r,
                             t_max=2.0, n_t=n_t)
    print(f"  dilation grid {n_r:2d} x {n_t:2d}: relative L2 error {err:.4f}")
print("\nDoubling the dilation density keeps shrinking the error; the")
print("residual is the truncation of the group box, not the formula.")
