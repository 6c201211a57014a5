"""Compactly supported atoms: construction and two-pronged verification.

Builds spline atoms for the 2-D shearlet group, checks their vanishing
moments by spectral slope fits and direct moment quadrature, and runs the
dyadic-shell admissibility test on both an admissible and an inadmissible
candidate.

Run:  python3 demos/03_atoms_and_admissibility.py
"""

import numpy as np

from orbitlet import atoms as at
from orbitlet import groups as gr
from orbitlet import orbit as ob

spec = gr.Shearlet2D(0.5)
orbit = ob.orbit_of(spec)
base = at.spline_base([5, 5])

print("=== derivative patterns per family ===")
for name, g in (("shearlet2d", spec), ("diagonal-3d", gr.Diagonal(3)),
                ("similitude-2d", gr.Similitude(2)),
                ("diagonal-1 x shearlet2d", gr.DirectProduct((gr.Diagonal(1), spec)))):
    print(f"  {name:23s} ->", at.orbit_differential_operator(g).describe())

print("\n=== atoms psi = d1^r f on a quintic tensor spline ===")
for r in (1, 2, 3, 4):
    atom = at.make_atom(spec, r, base)
    probe = at.verify_vanishing_moments(atom, orbit, r)
    print(f"  r = {r}: fitted spectral order {probe.fitted_order:6.3f}, "
          f"max moment residual {probe.moment_max_rel:.1e}, "
          f"verdict {probe.verdict}")

print("\nThe slope fit follows |psi_hat| along lines into the complement;")
print("moment integrals are an independent x-space quadrature, so a bug in")
print("either path cannot silently pass both.")

print("\n=== admissibility by dyadic shells ===")
good = at.make_atom(spec, 2, base)
report = at.admissibility_check(spec, good)
ratios = report.inner_shells[1:7] / report.inner_shells[:6]
print(f"\n  psi = d1^2 f: verdict {report.verdict}")
print("  inner-shell ratios (toward the complement):",
      np.round(ratios, 3))

plain = at.make_atom(spec, 0, base)
report = at.admissibility_check(spec, plain)
ratios = report.inner_shells[1:7] / report.inner_shells[:6]
print(f"\n  psi = f (no derivative): verdict {report.verdict}")
print("  inner-shell ratios grow geometrically:", np.round(ratios, 3))

bump = at.BandlimitedBump(box=((1.0, 2.0), (-1.0, 1.0)))
print(f"\n  spectrum supported on [1,2]x[-1,1]: verdict "
      f"{at.admissibility_check(spec, bump).verdict}")

print("\n=== grid I/O ===")
fn = at.sample_atom(good, (64, 64))
at.sampled_to_csv(fn, "/tmp/atom_demo.csv")
at.sampled_to_binary(fn, "/tmp/atom_demo.bin")
back = at.sampled_from_binary("/tmp/atom_demo.bin")
print(f"  wrote and re-read a {fn.values.shape} grid; "
      f"max deviation {np.abs(back.values - fn.values).max():.1e}")
