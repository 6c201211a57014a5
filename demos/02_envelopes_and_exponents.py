"""Dual-orbit envelopes, decay exponents, and moment orders.

Shows the envelope A along paths into the orbit complement, derives the
analytic exponent set per family, verifies boundedness by seeded Monte
Carlo, and prints the resulting embedding indices and vanishing-moment
orders.

Run:  python3 demos/02_envelopes_and_exponents.py
"""

import numpy as np

from orbitlet import embeddedness as em
from orbitlet import groups as gr
from orbitlet import orbit as ob

spec = gr.Shearlet2D(0.5)
orbit = ob.orbit_of(spec)

print("=== the envelope near the orbit complement (xi_1 = 0) ===")
print("A(xi) = min(dist/(1+|nearest|), 1/(1+|xi|)) shrinks linearly")
print("as xi approaches the complement and like 1/|xi| at infinity:\n")
for x1 in (2.0, 1.0, 0.5, 0.25, 0.125):
    v = ob.envelope_A(orbit, [x1, 1.0])
    print(f"  xi = ({x1:5.3f}, 1)   dist = {v.distance:5.3f}   A = {v.a:.4f}")

print("\n=== analytic exponents per family (maxdelta weight) ===")
weight = em.WeightSpec.make(p=2, q=2, s=0, family=em.MAXDELTA)
for name, g in em.default_catalog():
    e = em.analytic_exponents(g, weight)
    print(f"  {name:16s} (e1, e2, e3, e4) = {tuple(round(x, 3) for x in e.as_floats())}")

print("\n=== Monte Carlo check of the four decay estimates ===")
print("Parameter boxes double per stage; the running supremum of each")
print("weighted quantity must stop growing for a 'bounded' verdict.\n")
e = em.analytic_exponents(spec, weight)
rep = em.empirical_exponent_check(spec, e, weight, budget=50_000, stages=5,
                                  seed=0, r0=2.0, t0=2.0)
for name in em.INEQUALITY_NAMES:
    sups = ", ".join(f"{s:.3g}" for s in rep.stage_suprema[name])
    print(f"  {name:14s} verdict={rep.verdicts[name]:9s} "
          f"least exponent ~ {rep.least_exponents[name]:.3g}  sups: {sups}")

print("\nReducing e2 by 1 makes the inverse-norm estimate fail visibly:")
bad = em.ExponentSet.make(e.e1, float(e.e2) - 1.0, e.e3, e.e4, provenance="user")
rep_bad = em.empirical_exponent_check(spec, bad, weight, budget=50_000,
                                      stages=5, seed=0, r0=2.0, t0=2.0)
sups = ", ".join(f"{s:.3g}" for s in rep_bad.stage_suprema["operator_norm"])
print(f"  operator_norm verdict={rep_bad.verdicts['operator_norm']}  sups: {sups}")

print("\n=== indices and vanishing-moment orders ===")
for name, g in [("shearlet2d-c1/2", spec), ("similitude-2d", gr.Similitude(2)),
                ("toeplitz-3d", gr.toeplitz_shearlet_group(3))]:
    report = em.embedding_report(g, weight)
    print(f"\n  {name}:")
    print(f"    analyzing index {report.ell_temperate} -> moments "
          f"{report.moments_analyzing}")
    print(f"    atom index      {report.ell_strong} -> moments "
          f"{report.moments_atom}")
    if isinstance(g, (gr.Shearlet2D, gr.GeneralizedShearlet)):
        print(f"    atom-order closed form: {em.shearlet_atom_order(g)}")
    for note in report.notes:
        print(f"    note: {note}")
