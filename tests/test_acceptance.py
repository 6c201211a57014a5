"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion (including runtime against the stated budget).
"""

import json
import time

import numpy as np
import pytest

from orbitlet import atoms as at
from orbitlet import cli
from orbitlet import embeddedness as em
from orbitlet import groups as gr
from orbitlet import orbit as ob
from orbitlet import transform as tr


def _report(num: int, desc: str, ok: bool, elapsed: float, budget: float) -> bool:
    ok = bool(ok) and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} [{elapsed:6.1f}s / {budget:.0f}s] {desc}")
    return ok


def test_criterion_01_moment_order_golden_values():
    t0 = time.time()
    weight = em.WeightSpec.make(p=2, q=2, s=0, family=em.MAXDELTA)
    rep = em.embedding_report(gr.Shearlet2D(0.5), weight)
    ok = rep.moments_analyzing == 15 and rep.moments_atom == 19
    assert _report(1, "shearlet c=1/2 pipeline: analyzing 15, atom 19",
                   ok, time.time() - t0, 1.0)


def test_criterion_02_atom_order_closed_forms():
    t0 = time.time()
    ok = True
    for d in range(2, 6):
        got = em.shearlet_atom_order(gr.standard_shearlet_group(d))
        ok &= got == 10 * d + 4 + (d + 1) // 4
        got = em.shearlet_atom_order(gr.toeplitz_shearlet_group(d))
        ok &= got == 2 * d * d + 6 * d + 4 + d // 2
    ok &= em.shearlet_atom_order(gr.standard_shearlet_group(2)) == 24
    assert _report(2, "atom-order closed forms, standard & Toeplitz, d=2..5",
                   ok, time.time() - t0, 1.0)


def test_criterion_03_classification_counts(capsys):
    t0 = time.time()
    ok = True
    for d, count in ((2, 1), (3, 2), (4, 5)):
        code = cli.main(["classify", "--dim", str(d)])
        doc = json.loads(capsys.readouterr().out)
        ok &= code == 0 and doc["count"] == count
        if d == 4:
            ha = [c for c in doc["classes"] if c["nilpotency_class"] == 3]
            tags = {(c["bilinear_rank"], c["bilinear_abs_signature"]) for c in ha}
            ok &= len(ha) == 3 and len(tags) == 3
    elapsed = time.time() - t0
    with capsys.disabled():
        assert _report(3, "classification counts 1/2/5; H_a separated by "
                          "(rank, |signature|)", ok, elapsed, 1.0)


def test_criterion_04_measure_transfer():
    t0 = time.time()

    def gaussian(pts):
        return np.exp(-np.pi * np.einsum("ni,ni->n", pts, pts))

    rep2 = ob.haar_transfer_check(gr.Shearlet2D(0.5), gaussian)
    rep3 = ob.haar_transfer_check(gr.standard_shearlet_group(3), gaussian)
    ok = rep2.rel_error < 1e-3 and rep3.rel_error < 1e-3
    assert _report(4, f"measure transfer rel errors {rep2.rel_error:.1e} (2d), "
                      f"{rep3.rel_error:.1e} (3d) < 1e-3",
                   ok, time.time() - t0, 30.0)


def test_criterion_05_phi_ell_convolution_identity():
    t0 = time.time()
    spec = gr.Shearlet2D(0.5)
    ell = spec.dim + 2
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        h = gr.element_from_factored(spec, int(rng.choice([-1, 1])),
                                     float(rng.uniform(-1.5, 1.5)),
                                     rng.uniform(-2, 2, 1))
        direct = em.phi_ell_direct(spec, h, ell)
        conv = em.phi_ell_convolution(spec, h, ell)
        worst = max(worst, abs(direct.value - conv.value) / direct.value)
    ok = worst < 0.01
    assert _report(5, f"Phi_ell direct vs convolution at 10 h: max rel "
                      f"{worst:.2e} < 1%", ok, time.time() - t0, 120.0)


def test_criterion_06_exponent_soundness():
    t0 = time.time()
    weight = em.WeightSpec.make()
    ok = True
    for name, spec in em.default_catalog():
        e = em.analytic_exponents(spec, weight)
        rep = em.empirical_exponent_check(spec, e, weight, budget=100_000,
                                          stages=5, seed=0, r0=2.0, t0=2.0)
        ok &= rep.all_bounded
    bad = em.ExponentSet.make(2, 0.5, 1.5, 0.5, provenance="user")
    rep = em.empirical_exponent_check(gr.Shearlet2D(0.5), bad, weight,
                                      budget=100_000, stages=5, seed=0,
                                      r0=2.0, t0=2.0)
    ok &= rep.verdicts["operator_norm"] == "unbounded"
    assert _report(6, "all catalog groups bounded at analytic exponents; "
                      "e2-1.0 flagged as growth",
                   ok, time.time() - t0, 120.0)


def test_criterion_07_moderateness_and_norm_robustness():
    t0 = time.time()
    ok = True
    for name, spec in em.default_catalog():
        orbit = ob.orbit_of(spec)
        rng = np.random.default_rng(11)
        pts = np.empty((0, orbit.dim))
        while len(pts) < 10_000:
            cand = rng.normal(size=(20_000, orbit.dim)) * 2.5
            keep = np.abs(cand).min(axis=1) > 0 if orbit.kind == ob.CROSS else \
                np.ones(len(cand), dtype=bool)
            if orbit.kind == ob.FIRST_COORD:
                keep = np.abs(cand[:, 0]) > 0
            pts = np.concatenate([pts, cand[keep]])
        pts = pts[:10_000]
        a0 = ob.envelope_values(orbit, pts)
        mats = gr.sample_near_identity(spec, rng, 32, radius=0.5)
        worst = max(float((ob.envelope_values(orbit, pts @ m) / a0).max())
                    for m in mats)
        ok &= worst <= 64.0
        ratio = ob.envelope_values_maxnorm(orbit, pts) / a0
        ok &= ratio.max() <= 16.0 and ratio.min() >= 1.0 / 16.0
    assert _report(7, "moderateness ratio <= 64; max-norm envelope ratio in "
                      "[1/16, 16] on all catalog orbits",
                   ok, time.time() - t0, 30.0)


def test_criterion_08_vanishing_moment_verification():
    t0 = time.time()
    spec = gr.Shearlet2D(0.5)
    orbit = ob.orbit_of(spec)
    base = at.spline_base([5, 5])
    ok = True
    for r in (1, 2, 3, 4):
        probe = at.verify_vanishing_moments(at.make_atom(spec, r, base), orbit, r)
        ok &= abs(probe.fitted_order - r) <= 0.1
        ok &= probe.moment_max_rel <= 1e-6
    assert _report(8, "shearlet atoms r=1..4 (quintic): fitted order within "
                      "0.1, moments below 1e-6",
                   ok, time.time() - t0, 60.0)


def test_criterion_09_admissibility_discrimination():
    t0 = time.time()
    ok = True
    for d in (2, 3):
        spec = gr.Shearlet2D(0.5) if d == 2 else gr.standard_shearlet_group(3)
        base = at.spline_base([5] * d)
        ok &= at.admissibility_check(spec, at.make_atom(spec, d, base)).verdict \
            == "finite"
        ok &= at.admissibility_check(spec, at.make_atom(spec, 0, base)).verdict \
            == "divergent"
    assert _report(9, "admissibility: d1^d f finite, f divergent, d = 2, 3",
                   ok, time.time() - t0, 60.0)


def test_criterion_10_desk_scale_inversion():
    t0 = time.time()
    spec = gr.Shearlet2D(0.5)
    psi = at.make_atom(spec, 2, at.spline_base([5, 5]))
    orbit = ob.orbit_of(spec)
    assert at.verify_vanishing_moments(psi, orbit, 2).verdict == "verified"
    signal = tr.modulated_gaussian(extent=8 / 3, n=64, carrier=(1.0, 0.15),
                                   sigma=1.0)
    err = tr.roundtrip_error(spec, psi, signal, r_max=2.5, n_r=21,
                             t_max=2.0, n_t=9)
    err_fine = tr.roundtrip_error(spec, psi, signal, r_max=2.5, n_r=41,
                                  t_max=2.0, n_t=17)
    ok = err < 0.05 and err_fine < err
    assert _report(10, f"64x64 round trip err {err:.3f} < 5%, refined "
                       f"{err_fine:.3f} < {err:.3f}",
                   ok, time.time() - t0, 300.0)
