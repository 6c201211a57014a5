"""Tests for the quasi-regular representation, coefficients, and inversion."""

import numpy as np
import pytest

from orbitlet import atoms as at
from orbitlet import embeddedness as em
from orbitlet import groups as gr
from orbitlet import transform as tr

SPEC = gr.Shearlet2D(0.5)
PSI = at.make_atom(SPEC, 2, at.spline_base([5, 5]))


def small_signal(n=32, extent=8 / 3):
    return tr.modulated_gaussian(extent=extent, n=n, carrier=(1.0, 0.15),
                                 sigma=0.9)


def small_grid(sig, n_r=5, n_t=3, r_max=1.0, t_max=1.0):
    return tr.make_transform_grid(SPEC, sig, r_max=r_max, n_r=n_r,
                                  t_max=t_max, n_t=n_t)


def test_pi_identity_is_psi():
    pts = np.array([[0.2, -0.3], [1.0, 0.9], [12.0, 0.0]])
    vals = tr.quasi_regular_evaluate(np.zeros(2), gr.identity(SPEC), PSI, pts)
    assert np.allclose(vals, PSI.evaluate(pts))


def test_pi_unitary_on_fine_grid():
    h = gr.shearlet2d_element(SPEC, a=1.5, b=0.7)
    grid = tr.TransformGrid(origin=[-8.0, -8.0], spacing=[1 / 32, 1 / 32],
                            counts=(512, 512),
                            dilations=[gr.identity(SPEC)],
                            dilation_weights=np.array([1.0]))
    moved = tr.quasi_regular_apply(np.array([0.3, -0.2]), h, PSI, grid)
    assert moved.l2_norm() == pytest.approx(PSI.l2_norm(), rel=1e-3)


def test_pi_composition_covariance():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 3, (50, 2))
    for _ in range(5):
        x1 = rng.uniform(-1, 1, 2)
        x2 = rng.uniform(-1, 1, 2)
        h1 = gr.shearlet2d_element(SPEC, a=float(np.exp(rng.uniform(-1, 1))),
                                   b=float(rng.uniform(-1, 1)))
        h2 = gr.shearlet2d_element(SPEC, a=float(np.exp(rng.uniform(-1, 1))),
                                   b=float(rng.uniform(-1, 1)))
        inner = tr.quasi_regular_evaluate(x2, h2, PSI, pts)

        # pi(x1,h1) applied to the function z -> pi(x2,h2)psi(z), pointwise
        det1 = abs(np.linalg.det(h1.matrix))
        inv1 = np.linalg.inv(h1.matrix)
        nested = det1 ** -0.5 * tr.quasi_regular_evaluate(
            x2, h2, PSI, (pts - x1) @ inv1.T)

        prod = gr.compose(h1, h2)
        x12 = x1 + h1.matrix @ x2
        composed = tr.quasi_regular_evaluate(x12, prod, PSI, pts)
        assert np.allclose(nested, composed, atol=1e-12)
        assert inner.shape == composed.shape


def test_analyze_matches_direct_quadrature():
    sig = small_signal()
    grid = small_grid(sig)
    coeffs = tr.analyze(sig, PSI, grid)
    lattice = grid.lattice_points()
    vol = grid.cell_volume()
    rng = np.random.default_rng(1)
    for _ in range(8):
        i = int(rng.integers(len(grid.dilations)))
        k = tuple(int(v) for v in rng.integers(0, 32, 2))
        x = grid.origin + grid.spacing * np.array(k)
        direct = float(np.sum(sig.values.ravel()
                              * tr.quasi_regular_evaluate(x, grid.dilations[i],
                                                          PSI, lattice)) * vol)
        assert coeffs.values[(i,) + k] == pytest.approx(direct, abs=1e-8)


def test_analyze_self_coefficient_is_energy():
    # f = psi sampled, coefficient at (x=0, h=id) approximates ||psi||^2;
    # odd counts place x=0 exactly on the lattice
    fn = at.sample_atom(PSI, (129, 129))
    grid = tr.TransformGrid(origin=fn.origin, spacing=fn.spacing,
                            counts=fn.values.shape,
                            dilations=[gr.identity(SPEC)],
                            dilation_weights=np.array([1.0]))
    coeffs = tr.analyze(fn, PSI, grid)
    got = coeffs.values[0, 64, 64]
    assert got == pytest.approx(PSI.l2_norm() ** 2, rel=1e-3)


def test_translation_covariance_exact_on_lattice():
    sig = small_signal()
    # compactify: zero a margin so the lattice shift loses nothing
    sig.values[:6, :] = 0.0
    sig.values[-6:, :] = 0.0
    sig.values[:, :6] = 0.0
    sig.values[:, -6:] = 0.0
    grid = small_grid(sig)
    shift = (3, 2)  # lattice steps
    rolled = np.zeros_like(sig.values)
    rolled[shift[0]:, shift[1]:] = sig.values[:-shift[0], :-shift[1]]
    sig2 = at.SampledFunction(origin=sig.origin, spacing=sig.spacing,
                              values=rolled)
    c1 = tr.analyze(sig, PSI, grid)
    c2 = tr.analyze(sig2, PSI, grid)
    a = c1.values[:, :-shift[0], :-shift[1]]
    b = c2.values[:, shift[0]:, shift[1]:]
    assert np.allclose(a, b, atol=1e-12)


def test_coefficients_vanish_off_support():
    # compact supports: coefficient exactly 0 when the supports cannot meet
    atom_fn = at.sample_atom(PSI, (48, 48))
    n = 48
    pad = np.zeros((n, n))
    pad[:12, :12] = atom_fn.values[:12, :12] * 0  # keep strictly zero signal
    pad[0, 0] = 1.0  # delta in the far corner
    sig = at.SampledFunction(origin=[-12.0, -12.0], spacing=[0.1, 0.1],
                             values=pad)
    grid = tr.TransformGrid(origin=sig.origin, spacing=sig.spacing,
                            counts=sig.values.shape,
                            dilations=[gr.identity(SPEC)],
                            dilation_weights=np.array([1.0]))
    coeffs = tr.analyze(sig, PSI, grid)
    # psi support box is [-3,3]^2; x in the opposite corner cannot overlap.
    # Direct quadrature gives an exact 0; the FFT path must stay far below
    # its 1e-8 agreement contract.
    assert abs(coeffs.values[0, -1, -1]) < 1e-12


def test_synthesize_zero_coeffs():
    sig = small_signal()
    grid = small_grid(sig)
    zeros = tr.CoefficientField(grid=grid,
                                values=np.zeros((len(grid.dilations), 32, 32)))
    out = tr.synthesize(zeros, PSI, grid, c_psi=1.0)
    assert np.all(out.values == 0.0)


def test_synthesize_rejects_bad_cpsi():
    sig = small_signal()
    grid = small_grid(sig)
    zeros = tr.CoefficientField(grid=grid,
                                values=np.zeros((len(grid.dilations), 32, 32)))
    with pytest.raises(tr.TransformError):
        tr.synthesize(zeros, PSI, grid, c_psi=0.0)


def test_grid_mismatch_rejected():
    sig = small_signal()
    grid = small_grid(sig)
    other = at.SampledFunction(origin=sig.origin + 0.5, spacing=sig.spacing,
                               values=sig.values)
    with pytest.raises(tr.TransformError):
        tr.analyze(other, PSI, grid)


def test_roundtrip_small():
    sig = small_signal(n=64)
    err = tr.roundtrip_error(SPEC, PSI, sig, r_max=2.5, n_r=21, t_max=2.0, n_t=9)
    assert err < 0.05


def test_coefficient_norm_isometry():
    sig = small_signal(n=64)
    grid = tr.make_transform_grid(SPEC, sig, r_max=2.5, n_r=21, t_max=2.0, n_t=9)
    coeffs = tr.analyze(sig, PSI, grid)
    c_psi = tr.calderon_constant(SPEC, PSI, r_max=2.5, t_max=2.0)
    w = em.WeightSpec.make(p=2, q=2, s=0, family=em.POWER, power_k=0)
    nrm = tr.coefficient_norm(coeffs, w)
    assert nrm ** 2 == pytest.approx(c_psi * sig.l2_norm() ** 2, rel=0.10)


def test_coefficient_norm_zero_and_monotone():
    sig = small_signal()
    grid = small_grid(sig)
    w = em.WeightSpec.make()
    zero = tr.CoefficientField(grid=grid,
                               values=np.zeros((len(grid.dilations), 32, 32)))
    assert tr.coefficient_norm(zero, w) == 0.0
    coeffs = tr.analyze(sig, PSI, grid)
    bigger = tr.CoefficientField(grid=grid, values=np.abs(coeffs.values) * 2)
    assert tr.coefficient_norm(bigger, w) >= tr.coefficient_norm(coeffs, w)


def test_coefficient_norm_reorder_invariant():
    sig = small_signal()
    grid = small_grid(sig)
    coeffs = tr.analyze(sig, PSI, grid)
    w = em.WeightSpec.make(s=1)
    base = tr.coefficient_norm(coeffs, w)
    rng = np.random.default_rng(2)
    perm = rng.permutation(len(grid.dilations))
    grid2 = tr.TransformGrid(origin=grid.origin, spacing=grid.spacing,
                             counts=grid.counts,
                             dilations=[grid.dilations[i] for i in perm],
                             dilation_weights=grid.dilation_weights[perm])
    coeffs2 = tr.CoefficientField(grid=grid2, values=coeffs.values[perm])
    assert tr.coefficient_norm(coeffs2, w) == pytest.approx(base, rel=1e-12)


def test_coefficient_binary_io(tmp_path):
    sig = small_signal()
    grid = small_grid(sig)
    coeffs = tr.analyze(sig, PSI, grid)
    path = str(tmp_path / "coeffs.bin")
    tr.analyze(sig, PSI, grid, out=tr.coefficient_file(path, grid))  # stored block by block
    back = at.sampled_from_binary(path)
    assert np.array_equal(back.values, coeffs.values)
    assert np.array_equal(back.origin[1:], grid.origin) and back.values.shape[0] == len(grid.dilations)


def test_refinement_trend_on_bundled_signals():
    # coarse vs refined dilation grids on the bundled signals: error shrinks
    for name, sig in tr.bundled_signals(n=32).items():
        e1 = tr.roundtrip_error(SPEC, PSI, sig, r_max=2.0, n_r=7, t_max=1.5, n_t=5)
        e2 = tr.roundtrip_error(SPEC, PSI, sig, r_max=2.0, n_r=13, t_max=1.5, n_t=9)
        assert e2 <= e1 * 1.05, (name, e1, e2)
