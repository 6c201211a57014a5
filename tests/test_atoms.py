"""Tests for spline atoms, spectra, vanishing moments, and admissibility."""

import math
import tracemalloc

import numpy as np
import pytest

from orbitlet import atoms as at
from orbitlet import groups as gr
from orbitlet import orbit as ob


def test_bspline_partition_of_unity():
    x = np.linspace(2.9, 3.1, 41)
    for k in (1, 2, 3, 5):
        total = sum(at.bspline(k, x + j) for j in range(-8, 9))
        assert np.allclose(total, 1.0)


def test_bspline_integral_one():
    for k in (1, 2, 3, 5):
        x = np.linspace(-1, k + 2, 20001)
        val = np.trapezoid(at.bspline(k, x), x)
        assert val == pytest.approx(1.0, abs=1e-6)


def test_bspline_derivative_matches_numeric():
    x = np.linspace(0.3, 5.7, 101)
    h = 1e-6
    for k, m in ((3, 1), (5, 2), (5, 3)):
        exact = at.bspline_derivative(k, m, x)
        lower = at.bspline_derivative(k, m - 1, x - h)
        upper = at.bspline_derivative(k, m - 1, x + h)
        assert np.allclose((upper - lower) / (2 * h), exact, atol=1e-5)


def test_bspline_hat_matches_quadrature():
    k = 4
    x = np.linspace(0, k + 1, 40001)
    vals = at.bspline(k, x)
    for xi in (0.0, 0.3, 1.7, -0.9):
        direct = np.trapezoid(vals * np.exp(-2j * np.pi * xi * x), x)
        assert abs(direct - at.bspline_hat(k, xi)) < 1e-8


def test_scaled_axis_spectrum_shift():
    ax = at.SplineAxis(degree=3, a=-2.0, b=2.0)
    x = np.linspace(-2, 2, 40001)
    vals = ax.value(0, x)
    for xi in (0.25, 1.1):
        direct = np.trapezoid(vals * np.exp(-2j * np.pi * xi * x), x)
        assert abs(direct - ax.hat(xi)) < 1e-8


def test_orbit_differential_operator_patterns():
    assert at.orbit_differential_operator(gr.Shearlet2D(0.5)).orders == (1, 0)
    assert at.orbit_differential_operator(gr.Diagonal(3)).orders == (1, 1, 1)
    plan = at.orbit_differential_operator(gr.Similitude(2))
    assert plan.kind == "laplacian"
    assert at.orbit_differential_operator(gr.toeplitz_shearlet_group(3)).orders == (1, 0, 0)


def test_make_atom_r0_is_base():
    spec = gr.Shearlet2D(0.5)
    base = at.spline_base([5, 5])
    atom = at.make_atom(spec, 0, base)
    pts = np.array([[0.1, -0.4], [1.0, 0.7]])
    expected = base[0].value(0, pts[:, 0]) * base[1].value(0, pts[:, 1])
    assert np.allclose(atom.evaluate(pts), expected)


def test_make_atom_laplacian_rounds_up():
    spec = gr.Similitude(2)
    atom = at.make_atom(spec, 5, at.spline_base([9, 9]))
    assert atom.plan.kind == "laplacian"
    assert atom.plan.orders == (3,)  # ceil(5/2) applications, order 6
    assert atom.moment_order == 6


def test_make_atom_rejects_low_degree():
    spec = gr.Shearlet2D(0.5)
    with pytest.raises(at.InsufficientSmoothnessError):
        at.make_atom(spec, 4, at.spline_base([3, 3]))


def test_support_preservation():
    spec = gr.Shearlet2D(0.5)
    atom = at.make_atom(spec, 2, at.spline_base([5, 5]))
    (a1, b1), (a2, b2) = atom.support_box()
    rng = np.random.default_rng(0)
    outside = rng.uniform(-10, 10, (500, 2))
    inside_box = ((outside[:, 0] > a1) & (outside[:, 0] < b1)
                  & (outside[:, 1] > a2) & (outside[:, 1] < b2))
    vals = atom.evaluate(outside)
    assert np.all(vals[~inside_box] == 0.0)


def test_closed_form_spectrum_matches_fft_1d():
    # x1 factor of the shearlet atom: second derivative of a quintic axis
    ax = at.SplineAxis(degree=5, a=0.0, b=6.0)
    n = 4096
    x = np.linspace(0, 6, n, endpoint=False)
    dx = x[1] - x[0]
    vals = ax.value(2, x)
    freqs = np.fft.fftfreq(n, d=dx)
    fft_vals = np.fft.fft(vals) * dx
    closed = (2j * np.pi * freqs) ** 2 * ax.hat(freqs)
    sel = (np.abs(freqs) > 0.05) & (np.abs(freqs) < 2.0)
    rel = np.abs(fft_vals[sel] - closed[sel]) / np.abs(closed[sel]).max()
    assert rel.max() < 1e-6


def test_symbol_consistency_discrete_differentiation():
    # central differences + direct transform against the closed-form symbol
    ax = at.SplineAxis(degree=5, a=-3.0, b=3.0)
    n = 8192
    x = np.linspace(-3.2, 3.2, n)
    h = x[1] - x[0]
    f = ax.value(0, x)
    df = np.gradient(f, h, edge_order=2)
    fn = at.SampledFunction(origin=[x[0]], spacing=[h], values=df)
    # stay away from the integer frequencies where the spectrum vanishes
    for xi in (0.2, 0.45, 0.8):
        got = fn.spectrum(np.array([[xi]]))[0]
        want = (2j * np.pi * xi) * ax.hat(xi)
        assert abs(got - want) / abs(want) < 1e-5


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_vanishing_moments_shearlet(r):
    spec = gr.Shearlet2D(0.5)
    orbit = ob.orbit_of(spec)
    atom = at.make_atom(spec, r, at.spline_base([5, 5]))
    probe = at.verify_vanishing_moments(atom, orbit, r)
    assert abs(probe.fitted_order - r) <= 0.1
    assert probe.moments_pass
    assert probe.verdict == "verified"


def test_vanishing_moments_base_function_is_order_zero():
    spec = gr.Shearlet2D(0.5)
    orbit = ob.orbit_of(spec)
    atom = at.make_atom(spec, 0, at.spline_base([5, 5]))
    probe = at.verify_vanishing_moments(atom, orbit, 0)
    assert abs(probe.fitted_order) <= 0.1


def test_vanishing_moments_laplacian():
    spec = gr.Similitude(2)
    orbit = ob.orbit_of(spec)
    atom = at.make_atom(spec, 2, at.spline_base([5, 5]))
    probe = at.verify_vanishing_moments(atom, orbit, 2)
    assert abs(probe.fitted_order - 2) <= 0.1
    assert probe.verdict == "verified"


def test_moment_order_additivity():
    spec = gr.Shearlet2D(0.5)
    orbit = ob.orbit_of(spec)
    base = at.spline_base([6, 6])
    fitted = []
    for r in (1, 2):
        atom = at.make_atom(spec, r, base)
        fitted.append(at.verify_vanishing_moments(atom, orbit, r).fitted_order)
    assert fitted[1] >= fitted[0] + 0.9


def test_moment_failure_detected():
    # claim order 2 for an atom that only has order 1
    spec = gr.Shearlet2D(0.5)
    orbit = ob.orbit_of(spec)
    atom = at.make_atom(spec, 1, at.spline_base([5, 5]))
    probe = at.verify_vanishing_moments(atom, orbit, 2)
    assert not probe.moments_pass or probe.fitted_order < 1.9
    assert probe.verdict == "failed"


def test_vanishing_moments_sampled_function():
    spec = gr.Shearlet2D(0.5)
    orbit = ob.orbit_of(spec)
    atom = at.make_atom(spec, 1, at.spline_base([5, 5]))
    fn = at.sample_atom(atom, (256, 256))
    probe = at.verify_vanishing_moments(fn, orbit, 1, moment_tol=1e-4)
    assert abs(probe.fitted_order - 1) <= 0.1


@pytest.mark.parametrize("d", [2, 3])
def test_admissibility_discrimination(d):
    spec = gr.Shearlet2D(0.5) if d == 2 else gr.standard_shearlet_group(3)
    base = at.spline_base([5] * d)
    good = at.admissibility_check(spec, at.make_atom(spec, d, base))
    assert good.verdict == "finite"
    bad = at.admissibility_check(spec, at.make_atom(spec, 0, base))
    assert bad.verdict == "divergent"


def test_admissibility_bandlimited_compact():
    bump = at.BandlimitedBump(box=((1.0, 2.0), (-1.0, 1.0)))
    report = at.admissibility_check(gr.Shearlet2D(0.5), bump)
    assert report.verdict == "finite"


def test_admissibility_similitude_polar():
    spec = gr.Similitude(2)
    base = at.spline_base([5, 5])
    good = at.admissibility_check(spec, at.make_atom(spec, 2, base))
    assert good.verdict == "finite"
    bad = at.admissibility_check(spec, at.make_atom(spec, 0, base))
    assert bad.verdict == "divergent"


def test_atom_json_roundtrip():
    spec = gr.Shearlet2D(0.5)
    atom = at.make_atom(spec, 3, at.spline_base([5, 5]))
    back = at.Atom.from_json(atom.to_json())
    pts = np.array([[0.3, -0.2], [1.1, 0.9]])
    assert np.allclose(back.evaluate(pts), atom.evaluate(pts))
    assert back.moment_order == atom.moment_order


CENTERED = at.spline_base([5, 4], [(-3.0, 3.0), (-2.0, 2.0)])
OFFSET = at.spline_base([5, 4], [(-3.0, 3.0), (-1.5, 2.5)])


@pytest.mark.parametrize("base,plan,sigma", [
    (CENTERED, at.DerivativePlan("partial", (2, 0)), 1),
    (CENTERED, at.DerivativePlan("partial", (1, 0)), -1),
    (CENTERED, at.DerivativePlan("partial", (1, 1)), 1),
    (CENTERED, at.DerivativePlan("partial", (0, 3)), -1),
    (CENTERED, at.DerivativePlan("laplacian", (1,)), 1),
    (OFFSET, at.DerivativePlan("partial", (1, 0)), None),
    (OFFSET, at.DerivativePlan("laplacian", (1,)), None)])
def test_atom_parity(base, plan, sigma):
    atom = at.Atom(base=base, plan=plan, moment_order=0)
    assert atom.parity() == sigma
    pts = np.random.default_rng(7).uniform(-3.2, 3.2, size=(2000, 2))
    values, mirrored = atom.evaluate(pts), atom.evaluate(-pts)
    scale = np.abs(values).max()
    assert scale > 0.01
    if sigma is None:  # one support is offset: psi(-x) is neither psi(x) nor -psi(x)
        assert min(np.abs(mirrored - values).max(), np.abs(mirrored + values).max()) > 0.01 * scale
    else:
        assert np.abs(mirrored - sigma * values).max() <= 1e-12 * scale


def test_sampled_io_roundtrip(tmp_path):
    spec = gr.Shearlet2D(0.5)
    atom = at.make_atom(spec, 1, at.spline_base([3, 3]))
    fn = at.sample_atom(atom, (32, 40))
    csv_path = str(tmp_path / "grid.csv")
    at.sampled_to_csv(fn, csv_path)
    back = at.sampled_from_csv(csv_path)
    assert np.array_equal(back.values, fn.values)
    assert np.array_equal(back.origin, fn.origin)
    bin_path = str(tmp_path / "grid.bin")
    at.sampled_to_binary(fn, bin_path)
    back2 = at.sampled_from_binary(bin_path)
    assert np.array_equal(back2.values, fn.values)
    assert np.array_equal(back2.spacing, fn.spacing)


def test_binary_roundtrip_allocates_one_payload(tmp_path):
    values = np.random.default_rng(3).normal(size=(2, 512, 1024))  # 8 MB
    fn = at.SampledFunction(origin=[0.0, 0.0, 0.0], spacing=[1.0, 0.1, 0.1], values=values)
    path = str(tmp_path / "grid.bin")
    tracemalloc.start()
    try:
        at.sampled_to_binary(fn, path)  # from the array's own buffer
        back = at.sampled_from_binary(path)  # read into the one returned array
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, values)
    assert peak < 1.1 * values.nbytes, f"traced peak {peak / 2 ** 20:.1f} MB"


def test_sampled_function_validation():
    with pytest.raises(at.AtomError):
        at.SampledFunction(origin=[0.0], spacing=[0.0], values=np.zeros(8))
    with pytest.raises(at.AtomError):
        at.SampledFunction(origin=[0.0, 0.0], spacing=[0.1, 0.1],
                           values=np.zeros((1, 8)))


def test_atom_norms_positive():
    spec = gr.Shearlet2D(0.5)
    atom = at.make_atom(spec, 2, at.spline_base([5, 5]))
    assert atom.l1_norm() > 0
    assert atom.l2_norm() > 0
    # L2 of the sampled grid approximates the quadrature L2
    fn = at.sample_atom(atom, (512, 512))
    assert fn.l2_norm() == pytest.approx(atom.l2_norm(), rel=1e-3)


def _horner_reference(k, m, x):
    """bspline_derivative before its Horner ran in place: fancy indexing, new arrays."""
    cols = at._cell_polynomials(k, m)
    x = np.asarray(x, dtype=float)
    cell = np.floor(x)
    idx = np.clip(cell, -1, k + 1).astype(np.intp)
    u = x - cell
    acc = cols[-1][idx]
    for col in cols[-2::-1]:
        acc *= u
        acc += col[idx]
    return acc


@pytest.mark.parametrize("k", range(7))
def test_in_place_bspline_derivative_keeps_the_bits(k):
    # cells -1 and k + 1 read the zero entry, both through the wrapped take
    x = np.random.default_rng(k).uniform(-3.0, k + 4.0, (40, 50))
    x[0, :5] = [-1.0, 0.0, k + 1.0, 1e300, -1e300]
    before = x.copy()
    for m in range(k + 1):
        assert np.array_equal(at.bspline_derivative(k, m, x), _horner_reference(k, m, x))
    assert np.array_equal(x, before)  # the caller's points are not written
    assert at.bspline_derivative(k, 0, 0.5) == _horner_reference(k, 0, 0.5)
