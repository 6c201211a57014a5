"""Command-line interface.

Subcommands: describe, validate, classify, exponents, moments, envelope,
atom build, atom verify, admissibility, cwt, icwt, haar-check, phi-check.

All structured output is JSON tagged with "schema": "orbitlet/1"; bulk
numeric data goes to CSV or the raw binary grid format.  Commands are
referentially transparent given (inputs, seed): no environment variables are
consulted, and repeated runs produce byte-identical JSON.

Exit codes: 0 success, 2 parse error, 3 unsupported input, 4 numerical
non-convergence.  Inconclusive statistical verdicts still exit 0 with a
verdict field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import algebra as al
from . import atoms as at
from . import embeddedness as em
from . import groups as gr
from . import orbit as ob
from . import quadrature as quad
from . import transform as tr

SCHEMA = "orbitlet/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_NONCONVERGED = 4


class CliParseError(Exception):
    pass


def _emit(doc: dict, out_path=None) -> None:
    doc = {"schema": SCHEMA, **doc}
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    sys.stdout.write(text + "\n")


def _load_group(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliParseError(f"cannot read group spec {path}: {exc}") from exc
    return gr.spec_from_json(doc)


def _parse_weight(text: str) -> em.WeightSpec:
    """Format: p,q,s,family  with family 'maxdelta' or 'power:k'."""
    try:
        parts = text.split(",")
        p = math.inf if parts[0] in ("inf", "Inf") else float(parts[0])
        q = math.inf if parts[1] in ("inf", "Inf") else float(parts[1])
        s = parts[2]
        family = parts[3] if len(parts) > 3 else em.MAXDELTA
        power_k = 0
        if family.startswith("power"):
            family, _, k = family.partition(":")
            family = em.POWER
            power_k = k or 0
        return em.WeightSpec.make(p=p, q=q, s=s, family=family, power_k=power_k)
    except (IndexError, ValueError, em.EmbeddednessError) as exc:
        raise CliParseError(f"bad weight spec {text!r}: {exc}") from exc


def _parse_grid_ranges(text: str):
    axes = []
    try:
        for part in text.split(","):
            lo, hi, n = part.split(":")
            axes.append(np.linspace(float(lo), float(hi), int(n)))
    except ValueError as exc:
        raise CliParseError(f"bad grid ranges {text!r}: {exc}") from exc
    return axes


def _parse_dilation_grid(text):
    if text is None:
        return {}
    try:
        r_max, n_r, t_max, n_t = text.split(",")
        return {"r_max": float(r_max), "n_r": int(n_r),
                "t_max": float(t_max), "n_t": int(n_t)}
    except ValueError as exc:
        raise CliParseError(f"bad dilation grid {text!r}: {exc}") from exc


def _load_signal(path: str) -> at.SampledFunction:
    try:
        if path.endswith(".csv"):
            return at.sampled_from_csv(path)
        return at.sampled_from_binary(path)
    except (OSError, ValueError, at.AtomError) as exc:
        raise CliParseError(f"cannot read signal {path}: {exc}") from exc


def _load_atom(path: str) -> at.Atom:
    try:
        with open(path) as fh:
            return at.Atom.from_json(json.load(fh))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CliParseError(f"cannot read atom {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# command handlers (each returns an exit code)
# ---------------------------------------------------------------------------

def _modular_strings(spec):
    if isinstance(spec, gr.Shearlet2D):
        return f"|a|^({spec.c}-1)", "|a|^-2"
    if isinstance(spec, gr.GeneralizedShearlet):
        tr_y = float(spec.Y.sum())
        return (f"exp(r*({tr_y}-{spec.dim}))", f"exp(-r*{spec.dim})")
    if isinstance(spec, (gr.Similitude, gr.Diagonal, gr.AbelianFromAlgebra)):
        return "1", "1/|det h|"
    if isinstance(spec, gr.DirectProduct):
        return "product over blocks", "Delta_H/|det h|"
    return "?", "?"


def cmd_describe(args) -> int:
    spec = _load_group(args.group)
    orbit = ob.orbit_of(spec)
    delta_h, delta_g = _modular_strings(spec)
    doc = {"family": gr.spec_to_json(spec)["family"], "dim": spec.dim,
           "orbit_kind": orbit.kind,
           "base_point": orbit.base_point.tolist(),
           "delta_H": delta_h, "delta_G": delta_g}
    try:
        plan = at.orbit_differential_operator(spec)
        doc["differential_operator"] = plan.describe()
    except gr.UnsupportedSpecError:
        doc["differential_operator"] = None
    if isinstance(spec, (gr.GeneralizedShearlet, gr.AbelianFromAlgebra)):
        doc["nilpotency_class"] = spec.nilpotency_class
    _emit(doc, args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    spec = _load_group(args.group)
    report = gr.validate_spec(spec)
    _emit(report.to_json(), args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    d = args.dim
    specs = gr.enumerate_catalog(d)  # raises UnsupportedSpecError for bad dim
    classes = []
    algebras = {2: [al.trivial_product_algebra(2)],
                3: [al.trivial_product_algebra(3), al.polynomial_quotient_algebra(3)],
                4: [al.trivial_product_algebra(4), al.polynomial_quotient_algebra(4),
                    al.h_a_algebra(-1), al.h_a_algebra(0), al.h_a_algebra(1)]}[d]
    for spec, alg in zip(specs, algebras):
        inv = al.isomorphism_invariants(alg)
        entry = {"name": spec.name,
                 "nilpotency_class": inv.nilpotency_class,
                 "power_dims": list(inv.power_dims),
                 "shear_basis": [m.tolist() for m in spec.shear_basis],
                 "Y": spec.Y.tolist()}
        if inv.bilinear_rank is not None:
            entry["bilinear_rank"] = inv.bilinear_rank
            entry["bilinear_abs_signature"] = inv.bilinear_abs_signature
        classes.append(entry)
    _emit({"dim": d, "count": len(classes), "classes": classes}, args.out)
    return EXIT_OK


def cmd_exponents(args) -> int:
    spec = _load_group(args.group)
    weight = _parse_weight(args.weight or "2,2,0,maxdelta")
    exponents = em.analytic_exponents(spec, weight)
    doc = {"exponents": exponents.to_json(), "weight": weight.to_json()}
    if args.empirical:
        report = em.empirical_exponent_check(
            spec, exponents, weight, budget=args.budget or 100_000,
            stages=args.stages or 5, seed=args.seed or 0,
            threads=args.threads or os.cpu_count() or 1, r0=2.0, t0=2.0)
        doc["empirical"] = report.to_json()
    _emit(doc, args.out)
    return EXIT_OK


def cmd_moments(args) -> int:
    spec = _load_group(args.group)
    weight = _parse_weight(args.weight or "2,2,0,maxdelta")
    report = em.embedding_report(spec, weight)
    mode = args.mode or "analyzing"
    doc = report.to_json()
    doc["mode"] = mode
    doc["order"] = (report.moments_analyzing if mode == "analyzing"
                    else report.moments_atom)
    if mode == "atom" and isinstance(spec, gr.GeneralizedShearlet):
        doc["atom_order_closed_form"] = em.shearlet_atom_order(spec)
    _emit(doc, args.out)
    return EXIT_OK


def cmd_envelope(args) -> int:
    spec = _load_group(args.group)
    orbit = ob.orbit_of(spec)
    axes = _parse_grid_ranges(args.grid)
    if len(axes) != spec.dim:
        raise CliParseError(f"grid has {len(axes)} axes, group has dim {spec.dim}")
    pts = quad.tensor_points(axes)
    vals = ob.envelope_values(orbit, pts)
    out = args.out or "envelope.csv"
    with open(out, "w") as fh:
        fh.write(",".join(f"xi{i + 1}" for i in range(spec.dim)) + ",A\n")
        for row, v in zip(pts, vals):
            fh.write(",".join(repr(float(x)) for x in row)
                     + f",{float(v)!r}\n")
    _emit({"points": int(len(pts)), "csv": out})
    return EXIT_OK


def cmd_atom_build(args) -> int:
    spec = _load_group(args.group)
    degrees = [args.spline_degree or 5] * spec.dim
    atom = at.make_atom(spec, args.order, at.spline_base(degrees))
    doc = atom.to_json()
    out = args.out or "atom.json"
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _emit({"atom": doc, "path": out})
    return EXIT_OK


def cmd_atom_verify(args) -> int:
    spec = _load_group(args.group)
    atom = _load_atom(args.atom)
    orbit = ob.orbit_of(spec)
    probe = at.verify_vanishing_moments(atom, orbit, atom.moment_order)
    adm = at.admissibility_check(spec, atom)
    _emit({"spectrum_probe": probe.to_json(),
           "admissibility": adm.to_json()}, args.out)
    return EXIT_OK


def cmd_admissibility(args) -> int:
    spec = _load_group(args.group)
    atom = _load_atom(args.atom)
    report = at.admissibility_check(spec, atom)
    _emit(report.to_json(), args.out)
    return EXIT_OK


def cmd_cwt(args) -> int:
    spec = _load_group(args.group)
    atom = _load_atom(args.atom)
    signal = _load_signal(args.signal)
    grid_kw = _parse_dilation_grid(args.grid)
    grid = tr.make_transform_grid(spec, signal, **grid_kw)
    coeffs = tr.analyze(signal, atom, grid)
    out = args.out or "coeffs.bin"
    coeffs.to_binary(out)
    weight = _parse_weight(args.weight) if args.weight else em.WeightSpec.make()
    doc = {"coefficients": out,
           "dilations": len(grid.dilations),
           "translations": list(grid.counts),
           "norm": tr.coefficient_norm(coeffs, weight)}
    _emit(doc)
    return EXIT_OK


def cmd_icwt(args) -> int:
    spec = _load_group(args.group)
    atom = _load_atom(args.atom)
    raw = _load_signal(args.coeffs)
    grid_kw = _parse_dilation_grid(args.grid)
    template = at.SampledFunction(origin=raw.origin[1:], spacing=raw.spacing[1:],
                                  values=np.zeros(raw.values.shape[1:]))
    grid = tr.make_transform_grid(spec, template, **grid_kw)
    if raw.values.shape[0] != len(grid.dilations):
        raise CliParseError("coefficient file does not match the dilation grid")
    coeffs = tr.CoefficientField(grid=grid, values=raw.values)
    c_psi = args.cpsi if args.cpsi else tr.calderon_constant(
        spec, atom, r_max=grid_kw.get("r_max", 3.0),
        t_max=grid_kw.get("t_max", 2.0))
    recon = tr.synthesize(coeffs, atom, grid, c_psi)
    out = args.out or "reconstruction.bin"
    at.sampled_to_binary(recon, out)
    _emit({"reconstruction": out, "c_psi": c_psi})
    return EXIT_OK


def cmd_haar_check(args) -> int:
    spec = _load_group(args.group)
    sigma = args.sigma or 1.0

    def gaussian(pts):
        return np.exp(-np.pi * np.einsum("ni,ni->n", pts, pts) / sigma ** 2)

    report = ob.haar_transfer_check(spec, gaussian)
    _emit(report.to_json(), args.out)
    if not (report.lhs_converged and report.rhs_converged):
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_phi_check(args) -> int:
    spec = _load_group(args.group)
    ell = args.ell or 4
    rng = np.random.default_rng(args.seed or 0)
    rows = []
    worst = 0.0
    converged = True
    for _ in range(args.count or 10):
        eps = int(rng.choice([-1, 1]))
        r = float(rng.uniform(-1.5, 1.5))
        t = rng.uniform(-2.0, 2.0, spec.dim - 1)
        h = gr.element_from_factored(spec, eps, r, t)
        direct = em.phi_ell_direct(spec, h, ell)
        conv = em.phi_ell_convolution(spec, h, ell)
        rel = abs(direct.value - conv.value) / max(direct.value, 1e-300)
        worst = max(worst, rel)
        converged = converged and direct.converged and conv.converged
        rows.append({"eps": eps, "r": r, "t": t.tolist(),
                     "direct": direct.value, "convolution": conv.value,
                     "rel_error": rel})
    _emit({"ell": ell, "samples": rows, "max_rel_error": worst,
           "converged": converged}, args.out)
    return EXIT_OK if converged else EXIT_NONCONVERGED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitlet",
        description="Dilation groups, dual-orbit envelopes, vanishing-moment "
                    "orders, and desk-scale wavelet transforms.")
    parser.add_argument("--config", help="JSON file mirroring the flags")
    parser.add_argument("--threads", type=int, default=None,
                        help="cap worker parallelism (default: all cores)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **flag_defs):
        p = sub.add_parser(name)
        for flag, kw in flag_defs.items():
            p.add_argument(flag, **kw)
        p.set_defaults(handler=handler)
        return p

    add("describe", cmd_describe,
        **{"--group": dict(required=True), "--out": dict(default=None)})
    add("validate", cmd_validate,
        **{"--group": dict(required=True), "--out": dict(default=None)})
    add("classify", cmd_classify,
        **{"--dim": dict(type=int, required=True), "--out": dict(default=None)})
    add("exponents", cmd_exponents,
        **{"--group": dict(required=True),
           "--weight": dict(default=None),
           "--empirical": dict(action="store_true"),
           "--budget": dict(type=int, default=None),
           "--stages": dict(type=int, default=None),
           "--seed": dict(type=int, default=None),
           "--out": dict(default=None)})
    add("moments", cmd_moments,
        **{"--group": dict(required=True),
           "--weight": dict(default=None),
           "--mode": dict(choices=["analyzing", "atom"], default=None),
           "--out": dict(default=None)})
    add("envelope", cmd_envelope,
        **{"--group": dict(required=True),
           "--grid": dict(required=True,
                          help="per-axis ranges min:max:count, comma separated"),
           "--out": dict(default=None)})
    add("admissibility", cmd_admissibility,
        **{"--group": dict(required=True), "--atom": dict(required=True),
           "--out": dict(default=None)})
    add("cwt", cmd_cwt,
        **{"--group": dict(required=True), "--atom": dict(required=True),
           "--signal": dict(required=True),
           "--grid": dict(default=None, help="r_max,n_r,t_max,n_t"),
           "--weight": dict(default=None),
           "--out": dict(default=None)})
    add("icwt", cmd_icwt,
        **{"--group": dict(required=True), "--atom": dict(required=True),
           "--coeffs": dict(required=True),
           "--grid": dict(default=None, help="r_max,n_r,t_max,n_t"),
           "--cpsi": dict(type=float, default=None),
           "--out": dict(default=None)})
    add("haar-check", cmd_haar_check,
        **{"--group": dict(required=True),
           "--sigma": dict(type=float, default=None),
           "--out": dict(default=None)})
    add("phi-check", cmd_phi_check,
        **{"--group": dict(required=True),
           "--ell": dict(type=int, default=None),
           "--count": dict(type=int, default=None),
           "--seed": dict(type=int, default=None),
           "--out": dict(default=None)})

    atom_parser = sub.add_parser("atom")
    atom_sub = atom_parser.add_subparsers(dest="atom_command", required=True)
    pb = atom_sub.add_parser("build")
    pb.add_argument("--group", required=True)
    pb.add_argument("--order", type=int, required=True)
    pb.add_argument("--spline-degree", type=int, default=None)
    pb.add_argument("--out", default=None)
    pb.set_defaults(handler=cmd_atom_build)
    pv = atom_sub.add_parser("verify")
    pv.add_argument("--group", required=True)
    pv.add_argument("--atom", required=True)
    pv.add_argument("--out", default=None)
    pv.set_defaults(handler=cmd_atom_verify)
    return parser


def _apply_config(args: argparse.Namespace, path: str) -> None:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliParseError(f"cannot read config {path}: {exc}") from exc
    for key, value in config.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) in (None, False):
            setattr(args, attr, value)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        if args.config:
            _apply_config(args, args.config)
        return args.handler(args)
    except CliParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (gr.UnsupportedSpecError, al.UnsupportedAlgebraError,
            at.InsufficientSmoothnessError) as exc:
        sys.stderr.write(f"unsupported: {exc}\n")
        return EXIT_UNSUPPORTED
    except (al.AlgebraError, gr.GroupError, ob.OrbitError, at.AtomError,
            em.EmbeddednessError, tr.TransformError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
