"""Command-line interface.

Subcommands: describe, validate, classify, exponents, moments, envelope, atom build,
atom verify, admissibility, cwt, icwt, haar-check, phi-check.

All structured output is JSON tagged with "schema": "orbitlet/1"; bulk numeric data goes
to CSV or the raw binary grid format.  Commands are referentially transparent given
(inputs, seed): no environment variables are consulted, and repeated runs produce
byte-identical JSON.

Each command handler returns its JSON document; main prints it, writes the same JSON to
--out (except where --out names the command's data file) and picks the exit code: 0
success, 2 parse error, 3 unsupported input, 4 numerical non-convergence, which is
exactly when the result reports "converged": false (phi-check also when its two routes
differ by more than the 1 % contract).  Inconclusive statistical verdicts still exit 0
with a verdict field.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys

import numpy as np

# the handlers import atoms, embeddedness and transform, so each command loads only what it runs
from . import algebra as al
from . import groups as gr
from . import orbit as ob
from . import quadrature as quad

SCHEMA = "orbitlet/1"

EXIT_OK, EXIT_PARSE, EXIT_UNSUPPORTED, EXIT_NONCONVERGED = 0, 2, 3, 4


class CliParseError(Exception):
    pass


def _emit(doc: dict, out_path, copy: bool) -> None:
    """Print doc, and when copy is set and out_path given, write it there first."""
    doc = {"schema": SCHEMA, **doc}
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN or infinity in a result
        raise CliParseError(f"result is not JSON: {exc}") from exc
    if copy and out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    sys.stdout.write(text + "\n")


def _keep_heap_mapped() -> None:
    """Serve blocks under 4 MB from the heap and give its top back to the kernel only past
    64 MB: glibc's default thresholds follow the largest block freed, so each 2^17-point
    quadrature slab or atom sample block returned its temporaries, and the next faulted
    the same pages in again.  Set by main alone; a libc without mallopt is left as is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _read_json(path: str, what: str, parse=lambda doc: doc):
    """parse(the JSON in path); a file that cannot be opened, decoded or parsed
    is one `cannot read <what> <path>: ...` error."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CliParseError(f"cannot read {what} {path}: {exc}") from exc


def _load_group(path: str):
    return gr.spec_from_json(_read_json(path, "group spec"))


def _parse_weight(text: str):
    """Format: p,q,s,family  with family 'maxdelta' or 'power:k'."""
    from . import embeddedness as em
    try:
        parts = text.split(",")
        p, q, s = float(parts[0]), float(parts[1]), parts[2]  # float("inf") is math.inf
        family, colon, k = (parts[3] if len(parts) > 3 else em.MAXDELTA).partition(":")
        if colon and family != em.POWER:  # only "power" takes a ":k"
            raise ValueError(f"unknown weight family {parts[3]!r}")
        return em.WeightSpec.make(p=p, q=q, s=s, family=family, power_k=k or 0)
    except (IndexError, ValueError) as exc:  # EmbeddednessError is a ValueError
        raise CliParseError(f"bad weight spec {text!r}: {exc}") from exc


def _parse_grid_ranges(text: str):
    ranges = []
    try:
        for part in text.split(","):
            lo, hi, n = part.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
            if not (math.isfinite(lo) and math.isfinite(hi) and n >= 1):
                raise ValueError(f"{part!r} needs finite bounds and a count >= 1")
            ranges.append((lo, hi, n))
    except ValueError as exc:
        raise CliParseError(f"bad grid ranges {text!r}: {exc}") from exc
    # allocating the grid, untouched, refuses one too large for memory before any axis is built
    np.empty((math.prod(n for *_, n in ranges), len(ranges)))
    return [np.linspace(*r) for r in ranges]


def _parse_dilation_grid(text):
    if text is None:
        return {}
    try:
        r_max, n_r, t_max, n_t = text.split(",")
        return {"r_max": float(r_max), "n_r": int(n_r), "t_max": float(t_max), "n_t": int(n_t)}
    except ValueError as exc:
        raise CliParseError(f"bad dilation grid {text!r}: {exc}") from exc


def _load_signal(path: str, dim: int, rows: bool = False):
    """The finite dim-D grid at path, read whole; with rows, its at.GridFile, of which only
    the header is read (and the payload size checked): synthesize checks rows as it reads."""
    from . import atoms as at
    try:
        signal = (at.GridFile.open(path) if rows else at.sampled_from_csv(path)
                  if path.endswith(".csv") else at.sampled_from_binary(path))
    except (OSError, ValueError) as exc:  # AtomError is a ValueError
        raise CliParseError(f"cannot read signal {path}: {exc}") from exc
    if len(signal.shape if rows else signal.values.shape) != dim or not (
            rows or np.isfinite(signal.values).all()):
        raise CliParseError(f"signal {path} is not a finite {dim}-D grid")
    return signal


def _threads(args) -> int:
    """Worker threads: --threads (default all cores) clamped to the cores;
    quad.parallel_map clamps them again to its blocks."""
    cores = os.cpu_count() or 1
    return min(cores if args.threads is None else args.threads, cores)


def _load_atom(args):
    """The --group spec and the --atom of its dimension."""
    from . import atoms as at
    spec, atom = _load_group(args.group), _read_json(args.atom, "atom", at.Atom.from_json)
    if atom.dim != spec.dim:
        raise CliParseError(f"atom {args.atom} has dim {atom.dim}, the group has dim {spec.dim}")
    return spec, atom


# ---------------------------------------------------------------------------
# command handlers (each returns its JSON document)
# ---------------------------------------------------------------------------

def _modular_strings(spec):
    if isinstance(spec, gr.Shearlet2D):
        return f"|a|^({spec.c}-1)", "|a|^-2"
    if isinstance(spec, (gr.Similitude, gr.Diagonal, gr.AbelianFromAlgebra)):
        return "1", "1/|det h|"
    if isinstance(spec, gr.GeneralizedShearlet):
        return f"exp(r*({float(spec.Y.sum())}-{spec.dim}))", f"exp(-r*{spec.dim})"
    return "product over blocks", "Delta_H/|det h|"  # a direct product


def cmd_describe(args) -> dict:
    from . import atoms as at
    spec = _load_group(args.group)
    orbit = ob.orbit_of(spec)
    delta_h, delta_g = _modular_strings(spec)
    doc = {"family": gr.spec_to_json(spec)["family"], "dim": spec.dim, "orbit_kind": orbit.kind,
           "base_point": orbit.base_point.tolist(), "delta_H": delta_h, "delta_G": delta_g}
    try:
        doc["differential_operator"] = at.orbit_differential_operator(spec).describe()
    except gr.UnsupportedSpecError:
        doc["differential_operator"] = None
    if spec.chart is not None:
        doc["nilpotency_class"] = spec.nilpotency_class
    return doc


def cmd_validate(args) -> dict:
    return gr.validate_spec(_load_group(args.group)).to_json()


def cmd_classify(args) -> dict:
    classes = []
    for spec in gr.enumerate_catalog(args.dim):  # raises UnsupportedSpecError for bad dim
        inv = al.isomorphism_invariants(spec.alg)
        rank, sig = inv.bilinear_rank, inv.bilinear_abs_signature
        form = {} if rank is None else {"bilinear_rank": rank, "bilinear_abs_signature": sig}
        classes.append({"name": spec.name, "nilpotency_class": inv.nilpotency_class,
                        "power_dims": list(inv.power_dims), "Y": spec.Y.tolist(),
                        "shear_basis": [m.tolist() for m in spec.shear_basis], **form})
    return {"dim": args.dim, "count": len(classes), "classes": classes}


def cmd_exponents(args) -> dict:
    from . import embeddedness as em
    spec, weight = _load_group(args.group), _parse_weight(args.weight)
    exponents = em.analytic_exponents(spec, weight)
    doc = {"exponents": exponents.to_json(), "weight": weight.to_json()}
    if args.empirical:
        report = em.empirical_exponent_check(
            spec, exponents, weight, budget=args.budget, stages=args.stages, seed=args.seed,
            threads=_threads(args), r0=2.0, t0=2.0)
        doc["empirical"] = report.to_json()
    return doc


def cmd_moments(args) -> dict:
    from . import embeddedness as em
    spec = _load_group(args.group)
    report = em.embedding_report(spec, _parse_weight(args.weight))
    doc = {**report.to_json(), "mode": args.mode, "order": (
        report.moments_analyzing if args.mode == "analyzing" else report.moments_atom)}
    if args.mode == "atom" and (closed := em.shearlet_atom_order(spec)) is not None:
        doc["atom_order_closed_form"] = closed
    return doc


def cmd_envelope(args) -> dict:
    spec = _load_group(args.group)
    orbit, axes = ob.orbit_of(spec), _parse_grid_ranges(args.grid)
    if len(axes) != spec.dim:
        raise CliParseError(f"grid has {len(axes)} axes, group has dim {spec.dim}")
    pts = quad.tensor_points(axes)
    vals = ob.envelope_values(orbit, pts)
    with open(args.out, "w") as fh:
        fh.write(",".join(f"xi{i + 1}" for i in range(spec.dim)) + ",A\n")
        for row, v in zip(pts, vals):
            fh.write(",".join(repr(float(x)) for x in row) + f",{float(v)!r}\n")
    return {"points": int(len(pts)), "csv": args.out}


def cmd_atom_build(args) -> dict:
    from . import atoms as at
    spec = _load_group(args.group)
    atom = at.make_atom(spec, args.order, at.spline_base([args.spline_degree] * spec.dim))
    doc = atom.to_json()
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"atom": doc, "path": args.out}


def cmd_atom_verify(args) -> dict:
    from . import atoms as at
    spec, atom = _load_atom(args)
    probe = at.verify_vanishing_moments(atom, ob.orbit_of(spec), atom.moment_order)
    adm = at.admissibility_check(spec, atom)
    return {"spectrum_probe": probe.to_json(), "admissibility": adm.to_json()}


def cmd_admissibility(args) -> dict:
    from . import atoms as at
    spec, atom = _load_atom(args)
    return at.admissibility_check(spec, atom).to_json()


def cmd_cwt(args) -> dict:
    from . import transform as tr
    spec, atom = _load_atom(args)
    signal = _load_signal(args.signal, spec.dim)
    grid = tr.make_transform_grid(spec, signal, **_parse_dilation_grid(args.grid))
    weight = _parse_weight(args.weight)
    # rows go to a sibling file as they are computed, which replaces --out once the norm is
    # accepted; a directory that cannot take it is refused here, before any atom is sampled
    with tr.coefficient_file(f"{args.out}.{os.getpid()}.part", grid) as part:
        try:
            coeffs = tr.analyze(signal, atom, grid, out=part, threads=_threads(args))
            norm = tr.coefficient_norm(coeffs, weight)  # refused when not finite
            os.replace(part.path, args.out)
        except BaseException:
            os.unlink(part.path)
            raise
    return {"coefficients": args.out, "dilations": len(grid.dilations),
            "translations": list(grid.counts), "norm": norm}


def cmd_icwt(args) -> dict:
    from . import atoms as at, transform as tr
    spec, atom = _load_atom(args)
    with _load_signal(args.coeffs, spec.dim + 1, rows=True) as coeffs:  # an at.GridFile
        grid_kw = _parse_dilation_grid(args.grid)
        template = at.SampledFunction(origin=coeffs.origin[1:], spacing=coeffs.spacing[1:],
                                      values=np.broadcast_to(0.0, coeffs.shape[1:]))
        grid = tr.make_transform_grid(spec, template, **grid_kw)
        if coeffs.shape[0] != len(grid.dilations):
            raise CliParseError("coefficient file does not match the dilation grid")
        c_psi = args.cpsi if args.cpsi is not None else tr.calderon_constant(
            spec, atom, r_max=grid_kw.get("r_max", 3.0), t_max=grid_kw.get("t_max", 2.0))
        recon = tr.synthesize(tr.CoefficientField(grid=grid, values=coeffs), atom, grid,
                              c_psi, threads=_threads(args))
    at.sampled_to_binary(recon, args.out)
    return {"reconstruction": args.out, "c_psi": c_psi}


def cmd_haar_check(args) -> dict:
    spec = _load_group(args.group)
    sigma = np.float64(args.sigma)  # a huge sigma squares to inf, not OverflowError
    if not (math.isfinite(sigma) and sigma > 0):
        raise CliParseError(f"--sigma must be finite and > 0, got {sigma}")
    gaussian = quad.Product((lambda x: np.exp(-np.pi * x * x / sigma ** 2),) * spec.dim)
    return ob.haar_transfer_check(spec, gaussian).to_json()


def cmd_phi_check(args) -> dict:
    from . import embeddedness as em
    spec, rng = _load_group(args.group), np.random.default_rng(args.seed)
    elements = [gr.element_from_factored(  # each h, refused if it overflows, before any quadrature
        spec, int(rng.choice([-1, 1])), float(rng.uniform(-1.5, 1.5)),
        rng.uniform(-2.0, 2.0, spec.dim - 1)) for _ in range(args.count)]

    def sample(h):  # the samples are independent: one per worker at a time
        eps, r, t = h.factored
        direct = em.phi_ell_direct(spec, h, args.ell)
        conv = em.phi_ell_convolution(spec, h, args.ell)
        rel = abs(direct.value - conv.value) / max(direct.value, 1e-300)
        row = {"eps": eps, "r": r, "t": t.tolist(), "direct": direct.value,
               "convolution": conv.value, "rel_error": rel}
        return row, direct.converged and conv.converged

    rows, converged = zip(*quad.parallel_map(sample, elements, _threads(args)))
    worst = max([0.0] + [row["rel_error"] for row in rows])  # the routes must agree within 1 %
    return {"ell": args.ell, "samples": list(rows), "converged": all(converged) and worst <= 0.01,
            "max_rel_error": worst}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line and exit 2, not a usage block
        raise CliParseError(message)


def build_parser(config=None) -> argparse.ArgumentParser:
    """The CLI parser.  Each key of config (the --config JSON object) sets the
    default of every flag it names, converted as argparse converts the flag's
    command-line text, so an explicit flag still wins and a required flag may
    come from the config; a JSON null leaves the default and the requirement."""
    parser = _Parser(prog="orbitlet", description="Dilation groups, dual-orbit envelopes, "
                     "vanishing-moment orders, and desk-scale wavelet transforms.")
    actions = [parser.add_argument("--config", help="JSON file of flag defaults"),
               parser.add_argument("--threads", type=int, default=None,
                                   help="cap worker parallelism (default: all cores; at least 1); "
                                        "cwt/icwt blocks hold 8 atoms (orbits of +-h, RhR), "
                                        "phi-check runs one sample per worker")]
    common = argparse.ArgumentParser(add_help=False)
    actions.append(common.add_argument("--group", required=True))
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, out=None, subs=sub, parents=(common,), **flag_defs):
        p = subs.add_parser(name, parents=parents)
        for flag, kw in {**flag_defs, "--out": dict(default=out)}.items():
            actions.append(p.add_argument(flag, **kw))
        p.set_defaults(handler=handler, copy_out=out is None)  # else --out is a data file

    weight = dict(default="2,2,0,maxdelta", help="p,q,s,family")
    add("describe", cmd_describe)
    add("validate", cmd_validate)
    add("classify", cmd_classify, parents=(), **{"--dim": dict(type=int, required=True)})
    add("exponents", cmd_exponents,
        **{"--weight": weight, "--empirical": dict(action="store_true"),
           "--budget": dict(type=int, default=100_000, help="at least 10 per stage"),
           "--stages": dict(type=int, default=5, help="at least 3"),
           "--seed": dict(type=int, default=0, help="at least 0")})
    add("moments", cmd_moments, **{"--weight": weight, "--mode": dict(
        choices=["analyzing", "atom"], default="analyzing")})
    add("envelope", cmd_envelope, "envelope.csv",
        **{"--grid": dict(required=True,
                          help="per-axis ranges min:max:count, comma separated")})
    add("admissibility", cmd_admissibility, **{"--atom": dict(required=True)})
    add("cwt", cmd_cwt, "coeffs.bin",
        **{"--atom": dict(required=True), "--signal": dict(required=True),
           "--grid": dict(default=None, help="r_max,n_r,t_max,n_t"), "--weight": weight})
    add("icwt", cmd_icwt, "reconstruction.bin",
        **{"--atom": dict(required=True), "--coeffs": dict(required=True),
           "--grid": dict(default=None, help="r_max,n_r,t_max,n_t"),
           "--cpsi": dict(type=float, default=None,
                          help="finite and > 0 (default: the Calderon constant)")})
    add("haar-check", cmd_haar_check,
        **{"--sigma": dict(type=float, default=1.0, help="finite and > 0")})
    add("phi-check", cmd_phi_check,
        **{"--ell": dict(type=int, default=4),
           "--count": dict(type=int, default=10, help="samples, at least 1"),
           "--seed": dict(type=int, default=0, help="at least 0")})

    atom_sub = sub.add_parser("atom").add_subparsers(dest="atom_command", required=True)
    add("build", cmd_atom_build, "atom.json", atom_sub,
        **{"--order": dict(type=int, required=True),
           "--spline-degree": dict(type=int, default=5, help="at least 0")})
    add("verify", cmd_atom_verify, subs=atom_sub, **{"--atom": dict(required=True)})

    for key, value in (config or {}).items():
        named = [a for a in actions if a.dest == key.replace("-", "_")]
        if not named:
            raise CliParseError(f"--config {key}: no command has this flag")
        if value is None:  # "no value": the flag keeps its default
            continue
        for action in named:
            try:  # store_true flags take JSON booleans, the others their command-line text
                if action.nargs == 0 and not isinstance(value, bool):
                    raise ValueError("expected true or false")
                action.default = value if action.nargs == 0 else (action.type or str)(
                    value if isinstance(value, str) else json.dumps(value))
                action.required = False
                if action.choices and action.default not in action.choices:
                    raise ValueError(f"expected one of {sorted(action.choices)}")
            except ValueError as exc:
                raise CliParseError(f"--config {key}: {exc}") from exc
    return parser


def _load_config(argv) -> dict | None:
    """The --config object of argv (None without one), read ahead of the full
    parse so that its keys can supply required flags."""
    top = _Parser(add_help=False)  # the top-level flags come before the subcommand
    for flag in ("--config", "--threads"):
        top.add_argument(flag)
    top.add_argument("command", nargs=argparse.REMAINDER)
    if (path := top.parse_known_args(argv)[0].config) is None:
        return None
    config = _read_json(path, "config")
    if not isinstance(config, dict):
        raise CliParseError(f"config {path} must hold a JSON object")
    return config


def main(argv=None) -> int:
    _keep_heap_mapped()
    try:
        args = build_parser(_load_config(argv)).parse_args(argv)
        for flag, low in (("threads", 1), ("count", 1), ("spline_degree", 0), ("budget", 1),
                          ("stages", 1), ("seed", 0)):
            if (value := getattr(args, flag, None)) is not None and value < low:
                raise CliParseError(f"--{flag.replace('_', '-')} must be >= {low}, got {value}")
        with np.errstate(all="ignore"):  # a non-finite result is refused, not warned about
            doc = args.handler(args)
        _emit(doc, args.out, args.copy_out)
        return EXIT_NONCONVERGED if doc.get("converged") is False else EXIT_OK
    except SystemExit as exc:  # --help; parse errors raise CliParseError
        return EXIT_PARSE if exc.code else EXIT_OK
    except al.UnsupportedError as exc:
        prefix, code, error = "unsupported", EXIT_UNSUPPORTED, exc
    except (CliParseError, al.OrbitletError, OSError, MemoryError) as exc:
        prefix, code, error = "error", EXIT_PARSE, exc
    # one line per message, even when it embeds a multi-line repr
    sys.stderr.write(f"{prefix}: {' '.join(str(error).split())}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
