"""The three benchmark workloads: seeded inputs, command lists and checks.

Each workload is a function (seed, workdir) -> Plan.  It writes the inputs
into workdir and returns the CLI commands of one pass, in order, each with
the check its output must pass.  The seed changes the inputs (signal
carrier, spline offsets, Gaussian width, Monte Carlo seeds, spot-check
picks) but never the command list or the amount of work.

A check receives the command's parsed JSON output and returns
(observed error, contract tolerance) pairs; it raises CheckFailed when an
exact expectation (verdict, count, shape) does not hold.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from orbitlet import atoms as at
from orbitlet import groups as gr
from orbitlet import transform as tr

# contract tolerances (ROADMAP aim 1 and the acceptance suite)
FFT_VS_DIRECT_ABS = 1e-8
ROUNDTRIP_REL_L2 = 0.05
HAAR_TRANSFER_REL = 1e-3
PHI_ELL_REL = 0.01
MOMENT_MAX_REL = 1e-6
FITTED_ORDER_ABS = 0.1

SPECS = {
    "shearlet-2d": gr.Shearlet2D(0.5),
    "similitude-2d": gr.Similitude(2),
    "diagonal-2d": gr.Diagonal(2),
    "diagonal-3d": gr.Diagonal(3),
    "standard-3d": gr.standard_shearlet_group(3),
    "toeplitz-3": gr.toeplitz_shearlet_group(3),
}


class CheckFailed(ValueError):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    argv: list
    check: Callable[[dict], list]
    metric: str | None = None      # per-command metric the op's time adds to


@dataclass
class Plan:
    ops: list
    setup: Op                      # the command timed for setup_s
    cmd_metrics: tuple             # per-command metrics reported as cmd1_s, cmd2_s
    inputs: dict                   # seeded input description for the report


def describe_op(spec_path: str) -> Op:
    def check(doc):
        expect(doc["dim"] >= 2, "describe: dim")
        return []

    return Op("describe (setup)", ["describe", "--group", spec_path], check)


def _write_spec(workdir: str, name: str) -> str:
    path = f"{name}.json"
    with open(os.path.join(workdir, path), "w") as fh:
        json.dump(gr.spec_to_json(SPECS[name]), fh)
    return path


def read_values(path: str) -> np.ndarray:
    """Memory-map the values of a binary grid file (orbitlet's raw format)."""
    with open(path, "rb") as fh:
        expect(fh.read(8) == b"ORBLETF1", f"{path}: bad magic")
        (dim,) = np.frombuffer(fh.read(4), "<u4")
        header = np.frombuffer(fh.read(24 * int(dim)), dtype=[
            ("origin", "<f8"), ("spacing", "<f8"), ("count", "<u8")])
    return np.memmap(path, dtype="<f8", mode="r", offset=12 + 24 * int(dim),
                     shape=tuple(int(n) for n in header["count"]))


# ---------------------------------------------------------------------------
# desk-cwt
# ---------------------------------------------------------------------------

DESK_CASES = ((64, (2.5, 41, 2.0, 17)), (128, (2.5, 21, 2.0, 9)))
SPOT_CHECKS = 6


def desk_cwt(seed: int, workdir: str) -> Plan:
    rng = np.random.default_rng([seed, 1])
    carrier = (float(rng.uniform(0.9, 1.2)), float(rng.uniform(-0.4, 0.15)))
    spec = SPECS["shearlet-2d"]
    spec_path = _write_spec(workdir, "shearlet-2d")
    psi = at.make_atom(spec, 2, at.spline_base([5, 5]))
    with open(os.path.join(workdir, "atom.json"), "w") as fh:
        json.dump(psi.to_json(), fh)
    ops = []
    inputs = {"carrier": carrier, "atom": "shearlet c=1/2, order 2, quintic",
              "cases": []}
    for n, (r_max, n_r, t_max, n_t) in DESK_CASES:
        signal = tr.modulated_gaussian(extent=8 / 3, n=n, carrier=carrier,
                                       sigma=1.0)
        sig_path, coeff_path, recon_path = f"sig{n}.bin", f"coef{n}.bin", f"rec{n}.bin"
        at.sampled_to_binary(signal, os.path.join(workdir, sig_path))
        grid = tr.make_transform_grid(spec, signal, r_max=r_max, n_r=n_r,
                                      t_max=t_max, n_t=n_t)
        n_dil = len(grid.dilations)
        lattice = grid.lattice_points()
        spots = []
        for _ in range(SPOT_CHECKS):
            i = int(rng.integers(n_dil))
            k = tuple(int(v) for v in rng.integers(0, n, 2))
            x = grid.origin + grid.spacing * np.array(k)
            direct = float(np.sum(signal.values.ravel() * tr.quasi_regular_evaluate(
                x, grid.dilations[i], psi, lattice)) * grid.cell_volume())
            spots.append(((i,) + k, direct))
        grid_arg = f"{r_max},{n_r},{t_max},{n_t}"
        coeff_bytes = 12 + 24 * 3 + 8 * n_dil * n * n
        inputs["cases"].append({"signal": [n, n], "dilations": n_dil,
                                "grid": grid_arg,
                                "coefficient_file_bytes": coeff_bytes})

        def check_cwt(doc, n=n, n_dil=n_dil, spots=spots, coeff_path=coeff_path,
                      coeff_bytes=coeff_bytes):
            expect(doc["dilations"] == n_dil, f"cwt: {doc['dilations']} dilations")
            expect(doc["translations"] == [n, n], "cwt: translation counts")
            expect(math.isfinite(doc["norm"]) and doc["norm"] > 0, "cwt: norm")
            path = os.path.join(workdir, coeff_path)
            expect(os.path.getsize(path) == coeff_bytes, "cwt: coefficient file size")
            values = read_values(path)
            return [(abs(float(values[idx]) - direct), FFT_VS_DIRECT_ABS)
                    for idx, direct in spots]

        def check_icwt(doc, signal=signal, recon_path=recon_path):
            expect(math.isfinite(doc["c_psi"]) and doc["c_psi"] > 0, "icwt: c_psi")
            recon = read_values(os.path.join(workdir, recon_path))
            err = float(np.linalg.norm(recon - signal.values)
                        / np.linalg.norm(signal.values))
            return [(err, ROUNDTRIP_REL_L2)]

        common = ["--group", spec_path, "--atom", "atom.json", "--grid", grid_arg]
        ops.append(Op(f"cwt {n}x{n}/{n_dil}",
                      ["cwt", *common, "--signal", sig_path, "--out", coeff_path],
                      check_cwt, "cwt_s"))
        ops.append(Op(f"icwt {n}x{n}/{n_dil}",
                      ["icwt", *common, "--coeffs", coeff_path, "--out", recon_path],
                      check_icwt, "icwt_s"))
    return Plan(ops, describe_op(spec_path), ("cwt_s", "icwt_s"), inputs)


# ---------------------------------------------------------------------------
# atom-certify
# ---------------------------------------------------------------------------

VERIFY_CASES = (("shearlet-2d", 2), ("similitude-2d", 2), ("diagonal-2d", 2),
                ("standard-3d", 3))
DIVERGENT_CASES = (("diagonal-2d", 0), ("standard-3d", 0))


def atom_certify(seed: int, workdir: str) -> Plan:
    rng = np.random.default_rng([seed, 2])
    ops = []
    inputs = {"spline_degree": 5, "offsets": {}}
    for name, r in VERIFY_CASES + DIVERGENT_CASES:
        spec_path = _write_spec(workdir, name)
        atom_path = f"atom-{name}-r{r}.json"
        offsets = rng.uniform(-0.5, 0.5, SPECS[name].dim)
        inputs["offsets"][atom_path] = offsets.tolist()

        def check_build(doc, r=r, atom_path=atom_path, offsets=offsets):
            expect(doc["atom"]["moment_order"] == r, "atom build: moment order")
            path = os.path.join(workdir, atom_path)
            with open(path) as fh:
                atom = json.load(fh)
            for axis, delta in zip(atom["base"], offsets):
                axis["support"] = [axis["support"][0] + float(delta),
                                   axis["support"][1] + float(delta)]
            with open(path, "w") as fh:
                json.dump(atom, fh)
            return []

        ops.append(Op(f"atom build {name} r={r}",
                      ["atom", "build", "--group", spec_path, "--order", str(r),
                       "--out", atom_path], check_build))
        if r > 0:
            def check_verify(doc, r=r):
                probe, adm = doc["spectrum_probe"], doc["admissibility"]
                expect(probe["verdict"] == "verified", f"verify: {probe['verdict']}")
                expect(adm["verdict"] == "finite", f"verify: {adm['verdict']}")
                return [(probe["moment_max_rel"], MOMENT_MAX_REL),
                        (abs(probe["fitted_order"] - r), FITTED_ORDER_ABS)]

            ops.append(Op(f"atom verify {name} r={r}",
                          ["atom", "verify", "--group", spec_path, "--atom", atom_path],
                          check_verify, "atom_verify_s"))
        else:
            def check_divergent(doc):
                expect(doc["verdict"] == "divergent", f"admissibility: {doc['verdict']}")
                return []

            ops.append(Op(f"admissibility {name} r=0",
                          ["admissibility", "--group", spec_path, "--atom", atom_path],
                          check_divergent, "admissibility_s"))
    return Plan(ops, describe_op("standard-3d.json"),
                ("atom_verify_s", "admissibility_s"), inputs)


# ---------------------------------------------------------------------------
# orbit-checks
# ---------------------------------------------------------------------------

HAAR_GROUPS = ("shearlet-2d", "similitude-2d", "standard-3d")
# (group, all verdicts must be "bounded").  On diagonal-3d about one Monte
# Carlo seed in eight leaves the control-weight and determinant verdicts
# "inconclusive", a documented outcome of the statistical check; there only
# an "unbounded" verdict fails.
EXPONENT_GROUPS = (("shearlet-2d", True), ("toeplitz-3", True),
                   ("diagonal-3d", False))
# Above about sigma = 1.0 the 3-D group-side integral needs a fifth stage,
# which would let the seed change the amount of work.
SIGMA_RANGE = (0.8, 1.0)
# One phi-check of ten samples takes about 4 s, too short to time steadily
# and with a work amount that depends on its samples; three of them, on
# consecutive Monte Carlo seeds and spread over the pass, give phi_check_s
# about 15 s of work sampled at three moments.
PHI_RUNS = 3


def orbit_checks(seed: int, workdir: str) -> Plan:
    rng = np.random.default_rng([seed, 3])
    sigma = float(rng.uniform(*SIGMA_RANGE))
    mc_seed = int(rng.integers(1, 2 ** 31 - PHI_RUNS))
    for name in sorted({*HAAR_GROUPS, *(g for g, _ in EXPONENT_GROUPS)}):
        _write_spec(workdir, name)
    haar_ops, phi_ops, other_ops = [], [], []

    def check_haar(doc):
        expect(doc["converged"] is True, "haar-check: not converged")
        return [(doc["rel_error"], HAAR_TRANSFER_REL)]

    for name in HAAR_GROUPS:
        haar_ops.append(Op(f"haar-check {name}",
                           ["haar-check", "--group", f"{name}.json",
                            "--sigma", repr(sigma)], check_haar, "haar_check_s"))

    def check_phi(doc):
        expect(doc["converged"] is True, "phi-check: not converged")
        expect(len(doc["samples"]) == 10, "phi-check: sample count")
        return [(doc["max_rel_error"], PHI_ELL_REL)]

    for k in range(PHI_RUNS):
        phi_ops.append(Op(f"phi-check shearlet-2d #{k + 1}",
                          ["phi-check", "--group", "shearlet-2d.json", "--ell", "4",
                           "--count", "10", "--seed", str(mc_seed + k)],
                          check_phi, "phi_check_s"))

    def check_exponents(doc, strict):
        verdicts = doc["empirical"]["verdicts"].values()
        expect("unbounded" not in verdicts, "exponents: analytic exponent refuted")
        expect(doc["empirical"]["all_bounded"] is True or not strict,
               "exponents: not all bounded")
        return []

    for name, strict in EXPONENT_GROUPS:
        other_ops.append(Op(f"exponents {name}",
                            ["exponents", "--empirical", "--seed", str(mc_seed),
                             "--group", f"{name}.json"],
                            lambda doc, strict=strict: check_exponents(doc, strict)))

    def check_classify(doc):
        expect(doc["count"] == 5, f"classify: count {doc['count']}")
        h_a = [c for c in doc["classes"] if c["nilpotency_class"] == 3]
        tags = {(c["bilinear_rank"], c["bilinear_abs_signature"]) for c in h_a}
        expect(len(h_a) == 3 and len(tags) == 3, "classify: H_a tags not distinct")
        return []

    other_ops.append(Op("classify dim 4", ["classify", "--dim", "4"],
                        check_classify))

    def check_moments(doc):
        expect(doc["moments_analyzing"] == 15 and doc["moments_atom"] == 19,
               "moments: expected 15/19")
        return []

    other_ops.append(Op("moments atom shearlet-2d",
                        ["moments", "--mode", "atom", "--group", "shearlet-2d.json"],
                        check_moments))
    ops = [phi_ops[0], *haar_ops, phi_ops[1], *other_ops[:3], phi_ops[2],
           *other_ops[3:]]
    inputs = {"sigma": sigma, "monte_carlo_seed": mc_seed,
              "phi_check_seeds": [mc_seed + k for k in range(PHI_RUNS)],
              "haar_groups": list(HAAR_GROUPS),
              "exponent_groups": [g for g, _ in EXPONENT_GROUPS]}
    return Plan(ops, describe_op("standard-3d.json"),
                ("haar_check_s", "phi_check_s"), inputs)


WORKLOADS = {"desk-cwt": desk_cwt, "atom-certify": atom_certify,
             "orbit-checks": orbit_checks}
