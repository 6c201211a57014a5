"""Byte-for-byte CLI output on every family, a 1- and 2-factor product and a
nested product, and of the atom pipeline on one group of each leaf family,
on diagonal-3d and on both products of one-axis blocks.

tests/golden_cli.json holds the group documents, the commands and the stdout
each command printed; under "atoms", per group and order, the atom file that
`atom build` wrote and the stdout of admissibility and atom verify on it.
The same seed must print the same bytes, so any change here is a change of
results.  Regenerate the fixture only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from orbitlet import cli

FIXTURE = pathlib.Path(__file__).with_name("golden_cli.json")
COMMANDS = ["describe", "validate", "exponents", "exponents --weight 2,3,1,power:1",
            "moments --mode analyzing", "moments --mode atom",
            "exponents --empirical --budget 3000 --stages 3 --seed 7"]
# the orbit density consumers: admissibility shells and the spectrum probe
ATOM_GROUPS = ("similitude-2d", "diagonal-2d", "shearlet2d", "standard-3d", "abelian-3",
               "diagonal-3d", "product-1", "product-2")
ATOM_ORDERS = (0, 1, 2)
ATOM_COMMANDS = ("admissibility", "atom verify")


def run(group_path, command: str) -> str:
    """stdout of one in-process CLI command on the group file; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*command.split(), "--group", str(group_path)])
    assert code == 0, command
    return out.getvalue()


def run_atom(group_path, order: int) -> dict:
    """The file `atom build --order order --spline-degree 5` writes next to the
    group file, and the stdout of each ATOM_COMMANDS on that atom."""
    atom = group_path.with_name(f"{group_path.stem}-atom{order}.json")
    run(group_path, f"atom build --order {order} --spline-degree 5 --out {atom}")
    return {"atom build": atom.read_text(),
            **{c: run(group_path, f"{c} --atom {atom}") for c in ATOM_COMMANDS}}


GOLDEN = json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN["groups"]))
def test_cli_output_is_byte_identical(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(GOLDEN["groups"][name]))
    assert {c: run(path, c) for c in COMMANDS} == GOLDEN["stdout"][name]


@pytest.mark.parametrize("order", ATOM_ORDERS)
@pytest.mark.parametrize("name", ATOM_GROUPS)
def test_atom_pipeline_is_byte_identical(name, order, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(GOLDEN["groups"][name]))
    assert run_atom(path, order) == GOLDEN["atoms"][name][str(order)]


def regenerate() -> None:
    import tempfile

    from orbitlet import algebra as al
    from orbitlet import groups as gr

    groups = {
        "similitude-2d": gr.Similitude(2),
        "diagonal-2d": gr.Diagonal(2),
        "diagonal-3d": gr.Diagonal(3),
        "shearlet2d": gr.Shearlet2D(0.5),
        "standard-3d": gr.standard_shearlet_group(3),
        "toeplitz-3": gr.toeplitz_shearlet_group(3),
        "abelian-3": gr.AbelianFromAlgebra(al.polynomial_quotient_algebra(3)),
        "product-1": gr.DirectProduct((gr.toeplitz_shearlet_group(3),)),
        "product-2": gr.DirectProduct((gr.Diagonal(1), gr.Shearlet2D(0.5))),
        "nested": gr.DirectProduct((gr.Similitude(2), gr.DirectProduct(
            (gr.Diagonal(1), gr.AbelianFromAlgebra(al.trivial_product_algebra(2)))))),
    }
    docs = {name: gr.spec_to_json(spec) for name, spec in groups.items()}
    with tempfile.TemporaryDirectory() as tmp:
        stdout = {}
        for name, doc in docs.items():
            path = pathlib.Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            stdout[name] = {c: run(path, c) for c in COMMANDS}
        atoms = {name: {str(order): run_atom(pathlib.Path(tmp) / f"{name}.json", order)
                        for order in ATOM_ORDERS} for name in ATOM_GROUPS}
    FIXTURE.write_text(json.dumps({"groups": docs, "stdout": stdout, "atoms": atoms},
                                  indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
