"""Byte-for-byte CLI output on every family, a 1- and 2-factor product and a
nested product.

tests/golden_cli.json holds the group documents, the commands and the stdout
each command printed.  The same seed must print the same bytes, so any change
here is a change of results.  Regenerate the fixture only for an intended
change of output:

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


def run(group_path, command: str) -> str:
    """stdout of one in-process CLI command on the group file; it must exit 0."""
    name, *flags = command.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([name, "--group", str(group_path), *flags])
    assert code == 0, command
    return out.getvalue()


GOLDEN = json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN["groups"]))
def test_cli_output_is_byte_identical(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(GOLDEN["groups"][name]))
    assert {c: run(path, c) for c in COMMANDS} == GOLDEN["stdout"][name]


def regenerate() -> None:
    import tempfile

    from orbitlet import algebra as al
    from orbitlet import groups as gr

    groups = {
        "similitude-2d": gr.Similitude(2),
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
    FIXTURE.write_text(json.dumps({"groups": docs, "stdout": stdout}, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
