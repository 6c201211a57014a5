"""Source hygiene checks that need no linter."""

import ast
import pathlib
import typing

import pytest

import orbitlet
from orbitlet import groups as gr
from orbitlet import orbit as ob

SOURCES = sorted(pathlib.Path(orbitlet.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):   # names exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def definitions(tree: ast.Module) -> list[str]:
    """Top-level functions and classes with their methods, dunders excepted."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_definition_is_referenced():
    root = pathlib.Path(__file__).resolve().parent.parent
    referenced = set()
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in (root / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    unreferenced = [f"{path.name}: {name}" for path in SOURCES
                    for name in definitions(ast.parse(path.read_text()))
                    if name not in referenced]
    assert unreferenced == []


def flag_fallbacks(tree: ast.Module) -> list[int]:
    """Lines that read a flag as `args.x or ...` or `... if args.x else ...`: an
    explicit 0 or empty value falls through to the fallback.  Flag defaults
    belong in the parser."""
    def is_flag(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args")
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)
                and is_flag(node.values[0]))
            or (isinstance(node, ast.IfExp) and is_flag(node.test))]


def test_cli_reads_no_flag_through_a_fallback():
    cli = pathlib.Path(orbitlet.__file__).parent / "cli.py"
    assert flag_fallbacks(ast.parse(cli.read_text())) == []


def calls(node: ast.AST, name: str) -> bool:
    """Whether node calls name, as a bare name or as an attribute (quad.name)."""
    return any(isinstance(n, ast.Call)
               and getattr(n.func, "id", getattr(n.func, "attr", None)) == name
               for n in ast.walk(node))


def returns_exit_code(fn: ast.FunctionDef) -> bool:
    return any(isinstance(m, ast.Name) and m.id.startswith("EXIT_")
               for n in ast.walk(fn) if isinstance(n, ast.Return) and n.value
               for m in ast.walk(n.value))


def protocol_breaches(tree: ast.Module) -> list[str]:
    """Top-level functions other than main that call _emit, and cmd_* handlers
    that return an EXIT_* constant: a handler returns its JSON document, and
    main alone prints it, copies it to --out and picks the exit code."""
    functions = [f for f in tree.body if isinstance(f, ast.FunctionDef)]
    return ([f"{f.name} calls _emit" for f in functions
             if f.name != "main" and calls(f, "_emit")]
            + [f"{f.name} returns an exit code" for f in functions
               if f.name.startswith("cmd_") and returns_exit_code(f)])


def test_only_main_emits_and_picks_the_exit_code():
    tree = ast.parse((pathlib.Path(orbitlet.__file__).parent / "cli.py").read_text())
    assert protocol_breaches(tree) == []
    assert calls(next(f for f in tree.body if getattr(f, "name", None) == "main"), "_emit")


def fft_calls(tree: ast.Module) -> list[tuple[int, bool]]:
    """(line, shape passed as the second positional argument) for every
    np.fft.rfftn / irfftn call: the benchmark's trace launcher reads the FFT shape
    of each call as args[1]."""
    return [(node.lineno, len(node.args) >= 2 and not any(k.arg == "s" for k in node.keywords))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("rfftn", "irfftn")]


def test_fft_shapes_are_positional():
    calls = [(path.name, line, ok) for path in SOURCES
             for line, ok in fft_calls(ast.parse(path.read_text()))]
    assert calls, "no rfftn/irfftn call found"
    assert [(name, line) for name, line, ok in calls if not ok] == []
    assert fft_calls(ast.parse("np.fft.rfftn(a, s=shape, axes=axes)")) == [(1, False)]


def untraced_ffts(tree: ast.Module) -> list[str]:
    """Every use of np.fft other than a call of rfftn / irfftn with the shape as a
    positional argument: the trace launcher wraps only those two and counts each
    call's points from args[1], so any other FFT would run unseen."""
    traced = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute) and node.func.attr in ("rfftn", "irfftn")
              and len(node.args) >= 2}
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("np.fft", "numpy.fft")
            and id(node) not in traced]


def test_transform_runs_only_traced_ffts():
    transform = pathlib.Path(orbitlet.__file__).parent / "transform.py"
    tree = ast.parse(transform.read_text())
    assert untraced_ffts(tree) == []
    assert len(fft_calls(tree)) >= 4  # analyze and synthesize, forward and inverse
    for bad in ("np.fft.rfft(a, n)", "np.fft.rfftn(a)", "f = np.fft.irfftn",
                "np.fft.fftn(a, shape, axes=axes)", "numpy.fft.irfft2(a, shape)"):
        assert len(untraced_ffts(ast.parse(bad))) == 1, bad
    assert untraced_ffts(ast.parse("np.fft.irfftn(g * f, shape, axes=axes)[window]")) == []


def test_orbit_owns_the_staged_integrators():
    """Every staged integral runs in orbit.py (orbit_integral and
    group_side_integral), so a change to the stage rule or the chart axes edits
    one module."""
    names = ("staged_refinement", "chart_stage_axes")
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    found = {(module, name) for module, tree in trees.items() for name in names
             if calls(tree, name)}
    assert found == {("orbit.py", name) for name in names}


def family_names() -> set[str]:
    """The group spec classes (the members of gr.GroupSpec and their subclasses)
    and the LeafSpec and GroupSpec unions."""
    roots = typing.get_args(gr.GroupSpec)
    return {name for name, obj in vars(gr).items()
            if (isinstance(obj, type) and issubclass(obj, roots))
            or obj is gr.LeafSpec or obj is gr.GroupSpec}


def family_branches(tree: ast.Module, families: set[str]) -> set[str]:
    """Top-level functions that call isinstance against a family, by bare name
    (Diagonal), as an attribute (gr.Diagonal) or inside a tuple of classes."""
    def names(node):
        if isinstance(node, ast.Tuple):
            return {n for e in node.elts for n in names(e)}
        return {getattr(node, "id", getattr(node, "attr", None))}

    return {f.name for f in tree.body if isinstance(f, ast.FunctionDef)
            for n in ast.walk(f) if isinstance(n, ast.Call)
            and getattr(n.func, "id", None) == "isinstance" and len(n.args) == 2
            and names(n.args[1]) & families}


# The functions that may tell families apart.  Every other consumer folds over
# gr.leaves or the blocks of ob.orbit_of, and asks each leaf spec (sample,
# sample_small, section, delta_h, chart) or the orbit descriptor (kind, blocks, powers).
FAMILY_BRANCHES_ALLOWED = {
    "leaves", "validate_spec", "spec_to_json",                 # groups.py
    "orbit_of"}                                                # orbit.py


def test_only_the_allowed_functions_branch_on_a_family():
    families = family_names()
    assert {"Similitude", "Diagonal", "GeneralizedShearlet", "Shearlet2D",
            "AbelianFromAlgebra", "DirectProduct", "LeafSpec"} <= families
    found = {(path.name, name) for path in SOURCES
             for name in family_branches(ast.parse(path.read_text()), families)}
    assert {name for _, name in found} == FAMILY_BRANCHES_ALLOWED, sorted(found)
    probe = ast.parse("def f(s):\n    return isinstance(s, (int, gr.Diagonal))\n"
                      "def g(s):\n    return isinstance(s, dict)\n")
    assert family_branches(probe, families) == {"f"}


def orbit_kinds_named(tree: ast.Module) -> set[str]:
    """The orbit kind constants of orbit.py (its upper-case string names) that tree
    reads as an attribute (ob.CROSS), or whose string it spells out."""
    kinds = {name: value for name, value in vars(ob).items()
             if name.isupper() and isinstance(value, str)}
    return ({n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr in kinds}
            | {name for n in ast.walk(tree) if isinstance(n, ast.Constant)
               for name, value in kinds.items() if n.value == value})


def test_atoms_follow_the_blocks_not_the_orbit_kind():
    """The derivative plan, the complement probes and the admissibility shells follow
    the orbit's blocks; only the punctured space, one block over every axis, is a kind."""
    atoms = pathlib.Path(orbitlet.__file__).parent / "atoms.py"
    assert orbit_kinds_named(ast.parse(atoms.read_text())) == {"PUNCTURED"}
    probe = ast.parse("k in (ob.FIRST_COORD, 'coordinate_cross', ob.PUNCTURED)")
    assert orbit_kinds_named(probe) == {"FIRST_COORD", "CROSS", "PUNCTURED"}


# The size rule: the source may not grow past the line count or the AST node
# count (every node ast.walk visits) it has reached.  Never raise a limit; lower
# it whenever a change shrinks the source.
SOURCE_LINE_LIMIT = 3684
SOURCE_NODE_LIMIT = 31453


def test_source_does_not_grow():
    lines = sum(len(path.read_text().splitlines()) for path in SOURCES)
    assert lines <= SOURCE_LINE_LIMIT, f"{lines} source lines, limit {SOURCE_LINE_LIMIT}"
    nodes = sum(1 for path in SOURCES for _ in ast.walk(ast.parse(path.read_text())))
    assert nodes <= SOURCE_NODE_LIMIT, f"{nodes} AST nodes, limit {SOURCE_NODE_LIMIT}"
