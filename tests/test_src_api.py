"""No test-only API: every definition in the package and the benchmark has a caller.

The package modules ``src/artifact/*.py`` and the benchmark modules
``perfbench/*.py`` are parsed with ``ast``, not imported.  Each top-level
function, class or assigned name (a module constant; ``__all__`` aside),
and each public method of a top-level class, must be referenced somewhere
in those files outside its own definition; a method counts only through
an attribute access (``obj.name``).  References from
``tests/`` do not count, so a function that only tests call fails here.
A top-level function under a decorator call (a ``click`` command) counts
as registered.  The benchmark's own test module contributes references
but no definitions.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = [*sorted((ROOT / "src" / "artifact").glob("*.py")),
         *sorted((ROOT / "perfbench").glob("*.py"))]

# kept without a caller in the package or the benchmark, each for a reason
ALLOWED = {
    "protocol.exact_accept_probability":
        "the exact accept rate that tests check sampled decisions against",
    "pauli.stabilizer_product":
        "the stabilizer element prod S_v in symplectic form, for exact stabilizer paths",
}


def _key(path: Path, name: str) -> str:
    module = path.stem if path.parent.name == "artifact" else f"perfbench.{path.stem}"
    return f"{module}.{name}"


@functools.cache
def _trees() -> dict[Path, ast.Module]:
    """Each file parsed once, so that a definition's own nodes are the very
    nodes ``_references`` walks, and a name that only its own definition
    uses (an assignment's target, a recursive call) is not a caller."""
    return {path: ast.parse(path.read_text()) for path in FILES}


def _definitions() -> dict[str, tuple[ast.AST, bool]]:
    """Dotted name -> (definition node, is a method)."""
    out = {}
    for path, tree in _trees().items():
        if path.name.startswith("test_"):
            continue
        for node in tree.body:
            registered = isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Call) for d in node.decorator_list)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not registered:
                out[_key(path, node.name)] = (node, False)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and name.id != "__all__":
                            out[_key(path, name.id)] = (node, False)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out[_key(path, f"{node.name}.{item.name}")] = (item, True)
    return out


def _references() -> list[tuple[str, bool, ast.AST]]:
    """(name, is an attribute access, node) for every name use and import."""
    out = []
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.append((node.id, False, node))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, True, node))
            elif isinstance(node, ast.ImportFrom):
                out.extend((alias.name, False, node) for alias in node.names)
    return out


def _unreferenced() -> list[str]:
    refs = _references()
    missing = []
    for dotted, (node, is_method) in _definitions().items():
        own = {id(n) for n in ast.walk(node)}
        name = dotted.rsplit(".", 1)[1]
        if not any(ref == name and id(at) not in own and (attr or not is_method)
                   for ref, attr, at in refs):
            missing.append(dotted)
    return sorted(missing)


def test_every_definition_has_a_caller_outside_the_tests():
    unreferenced = [name for name in _unreferenced() if name not in ALLOWED]
    assert not unreferenced, (
        f"{unreferenced} have no caller in src/artifact or perfbench; delete "
        "them, or add them to ALLOWED with the reason they stay")


def test_each_allowed_name_is_defined_and_still_has_no_caller():
    assert sorted(ALLOWED) == [name for name in _unreferenced() if name in ALLOWED]


def test_the_parser_sees_methods_and_module_functions():
    defs = _definitions()
    assert defs["provers.ProverSet.clone"][1] and not defs["statevec.measure"][1]
    assert "isometry.JUNK_TOL" in defs and "perfbench.tracer.TRACED" in defs
    assert "perfbench.workloads.ProtocolK3" in defs
    assert not any(name.startswith("perfbench.test_oracle") for name in defs)
