"""The benchmark tracer's dotted names must resolve to package callables.

``perfbench/tracer.py`` patches functions by dotted name; a rename in the
package would otherwise surface only in a traced benchmark run.  The file
is parsed, not imported or installed.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_names() -> list[str]:
    values = {}
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            name = node.targets[0].id
            if name in ("TRACED", "TRIAL_STREAM", "PACKAGE"):
                values[name] = ast.literal_eval(node.value)
    assert values["PACKAGE"] == "artifact"
    return [*values["TRACED"], values["TRIAL_STREAM"]]


@pytest.mark.parametrize("dotted", _tracer_names())
def test_traced_name_is_a_package_callable(dotted):
    mod_name, *path = dotted.split(".")
    owner = importlib.import_module(f"artifact.{mod_name}")
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner)
