"""The package's public names: ``__all__`` lists exactly what ``__init__`` binds."""

import ast
from pathlib import Path

import trs_planner


def test_every_exported_name_resolves():
    namespace = {}
    exec("from trs_planner import *", namespace)  # AttributeError on a name that does not resolve
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(trs_planner.__all__)


def test_all_lists_exactly_the_public_names_init_binds():
    bound = []
    for node in ast.parse(Path(trs_planner.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom):
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            bound += [target.id for target in node.targets if isinstance(target, ast.Name)]
    public = [name for name in bound if not name.startswith("_")]
    assert len(set(trs_planner.__all__)) == len(trs_planner.__all__)
    assert sorted(trs_planner.__all__) == sorted(public)
