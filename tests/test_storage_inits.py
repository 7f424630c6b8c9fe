"""No value type writes an ``__init__`` that only stores its arguments.

``value_type`` gives a class without an ``__init__`` of its own one that
takes each field positionally or by name, so a hand-written one that does no
more than ``self.__dict__.update(a=a, b=b)`` names every field twice more
for nothing. This test parses the modules with ``ast`` and fails on such an
``__init__`` in a ``@value_type`` class.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hextorus"


def is_value_type(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and ast.unparse(d.func) == "value_type" for d in node.decorator_list)


def only_stores(init: ast.FunctionDef) -> bool:
    """Whether the body, a docstring aside, is one ``self.__dict__.update``
    call that passes each parameter by its own name and nothing else."""
    body = init.body[1:] if ast.get_docstring(init) is not None else init.body
    if len(body) != 1 or not isinstance(body[0], ast.Expr):
        return False
    call = body[0].value
    if not (isinstance(call, ast.Call) and ast.unparse(call.func) == "self.__dict__.update"):
        return False
    params = [a.arg for a in init.args.posonlyargs + init.args.args + init.args.kwonlyargs][1:]
    passed = [(k.arg, getattr(k.value, "id", None)) for k in call.keywords]
    return not call.args and sorted(passed) == sorted(zip(params, params))


def storage_only_inits(paths) -> list[str]:
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and is_value_type(node):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__" and only_stores(item):
                        found.append(f"{path.name}: {node.name}")
    return found


def test_no_value_type_writes_a_storage_only_init():
    assert storage_only_inits(sorted(SRC.glob("*.py"))) == []


def test_a_storage_only_init_is_found(tmp_path):
    # only the first class's __init__ does nothing but store its arguments
    module = tmp_path / "mod.py"
    module.write_text(
        "@value_type('a', 'b')\nclass Stored:\n"
        "    def __init__(self, a, b):\n        '''Doc.'''\n        self.__dict__.update(a=a, b=b)\n"
        "@value_type('a')\nclass Checked:\n"
        "    def __init__(self, a):\n        self.__dict__.update(a=float(a))\n"
        "@value_type('a', 'b')\nclass Defaulted:\n"
        "    def __init__(self, a, b=None):\n        b = {} if b is None else b\n"
        "        self.__dict__.update(a=a, b=b)\n"
        "class Plain:\n    def __init__(self, a):\n        self.__dict__.update(a=a)\n"
    )
    assert storage_only_inits([module]) == ["mod.py: Stored"]
