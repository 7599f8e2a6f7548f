import ast
from pathlib import Path

import milnor_frames


def test_public_names_resolve_and_are_listed_once_in_order():
    names = milnor_frames.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(milnor_frames, name)] == []


def test_eigen_routines_are_called_only_in_eigensolve():
    # one eigen path: every eigenvalue goes through eigensolve.jacobi_eigh
    eigen = {"eig", "eigh", "eigvals", "eigvalsh"}
    src = Path(milnor_frames.__file__).parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in eigen:
                    callers.add(path.name)
    assert callers == {"eigensolve.py"}
