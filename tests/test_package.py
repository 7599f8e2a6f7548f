import ast
from pathlib import Path

import milnor_frames


def test_public_names_resolve_and_are_listed_once_in_order():
    names = milnor_frames.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(milnor_frames, name)] == []


def _modules_calling(names):
    """Package source files that call any function in ``names``."""
    src = Path(milnor_frames.__file__).parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    callers.add(path.name)
    return callers


def test_eigen_routines_are_called_only_in_eigensolve():
    # one eigen path: every eigenvalue goes through eigensolve.jacobi_eigh
    assert _modules_calling({"eig", "eigh", "eigvals", "eigvalsh"}) == {"eigensolve.py"}


def test_cholesky_is_called_only_in_frame_reduction():
    # one Gram gate: every Gram matrix is validated and factored by _factor_gram
    assert _modules_calling({"cholesky"}) == {"frame_reduction.py"}


def test_jacobi_defect_is_called_only_in_lie_core():
    # one Lie gate: the LieAlgebra constructor checks every outside algebra
    assert _modules_calling({"jacobi_defect"}) == {"lie_core.py"}


def test_leibniz_svd_is_called_only_in_verify():
    # the families' Der(g) is printed in closed form; the SVD is verify's oracle
    assert _modules_calling({"derivation_basis"}) == {"verify.py"}
