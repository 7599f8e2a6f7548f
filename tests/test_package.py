import ast
from pathlib import Path

import milnor_frames
from milnor_frames import verify


def test_public_names_resolve_and_are_listed_once_in_order():
    names = milnor_frames.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(milnor_frames, name)] == []


def _called_name(node):
    """Name of the function a call node calls; an SVD with a ``hermitian``
    keyword other than a literal False is named ``svd(hermitian)``."""
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    hermitian = [kw.value for kw in node.keywords if kw.arg == "hermitian"]
    if name == "svd" and hermitian and not (isinstance(hermitian[0], ast.Constant) and hermitian[0].value is False):
        return "svd(hermitian)"
    return name


def _call_sites(names):
    """(source file, top-level definition or '<module>') of each call to a
    function in ``names`` in the package."""
    src = Path(milnor_frames.__file__).parent
    sites = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _called_name(node) in names:
                    sites.add((path.name, getattr(top, "name", "<module>")))
    return sites


def _modules_calling(names):
    """Package source files that call any function in ``names``."""
    return {module for module, _ in _call_sites(names)}


def test_eigen_routines_are_called_only_in_eigensolve():
    # one eigen path: every eigen step goes through eigensolve, a
    # hermitian SVD included, since it is eigh underneath
    assert _modules_calling({"eig", "eigh", "eigvals", "eigvalsh", "svd(hermitian)"}) == {"eigensolve.py"}


def test_cholesky_is_called_only_in_frame_reduction():
    # one Gram gate: every Gram matrix is validated and factored by _factor_gram
    assert _modules_calling({"cholesky"}) == {"frame_reduction.py"}


def test_factor_gram_has_two_callers():
    # one Gram gate per input: parse_gram only parses, and the consumer
    # factors the array once, through one of these two
    assert _call_sites({"_factor_gram"}) == {
        ("frame_reduction.py", "gram_to_group_element"),
        ("frame_reduction.py", "_frame_parameter"),
    }


def test_jacobi_defect_is_called_only_in_lie_core():
    # one Lie gate: the LieAlgebra constructor checks every outside algebra
    assert _modules_calling({"jacobi_defect"}) == {"lie_core.py"}


def test_leibniz_svd_is_called_only_in_verify():
    # the families' Der(g) is printed in closed form; the SVD is verify's oracle
    assert _modules_calling({"derivation_basis"}) == {"verify.py"}


def _family_branches(src):
    """(source file, top-level definition) of each comparison against a
    built-in family, by enum member or by its string value."""
    members = {"RH2_SUM_ABELIAN", "RH_LINE_SUM"}
    values = {"rh2+abelian", "rh-line"}
    sites = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Compare) and any(
                    getattr(leaf, "attr", None) in members or getattr(leaf, "value", None) in values
                    for side in (node.left, *node.comparators)
                    for leaf in ast.walk(side)
                ):
                    sites.add((path.name, getattr(top, "name", "<module>")))
    return sites


def test_only_the_pattern_operator_and_verify_oracles_branch_on_a_family():
    # one almost-abelian model: every family closed form reads A_λ, and
    # verify's hand-typed oracles stay independent of it
    sites = _family_branches(Path(milnor_frames.__file__).parent)
    assert ("lie_core.py", "_pattern_operator") in sites
    assert sites - {
        ("lie_core.py", "_pattern_operator"),
        ("verify.py", "_expected_connection"),
        ("verify.py", "_expected_curvature_rows"),
        ("verify.py", "_soliton_residual_formula"),
    } == set()


def test_no_module_reads_the_environment():
    # every setting is a flag or an argument: os.environ and getenv appear nowhere
    src = Path(milnor_frames.__file__).parent
    readers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [node.attr] if isinstance(node, ast.Attribute) else []
            names += [node.id] if isinstance(node, ast.Name) else []
            names += [alias.name for alias in getattr(node, "names", [])]
            if {"environ", "environb", "getenv", "getenvb"} & set(names):
                readers.add(path.name)
    assert readers == set()


def test_every_verify_check_has_one_acceptance_test():
    # a check added to verify cannot skip tier-1: each one in ALL_CHECKS is
    # passed to _run by exactly one test in test_acceptance.py
    path = Path(__file__).with_name("test_acceptance.py")
    run = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(top, ast.FunctionDef) and top.name.startswith("test_"):
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_run":
                    run += [ast.unparse(arg) for arg in node.args]
    assert sorted(run) == sorted(f"verify.{check.__name__}" for check in verify.ALL_CHECKS)
