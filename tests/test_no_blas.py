"""No module of the package calls BLAS.

``citemetrics.cli`` starts numpy with one OpenBLAS thread unless
``OPENBLAS_NUM_THREADS`` is set, which costs nothing only while no code path
reaches a BLAS routine. This test reads every module's syntax tree and fails
on the ``@`` operator or on a numpy function that calls BLAS, naming the
file and line.
"""

import ast
from pathlib import Path

import citemetrics

PACKAGE = Path(citemetrics.__file__).resolve().parent
BLAS_NAMES = {
    "dot", "vdot", "inner", "outer", "matmul", "tensordot", "einsum", "linalg", "polyfit",
    "lstsq", "cov", "corrcoef",
}


def blas_uses(source: str):
    """(line, what) for each ``@`` and each use of a name in BLAS_NAMES, as
    an attribute (``np.dot``, ``x.dot``, ``np.linalg.norm``) or as a name
    imported from numpy."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "the @ operator"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno, f".{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                if alias.name in BLAS_NAMES or "linalg" in node.module.split("."):
                    yield node.lineno, f"from {node.module} import {alias.name}"


def test_blas_uses_finds_each_form():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import solve\n"
        "from numpy import einsum\n"
        "a = x @ y\n"
        "a @= y\n"
        "np.dot(x, y)\n"
        "x.dot(y)\n"
        "np.linalg.norm(x)\n"
        "np.sum(x * y)\n"
    )
    assert sorted(line for line, _ in blas_uses(source)) == [2, 3, 4, 5, 6, 7, 8]


def test_no_module_calls_blas():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in sorted(blas_uses(path.read_text(encoding="utf-8")))
    ]
    assert not found, "BLAS calls in the package: " + "; ".join(found)
