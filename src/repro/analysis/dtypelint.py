"""AST enforcement of the weak-scalar float32 policy (docs/NUMERICS.md).

PR 3 collapsed the seed's silent float64 scalar leak into one policy
module, ``repro.autograd.dtypes`` — but nothing stopped the *next* bare
``np.float64`` from creeping in.  This linter makes the policy static:

``float64-construction``
    Any ``np.float64`` attribute use (``np.float64(x)``,
    ``dtype=np.float64``, ``.astype(np.float64)``, comparisons), any
    ``dtype=float`` keyword, and any ``dtype="float64"`` string — outside
    ``repro/autograd/dtypes.py``, the one module allowed to spell the wide
    dtype.  Sanctioned uses (decision-side score bookkeeping, analysis-side
    statistics) carry a ``# dtype-ok: <reason>`` pragma.

``naked-coercion``
    ``np.asarray``/``np.array`` without an explicit ``dtype=`` in the
    kernel modules (``runtime/kernels.py``, ``runtime/executor.py``,
    ``runtime/plan.py``, ``runtime/arena.py``), where operand coercion must
    go through ``repro.autograd.dtypes.coerce_array``: a bare
    ``np.asarray(scalar)`` is a float64 0-d array that promotes everything
    it touches.

``float-literal-operand``
    A Python ``float`` literal passed positionally to a ``np.*`` callable
    in ``runtime/kernels.py`` hot paths.  Under NEP 50 a Python float is a
    weak scalar, so today these do *not* promote — the pragma requirement
    forces each such operand to state that reliance explicitly.

Suppression syntax and hygiene rules (no bare pragmas, no stale pragmas)
live in :mod:`repro.analysis.lintbase`.
"""

from __future__ import annotations

import ast
from typing import List

from .lintbase import FileLint, Finding, apply_pragmas

__all__ = ["PRAGMA_TAG", "lint_source", "KERNEL_MODULES", "HOT_MODULES"]

PRAGMA_TAG = "dtype-ok"

#: Module basenames (relative to src/repro) exempt from every dtype rule:
#: the policy module itself is where float64 is *defined*.
POLICY_MODULES = ("autograd/dtypes.py",)

#: Where operand coercion must be explicit (rule ``naked-coercion``).
KERNEL_MODULES = (
    "runtime/kernels.py",
    "runtime/executor.py",
    "runtime/plan.py",
    "runtime/arena.py",
)

#: Where Python-float literals as array operands need a pragma
#: (rule ``float-literal-operand``).
HOT_MODULES = ("runtime/kernels.py",)

_NUMPY_NAMES = ("np", "numpy")


def _is_numpy_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id in _NUMPY_NAMES
    )


def _is_numpy_call(node: ast.Call) -> bool:
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in _NUMPY_NAMES
    )


class _DtypeVisitor(ast.NodeVisitor):
    def __init__(self, path: str, relpath: str):
        self.path = path
        self.relpath = relpath
        self.findings: List[Finding] = []
        self.in_kernel_module = relpath.endswith(KERNEL_MODULES)
        self.in_hot_module = relpath.endswith(HOT_MODULES)

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(path=self.path, line=node.lineno, rule=rule, message=message)
        )

    # -- float64-construction ------------------------------------------ #
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if _is_numpy_attr(node, "float64"):
            self._flag(
                node, "float64-construction",
                "bare np.float64 outside repro.autograd.dtypes — use the "
                "policy helpers (scalar_operand / coerce_array / "
                "DEFAULT_DTYPE) or justify with '# dtype-ok: <reason>'",
            )
        self.generic_visit(node)

    def visit_keyword(self, node: ast.keyword) -> None:
        if node.arg == "dtype":
            value = node.value
            if isinstance(value, ast.Name) and value.id == "float":
                self._flag(
                    value, "float64-construction",
                    "dtype=float is float64 in disguise — name the policy "
                    "dtype explicitly",
                )
            elif (
                isinstance(value, ast.Constant)
                and isinstance(value.value, str)
                and value.value in ("float64", "double", "f8", ">f8", "<f8")
            ):
                self._flag(
                    value, "float64-construction",
                    f"dtype={value.value!r} spells float64 by string — use "
                    "the policy helpers or justify with a pragma",
                )
        self.generic_visit(node)

    # -- naked-coercion / float-literal-operand ------------------------ #
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if self.in_kernel_module and (
            _is_numpy_attr(func, "asarray") or _is_numpy_attr(func, "array")
        ):
            if not any(kw.arg == "dtype" for kw in node.keywords):
                self._flag(
                    node, "naked-coercion",
                    f"np.{func.attr} without dtype in a kernel module — "
                    "operand coercion must go through coerce_array so no "
                    "float64 0-d scalar leaks into the float32 chain",
                )
        if self.in_hot_module and _is_numpy_call(node):
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, float):
                    self._flag(
                        arg, "float-literal-operand",
                        f"Python float literal {arg.value!r} as a np."
                        f"{node.func.attr} operand in a kernel hot path — "
                        "weak-scalar reliance must be stated with a pragma",
                    )
        self.generic_visit(node)


def lint_source(path: str, relpath: str, source: str) -> FileLint:
    """Lint one file's source; ``relpath`` is the path under ``src/repro``."""
    if relpath.endswith(POLICY_MODULES):
        return FileLint(path=path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        result = FileLint(path=path)
        result.errors.append(
            Finding(
                path=path, line=error.lineno or 1, rule="parse-error",
                message=f"cannot parse: {error.msg}",
            )
        )
        return result
    visitor = _DtypeVisitor(path, relpath)
    visitor.visit(tree)
    return apply_pragmas(path, source, PRAGMA_TAG, visitor.findings)
