"""Tiny arithmetic expression language for initial graph profiles.

Scenario configs describe rho0(theta) as text like

    4 + 0.3*P2(cos(theta))

The grammar is deliberately small: numbers, ``theta``, ``pi``, the
functions sin, cos, sqrt and the quadratic Legendre polynomial P2, and
the operators + - * / ** with parentheses.  Evaluation walks the Python
AST with a whitelist, so configs cannot execute arbitrary code.  Errors
are ValueErrors, and the caller names the config key.
"""

from __future__ import annotations

import ast

import numpy as np

__all__ = ["evaluate_radius_expression"]


def _p2(x):
    return 1.5 * x * x - 0.5


_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "sqrt": np.sqrt, "P2": _p2}
_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.true_divide, ast.Pow: np.power}


def _eval(node, names):
    if isinstance(node, ast.Expression):
        return _eval(node.body, names)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            try:
                return float(node.value)
            except OverflowError:
                raise ValueError("an integer literal is beyond the float64 range") from None
        raise ValueError(f"only numeric constants allowed, got {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id in names:
            return names[node.id]
        raise ValueError(f"unknown name {node.id!r} in expression "
                         f"(allowed: theta, pi)")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_eval(node.left, names),
                                      _eval(node.right, names))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        val = _eval(node.operand, names)
        return val if isinstance(node.op, ast.UAdd) else -val
    if isinstance(node, ast.Call):
        if (isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS
                and not node.keywords and len(node.args) == 1):
            return _FUNCTIONS[node.func.id](_eval(node.args[0], names))
        raise ValueError("only sin(x), cos(x), sqrt(x), P2(x) calls allowed")
    raise ValueError(f"unsupported syntax in expression: {ast.dump(node)}")


def evaluate_radius_expression(text: str, theta: np.ndarray) -> np.ndarray:
    """Evaluate a rho0(theta) expression on the grid; ValueError unless every
    value is finite, so an overflow or a NaN is an error, not a numpy warning."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from exc
    with np.errstate(all="ignore"):
        values = np.asarray(_eval(tree, {"theta": theta, "pi": np.pi}),
                            dtype=float) + np.zeros_like(theta)
    if not np.isfinite(values).all():
        raise ValueError(f"{text!r} gives {values[~np.isfinite(values)][0]} on the grid")
    return values
