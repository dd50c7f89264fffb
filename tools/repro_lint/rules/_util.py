"""Small AST helpers shared by the rule plugins."""

from __future__ import annotations

import ast
from typing import Optional


def dotted(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c`` (None if not a chain)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call's callee (``np.random.rand`` for that call)."""
    return dotted(node.func)

