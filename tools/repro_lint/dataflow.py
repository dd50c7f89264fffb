"""Function-local def-use analysis shared by the data-flow rules.

:class:`FunctionFlow` summarises one function body: which names are
parameters, what value expression(s) each local name was assigned, and a
provenance query (:meth:`origins`) that chases a name back through
single-assignment chains to the expressions it ultimately came from.

The model is deliberately flow-insensitive (all assignments to a name
are merged) and function-local — it answers "could this value derive
from a parameter / a literal / this constructor?", which is exactly the
granularity RL006's seed-provenance check needs without the false
positives of a path-sensitive analysis.

Nested function and lambda bodies are *excluded* from the enclosing
function's flow (their assignments bind in a different scope); each
nested def gets its own :class:`FunctionFlow` when a rule wants one.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set


def _shallow_walk(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested functions."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        todo.extend(ast.iter_child_nodes(node))


class FunctionFlow:
    """Def-use summary of one (async or plain) function definition."""

    def __init__(self, func: ast.AST) -> None:
        self.func = func
        args = func.args
        self.params: Set[str] = {a.arg for a in args.args + args.posonlyargs
                                 + args.kwonlyargs}
        if args.vararg:
            self.params.add(args.vararg.arg)
        if args.kwarg:
            self.params.add(args.kwarg.arg)
        #: every value expression assigned to each local name
        self.defs: Dict[str, List[ast.AST]] = {}
        #: names bound by constructs with no traceable value expression
        #: (for-targets, with-targets, comprehensions, except handlers)
        self.opaque: Set[str] = set()
        for node in _shallow_walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._bind_target(target, node.value)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    if node.value is not None:
                        self.defs.setdefault(node.target.id,
                                             []).append(node.value)
                    else:
                        self.opaque.add(node.target.id)
            elif isinstance(node, ast.NamedExpr):
                if isinstance(node.target, ast.Name):
                    self.defs.setdefault(node.target.id,
                                         []).append(node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for n in ast.walk(node.target):
                    if isinstance(n, ast.Name):
                        self.opaque.add(n.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        if item.context_expr is not None:
                            self.defs.setdefault(
                                item.optional_vars.id,
                                []).append(item.context_expr)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                self.opaque.add(node.name)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    for n in ast.walk(gen.target):
                        if isinstance(n, ast.Name):
                            self.opaque.add(n.id)

    def _bind_target(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.defs.setdefault(target.id, []).append(value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # tuple unpack: each element derives from the shared value
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    self.defs.setdefault(elt.id, []).append(value)
                elif isinstance(elt, (ast.Tuple, ast.List)):
                    self._bind_target(elt, value)

    # ------------------------------------------------------------------
    def origins(self, expr: ast.AST, *, max_depth: int = 16
                ) -> List[ast.AST]:
        """The expressions ``expr`` ultimately derives from.

        A :class:`ast.Name` is chased through this function's assignment
        chains (all assignments merged).  Terminal origins are whatever
        the chase bottoms out on: parameter names, constants, calls,
        attribute reads, names with no local definition (globals), or
        names bound opaquely (loop targets etc. — returned as the Name).
        """
        out: List[ast.AST] = []
        seen: Set[str] = set()

        def chase(node: ast.AST, depth: int) -> None:
            if depth <= 0:
                out.append(node)
                return
            if isinstance(node, ast.Name):
                if node.id in self.params or node.id in seen:
                    out.append(node)
                    return
                values = self.defs.get(node.id)
                if not values or node.id in self.opaque:
                    out.append(node)
                    return
                seen.add(node.id)
                for value in values:
                    chase(value, depth - 1)
            elif isinstance(node, (ast.Tuple, ast.List)):
                for elt in node.elts:
                    chase(elt, depth - 1)
            elif isinstance(node, ast.Starred):
                chase(node.value, depth - 1)
            elif isinstance(node, ast.IfExp):
                chase(node.body, depth - 1)
                chase(node.orelse, depth - 1)
            elif isinstance(node, ast.BinOp):
                chase(node.left, depth - 1)
                chase(node.right, depth - 1)
            elif isinstance(node, ast.Subscript):
                chase(node.value, depth - 1)
            elif isinstance(node, ast.Await):
                chase(node.value, depth - 1)
            else:
                out.append(node)

        chase(expr, max_depth)
        return out


def literal_int(node: ast.AST) -> Optional[int]:
    """The value of an integer-literal expression, else ``None``."""
    if (isinstance(node, ast.Constant)
            and isinstance(node.value, int)
            and not isinstance(node.value, bool)):
        return node.value
    if (isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))):
        inner = literal_int(node.operand)
        if inner is None or isinstance(node.op, ast.UAdd):
            return inner
        return -inner
    return None
