"""Whole-program call graph: module-resolving name lookup over src/repro/.

This replaces the name-matching heuristic RL003 shipped with (same-name
top-level functions plus a relative-import map) with a real resolver the
project rules share.  The graph is built once per :class:`~.engine.Project`
(``Project.call_graph()``) and answers two questions:

* *what does this name mean here?* — :meth:`CallGraph.resolve_call`
  resolves a call expression in a given function to the
  :class:`FunctionInfo` it invokes, through module boundaries;
* *what is reachable from these roots?* — :meth:`CallGraph.reachable`
  walks resolved call edges breadth-first, carrying a witness label.

Resolution model (documented in ``engine.py``'s module docstring too)
---------------------------------------------------------------------
Files under ``src/`` map to dotted modules by dropping the prefix
(``src/repro/apps/executor.py`` → ``repro.apps.executor``;
``__init__.py`` names the package itself).  Within one module the symbol
table holds top-level functions (decorators don't hide a function — the
def itself is the symbol), top-level classes with their methods, and
every import binding:

* ``import a.b`` binds ``a`` (a module prefix), ``import a.b as c``
  binds ``c`` directly to module ``a.b``;
* ``from a.b import x as y`` binds ``y`` to symbol ``x`` of ``a.b`` —
  where ``x`` may itself be a submodule (``from repro.apps import
  executor``);
* relative forms resolve against the importing file's package.

Symbol lookup follows **re-export chains**: looking up ``Engine`` in a
package ``__init__.py`` that says ``from .engine import Engine as
Engine`` recurses into ``engine.py`` (cycle-guarded, so mutually
re-exporting modules terminate).

A call site resolves when its callee is

* a plain name bound to a local top-level function or an imported one
  (aliases included),
* a dotted path whose base is an imported module binding
  (``executor.helper(...)``, ``repro.apps.executor.helper(...)``),
* ``self.m(...)`` / ``cls.m(...)`` inside a method — resolved to the
  enclosing class's method ``m``, then through resolvable base classes,
* ``C.m(...)`` / ``C().m(...)`` where ``C`` resolves to a project class.

Anything else (attribute calls on untyped values — ``engine.maj(...)``
where ``engine`` is a parameter) stays deliberately unresolved: the
engine/Bitstream layer keeps its own runtime asserts, and guessing
attribute types would drown the rules in false edges.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: (relpath, qualified function name) — e.g. ("src/repro/imsc/engine.py",
#: "InMemorySCEngine.maj") or ("src/repro/apps/filters.py", "blend").
FuncKey = Tuple[str, str]


@dataclass
class FunctionInfo:
    """One function (or method) definition the graph knows about."""

    key: FuncKey
    node: ast.AST                       # FunctionDef | AsyncFunctionDef
    is_async: bool
    class_name: Optional[str] = None    # set for methods
    #: resolved callee keys of every call site in the body, in AST order
    callees: List[FuncKey] = field(default_factory=list)

    @property
    def relpath(self) -> str:
        return self.key[0]

    @property
    def qualname(self) -> str:
        return self.key[1]


@dataclass
class _ImportBinding:
    """One imported name: a module alias and/or a symbol of a module."""

    module: Optional[str] = None   # bound directly to this module
    symbol: Optional[Tuple[str, str]] = None   # (module, original name)


class _Module:
    """Symbol table of one parsed file."""

    def __init__(self, relpath: str, name: str, tree: ast.AST) -> None:
        self.relpath = relpath
        self.name = name
        self.functions: Dict[str, ast.AST] = {}
        self.classes: Dict[str, ast.ClassDef] = {}
        self.imports: Dict[str, _ImportBinding] = {}
        self.star_imports: List[str] = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = _ImportBinding(
                            module=alias.name)
                    else:
                        root = alias.name.split(".")[0]
                        self.imports.setdefault(
                            root, _ImportBinding(module=root))
            elif isinstance(node, ast.ImportFrom):
                target = self._from_target(node)
                if target is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        self.star_imports.append(target)
                        continue
                    self.imports[alias.asname or alias.name] = \
                        _ImportBinding(symbol=(target, alias.name))

    def _from_target(self, node: ast.ImportFrom) -> Optional[str]:
        """Absolute module a ``from ... import`` pulls from, or None."""
        if node.level == 0:
            return node.module
        # relative: climb from this module's package
        parts = self.name.split(".")
        if not self.relpath.endswith("__init__.py"):
            parts = parts[:-1]   # the file's own package
        climb = node.level - 1
        if climb > len(parts):
            return None
        if climb:
            parts = parts[:len(parts) - climb]
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else None


def executed_calls(func: ast.AST) -> List[ast.Call]:
    """The calls that run when ``func`` runs: its body's in ``ast.walk``
    order, then those of the nested defs it calls.

    A nested sync def's body counts only if ``func`` calls it by name: a
    closure that is merely defined (returned by a factory, or handed to
    ``run_in_executor``) runs wherever it is later called.  Lambda
    bodies count; nested ``async def`` bodies never do (calling one
    only builds a coroutine).
    """
    nested: Dict[str, ast.AST] = {}
    calls: List[ast.Call] = []

    def collect(root: ast.AST) -> None:
        todo = deque(ast.iter_child_nodes(root))
        while todo:
            node = todo.popleft()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested[node.name] = node
                continue
            if isinstance(node, ast.Call):
                calls.append(node)
            todo.extend(ast.iter_child_nodes(node))

    collect(func)
    done: Set[str] = set()
    for call in calls:   # grows as called nested defs are collected
        name = call.func.id if isinstance(call.func, ast.Name) else None
        if isinstance(nested.get(name), ast.FunctionDef) and name not in done:
            done.add(name)
            collect(nested[name])
    return calls


def module_name(relpath: str) -> Optional[str]:
    """Dotted module name of a project-relative ``.py`` path.

    ``src/`` and ``tools/`` layout prefixes are dropped;
    ``pkg/__init__.py`` names the package ``pkg`` itself.
    """
    if not relpath.endswith(".py"):
        return None
    parts = relpath[:-3].split("/")
    if parts[0] in ("src", "tools"):
        parts = parts[1:]
    if not parts:
        return None
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


class CallGraph:
    """Resolved call edges over the project's ``src/`` modules."""

    def __init__(self, files: Sequence) -> None:
        """``files``: FileContext-likes with ``relpath`` and ``tree``."""
        self.modules: Dict[str, _Module] = {}
        self.by_relpath: Dict[str, _Module] = {}
        for ctx in files:
            if ctx.tree is None or not ctx.relpath.startswith("src/"):
                continue
            name = module_name(ctx.relpath)
            if name is None:
                continue
            mod = _Module(ctx.relpath, name, ctx.tree)
            self.modules[name] = mod
            self.by_relpath[ctx.relpath] = mod
        self.functions: Dict[FuncKey, FunctionInfo] = {}
        #: ``id(def node)`` → its FunctionInfo, for AST walkers that need
        #: the graph function a call site resolves from
        self.by_node: Dict[int, FunctionInfo] = {}
        for mod in self.modules.values():
            for fname, fnode in mod.functions.items():
                self._add_function(mod, fname, fnode, None)
            for cname, cnode in mod.classes.items():
                for stmt in cnode.body:
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self._add_function(mod, f"{cname}.{stmt.name}",
                                           stmt, cname)
        for info in self.functions.values():
            self._resolve_body(info)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add_function(self, mod: _Module, qualname: str, node: ast.AST,
                      class_name: Optional[str]) -> None:
        key = (mod.relpath, qualname)
        self.functions[key] = self.by_node[id(node)] = FunctionInfo(
            key=key, node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            class_name=class_name)

    def _resolve_body(self, info: FunctionInfo) -> None:
        mod = self.by_relpath[info.relpath]
        for node in executed_calls(info.node):
            target = self.resolve_call(mod, node, info)
            if target is not None:
                info.callees.append(target.key)

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def resolve_symbol(self, mod: _Module, name: str,
                       _seen: Optional[Set[Tuple[str, str]]] = None
                       ) -> Optional[object]:
        """``name`` in ``mod`` → FunctionInfo | ClassDef | _Module | None.

        Follows import bindings and re-export chains (``from .x import y``
        in an ``__init__.py``), guarding against cycles.
        """
        if _seen is None:
            _seen = set()
        if (mod.name, name) in _seen:
            return None
        _seen.add((mod.name, name))
        if name in mod.functions:
            return self.functions.get((mod.relpath, name))
        if name in mod.classes:
            return mod.classes[name]
        binding = mod.imports.get(name)
        if binding is not None:
            if binding.module is not None:
                return self.modules.get(binding.module)
            assert binding.symbol is not None
            target_name, original = binding.symbol
            target = self.modules.get(target_name)
            if target is not None:
                resolved = self.resolve_symbol(target, original, _seen)
                if resolved is not None:
                    return resolved
            # `from pkg import sub` where sub is a submodule
            return self.modules.get(f"{target_name}.{original}")
        # attribute access naming a submodule of a package
        submodule = self.modules.get(f"{mod.name}.{name}")
        if submodule is not None:
            return submodule
        for star_target in mod.star_imports:
            target = self.modules.get(star_target)
            if target is not None:
                resolved = self.resolve_symbol(target, name, _seen)
                if resolved is not None:
                    return resolved
        return None

    def _class_method(self, mod: _Module, cls: ast.ClassDef, method: str,
                      _seen: Optional[Set[Tuple[str, str]]] = None
                      ) -> Optional[FunctionInfo]:
        """Method lookup on a project class, walking resolvable bases."""
        if _seen is None:
            _seen = set()
        if (mod.relpath, cls.name) in _seen:
            return None
        _seen.add((mod.relpath, cls.name))
        info = self.functions.get((mod.relpath, f"{cls.name}.{method}"))
        if info is not None:
            return info
        for base in cls.bases:
            resolved = None
            if isinstance(base, ast.Name):
                resolved = self.resolve_symbol(mod, base.id)
            elif isinstance(base, ast.Attribute):
                resolved = self._resolve_dotted(mod, base)
            if isinstance(resolved, ast.ClassDef):
                # the base class lives in whatever module defines it
                base_mod = self._defining_module(resolved)
                if base_mod is not None:
                    found = self._class_method(base_mod, resolved,
                                               method, _seen)
                    if found is not None:
                        return found
        return None

    def _defining_module(self, cls: ast.ClassDef) -> Optional[_Module]:
        for mod in self.modules.values():
            if mod.classes.get(cls.name) is cls:
                return mod
        return None

    def _resolve_dotted(self, mod: _Module, node: ast.AST
                        ) -> Optional[object]:
        """Resolve an ``a.b.c`` attribute chain to a project object."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        current = self.resolve_symbol(mod, parts[0])
        for attr in parts[1:]:
            if not isinstance(current, _Module):
                return None
            current = self.resolve_symbol(current, attr)
        return current

    def resolve_call(self, mod: _Module, call: ast.Call,
                     enclosing: Optional[FunctionInfo] = None
                     ) -> Optional[FunctionInfo]:
        """Resolve one call expression to the FunctionInfo it invokes."""
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self.resolve_symbol(mod, func.id)
            if isinstance(resolved, FunctionInfo):
                return resolved
            if isinstance(resolved, ast.ClassDef):
                owner = self._defining_module(resolved)
                if owner is not None:
                    return self._class_method(owner, resolved, "__init__")
            return None
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        # self.m(...) / cls.m(...) inside a method
        if (isinstance(base, ast.Name) and base.id in ("self", "cls")
                and enclosing is not None
                and enclosing.class_name is not None):
            cls = mod.classes.get(enclosing.class_name)
            if cls is not None:
                return self._class_method(mod, cls, func.attr)
            return None
        # C.m(...) / C().m(...) on a resolvable class
        if isinstance(base, ast.Call):
            base = base.func
        resolved_base: Optional[object] = None
        if isinstance(base, ast.Name):
            resolved_base = self.resolve_symbol(mod, base.id)
        elif isinstance(base, ast.Attribute):
            resolved_base = self._resolve_dotted(mod, base)
        if isinstance(resolved_base, _Module):
            resolved = self.resolve_symbol(resolved_base, func.attr)
            return resolved if isinstance(resolved, FunctionInfo) else None
        if isinstance(resolved_base, ast.ClassDef):
            owner = self._defining_module(resolved_base)
            if owner is not None:
                return self._class_method(owner, resolved_base, func.attr)
        return None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def lookup(self, relpath: str, name: str) -> Optional[FunctionInfo]:
        """Resolve ``name`` as seen from module ``relpath`` (or None)."""
        mod = self.by_relpath.get(relpath)
        if mod is None:
            return None
        resolved = self.resolve_symbol(mod, name)
        return resolved if isinstance(resolved, FunctionInfo) else None

    def reachable(self, roots: Iterable[Tuple[FuncKey, str]]
                  ) -> Dict[FuncKey, str]:
        """Transitive closure over call edges; keeps the first witness.

        ``roots`` are ``(function key, witness label)`` pairs; the result
        maps every reachable function to the witness of the root that
        first reached it (BFS order, so cycles terminate).
        """
        reached: Dict[FuncKey, str] = {}
        queue: List[Tuple[FuncKey, str]] = [
            (key, witness) for key, witness in roots
            if key in self.functions]
        while queue:
            key, witness = queue.pop(0)
            if key in reached:
                continue
            reached[key] = witness
            for callee in self.functions[key].callees:
                if callee not in reached and callee in self.functions:
                    queue.append((callee, witness))
        return reached

    def callers(self) -> Dict[FuncKey, List[FuncKey]]:
        """Reverse edge map: callee → list of caller keys."""
        out: Dict[FuncKey, List[FuncKey]] = {}
        for key, info in self.functions.items():
            for callee in info.callees:
                out.setdefault(callee, []).append(key)
        return out
