"""Whole-program indexing for the interprocedural passes.

:class:`ProjectIndex` parses every file once and builds the three
interprocedural facts the rest of :mod:`repro.check` consumes:

* a **function index** (module-level functions *and* methods, keyed by
  qualified name) with per-module import maps, so a call can be resolved
  across modules — ``helper(x)`` through ``from pkg.mod import helper``,
  ``mod.helper(x)`` through ``import pkg.mod as mod``, and
  ``self.method(...)`` within a class;
* a **project constant environment**: every module's ``NAME = <int>``
  bindings (including ``AugAssign`` updates and tuple unpacking),
  importable across modules so a tag constant defined in one file
  resolves in another;
* the set of **shm-factory functions** — functions whose return value is
  (transitively) tainted by ``DenseMemoTable.wrap`` — computed to a
  fixpoint so SPMD003 tracks handles returned through helpers.

The index is deliberately name-based (no type inference): calls on
unknown receivers stay unresolved, which the protocol interpreter treats
as communication-free.  That is the right default for this codebase,
where the communicator itself is the only object whose methods *are* the
protocol — and those are matched by method name, not by receiver.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

__all__ = ["FunctionInfo", "ModuleInfo", "ProjectIndex", "module_name_of"]


def module_name_of(path: str) -> str:
    """Dotted module name of *path*, relative to the nearest source root.

    ``src/repro/parallel/prna.py -> repro.parallel.prna``; for paths with
    no ``src`` component (test snippets, temp dirs) the full path minus
    extension is used.  Lookups fall back to dotted-suffix matching, so
    precision of the root hardly matters.
    """
    norm = path.replace(os.sep, "/")
    if norm.endswith(".py"):
        norm = norm[: -len(".py")]
    parts = [part for part in norm.split("/") if part not in ("", ".", "..")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  # "module.func" or "module.Class.method"
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None

    @property
    def params(self) -> list[str]:
        args = self.node.args
        return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    #: local name -> dotted target ("helper" -> "pkg.mod.helper" for
    #: ``from pkg.mod import helper``; "mod" -> "pkg.mod" for
    #: ``import pkg.mod as mod``).
    imports: dict[str, str] = field(default_factory=dict)
    #: integer constants assigned at module or class level.
    constants: dict[str, int] = field(default_factory=dict)


def _scan_constants(body: list[ast.stmt], env: dict[str, int]) -> None:
    """Fold module/class-level integer constant bindings into *env*.

    Handles plain assignment, annotated assignment, tuple unpacking of
    constant tuples, and ``AugAssign`` over an already-known constant.
    """
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
            if (
                len(targets) == 1
                and isinstance(targets[0], (ast.Tuple, ast.List))
                and isinstance(value, (ast.Tuple, ast.List))
                and len(targets[0].elts) == len(value.elts)
            ):
                for target, elt in zip(targets[0].elts, value.elts):
                    if (
                        isinstance(target, ast.Name)
                        and isinstance(elt, ast.Constant)
                        and isinstance(elt.value, int)
                        and not isinstance(elt.value, bool)
                    ):
                        env[target.id] = elt.value
                continue
            if isinstance(value, ast.Constant) and isinstance(
                value.value, int
            ) and not isinstance(value.value, bool):
                for target in targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = value.value
        elif isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, int)
                and not isinstance(stmt.value.value, bool)
            ):
                env[stmt.target.id] = stmt.value.value
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id in env:
                base = env[stmt.target.id]
                delta = (
                    stmt.value.value
                    if isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, int)
                    else None
                )
                if delta is None:
                    del env[stmt.target.id]  # widened: no longer constant
                    continue
                folded = _fold_aug(stmt.op, base, delta)
                if folded is None:
                    del env[stmt.target.id]
                else:
                    env[stmt.target.id] = folded
        elif isinstance(stmt, ast.ClassDef):
            _scan_constants(stmt.body, env)


def _fold_aug(op: ast.operator, base: int, delta: int) -> int | None:
    if isinstance(op, ast.Add):
        return base + delta
    if isinstance(op, ast.Sub):
        return base - delta
    if isinstance(op, ast.Mult):
        return base * delta
    if isinstance(op, ast.BitOr):
        return base | delta
    if isinstance(op, ast.LShift):
        return base << delta
    return None


def _scan_imports(tree: ast.Module) -> dict[str, str]:
    imports: dict[str, str] = {}
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(stmt, ast.ImportFrom) and stmt.module:
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = (
                    f"{stmt.module}.{alias.name}"
                )
    return imports


class ProjectIndex:
    """Cross-module function/constant/taint index over parsed files."""

    def __init__(self, modules: dict[str, ast.Module]):
        """*modules* maps file path -> parsed tree."""
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: dotted module name -> ModuleInfo (plus every dotted suffix).
        self._by_name: dict[str, ModuleInfo] = {}
        for path, tree in modules.items():
            name = module_name_of(path)
            info = ModuleInfo(name, path, tree, _scan_imports(tree))
            _scan_constants(tree.body, info.constants)
            self.modules[path] = info
            for suffix in _dotted_suffixes(name):
                self._by_name.setdefault(suffix, info)
            self._index_functions(info)
        self.shm_factories: set[str] = self._compute_shm_factories()

    # ------------------------------------------------------------------
    def _index_functions(self, module: ModuleInfo) -> None:
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(module, sub, stmt.name)

    def _add_function(
        self,
        module: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> None:
        parts = [module.name] if module.name else []
        if class_name:
            parts.append(class_name)
        parts.append(node.name)
        info = FunctionInfo(
            ".".join(parts), module.name, module.path, node, class_name
        )
        self.functions[info.qualname] = info

    # ------------------------------------------------------------------
    def module_named(self, dotted: str) -> ModuleInfo | None:
        """Look up a module by dotted name, falling back to suffixes."""
        if dotted in self._by_name:
            return self._by_name[dotted]
        for suffix in _dotted_suffixes(dotted):
            if suffix in self._by_name:
                return self._by_name[suffix]
        return None

    def entry_points(self) -> list[FunctionInfo]:
        """Module-level functions taking a parameter named ``comm``.

        The SPMD convention throughout the tree: a rank body receives the
        abstract communicator as a parameter literally named ``comm``.
        """
        return [
            info
            for info in self.functions.values()
            if info.class_name is None and "comm" in info.params
        ]

    # ------------------------------------------------------------------
    def resolve_call(
        self, call: ast.Call, module: ModuleInfo, class_name: str | None = None
    ) -> FunctionInfo | None:
        """The :class:`FunctionInfo` *call* targets, or ``None``."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id, module)
        if isinstance(func, ast.Attribute):
            owner = func.value
            # self.method() / cls.method() within a known class.
            if (
                isinstance(owner, ast.Name)
                and owner.id in ("self", "cls")
                and class_name is not None
            ):
                qual = f"{module.name}.{class_name}.{func.attr}"
                if qual in self.functions:
                    return self.functions[qual]
                return None
            # mod.helper() through an import, or Class.method().
            if isinstance(owner, ast.Name):
                target = module.imports.get(owner.id, owner.id)
                resolved = self._resolve_dotted(f"{target}.{func.attr}")
                if resolved is not None:
                    return resolved
                # Class imported into this module: Class.method.
                qual = f"{module.name}.{owner.id}.{func.attr}"
                return self.functions.get(qual)
        return None

    def _resolve_name(self, name: str, module: ModuleInfo) -> FunctionInfo | None:
        qual = f"{module.name}.{name}" if module.name else name
        if qual in self.functions:
            return self.functions[qual]
        if name in module.imports:
            return self._resolve_dotted(module.imports[name])
        return None

    def _resolve_dotted(self, dotted: str) -> FunctionInfo | None:
        if dotted in self.functions:
            return self.functions[dotted]
        # from pkg.mod import helper -> "pkg.mod.helper"; the defining
        # module may be indexed under a path-derived suffix.
        if "." in dotted:
            mod_part, leaf = dotted.rsplit(".", 1)
            target = self.module_named(mod_part)
            if target is not None:
                qual = f"{target.name}.{leaf}" if target.name else leaf
                return self.functions.get(qual)
        return None

    # ------------------------------------------------------------------
    def constant_env(self, module: ModuleInfo) -> dict[str, int]:
        """*module*'s constants plus constants imported from the project."""
        env = dict(module.constants)
        for local, dotted in module.imports.items():
            if local in env:
                continue
            if "." not in dotted:
                continue
            mod_part, leaf = dotted.rsplit(".", 1)
            target = self.module_named(mod_part)
            if target is not None and leaf in target.constants:
                env[local] = target.constants[leaf]
        return env

    # ------------------------------------------------------------------
    def _compute_shm_factories(self) -> set[str]:
        """Functions returning shm-tainted handles, to a fixpoint.

        Seeds on functions whose ``return`` expression calls
        ``DenseMemoTable.wrap`` directly, then
        propagates through functions that return a call to (or a name
        assigned from) an already-known factory.
        """
        factories: set[str] = set()
        names: set[str] = set()
        changed = True
        while changed:
            changed = False
            for info in self.functions.values():
                if info.qualname in factories:
                    continue
                if self._returns_shm(info, names):
                    factories.add(info.qualname)
                    names.add(info.node.name)
                    changed = True
        return names

    def _returns_shm(self, info: FunctionInfo, factory_names: set[str]) -> bool:
        from repro.check.rules import _has_shm_source

        local_shm: set[str] = set()

        def tainted(expr: ast.expr) -> bool:
            if _has_shm_source(expr):
                return True
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Call):
                    callee = sub.func
                    callee_name = (
                        callee.id
                        if isinstance(callee, ast.Name)
                        else callee.attr
                        if isinstance(callee, ast.Attribute)
                        else None
                    )
                    if callee_name in factory_names:
                        return True
                if isinstance(sub, ast.Name) and sub.id in local_shm:
                    return True
            return False

        for stmt in ast.walk(info.node):
            if isinstance(stmt, ast.Assign) and tainted(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        local_shm.add(target.id)
        for stmt in ast.walk(info.node):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                if tainted(stmt.value):
                    return True
        return False


def _receiver_root(node: ast.expr) -> str | None:
    """Leftmost name of an attribute chain (``a.b.c`` -> ``a``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _dotted_suffixes(name: str) -> list[str]:
    """``a.b.c -> ["a.b.c", "b.c", "c"]`` (longest first)."""
    parts = name.split(".")
    return [".".join(parts[i:]) for i in range(len(parts))]
