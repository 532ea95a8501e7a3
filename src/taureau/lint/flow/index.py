"""The project indexer: one :class:`ModuleSummary` per source file.

A summary is everything the whole-program stages (:mod:`.graph`) need to
know about a module *without re-reading it*: its import-alias table
(including relative imports, which the per-file :class:`FileContext`
deliberately ignores), module-level assignment aliases
(``_now = time.time`` — the binding shape per-file call resolution is
structurally blind to), every function with its resolved outgoing
calls, handler/entry-point markers, and the purely-local flow findings
(shared-capture, daemon-blocking) that need no propagation.

Summaries are plain-dict serializable: the incremental cache
(:mod:`.cache`) persists them keyed by a blake2b digest of the file
content, so a warm re-analysis parses only the files that changed.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import typing

from taureau.lint.engine import FileContext, LintEngine

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ModuleSummary",
    "module_name_for",
    "summarize_source",
    "source_key",
]

#: Attribute/callable names whose invocation makes event order observable.
SCHEDULING_CALLS = frozenset(
    {
        "schedule_at",
        "schedule_after",
        "schedule_many",
        "schedule_periodic",
        "every",
        "invoke",
        "invoke_sync",
        "heappush",
        "succeed",
        "fail",
        "publish",
        "send",
    }
)

#: Scheduling APIs whose callback argument becomes simulation-ordered code.
_CALLBACK_ARG_INDEX = {
    "schedule_at": 1,
    "schedule_after": 1,
    "schedule_many": 1,
    "every": 1,
}

#: Method names that mutate the receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "extendleft",
    }
)

#: Constructor calls whose result is a shared-mutable container.
_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
        "collections.OrderedDict",
    }
)


def source_key(source: str) -> str:
    """The blake2b content digest the incremental cache keys on."""
    return hashlib.blake2b(source.encode("utf-8"), digest_size=16).hexdigest()


def module_name_for(path: str) -> str:
    """The dotted module name a repo-relative path imports as.

    ``src/taureau/sim/engine.py`` → ``taureau.sim.engine`` (the ``src``
    layout prefix is stripped so in-repo imports resolve);
    ``helpers.py`` at an analysis root → ``helpers``.
    """
    normalized = path.replace("\\", "/")
    if normalized.endswith(".py"):
        normalized = normalized[: -len(".py")]
    parts = [part for part in normalized.split("/") if part not in (".", "")]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "__root__"


@dataclasses.dataclass
class CallSite:
    """One outgoing call, resolved as far as file-local knowledge allows."""

    name: str  #: dotted callee (project-qualified, import-resolved, or bare)
    line: int
    has_args: bool  #: whether any positional/keyword argument was passed

    def to_dict(self) -> dict:
        return {"n": self.name, "l": self.line, "a": self.has_args}

    @classmethod
    def from_dict(cls, data: dict) -> "CallSite":
        return cls(name=data["n"], line=data["l"], has_args=data["a"])


@dataclasses.dataclass
class FunctionInfo:
    """Per-function facts feeding the interprocedural stages."""

    qualname: str  #: ``module.Class.method`` / ``module.outer.inner``
    line: int
    col: int
    snippet: str  #: the ``def`` line text (finding fingerprints)
    calls: typing.List[CallSite] = dataclasses.field(default_factory=list)
    #: Calls made inside a ``for`` loop over a set-valued iterable,
    #: as (callee-name, loop-line) — the TAU104 candidates.
    set_loop_calls: typing.List[typing.Tuple[str, int]] = dataclasses.field(
        default_factory=list
    )
    is_handler: bool = False
    #: Local findings needing no propagation: (code, line, message).
    local_findings: typing.List[typing.Tuple[str, int, str]] = dataclasses.field(
        default_factory=list
    )

    def to_dict(self) -> dict:
        return {
            "q": self.qualname,
            "l": self.line,
            "c": self.col,
            "s": self.snippet,
            "calls": [c.to_dict() for c in self.calls],
            "loops": [list(item) for item in self.set_loop_calls],
            "h": self.is_handler,
            "f": [list(item) for item in self.local_findings],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionInfo":
        return cls(
            qualname=data["q"],
            line=data["l"],
            col=data["c"],
            snippet=data["s"],
            calls=[CallSite.from_dict(c) for c in data["calls"]],
            set_loop_calls=[(n, l) for n, l in data["loops"]],
            is_handler=data["h"],
            local_findings=[(c, l, m) for c, l, m in data["f"]],
        )


@dataclasses.dataclass
class ModuleSummary:
    """Everything the whole-program stages know about one file."""

    path: str  #: normalized repo-relative path
    module: str  #: dotted module name (see :func:`module_name_for`)
    key: str  #: blake2b content digest
    #: module-level ``name = dotted.expr`` bindings (alias → dotted target)
    aliases: typing.Dict[str, str] = dataclasses.field(default_factory=dict)
    #: dotted module names this file imports (project-resolution candidates)
    imported_modules: typing.List[str] = dataclasses.field(default_factory=list)
    functions: typing.Dict[str, FunctionInfo] = dataclasses.field(
        default_factory=dict
    )
    #: dotted names registered as scheduled callbacks / handlers, with the
    #: registration line: the cross-module entry-point seeds.
    registrations: typing.List[typing.Tuple[str, int]] = dataclasses.field(
        default_factory=list
    )
    #: per-line suppressed rule codes (flow codes respect the same
    #: ``# taurlint: disable=`` grammar as per-file rules)
    line_suppressions: typing.Dict[int, typing.List[str]] = dataclasses.field(
        default_factory=dict
    )
    file_suppressions: typing.List[str] = dataclasses.field(default_factory=list)
    parse_error: typing.Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "module": self.module,
            "key": self.key,
            "aliases": self.aliases,
            "imports": self.imported_modules,
            "functions": {q: f.to_dict() for q, f in self.functions.items()},
            "registrations": [list(item) for item in self.registrations],
            "line_suppressions": {
                str(line): codes for line, codes in self.line_suppressions.items()
            },
            "file_suppressions": self.file_suppressions,
            "parse_error": self.parse_error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleSummary":
        return cls(
            path=data["path"],
            module=data["module"],
            key=data["key"],
            aliases=dict(data["aliases"]),
            imported_modules=list(data["imports"]),
            functions={
                q: FunctionInfo.from_dict(f) for q, f in data["functions"].items()
            },
            registrations=[(n, l) for n, l in data["registrations"]],
            line_suppressions={
                int(line): list(codes)
                for line, codes in data["line_suppressions"].items()
            },
            file_suppressions=list(data["file_suppressions"]),
            parse_error=data["parse_error"],
        )

    def suppressed(self, code: str, line: int) -> bool:
        if code in self.file_suppressions:
            return True
        return code in self.line_suppressions.get(line, ())


def summarize_source(source: str, path: str) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one in-memory module."""
    module = module_name_for(path)
    key = source_key(source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return ModuleSummary(
            path=path,
            module=module,
            key=key,
            parse_error=f"{path}:{exc.lineno}: {exc.msg}",
        )
    summary = ModuleSummary(path=path, module=module, key=key)
    per_line, whole_file = LintEngine._suppressions(source.splitlines())
    summary.line_suppressions = {
        line: sorted(codes) for line, codes in per_line.items()
    }
    summary.file_suppressions = sorted(whole_file)
    _Indexer(summary, FileContext(path, source, tree)).index()
    return summary


class _Indexer:
    """One pass over a module tree filling its :class:`ModuleSummary`."""

    def __init__(self, summary: ModuleSummary, ctx: FileContext):
        self.summary = summary
        self.ctx = ctx
        self.module = summary.module
        #: names defined at module level (functions, classes, variables)
        self.module_names: set = set()
        #: module-level names bound to mutable containers, name → type label
        self.module_mutables: dict = {}
        #: function nodes by qualname, for the checks run after the walk
        self.function_nodes: dict = {}
        #: qualnames registered as ``sim.every`` ticks in this module
        self.every_ticks: set = set()
        self._collect_imports()
        self._collect_module_scope()

    # ------------------------------------------------------------------
    # Module-level collection
    # ------------------------------------------------------------------

    def _collect_imports(self) -> None:
        """Import table including relative imports (``from . import x``)."""
        self.imports: dict = dict(self.ctx.imports)
        package = self.module.rsplit(".", 1)[0] if "." in self.module else ""
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                base_parts = self.module.split(".")
                # level=1 is the containing package of this module.
                base_parts = base_parts[: len(base_parts) - node.level]
                base = ".".join(base_parts)
                target = f"{base}.{node.module}" if node.module else base
                target = target.lstrip(".")
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.imports[bound] = (
                        f"{target}.{alias.name}" if target else alias.name
                    )
        del package
        imported = set()
        for dotted in self.imports.values():
            imported.add(dotted)
        self.summary.imported_modules = sorted(imported)

    def _collect_module_scope(self) -> None:
        for node in self.ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.module_names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.module_names.add(target.id)
                        label = self._mutable_label(node.value)
                        if label is not None:
                            self.module_mutables[target.id] = label
                        dotted = self._dotted(node.value)
                        if dotted is not None:
                            self.summary.aliases[target.id] = dotted
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                self.module_names.add(node.target.id)
                if node.value is not None:
                    label = self._mutable_label(node.value)
                    if label is not None:
                        self.module_mutables[node.target.id] = label

    def _mutable_label(self, node: ast.AST) -> typing.Optional[str]:
        if isinstance(node, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(node, ast.Call):
            dotted = self._dotted(node.func)
            if dotted in _MUTABLE_CONSTRUCTORS:
                return dotted.rsplit(".", 1)[-1]
        return None

    # ------------------------------------------------------------------
    # Resolution helpers
    # ------------------------------------------------------------------

    def _dotted(self, node: ast.AST) -> typing.Optional[str]:
        """Dotted name behind an expression, through the import table."""
        parts: list = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def _resolve_callable(
        self, node: ast.AST, scope: "_Scope"
    ) -> typing.Optional[str]:
        """Best-effort dotted name for a call/reference target.

        Local and ``self.`` references become project-qualified
        (``module.Class.method``); imported names resolve through the
        import table; module-level assignment aliases resolve to their
        target (``_now`` → ``time.time``).
        """
        if isinstance(node, ast.Attribute):
            # self.method()/cls.method() inside a class body
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
                and scope.class_qual
            ):
                return f"{self.module}.{scope.class_qual}.{node.attr}"
            dotted = self._dotted(node)
            if dotted is None:
                return None
            root = dotted.split(".", 1)[0]
            if root in self.summary.aliases:
                remainder = dotted.split(".", 1)
                tail = f".{remainder[1]}" if len(remainder) > 1 else ""
                return f"{self.summary.aliases[root]}{tail}"
            return dotted
        if isinstance(node, ast.Name):
            name = node.id
            if name in scope.local_qualnames:
                return scope.local_qualnames[name]
            if name in self.summary.aliases:
                return self.summary.aliases[name]
            if name in self.imports:
                return self.imports[name]
            if name in self.module_names:
                return f"{self.module}.{name}"
            return name
        if isinstance(node, ast.Call):
            # sim.process(self._loop()) registers the *called* generator.
            return self._resolve_callable(node.func, scope)
        return None

    # ------------------------------------------------------------------
    # Walk
    # ------------------------------------------------------------------

    def index(self) -> None:
        scope = _Scope(
            qual="",
            class_qual="",
            local_names=set(self.module_names),
            enclosing_names=set(),
            local_qualnames={},
        )
        self._walk_body(self.ctx.tree.body, scope, function=None)
        for qual, info in self.summary.functions.items():
            if info.qualname in self.every_ticks:
                self._check_daemon(self.function_nodes[qual], info)

    def _walk_body(self, body, scope: "_Scope", function) -> None:
        for node in body:
            self._walk_node(node, scope, function)

    def _walk_node(self, node, scope: "_Scope", function) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._index_function(node, scope)
            return
        if isinstance(node, ast.ClassDef):
            inner = _Scope(
                qual=_join(scope.qual, node.name),
                class_qual=_join(scope.class_qual, node.name),
                local_names=set(),
                enclosing_names=scope.local_names | scope.enclosing_names,
                local_qualnames=dict(scope.local_qualnames),
            )
            self._walk_body(node.body, inner, function=None)
            return
        if function is not None:
            self._record_statement(node, scope, function)
        for child in ast.iter_child_nodes(node):
            self._walk_node(child, scope, function)

    def _index_function(self, node, scope: "_Scope") -> None:
        qual = _join(scope.qual, node.name)
        qualname = f"{self.module}.{qual}"
        info = FunctionInfo(
            qualname=qualname,
            line=node.lineno,
            col=node.col_offset + 1,
            snippet=self.ctx.line_text(node.lineno),
            is_handler=_is_handler(node),
        )
        self.summary.functions[qual] = info
        self.function_nodes[qual] = node
        # Make the bare name resolvable from sibling scopes.
        scope.local_qualnames[node.name] = qualname
        local = {arg.arg for arg in _all_args(node.args)}
        local |= _assigned_names(node)
        inner = _Scope(
            qual=qual,
            class_qual=scope.class_qual,
            local_names=local,
            enclosing_names=scope.local_names | scope.enclosing_names,
            local_qualnames=dict(scope.local_qualnames),
        )
        self._walk_body(list(node.body), inner, function=info)
        if info.is_handler:
            self._check_captures(node, info, inner)

    # ------------------------------------------------------------------
    # Per-statement recording (inside a function body)
    # ------------------------------------------------------------------

    def _record_statement(self, node, scope: "_Scope", info: FunctionInfo) -> None:
        if isinstance(node, ast.Call):
            resolved = self._resolve_callable(node.func, scope)
            if resolved is not None:
                info.calls.append(
                    CallSite(
                        name=resolved,
                        line=node.lineno,
                        has_args=bool(node.args or node.keywords),
                    )
                )
            self._record_registration(node, scope)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            from taureau.lint.rules.ordering import _smells_like_set

            if _smells_like_set(node.iter):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Call):
                        resolved = self._resolve_callable(inner.func, scope)
                        if resolved is not None:
                            info.set_loop_calls.append((resolved, node.lineno))

    def _record_registration(self, node: ast.Call, scope: "_Scope") -> None:
        """Callback references handed to scheduling APIs / FunctionSpec."""
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if attr is None:
            return
        targets: list = []
        if attr in _CALLBACK_ARG_INDEX:
            index = _CALLBACK_ARG_INDEX[attr]
            if len(node.args) > index:
                targets.append(node.args[index])
        elif attr == "schedule_periodic":
            for keyword in node.keywords:
                if keyword.arg == "payload_fn":
                    targets.append(keyword.value)
        elif attr == "process":
            if node.args:
                targets.append(node.args[0])
        elif attr == "FunctionSpec" or attr == "register":
            for keyword in node.keywords:
                if keyword.arg == "handler":
                    targets.append(keyword.value)
        for target in targets:
            resolved = self._resolve_callable(target, scope)
            if resolved is not None:
                self.summary.registrations.append((resolved, node.lineno))
                if attr == "every":
                    self.every_ticks.add(resolved)

    # ------------------------------------------------------------------
    # Local flow checks (no propagation needed)
    # ------------------------------------------------------------------

    def _check_daemon(self, node, info: FunctionInfo) -> None:
        """TAU106: a ``sim.every`` tick must stay bounded and background."""
        for loop in ast.walk(node):
            if not isinstance(loop, ast.While):
                continue
            test = loop.test
            unbounded = isinstance(test, ast.Constant) and bool(test.value)
            if unbounded and not any(
                isinstance(inner, (ast.Break, ast.Return, ast.Raise))
                for inner in ast.walk(loop)
            ):
                info.local_findings.append(
                    (
                        "TAU106",
                        loop.lineno,
                        "unbounded `while True` inside a sim.every tick "
                        "stalls the virtual clock; bound the loop and let "
                        "the kernel call the tick again",
                    )
                )
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            attr = func.attr if isinstance(func, ast.Attribute) else None
            if attr in ("schedule_at", "schedule_after", "schedule_many"):
                info.local_findings.append(
                    (
                        "TAU106",
                        call.lineno,
                        f"sim.every tick schedules foreground work via "
                        f"{attr}(); work added on every tick keeps the "
                        "kernel re-arming the loop, so sim.run() never "
                        "drains — the kernel already repeats the tick",
                    )
                )

    def _check_captures(self, node, info: FunctionInfo, scope: "_Scope") -> None:
        """TAU105: handlers must not mutate shared enclosing-scope state."""
        params = {arg.arg for arg in _all_args(node.args)}
        assigned = _assigned_names(node)
        globals_declared: set = set()
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Global):
                globals_declared.update(stmt.names)
        for name, line, what in _mutations(node):
            if name in params:
                continue
            if name in assigned and name not in globals_declared:
                continue
            if name in self.module_mutables:
                label = self.module_mutables[name]
                info.local_findings.append(
                    (
                        "TAU105",
                        line,
                        f"handler mutates module-global {label} `{name}` "
                        f"({what}); sandboxes share that object, so state "
                        "leaks across invocations — keep state in the "
                        "simulated stores (ctx.service) instead",
                    )
                )
            elif name in globals_declared:
                info.local_findings.append(
                    (
                        "TAU105",
                        line,
                        f"handler rebinds module global `{name}` ({what}); "
                        "handlers must be idempotent — keep state in the "
                        "simulated stores (ctx.service) instead",
                    )
                )
            elif name in scope.enclosing_names and name not in self.module_names:
                info.local_findings.append(
                    (
                        "TAU105",
                        line,
                        f"handler mutates `{name}` captured from the "
                        f"enclosing scope ({what}); concurrent sandboxes "
                        "race on that closure cell — keep state in the "
                        "simulated stores (ctx.service) instead",
                    )
                )


@dataclasses.dataclass
class _Scope:
    qual: str  #: dotted qualname path inside the module ("Class.method")
    class_qual: str  #: innermost class path ("Class"), for self-resolution
    local_names: set
    enclosing_names: set
    local_qualnames: dict  #: bare name → project qualname, for siblings


def _join(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


def _all_args(args: ast.arguments):
    return (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    )


def _assigned_names(node) -> set:
    """Names *bound* in a function body (its locals).

    Only binding positions count: ``x = …`` binds ``x`` but
    ``x[k] = …`` does not — the latter mutates whatever ``x`` already
    refers to, which is exactly what the capture checks must not miss.
    """
    names: set = set()

    def bound(target) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                bound(element)
        elif isinstance(target, ast.Starred):
            bound(target.value)
        # Subscript / Attribute targets mutate, they do not bind.

    for stmt in ast.walk(node):
        targets: list = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            targets = [stmt.target]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            targets = [item.optional_vars for item in stmt.items if item.optional_vars]
        for target in targets:
            bound(target)
    return names


def _is_handler(node) -> bool:
    """Mirrors the per-file TAU004 heuristic: ``(event, ctx)`` or
    ``@*.function(...)`` registration."""
    args = node.args.posonlyargs + node.args.args
    if len(args) >= 2 and args[1].arg == "ctx":
        return True
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr == "function":
            return True
    return False


def _mutations(node) -> typing.Iterator[typing.Tuple[str, int, str]]:
    """Direct in-place mutations of a bare name: ``x.append(v)``,
    ``x[k] = v``, ``del x[k]``, ``x[k] += v``, ``x += [...]`` under a
    ``global`` declaration (the caller filters by scope)."""
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Call):
            func = stmt.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.attr in _MUTATOR_METHODS
            ):
                yield func.value.id, stmt.lineno, f"{func.value.id}.{func.attr}(...)"
        elif isinstance(stmt, (ast.Assign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    yield target.value.id, stmt.lineno, f"{target.value.id}[...] = …"
                elif isinstance(target, ast.Name) and isinstance(stmt, ast.AugAssign):
                    yield target.id, stmt.lineno, f"{target.id} ?= …"
                elif isinstance(target, ast.Name) and isinstance(stmt, ast.Assign):
                    yield target.id, stmt.lineno, f"{target.id} = …"
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    yield target.value.id, stmt.lineno, f"del {target.value.id}[...]"
