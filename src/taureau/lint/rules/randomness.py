"""TAU002 / TAU010 / TAU018 / TAU004 / TAU016 — seeded randomness, owned
ids and pure handlers.

All randomness in the library flows through ``sim.rng.stream(name)`` so
that adding one consumer never perturbs another's draws.  Module-global
``random.*`` calls, ``uuid.uuid4`` and unseeded generator constructors
all break that contract silently — the trace still *looks* fine, it is
just different every run.  Ids come from ``sim.ids(kind)`` for the same
reason: a counter shared by the whole process hands a second same-seed
run different job names, and some of those names name RNG streams.
"""

from __future__ import annotations

import ast
import typing

from taureau.lint.engine import FileContext, Finding, Rule

__all__ = [
    "GlobalRandomRule",
    "UnseededRngRule",
    "ProcessGlobalCounterRule",
    "RealIoInHandlerRule",
    "PrintInLibraryRule",
]

_RANDOM_GLOBALS = frozenset(
    f"random.{fn}"
    for fn in (
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
        "expovariate", "betavariate", "paretovariate", "vonmisesvariate",
        "weibullvariate", "triangular", "getrandbits", "randbytes", "seed",
    )
)
_ENTROPY_CALLS = frozenset({"uuid.uuid1", "uuid.uuid4", "os.urandom"})


class GlobalRandomRule(Rule):
    code = "TAU002"
    name = "global-random"
    summary = "Module-global randomness bypasses the seeded RngRegistry."
    default_includes = ("src/", "scripts/")

    def check(self, ctx: FileContext) -> typing.Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            if resolved in _RANDOM_GLOBALS:
                yield ctx.finding(
                    self,
                    node,
                    f"{resolved}() draws from the process-global RNG; use "
                    "sim.rng.stream(name) so draws are seeded and isolated",
                )
            elif resolved in _ENTROPY_CALLS:
                yield ctx.finding(
                    self,
                    node,
                    f"{resolved}() is fresh entropy every run; mint ids from "
                    "sim.ids(kind) or draw from a seeded stream",
                )
            elif resolved.startswith("secrets."):
                yield ctx.finding(
                    self,
                    node,
                    f"{resolved}() is cryptographic entropy; simulations need "
                    "reproducible draws from sim.rng",
                )


class UnseededRngRule(Rule):
    code = "TAU010"
    name = "unseeded-rng"
    summary = "RNG constructed without an explicit seed."
    default_includes = ("src/", "scripts/")

    _CONSTRUCTORS = frozenset(
        {
            "random.Random",
            "numpy.random.default_rng",
            "numpy.random.RandomState",
            "numpy.random.Generator",
        }
    )

    def check(self, ctx: FileContext) -> typing.Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved == "random.SystemRandom":
                yield ctx.finding(
                    self,
                    node,
                    "random.SystemRandom cannot be seeded at all; use a "
                    "seeded random.Random",
                )
                continue
            if resolved not in self._CONSTRUCTORS:
                continue
            if not node.args and not node.keywords:
                yield ctx.finding(
                    self,
                    node,
                    f"{resolved}() without a seed falls back to OS entropy; "
                    "pass a seed derived from sim.rng (e.g. numpy_seed(name))",
                )


class ProcessGlobalCounterRule(Rule):
    code = "TAU018"
    name = "process-global-counter"
    summary = "An itertools.count() shared by every simulation in the process."
    default_includes = ("src/", "scripts/")

    def check(self, ctx: FileContext) -> typing.Iterator[Finding]:
        # Everything outside a function or lambda body runs once, at
        # import or class creation (default arguments included).
        pending: list = [ctx.tree]
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                pending.extend(node.decorator_list)
                pending.append(node.args)
                continue
            if isinstance(node, ast.Lambda):
                pending.append(node.args)
                continue
            if isinstance(node, ast.Call) and ctx.resolve(node.func) == "itertools.count":
                yield ctx.finding(
                    self,
                    node,
                    "a module- or class-level itertools.count() is shared by "
                    "every simulation in the process, so a second same-seed "
                    "run mints different ids; draw from sim.ids(kind)",
                )
            pending.extend(ast.iter_child_nodes(node))


_IO_PREFIXES = (
    "socket.", "subprocess.", "requests.", "urllib.", "http.client.",
    "shutil.", "ftplib.", "smtplib.",
)
_IO_CALLS = frozenset(
    {
        "os.remove", "os.unlink", "os.system", "os.popen", "os.mkdir",
        "os.makedirs", "os.rename", "os.replace",
    }
)


class RealIoInHandlerRule(Rule):
    code = "TAU004"
    name = "handler-real-io"
    summary = "Real I/O or sleeping inside a simulated-function handler."

    def check(self, ctx: FileContext) -> typing.Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._is_handler(node):
                continue
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call):
                    continue
                message = self._violation(ctx, inner)
                if message is not None:
                    yield ctx.finding(self, inner, message)

    @staticmethod
    def _is_handler(node) -> bool:
        """Handlers are ``def f(event, ctx)`` bodies or ``@*.function()``-decorated."""
        args = node.args.posonlyargs + node.args.args
        if len(args) >= 2 and args[1].arg == "ctx":
            return True
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if isinstance(target, ast.Attribute) and target.attr == "function":
                return True
        return False

    def _violation(self, ctx: FileContext, call: ast.Call):
        resolved = ctx.resolve(call.func)
        if resolved is None:
            return None
        if resolved in ("open", "input"):
            return (
                f"builtin {resolved}() inside a handler does real host I/O; "
                "use the simulated stores (ctx.service(...)) and charge_io"
            )
        if resolved in _IO_CALLS or any(
            resolved.startswith(prefix) for prefix in _IO_PREFIXES
        ):
            return (
                f"{resolved}() performs real I/O inside a handler; handlers "
                "model I/O with ctx.charge_io and simulated services"
            )
        return None


class PrintInLibraryRule(Rule):
    code = "TAU016"
    name = "print-in-library"
    summary = "print() in library code; report through metrics or traces."
    default_includes = ("src/",)

    def check(self, ctx: FileContext) -> typing.Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield ctx.finding(
                    self,
                    node,
                    "library code must not print; surface state through "
                    "metrics, traces, or returned reports",
                )
