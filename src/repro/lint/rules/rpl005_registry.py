"""RPL005: registry targets must structurally satisfy their protocols.

``@register_router`` and ``@register_topology`` are the extension
points every axis of the experiment grid goes through.  A registration
that does not satisfy the protocol (a router without ``route``/``name``,
a topology builder that cannot accept ``(config, rng)``) only explodes
when that key is first exercised — typically deep inside a sweep.  This
rule front-loads the structural checks to lint time.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Union

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import FileContext
from repro.lint.rules.common import LintRule, decorator_key, diagnostic

CODE = "RPL005"

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Parameters a router's ``route`` must accept after ``self``.
_ROUTE_REQUIRED = ("network", "demands")
_ROUTE_OPTIONAL = ("link_model", "swap_model")
#: Keyword-only parameters, each with a default, through which a caller
#: (the serving loop) hands in its ledger, rate cache and bans.
_ROUTE_KEYWORD = ("ledger", "rate_cache", "banned_nodes", "banned_edges")
_PROTOCOL = (
    "route(self, network, demands, link_model=None, swap_model=None, *, "
    "ledger=None, rate_cache=None, banned_nodes=frozenset(), "
    "banned_edges=frozenset())"
)


def _has_decorator(node: ast.ClassDef, key: str) -> bool:
    return any(decorator_key(dec) == key for dec in node.decorator_list)


def _find_method(node: ast.ClassDef, name: str) -> Optional[_FunctionNode]:
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and stmt.name == name:
            return stmt
    return None


def _defines_name_attribute(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.target.id == "name":
            return True
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "name":
                    return True
    return False


def _check_route_signature(
    ctx: FileContext, cls: ast.ClassDef, route: _FunctionNode
) -> Iterator[Diagnostic]:
    args = route.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    if positional[:1] != ["self"]:
        yield diagnostic(
            ctx, route, CODE,
            f"{cls.name}.route must be an instance method "
            "(self, network, demands, ...)",
        )
        return
    names = set(positional[1:]) | {a.arg for a in args.kwonlyargs}
    if args.vararg is not None and args.kwarg is not None:
        return  # (*args, **kwargs) forwards anything; accept it
    missing = [p for p in _ROUTE_REQUIRED if p not in names]
    if missing and args.vararg is None:
        yield diagnostic(
            ctx, route, CODE,
            f"{cls.name}.route is missing required parameter(s) "
            f"{', '.join(repr(m) for m in missing)}; the Router "
            f"protocol is {_PROTOCOL}",
        )
    if args.kwarg is None:
        missing_kw = [
            p for p in (*_ROUTE_OPTIONAL, *_ROUTE_KEYWORD) if p not in names
        ]
        if missing_kw:
            yield diagnostic(
                ctx, route, CODE,
                f"{cls.name}.route does not accept "
                f"{', '.join(repr(m) for m in missing_kw)}; the "
                "experiments layer and the serving loop pass them by "
                "keyword",
            )
    defaulted = {
        a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    }
    loose = [p for p in _ROUTE_KEYWORD if p in names - defaulted]
    if loose:
        yield diagnostic(
            ctx, route, CODE,
            f"{cls.name}.route must take "
            f"{', '.join(repr(m) for m in loose)} as keyword-only "
            f"parameter(s) with a default; the Router protocol is "
            f"{_PROTOCOL}",
        )


def _check_router_class(
    ctx: FileContext, cls: ast.ClassDef
) -> Iterator[Diagnostic]:
    if not _has_decorator(cls, "dataclass"):
        yield diagnostic(
            ctx, cls, CODE,
            f"@register_router target {cls.name} must be a dataclass "
            "(the registry derives config_dict() from its fields)",
        )
    if cls.bases:
        # Inherited members can satisfy the protocol; only signatures
        # defined here are checkable statically.
        route = _find_method(cls, "route")
        if route is not None:
            yield from _check_route_signature(ctx, cls, route)
        return
    if not _defines_name_attribute(cls):
        yield diagnostic(
            ctx, cls, CODE,
            f"@register_router target {cls.name} defines no 'name' "
            "attribute; reports and figures label series by it",
        )
    route = _find_method(cls, "route")
    if route is None:
        yield diagnostic(
            ctx, cls, CODE,
            f"@register_router target {cls.name} defines no route() "
            f"method (Router protocol: {_PROTOCOL})",
        )
    else:
        yield from _check_route_signature(ctx, cls, route)


def _check_topology_builder(
    ctx: FileContext, fn: _FunctionNode
) -> Iterator[Diagnostic]:
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    required = len(positional) - len(args.defaults)
    if args.vararg is not None:
        return  # *args accepts (config, rng)
    if required > 2 or len(positional) < 2:
        yield diagnostic(
            ctx, fn, CODE,
            f"@register_topology target {fn.name} must accept exactly "
            "the builder protocol's two positional arguments "
            "(config, rng)",
        )


def check(ctx: FileContext) -> Iterator[Diagnostic]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            if _has_decorator(node, "register_router"):
                yield from _check_router_class(ctx, node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(decorator_key(dec) == "register_topology"
                   for dec in node.decorator_list):
                yield from _check_topology_builder(ctx, node)


RULE = LintRule(
    code=CODE,
    name="registry-protocol-conventions",
    summary=(
        "@register_router/@register_topology targets must structurally "
        "satisfy the Router/builder protocols"
    ),
    check=check,
)
