"""RPL004: cache-key completeness for ``*Spec`` dataclasses.

The result cache keys work by each spec's ``config_dict()`` /
``to_string()`` emission.  Most of it is derived from the dataclass
fields by :class:`repro.specs.SpecBase`, but each grammar still
declares tables the derivation reads — which parameters each key takes
(``spec_kinds``, e.g. ``EstimatorSpec``'s ``mc`` parameters), renamed
parameters (``ScenarioSpec.spec_names``) — and some keep a
hand-written ``config_dict`` pinning historical cache digests
(``EstimatorSpec`` omits its survival masks when they are off).  Those
are where stale-cache incidents are born: add a dataclass field,
forget the table or the override, and two genuinely different
workloads share a cache entry or a spec string stops round-tripping.

The check is a mention audit: every declared field of a dataclass whose
name ends in ``Spec`` (and that has at least one emission method) must
be *mentioned by name* — as a ``self.<field>`` access or a whole-word
string literal — somewhere in the class body or the module-level
constants feeding it.  Adding a field without threading it through the
emission machinery therefore fails lint instead of corrupting caches.

Subclasses of :class:`repro.specs.SpecBase` are always cache-key
classes — their inherited ``config_dict``/``to_string`` feed the result
cache by contract — so they are audited even when they define no
emission method of their own (inheriting every emission must not
silence the audit).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Set, Tuple

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import FileContext
from repro.lint.rules.common import LintRule, diagnostic

CODE = "RPL004"

#: Methods whose bodies constitute a spec's cache/serialization identity.
EMISSION_METHODS = ("config_dict", "to_string", "fingerprint", "cache_key")

_CLASS_NAME = re.compile(r".+Spec\Z")

#: Base-class names that mark a class as a cache-key class regardless
#: of which emission methods it defines itself.
SPEC_BASES = ("SpecBase",)


def _inherits_spec_base(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else ""
        )
        if name in SPEC_BASES:
            return True
    return False


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        if name == "dataclass":
            return True
    return False


def _declared_fields(node: ast.ClassDef) -> List[ast.AnnAssign]:
    fields: List[ast.AnnAssign] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        if stmt.target.id.startswith("_"):
            continue
        annotation = ast.unparse(stmt.annotation)
        if "ClassVar" in annotation or "InitVar" in annotation:
            continue
        fields.append(stmt)
    return fields


def _mentions(nodes: List[ast.AST]) -> "Tuple[Set[str], str]":
    """(self-attribute names, concatenated string literals) in *nodes*."""
    attrs: Set[str] = set()
    strings: List[str] = []
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                strings.append(node.value)
    return attrs, "\n".join(strings)


def _word_in(name: str, text: str) -> bool:
    return re.search(rf"(?<![A-Za-z0-9_]){re.escape(name)}(?![A-Za-z0-9_])",
                     text) is not None


def check(ctx: FileContext) -> Iterator[Diagnostic]:
    module_constants: List[ast.AST] = [
        stmt for stmt in ctx.tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
    ]
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not _CLASS_NAME.fullmatch(node.name):
            continue
        if not _is_dataclass_decorated(node):
            continue
        method_names = {
            stmt.name for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if not method_names.intersection(EMISSION_METHODS) \
                and not _inherits_spec_base(node):
            continue  # not a cache-key class; nothing to audit
        attrs, strings = _mentions([node, *module_constants])
        for field in _declared_fields(node):
            assert isinstance(field.target, ast.Name)
            name = field.target.id
            if name in attrs or _word_in(name, strings):
                continue
            yield diagnostic(
                ctx, field, CODE,
                f"field {name!r} of {node.name} appears in no "
                f"emission path ({'/'.join(EMISSION_METHODS[:2])} or the "
                "module's param tables); an unkeyed spec knob means "
                "stale cache hits — thread it through or noqa it",
            )


RULE = LintRule(
    code=CODE,
    name="cache-key-completeness",
    summary=(
        "every field of a *Spec dataclass must be reflected in its "
        "config_dict()/to_string() emission machinery"
    ),
    check=check,
)
