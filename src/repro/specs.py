"""The declarative ``key[:name=value,...]`` spec grammar.

Every user-facing configuration axis is a frozen dataclass deriving
from :class:`SpecBase`: :class:`~repro.routing.registry.RouterSpec`,
:class:`~repro.experiments.scenarios.ScenarioSpec`,
:class:`~repro.experiments.estimators.EstimatorSpec`,
:class:`~repro.service.arrivals.ArrivalSpec`,
:class:`~repro.service.faults.FaultSpec` and
:class:`~repro.service.faults.RepairSpec`, plus the one-parameter
grammars nested inside two of them
(:class:`~repro.service.arrivals.HoldSpec`,
:class:`~repro.service.faults.BackoffSpec`).  The dataclass *is* the
grammar; the base derives the rest from its fields:

* parsing (``from_string``, alias ``parse``): the key fills
  ``spec_key``; each ``name=value`` fills the field of that name
  (``spec_names`` renames fields, e.g. the scenario's ``switches``);
* typed values: a value parses by shape (:func:`parse_value`), then is
  coerced by its field annotation (:func:`coerce_value`) — bool, int,
  float, str, ``Optional[...]`` or a nested spec.  Floats must be
  finite: NaN breaks spec equality and infinity makes rates and
  means degenerate;
* canonical strings (``to_string``): the key, then every parameter
  that has no default or differs from it, in declared order;
* identity (``config_dict``): the key plus every parameter the key
  takes, nested specs as their own ``config_dict`` — what cache keys
  hash;
* coercion (``coerce``): a spec, a spec string or ``None`` (the
  default spec) to a spec.

A grammar whose keys take different parameters lists them in
``spec_kinds`` (``analytic`` takes none, ``mc`` takes five);
``spec_kind_defaults`` holds a key's own defaults (``mc`` means 500
vectorized trials).  A parameter outside its key's list must keep the
key's default, so e.g. ``drop:retries=1`` is refused.  Each grammar
then adds only its range checks (``__post_init__``) and any
``config_dict`` override pinning historical cache digests.

Errors are uniform: malformed items, duplicates and unknown names are
reported identically, unknown-name errors list the valid names, and
each grammar raises its own :class:`SpecError` subclass.  Spec strings
and cache keys are byte-identical to the hand-written parsers this
replaced (``tests/test_specs.py`` pins a corpus of canonical strings,
``config_dict`` values and cache digests).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import sys
import types
import typing
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from repro.exceptions import ConfigurationError


class SpecError(ConfigurationError, ValueError):
    """A spec string's key, parameter or value is invalid.

    Subclasses :class:`ValueError` so ``argparse`` type callables can
    surface the message as a normal usage error.  Each grammar raises
    its own subclass (``RouterSpecError``, ``ScenarioSpecError``,
    ``EstimatorSpecError``, ``ArrivalSpecError``, ``FaultSpecError``),
    so existing ``except`` clauses keep working while ``except
    SpecError`` catches any of them.
    """


# ----------------------------------------------------------------------
# Value grammar


def parse_value(text: str):
    """Spec-string value syntax: bool / none / int / float / str."""
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_typed(text: str, hint):
    """:func:`parse_value`, except that a str field keeps its text as
    written (``name=007`` is the label ``"007"``, not ``"7"``); ``none``
    still means None."""
    value = parse_value(text)
    if value is not None and _unwrap_optional(hint)[0] is str:
        return text
    return value


def check_spec_string(
    value: str, error: Type[SpecError] = SpecError, reserved: str = ",:="
) -> str:
    """Reject str values the spec grammar cannot re-parse.

    *reserved* separators and surrounding whitespace are lost in
    parsing, and ``none``/``null`` parse back as None; numeric-looking
    strings are fine — a str field keeps its text.
    """
    if (
        any(sep in value for sep in reserved)
        or value != value.strip()
        or value.lower() in ("none", "null")
    ):
        raise error(
            f"string parameter value {value!r} does not survive a "
            "spec-string round trip"
        )
    return value


def format_value(
    value, error: Type[SpecError] = SpecError, reserved: str = ",:="
) -> str:
    """Inverse of :func:`parse_value`; rejects unrepresentable values.
    A nested spec renders as its own spec string."""
    if isinstance(value, SpecBase):
        return value.to_string()
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "none"
    if isinstance(value, str):
        return check_spec_string(value, error, reserved)
    rendered = repr(value) if isinstance(value, float) else str(value)
    if parse_value(rendered) != value:
        # E.g. a container value on an unannotated custom field: its
        # str() form would parse back as something else entirely.
        raise error(
            f"parameter value {value!r} does not survive a spec-string "
            "round trip"
        )
    return rendered


@functools.lru_cache(maxsize=None)
def field_hints(cls: type) -> Dict[str, Any]:
    """The resolved annotation of each dataclass field of *cls*.

    Empty when an annotation names something that cannot be resolved
    (a custom router's local type): its values then pass through
    :func:`coerce_value` unchecked.
    """
    fields = dataclasses.fields(cls)
    # Only the fields' own annotations, in the class's module namespace
    # (resolving the whole class would re-evaluate SpecBase's too).
    annotated = types.SimpleNamespace(
        __annotations__={field.name: field.type for field in fields}
    )
    try:
        return typing.get_type_hints(
            annotated, globalns=vars(sys.modules[cls.__module__])
        )
    except (NameError, TypeError, AttributeError):
        return {}


def _unwrap_optional(hint) -> Tuple[Any, bool]:
    """``(X, True)`` for ``Optional[X]``, else ``(hint, False)``."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        args = typing.get_args(hint)
        if len(args) == 2 and type(None) in args:
            return next(arg for arg in args if arg is not type(None)), True
    return hint, False


def coerce_value(
    value,
    hint,
    label: str,
    error: Type[SpecError] = SpecError,
    reserved: str = ",:=",
):
    """Coerce *value* to the field annotation *hint*, or raise *error*.

    Values arrive typed by :func:`parse_typed` or by code, so
    ``include_alg4=0`` arrives as an int that must canonicalize to
    ``False`` for cache keys to match the ``false`` spelling, and
    ``name=123`` set from code is the label ``"123"``.  Ints fill float
    fields; floats must be finite; a nested spec field takes a spec or
    its spec string.  Type-invalid values raise here — at the CLI's
    parse-time validators — instead of deep inside a run.  Other
    annotations pass values through (str values still checked
    printable).  *label* names the parameter in messages.
    """
    hint, optional = _unwrap_optional(hint)
    nested = isinstance(hint, type) and issubclass(hint, SpecBase)
    if not nested and hint not in (str, bool, int, float):
        if isinstance(value, str):
            check_spec_string(value, error, reserved)
        return value
    if value is None:
        if optional:
            return None
        raise error(f"{label} must be {hint.__name__}, got none")
    if nested:
        return hint.coerce(value)
    if hint is str:
        if not isinstance(value, str):
            value = format_value(value, error, reserved)
        return check_spec_string(value, error, reserved)
    if hint is bool:
        if isinstance(value, bool):
            return value
        if value in (0, 1):
            return bool(value)
    elif hint is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise error(
                f"{label} must be finite (not NaN or infinity), "
                f"got {value!r}"
            )
        return value
    raise error(
        f"{label} must be {'an optional ' if optional else ''}"
        f"{hint.__name__}, got {value!r}"
    )


# ----------------------------------------------------------------------
# Tokenizer


def split_spec(
    text: str, what: str, error: Type[SpecError] = SpecError
) -> Tuple[str, Optional[str]]:
    """Split ``"key[:rest]"`` into ``(key, rest)``.

    ``rest`` is ``None`` when no ``:`` separator is present (so
    ``"key:"`` yields ``(key, "")`` — an empty parameter list — and the
    caller can tell the two apart).  An empty key raises.
    """
    key, sep, rest = text.strip().partition(":")
    if not key:
        raise error(f"empty {what} key in spec {text!r}")
    return key, (rest if sep else None)


def parse_params(
    rest: str,
    *,
    text: str,
    what: str,
    error: Type[SpecError] = SpecError,
    valid: Optional[Sequence[str]] = None,
    forbid_eq_in_value: bool = False,
    allow_empty_value: bool = False,
) -> Dict[str, str]:
    """Tokenize ``"name=value,name=value"`` into an ordered dict of raw
    string values.

    Uniform error policy across every spec grammar: a missing ``=`` or
    empty name (or empty value, unless allowed) is *malformed*; a
    repeated name is a *duplicate*; names outside *valid* (when given)
    are reported together, sorted, with the valid names listed.  Value
    conversion stays with the caller, so this function never loses
    information.
    """
    params: Dict[str, str] = {}
    for item in rest.split(","):
        name, eq, value = item.partition("=")
        name, value = name.strip(), value.strip()
        malformed = (
            not eq
            or not name
            or (not value and not allow_empty_value)
            or (forbid_eq_in_value and "=" in value)
        )
        if malformed:
            raise error(
                f"malformed parameter {item!r} in {what} spec {text!r}; "
                "expected name=value"
            )
        if name in params:
            raise error(
                f"duplicate parameter {name!r} in {what} spec {text!r}"
            )
        params[name] = value
    if valid is not None:
        unknown = sorted(set(params) - set(valid))
        if unknown:
            listing = (
                f"valid parameters: {', '.join(sorted(valid))}"
                if valid else "it takes none"
            )
            raise error(
                f"unknown parameter(s) "
                f"{', '.join(repr(u) for u in unknown)} in {what} spec "
                f"{text!r}; {listing}"
            )
    return params


def split_spec_list(
    text: str, what: str, error: Type[SpecError] = SpecError
) -> List[str]:
    """Split a comma-separated list of spec strings.

    A segment containing ``=`` before any ``:`` continues the previous
    spec's parameter list, so ``"grid:switches=64,users=8,ring"`` is
    two specs.
    """
    groups: List[str] = []
    for segment in text.split(","):
        colon, eq = segment.find(":"), segment.find("=")
        if eq != -1 and (colon == -1 or eq < colon):
            if not groups:
                raise error(
                    f"{what} list {text!r} starts with a parameter "
                    f"({segment!r}) instead of a {what} key"
                )
            groups[-1] += "," + segment
        else:
            groups.append(segment)
    return [group.strip() for group in groups]


# ----------------------------------------------------------------------
# The declarative base


def _required(field: dataclasses.Field) -> bool:
    return (
        field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    )


class SpecBase:
    """Mixin deriving a spec dataclass's grammar from its fields (see
    the module docstring); subclasses declare the class attributes
    below and their own range checks."""

    #: Noun naming the grammar in error messages ("router", ...).
    spec_what: str = "spec"
    #: The SpecError subclass this grammar raises.
    spec_error: Type[SpecError] = SpecError
    #: The field the spec string's key fills (every grammar names it).
    spec_key: str
    #: Field -> spec-string parameter name, where the two differ.
    spec_names: Mapping[str, str] = {}
    #: Key -> the parameters it takes; ``None``: every key takes every
    #: parameter (and ``__post_init__`` validates the key itself).
    spec_kinds: Optional[Mapping[str, Sequence[str]]] = None
    #: Key -> {field: value} defaults that differ from the dataclass's.
    spec_kind_defaults: Mapping[str, Mapping[str, Any]] = {}
    #: Separators a str value may not contain.  The tokenizer always
    #: splits items on ``,``; a grammar reserving ``=`` also refuses it
    #: inside a value.
    spec_reserved: str = ","
    #: Whether ``name=`` (an empty string value) parses.
    spec_allow_empty_value: bool = False

    # -- the parameter table -------------------------------------------

    @classmethod
    def param_fields(cls) -> Dict[str, dataclasses.Field]:
        """Parameter name -> dataclass field, in declared order."""
        return {
            cls.spec_names.get(field.name, field.name): field
            for field in dataclasses.fields(cls)
            if field.name != cls.spec_key
        }

    @classmethod
    def spec_hints(cls, key: str) -> Dict[str, Any]:
        """Resolved annotations of the fields :meth:`spec_fields` lists."""
        return field_hints(cls)

    @classmethod
    def spec_fields(cls, key: str) -> Dict[str, dataclasses.Field]:
        """The parameters *key* takes (:meth:`param_fields` filtered by
        ``spec_kinds``); an unknown key of a kinded grammar raises."""
        params = cls.param_fields()
        if cls.spec_kinds is None:
            return params
        if key not in cls.spec_kinds:
            raise cls.spec_error(
                f"unknown {cls.spec_what} kind {key!r}; known kinds: "
                f"{', '.join(cls.spec_kinds)}"
            )
        takes = cls.spec_kinds[key]
        return {name: f for name, f in params.items() if name in takes}

    # -- construction --------------------------------------------------

    def __post_init__(self) -> None:
        """Coerce every field by its annotation, then check that the
        parameters the key does not take keep the key's defaults."""
        hints = field_hints(type(self))
        for field in dataclasses.fields(self):
            name = self.spec_names.get(field.name, field.name)
            object.__setattr__(self, field.name, coerce_value(
                getattr(self, field.name), hints.get(field.name),
                f"{self.spec_what} parameter {name!r}", self.spec_error,
                self.spec_reserved,
            ))
        if self.spec_kinds is None:
            return
        key = getattr(self, self.spec_key)
        takes = self.spec_fields(key)
        defaults = self.spec_kind_defaults.get(key, {})
        for name, field in self.param_fields().items():
            default = defaults.get(field.name, field.default)
            if name not in takes and getattr(self, field.name) != default:
                raise self.spec_error(
                    f"{self.spec_what} kind {key!r} takes no {name}= "
                    "parameter"
                )

    @classmethod
    def _build(cls, key: str, values: Dict[str, Any]):
        """The spec for *key* with parsed field *values*."""
        return cls(**{cls.spec_key: key}, **values)

    # -- the uniform surface -------------------------------------------

    @classmethod
    def from_string(cls, text: str):
        """Parse ``key[:name=value,...]``."""
        key, rest = split_spec(text, cls.spec_what, cls.spec_error)
        key = key.lower()
        fields = cls.spec_fields(key)
        given: Dict[str, str] = {}
        if rest is not None:
            given = parse_params(
                rest, text=text, what=cls.spec_what, error=cls.spec_error,
                valid=list(fields),
                forbid_eq_in_value="=" in cls.spec_reserved,
                allow_empty_value=cls.spec_allow_empty_value,
            )
        missing = [
            name for name, field in fields.items()
            if _required(field) and name not in given
        ]
        if missing:
            raise cls.spec_error(
                f"{cls.spec_what} spec {text!r} needs "
                f"{', '.join(f'{name}=VALUE' for name in missing)}"
            )
        hints = cls.spec_hints(key)
        values = dict(cls.spec_kind_defaults.get(key, {}))
        for name, text in given.items():
            attr = fields[name].name
            values[attr] = parse_typed(text, hints.get(attr))
        return cls._build(key, values)

    @classmethod
    def parse(cls, text: str):
        """Parse a spec string (alias of ``from_string``)."""
        return cls.from_string(text)

    @classmethod
    def coerce(cls, value):
        """A spec from a spec, a spec string or ``None`` (the grammar's
        default spec)."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        raise cls.spec_error(
            f"{cls.spec_what} must be a spec string or {cls.__name__}, "
            f"got {type(value).__name__}"
        )

    def spec_items(self) -> List[Tuple[str, Any]]:
        """The ``(name, value)`` pairs :meth:`to_string` renders: each
        parameter the key takes that has no default or differs from
        it, in declared order."""
        return [
            (name, getattr(self, field.name))
            for name, field in self.spec_fields(
                getattr(self, self.spec_key)
            ).items()
            if _required(field) or getattr(self, field.name) != field.default
        ]

    def to_string(self) -> str:
        """The canonical spec string; round-trips via :meth:`from_string`."""
        key = getattr(self, self.spec_key)
        rendered = ",".join(
            f"{name}="
            + format_value(value, self.spec_error, self.spec_reserved)
            for name, value in self.spec_items()
        )
        return f"{key}:{rendered}" if rendered else key

    def __str__(self) -> str:
        return self.to_string()

    def config_dict(self) -> Dict:
        """Stable, JSON-ready identity for cache keys: the key plus every
        parameter the key takes, nested specs as their own identity."""
        key = getattr(self, self.spec_key)
        data: Dict[str, Any] = {self.spec_key: key}
        for field in self.spec_fields(key).values():
            value = getattr(self, field.name)
            data[field.name] = (
                value.config_dict() if isinstance(value, SpecBase) else value
            )
        return data


class TraceFileMixin:
    """For a grammar whose ``trace`` kind replays ``file=PATH`` (mix in
    before :class:`SpecBase`): the file is required, and its identity
    is the file *contents* (sha256), not its path — renaming a trace
    hits the same cache entries, editing one misses."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind == "trace" and not self.file:
            raise self.spec_error(f"trace {self.spec_what}s need file=PATH")

    def config_dict(self) -> Dict:
        if self.kind != "trace":
            return super().config_dict()
        digest = hashlib.sha256(Path(self.file).read_bytes()).hexdigest()
        return {"kind": "trace", "trace_sha256": digest}


def spec_subclasses() -> List[type]:
    """Every top-level spec grammar (imported lazily; the subclasses
    live in heavier packages this base module must not pull in)."""
    from repro.experiments.estimators import EstimatorSpec
    from repro.experiments.scenarios import ScenarioSpec
    from repro.routing.registry import RouterSpec
    from repro.service.arrivals import ArrivalSpec
    from repro.service.faults import FaultSpec, RepairSpec

    return [
        RouterSpec, ScenarioSpec, EstimatorSpec, ArrivalSpec,
        FaultSpec, RepairSpec,
    ]
