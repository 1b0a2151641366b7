"""Router spec/registry: address routers by name + parameters.

Every routing algorithm in the library is registered under a short key
("alg-n-fusion", "q-cast", "q-cast-n", "b1", "mcf") and can be built
from a :class:`RouterSpec` — a serializable ``(key, params)`` record —
instead of a hand-constructed Python object.  This gives every layer a
common currency:

* the CLIs accept ``--routers KEY[:param=val,...]`` strings and parse
  them with :func:`parse_router_specs`;
* the experiments runner expands specs into router instances right
  before execution (specs are tiny and picklable, so they cross process
  boundaries cheaply);
* the result cache derives router identity from ``config_dict()``,
  which is stable across processes and releases (unlike ``repr`` or
  instance identity).

Registering a new router is one decorator::

    @register_router("my-router")
    @dataclass
    class MyRouter:
        threshold: float = 0.5
        name: str = "MY-ROUTER"

        def route(self, network, demands, link_model=None, swap_model=None,
                  *, ledger=None, rate_cache=None,
                  banned_nodes=frozenset(), banned_edges=frozenset()):
            ...

after which ``RouterSpec.from_string("my-router:threshold=0.25")``,
``make_router("my-router")`` and every experiment CLI's ``--routers``
flag can address it.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, List, Optional, Protocol, Tuple,
    runtime_checkable,
)

from repro.network.demands import DemandSet
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
import repro.specs as specs
from repro.specs import SpecBase, SpecError

if TYPE_CHECKING:
    from repro.routing.allocation import QubitLedger
    from repro.routing.metrics import ChannelRateCache


class RouterSpecError(SpecError):
    """A router key, parameter or spec string is invalid.

    Subclasses :class:`ValueError` as well so ``argparse`` type callables
    can surface the message as a normal usage error.
    """


@runtime_checkable
class Router(Protocol):
    """What the experiments layer requires of a routing algorithm."""

    name: str

    def route(
        self,
        network: QuantumNetwork,
        demands: DemandSet,
        link_model: Optional[LinkModel] = None,
        swap_model: Optional[SwapModel] = None,
        *,
        ledger: Optional[QubitLedger] = None,
        rate_cache: Optional[ChannelRateCache] = None,
        banned_nodes: FrozenSet[int] = frozenset(),
        banned_edges: FrozenSet[Tuple[int, int]] = frozenset(),
    ) -> "RoutingResult":  # noqa: F821 - avoids a circular import
        """Route *demands* over *network* and report analytic rates,
        keeping the plan's qubits in *ledger* (fresh when omitted) and
        routing around banned elements as if they were absent."""
        ...

    def config_dict(self) -> Dict:
        """Stable, JSON-ready identity: registry key + full parameters."""
        ...


# Write-once at import time (decorators run as modules load), identical
# in every worker process — deliberate registries, not accumulating
# caches, hence the RPL006 suppressions.
_REGISTRY: Dict[str, type] = {}  # repro: noqa[RPL006]
_ALIASES: Dict[str, str] = {}  # repro: noqa[RPL006]
_BUILTINS_LOADED = False


def _load_builtins() -> None:
    """Import the bundled router modules so their registrations run.

    Deferred to first lookup: the router modules import this module for
    the decorator, so importing them here at module load would cycle.
    """
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        import repro.routing.baselines  # noqa: F401
        import repro.routing.nfusion  # noqa: F401


#: Legal registry keys/aliases: lowercase, and free of the spec-string
#: separators (``:`` ``,`` ``=``) and whitespace that would make them
#: unparseable from the CLI.
_KEY_PATTERN = re.compile(r"[a-z0-9][a-z0-9._-]*")


def _default_config_dict(self) -> Dict:
    """Registry key plus every dataclass field (defaults included)."""
    cls = type(self)
    if _REGISTRY.get(cls.registry_key) is not cls:
        # An unregistered subclass inherits registry_key; claiming the
        # base class's identity would poison cache keys and specs.
        raise RouterSpecError(
            f"{cls.__name__} is not a registered router (it inherits "
            f"{cls.registry_key!r} from a base class); decorate it with "
            "@register_router to give it its own identity"
        )
    return {
        "key": cls.registry_key,
        "params": dataclasses.asdict(self),
    }


def register_router(key: str, aliases: Tuple[str, ...] = ()):
    """Class decorator registering a router dataclass under *key*.

    Stamps ``registry_key`` on the class and, unless the class defines
    its own, a ``config_dict()`` deriving the router's stable identity
    from its dataclass fields.  *aliases* are accepted anywhere a key is
    (CLI strings, :func:`make_router`) and normalize to *key*.
    """

    def decorate(cls):
        # Make sure the bundled routers are present before collision
        # checks (no-op while the builtin modules themselves load).
        _load_builtins()
        if not dataclasses.is_dataclass(cls):
            raise TypeError(
                f"register_router requires a dataclass, got {cls.__name__}"
            )
        for name in (key, *aliases):
            if not _KEY_PATTERN.fullmatch(name):
                # Lookups lowercase their input and spec strings reserve
                # the separator characters, so such a name would be
                # permanently unreachable or unparseable.
                raise RouterSpecError(
                    f"invalid router key/alias {name!r}: must be "
                    "lowercase and match "
                    f"{_KEY_PATTERN.pattern!r}"
                )
        existing = _REGISTRY.get(key)
        if existing is not None and existing is not cls:
            raise RouterSpecError(
                f"router key {key!r} already registered to "
                f"{existing.__name__}"
            )
        if _ALIASES.get(key, key) != key:
            raise RouterSpecError(
                f"router key {key!r} is already an alias of "
                f"{_ALIASES[key]!r}"
            )
        for alias in aliases:
            # An alias may neither shadow a registered key (aliases win
            # during lookup, so that would silently hijack the key) nor
            # redirect an alias some other router already owns.
            if alias in _REGISTRY and _REGISTRY[alias] is not cls:
                raise RouterSpecError(
                    f"alias {alias!r} collides with the registered "
                    f"router key {alias!r}"
                )
            if _ALIASES.get(alias, key) != key:
                raise RouterSpecError(
                    f"alias {alias!r} already points to {_ALIASES[alias]!r}"
                )
        _REGISTRY[key] = cls
        cls.registry_key = key
        if "config_dict" not in cls.__dict__:
            cls.config_dict = _default_config_dict
        for alias in aliases:
            _ALIASES[alias] = key
        return cls

    return decorate


def router_keys() -> List[str]:
    """All registered canonical router keys, sorted."""
    _load_builtins()
    return sorted(_REGISTRY)


def normalize_key(key: str) -> str:
    """Resolve *key* (or an alias) to its canonical registry key."""
    _load_builtins()
    candidate = key.strip().lower()
    candidate = _ALIASES.get(candidate, candidate)
    if candidate not in _REGISTRY:
        raise RouterSpecError(
            f"unknown router key {key!r}; known routers: "
            f"{', '.join(router_keys())}"
        )
    return candidate


def router_class(key: str) -> type:
    """The router class registered under *key* (aliases accepted)."""
    return _REGISTRY[normalize_key(key)]


@dataclass(frozen=True)
class RouterSpec(SpecBase):
    """A router addressed by registry key plus explicit parameters.

    ``params`` holds only the parameters that differ from the router
    class's defaults as a sorted tuple of ``(name, value)`` pairs, so
    specs are hashable, picklable and canonically comparable.  Use
    :meth:`create` / :meth:`from_string` rather than the raw constructor;
    both normalize the key and validate parameter names against the
    router class's fields, whose annotations type the values.
    """

    key: str
    params: Tuple[Tuple[str, object], ...] = ()

    spec_what = "router"
    spec_error = RouterSpecError
    spec_key = "key"
    # ``=`` and ``:`` stay out of values so every spec in a --routers
    # list re-parses; ``name=`` (an empty label) is allowed.
    spec_reserved = ",:="
    spec_allow_empty_value = True

    def __post_init__(self):
        object.__setattr__(self, "key", normalize_key(self.key))
        fields = self.spec_fields(self.key)
        params = dict(self.params)
        unknown = [name for name in params if name not in fields]
        if unknown:
            raise RouterSpecError(
                f"unknown parameter(s) {', '.join(repr(u) for u in unknown)} "
                f"for router {self.key!r}; valid parameters: "
                f"{', '.join(sorted(fields))}"
            )
        # Coerce by the field's declared type, then drop explicit
        # defaults so equal configurations are equal specs (and hash
        # identically into cache keys).
        cls = _REGISTRY[self.key]
        hints = specs.field_hints(cls)
        coerced = {
            name: specs.coerce_value(
                value, hints.get(name),
                f"parameter {name!r} of router {self.key!r}",
                RouterSpecError, self.spec_reserved,
            )
            for name, value in params.items()
        }
        # Build once so a router's own value checks (its __post_init__)
        # reject an out-of-range spec here, at CLI parse time.
        cls(**coerced)
        canonical = tuple(
            sorted(
                (name, value)
                for name, value in coerced.items()
                if value != fields[name].default
            )
        )
        object.__setattr__(self, "params", canonical)

    @classmethod
    def spec_fields(cls, key: str) -> Dict[str, dataclasses.Field]:
        """A router spec's parameters are its router class's fields."""
        return {f.name: f for f in dataclasses.fields(router_class(key))}

    @classmethod
    def spec_hints(cls, key: str) -> Dict[str, object]:
        return specs.field_hints(router_class(key))

    @classmethod
    def _build(cls, key: str, values: Dict[str, object]) -> "RouterSpec":
        return cls.create(key, **values)

    @classmethod
    def create(cls, key: str, **params) -> "RouterSpec":
        """Spec for *key* with keyword parameter overrides."""
        return cls(key, tuple(params.items()))

    @classmethod
    def coerce(cls, router) -> "RouterSpec":
        """A spec from a spec, spec string or registered router instance.

        Instance coercion keeps only the fields that differ from the
        class defaults, so ``RouterSpec.coerce(AlgNFusion())`` equals
        ``RouterSpec.create("alg-n-fusion")``.
        """
        if isinstance(router, (RouterSpec, str)):
            return super().coerce(router)
        key = getattr(type(router), "registry_key", None)
        # The class itself must be the registered one: an unregistered
        # subclass inherits registry_key, and coercing it to the base
        # spec would silently rebuild (and evaluate) the wrong router.
        if key is not None and _REGISTRY.get(key) is type(router):
            overrides = {
                field.name: getattr(router, field.name)
                for field in dataclasses.fields(router)
                if getattr(router, field.name) != field.default
            }
            return cls.create(key, **overrides)
        raise RouterSpecError(
            f"cannot derive a RouterSpec from {router!r}; pass a "
            "RouterSpec, a spec string, or an instance of a "
            "@register_router class (subclasses need their own "
            "registration)"
        )

    def spec_items(self) -> List[Tuple[str, object]]:
        return list(self.params)

    def param_dict(self) -> Dict[str, object]:
        """The explicit parameter overrides as a plain dict."""
        return dict(self.params)

    def build(self) -> Router:
        """Instantiate the registered router class with these params."""
        return _REGISTRY[self.key](**self.param_dict())

    def config_dict(self) -> Dict:
        """Identical to the built router's ``config_dict()`` — the full
        field set, not just the overrides — so cache keys are stable
        whether derived from the spec or the instance."""
        return self.build().config_dict()


def make_router(key: str, **params) -> Router:
    """Build a registered router: ``make_router("alg-n-fusion", h=5)``."""
    return RouterSpec.create(key, **params).build()


def parse_router_specs(text: str) -> List[RouterSpec]:
    """Parse a CLI ``--routers`` value into specs.

    The value is comma-separated; a segment containing ``=`` but no
    ``:`` before it continues the previous spec's parameter list, so
    ``"alg-n-fusion:include_alg4=false,h=5,q-cast"`` is two specs.
    """
    return [
        RouterSpec.from_string(group)
        for group in specs.split_spec_list(text, "router", RouterSpecError)
    ]
