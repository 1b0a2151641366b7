"""RPL001: nondeterminism primitives outside ``repro/utils/rng.py``.

Every guarantee in the repo (worker/shard bit-parity, the content-
addressed cache) assumes all randomness flows through the seeded
``numpy`` generators that :mod:`repro.utils.rng` hands out.  A single
``random.random()``, ``np.random.seed`` or wall-clock read introduces
state the cache key cannot see, so results stop being a pure function
of their spec.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import FileContext
from repro.lint.rules.common import (
    LintRule,
    diagnostic,
    import_aliases,
    resolve_dotted,
)

CODE = "RPL001"

#: The one module allowed to touch RNG construction primitives.
ALLOWED_FILES = ("repro/utils/rng.py",)

#: The one module allowed to read clocks (the sanctioned ``perf_timer``
#: accessor).  Everything else must import it — latency measurement is
#: legitimate, but only through a path that is greppable in one place.
CLOCK_ALLOWED_FILES = ("repro/utils/timing.py",)

#: ``from time import <name>`` targets that count as clock reads (or,
#: for ``sleep``, wall-clock waits — simulated time never sleeps).
_TIME_IMPORT_NAMES = (
    "time", "time_ns",
    "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns",
    "sleep",
)

#: ``numpy.random`` attributes that read or mutate the legacy global
#: state (anything drawing from the process-wide default stream).
_NUMPY_GLOBAL_STATE = frozenset({
    "seed", "get_state", "set_state", "random", "rand", "randn",
    "randint", "random_integers", "random_sample", "ranf", "sample",
    "bytes", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "binomial", "poisson", "exponential", "beta",
    "gamma", "RandomState",
})

#: Wall-clock reads whose values leak into anything they touch.
_FORBIDDEN_DOTTED = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.sleep",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})


def _clock_message(dotted: str) -> str:
    if dotted == "time.sleep":
        return (
            "'time.sleep' stalls on the wall clock; the event loops run "
            "in simulated time — schedule delays deterministically "
            "(see repro.utils.retry.backoff_delays)"
        )
    return (
        f"wall-clock read '{dotted}' is nondeterministic; results must "
        "be a pure function of their spec (for latency measurement use "
        "repro.utils.timing.perf_timer)"
    )


def _is_unseeded_default_rng(node: ast.Call) -> bool:
    """True for ``default_rng()`` / ``default_rng(None)`` calls."""
    seed_args = [a for a in node.args if not isinstance(a, ast.Starred)]
    if node.args and isinstance(node.args[0], ast.Starred):
        return False  # can't see through *args; give it the benefit
    for keyword in node.keywords:
        if keyword.arg == "seed":
            seed_args.append(keyword.value)
        elif keyword.arg is None:
            return False  # **kwargs, same
    if not seed_args:
        return True
    first = seed_args[0]
    return isinstance(first, ast.Constant) and first.value is None


def check(ctx: FileContext) -> Iterator[Diagnostic]:
    if ctx.module_path.endswith(ALLOWED_FILES):
        return
    # The timing accessor may read clocks but nothing else in this rule.
    clock_ok = ctx.module_path.endswith(CLOCK_ALLOWED_FILES)
    aliases = import_aliases(ctx.tree)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random":
                    yield diagnostic(
                        ctx, node, CODE,
                        "the stdlib 'random' module is forbidden; draw "
                        "from a seeded generator via repro.utils.rng",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue
            root = node.module.split(".")[0]
            if root == "random":
                yield diagnostic(
                    ctx, node, CODE,
                    "the stdlib 'random' module is forbidden; draw "
                    "from a seeded generator via repro.utils.rng",
                )
            elif node.module == "time" and not clock_ok:
                for alias in node.names:
                    if alias.name in _TIME_IMPORT_NAMES:
                        yield diagnostic(
                            ctx, node, CODE,
                            _clock_message(f"time.{alias.name}"),
                        )
        elif isinstance(node, ast.Call):
            resolved = resolve_dotted(node.func, aliases)
            if resolved == "numpy.random.default_rng" \
                    and _is_unseeded_default_rng(node):
                yield diagnostic(
                    ctx, node, CODE,
                    "unseeded default_rng() draws fresh OS entropy; pass "
                    "a seed or use repro.utils.rng.ensure_rng, stream_rng or "
                    "stream_rngs",
                )
        elif isinstance(node, ast.Attribute):
            resolved = resolve_dotted(node, aliases)
            if resolved is None:
                continue
            if resolved in _FORBIDDEN_DOTTED and not clock_ok:
                yield diagnostic(
                    ctx, node, CODE, _clock_message(resolved)
                )
            elif resolved.startswith("numpy.random.") \
                    and resolved.rsplit(".", 1)[1] in _NUMPY_GLOBAL_STATE:
                yield diagnostic(
                    ctx, node, CODE,
                    f"'{resolved}' uses numpy's process-global RNG "
                    "state; use a generator from repro.utils.rng",
                )


RULE = LintRule(
    code=CODE,
    name="no-nondeterminism-primitives",
    summary=(
        "random / np.random global state / wall-clock reads / unseeded "
        "default_rng are only allowed inside repro/utils/rng.py "
        "(clock reads: repro/utils/timing.py)"
    ),
    check=check,
)
