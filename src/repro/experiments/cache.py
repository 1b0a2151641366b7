"""Content-addressed on-disk cache for sweep results.

Every ``(setting, router, estimator)`` triple of a sweep maps to one
cache entry holding the per-sample rates (and, for Monte-Carlo
estimators, standard errors) of that router at that setting.  The entry
key is a stable hash of the full recipe — the setting's scenario
identity (normalized topology key + workload parameters) and averaging
knobs, the router's configuration, the estimator's identity and the
cache format version — so any change to the experiment's inputs changes
the key and
re-running a figure only recomputes the points whose recipe actually
changed.

Entries store the exact floats (JSON round-trips ``repr`` precision), so
a cache hit reproduces the cold-run result bit-exactly.  Setting
``REPRO_CACHE_DIR`` makes every harness entry point cache-aware without
touching call sites (:func:`default_result_cache`) — this is how the
nightly CI tier reuses paper-scale results across runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.experiments.config import ExperimentSetting, env_text
from repro.experiments.estimators import ANALYTIC, EstimatorSpec
from repro.routing.registry import RouterSpecError

#: Bump when the cached payload layout or the routing semantics change
#: incompatibly; old entries then miss instead of poisoning results.
#: v2: router identity moved from class name to the registry
#: ``config_dict()`` (key + full parameters).
#: v3: estimator identity joined the key, entries grew per-sample
#: ``stderrs``, ``analytic_rates`` and a ``trials`` count so
#: Monte-Carlo results cache (with the analytic pairing that routing
#: produced as a by-product).
#: v4: setting identity moved to the scenario spec's ``config_dict()``
#: (normalized topology key + workload parameters, plus the averaging
#: knobs), so equal workloads hash identically however they were
#: spelled; estimator fingerprints grew the ``antithetic`` flag.
CACHE_FORMAT_VERSION = 4


def payload_key(payload: Dict) -> str:
    """Content hash of a JSON-ready *payload* dict (sorted-key JSON).

    The one hashing recipe every cache key goes through —
    :meth:`ResultCache.key_for` for sweep grids, the serve runner for
    online-serving results — so key stability rules live in one place.
    """
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def router_fingerprint(router) -> Dict:
    """A stable, JSON-ready description of *router*'s configuration.

    *router* may be a built router instance or a
    :class:`~repro.routing.registry.RouterSpec`; both expose
    ``config_dict()`` — the registry key plus every parameter value —
    which is identical across processes and for spec-built vs
    hand-constructed instances of the same configuration.  Unregistered
    routers fall back to class name + dataclass fields (or ``repr``),
    which keeps correctness at the cost of hashing stability across
    releases.
    """
    config = getattr(router, "config_dict", None)
    if callable(config):
        try:
            return config()
        except RouterSpecError:
            # E.g. an unregistered subclass of a registered router: its
            # inherited config_dict refuses to claim the base class's
            # identity, so fall through to the class-name fingerprint,
            # which keeps the two distinct.
            pass
    fingerprint: Dict = {"class": type(router).__name__}
    if dataclasses.is_dataclass(router) and not isinstance(router, type):
        fingerprint["config"] = dataclasses.asdict(router)
    else:
        fingerprint["repr"] = repr(router)
    return fingerprint


def setting_fingerprint(setting: ExperimentSetting) -> Dict:
    """A stable, JSON-ready description of one experiment setting.

    The workload half is the scenario spec's ``config_dict()`` — the
    normalized topology key plus every workload parameter — so settings
    built from a scenario string, a preset or a hand-constructed
    :class:`~repro.network.builder.NetworkConfig` (including via a
    generator alias) address the same entries.  The averaging knobs
    (``num_networks``, ``seed``) complete the identity.
    """
    return {
        "scenario": setting.scenario().config_dict(),
        "num_networks": setting.num_networks,
        "seed": setting.seed,
    }


class ResultCache:
    """Directory-backed cache of per-(setting, router, estimator) sweep
    results, plus tagged JSON entries (serve results).

    Both kinds of entry go through one read, which drops a file that is
    missing, corrupt or of another :data:`CACHE_FORMAT_VERSION`, and
    one write, which stamps the version and replaces the file
    atomically.
    """

    def __init__(self, cache_dir: Union[str, Path]):
        self.cache_dir = Path(cache_dir)

    def key_for(
        self,
        setting: ExperimentSetting,
        router,
        estimator: Union[None, str, EstimatorSpec] = None,
    ) -> str:
        """Content hash addressing the (setting, router, estimator) result.

        *router* may be an instance or a ``RouterSpec``; equal
        configurations hash identically either way, so shards running in
        different processes (or on different machines) address the same
        entries.  *estimator* defaults to analytic; a Monte-Carlo
        estimator's trials and engine are part of the key, so changing
        either recomputes only the affected points.
        """
        return payload_key({
            "cache_format_version": CACHE_FORMAT_VERSION,
            "setting": setting_fingerprint(setting),
            "router": router_fingerprint(router),
            "estimator": EstimatorSpec.coerce(estimator).config_dict(),
        })

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def _read(self, key: str) -> Optional[Dict]:
        """The JSON object stored under *key* at this format version, or
        ``None`` when it is missing, corrupt or of another version."""
        try:
            entry = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("cache_format_version") != CACHE_FORMAT_VERSION:
            return None
        return entry

    def _write(self, key: str, entry: Dict) -> None:
        """Store *entry*, stamped with the format version, atomically."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        entry = {"cache_format_version": CACHE_FORMAT_VERSION, **entry}
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(entry, sort_keys=True))
        os.replace(tmp, path)

    def get(self, key: str) -> Optional[Dict]:
        """The cached entry for *key*, or ``None`` on miss/corruption.

        Returns ``{"algorithm": str, "rates": [...], "stderrs": [...],
        "analytic_rates": [...], "trials": int}`` with the lists in
        sample order (for analytic entries, stderrs are all zero,
        trials zero and analytic_rates equal rates).
        """
        entry = self._read(key)
        if entry is None:
            return None
        algorithm = entry.get("algorithm")
        rates = entry.get("rates")
        stderrs = entry.get("stderrs")
        analytic_rates = entry.get("analytic_rates")
        trials = entry.get("trials")
        if not isinstance(algorithm, str) or not isinstance(rates, list):
            return None
        if not isinstance(stderrs, list) or len(stderrs) != len(rates):
            return None
        if (
            not isinstance(analytic_rates, list)
            or len(analytic_rates) != len(rates)
        ):
            return None
        if not isinstance(trials, int) or isinstance(trials, bool) or trials < 0:
            return None
        values = rates + stderrs + analytic_rates
        if not all(isinstance(v, (int, float)) for v in values):
            return None
        return {
            "algorithm": algorithm,
            "rates": [float(r) for r in rates],
            "stderrs": [float(s) for s in stderrs],
            "analytic_rates": [float(a) for a in analytic_rates],
            "trials": trials,
        }

    def get_json(self, key: str, kind: str) -> Optional[Dict]:
        """A generic JSON entry of the given *kind*, or ``None``.

        Entries written by :meth:`put_json` carry a ``kind`` tag so
        differently-shaped payloads (sweep grids vs serve results) can
        never masquerade as each other, plus the format version gate the
        sweep entries use.  Returns the stored ``payload`` dict.
        """
        entry = self._read(key)
        if entry is None or entry.get("kind") != kind:
            return None
        payload = entry.get("payload")
        return payload if isinstance(payload, dict) else None

    def put_json(self, key: str, kind: str, payload: Dict) -> None:
        """Store a generic JSON *payload* under *key*, atomically.

        JSON round-trips ``repr`` float precision, so a cache hit
        reproduces the cold-run payload bit-exactly.
        """
        self._write(key, {"kind": kind, "payload": payload})

    def put(
        self,
        key: str,
        algorithm: str,
        rates: List[float],
        stderrs: Optional[List[float]] = None,
        trials: int = 0,
        analytic_rates: Optional[List[float]] = None,
    ) -> None:
        """Store one (setting, router, estimator) result atomically.

        ``stderrs`` defaults to all-zero and ``analytic_rates`` to
        ``rates`` (the analytic case); both must match ``rates``
        sample-for-sample otherwise.
        """
        if stderrs is None:
            stderrs = [0.0] * len(rates)
        if analytic_rates is None:
            analytic_rates = list(rates)
        if len(stderrs) != len(rates):
            raise ValueError(
                f"{len(rates)} rates but {len(stderrs)} stderrs"
            )
        if len(analytic_rates) != len(rates):
            raise ValueError(
                f"{len(rates)} rates but {len(analytic_rates)} "
                "analytic rates"
            )
        self._write(key, {
            "algorithm": algorithm,
            "rates": list(rates),
            "stderrs": list(stderrs),
            "analytic_rates": list(analytic_rates),
            "trials": trials,
        })


def default_result_cache() -> Optional[ResultCache]:
    """The environment's default cache, or ``None`` when unset.

    ``REPRO_CACHE_DIR`` names a cache directory every harness entry
    point (figures, tables, benchmarks, CLIs) uses when no explicit
    ``cache``/``--cache-dir`` was given, so a whole pytest bench run can
    be made cache-aware with one variable.
    """
    raw = env_text("REPRO_CACHE_DIR")
    return ResultCache(raw) if raw else None
