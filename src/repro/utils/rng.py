"""Random-number-generator plumbing.

Every stochastic component in the library accepts either a seed or an
existing generator and normalises it through :func:`ensure_rng`, so whole
experiments are reproducible from a single integer seed.  Child generators
for independent subsystems are derived with :func:`spawn_rng` to keep
streams statistically independent without coupling call orders.

Stateless substreams come from :func:`stream_rngs`, which derives any
number of them in one vectorised pass; :func:`stream_rng` is its
one-stream case.  Either way substream ``s`` of ``seed`` is
``default_rng(SeedSequence(seed, spawn_key=(s,)))`` bit for bit, so a
batch of ``base + i`` streams draws exactly what one
``stream_rng(seed, base + i)`` call per stream would.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from numpy.typing import NDArray

from repro.exceptions import ConfigurationError

#: The generator type used throughout the library.
RandomState = np.random.Generator

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


def ensure_rng(seed: SeedLike = None) -> RandomState:
    """Normalise *seed* into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an ``int`` seed, a ``SeedSequence``,
    or an existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or isinstance(seed, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(seed)
    raise ConfigurationError(
        f"seed must be None, int, SeedSequence or Generator, got {type(seed).__name__}"
    )


def spawn_seeds(rng: RandomState, n: int = 1) -> list:
    """Derive *n* child generator seeds from *rng*.

    This is the seed-material half of :func:`spawn_rng`: the experiment
    harness pre-computes these integers so each parallel task can rebuild
    its own generator (``ensure_rng(seed)``) bit-identically to the
    sequential ``spawn_rng`` children.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [int(s) for s in seeds]


# Substream seeds and indices stream_rngs accepts: a seed fills at most
# the four 32-bit words of SeedSequence's entropy pool and an index is
# one spawn-key word.  spawn_seeds draws seeds below 2**63 and every
# substream base in the package is below 2**32.
_SEED_LIMIT = 2**128
_STREAM_LIMIT = 2**32

# numpy's SeedSequence is O'Neill's ``seed_seq`` hash (PCG, 2014) over a
# pool of four uint32 words.  Seeded with ``spawn_key=(s,)``, the
# entropy is the seed's words zero-padded to the pool size, then ``s``:
# the first four words and the all-pairs mix give the pool of
# ``SeedSequence(seed)`` whatever ``s`` is, after 4 + 4 * 3 hashmix
# steps.  Only ``s``'s four hashmix/mix steps into the pool and
# ``generate_state(4, uint64)`` depend on the stream.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_constants(
    init: int, mult: int, start: int, steps: int
) -> NDArray[np.uint32]:
    """``init * mult**k mod 2**32`` for ``k = start, ..., start + steps``:
    the hash constant before each of *steps* consecutive steps, and
    after the last."""
    return np.array(
        [(init * pow(mult, k, 1 << 32)) & _MASK32
         for k in range(start, start + steps + 1)],
        dtype=np.uint32,
    )


# hashmix of the spawn word: the pool set-up has advanced the constant
# INIT_A = 0x43B0D7E5 by MULT_A = 0x931E8875 sixteen times.
_SPAWN_HASH = _hash_constants(
    0x43B0D7E5, 0x931E8875, _POOL_SIZE * _POOL_SIZE, _POOL_SIZE
)
# generate_state's constant (INIT_B, MULT_B) over its 8 uint32 words.
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 0, 2 * _POOL_SIZE)


def _pcg64_seed_words(
    seed: int, streams: Sequence[int]
) -> NDArray[np.uint64]:
    """``SeedSequence(seed, spawn_key=(s,)).generate_state(4, uint64)``
    for every ``s`` in *streams*, one row each, in uint32-wrapped numpy
    arithmetic."""
    pool = np.random.SeedSequence(seed).pool
    words = np.asarray(streams, dtype=np.uint32)[:, None]
    value = (words ^ _SPAWN_HASH[:-1]) * _SPAWN_HASH[1:]
    value ^= value >> _XSHIFT
    mixed = pool * _MIX_MULT_L - value * _MIX_MULT_R
    mixed ^= mixed >> _XSHIFT
    # generate_state cycles through the pool twice for 8 uint32 words.
    cycled = np.concatenate((mixed, mixed), axis=1)
    state = (cycled ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]
    state ^= state >> _XSHIFT
    # Word pairs are little-endian uint64s, as in SeedSequence.
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _DerivedSeedWords(ISeedSequence):
    """A seed sequence whose only output, PCG64's four seeding words,
    was derived ahead of time.  It cannot spawn, so neither can the
    generator it seeds."""

    __slots__ = ("_words",)

    def __init__(self, words: NDArray[np.uint64]) -> None:
        self._words = words

    def generate_state(
        self, n_words: int, dtype: Any = np.uint32
    ) -> NDArray[np.uint64]:
        if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
            raise ValueError(
                "a derived substream seeds one PCG64 (4 uint64 words), "
                f"not {n_words} words of {np.dtype(dtype)}"
            )
        return self._words


def _check_stream_argument(name: str, value: Any, limit: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(
            f"substream {name} must be an int, got {type(value).__name__}"
        )
    if not 0 <= value < limit:
        raise ConfigurationError(
            f"substream {name} must be in [0, 2**{limit.bit_length() - 1}), "
            f"got {value}"
        )


def stream_rngs(seed: int, streams: Sequence[int]) -> List[RandomState]:
    """Independent generators for substreams *streams* of integer *seed*.

    Equal, draw for draw, to ``[stream_rng(seed, s) for s in streams]``:
    substream ``s`` is ``default_rng(SeedSequence(seed, spawn_key=(s,)))``.
    Every generator's seeding words are derived in one vectorised pass
    and handed to numpy's own PCG64 seeding, about ten times cheaper
    per stream than a ``SeedSequence`` each.  ``Generator.spawn()`` is
    unsupported on these generators (it raises ``TypeError``).

    *seed* must be below ``2**128`` and every stream below ``2**32``.
    """
    _check_stream_argument("seed", seed, _SEED_LIMIT)
    for stream in streams:
        _check_stream_argument("stream", stream, _STREAM_LIMIT)
    # numpy seeds a bit generator from any ISeedSequence; its stubs name
    # only SeedSequence.
    return [
        np.random.Generator(
            np.random.PCG64(_DerivedSeedWords(words))  # type: ignore[arg-type]
        )
        for words in _pcg64_seed_words(int(seed), streams)
    ]


def stream_rng(seed: int, stream: int) -> RandomState:
    """An independent generator for substream *stream* of integer *seed*.

    Unlike :func:`spawn_rng`, the substream is addressed *statelessly*:
    the same ``(seed, stream)`` pair always yields the same generator,
    without consuming draws from any parent.  The sweep harness uses
    this to give Monte-Carlo estimation its own stream per sample seed,
    so changing the trial count (or skipping estimation entirely) can
    never perturb the instance-generation stream that shares the seed.
    The one-stream case of :func:`stream_rngs`.
    """
    return stream_rngs(seed, (stream,))[0]


def spawn_rng(rng: RandomState, n: int = 1) -> list:
    """Derive *n* statistically independent child generators from *rng*.

    The children are seeded from fresh entropy drawn out of *rng* itself,
    so the same parent seed always yields the same family of children.
    """
    return [np.random.default_rng(s) for s in spawn_seeds(rng, n)]


def random_subset(rng: RandomState, items: list, k: int) -> list:
    """Choose *k* distinct items from *items* uniformly at random."""
    if k > len(items):
        raise ConfigurationError(
            f"cannot choose {k} items from a population of {len(items)}"
        )
    idx = rng.choice(len(items), size=k, replace=False)
    return [items[int(i)] for i in idx]
