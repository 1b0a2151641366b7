"""Loader for the native search kernel: Algorithm 1's relax loop and
Algorithm 2's Yen loop around it.

``kernel.c`` is plain C99 with no Python headers.  Importing this
module compiles it once with the system ``cc`` into a user-owned cache,
``~/.cache/repro/native/<digest>/kernel.so``, where the digest covers
the source, the compiler flags and the machine type, and then loads it
with :mod:`ctypes`.  The shared object is written under a temporary
name and moved into place with :func:`os.replace`, so parallel worker
processes can build it at the same time without racing.

:data:`KERNEL` holds the loaded library's entry points as a
:class:`Kernel`, or ``None`` when no working compiler exists (or the
cache cannot be written).  The compiled routing core runs on this
kernel alone, so without it
:func:`~repro.routing.compiled.active_routing_core` reports the
reference core, which gives the same paths and rates.  That decision
is read when each :class:`~repro.routing.metrics.ChannelRateCache` is
built, so tests can force the reference core by setting :data:`KERNEL`
to ``None`` between routing calls.

Both search entries take one :class:`Context` per network snapshot
(``kernel.c``'s header describes it) and answer a batch of widths of
one demand per call, so Algorithm 2 crosses into C twice per demand.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import platform
import shutil
import subprocess
import tempfile
from typing import Any, Callable, NamedTuple, Optional

SOURCE = pathlib.Path(__file__).with_name("kernel.c")

#: ``-ffp-contract=off`` (and no fast-math) keeps every ``a * b`` a
#: single rounded IEEE-754 multiply, as in Python: a fused multiply-add
#: would round once for two operations and change the floats.
CFLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-fPIC", "-shared")

_POINTER = ctypes.c_void_p
_INT = ctypes.c_int64
_DOUBLE = ctypes.c_double

#: The arguments both batch entries end with: the session's banned node
#: indices and edge ids, each an ``int64`` array and its length.
_BANS = (_POINTER, _INT, _POINTER, _INT)


class Kernel(NamedTuple):
    """The entry points of one loaded ``kernel.so``."""

    #: ``repro_search_widths``: the first search of each width in a batch.
    search: Callable[..., int]
    #: ``repro_yen_widths``: the Yen loop of each width in a batch.
    yen: Callable[..., int]
    #: ``repro_context_new``: allocates a snapshot's kernel context.
    new_context: Callable[..., Optional[int]]
    #: ``repro_context_free``: frees one.
    free_context: Callable[[Any], None]


class Output(ctypes.Structure):
    """The leading fields of ``context_t``: the last call's
    ``(length, ids...)`` path records (grouped per width as ``kernel.c``
    describes), their int64 count, one rate per path, the bytes of the
    buffers that grow with the paths found, and two work counters over
    the context's life: heap pops (every search's, the goal bound's
    included) and spur searches."""

    _fields_ = [
        ("out", ctypes.POINTER(ctypes.c_int64)),
        ("out_len", ctypes.c_int64),
        ("out_rates", ctypes.POINTER(ctypes.c_double)),
        ("held", ctypes.c_int64),
        ("pops", ctypes.c_int64),
        ("spurs", ctypes.c_int64),
    ]


class Context:
    """One ``context_t``: a snapshot's CSR rows and node ids (``int64``
    arrays it borrows, kept alive here), one search's scratch and the
    Yen loop's pool.  Freed with this object."""

    __slots__ = ("address", "output", "_free", "_borrowed")

    def __init__(self, kernel: Kernel, n_edges: int, indptr, adj, adj_edges,
                 ids):
        address = kernel.new_context(
            len(ids), n_edges, indptr.ctypes.data, adj.ctypes.data,
            adj_edges.ctypes.data, ids.ctypes.data,
        )
        if not address:
            raise MemoryError("cannot allocate the native kernel context")
        self.address = address
        self.output = Output.from_address(address)
        self._free = kernel.free_context
        self._borrowed = (indptr, adj, adj_edges, ids)

    def __del__(self):
        self._free(self.address)


def cache_path() -> pathlib.Path:
    """Where the shared object for the current source and flags lives."""
    digest = hashlib.sha256()
    digest.update(SOURCE.read_bytes())
    digest.update(" ".join(CFLAGS).encode())
    digest.update(platform.machine().encode())
    return (
        pathlib.Path.home() / ".cache" / "repro" / "native"
        / digest.hexdigest()[:16] / "kernel.so"
    )


def _build(target: pathlib.Path) -> None:
    compiler = shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler (cc) on PATH")
    target.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=target.parent, prefix=".kernel-", suffix=".so"
    )
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *CFLAGS, "-o", tmp, str(SOURCE)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load():
    """Build (if needed) and load the kernel; ``None`` if that fails."""
    try:
        target = cache_path()
        if not target.exists():
            _build(target)
        lib = ctypes.CDLL(str(target))
    except (OSError, RuntimeError, subprocess.SubprocessError):
        # No compiler, a failed build, an unwritable cache, or no home
        # directory (RuntimeError from Path.home): use the fallback.
        return None
    search = lib.repro_search_widths
    search.restype = _INT
    search.argtypes = (_POINTER, _INT, _POINTER, _INT, _INT, _DOUBLE) + _BANS
    yen = lib.repro_yen_widths
    yen.restype = _INT
    yen.argtypes = (_POINTER, _INT, _POINTER, _POINTER, _INT, _DOUBLE) + _BANS
    new_context = lib.repro_context_new
    new_context.restype = _POINTER
    new_context.argtypes = [_INT, _INT] + [_POINTER] * 4
    free_context = lib.repro_context_free
    free_context.restype = None
    free_context.argtypes = [_POINTER]
    return Kernel(search, yen, new_context, free_context)


#: The loaded kernel, or ``None`` (routing then runs on the reference core).
KERNEL: Optional[Kernel] = load()
