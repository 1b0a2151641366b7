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

#: Size of one heap entry in ``kernel.c``: a double rate, an int64 push
#: counter and an int64 node.  The caller allocates the heap buffer.
HEAP_ENTRY_BYTES = 24

_POINTER = ctypes.c_void_p
_INT = ctypes.c_int64
_DOUBLE = ctypes.c_double


class Kernel(NamedTuple):
    """The entry points of one loaded ``kernel.so``."""

    #: ``repro_relax_search``: one Algorithm-1 search.
    search: Callable[..., int]
    #: ``repro_yen_paths``: Algorithm 2's k best paths for one width.
    yen: Callable[..., int]
    #: ``repro_yen_work_new``: allocates a Yen workspace.
    new_workspace: Callable[[], Optional[int]]
    #: ``repro_yen_work_free``: frees one.
    free_workspace: Callable[[Any], None]


class YenOutput(ctypes.Structure):
    """The leading fields of ``yen_work_t``: the last call's accepted
    paths as ``(length, nodes...)`` records, their rates, and the bytes
    the workspace holds."""

    _fields_ = [
        ("out", ctypes.POINTER(ctypes.c_int64)),
        ("out_len", ctypes.c_int64),
        ("out_rates", ctypes.POINTER(ctypes.c_double)),
        ("held", ctypes.c_int64),
    ]


class YenWorkspace:
    """One ``yen_work_t``: buffers that ``repro_yen_paths`` keeps between
    calls and grows with the paths it finds.  Freed with this object."""

    __slots__ = ("address", "output", "_free")

    def __init__(self, kernel: Kernel):
        address = kernel.new_workspace()
        if not address:
            raise MemoryError("cannot allocate the native Yen workspace")
        self.address = address
        self.output = YenOutput.from_address(address)
        self._free = kernel.free_workspace

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
    entry_bytes = lib.repro_heap_entry_bytes
    entry_bytes.restype = ctypes.c_size_t
    entry_bytes.argtypes = []
    if entry_bytes() != HEAP_ENTRY_BYTES:
        return None
    search = lib.repro_relax_search
    search.restype = _INT
    search.argtypes = (
        [_POINTER] * 13
        + [_INT, _INT, _DOUBLE, _POINTER, _INT, _POINTER, _INT]
    )
    yen = lib.repro_yen_paths
    yen.restype = _INT
    yen.argtypes = (
        [_POINTER] * 13
        + [_DOUBLE, _INT, _POINTER, _INT, _DOUBLE, _POINTER, _INT, _POINTER,
           _INT]
    )
    new_workspace = lib.repro_yen_work_new
    new_workspace.restype = _POINTER
    new_workspace.argtypes = []
    free_workspace = lib.repro_yen_work_free
    free_workspace.restype = None
    free_workspace.argtypes = [_POINTER]
    return Kernel(search, yen, new_workspace, free_workspace)


#: The loaded kernel, or ``None`` (routing then runs on the reference core).
KERNEL: Optional[Kernel] = load()
