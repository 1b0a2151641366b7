"""Loader for the native relax loop of Algorithm 1's search.

``kernel.c`` is plain C99 with no Python headers.  Importing this
module compiles it once with the system ``cc`` into a user-owned cache,
``~/.cache/repro/native/<digest>/kernel.so``, where the digest covers
the source, the compiler flags and the machine type, and then loads it
with :mod:`ctypes`.  The shared object is written under a temporary
name and moved into place with :func:`os.replace`, so parallel worker
processes can build it at the same time without racing.

:data:`KERNEL` holds the loaded ``repro_relax_search`` function, or
``None`` when no working compiler exists (or the cache cannot be
written); :class:`~repro.routing.compiled.CompiledNetwork` then runs its
Python kernel instead, which gives the same paths and rates.  The
routing core reads :data:`KERNEL` on every search, so tests can force
the Python fallback by setting it to ``None``.
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
from typing import Callable, Optional

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
    kernel = lib.repro_relax_search
    kernel.restype = _INT
    kernel.argtypes = (
        [_POINTER] * 13
        + [_INT, _INT, ctypes.c_double, _POINTER, _INT, _POINTER, _INT]
    )
    return kernel


#: The loaded ``repro_relax_search`` function, or ``None`` (fallback).
KERNEL: Optional[Callable[..., int]] = load()
