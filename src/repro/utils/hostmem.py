"""Host allocator policy: freed memory stays mapped for the next kernel.

The paper's OpenMP port takes device memory from a hand-written pool, and
JAX's pool gives "significant performance benefits out of the box"
(§3.1.2, §4.1).  This is the host-side version of that pool.

By default glibc serves every allocation of 128 KiB or more with a fresh
``mmap`` and unmaps it on ``free``, and hands freed heap top back to the
OS once it exceeds 128 KiB.  A kernel's NumPy temporaries (a 4-wide
gather of 15.5k rows is ~500 KB) then fault their pages in again on every
call.  :func:`retain_freed_memory` pins both glibc thresholds so freed
temporaries stay in the heap and the next kernel reuses pages that are
already faulted in.

The policy is process-wide and is set once, when :mod:`repro` is imported,
before any kernel runs.  Retention is bounded: at most 64 MiB of free heap
top stays mapped, and chunks of 32 MiB or more still get (and return)
their own mapping.
"""

from __future__ import annotations

import ctypes
import platform

__all__ = ["retain_freed_memory"]

# mallopt(3) parameter numbers, from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# glibc raises its mmap threshold to the size of the largest mapped chunk
# freed so far, up to 32 MiB on 64-bit, and sets the trim threshold to
# twice that.  Setting either option turns the adaptation off, and neither
# helps alone: a pinned mmap threshold leaves the trim threshold at its
# 128 KiB default, so freed heap goes straight back to the OS, and a pinned
# trim threshold leaves small-ish temporaries on fresh mappings.  So both
# are pinned where the adaptation tops out.
_MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024
_TRIM_THRESHOLD_BYTES = 64 * 1024 * 1024


def retain_freed_memory() -> bool:
    """Keep freed host memory mapped for reuse; True if glibc took both settings.

    Without glibc (or its ``mallopt``) this does nothing and returns False.
    Calling it again is harmless.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_ok = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1
    trim_ok = mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES) == 1
    return mmap_ok and trim_ok
