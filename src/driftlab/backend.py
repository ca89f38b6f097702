"""Kernel backend selection.

Two hot inner loops (the singular-integral fractional Laplacian and
Holder pair enumeration) have two implementations: a numba @njit one and
a pure-numpy one.  Set DRIFTLAB_DISABLE_NUMBA=1 to force the numpy path
(useful for debugging and for the benchmark baseline).
"""

import os

NUMBA_DISABLED = os.getenv("DRIFTLAB_DISABLE_NUMBA", "0") not in ("", "0", "false", "False")

if not NUMBA_DISABLED:
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:  # numba is optional: fall back to numpy
        HAVE_NUMBA = False
else:
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and not NUMBA_DISABLED

if not USE_NUMBA:
    def njit(*args, **kwargs):
        """No-op stand-in so kernel modules import cleanly without numba."""
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(func):
            return func

        return wrap
