"""The half-spectrum fractional Laplacian and gradient, on the library's
spectral core (``grids.half_spectrum``).  No command, suite or library code
calls them; they are kept for the tests that check the core against the
direct oracle (tests/direct_oracle.py) and the frozen full-spectrum code
(tests/fullspectrum_reference.py).
"""

from __future__ import annotations

import numpy as np

from driftlab.grids import ScalarField, half_spectrum


def fractional_laplacian_spectral(f: ScalarField, alpha: float = 1.0) -> ScalarField:
    """(-Laplace)^{alpha/2} f via the multiplier |2*pi*n|^alpha."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    spec = half_spectrum(f.grid)
    ch = spec.forward(f.values) * spec.symbol(alpha)
    return ScalarField.adopt(f.grid, spec.inverse(ch))


def gradient(f: ScalarField) -> tuple:
    """Spectral gradient; returns d ScalarFields.  The multiplier i*2*pi*n_j
    is zeroed on axis j's Nyquist line: n_j = -N/2 is its own mirror, so
    the real part of the full-spectrum transform cancels the term there."""
    spec = half_spectrum(f.grid)
    ch = spec.forward(f.values)
    nyq = f.grid.N // 2
    return tuple(
        ScalarField.adopt(f.grid, spec.inverse(np.where(np.abs(m) == nyq, 0.0, ikj) * ch))
        for m, ikj in zip(spec.modes, spec.ik)
    )
