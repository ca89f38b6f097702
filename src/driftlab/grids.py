"""Periodic grids on the unit torus, the field types built on them, and
the spectral core: the half-spectrum transforms and every Fourier
multiplier of the library.

The torus is always [0,1)^d with d in {1,2}; integer wave vectors n give
angular wave vectors k = 2*pi*n, so the half-Laplacian has eigenvalues
2*pi*|n|.  ``HalfSpectrum`` holds the wave vectors, the dissipation symbol
|2*pi*n|^alpha, the 2/3 dealiasing mask and the Riesz multipliers.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field

import numpy as np

MEAN_ZERO_RTOL = 1e-12
TWO_PI = 2.0 * np.pi


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform N^d grid on [0,1)^d with spacing h = 1/N."""

    d: int
    N: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if self.N < 8 or not _is_power_of_two(self.N):
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    @property
    def size(self) -> int:
        return self.N**self.d

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.N) * self.h

    def coords(self) -> tuple:
        """Node coordinate arrays, broadcastable over the grid shape."""
        x = self.axis_coords()
        if self.d == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))

    def modes(self) -> tuple:
        """Integer wave-vector arrays n_j, broadcastable over the grid shape."""
        n = np.fft.fftfreq(self.N, d=1.0 / self.N)
        if self.d == 1:
            return (n,)
        return tuple(np.meshgrid(n, n, indexing="ij"))

    def distance2(self, point) -> np.ndarray:
        """Squared periodic distance from every node to ``point``, which
        need not be a node."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        dist2 = np.zeros(self.shape)
        for xc, pc in zip(self.coords(), point):
            dist2 += periodic_delta(xc - pc) ** 2
        return dist2


def periodic_delta(a: np.ndarray) -> np.ndarray:
    """Signed displacement wrapped to [-1/2, 1/2)."""
    return (np.asarray(a) + 0.5) % 1.0 - 0.5


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real field sampled on the grid nodes (row-major).

    The values are immutable: a writable array of the caller's is copied,
    so changing it later cannot change the field.  A field built by
    ``adopt_half_spectrum`` keeps only its half-spectrum coefficients, so
    that spectral operators on it need no forward transform; it computes
    its values on the first read of ``values``, once, and keeps them.
    Negating a field that keeps coefficients negates them alone: ``-f`` is
    lazy too.
    """

    grid: GridSpec
    values: np.ndarray
    _half: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        src = self.values
        v = np.asarray(src, dtype=float).reshape(self.grid.shape)
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v = np.ascontiguousarray(v)
        if v.flags.writeable and isinstance(src, np.ndarray) and np.may_share_memory(v, src):
            v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: the values of a
        # field of kept coefficients before their first read
        if name != "values" or self._half is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = ScalarField.adopt(self.grid, half_spectrum(self.grid).inverse(self._half)).values
        object.__setattr__(self, "values", values)
        return values

    @classmethod
    def adopt(cls, grid: GridSpec, values: np.ndarray) -> "ScalarField":
        """Field on a new array that the caller hands over and no longer
        writes: it is made read-only and taken without a copy."""
        values.setflags(write=False)
        return cls(grid, values)

    @classmethod
    def adopt_half_spectrum(cls, grid: GridSpec, ch: np.ndarray) -> "ScalarField":
        """Field of the half-spectrum coefficients on a new complex array
        that the caller hands over and no longer reads or writes, kept with
        no copy in ``irfftn``'s form: ``HalfSpectrum.make_hermitian`` runs
        in place.  The coefficients are checked here, the values computed
        on their first read."""
        half_spectrum(grid).make_hermitian(ch)
        if not np.all(np.isfinite(ch)):
            raise ValueError("field coefficients must be finite")
        ch.setflags(write=False)
        return cls._lazy(grid, ch)

    @classmethod
    def _lazy(cls, grid: GridSpec, half: np.ndarray) -> "ScalarField":
        """Field of read-only coefficients, already in ``irfftn``'s form and
        checked, whose values are computed on their first read."""
        f = cls.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "_half", half)
        return f

    def half_coefficients(self) -> np.ndarray:
        """Half-spectrum coefficients: the kept ones, or else the forward
        transform of the values (computed on each call, not cached)."""
        if self._half is not None:
            return self._half
        return half_spectrum(self.grid).forward(self.values)

    def with_coefficients(self) -> "ScalarField":
        """The same values, keeping their forward transform, so that
        ``half_coefficients`` returns that one array instead of making a
        transform on each call."""
        if self._half is not None:
            return self
        half = half_spectrum(self.grid).forward(self.values)
        half.setflags(write=False)
        f = copy.copy(self)
        object.__setattr__(f, "_half", half)
        return f

    def without_coefficients(self) -> "ScalarField":
        """The same values, computed now if not yet read, without kept
        coefficients."""
        if self._half is None:
            return self
        f = copy.copy(self)
        object.__setattr__(f, "values", self.values)
        object.__setattr__(f, "_half", None)
        return f

    @classmethod
    def constant(cls, grid: GridSpec, c: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(c)))

    def mean(self) -> float:
        return float(self.values.mean())

    def is_mean_zero(self, rtol: float = MEAN_ZERO_RTOL) -> bool:
        amp = float(np.max(np.abs(self.values)))
        return abs(self.mean()) <= rtol * max(amp, 1.0)

    def __neg__(self):
        """-f.  A field of kept coefficients negates only them and stays
        lazy: its values come from one inverse transform of the negated
        coefficients, checked on their first read.  That transform is
        -f.values but possibly in the sign of an exact zero, and in the
        rounding of values that were given rather than computed."""
        if self._half is None:
            return ScalarField.adopt(self.grid, -self.values)
        half = -self._half
        half.setflags(write=False)
        return ScalarField._lazy(self.grid, half)

    def __add__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self.grid, other.grid)
            return ScalarField.adopt(self.grid, self.values + other.values)
        return ScalarField.adopt(self.grid, self.values + other)

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self.grid, other.grid)
            return ScalarField.adopt(self.grid, self.values - other.values)
        return ScalarField.adopt(self.grid, self.values - other)

    def __mul__(self, scalar):
        return ScalarField.adopt(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


def to_spectral(f: ScalarField) -> np.ndarray:
    """Full-spectrum coefficients c_n of f on complex ``fftn``, normalized
    by c_n = N^{-d} sum_x f(x) exp(-2*pi*i*n.x), so a constant field has
    c_0 equal to its value.

    With ``to_physical`` this is the library's one complex transform pair,
    kept for ``operators.random_band_limited``, whose frozen algorithm it
    carries; every other spectral operation runs on ``half_spectrum``.
    """
    return np.fft.fftn(f.values, norm="forward")


def to_physical(grid: GridSpec, coefficients: np.ndarray) -> ScalarField:
    """The real part of the inverse of ``to_spectral``, as a field."""
    return ScalarField(grid, np.fft.ifftn(coefficients, norm="forward").real)


class HalfSpectrum:
    """Wave vectors of one grid in the real-to-complex layout of
    ``np.fft.rfftn``: the last axis keeps n = 0..N/2, the others all N modes.

    Every axis uses the ``fftfreq`` convention, so index N/2 is n = -N/2 as
    in the full spectrum.  Build it with ``half_spectrum(grid)``, which
    caches one per grid; its arrays are read-only.  It owns the library's
    multipliers: ``symbol`` and ``dealias_mask`` make a new array on each
    call, and ``riesz`` is built on its first read and kept.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        N, d = grid.N, grid.d
        self.shape = grid.shape[:-1] + (N // 2 + 1,)
        self.axes = tuple(range(d))
        n = np.fft.fftfreq(N, d=1.0 / N)
        per_axis = tuple(enumerate((n,) * (d - 1) + (n[: N // 2 + 1],)))

        def spread(j, a):
            return np.broadcast_to(a.reshape([-1 if b == j else 1 for b in range(d)]), self.shape)

        self.modes = tuple(spread(j, m) for j, m in per_axis)
        self.radius = np.sqrt(sum(m**2 for m in self.modes))
        self.radius.setflags(write=False)
        self.ik = tuple(spread(j, 2j * np.pi * m) for j, m in per_axis)
        # the real wave numbers 2*pi*n_j, whose values are the imaginary
        # parts of ik; the Nyquist rows of every axis but the last (which
        # stores its Nyquist column whole); and the wave numbers with
        # n_j = +N/2 in place of -N/2: for spectral_divergence_max
        self.k = tuple(spread(j, TWO_PI * m) for j, m in per_axis)
        nyq = N // 2
        self.nyquist_rows = tuple(
            tuple(nyq if a == j else slice(None) for a in range(d)) for j in range(d - 1)
        )
        self._mirror_rows = (-np.arange(N)) % N  # row of -n_1, for make_hermitian
        self.k_mirror = tuple(
            spread(j, TWO_PI * np.where(m == -nyq, nyq, m)) for j, m in per_axis
        )

    def symbol(self, alpha: float) -> np.ndarray:
        """The dissipation multiplier |2*pi*n|^alpha of (-Laplace)^{alpha/2}."""
        return (TWO_PI * self.radius) ** alpha

    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask (Orszag 1971): |n_j| <= ``dealias_cutoff(N)`` on
        every axis."""
        cut = dealias_cutoff(self.grid.N)
        return np.logical_and.reduce([np.abs(m) <= cut for m in self.modes])

    @functools.cached_property
    def riesz(self) -> tuple:
        """The Riesz multipliers -i n_j / |n|, j = 1..d, read-only; 0 at
        n = 0 and on both Nyquist lines (|n_1| = N/2 or |n_2| = N/2).

        A mode on the Nyquist line of axis j is its own mirror in n_j, so
        the real field cancels R_j there but keeps the other transform.
        Zeroing both on both lines leaves u = (-R_2 theta, R_1 theta) no
        content there, which keeps it divergence-free.
        """
        nr = np.where(self.radius > 0, self.radius, 1.0)
        nyquist = np.logical_or.reduce([np.abs(m) == self.grid.N // 2 for m in self.modes])
        out = []
        for m in self.modes:
            mult = np.where(nyquist, 0.0, -1j * m / nr)
            mult.setflags(write=False)
            out.append(mult)
        return tuple(out)

    def make_hermitian(self, ch: np.ndarray) -> np.ndarray:
        """Makes the complex array ``ch`` the coefficients that ``inverse``
        realises from it, in place, and returns it.  The self-conjugate
        columns of the last axis (n_d = 0 and N/2) hold each mode and its
        mirror -n, and the inverse transform keeps only their Hermitian part
        (c_n + conj(c_{-n})) / 2; every other coefficient is its own."""
        cols = (Ellipsis, slice(None, None, self.grid.N // 2))  # columns 0 and N/2
        c = ch[cols]
        mirror = c[self._mirror_rows] if self.grid.d == 2 else c
        ch[cols] = 0.5 * (c + np.conj(mirror))
        return ch

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Half-spectrum coefficients c_n of real grid values (to_spectral's
        normalization).  At d = 1 ``rfft`` gives ``rfftn``'s bits without
        its n-d argument handling."""
        if self.grid.d == 1:
            return np.fft.rfft(values, norm="forward")
        return np.fft.rfftn(values, norm="forward")

    def inverse(self, coefficients: np.ndarray) -> np.ndarray:
        """Real grid values of half-spectrum coefficients (``irfft`` at d = 1,
        as in ``forward``)."""
        if self.grid.d == 1:
            return np.fft.irfft(coefficients, n=self.grid.N, norm="forward")
        return np.fft.irfftn(coefficients, s=self.grid.shape, axes=self.axes, norm="forward")


@functools.lru_cache(maxsize=8)
def half_spectrum(grid: GridSpec) -> HalfSpectrum:
    return HalfSpectrum(grid)


def dealias_cutoff(N: int) -> int:
    """Largest kept |n| under the 2/3 rule (strictly below N/3)."""
    cut = N // 3
    if 3 * cut == N:
        cut -= 1
    return cut


def spectral_divergence_max(components) -> float:
    """max_k |sum_j k_j u^_j(k)| over the full spectrum, for a tuple of
    ScalarFields.

    Computed on the half spectrum, from each field's ``half_coefficients``,
    with the real wave numbers 2*pi*n_j: each term is the one with i*k_j
    turned by a right angle, and |.| (hypot) ignores the signs that turn
    swaps, so the float is that of the i*k form.  The coefficients it leaves
    out are the complex conjugates of stored ones at wave vector -n, and
    have the same divergence magnitude, except on the Nyquist row
    n_1 = -N/2 (d = 2), which the fftfreq convention maps to itself: that
    row is evaluated a second time with n_1 = +N/2.
    """
    spec = half_spectrum(components[0].grid)
    uh = [comp.half_coefficients() for comp in components]
    div = spec.k[0] * uh[0]
    for kj, u in zip(spec.k[1:], uh[1:]):
        div += kj * u
    peak = float(np.max(np.abs(div)))
    for row in spec.nyquist_rows:
        mirrored = sum(kj[row] * u[row] for kj, u in zip(spec.k_mirror, uh))
        peak = max(peak, float(np.max(np.abs(mirrored))))
    return peak


def _check_same_grid(a: GridSpec, b: GridSpec):
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


@dataclass(frozen=True, eq=False)
class VelocityField:
    """d-component vector field; divergence_free is an asserted invariant.

    The divergence check reads the components' kept coefficients; the
    stored components keep none, so that stored velocities cost no more
    memory than their values.
    """

    grid: GridSpec
    components: tuple
    divergence_free: bool = False

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != self.grid.d:
            raise ValueError(f"expected {self.grid.d} components, got {len(comps)}")
        for c in comps:
            _check_same_grid(self.grid, c.grid)
        object.__setattr__(self, "components", comps)
        if self.divergence_free:
            # the divergence first: its temporaries are freed before the
            # norm realises values that a component has not computed yet
            div = spectral_divergence_max(comps)
            norm = max(self.l2_norm(), 1e-300)
            if div > 1e-10 * norm:
                raise ValueError(
                    f"velocity asserted divergence-free but max spectral divergence "
                    f"{div:.3e} exceeds tolerance (l2={norm:.3e})"
                )
        object.__setattr__(self, "components", tuple(c.without_coefficients() for c in comps))

    @classmethod
    def zero(cls, grid: GridSpec) -> "VelocityField":
        comps = tuple(ScalarField.constant(grid, 0.0) for _ in range(grid.d))
        return cls(grid, comps, divergence_free=True)

    @classmethod
    def constant(cls, grid: GridSpec, c) -> "VelocityField":
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if c.size != grid.d:
            raise ValueError(f"constant velocity needs {grid.d} components")
        comps = tuple(ScalarField.constant(grid, ci) for ci in c)
        return cls(grid, comps, divergence_free=True)

    def max_norm(self) -> float:
        """max over nodes of |u|; computed once, as the field is immutable."""
        return self._max_norm

    @functools.cached_property
    def _max_norm(self) -> float:
        first, *rest = self.components
        speed = first.values**2
        for c in rest:
            speed += c.values**2
        return float(np.sqrt(np.max(speed)))

    def l2_norm(self) -> float:
        total = 0.0
        for c in self.components:
            total += float(np.sum(c.values**2))
        return float(np.sqrt(total * self.grid.cell_volume))
