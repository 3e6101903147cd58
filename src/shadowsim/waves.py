"""1D Schroedinger dynamics of a dual wave function (psi, psi_shadow), in units
hbar = m = 1: H = -(1/2) d^2/dx^2 + V, and wave number k0 is a speed.

Time stepping uses the Cayley-form Crank-Nicolson map, which is unitary to
round-off, so the norm and shadow-lockstep invariants survive arbitrarily long
runs.  ``WaveGrid`` keeps the mirror contract of ``register.check_dual``, and
every step advances its held ``pair`` of primary and shadow together: one
sparse LU solve on its (N, 2) transpose, or one FFT pair over its rows.  Collapse
is realized on a finite zone partition of the grid: a zone is sampled by the
Born rule and ``collapse_to`` confines both wave functions to it in one
atomic step.  The double-slit accumulator propagates a two-Gaussian
superposition to the far field with the exact spectral free propagator and
collects single detections.  Every draw, of a zone or of a detection
position, goes through the package's one sampler,
``measurement.sample_outcome``, which takes one uniform or an array of them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .measurement import sample_outcome
from .register import InvariantViolation, check_dual, mirror_deviation, normalized

# this module, through which the solver reaches its lazily loaded scipy names
_this = sys.modules[__name__]


def __getattr__(name):
    """Bind scipy.sparse as ``sp`` and scipy.sparse.linalg as ``spla`` on first
    use: only the Crank-Nicolson solver needs them, and loading them at import
    would slow the start of every subcommand."""
    if name not in ("sp", "spla"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.sparse
    import scipy.sparse.linalg

    globals().setdefault("sp", scipy.sparse)
    globals().setdefault("spla", scipy.sparse.linalg)
    return globals()[name]


@dataclass(frozen=True, eq=False)
class WaveGrid:
    """Dual wave function on a uniform 1D lattice, the two rows of its `pair`."""

    x_min: float
    x_max: float
    psi_primary: np.ndarray
    psi_shadow: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        points = np.size(self.psi_primary) if np.ndim(self.psi_primary) == 1 else 0
        dx = _spacing(self.x_min, self.x_max, points)
        pair = check_dual("waves", self.psi_primary, self.psi_shadow,
                          lambda p: np.sum(np.abs(p) ** 2) * dx)
        vars(self).update(pair=pair, psi_primary=pair[0], psi_shadow=pair[1])

    mirror_deviation = mirror_deviation

    @property
    def points(self):
        return self.psi_primary.size

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.points

    @property
    def x(self):
        return _cell_centres(self.x_min, self.x_max, self.points)

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.psi_primary) ** 2) * self.dx))


def _spacing(x_min, x_max, points):
    """Cell width of a grid of `points` cells on [x_min, x_max], after the
    grid rules are checked: nothing divides by a bad count or width, and the
    width's square, which the Hamiltonian divides by, is a normal float."""
    if points < 16:
        raise ValueError(f"grid needs at least 16 points, got {points}")
    if not 0.0 < x_max - x_min < np.inf:
        raise ValueError(f"grid bounds must be finite with x_min < x_max: {x_min}, {x_max}")
    dx = (x_max - x_min) / points
    if dx * dx < np.finfo(float).tiny:
        raise ValueError(f"grid cell width {dx:g} is too small: its square is below "
                         "the smallest normal float")
    return dx


def _cell_centres(x_min, x_max, points):
    """Samples at the cell centres of the grid: symmetric packets stay
    symmetric on it."""
    return x_min + _spacing(x_min, x_max, points) * (np.arange(points) + 0.5)


def gaussian_packet(x_min, x_max, points, x0=0.0, sigma=1.0, k0=0.0):
    """Normalized Gaussian wave packet with central momentum k0, mirrored."""
    x = _cell_centres(x_min, x_max, points)
    if not (np.isfinite(x0) and np.isfinite(k0)):
        raise ValueError(f"x0 and k0 must be finite: {x0}, {k0}")
    # past the grid's Nyquist wave number the samples alias to a slower packet
    nyquist = np.pi / _spacing(x_min, x_max, points)
    if abs(k0) >= nyquist:
        raise ValueError(f"k0 {k0:g} aliases: |k0| must be below the grid's Nyquist "
                         f"wave number pi/dx = {nyquist:g}")
    # products, not float **, which raises OverflowError instead of giving inf
    if not (sigma > 0 and 0.0 < 4.0 * sigma * sigma < np.inf):
        raise ValueError(f"sigma must be positive with 4 sigma^2 finite and > 0: {sigma}")
    # exp(-inf) is the exact zero tail of a square that overflows
    with np.errstate(over="ignore", invalid="ignore"):
        psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma ** 2) + 1j * k0 * x)
    return from_samples(x_min, x_max, psi)


def from_samples(x_min, x_max, values):
    """Wave grid from raw complex samples, normalized and mirrored."""
    dx = _spacing(x_min, x_max, np.size(values))
    psi = normalized(values, lambda p: np.sqrt(np.sum(np.abs(p) ** 2) * dx),
                     "a wave function")
    return WaveGrid(x_min, x_max, psi, psi)


@dataclass(frozen=True, eq=False)
class Potential:
    """Real external potential sampled on the grid points."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("potential must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def zero(cls, grid):
        return cls(np.zeros(grid.points))

    @classmethod
    def harmonic(cls, grid):
        """Harmonic well x^2 / 2 of unit frequency."""
        return cls(0.5 * grid.x ** 2)


def _hamiltonian(grid, v, boundary):
    sp = _this.sp
    n = grid.points
    dx2 = grid.dx ** 2
    lap = sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                   [-1, 0, 1], format="lil")
    if boundary == "periodic":
        lap[0, -1] = 1.0
        lap[-1, 0] = 1.0
    elif boundary != "hard-wall":
        raise ValueError(f"unknown boundary {boundary!r}")
    return -0.5 * lap.tocsc() / dx2 + sp.diags(v.values).tocsc()


def evolve(grid, v, dt, steps, boundary="periodic"):
    """Advance psi and its shadow by steps*dt with the Cayley-form step
    (1 + i dt H / 2) psi' = (1 - i dt H / 2) psi, unitary to round-off.

    Negative dt runs the evolution backwards (the scheme is time symmetric).
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not np.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    if v.values.shape != (grid.points,):
        raise ValueError("potential length must match the grid")
    if steps == 0 or dt == 0.0:
        return grid
    h = _hamiltonian(grid, v, boundary)
    with np.errstate(over="ignore", invalid="ignore"):
        half_step = 0.5j * dt * h
    if not np.all(np.isfinite(half_step.data)):
        raise ValueError(f"step matrix i dt H / 2 is not finite for dt={dt}")
    eye = _this.sp.identity(grid.points, format="csc")
    forward = _this.spla.splu((eye + half_step).tocsc())
    back = (eye - half_step).tocsc()
    # columns: primary and shadow, advanced by one solve per step
    psi = grid.pair.T
    for step in range(1, steps + 1):
        psi = forward.solve(back @ psi)
        if not np.all(np.isfinite(psi)):
            raise InvariantViolation(
                f"waves: finiteness broken: non-finite amplitudes at "
                f"t={grid.t + step * dt:g} (dt={dt:g})"
            )
    return WaveGrid(grid.x_min, grid.x_max, psi[:, 0], psi[:, 1], t=grid.t + steps * dt)


def free_propagate(grid, duration):
    """Exact free evolution via the spectral propagator exp(-i k^2 t / 2).

    Periodic in space; both registers advanced by the same diagonal unitary
    in one FFT pair.
    """
    k = 2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.dx)
    phase = np.exp(-1j * k ** 2 * duration / 2.0)
    psi = np.fft.ifft(phase * np.fft.fft(grid.pair, axis=-1), axis=-1)
    return WaveGrid(grid.x_min, grid.x_max, psi[0], psi[1], t=grid.t + duration)


# ---------------------------------------------------------------------------
# zone partitions and collapse


@dataclass(frozen=True)
class ZonePartition:
    """Contiguous zones delimited by grid-aligned cut indices."""

    cut_indices: tuple  # strictly increasing interior cut points, grid indices

    def __post_init__(self):
        cuts = tuple(int(c) for c in self.cut_indices)
        if len(cuts) < 1:
            raise ValueError("need at least one interior cut (two zones)")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValueError("cut indices must be strictly increasing")
        if cuts[0] <= 0:
            raise ValueError("first cut must be an interior grid index")
        object.__setattr__(self, "cut_indices", cuts)

    @property
    def zone_count(self):
        return len(self.cut_indices) + 1

    def edges(self, points):
        """0, the cuts, `points`: zone i is cells edges[i] to edges[i + 1]."""
        if self.cut_indices[-1] >= points:
            raise ValueError("cut index beyond the grid")
        return np.array((0, *self.cut_indices, points))

    @classmethod
    def equal_zones(cls, points, k):
        if k < 2:
            raise ValueError("need at least two zones")
        if k > points:
            raise ValueError(f"{k} zones do not fit on a grid of {points} points")
        cuts = [points * i // k for i in range(1, k)]
        return cls(tuple(cuts))


def _zone_weights(grid, partition):
    """Both rows' weights per zone, (2, zone_count), in one pass over the held pair."""
    edges = partition.edges(grid.points)
    sizes = np.diff(edges)
    density = np.abs(grid.pair) ** 2
    weights = np.empty((2, sizes.size))
    # np.take lays the zones of one size out contiguously, so each sums
    # pairwise, as np.sum sums its slice; equal zones have at most two sizes
    for size in set(sizes.tolist()):
        same = sizes == size
        cells = edges[:-1][same, None] + np.arange(size)
        weights[:, same] = np.take(density, cells, axis=1).sum(axis=-1)
    return weights * grid.dx


def zone_coefficients(grid, partition):
    """Zone weights c_i with sum |c_i|^2 = 1; the in-zone profile keeps the
    pre-collapse interior phase and integrates to one inside its zone."""
    return np.sqrt(_zone_weights(grid, partition)[0]).astype(complex)


def confine(grid, partition, zones):
    """Both wave functions confined to `zones`, (2, points): each cell of a
    given zone divided by the root of its own row's weight there, others 0."""
    weights = np.full((2, partition.zone_count), np.inf)  # others scale by 0
    weights[:, zones] = _zone_weights(grid, partition)[:, zones]
    empty = np.flatnonzero(np.any(weights == 0.0, axis=0))
    if empty.size:
        raise ValueError(f"zone {empty[0]} has zero weight")
    # x * (1 / s) is the arithmetic of the complex division x / s, bit for bit
    scale = np.repeat(1.0 / np.sqrt(weights), np.diff(partition.edges(grid.points)), axis=1)
    return grid.pair * scale


def zone_profile(grid, partition, i):
    """Normalized in-zone wave function of zone i, zero everywhere else; for a
    sequence of zones, the sum of their profiles."""
    return confine(grid, partition, i)[0]


def collapse_to(grid, partition, zone):
    """Both wave functions confined to the zone, each by its own weight there."""
    return WaveGrid(grid.x_min, grid.x_max, *confine(grid, partition, zone), t=grid.t)


def collapse_detect(grid, partition, rng):
    """Sample a zone by the Born rule and confine both wave functions to it."""
    probs = np.abs(zone_coefficients(grid, partition)) ** 2
    zone = sample_outcome(rng.random(), probs / probs.sum())
    return zone, collapse_to(grid, partition, zone)


# ---------------------------------------------------------------------------
# double slit


@dataclass(frozen=True)
class SlitGeometry:
    separation: float   # center-to-center slit distance
    width: float        # Gaussian aperture width per slit
    distance: float     # propagation distance to the screen

    def __post_init__(self):
        # written so that NaN fails too
        if not all(0.0 < v < np.inf for v in (self.separation, self.width, self.distance)):
            raise ValueError(f"slit geometry values must be positive and finite: {self}")
        if self.width >= self.separation:
            raise ValueError("slit apertures overlap")
        if self.distance < 10.0 * self.separation:
            raise ValueError("far-field regime requires distance >> separation")


@dataclass(frozen=True, eq=False)
class DoubleSlitResult:
    bin_edges: np.ndarray
    counts: np.ndarray
    expected: np.ndarray     # expected counts per bin from the sampled intensity
    visibility: float        # from the propagated intensity, central fringe window
    fringe_spacing: float
    screen_grid: WaveGrid


def _evolved_gaussian(x, t, x0, sigma):
    """Closed-form free evolution of exp(-(x-x0)^2 / (4 sigma^2)), normalized."""
    tau = 1.0 + 1j * t / (2.0 * sigma ** 2)
    amp = (2.0 * np.pi * sigma ** 2) ** (-0.25) / np.sqrt(tau)
    return amp * np.exp(-((x - x0) ** 2) / (4.0 * sigma ** 2 * tau))


def analytic_screen_intensity(x, geometry, wavelength, slits="both"):
    """Independent closed-form |psi|^2 on the screen (sum of evolved Gaussians)."""
    k0 = 2.0 * np.pi / wavelength
    t = geometry.distance / k0
    half = geometry.separation / 2.0
    if slits == "both":
        # the two apertures overlap by exp(-separation^2 / (8 width^2))
        r = half / geometry.width
        norm = np.sqrt(2.0 + 2.0 * np.exp(-0.5 * r * r))
        psi = (_evolved_gaussian(x, t, -half, geometry.width)
               + _evolved_gaussian(x, t, half, geometry.width)) / norm
    elif slits in ("left", "right"):
        x0 = -half if slits == "left" else half
        psi = _evolved_gaussian(x, t, x0, geometry.width)
    else:
        raise ValueError(f"unknown slit selection {slits!r}")
    return np.abs(psi) ** 2


def fringe_visibility(x, intensity, spacing):
    # contrast inside one fringe window centered on the intensity peak:
    # near-flat for a single slit, bright-center / dark-edge for two slits
    peak = x[int(np.argmax(intensity))]
    window = np.abs(x - peak) <= spacing / 2.0
    imax = float(np.max(intensity[window]))
    imin = float(np.min(intensity[window]))
    return (imax - imin) / (imax + imin)


# cells of the periodic domain the aperture state is propagated on
SCREEN_POINTS = 8192
# screen widths, the intensity std hypot(slit width, spread), from slit to edge
SLIT_CLEARANCE = 4.0


def double_slit_accumulate(geometry, shots, bins, rng, wavelength=0.05, slits="both"):
    """Accumulate single detections of a two-slit (or one-slit) pattern.

    The aperture state (one Gaussian per open slit, equal weights) is freely
    propagated to the screen; each shot samples one detection position from
    the resulting |psi|^2 and the histogram collects them bin by bin, over
    three fringe spacings either side of the centre.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if not 0.0 < wavelength < np.inf:
        raise ValueError(f"wavelength must be positive and finite, got {wavelength}")
    # products, not float **, as in gaussian_packet
    width2 = 4.0 * geometry.width * geometry.width
    if not 0.0 < width2 < np.inf:
        raise ValueError(f"slit width must have 4 width^2 finite and > 0: {geometry.width}")
    k0 = 2.0 * np.pi / wavelength
    duration = geometry.distance / k0  # flight time at speed k0
    spacing = wavelength * geometry.distance / geometry.separation
    screen_halfwidth = 3.0 * spacing
    # domain wide enough that the spread packets stay clear of the wrap-around
    spread = duration / (2.0 * geometry.width)
    half = geometry.separation / 2.0
    half_domain = max(4.0 * screen_halfwidth, 6.0 * spread,
                      half + SLIT_CLEARANCE * np.hypot(geometry.width, spread))
    x = _cell_centres(-half_domain, half_domain, SCREEN_POINTS)
    centres = {"both": (-half, half), "left": (-half,), "right": (half,)}.get(slits)
    if centres is None:
        raise ValueError(f"unknown slit selection {slits!r}")
    # a square that overflows gives the exact zero tail, exp(-inf)
    with np.errstate(over="ignore"):
        psi0 = sum(np.exp(-((x - x0) ** 2) / width2) for x0 in centres)
    cell = 2.0 * half_domain / SCREEN_POINTS
    if not np.any(psi0):
        raise ValueError(f"slit width {geometry.width:g} is too narrow for the far-field "
                         f"grid's cell width {cell:g}: no aperture sample is nonzero")
    # a slit narrower than one cell is sampled too coarsely for the screen
    # intensity to follow the far-field oracle
    if cell > geometry.width:
        raise ValueError(f"slit width {geometry.width:g} is narrower than the far-field "
                         f"grid's cell width {cell:g}: the aperture is not resolved")
    grid = from_samples(-half_domain, half_domain, psi0)
    screen = free_propagate(grid, duration)
    intensity = np.abs(screen.psi_primary) ** 2

    window = np.abs(screen.x) <= screen_halfwidth
    xs = screen.x[window]
    p = intensity[window]
    p = p / p.sum()
    samples = xs[sample_outcome(rng.random(shots), p)]
    edges = np.linspace(-screen_halfwidth, screen_halfwidth, bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    idx = np.clip(np.searchsorted(edges, xs, side="right") - 1, 0, bins - 1)
    expected = np.bincount(idx, weights=p, minlength=bins) * shots

    return DoubleSlitResult(
        bin_edges=edges,
        counts=counts,
        expected=expected,
        visibility=fringe_visibility(screen.x, intensity, spacing),
        fringe_spacing=spacing,
        screen_grid=screen,
    )
