"""Truncated Fock space over a finite momentum grid with shadow bookkeeping.

A ``DualFockState`` holds the sorted basis indices of its occupations,
``index``, and the read-only ``(2, K)`` pair of ``register.check_dual``, whose
columns follow ``index``: row 0 the primary amplitudes, row 1 the mirrored
shadow.  Its ``primary`` and ``shadow`` maps from occupation tuples are built
on read.  An occupation's basis index is its dot product with ``_place_values``.

One ladder rule, ``_ladder``, acts on rows of an integer occupation array
(``_digits`` of basis indices).  ``_apply_ladder`` runs it on a state's
indices and shifts the kept ones by ``delta * place[mode]``, which keeps them
sorted; ``_ladder_map`` runs it on the whole basis, giving a column map:
column ``c`` goes to row ``rows[c]`` (-1 for none) with factor ``factors[c]``.
``annihilation_matrix`` scatters it into a dense matrix; the (anti)commutator
residuals compose maps by index gathers, merge each column's at most three
candidates on equal rows, keep the guarded sector (a boolean mask of the
states the cutoff cannot touch) and report sqrt(||A||_1 ||A||_inf), which is
the spectral norm of these residual blocks (one entry per row and column at
most) and bounds it.  ``bracket_residuals`` gives every mode pair's residuals
of a grid from one mask and one lowering and one raising map per mode.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .register import check_dual, mirror_deviation, normalized, read_only, scaled

@dataclass(frozen=True)
class ModeGrid:
    """Finite set of momentum modes with a per-mode occupation cutoff."""

    momenta: tuple
    max_occupation: int = 4
    statistics: str = "boson"

    def __post_init__(self):
        object.__setattr__(self, "momenta", tuple(float(p) for p in self.momenta))
        if len(self.momenta) == 0:
            raise ValueError("mode grid needs at least one momentum")
        if not np.isfinite(self.momenta).all():
            raise ValueError(f"momenta must be finite, got {self.momenta}")
        if any(b <= a for a, b in zip(self.momenta, self.momenta[1:])):
            raise ValueError("momenta must be strictly increasing")
        if not isinstance(self.max_occupation, numbers.Integral):
            raise ValueError(f"max_occupation must be an integer, got {self.max_occupation!r}")
        object.__setattr__(self, "max_occupation", int(self.max_occupation))
        if self.statistics not in ("boson", "fermion"):
            raise ValueError(f"unknown statistics {self.statistics!r}")
        if self.statistics == "fermion" and self.max_occupation != 1:
            raise ValueError("fermion statistics forces max_occupation = 1")
        if self.max_occupation < 1:
            raise ValueError("max_occupation must be positive")
        if self.dim > 2 ** 63:
            raise ValueError(f"mode grid dimension {self.dim} exceeds 2**63, "
                             "the range of its 64-bit basis indices")

    @property
    def mode_count(self):
        return len(self.momenta)

    @property
    def mode_dim(self):
        return self.max_occupation + 1

    @property
    def dim(self):
        return self.mode_dim ** self.mode_count

    def basis_occupations(self):
        """All occupation tuples, in the order of vectors and matrices."""
        return [tuple(occ) for occ in _digits(self).tolist()]


@dataclass(frozen=True)
class DispersionParams:
    """Mass and speed constant for the single-particle dispersion weight."""

    mass: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not (0 < self.mass < np.inf and 0 < self.c < np.inf):
            raise ValueError("mass and c must be positive and finite")

    def energy(self, p):
        return np.sqrt(p * p * self.c ** 2 + self.mass ** 2 * self.c ** 4)


@dataclass(frozen=True, eq=False, init=False)
class DualFockState:
    """Occupation-number amplitudes with a mirrored shadow register: the sorted
    basis indices of the occupations held, and the pair whose columns follow them."""

    grid: ModeGrid
    index: np.ndarray
    pair: np.ndarray

    def __init__(self, grid: ModeGrid, primary: dict, shadow: dict) -> None:
        if primary.keys() != shadow.keys():
            raise ValueError("primary and shadow key sets differ")
        index = _basis_index(grid, list(primary))
        order = np.argsort(index)
        amps = np.array([list(primary.values()), [shadow[k] for k in primary]], dtype=complex)
        self.__post_init__(grid, index[order], *amps[:, order])

    def __post_init__(self, grid, index, primary, shadow):
        # every build ends here, ladder results and normalized copies included:
        # bench/tracing.py counts Fock states by wrapping this method
        vars(self).update(grid=grid, index=read_only(index),
                          pair=check_dual("fock", primary, shadow, None))

    mirror_deviation = mirror_deviation

    def _record(self, row):
        """Row `row` of the pair keyed by occupation tuple, in index order."""
        occs = map(tuple, _digits(self.grid, self.index).tolist())
        return dict(zip(occs, self.pair[row].tolist()))

    primary = property(lambda self: self._record(0))
    shadow = property(lambda self: self._record(1))

    @property
    def is_zero(self):
        """True for the zero vector, which has no stored amplitudes."""
        return self.index.size == 0

    def amplitude(self, occ):
        """The primary amplitude of an occupation tuple of the grid, 0j where none
        is held; a tuple off the grid raises, as the constructor does."""
        (key,) = _basis_index(self.grid, [tuple(occ)])
        pos = np.searchsorted(self.index, key)
        return complex(self.pair[0, pos]) if key in self.index[pos:pos + 1] else 0j

    def norm(self):
        if self.is_zero:
            return 0.0
        vec, exponent = scaled(self.pair[0])
        return float(np.ldexp(np.linalg.norm(vec), exponent))

    def normalized(self):
        if self.is_zero:
            raise ValueError("cannot normalize the zero vector")
        amps = normalized(self.pair[0], np.linalg.norm, "a Fock state")
        return _held(self.grid, self.index, amps)

    def to_vector(self):
        """Dense primary amplitude vector in basis_occupations() order."""
        vec = np.zeros(self.grid.dim, dtype=complex)
        vec[self.index] = self.pair[0]
        return vec


def _held(grid, index, amps):
    """The state holding `amps` on the sorted basis indices `index`: one
    physical amplitude per entry, mirrored into both rows."""
    state = object.__new__(DualFockState)
    state.__post_init__(grid, index, amps, amps)
    return state


def _basis_index(grid, occs):
    """Basis indices of a list of occupation tuples, each checked to hold one
    integer occupation in [0, max_occupation] per mode."""

    def reject(bad, what):
        if bad.any():
            raise ValueError(f"occupation tuple {occs[bad.argmax()]} {what}")

    reject(np.fromiter(map(len, occs), int, len(occs)) != grid.mode_count, "has wrong length")
    occ = np.array(occs, dtype=float).reshape(len(occs), grid.mode_count)
    reject((occ != np.floor(occ)).any(axis=1), "is not an integer occupation")
    reject(((occ < 0) | (occ > grid.max_occupation)).any(axis=1), "out of range")
    return occ.astype(int) @ _place_values(grid)


def vacuum(grid):
    """Dual state with unit amplitude on the all-zeros occupation tuple, basis index 0."""
    return _held(grid, np.zeros(1, dtype=int), np.ones(1, dtype=complex))


# ---------------------------------------------------------------------------
# the ladder rule, and its two walkers


def _place_values(grid):
    """Basis index of one quantum in each mode: an occupation row's index is
    its dot product with these, mode 0 the most significant digit."""
    return grid.mode_dim ** np.arange(grid.mode_count - 1, -1, -1)


def _digits(grid, index=None):
    """Occupations of the basis states `index` (all by default): row c is index[c]'s."""
    index = np.arange(grid.dim) if index is None else index
    return (index[:, None] // _place_values(grid)) % grid.mode_dim


def _ladder(grid, occ, mode, delta):
    """Lowering (delta -1) or raising (delta +1) of `mode` on rows of occupations:
    which rows stay within [0, max_occupation] (for fermions, Pauli exclusion),
    and each row's factor, sqrt(max(n, n + delta)) or for fermions the
    Jordan-Wigner sign of the modes before `mode`."""
    if mode < 0 or mode >= grid.mode_count:
        raise IndexError(f"mode {mode} out of range")
    n = occ[:, mode]
    hit = (n + delta >= 0) & (n + delta <= grid.max_occupation)
    if grid.statistics == "fermion":
        return hit, 1.0 - 2.0 * (occ[:, :mode].sum(axis=1) % 2)
    return hit, np.sqrt(np.maximum(n, n + delta))


def _apply_ladder(state, mode, delta, normalize):
    grid = state.grid
    hit, factor = _ladder(grid, _digits(grid, state.index), mode, delta)
    amps = factor * state.pair[0]
    keep = hit & (amps != 0)
    # the single physical amplitude is shared by both registers: every scalar
    # factor is applied once, then mirrored into the shadow row; a shift keeps
    # the indices sorted
    out = _held(grid, state.index[keep] + delta * _place_values(grid)[mode], amps[keep])
    return out.normalized() if normalize and not out.is_zero else out


def apply_b_dagger(state, mode, normalize=False):
    """Combined creation operator: occupation n -> n+1 with factor sqrt(n+1).

    Returns the raw (generally unnormalized) state unless `normalize` is set.
    Fermionic creation on an occupied mode yields the zero vector.
    """
    return _apply_ladder(state, mode, 1, normalize)


def apply_b(state, mode, normalize=False):
    """Combined annihilation operator: occupation n -> n-1 with factor sqrt(n).

    Acting on the bare vacuum yields the zero vector (``is_zero`` set).
    """
    return _apply_ladder(state, mode, -1, normalize)


def _ladder_map(grid, digits, mode, delta):
    """Column map (rows, factors) of the ladder operator `delta` on `mode`,
    from the basis digits: column c goes to row rows[c], or nowhere when
    rows[c] is -1."""
    hit, factor = _ladder(grid, digits, mode, delta)
    rows = np.arange(grid.dim) + delta * _place_values(grid)[mode]
    return np.where(hit, rows, -1), np.where(hit, factor, 0.0)


def annihilation_matrix(grid, mode):
    """Dense matrix of the combined operator b_mode on the truncated space."""
    rows, factors = _ladder_map(grid, _digits(grid), mode, -1)
    cols = np.flatnonzero(rows >= 0)
    mat = np.zeros((grid.dim, grid.dim), dtype=complex)
    mat[rows[cols], cols] = factors[cols]
    return mat


def creation_matrix(grid, mode):
    return annihilation_matrix(grid, mode).conj().T


def single_mode_lowering(nmax):
    """(nmax+1)x(nmax+1) matrix with <n-1| a |n> = sqrt(n)."""
    return annihilation_matrix(ModeGrid((0.0,), nmax), 0)


# ---------------------------------------------------------------------------
# commutation relations


def guarded_sector_projector(grid):
    """Mask of the basis states free of cutoff artifacts: occupations
    <= max_occupation - 1 in every mode for bosons, every state for fermions."""
    return (grid.statistics == "fermion") | (_digits(grid).max(axis=1) < grid.max_occupation)


_BRACKETS = {"boson": "commutator", "fermion": "anticommutator"}
_SIGNS = {"boson": -1, "fermion": 1}


def _compose(outer, inner):
    """Column map of the product outer @ inner of two column maps."""
    mid, factors = inner
    return np.where(mid >= 0, outer[0][mid], -1), outer[1][mid] * factors


def _bracket_residual(grid, bi, x, delta_ij, keep, sign):
    """Norm of b_i X + sign X b_i - delta_ij I on the guarded sector `keep`,
    from the column maps `bi` of b_i and `x` of X.  The continuum delta is
    realized as a Kronecker delta with unit mode volume.

    The norm is sqrt(||A||_1 ||A||_inf) of the residual block A (0.0 when A is
    empty): an upper bound on the spectral norm, equal to it here because
    every row and column of A holds at most one entry."""
    (r1, t1), (r2, t2) = _compose(bi, x), _compose(x, bi)
    cols = np.arange(grid.dim)
    r3 = cols if delta_ij else np.full(grid.dim, -1)
    # each map holds one entry per column, so a column's candidates sit on rows
    # r1, r2 and r3; equal rows merge into the first, summed in the order of
    # the dense sum (t1 + sign t2) - I
    v1 = t1 + np.where(r2 == r1, sign * t2, 0.0) - (r3 == r1)
    v2 = sign * t2 - (r3 == r2)
    rows = np.concatenate([r1, np.where(r2 == r1, -1, r2),
                           np.where((r3 == r1) | (r3 == r2), -1, r3)])
    vals = np.concatenate([v1, v2, np.full(grid.dim, -1.0)])
    cols = np.tile(cols, 3)
    inside = (rows >= 0) & keep[rows] & keep[cols]
    mags = np.abs(vals[inside])
    col_sum = np.bincount(cols[inside], mags, minlength=1).max()
    row_sum = np.bincount(rows[inside], mags, minlength=1).max()
    return float(np.sqrt(col_sum * row_sum))


def _pair_residual(grid, i, j, annihilation_pair, statistics):
    """The bracket residual of one mode pair, X = b_j^dag, or X = b_j with
    `annihilation_pair`, from the two maps it needs."""
    if grid.statistics != statistics:
        raise ValueError(f"{_BRACKETS[statistics]} check requires {statistics}s; "
                         f"use {_BRACKETS[grid.statistics]}_residual")
    digits = _digits(grid)
    bi = _ladder_map(grid, digits, i, -1)
    x = _ladder_map(grid, digits, j, -1 if annihilation_pair else 1)
    return _bracket_residual(grid, bi, x, i == j and not annihilation_pair,
                             guarded_sector_projector(grid), _SIGNS[statistics])


def commutator_residual(grid, i, j, annihilation_pair=False):
    """Norm of [b_i, b_j^dag] - delta_ij I, or of [b_i, b_j] with
    `annihilation_pair`, on the guarded sector of a boson grid."""
    return _pair_residual(grid, i, j, annihilation_pair, "boson")


def anticommutator_residual(grid, i, j, annihilation_pair=False):
    """Norm of {b_i, b_j^dag} - delta_ij I, or of {b_i, b_j} with
    `annihilation_pair`, on the full space of a fermion grid."""
    return _pair_residual(grid, i, j, annihilation_pair, "fermion")


def bracket_residuals(grid):
    """Every residual of the grid's bracket, the commutator for bosons and
    the anticommutator for fermions, as (i, j, pair, residual) for each mode
    i, each mode j, and pair "mixed" (X = b_j^dag), then "annihilation"
    (X = b_j): equal to the per-pair functions, with the mask and the
    lowering and raising maps of every mode built once."""
    keep = guarded_sector_projector(grid)
    digits = _digits(grid)
    modes = range(grid.mode_count)
    lower = [_ladder_map(grid, digits, m, -1) for m in modes]
    upper = [_ladder_map(grid, digits, m, 1) for m in modes]
    del digits
    sign = _SIGNS[grid.statistics]
    return [(i, j, pair, _bracket_residual(grid, lower[i], x[j], i == j and pair == "mixed",
                                           keep, sign))
            for i in modes for j in modes
            for pair, x in (("mixed", upper), ("annihilation", lower))]


# ---------------------------------------------------------------------------
# position-space creation on the momentum grid


def position_amplitudes(grid, x, t, params, relativistic=False):
    """Unnormalized mode amplitudes for a particle created at (x, t)."""
    p = np.asarray(grid.momenta)
    if relativistic:
        e = params.energy(p)
        return np.exp(1j * p * x - 1j * e * t) / np.sqrt(2.0 * e)
    return np.exp(1j * p * x - 1j * (p ** 2 / (2.0 * params.mass)) * t)


def position_create(grid, x, t, params=None, relativistic=False):
    """Normalized single-particle dual state localized at position x at time t."""
    if grid.statistics != "boson":
        raise ValueError("position creation is defined for boson grids")
    params = params or DispersionParams()
    amps = normalized(position_amplitudes(grid, x, t, params, relativistic), np.linalg.norm,
                      "position amplitudes")
    # one quantum in mode k has basis index place[k], which falls as k rises
    return _held(grid, _place_values(grid)[::-1], amps[::-1])
