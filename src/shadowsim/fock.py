"""Truncated Fock space over a finite momentum grid with shadow bookkeeping.

A ``DualFockState`` holds the sorted basis indices of its occupations,
``index``, and the read-only ``(2, K)`` pair of ``register.check_dual``, whose
columns follow ``index``: row 0 the primary amplitudes, row 1 the mirrored
shadow.  Its ``primary`` and ``shadow`` maps from occupation tuples are built
on read.  An occupation's basis index is its dot product with ``_place_values``.

One function, ``_ladder``, gives one mode's ladder operator on a set of basis
indices after one range check: it moves column c to row c + shift with factor
factor[c], 0.0 where the row would leave the basis.  ``_apply_ladder`` builds
it on a state's indices, ``annihilation_matrix`` on the basis.  The
(anti)commutator residuals share one setup, the guarded sector and the ladder
maps of the basis for each mode they read; both products of a pair shift
every column alike, so each residual block is a partial permutation and
``_bracket_residual`` takes its largest magnitude.
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
# the ladder maps, one mode at a time


def _place_values(grid):
    """Basis index of one quantum in each mode: an occupation row's index is
    its dot product with these, mode 0 the most significant digit."""
    return grid.mode_dim ** np.arange(grid.mode_count - 1, -1, -1)


def _digits(grid, index=None):
    """Occupations of the basis states `index` (all by default): row c is index[c]'s."""
    index = np.arange(grid.dim) if index is None else index
    return (index[:, None] // _place_values(grid)) % grid.mode_dim


def _ladder(grid, index, delta, mode):
    """The lowering (delta -1) or raising (delta +1) operator of one mode on
    the basis states `index`, as (shift, factor): column c goes to row
    c + shift with factor factor[c], sqrt(max(n, n + delta)), or for fermions
    the Jordan-Wigner sign of the quanta in the modes before; at the edge,
    where n + delta leaves [0, max_occupation], the factor is 0.0 and the
    column goes nowhere.  A negative mode would wrap, so it is out of range."""
    if not 0 <= mode < grid.mode_count:
        raise IndexError(f"mode {mode} out of range")
    place = _place_values(grid)[mode]
    before, n = np.divmod(index // place, grid.mode_dim)
    if grid.statistics == "fermion":
        # each bit of `before` is a mode's occupation: fold its parity onto bit 0
        for bits in (32, 16, 8, 4, 2, 1):
            before ^= before >> bits
        factor = 1.0 - 2.0 * (before & 1)
    else:
        factor = np.sqrt(np.maximum(n, n + delta))
    factor[n == (grid.max_occupation if delta > 0 else 0)] = 0.0
    return delta * place, factor


def _apply_ladder(state, mode, delta, normalize):
    shift, factor = _ladder(state.grid, state.index, delta, mode)
    amps = factor * state.pair[0]
    # an edge column has factor 0.0 and drops with the exact zeros; the one
    # physical amplitude is shared by both registers: every factor is applied
    # once, then mirrored into the shadow row; one shift keeps index order
    keep = amps != 0
    out = _held(state.grid, state.index[keep] + shift, amps[keep])
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


def annihilation_matrix(grid, mode):
    """Dense matrix of the combined operator b_mode on the truncated space."""
    shift, factor = _ladder(grid, np.arange(grid.dim), -1, mode)
    cols = np.flatnonzero(factor)
    mat = np.zeros((grid.dim, grid.dim), dtype=complex)
    mat[cols + shift, cols] = factor[cols]
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
    """Factors of the product outer @ inner of two maps, which shifts by the sum
    of their shifts.  Where inner's row leaves the basis its factor is 0.0, so
    the factor the roll brings round is multiplied by zero."""
    (_, outer_factors), (shift, inner_factors) = outer, inner
    return np.roll(outer_factors, -shift) * inner_factors


def _bracket_residual(grid, bi, x, delta_ij, keep, sign):
    """Norm of b_i X + sign X b_i - delta_ij I on the guarded sector `keep`,
    from the maps `bi` of b_i and `x` of X, whose shifts cancel if `delta_ij`.
    The continuum delta is realized as a Kronecker delta with unit mode volume.
    Both products move column c to row c + shift, so the residual block is a
    partial permutation: its spectral norm is its largest magnitude, 0.0 when
    the block is empty."""
    shift = bi[0] + x[0]
    entries = _compose(bi, x) + sign * _compose(x, bi) - delta_ij
    lo, span = max(0, -shift), max(0, grid.dim - abs(shift))
    kept = keep[lo:lo + span] & keep[lo + shift:lo + shift + span]
    return float(np.abs(entries[lo:lo + span][kept]).max(initial=0.0))


def _residuals(grid, pairs):
    """The `bracket_residuals` rows of `pairs`, from one guarded mask and the
    lowering and raising maps of each mode that `pairs` name."""
    keep = guarded_sector_projector(grid)
    basis = np.arange(grid.dim)
    modes = dict.fromkeys(m for i, j, _ in pairs for m in (i, j))
    lower, upper = ({m: _ladder(grid, basis, delta, m) for m in modes} for delta in (-1, 1))
    sign = _SIGNS[grid.statistics]
    return [(i, j, pair, _bracket_residual(grid, lower[i],
                                           (upper if pair == "mixed" else lower)[j],
                                           i == j and pair == "mixed", keep, sign))
            for i, j, pair in pairs]


def _pair_residual(grid, i, j, annihilation_pair, statistics):
    """The bracket residual of one mode pair, the one-pair case of `_residuals`."""
    if grid.statistics != statistics:
        raise ValueError(f"{_BRACKETS[statistics]} check requires {statistics}s; "
                         f"use {_BRACKETS[grid.statistics]}_residual")
    pair = "annihilation" if annihilation_pair else "mixed"
    return _residuals(grid, [(i, j, pair)])[0][3]


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
    (X = b_j); the per-pair functions are its one-pair case."""
    modes = range(grid.mode_count)
    return _residuals(grid, [(i, j, pair) for i in modes for j in modes
                             for pair in ("mixed", "annihilation")])


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
