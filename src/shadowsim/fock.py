"""Truncated Fock space over a finite momentum grid with shadow bookkeeping.

States are maps from occupation tuples to complex amplitudes, stored twice:
a primary register and a mirrored shadow register that every operation
updates in the same step.  ``DualFockState`` keeps the mirror contract of
``register.check_dual``, with the amplitudes compared key by key.  Explicit
matrix representations of the ladder operators back the
commutator/anticommutator residual checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .register import check_dual, mirror_deviation

Occupation = tuple  # tuple of ints, one entry per mode


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
        if any(b <= a for a, b in zip(self.momenta, self.momenta[1:])):
            raise ValueError("momenta must be strictly increasing")
        if self.statistics not in ("boson", "fermion"):
            raise ValueError(f"unknown statistics {self.statistics!r}")
        if self.statistics == "fermion" and self.max_occupation != 1:
            raise ValueError("fermion statistics forces max_occupation = 1")
        if self.max_occupation < 1:
            raise ValueError("max_occupation must be positive")

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
        """All occupation tuples, ordered to match the kron-product matrices."""
        return list(iter_product(range(self.mode_dim), repeat=self.mode_count))

    def index_of(self, occ):
        idx = 0
        for n in occ:
            idx = idx * self.mode_dim + n
        return idx


@dataclass(frozen=True)
class DispersionParams:
    """Mass and speed constant for the single-particle dispersion weight."""

    mass: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.mass <= 0 or self.c <= 0:
            raise ValueError("mass and c must be positive")

    def energy(self, p):
        return np.sqrt(p * p * self.c ** 2 + self.mass ** 2 * self.c ** 4)


@dataclass(frozen=True)
class DualFockState:
    """Occupation-number amplitudes with a mirrored shadow register."""

    grid: ModeGrid
    primary: dict
    shadow: dict
    is_zero: bool = False

    def __post_init__(self):
        if set(self.primary) != set(self.shadow):
            raise ValueError("primary and shadow key sets differ")
        for occ in self.primary:
            if len(occ) != self.grid.mode_count:
                raise ValueError(f"occupation tuple {occ} has wrong length")
            if any(n < 0 or n > self.grid.max_occupation for n in occ):
                raise ValueError(f"occupation tuple {occ} out of range")
        check_dual("fock", *self._aligned(), None)

    def _aligned(self):
        """Primary and shadow amplitudes as two lists in one key order."""
        keys = list(self.primary)
        return [self.primary[k] for k in keys], [self.shadow[k] for k in keys]

    def amplitude(self, occ):
        return self.primary.get(tuple(occ), 0j)

    def norm(self):
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.primary.values())))

    def mirror_deviation(self):
        return mirror_deviation(*self._aligned())

    def normalized(self):
        n = self.norm()
        if n == 0.0 or self.is_zero:
            raise ValueError("cannot normalize the zero vector")
        prim = {k: v / n for k, v in self.primary.items()}
        return DualFockState(self.grid, prim, dict(prim))

    def to_vector(self):
        """Dense primary amplitude vector in basis_occupations() order."""
        vec = np.zeros(self.grid.dim, dtype=complex)
        for occ, amp in self.primary.items():
            vec[self.grid.index_of(occ)] = amp
        return vec


def _zero_state(grid):
    return DualFockState(grid, {}, {}, is_zero=True)


def vacuum(grid):
    """Dual state with unit amplitude on the all-zeros occupation tuple."""
    occ = (0,) * grid.mode_count
    return DualFockState(grid, {occ: 1 + 0j}, {occ: 1 + 0j})


def _fermion_sign(occ, mode):
    # fixed-ordering Jordan-Wigner string over the modes before `mode`
    return -1.0 if sum(occ[:mode]) % 2 else 1.0


def _apply_ladder(state, mode, raising):
    if mode < 0 or mode >= state.grid.mode_count:
        raise IndexError(f"mode {mode} out of range")
    if state.is_zero:
        return state
    grid = state.grid
    out = {}
    for occ, amp in state.primary.items():
        n = occ[mode]
        if raising:
            if grid.statistics == "fermion":
                if n == 1:
                    continue  # Pauli exclusion: contribution vanishes
                factor = _fermion_sign(occ, mode)
            else:
                if n + 1 > grid.max_occupation:
                    continue  # truncation policy: over-cutoff terms dropped
                factor = np.sqrt(n + 1)
            new = occ[:mode] + (n + 1,) + occ[mode + 1:]
        else:
            if n == 0:
                continue  # vacuum component annihilates to the zero vector
            if grid.statistics == "fermion":
                factor = _fermion_sign(occ, mode)
            else:
                factor = np.sqrt(n)
            new = occ[:mode] + (n - 1,) + occ[mode + 1:]
        out[new] = out.get(new, 0j) + factor * amp
    out = {k: v for k, v in out.items() if v != 0}
    if not out:
        return _zero_state(grid)
    # the single physical amplitude is shared by both registers: every scalar
    # factor is applied once, then the shadow map is mirrored entry-for-entry
    return DualFockState(grid, out, dict(out))


def apply_b_dagger(state, mode, normalize=False):
    """Combined creation operator: occupation n -> n+1 with factor sqrt(n+1).

    Returns the raw (generally unnormalized) state unless `normalize` is set.
    Fermionic creation on an occupied mode yields the zero vector.
    """
    out = _apply_ladder(state, mode, raising=True)
    return out.normalized() if normalize and not out.is_zero else out


def apply_b(state, mode, normalize=False):
    """Combined annihilation operator: occupation n -> n-1 with factor sqrt(n).

    Acting on the bare vacuum yields the zero vector (``is_zero`` set).
    """
    out = _apply_ladder(state, mode, raising=False)
    return out.normalized() if normalize and not out.is_zero else out


# ---------------------------------------------------------------------------
# explicit matrix representations


def single_mode_lowering(nmax):
    """(nmax+1)x(nmax+1) matrix with <n-1| a |n> = sqrt(n)."""
    a = np.zeros((nmax + 1, nmax + 1), dtype=complex)
    for n in range(1, nmax + 1):
        a[n - 1, n] = np.sqrt(n)
    return a


def annihilation_matrix(grid, mode):
    """Dense matrix of the combined operator b_mode on the truncated space."""
    if mode < 0 or mode >= grid.mode_count:
        raise IndexError(f"mode {mode} out of range")
    if grid.statistics == "fermion":
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        eye = np.eye(2, dtype=complex)
        factors = [z] * mode + [a] + [eye] * (grid.mode_count - mode - 1)
    else:
        a = single_mode_lowering(grid.max_occupation)
        eye = np.eye(grid.mode_dim, dtype=complex)
        factors = [eye] * mode + [a] + [eye] * (grid.mode_count - mode - 1)
    mat = factors[0]
    for f in factors[1:]:
        mat = np.kron(mat, f)
    return mat


def creation_matrix(grid, mode):
    return annihilation_matrix(grid, mode).conj().T


def guarded_sector_projector(grid):
    """Diagonal projector onto occupations <= max_occupation - 1 in every mode.

    Truncation artifacts of the cutoff cannot appear inside this sector.
    """
    diag = np.array(
        [
            1.0 if all(n <= grid.max_occupation - 1 for n in occ) else 0.0
            for occ in grid.basis_occupations()
        ]
    )
    return np.diag(diag).astype(complex)


def commutator_residual(grid, i, j, annihilation_pair=False):
    """Operator norm of [b_i, b_j^dag] - delta_ij I on the guarded sector.

    With `annihilation_pair` the residual of [b_i, b_j] is returned instead.
    The continuum delta is realized as a Kronecker delta with unit mode volume.
    """
    if grid.statistics != "boson":
        raise ValueError("commutator check requires bosons; use anticommutator_residual")
    bi = annihilation_matrix(grid, i)
    if annihilation_pair:
        bj = annihilation_matrix(grid, j)
        comm = bi @ bj - bj @ bi
    else:
        bjd = creation_matrix(grid, j)
        comm = bi @ bjd - bjd @ bi
        if i == j:
            comm = comm - np.eye(grid.dim)
    p = guarded_sector_projector(grid)
    return float(np.linalg.norm(p @ comm @ p, 2))


def anticommutator_residual(grid, i, j, annihilation_pair=False):
    """Operator norm of {b_i, b_j^dag} - delta_ij I on the full fermionic space."""
    if grid.statistics != "fermion":
        raise ValueError("anticommutator check requires fermions; use commutator_residual")
    bi = annihilation_matrix(grid, i)
    if annihilation_pair:
        bj = annihilation_matrix(grid, j)
        anti = bi @ bj + bj @ bi
    else:
        bjd = creation_matrix(grid, j)
        anti = bi @ bjd + bjd @ bi
        if i == j:
            anti = anti - np.eye(grid.dim)
    return float(np.linalg.norm(anti, 2))


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
    amps = position_amplitudes(grid, x, t, params, relativistic)
    amps = amps / np.linalg.norm(amps)
    prim = {}
    for k, a in enumerate(amps):
        occ = tuple(1 if m == k else 0 for m in range(grid.mode_count))
        prim[occ] = complex(a)
    return DualFockState(grid, prim, dict(prim))
