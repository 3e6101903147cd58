"""Multi-qubit dual registers, and the mirror contract every dual object keeps.

Basis convention: qubit 0 is the leftmost ket slot, so basis index
``i = sum_k bit_k * 2**(n-1-k)`` with bit 0 = up, bit 1 = down.

``check_dual`` is the one implementation of the mirror contract: the shadow
equals the primary entry-wise within the mirror tolerance, and the primary
has unit norm where the kind requires it. ``DualRegister``,
``fock.DualFockState`` and ``waves.WaveGrid`` call it from ``__post_init__``.
Its comparisons fail closed, so NaN or inf in either record is rejected; it
raises ``InvariantViolation`` naming the invariant, residual and tolerance.
It returns the read-only ``(2, N)`` pair each dual object holds, whose rows
are its two records; operations act on it in one call, so both change together.
It also checks a ``(k, 2, N)`` stack of such pairs in one pass: the
measurement walker and the protocols validate each outcome set's states as
one stack (``check_registers``) rather than one ``DualRegister`` per outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

import numpy as np

# per kind of dual object: the largest entry-wise |primary - shadow|, and the
# largest distance of the primary's norm quantity (see check_dual) from one
TOLERANCES = {
    "register": {"mirror": 1e-12, "norm": 1e-12},
    "fock": {"mirror": 1e-12},
    "waves": {"mirror": 1e-10, "norm": 1e-8},
}
UNITARY_TOL = 1e-10


class InvariantViolation(ValueError):
    """A dual object broke its mirror or norm contract."""


def l2_norm(vec):
    """The 2-norm of a 1-D complex array: np.linalg.norm's own arithmetic,
    sqrt(re.re + im.im), bit for bit, without its argument dispatch."""
    re, im = vec.real, vec.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def read_only(a):
    """The array a, made read-only."""
    a.setflags(write=False)
    return a


def mirror_residuals(pairs):
    """Largest entry-wise |row 0 - row 1| of a (2, N) pair, or of each pair of a
    (k, 2, N) stack, 0.0 where N is 0; NaN or inf exactly where some entry of
    either row is non-finite."""
    return np.abs(pairs[..., 0, :] - pairs[..., 1, :]).max(axis=-1, initial=0.0)


def mirror_deviation(dual):
    """The mirror residual of a dual object's held pair: the one method that
    DualRegister, DualFockState and WaveGrid bind."""
    return float(mirror_residuals(dual.pair))


def check_dual(kind, primary, shadow, norm):
    """The read-only complex (2, N) pair of a `kind` dual object, row 0 a copy of
    the primary and row 1 of the shadow, after checking its mirror contract;
    `norm` maps the primary to the quantity that must equal one, None where
    unnormalized states are allowed.

    With `shadow` None, `primary` is a (k, 2, N) stack of such pairs, or an
    empty sequence: every item is checked in the same pass, the error gives
    the worst item's residual, and a read-only copy of the stack comes back."""
    if shadow is None:
        pairs = stack = np.array(primary, dtype=complex)
        if stack.size == 0 and stack.ndim < 3:
            pairs = stack = stack.reshape(0, 2, 0)
        elif stack.ndim != 3 or stack.shape[1] != 2:
            raise ValueError(f"{kind}: a stack of pairs has shape (k, 2, N), not {stack.shape}")
    else:
        if np.shape(shadow) != np.shape(primary):
            raise ValueError(f"{kind}: shadow has shape {np.shape(shadow)}, "
                             f"primary {np.shape(primary)}")
        pairs = np.array((primary, shadow), dtype=complex)
        stack = pairs[None]
    residuals = [("mirror", float(mirror_residuals(stack).max(initial=0.0)))]
    if norm is not None:
        norms = np.array([norm(row) for row in stack[:, 0]])
        residuals.append(("norm", float(np.abs(norms - 1.0).max(initial=0.0))))
    for name, residual in residuals:
        tol = TOLERANCES[kind][name]
        if not residual <= tol:
            raise InvariantViolation(f"{kind}: {name} residual {residual:.3g} > tolerance {tol:g}")
    return read_only(pairs)


def check_registers(pairs):
    """check_dual of a (k, 2, 2**n) stack of register pairs: each item is
    checked as a DualRegister's pair is, all in one call."""
    return check_dual("register", pairs, None, l2_norm)


def check_targets(n, targets):
    """targets as a list of distinct qubit indices of an n-qubit register."""
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError("target qubits must be distinct")
    if any(q < 0 or q >= n for q in targets):
        raise IndexError("target qubit out of range")
    return targets


def check_unitary(u, d, what):
    """u as a complex d x d array; raises unless it is unitary within UNITARY_TOL."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise ValueError(f"{what} must be {d}x{d}")
    if not np.abs(u.conj().T @ u - np.eye(d)).max() <= UNITARY_TOL:
        raise ValueError(f"{what} is not unitary")
    return u


class BellKind(Enum):
    PHI_PLUS = "phi-plus"
    PHI_MINUS = "phi-minus"
    PSI_PLUS = "psi-plus"
    PSI_MINUS = "psi-minus"

    def amplitudes(self):
        """A writable copy of this kind's four amplitudes."""
        return _BELL_AMPLITUDES[self].copy()


_S = 1.0 / np.sqrt(2.0)
_BELL_AMPLITUDES = MappingProxyType({
    kind: read_only(np.array(amps, dtype=complex)) for kind, amps in {
        BellKind.PHI_PLUS: [_S, 0, 0, _S],
        BellKind.PHI_MINUS: [_S, 0, 0, -_S],
        BellKind.PSI_PLUS: [0, _S, _S, 0],
        BellKind.PSI_MINUS: [0, _S, -_S, 0],
    }.items()})


@dataclass(frozen=True, eq=False)
class DualRegister:
    """Immutable n-qubit state: primary and shadow are the rows of its `pair`."""

    qubit_count: int
    primary: np.ndarray
    shadow: np.ndarray

    def __post_init__(self):
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be positive")
        if np.shape(self.primary) != (2 ** self.qubit_count,):
            raise ValueError("amplitude vector length must be 2**qubit_count")
        pair = check_dual("register", self.primary, self.shadow, l2_norm)
        vars(self).update(pair=pair, primary=pair[0], shadow=pair[1])

    mirror_deviation = mirror_deviation


def held_register(pair):
    """The DualRegister holding `pair`, an item of a stack that check_registers
    returned, without checking it again."""
    reg = object.__new__(DualRegister)
    vars(reg).update(qubit_count=pair.shape[-1].bit_length() - 1, pair=pair,
                     primary=pair[0], shadow=pair[1])
    return reg


# the four Bell states, built and checked once
_BELL_PAIRS = MappingProxyType({kind: DualRegister(2, amps, amps)
                                for kind, amps in _BELL_AMPLITUDES.items()})


def scaled(values):
    """(`values` * 2**-e as a complex array, e), with e the binary exponent of
    the largest magnitude: an exact scale after which norms of tiny or huge
    values neither underflow nor overflow."""
    vec = np.asarray(values, dtype=complex)
    exponent = math.frexp(np.abs(vec).max())[1]
    return np.ldexp(np.ascontiguousarray(vec).view(float), -exponent).view(complex), exponent


def normalized(values, norm, what):
    """`values` as a complex array divided by `norm` of it, scaled first."""
    vec, _ = scaled(values)
    n = norm(vec)
    if not 0.0 < n < np.inf:
        raise ValueError(f"cannot normalize {what} of norm {n}: zero or non-finite")
    return vec / n


def from_amplitudes(coeffs, qubit_count):
    """Build a dual register from raw coefficients, normalizing the vector."""
    vec = np.asarray(coeffs, dtype=complex)
    if vec.shape != (2 ** qubit_count,):
        raise ValueError(
            f"expected {2 ** qubit_count} coefficients for {qubit_count} qubits, "
            f"got {vec.shape}"
        )
    vec = normalized(vec, l2_norm, "coefficients")
    return DualRegister(qubit_count, vec, vec)


def bell_pair(kind: BellKind):
    """Two-qubit register in the named Bell state, shadow mirrored: one
    prebuilt read-only register per kind."""
    return _BELL_PAIRS[kind]


def tensor(a: DualRegister, b: DualRegister):
    """Kronecker composition, a's qubits leftmost, of both rows at once."""
    pair = (a.pair[:, :, None] * b.pair[:, None, :]).reshape(2, -1)
    return DualRegister(a.qubit_count + b.qubit_count, pair[0], pair[1])


def targets_first(lead, n, targets):
    """The axis order that puts the target qubits' axes of an array of shape
    lead + (2,) * n first and keeps the others in order, and its inverse."""
    slots = [len(lead) + q for q in targets]
    order = slots + [ax for ax in range(len(lead) + n) if ax not in slots]
    return order, sorted(range(len(order)), key=order.__getitem__)


def _embed_apply(vecs, n, targets, u):
    """u on the target qubits of every row of vecs, shape (..., 2**n)."""
    lead = vecs.shape[:-1]
    order, back = targets_first(lead, n, targets)
    a = vecs.reshape(lead + (2,) * n).transpose(order)
    shape = a.shape
    a = (u @ a.reshape(2 ** len(targets), -1)).reshape(shape)
    return a.transpose(back).reshape(vecs.shape)


def apply_unitary(state: DualRegister, targets, u):
    """Apply the same unitary to both registers on the listed target qubits."""
    targets = check_targets(state.qubit_count, targets)
    u = check_unitary(u, 2 ** len(targets), f"unitary for {len(targets)} targets")
    pair = _embed_apply(state.pair, state.qubit_count, targets, u)
    return DualRegister(state.qubit_count, pair[0], pair[1])


def fidelity(a: DualRegister, b: DualRegister):
    """|<a|b>|^2 on the primary registers; insensitive to global phase."""
    if a.qubit_count != b.qubit_count:
        raise ValueError("registers differ in qubit count")
    return float(abs(np.vdot(a.primary, b.primary)) ** 2)


# common single-qubit gates
PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
