"""Projective measurement in any orthonormal basis of one or two qubits.

One kernel serves every measurement: ``_contract`` contracts the bras of a
basis with the target qubits of a stack of held primary/shadow pairs in one
matrix product, and ``_embed`` puts an outcome ket back. One walker,
``measure_shots``, runs a sequence of measurement steps (``Z_BASIS``,
``X_BASIS``, any 2x2 basis, or ``BELL_BASIS`` on a pair) for many shots at
once, in one loop over the steps: each level's live outcome paths are one
stack of post-states, checked in one call (``register.check_registers``) and
collapsed, primary and shadow, in one product. ``projective_measure`` and
``bell_measure`` are its one-shot case, each drawing one uniform from the
caller's generator. Every step is checked once per walk; the three bases
defined here are read-only and checked once, at import. Each record keeps
the conditional pair of the unmeasured qubits and builds its registers when
read: the post-state, and the unmeasured qubits' state read two ways, from
the shadow register (the nonlocality mechanism under test) and from the
primary. Every register built is validated; none is kept.
``sample_outcome`` is the package's one sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .register import (BellKind, DualRegister, HADAMARD, check_registers,
                       check_targets, check_unitary, from_amplitudes, l2_norm,
                       read_only, targets_first)

# columns are the outcome states; measure_shots trusts these three objects
Z_BASIS = read_only(check_unitary(np.eye(2, dtype=complex), 2, "basis"))
X_BASIS = read_only(check_unitary(HADAMARD.copy(), 2, "basis"))
BELL_BASIS = read_only(check_unitary(np.column_stack([k.amplitudes() for k in BellKind]),
                                     4, "basis"))
BELL_LABELS = tuple(BellKind)
_CHECKED_BASES = (Z_BASIS, X_BASIS, BELL_BASIS)


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One outcome of one step: its label and Born probability, and `cond`, the
    read-only conditional pair of the unmeasured qubits (row 0 from the
    primary, row 1 from the shadow). Each register is built, and validated,
    every time it is read."""

    outcome: Union[int, BellKind]
    probability: float
    cond: np.ndarray
    qubit_count: int
    targets: tuple
    ket: np.ndarray

    @property
    def post_state(self) -> DualRegister:
        """The collapsed register: the outcome ket on the targets, tensored
        with the normalized conditional pair."""
        post = _post_pair(self)
        return DualRegister(self.qubit_count, post[0], post[1])

    @property
    def remote_state_via_shadow(self) -> Optional[DualRegister]:
        """The unmeasured qubits' register read from the shadow."""
        return _remote_register(self.cond[1])

    @property
    def remote_state_direct(self) -> Optional[DualRegister]:
        """The unmeasured qubits' register read from the primary."""
        return _remote_register(self.cond[0])


def sample_outcome(u, probs):
    """Outcome index drawn by a uniform u in [0, 1) under probs, for a scalar
    u or element-wise for an array: the first k with u < p_0 + ... + p_k.
    When rounding leaves u >= sum(probs), the last outcome whose probability
    is above round-off, never a zero-weight one."""
    probs = np.asarray(probs, dtype=float)
    k = probs.cumsum().searchsorted(u, side="right")
    if (k == probs.size).any():
        floor = probs.size * np.finfo(float).eps * probs.max()
        k = np.where(k < probs.size, k, np.flatnonzero(probs > floor)[-1])
    return k if np.ndim(u) else int(k)


def _contract(vecs, n, targets, basis):
    """Contract the bra of every column of basis with the target qubits of
    every row of vecs, shape (..., 2**n), in one matrix product: the
    unnormalized amplitudes of the other qubits, shape
    (k, ..., 2**(n - len(targets))) for k columns."""
    vecs = np.asarray(vecs, dtype=complex)
    lead = vecs.shape[:-1]
    a = vecs.reshape(lead + (2,) * n).transpose(targets_first(lead, n, targets)[0])
    out = np.dot(np.conj(basis).T, a.reshape(2 ** len(targets), -1))
    return out.reshape(out.shape[:1] + lead + (2 ** (n - len(targets)),))


def _embed(conds, n, targets, ket):
    """Inverse of _contract for one ket: |ket> on the target qubits, tensored
    with every row of conds in the order of the other qubits. The outer
    product is the one np.tensordot(ket, conds, axes=0) makes."""
    conds = np.asarray(conds)
    lead = conds.shape[:-1]
    t = len(targets)
    a = np.dot(np.asarray(ket).reshape(2 ** t, 1), conds.reshape(1, -1))
    back = targets_first(lead, n, targets)[1]
    return a.reshape((2,) * t + lead + (2,) * (n - t)).transpose(back).reshape(lead + (-1,))


def _post_pair(record):
    """The unchecked (2, 2**n) pair of a record's post-state."""
    return _embed(record.cond, record.qubit_count, record.targets,
                  record.ket) / l2_norm(record.cond[0])


def _post_states(records):
    """The records' post-state pairs as one read-only stack, checked in one call."""
    return check_registers([_post_pair(record) for record in records])


def _remote_register(cond):
    """The unmeasured qubits' register from conditional amplitudes, if any."""
    if cond.size < 2 or l2_norm(cond) == 0.0:
        return None
    return from_amplitudes(cond, cond.size.bit_length() - 1)


def measure_shots(state, steps, u):
    """Run the measurement steps on state for every shot at once.

    Each step is (targets, basis, labels) and measures the post-state of the
    step before it. Row i of u holds shot i's uniforms, one per step, in the
    order a per-shot loop would draw them. Returns the distinct outcome paths
    in depth-first order, each a tuple of MeasurementRecords made once, and
    for each shot the index of its path. Every step is checked once, before
    any is measured, except that Z_BASIS, X_BASIS and BELL_BASIS were checked
    at import.
    """
    n = state.qubit_count
    checked = []
    for targets, basis, labels in steps:
        targets = tuple(check_targets(n, targets))
        d = 2 ** len(targets)
        if not (any(basis is b for b in _CHECKED_BASES) and basis.shape == (d, d)):
            basis = read_only(np.array(check_unitary(basis, d, "basis")))
        checked.append((targets, basis, labels))
    u = np.asarray(u, dtype=float)
    paths, index, stack = [()], np.zeros(len(u), dtype=int), state.pair[None]
    for level, (targets, basis, labels) in enumerate(checked):
        conds = read_only(_contract(stack, n, targets, basis))  # (k, live, 2, rest)
        probs = (np.abs(conds[:, :, 0]) ** 2).sum(axis=-1)
        k = len(basis)
        key = index * k
        for p in range(len(paths)):
            shots = index == p
            key[shots] += sample_outcome(u[shots, level], probs[:, p])
        # path * k + outcome in ascending order is the depth-first order
        drawn = np.bincount(key, minlength=len(paths) * k) > 0
        index = (drawn.cumsum() - 1)[key]
        live = [divmod(j, k) for j in np.flatnonzero(drawn).tolist()]
        records = [MeasurementRecord(labels[o], float(probs[o, p]), conds[o, p], n, targets,
                                     basis[:, o]) for p, o in live]
        paths = [paths[p] + (record,) for (p, _), record in zip(live, records)]
        if level + 1 < len(checked):
            stack = _post_states(records)
    return paths, index


def _measure(state, step, rng):
    """One shot of one step, drawing one rng.random()."""
    (path,), _ = measure_shots(state, [step], [[rng.random()]])
    return path[0]


def projective_measure(state: DualRegister, qubit, basis, rng):
    """Measure one qubit; collapse primary and shadow atomically.

    Returns a MeasurementRecord whose remote states are the conditional
    amplitudes of the unmeasured qubits, extracted from the shadow register
    and, independently, from the primary register.
    """
    return _measure(state, ([qubit], basis, (0, 1)), rng)


def bell_measure(state: DualRegister, pair, rng):
    """Projective Bell-basis measurement on a qubit pair, atomic collapse."""
    return _measure(state, (pair, BELL_BASIS, BELL_LABELS), rng)
