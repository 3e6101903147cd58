"""Projective measurement in any orthonormal basis of one or two qubits.

One kernel serves every measurement: ``_contract`` contracts the bras of a
basis with the target qubits of a register's held primary/shadow pair in one
matrix product, and ``_embed`` puts an outcome ket back. One walker,
``measure_shots``, runs a sequence of measurement steps
(``Z_BASIS``, ``X_BASIS``, any 2x2 basis, or ``BELL_BASIS`` on a pair) for
many shots at once, collapsing both registers once per distinct outcome path;
``projective_measure`` and ``bell_measure`` are its one-shot case. It checks
every step once per walk and builds a post-state only to measure the next
step on it. Each record keeps the conditional pair of the unmeasured qubits
and builds its registers when they are read: the post-state, and the
unmeasured qubits' state read two ways, from the shadow register (the
nonlocality mechanism under test) and from the primary. Every register built
is validated; none is kept. ``sample_outcome`` is the package's one sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .register import (BellKind, DualRegister, HADAMARD, check_targets,
                       check_unitary, from_amplitudes, l2_norm, read_only,
                       targets_first)

# columns are the outcome states
Z_BASIS = np.eye(2, dtype=complex)
X_BASIS = HADAMARD.copy()
BELL_BASIS = np.column_stack([k.amplitudes() for k in BellKind])
BELL_LABELS = tuple(BellKind)


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
        n = self.qubit_count
        post = _embed(self.cond, n, self.targets, self.ket) / l2_norm(self.cond[0])
        return DualRegister(n, post[0], post[1])

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
    return out.reshape((-1,) + lead + (2 ** (n - len(targets)),))


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


def _branches(state, targets, basis):
    """The read-only (k, 2, rest) stack of conditional pairs, one per basis
    column, from one product, and their Born probabilities."""
    conds = read_only(_contract(state.pair, state.qubit_count, targets, basis))
    return conds, (np.abs(conds[:, 0]) ** 2).sum(axis=1).tolist()


def _remote_register(cond):
    """The unmeasured qubits' register from conditional amplitudes, if any."""
    if cond.size < 2 or l2_norm(cond) == 0.0:
        return None
    return from_amplitudes(cond, cond.size.bit_length() - 1)


def measure_shots(state, steps, u):
    """Run the measurement steps on state for every shot at once.

    Each step is (targets, basis, labels) and measures the post-state of the
    step before it. Row i of u holds shot i's uniforms, one per step, in the
    order a per-shot loop would draw them. Returns the distinct outcome paths,
    each a tuple of MeasurementRecords made once, and for each shot the index
    of its path. Every step is checked once, before any is measured.
    """
    n = state.qubit_count
    checked = []
    for targets, basis, labels in steps:
        targets = tuple(check_targets(n, targets))
        basis = read_only(np.array(check_unitary(basis, 2 ** len(targets), "basis")))
        checked.append((targets, basis, labels))
    u = np.asarray(u, dtype=float)
    if not checked:
        return [()], np.zeros(len(u), dtype=int)
    return _walk(state, checked, u)


def _walk(state, steps, u):
    """measure_shots on checked steps; a post-state is built only to measure
    the next step on it."""
    (targets, basis, labels), rest = steps[0], steps[1:]
    conds, probs = _branches(state, targets, basis)
    drawn = sample_outcome(u[:, 0], probs)
    paths, index = [], np.empty(len(u), dtype=int)
    for k in np.bincount(drawn).nonzero()[0].tolist():
        record = MeasurementRecord(labels[k], probs[k], conds[k], state.qubit_count,
                                   targets, basis[:, k])
        shots = drawn == k
        tails, tail_index = [()], 0
        if rest:
            tails, tail_index = _walk(record.post_state, rest, u[shots, 1:])
        index[shots] = len(paths) + tail_index
        paths += [(record,) + tail for tail in tails]
    return paths, index


def _measure(state, step, rng):
    """One shot of one step, drawing one rng.random()."""
    (path,), _ = measure_shots(state, [step], [[rng.random()]])
    return path[0]


def born_probabilities(state: DualRegister, qubit, basis=Z_BASIS):
    """Born-rule outcome probabilities for measuring one qubit in a basis."""
    targets = check_targets(state.qubit_count, [qubit])
    return tuple(_branches(state, targets, check_unitary(basis, 2, "basis"))[1])


def projective_measure(state: DualRegister, qubit, basis=Z_BASIS, rng=None):
    """Measure one qubit; collapse primary and shadow atomically.

    Returns a MeasurementRecord whose remote states are the conditional
    amplitudes of the unmeasured qubits, extracted from the shadow register
    and, independently, from the primary register.
    """
    return _measure(state, ([qubit], basis, (0, 1)), rng or np.random.default_rng())


def bell_outcome_probabilities(state: DualRegister, pair):
    """Born probabilities of the four Bell outcomes on the given qubit pair."""
    targets = check_targets(state.qubit_count, pair)
    return dict(zip(BELL_LABELS, _branches(state, targets, BELL_BASIS)[1]))


def bell_measure(state: DualRegister, pair, rng=None):
    """Projective Bell-basis measurement on a qubit pair, atomic collapse."""
    return _measure(state, (pair, BELL_BASIS, BELL_LABELS), rng or np.random.default_rng())
