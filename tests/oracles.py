"""Born-rule oracles written apart from the package's projection kernel.

Each probability is contracted with ``np.einsum`` straight from a register's
primary amplitudes and bras written out here, so the tests that hold
measurement records to them share no code with ``shadowsim.measurement``.
The oracles trust their input: the checks of a basis and of the target qubits
are the package's, and the tests hold ``measure_shots`` to them.

``teleport_input_state`` builds the teleportation input the tests measure,
from the package's public register constructors.
"""

import numpy as np

from shadowsim.register import BellKind, bell_pair, from_amplitudes, tensor

_S = 1.0 / np.sqrt(2.0)
# the Bell kets in BellKind order (phi+, phi-, psi+, psi-) over |00>, |01>, |10>, |11>,
# the first target qubit the more significant
BELL_KETS = np.array([[_S, 0, 0, _S], [_S, 0, 0, -_S], [0, _S, _S, 0], [0, _S, -_S, 0]])


def _probabilities(state, targets, kets):
    """Squared norm of (<ket_k| (x) I) psi for each row ket_k of `kets`, shaped
    (k, 2, ..., 2) with one axis per target qubit, qubit 0 the most significant."""
    n = state.qubit_count
    qubits = "abcdefghijklmnop"[:n]
    on = "".join(qubits[q] for q in targets)
    rest = "".join(c for q, c in enumerate(qubits) if q not in targets)
    amps = np.einsum(f"z{on},{qubits}->z{rest}", np.conj(kets),
                     np.asarray(state.primary).reshape((2,) * n))
    return (np.abs(amps) ** 2).reshape(len(kets), -1).sum(axis=1)


def born_probabilities(state, qubit, basis):
    """Outcome probabilities of measuring one qubit in the basis whose columns
    are the outcome states."""
    return tuple(_probabilities(state, [qubit], np.asarray(basis).T).tolist())


def bell_outcome_probabilities(state, pair):
    """Probabilities of the four Bell outcomes on a qubit pair, by BellKind."""
    probs = _probabilities(state, list(pair), BELL_KETS.reshape(4, 2, 2))
    return dict(zip(BellKind, probs.tolist()))


def teleport_input_state(alpha, beta, resource=BellKind.PHI_MINUS):
    """(alpha|u> + beta|d>) on qubit 0 joined with a resource pair on (1, 2)."""
    return tensor(from_amplitudes([alpha, beta], 1), bell_pair(resource))
