"""Teleportation, entanglement swapping, and readout demonstrations.

Every demo runs its shots through the walker ``measurement.measure_shots``:
what the far side reads depends only on the outcome path, so each path's
result is built once. ``teleportation_shots`` and ``swap_shots`` return one
result per distinct outcome path and each shot's path index
(``run_teleportation`` and ``run_entanglement_swap`` are their one-shot case),
and the readout demos count shots per path from the same index. The states a
demo reads per outcome (the far side read from the shadow, teleport's
corrected qubit, the post-states) are rows made with the arithmetic of
``from_amplitudes``, ``apply_unitary`` and ``fidelity``, checked as one stack
per outcome set (``register.check_registers``) rather than one register each.
The fixed input states (``bell_pair``, ``swap_input_state``,
``product_plus_state``) are built and checked once, at import, and so are the
Pauli-group unitaries that ``CORRECTION_TABLES`` holds: teleportation reads
its resource's table there, and swapping reads ``SWAP_OUTCOME_MAP``. Every
demo draws from the generator its caller passes.

The module also holds the brute-force Bell expansion, through the Bell
measurement's projection kernel (``measurement._contract`` and ``_embed``):
``bell_branches`` and its inverse ``reassemble_branches``. The correction
tables, the swap map and the ``errata`` branch findings are checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .measurement import (BELL_BASIS, BELL_LABELS, X_BASIS, Z_BASIS, _contract,
                          _embed, _post_states, measure_shots)
# not called here since the walker replaced them; bench/tracing.py wraps them
from .measurement import bell_measure, projective_measure  # noqa: F401
from .register import (
    BellKind,
    DualRegister,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _embed_apply,
    bell_pair,
    check_registers,
    check_unitary,
    from_amplitudes,
    held_register,
    l2_norm,
    mirror_residuals,
    normalized,
    read_only,
    tensor,
)
# not called here since the per-outcome rows replaced them; bench/tracing.py
# wraps them
from .register import apply_unitary, fidelity  # noqa: F401


def phase_invariant_distance(u, v):
    """min over unit phases of ||u - e^{i theta} v||: the norm of the difference at
    e^{i theta} = <v,u>/|<v,u>| (any phase if 0), accurate to round-off near 0."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    inner = np.vdot(v, u)
    phase = inner / abs(inner) if inner != 0 else 1.0
    return float(np.linalg.norm(u - phase * v))


def bell_branches(vec, n, pair):
    """Unnormalized conditional vectors of the remaining qubits per Bell kind."""
    return dict(zip(BellKind, _contract(vec, n, pair, BELL_BASIS)))


def reassemble_branches(branches, n, pair):
    """Re-tensor each Bell ket with its branch and sum; inverts bell_branches."""
    return sum(_embed(cond, n, pair, kind.amplitudes()) for kind, cond in branches.items())


def _joined(qubit, resource):
    """A one-qubit register on qubit 0 joined with a resource pair on (1, 2)."""
    return tensor(qubit, bell_pair(resource))


_SWAP_INPUT = tensor(bell_pair(BellKind.PSI_MINUS), bell_pair(BellKind.PSI_MINUS))


def swap_input_state():
    """Two singlet pairs on qubits (0,1) and (2,3): one prebuilt read-only
    register."""
    return _SWAP_INPUT


# ---------------------------------------------------------------------------
# correction tables


# the phase-extended Pauli group, in search order, as one read-only stack of
# unitaries checked here once
_PAULI_GROUP = read_only(np.array([check_unitary(phase * pauli, 2, "Pauli-group element")
                                   for pauli in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
                                   for phase in (1.0, -1.0, 1j, -1j)]))


def _identity_multiples(d):
    """For a stack of 2x2 matrices, whether each is the identity times a scalar."""
    return ((abs(d[..., 0, 1]) < 1e-10) & (abs(d[..., 1, 0]) < 1e-10)
            & (abs(d[..., 0, 0] - d[..., 1, 1]) < 1e-10))


def derive_correction_table(resource: BellKind, rng=None):
    """Search the phase-extended Pauli group for the unitary undoing each branch:
    {BellKind: 2x2 unitary}.

    Branch M (remote branch M @ (alpha, beta)) has as column c the branch of the
    basis input |c> joined with the resource, all read off one Bell expansion.
    A candidate is accepted when U @ M is proportional to the identity and the
    correction is confirmed on a random probe; the first accepted candidate in
    search order is taken, with every candidate tested on every branch at once.
    """
    rng = rng or np.random.default_rng(0)
    branches = bell_branches(np.kron(np.eye(2), resource.amplitudes()), 3, (0, 1))
    ms = [branches[kind].T for kind in BellKind]
    scales = np.array([np.linalg.norm(m) for m in ms]) / np.sqrt(2.0)
    accepted = _identity_multiples((_PAULI_GROUP[:, None] @ np.array(ms))
                                   / scales[:, None, None])
    unitaries = {}
    for kind, m, hits in zip(BellKind, ms, accepted.T):
        if not hits.any():
            raise RuntimeError(
                f"no Pauli-group correction found for outcome {kind}; "
                "decomposition oracle is inconsistent"
            )
        found = _PAULI_GROUP[hits.argmax()]
        # confirm on an independent random probe
        probe = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        probe /= np.linalg.norm(probe)
        corrected = found @ (m @ probe)
        if phase_invariant_distance(corrected / np.linalg.norm(corrected), probe) > 1e-10:
            raise RuntimeError(f"correction for {kind} failed the probe check")
        unitaries[kind] = found
    return unitaries


# each resource's correction table, {outcome: unitary}, as the indices of its
# unitaries in _PAULI_GROUP (0: I, 4: X, 8: Y, 12: Z) in BellKind order of
# the outcome; derive_correction_table(resource) is the check, not the source
CORRECTION_TABLES = MappingProxyType({
    resource: MappingProxyType({kind: _PAULI_GROUP[i] for kind, i in zip(BellKind, row)})
    for resource, row in (
        (BellKind.PHI_PLUS, (0, 12, 4, 8)),
        (BellKind.PHI_MINUS, (12, 0, 8, 4)),
        (BellKind.PSI_PLUS, (4, 8, 0, 12)),
        (BellKind.PSI_MINUS, (8, 4, 12, 0)),
    )})

# Bell kind measured on the middle pair of two singlets -> Bell kind left on
# the outer pair: always the same kind; swap_outcome_map() is the check
SWAP_OUTCOME_MAP = MappingProxyType({kind: kind for kind in BellKind})


# ---------------------------------------------------------------------------
# protocol runs


@dataclass(frozen=True)
class TeleportationResult:
    outcome: BellKind
    probability: float
    fidelity_with_input: float
    shadow_deviation: float


def _remote_pairs(records):
    """The unchecked (k, 2, rest) stack of the registers each record's
    unmeasured qubits are read as from the shadow: from_amplitudes's
    normalized row as both primary and shadow."""
    return np.array([(v, v) for v in (normalized(rec.cond[1], l2_norm, "coefficients")
                                      for rec in records)])


def _fidelity(pair, ket):
    """fidelity's |<primary|ket>|^2 of a checked pair against a ket."""
    return float(abs(np.vdot(pair[0], ket)) ** 2)


def _single_step(state, step, shots, rng):
    """The records of the distinct outcomes of one step, one rng.random() per
    shot, and each shot's index into them."""
    paths, index = measure_shots(state, [step], rng.random((shots, 1)))
    return [record for record, in paths], index


def teleportation_shots(alpha, beta, resource, shots, rng):
    """Teleportation rounds, one rng.random() per shot: prepare, Bell-measure
    (0,1), correct qubit 2 by the resource's CORRECTION_TABLES entry. Returns
    one TeleportationResult per distinct outcome and each shot's index into
    them."""
    target = from_amplitudes([alpha, beta], 1)  # also the input qubit
    records, index = _single_step(_joined(target, resource),
                                  ((0, 1), BELL_BASIS, BELL_LABELS), shots, rng)
    table = CORRECTION_TABLES[resource]
    unitaries = [table[record.outcome] for record in records]
    remotes = _remote_pairs(records)
    k = len(records)
    # apply_unitary's arithmetic on each remote qubit; the remote and the
    # corrected qubits are then checked as one stack
    qubits = check_registers([*remotes, *(_embed_apply(pair, 1, [0], u)
                                          for pair, u in zip(remotes, unitaries))])
    devs = np.maximum(mirror_residuals(_post_states(records)),
                      mirror_residuals(qubits[k:])).tolist()
    return [TeleportationResult(record.outcome, record.probability,
                                _fidelity(corrected, target.primary), dev)
            for record, corrected, dev in zip(records, qubits[k:], devs)], index


def run_teleportation(alpha, beta, resource, rng):
    """One shot of teleportation_shots."""
    results, index = teleportation_shots(alpha, beta, resource, 1, rng)
    return results[index[0]]


@dataclass(frozen=True)
class SwapResult:
    outcome: BellKind
    predicted_remote_kind: BellKind
    remote_pair: DualRegister
    fidelity_with_prediction: float
    shadow_deviation: float


def swap_outcome_map():
    """Bell kind measured on the middle pair -> Bell kind left on the outer pair,
    read off the brute-force Bell expansion of the swap input."""
    singlet = BellKind.PSI_MINUS.amplitudes()
    branches = bell_branches(np.kron(singlet, singlet), 4, (1, 2))
    kets = {kind: kind.amplitudes() for kind in BellKind}
    return {kind: max(BellKind, key=lambda k: abs(np.vdot(kets[k], branches[kind])))
            for kind in BellKind}


def swap_shots(shots, rng):
    """Swap rounds, one rng.random() per shot: Bell-measure the middle pair of
    two singlets; the outer pair collapses, via the shadow register, onto the
    Bell state SWAP_OUTCOME_MAP predicts. Returns one SwapResult per distinct
    outcome and each shot's index into them."""
    records, index = _single_step(swap_input_state(), ((1, 2), BELL_BASIS, BELL_LABELS),
                                  shots, rng)
    remotes = check_registers(_remote_pairs(records))
    devs = np.maximum(mirror_residuals(_post_states(records)),
                      mirror_residuals(remotes)).tolist()
    results = []
    for record, pair, dev in zip(records, remotes, devs):
        predicted = SWAP_OUTCOME_MAP[record.outcome]
        results.append(SwapResult(record.outcome, predicted, held_register(pair),
                                  _fidelity(pair, bell_pair(predicted).primary), dev))
    return results, index


def run_entanglement_swap(rng):
    """One shot of swap_shots."""
    results, index = swap_shots(1, rng)
    return results[index[0]]


# ---------------------------------------------------------------------------
# readout demonstrations


@dataclass(frozen=True)
class ReadoutStats:
    shots: int
    counts: dict                 # (outcome0, outcome1) -> count
    correlation: float           # E[s0 * s1] with spin values +1 / -1
    min_remote_fidelity: float   # shadow-read remote vs measured outcome state
    marginal0_up_fraction: float


def _step(qubit, basis):
    return ((qubit,), basis, (0, 1))


def entangled_readout_demo(shots, rng):
    """Measure one half of a phi-plus pair, read the far half via the shadow,
    then measure it; outcomes are perfectly correlated."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    paths, index = measure_shots(bell_pair(BellKind.PHI_PLUS),
                                 [_step(0, Z_BASIS), _step(1, Z_BASIS)], rng.random((shots, 2)))
    firsts = [rec0 for rec0, _ in paths]
    # each path's far qubit read from the shadow and the state its first
    # outcome predicts, from_amplitudes's row of the basis column, in one stack
    expected = (normalized(Z_BASIS[:, rec0.outcome], l2_norm, "coefficients") for rec0 in firsts)
    qubits = check_registers([*_remote_pairs(firsts), *((v, v) for v in expected)])
    k = len(paths)
    fids = [_fidelity(remote, ket[0]) for remote, ket in zip(qubits[:k], qubits[k:])]
    counts, corr, ups = {}, 0, 0
    for (rec0, rec1), n in zip(paths, np.bincount(index).tolist()):
        s0, s1 = rec0.outcome, rec1.outcome
        counts[(s0, s1)] = n
        corr += n * (1 - 2 * s0) * (1 - 2 * s1)
        ups += n * (1 - s0)
    return ReadoutStats(shots, counts, corr / shots, min([1.0] + fids), ups / shots)


@dataclass(frozen=True)
class ProductStateStats:
    shots: int
    tvd_z: float
    tvd_x: float
    min_remote_fidelity: float
    measured_z_up_fraction: float
    control_z_up_fraction: float
    measured_x_plus_fraction: float
    control_x_plus_fraction: float


_PLUS = from_amplitudes([1.0, 1.0], 1)
_PRODUCT_PLUS = tensor(_PLUS, _PLUS)


def product_plus_state():
    """(|u> + |d>)/sqrt2 on each of two qubits, no entanglement: one prebuilt
    read-only register."""
    return _PRODUCT_PLUS


def product_state_demo(shots, rng):
    """Show that measuring qubit 0 of a product state leaves the remote
    marginals (z and x) unchanged; the shadow-read remote state equals the
    untouched single-qubit state on every shot."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    u = rng.random((shots, 6))
    state = product_plus_state()

    # each shot draws, in order: measured case (qubit 0 read out first) in z
    # and in x, then the control case (qubit 0 untouched) in z and in x
    runs = [measure_shots(state, steps, u[:, cols]) for steps, cols in (
        ([_step(0, Z_BASIS), _step(1, Z_BASIS)], slice(0, 2)),
        ([_step(0, Z_BASIS), _step(1, X_BASIS)], slice(2, 4)),
        ([_step(1, Z_BASIS)], slice(4, 5)),
        ([_step(1, X_BASIS)], slice(5, 6)))]
    mz, mx, cz, cx = [np.count_nonzero(np.array([p[-1].outcome for p in paths])[index] == 0)
                      / shots for paths, index in runs]
    # the shadow-read remote state of the measured z run, per distinct first record
    firsts = list(dict.fromkeys(p[0] for p in runs[0][0]))
    min_fid = min([1.0] + [_fidelity(pair, _PLUS.primary)
                           for pair in check_registers(_remote_pairs(firsts))])
    return ProductStateStats(shots, abs(mz - cz), abs(mx - cx), min_fid, mz, cz, mx, cx)
