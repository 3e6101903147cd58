"""Deterministic erratum report.

Every finding is computed by an oracle at report time: printed expressions are
hard-coded here, the derived side is recomputed (the branch findings through
``protocols.bell_branches``), and the verdict is whatever the residual says.
Each finding is built as the dict the document prints.  Nothing here depends
on a random stream, so the report is byte-identical across runs.
"""

from __future__ import annotations

import numpy as np

from .fock import single_mode_lowering
from .protocols import _joined, bell_branches, reassemble_branches, swap_input_state
from .register import BellKind, from_amplitudes
from .waves import ZonePartition, gaussian_packet, zone_coefficients, zone_profile

BRANCH_TOL = 1e-12


def verdict(residual):
    """The verdict on a printed form whose residual against its oracle is
    `residual`: "match" below BRANCH_TOL, else "erratum"."""
    return "match" if residual < BRANCH_TOL else "erratum"


# printed branch coefficient matrices of the teleportation identity: the
# source text pairs each Bell outcome on the first two qubits with the remote
# state M @ (alpha, beta), all branches weighted 1/2
PRINTED_TELEPORT_BRANCHES = {
    BellKind.PSI_MINUS: np.array([[-1, 0], [0, -1]], dtype=complex),
    BellKind.PSI_PLUS: np.array([[-1, 0], [0, 1]], dtype=complex),
    BellKind.PHI_MINUS: np.array([[1, 0], [0, 1]], dtype=complex),
    BellKind.PHI_PLUS: np.array([[1, 0], [0, -1]], dtype=complex),
}

# printed swap identity: outcome kind on the middle pair is paired with the
# SAME kind on the outer pair, with signs (+, -, -, +)
PRINTED_SWAP_SIGNS = {
    BellKind.PSI_PLUS: 1.0,
    BellKind.PSI_MINUS: -1.0,
    BellKind.PHI_PLUS: -1.0,
    BellKind.PHI_MINUS: 1.0,
}


def _pair_prefactor_finding():
    printed = np.sqrt(2.0) * np.array([1, 0, 0, 1], dtype=complex)
    implemented = BellKind.PHI_PLUS.amplitudes()
    printed_norm = float(np.linalg.norm(printed))
    return {
        "id": "entangled-pair-prefactor",
        "description": "printed maximally entangled pair carries prefactor "
                       "sqrt(2); a unit-norm state requires 1/sqrt(2)",
        "printed_norm": printed_norm,
        "implemented_norm": float(np.linalg.norm(implemented)),
        "residual": abs(printed_norm - 1.0),
        "verdict": verdict(abs(printed_norm - 1.0)),
    }


def _resource_mismatch_finding():
    expanded = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2.0)
    declared = BellKind.PSI_MINUS.amplitudes()
    dist_declared = float(np.linalg.norm(expanded - declared))
    dist_phi_minus = float(np.linalg.norm(expanded - BellKind.PHI_MINUS.amplitudes()))
    return {
        "id": "teleportation-resource-mismatch",
        "description": "declared teleportation resource is the singlet, but the "
                       "expanded joint state uses (|uu> - |dd>)/sqrt(2)",
        "distance_to_declared_kind": dist_declared,
        "distance_to_phi_minus": dist_phi_minus,
        "residual": dist_declared,
        "verdict": verdict(dist_declared),
    }


def _branch_finding(finding_id, description, state, pair, printed):
    """A finding from the Bell expansion of `state` on `pair` against a
    printed branch table {BellKind: unnormalized branch}."""
    n = state.qubit_count
    derived = bell_branches(state.primary, n, pair)
    residuals = {k.value: float(np.linalg.norm(derived[k] - np.asarray(printed[k], dtype=complex)))
                 for k in BellKind}
    verdicts = {k: verdict(r) for k, r in residuals.items()}
    reassembled = reassemble_branches(derived, n, pair)
    return {
        "id": finding_id,
        "description": description,
        "branch_residuals": residuals,
        "branch_verdicts": verdicts,
        "reassembly_residual": float(np.linalg.norm(reassembled - state.primary)),
        "residual": max(residuals.values()),
        "verdict": "match" if all(v == "match" for v in verdicts.values()) else "erratum",
    }


def teleport_decomposition(alpha, beta):
    """The brute-force Bell expansion of the teleportation state against the
    printed branch table (printed for the phi-minus resource)."""
    qubit = from_amplitudes([alpha, beta], 1)
    return _branch_finding(
        "teleportation-branch-flip",
        "printed psi-branch remote states omit the spin flip the brute-force "
        "Bell expansion produces; phi branches match",
        _joined(qubit, BellKind.PHI_MINUS), (0, 1),
        {kind: 0.5 * (m @ qubit.primary) for kind, m in PRINTED_TELEPORT_BRANCHES.items()})


def swap_decomposition():
    """The brute-force expansion of the double-singlet state on the middle
    pair (1,2) against the printed outer-pair branch table."""
    return _branch_finding(
        "swap-branch-signs",
        "double-singlet expansion on the middle pair compared against the "
        "printed outer-pair kinds and signs",
        swap_input_state(), (1, 2),
        {kind: 0.5 * sign * kind.amplitudes() for kind, sign in PRINTED_SWAP_SIGNS.items()})


def _ladder_factor_finding():
    a = single_mode_lowering(4)
    oracle = float(np.real(a.conj().T[2, 1]))  # <2| a-dagger |1> = sqrt(2)
    single = float(np.sqrt(2.0))
    double = 2.0  # factor applied to ket and shadow ket separately
    return {
        "id": "ladder-factor-double-application",
        "description": "printed raising rule multiplies sqrt(n+1) onto the ket "
                       "and its shadow separately; the matrix element fixes a "
                       "single application",
        "matrix_element": oracle,
        "single_application": single,
        "double_application": double,
        "residual": abs(double - oracle),
        "single_application_residual": abs(single - oracle),
        "verdict": verdict(abs(double - oracle)),
    }


def _zone_expansion_finding():
    grid = gaussian_packet(-8.0, 8.0, 256, sigma=1.0)
    partition = ZonePartition.equal_zones(256, 4)
    c = zone_coefficients(grid, partition)
    # each cell lies in one zone: the sum of the four zone profiles, in one pass
    without = zone_profile(grid, partition, range(4))
    with_c = without * np.repeat(c, np.diff(partition.edges(256)))
    dx = grid.dx
    res_without = float(np.sqrt(np.sum(np.abs(without - grid.psi_primary) ** 2) * dx))
    res_with = float(np.sqrt(np.sum(np.abs(with_c - grid.psi_primary) ** 2) * dx))
    return {
        "id": "zone-expansion-coefficients",
        "description": "printed zone expansion drops the zone coefficients on "
                       "one side; reassembly only works with them",
        "residual_without_coefficients": res_without,
        "residual_with_coefficients": res_with,
        "residual": res_without,
        "verdict": verdict(res_without),
    }


def build_erratum_report():
    """All findings, recomputed from oracles; deterministic across runs."""
    findings = [
        _pair_prefactor_finding(),
        _resource_mismatch_finding(),
        teleport_decomposition(0.6, 0.8j),
        swap_decomposition(),
        _ladder_factor_finding(),
        _zone_expansion_finding(),
    ]
    return {
        "finding_count": len(findings),
        "erratum_count": sum(1 for f in findings if f["verdict"] == "erratum"),
        "findings": findings,
    }
