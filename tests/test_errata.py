import numpy as np
import pytest

from shadowsim.errata import (PRINTED_SWAP_SIGNS, PRINTED_TELEPORT_BRANCHES,
                              build_erratum_report, swap_decomposition,
                              teleport_decomposition)
from shadowsim.register import BellKind


def test_report_deterministic():
    a = build_erratum_report()
    b = build_erratum_report()
    assert a == b


def test_expected_findings_present():
    report = build_erratum_report()
    ids = [f["id"] for f in report["findings"]]
    assert ids == [
        "entangled-pair-prefactor",
        "teleportation-resource-mismatch",
        "teleportation-branch-flip",
        "swap-branch-signs",
        "ladder-factor-double-application",
        "zone-expansion-coefficients",
    ]


def test_verdicts_follow_oracles():
    by_id = {f["id"]: f for f in build_erratum_report()["findings"]}
    assert by_id["entangled-pair-prefactor"]["verdict"] == "erratum"
    assert by_id["teleportation-resource-mismatch"]["verdict"] == "erratum"
    assert by_id["teleportation-branch-flip"]["verdict"] == "erratum"
    assert by_id["ladder-factor-double-application"]["verdict"] == "erratum"
    assert by_id["zone-expansion-coefficients"]["verdict"] == "erratum"
    # the swap identity survives the brute-force expansion as printed
    assert by_id["swap-branch-signs"]["verdict"] == "match"


def test_teleport_finding_branch_detail():
    by_id = {f["id"]: f for f in build_erratum_report()["findings"]}
    verdicts = by_id["teleportation-branch-flip"]["branch_verdicts"]
    assert verdicts["phi-plus"] == "match"
    assert verdicts["phi-minus"] == "match"
    assert verdicts["psi-plus"] == "erratum"
    assert verdicts["psi-minus"] == "erratum"


def test_ladder_finding_values():
    by_id = {f["id"]: f for f in build_erratum_report()["findings"]}
    f = by_id["ladder-factor-double-application"]
    assert f["matrix_element"] == np.sqrt(2.0)
    assert f["single_application_residual"] < 1e-12
    assert f["residual"] > 0.5


# --- the two branch findings ----------------------------------------------------

def test_teleport_phi_branches_match_printed():
    finding = teleport_decomposition(0.6, 0.8j)
    assert finding["branch_residuals"]["phi-plus"] < 1e-12
    assert finding["branch_residuals"]["phi-minus"] < 1e-12
    assert finding["branch_verdicts"]["phi-plus"] == "match"


def test_teleport_psi_branches_flag_erratum():
    finding = teleport_decomposition(0.6, 0.8j)
    assert finding["branch_verdicts"]["psi-plus"] == "erratum"
    assert finding["branch_verdicts"]["psi-minus"] == "erratum"
    assert finding["verdict"] == "erratum"


@pytest.mark.parametrize("alpha,beta", [(1e-200, 1e-200j), (1e200, 1e200j)])
def test_teleport_decomposition_of_tiny_and_huge_amplitudes(alpha, beta):
    # (alpha, beta) is normalized once, by the exact scaling of from_amplitudes
    finding = teleport_decomposition(alpha, beta)
    reference = teleport_decomposition(0.6, 0.8j)
    assert finding["branch_verdicts"] == reference["branch_verdicts"]
    assert finding["branch_residuals"]["phi-plus"] < 1e-12
    assert finding["branch_residuals"]["phi-minus"] < 1e-12
    assert finding["reassembly_residual"] < 1e-12


def test_branch_completeness_teleport():
    finding = teleport_decomposition(0.3 + 0.2j, -0.7j)
    assert finding["reassembly_residual"] < 1e-12


def test_swap_decomposition_matches_printed():
    finding = swap_decomposition()
    for kind in BellKind:
        assert finding["branch_residuals"][kind.value] < 1e-12, kind
    assert finding["verdict"] == "match"
    assert finding["reassembly_residual"] < 1e-12


# each Bell ket on a qubit pair as its 2x2 amplitude matrix [first, second]
_S = 1.0 / np.sqrt(2.0)
BELL_KETS = {
    "phi-plus": _S * np.array([[1, 0], [0, 1]], dtype=complex),
    "phi-minus": _S * np.array([[1, 0], [0, -1]], dtype=complex),
    "psi-plus": _S * np.array([[0, 1], [1, 0]], dtype=complex),
    "psi-minus": _S * np.array([[0, 1], [-1, 0]], dtype=complex),
}


def _oracle(psi, contract, embed, printed):
    """Branch residuals and reassembly residual of a (2,)*n state, each branch
    contracted with einsum subscripts `contract` and re-tensored with `embed`."""
    branches = {k: np.einsum(contract, ket.conj(), psi) for k, ket in BELL_KETS.items()}
    residuals = {k: float(np.linalg.norm(b.ravel() - printed[k])) for k, b in branches.items()}
    reassembled = sum(np.einsum(embed, BELL_KETS[k], b) for k, b in branches.items())
    return residuals, float(np.linalg.norm(reassembled - psi))


def _assert_matches_oracle(finding, oracle):
    residuals, reassembly = oracle
    assert finding["branch_residuals"].keys() == residuals.keys()
    for k, r in residuals.items():
        assert abs(finding["branch_residuals"][k] - r) <= 1e-12, k
    assert abs(finding["reassembly_residual"] - reassembly) <= 1e-12


def _teleport_cases():
    rng = np.random.default_rng(27)
    draws = rng.standard_normal((20, 4))
    return [(0.6, 0.8j)] + [(complex(a, b), complex(c, d)) for a, b, c, d in draws]


@pytest.mark.parametrize("alpha,beta", _teleport_cases(),
                         ids=["printed"] + [f"random-{i}" for i in range(20)])
def test_teleport_finding_matches_einsum_oracle(alpha, beta):
    # the input qubit on 0 joined with phi-minus on (1, 2), Bell-expanded on (0, 1)
    qubit = np.array([alpha, beta], dtype=complex) / np.hypot(abs(alpha), abs(beta))
    psi = np.einsum("a,bc->abc", qubit, BELL_KETS["phi-minus"])
    printed = {kind.value: 0.5 * (m @ qubit) for kind, m in PRINTED_TELEPORT_BRANCHES.items()}
    _assert_matches_oracle(teleport_decomposition(alpha, beta),
                           _oracle(psi, "ab,abc->c", "ab,c->abc", printed))


def test_swap_finding_matches_einsum_oracle():
    # two singlets on (0, 1) and (2, 3), Bell-expanded on the middle pair (1, 2)
    psi = np.einsum("ab,cd->abcd", BELL_KETS["psi-minus"], BELL_KETS["psi-minus"])
    printed = {kind.value: 0.5 * sign * BELL_KETS[kind.value].ravel()
               for kind, sign in PRINTED_SWAP_SIGNS.items()}
    _assert_matches_oracle(swap_decomposition(),
                           _oracle(psi, "bc,abcd->ad", "bc,ad->abcd", printed))
