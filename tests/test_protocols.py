import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from shadowsim.measurement import BELL_BASIS, BELL_LABELS, measure_shots
from shadowsim.protocols import (
    CORRECTION_TABLES,
    SWAP_OUTCOME_MAP,
    bell_branches,
    derive_correction_table,
    entangled_readout_demo,
    phase_invariant_distance,
    product_state_demo,
    reassemble_branches,
    run_entanglement_swap,
    run_teleportation,
    swap_input_state,
    swap_outcome_map,
    swap_shots,
    teleportation_shots,
)
from shadowsim.register import (BellKind, DualRegister, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z,
                                apply_unitary, bell_pair, fidelity, from_amplitudes)

from oracles import teleport_input_state


# --- brute-force Bell expansion -------------------------------------------------

def test_teleport_psi_branch_is_spin_flipped():
    # the derived psi branches carry amplitudes on the (beta, alpha) pattern
    alpha, beta = 0.6, 0.8j
    branches = bell_branches(teleport_input_state(alpha, beta).primary, 3, (0, 1))
    minus = branches[BellKind.PSI_MINUS]
    np.testing.assert_allclose(minus, 0.5 * np.array([-beta, -alpha]), atol=1e-14)
    plus = branches[BellKind.PSI_PLUS]
    np.testing.assert_allclose(plus, 0.5 * np.array([beta, -alpha]), atol=1e-14)


def test_swap_branch_weights():
    state = swap_input_state()
    branches = bell_branches(state.primary, 4, (1, 2))
    for kind in BellKind:
        assert np.linalg.norm(branches[kind]) == pytest.approx(0.5, abs=1e-12)


def test_reassembly_random_states():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        vec = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        vec /= np.linalg.norm(vec)
        pair = tuple(rng.choice(n, size=2, replace=False))
        branches = bell_branches(vec, n, pair)
        residual = np.linalg.norm(reassemble_branches(branches, n, pair) - vec)
        assert residual < 1e-12


def test_phase_invariant_distance():
    u = np.array([1.0, 1j]) / np.sqrt(2)
    assert phase_invariant_distance(u, np.exp(0.4j) * u) < 1e-12
    v = np.array([1.0, 0.0])
    assert phase_invariant_distance(v, np.array([0.0, 1.0])) == pytest.approx(
        np.sqrt(2.0))


def test_phase_invariant_distance_is_accurate_near_zero():
    # a square root of a cancelling difference of squares would leave ~1e-8
    rng = np.random.default_rng(5)
    for _ in range(200):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        u /= np.linalg.norm(u)
        v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * u * (1.0 + 1e-15)
        assert phase_invariant_distance(u, v) < 1e-14


# --- correction tables ------------------------------------------------------------

def test_phi_minus_resource_identity_branch():
    table = derive_correction_table(BellKind.PHI_MINUS)
    u = table[BellKind.PHI_MINUS]
    assert phase_invariant_distance(u.reshape(-1), np.eye(2).reshape(-1)) < 1e-12


def test_phi_minus_resource_z_branch():
    table = derive_correction_table(BellKind.PHI_MINUS)
    u = table[BellKind.PHI_PLUS]
    assert phase_invariant_distance(u.reshape(-1), PAULI_Z.reshape(-1)) < 1e-12


# each resource's correction table, exactly; taken from an earlier derivation
# that solved each branch matrix from two numeric probes, so the pins do not
# come from the code they check
PINNED_TABLES = {
    BellKind.PHI_PLUS: {BellKind.PHI_PLUS: PAULI_I, BellKind.PHI_MINUS: PAULI_Z,
                        BellKind.PSI_PLUS: PAULI_X, BellKind.PSI_MINUS: PAULI_Y},
    BellKind.PHI_MINUS: {BellKind.PHI_PLUS: PAULI_Z, BellKind.PHI_MINUS: PAULI_I,
                         BellKind.PSI_PLUS: PAULI_Y, BellKind.PSI_MINUS: PAULI_X},
    BellKind.PSI_PLUS: {BellKind.PHI_PLUS: PAULI_X, BellKind.PHI_MINUS: PAULI_Y,
                        BellKind.PSI_PLUS: PAULI_I, BellKind.PSI_MINUS: PAULI_Z},
    BellKind.PSI_MINUS: {BellKind.PHI_PLUS: PAULI_Y, BellKind.PHI_MINUS: PAULI_X,
                         BellKind.PSI_PLUS: PAULI_Z, BellKind.PSI_MINUS: PAULI_I},
}


@pytest.mark.parametrize("resource", list(BellKind))
def test_correction_table_pinned_exactly(resource):
    table = derive_correction_table(resource)
    assert list(table) == list(BellKind)
    for kind in BellKind:
        np.testing.assert_array_equal(table[kind], PINNED_TABLES[resource][kind])


@pytest.mark.parametrize("resource", list(BellKind))
def test_literal_table_equals_its_derivation(resource):
    # every request reads the constant; the derivation is its check
    table, derived = CORRECTION_TABLES[resource], derive_correction_table(resource)
    assert list(table) == list(derived) == list(BellKind)
    for kind in BellKind:
        assert table[kind].dtype == derived[kind].dtype
        np.testing.assert_array_equal(table[kind], derived[kind])
        assert not table[kind].flags.writeable
    with pytest.raises(TypeError):
        table[BellKind.PHI_PLUS] = PAULI_I


def test_literal_swap_map_equals_its_derivation():
    assert list(SWAP_OUTCOME_MAP.items()) == list(swap_outcome_map().items())
    with pytest.raises(TypeError):
        SWAP_OUTCOME_MAP[BellKind.PHI_PLUS] = BellKind.PSI_MINUS


def test_correction_tables_pass_the_probe_check_under_any_rng():
    # the 1e-10 probe check must not trip on round-off for any random probe
    for seed in range(500):
        rng = np.random.default_rng(seed)
        for resource in BellKind:
            table = derive_correction_table(resource, rng)
            for kind in BellKind:
                np.testing.assert_array_equal(table[kind], PINNED_TABLES[resource][kind])


@pytest.mark.parametrize("resource", list(BellKind))
def test_correction_entries_unitary(resource):
    table = derive_correction_table(resource)
    for kind in BellKind:
        u = table[kind]
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


# --- teleportation ------------------------------------------------------------------

def test_basis_input_teleports_exactly():
    rng = np.random.default_rng(0)
    for resource in BellKind:
        r = run_teleportation(1.0, 0.0, resource, rng)
        assert r.fidelity_with_input == pytest.approx(1.0, abs=1e-10)


def test_random_inputs_all_outcomes_all_resources():
    rng = np.random.default_rng(33)
    for resource in BellKind:
        table = derive_correction_table(resource)
        for _ in range(25):
            vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            vec /= np.linalg.norm(vec)
            state = teleport_input_state(vec[0], vec[1], resource)
            branches = bell_branches(state.primary, 3, (0, 1))
            for kind in BellKind:  # every outcome, not just the sampled one
                remote = branches[kind] / np.linalg.norm(branches[kind])
                corrected = table[kind] @ remote
                assert abs(np.vdot(vec, corrected)) ** 2 == pytest.approx(
                    1.0, abs=1e-10)


def test_teleportation_shadow_lockstep():
    rng = np.random.default_rng(14)
    for _ in range(20):
        r = run_teleportation(0.6, 0.8j, BellKind.PHI_MINUS, rng)
        assert r.shadow_deviation < 1e-12


def test_singlet_resource_still_works():
    rng = np.random.default_rng(8)
    for _ in range(20):
        r = run_teleportation(0.3, 0.954j, BellKind.PSI_MINUS, rng)
        assert r.fidelity_with_input == pytest.approx(1.0, abs=1e-10)


# --- entanglement swap ----------------------------------------------------------------

def test_swap_outcome_map_is_bijection():
    mapping = swap_outcome_map()
    assert set(mapping.values()) == set(BellKind)


def test_swap_remote_fidelity():
    rng = np.random.default_rng(4)
    seen = set()
    for _ in range(100):
        r = run_entanglement_swap(rng)
        assert r.fidelity_with_prediction == pytest.approx(1.0, abs=1e-10)
        assert r.shadow_deviation < 1e-12
        seen.add(r.outcome)
    assert seen == set(BellKind)


def test_swap_without_map_derives_the_same_map():
    # every run reads SWAP_OUTCOME_MAP; its prediction is the derived map's
    mapping = swap_outcome_map()
    rng = np.random.default_rng(8)
    for _ in range(40):
        r = run_entanglement_swap(rng)
        assert r.predicted_remote_kind == mapping[r.outcome]


def test_swap_psi_plus_pairing():
    # the printed claim: the middle pair lands in psi-plus exactly when the
    # outer pair does
    mapping = swap_outcome_map()
    assert mapping[BellKind.PSI_PLUS] == BellKind.PSI_PLUS


def test_premeasurement_outer_pair_maximally_mixed():
    # marginal oracle: every Bell outcome on the outer pair (qubits 0 and 3) is
    # equiprobable, each probability the squared norm of <bell|_{03} psi
    # contracted from the input amplitudes, with the Bell kets written out
    s = 1.0 / np.sqrt(2.0)
    kets = np.array([[s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]])
    psi = swap_input_state().primary.reshape(2, 2, 2, 2)
    branches = np.einsum("kad,abcd->kbc", kets.conj().reshape(4, 2, 2), psi)
    probs = np.einsum("kbc,kbc->k", branches.conj(), branches).real
    np.testing.assert_allclose(probs, 0.25, rtol=0, atol=1e-12)


def test_swap_outcome_frequencies():
    rng = np.random.default_rng(55)
    counts = {k: 0 for k in BellKind}
    shots = 4000
    for _ in range(shots):
        counts[run_entanglement_swap(rng).outcome] += 1
    chi = stats.chisquare(list(counts.values()))
    assert chi.pvalue > 0.001


# --- per-outcome rows against the registers they replace --------------------------

UNIT_PAIRS = st.tuples(st.complex_numbers(max_magnitude=1e3), st.complex_numbers(max_magnitude=1e3)
                       ).filter(lambda ab: 1e-150 < abs(ab[0]) + abs(ab[1]))


def walked_records(state, step, shots, seed):
    paths, _ = measure_shots(state, [step], np.random.default_rng(seed).random((shots, 1)))
    return [record for record, in paths]


@settings(max_examples=150, deadline=None)
@given(UNIT_PAIRS, st.sampled_from(list(BellKind)), st.integers(1, 300),
       st.integers(0, 2 ** 32 - 1))
def test_teleport_rows_equal_the_registers_bit_for_bit(ab, resource, shots, seed):
    # each result as the register API makes it: the shadow-read remote register,
    # apply_unitary with the resource's CORRECTION_TABLES entry, fidelity and
    # both mirror deviations
    alpha, beta = ab
    table = CORRECTION_TABLES[resource]
    results, _ = teleportation_shots(alpha, beta, resource, shots, np.random.default_rng(seed))
    target = from_amplitudes([alpha, beta], 1)
    records = walked_records(teleport_input_state(alpha, beta, resource),
                             ((0, 1), BELL_BASIS, BELL_LABELS), shots, seed)
    assert len(results) == len(records)
    for result, record in zip(results, records):
        corrected = apply_unitary(record.remote_state_via_shadow, [0], table[record.outcome])
        assert result.outcome == record.outcome
        assert result.probability == record.probability
        assert result.fidelity_with_input == fidelity(corrected, target)
        assert result.shadow_deviation == max(record.post_state.mirror_deviation(),
                                              corrected.mirror_deviation())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
def test_swap_rows_equal_the_registers_bit_for_bit(shots, seed):
    results, _ = swap_shots(shots, np.random.default_rng(seed))
    records = walked_records(swap_input_state(), ((1, 2), BELL_BASIS, BELL_LABELS), shots, seed)
    assert len(results) == len(records)
    for result, record in zip(results, records):
        remote = record.remote_state_via_shadow
        predicted = SWAP_OUTCOME_MAP[record.outcome]
        assert isinstance(result.remote_pair, DualRegister)
        assert result.remote_pair.qubit_count == 2
        assert np.array_equal(result.remote_pair.pair, remote.pair)
        assert not result.remote_pair.pair.flags.writeable
        assert result.fidelity_with_prediction == fidelity(remote, bell_pair(predicted))
        assert result.shadow_deviation == max(record.post_state.mirror_deviation(),
                                              remote.mirror_deviation())


# --- readout demos ------------------------------------------------------------------

def test_entangled_readout_perfect_correlation():
    stats_r = entangled_readout_demo(500, np.random.default_rng(2))
    assert stats_r.correlation == 1.0
    assert stats_r.min_remote_fidelity == pytest.approx(1.0, abs=1e-10)
    for (a, b) in stats_r.counts:
        assert a == b


def test_entangled_readout_marginal_balanced():
    stats_r = entangled_readout_demo(10000, np.random.default_rng(10))
    sigma = 0.5 / np.sqrt(stats_r.shots)
    assert abs(stats_r.marginal0_up_fraction - 0.5) < 3 * sigma


def test_product_demo_no_signalling():
    st = product_state_demo(10000, np.random.default_rng(3))
    bound = 4.0 / np.sqrt(st.shots)
    assert st.tvd_z < bound
    assert st.tvd_x < bound
    assert st.min_remote_fidelity == pytest.approx(1.0, abs=1e-10)
    # measured-case x marginal concentrated on |+>
    assert st.measured_x_plus_fraction == 1.0
    assert st.control_x_plus_fraction == 1.0


def test_shot_validation():
    with pytest.raises(ValueError):
        entangled_readout_demo(0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        product_state_demo(0, np.random.default_rng(0))

