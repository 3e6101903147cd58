import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowsim.register import (
    BellKind,
    DualRegister,
    HADAMARD,
    PAULI_X,
    apply_unitary,
    bell_pair,
    check_unitary,
    fidelity,
    from_amplitudes,
    l2_norm,
    scaled,
    tensor,
)

RT2 = np.sqrt(2.0)


def random_state(n, rng):
    vec = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return from_amplitudes(vec, n)


def random_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --- construction ------------------------------------------------------------

def test_basis_state():
    up = from_amplitudes([1, 0], 1)
    np.testing.assert_allclose(up.primary, [1, 0])
    np.testing.assert_allclose(up.shadow, [1, 0])


def test_symmetric_normalization():
    plus = from_amplitudes([1, 1], 1)
    np.testing.assert_allclose(plus.primary, [1 / RT2, 1 / RT2])


def test_three_four_normalization():
    state = from_amplitudes([3, 4j], 1)
    np.testing.assert_allclose(state.primary, [0.6, 0.8j], atol=1e-15)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_tiny_and_huge_amplitudes_normalize_exactly(scale):
    plus = from_amplitudes([1, 1], 1)
    state = from_amplitudes([scale, scale], 1)
    assert np.array_equal(state.primary, plus.primary)
    assert np.array_equal(state.shadow, plus.shadow)


def test_power_of_two_scaling_keeps_plain_normalization_bits():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        vec = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        assert np.array_equal(from_amplitudes(vec, n).primary, vec / np.linalg.norm(vec))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), max_size=9),
       st.sampled_from([1.0, 1e-160, 1e160, 1e300]))
def test_l2_norm_is_numpys_norm_bit_for_bit(values, scale):
    # the oracle is np.linalg.norm itself; an overflow to inf must match too
    with np.errstate(over="ignore"):
        vec = np.array(values, dtype=complex) * scale
        assert l2_norm(vec) == np.linalg.norm(vec)
        assert l2_norm(vec[::2]) == np.linalg.norm(vec[::2])  # a strided view


@pytest.mark.parametrize("value", [0.0, 5e-324, 1e-310, 0.75, 1.0, 3.0, 1e308,
                                   float("inf"), float("nan")])
def test_scaled_exponent_is_numpys_frexp(value):
    # the exponent from math.frexp equals np.frexp's, inf and NaN included
    vec, exponent = scaled([value, 0.5 * value])
    assert exponent == int(np.frexp(abs(value))[1])
    with np.errstate(invalid="ignore"):
        want = np.ldexp(np.array([value, 0.5 * value]), -exponent)
    np.testing.assert_array_equal(vec.real, want)


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        from_amplitudes([0, 0], 1)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        from_amplitudes([1, 0, 0], 2)


def test_shadow_divergence_rejected():
    with pytest.raises(ValueError):
        DualRegister(1, np.array([1, 0], complex), np.array([0, 1], complex))


# --- Bell states ---------------------------------------------------------------

def test_phi_plus_amplitudes():
    np.testing.assert_allclose(
        bell_pair(BellKind.PHI_PLUS).primary, [1 / RT2, 0, 0, 1 / RT2])


def test_psi_minus_amplitudes():
    np.testing.assert_allclose(
        bell_pair(BellKind.PSI_MINUS).primary, [0, 1 / RT2, -1 / RT2, 0])


@pytest.mark.parametrize("kind", list(BellKind))
def test_bell_norms(kind):
    assert np.linalg.norm(bell_pair(kind).primary) == pytest.approx(1.0, abs=1e-15)


def test_bell_basis_complete():
    vecs = np.array([k.amplitudes() for k in BellKind])
    gram = vecs.conj() @ vecs.T
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


# --- tensor --------------------------------------------------------------------

def test_tensor_basis_product():
    state = tensor(from_amplitudes([1, 0], 1), from_amplitudes([0, 1], 1))
    np.testing.assert_allclose(state.primary, [0, 1, 0, 0])


def test_tensor_joint_teleport_state():
    # oracle: explicit kron of the input coefficients with the pair vector
    alpha, beta = 0.6, 0.8j
    state = tensor(from_amplitudes([alpha, beta], 1),
                   bell_pair(BellKind.PHI_MINUS))
    expected = np.kron([alpha, beta], [1 / RT2, 0, 0, -1 / RT2])
    np.testing.assert_allclose(state.primary, expected, atol=1e-15)


def test_tensor_norm_identity():
    rng = np.random.default_rng(2)
    a, b = random_state(2, rng), random_state(1, rng)
    assert np.linalg.norm(tensor(a, b).primary) == pytest.approx(1.0, abs=1e-12)


def test_tensor_associative():
    rng = np.random.default_rng(9)
    a, b, c = (random_state(1, rng) for _ in range(3))
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    # product reordering costs one ulp per amplitude
    np.testing.assert_allclose(left.primary, right.primary, atol=1e-15)


# --- unitaries -------------------------------------------------------------------

def test_identity_unitary():
    rng = np.random.default_rng(1)
    state = random_state(3, rng)
    out = apply_unitary(state, [1], np.eye(2))
    np.testing.assert_allclose(out.primary, state.primary, atol=1e-15)


def test_pauli_x_flips():
    out = apply_unitary(from_amplitudes([1, 0], 1), [0], PAULI_X)
    np.testing.assert_allclose(out.primary, [0, 1])


def test_non_unitary_rejected():
    with pytest.raises(ValueError):
        apply_unitary(from_amplitudes([1, 0], 1), [0], np.array([[1, 0], [0, 2]]))


def test_bad_targets_rejected():
    state = from_amplitudes([1, 0, 0, 0], 2)
    with pytest.raises(IndexError):
        apply_unitary(state, [5], np.eye(2))
    with pytest.raises(ValueError):
        apply_unitary(state, [0, 0], np.eye(4))


def test_unitary_preserves_norm_and_mirror():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        state = random_state(n, rng)
        k = int(rng.integers(1, min(n, 2) + 1))
        targets = list(rng.choice(n, size=k, replace=False))
        u = random_unitary(2 ** k, rng)
        out = apply_unitary(state, targets, u)
        assert np.linalg.norm(out.primary) == pytest.approx(1.0, abs=1e-12)
        assert out.mirror_deviation() < 1e-12


def test_targets_embedding_matches_full_kron():
    # oracle: full 8x8 matrix built by hand for a unitary on qubit 1 of 3
    rng = np.random.default_rng(4)
    u = random_unitary(2, rng)
    full = np.kron(np.kron(np.eye(2), u), np.eye(2))
    state = random_state(3, rng)
    out = apply_unitary(state, [1], u)
    np.testing.assert_allclose(out.primary, full @ state.primary, atol=1e-13)


# --- fidelity ----------------------------------------------------------------------

def test_fidelity_self():
    rng = np.random.default_rng(3)
    state = random_state(2, rng)
    assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal():
    assert fidelity(from_amplitudes([1, 0], 1), from_amplitudes([0, 1], 1)) == 0.0


def test_fidelity_bell_cross():
    assert fidelity(bell_pair(BellKind.PHI_PLUS),
                    bell_pair(BellKind.PSI_PLUS)) == pytest.approx(0.0, abs=1e-15)


def test_fidelity_phase_insensitive():
    state = from_amplitudes([1, 1j], 1)
    rotated = from_amplitudes([np.exp(0.7j), 1j * np.exp(0.7j)], 1)
    assert fidelity(state, rotated) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_size_mismatch():
    with pytest.raises(ValueError):
        fidelity(from_amplitudes([1, 0], 1), bell_pair(BellKind.PHI_PLUS))


def test_check_unitary_rejects_the_wrong_shape():
    with pytest.raises(ValueError, match="gate must be 4x4"):
        check_unitary(np.eye(2), 4, "gate")


@pytest.mark.parametrize("n, vec, message", [
    (0, [1.0], "qubit_count must be positive"),
    (2, [1.0, 0.0], r"amplitude vector length must be 2\*\*qubit_count"),
])
def test_register_rejects_a_bad_qubit_count_or_length(n, vec, message):
    vec = np.array(vec, dtype=complex)
    with pytest.raises(ValueError, match=message):
        DualRegister(n, vec, vec)
