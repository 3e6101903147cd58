import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from shadowsim import measurement
from shadowsim.measurement import (
    BELL_BASIS,
    BELL_LABELS,
    X_BASIS,
    Z_BASIS,
    bell_measure,
    measure_shots,
    projective_measure,
)
from shadowsim.register import BellKind, bell_pair, fidelity, from_amplitudes, tensor

from oracles import bell_outcome_probabilities, born_probabilities


def random_state(n, rng):
    vec = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return from_amplitudes(vec, n)


def random_basis(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --- Born probabilities ---------------------------------------------------------

# 64 uniforms spread evenly over [0, 1): every outcome above 1/64 is drawn
SPREAD = (np.arange(64)[:, None] + 0.5) / 64


def assert_walk_holds_to(oracle, state, targets, basis, labels):
    """One measure_shots step's record probabilities within 1e-12 of the
    oracle's {outcome: p}, with every outcome above 1/64 drawn."""
    paths, _ = measure_shots(state, [(targets, basis, labels)], SPREAD)
    walked = {record.outcome: record.probability for record, in paths}
    assert set(walked) >= {k for k, p in oracle.items() if p > 1 / 64}
    for k, p in walked.items():
        assert p == pytest.approx(oracle[k], abs=1e-12)


def check_born(state, qubit, basis):
    """The oracle's probabilities of one qubit in a basis, after holding the
    measure_shots records to them."""
    p = born_probabilities(state, qubit, basis)
    assert_walk_holds_to(dict(enumerate(p)), state, [qubit], basis, (0, 1))
    return p


def test_phi_plus_half_half():
    p = check_born(bell_pair(BellKind.PHI_PLUS), 0, Z_BASIS)
    assert p == pytest.approx((0.5, 0.5), abs=1e-14)


def test_eigenstate_certain():
    p = check_born(from_amplitudes([1, 0], 1), 0, Z_BASIS)
    assert p == pytest.approx((1.0, 0.0), abs=1e-14)


def test_squared_moduli():
    p = check_born(from_amplitudes([0.6, 0.8j], 1), 0, Z_BASIS)
    assert p == pytest.approx((0.36, 0.64), abs=1e-14)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(8)
    for _ in range(30):
        state = random_state(int(rng.integers(1, 5)), rng)
        p0, p1 = check_born(state, 0, random_basis(rng))
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_non_orthonormal_basis_rejected():
    basis = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(ValueError):
        measure_shots(from_amplitudes([1, 0], 1), [([0], basis, (0, 1))], SPREAD)


def test_qubit_out_of_range():
    with pytest.raises(IndexError):
        measure_shots(from_amplitudes([1, 0], 1), [([3], Z_BASIS, (0, 1))], SPREAD)


# --- projective measurement -------------------------------------------------------

def test_entangled_remote_via_shadow():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rec = projective_measure(bell_pair(BellKind.PHI_PLUS), 0, Z_BASIS, rng)
        expected = from_amplitudes(Z_BASIS[:, rec.outcome], 1)
        assert fidelity(rec.remote_state_via_shadow, expected) == pytest.approx(
            1.0, abs=1e-12)


def test_product_state_remote_unchanged():
    rng = np.random.default_rng(1)
    plus = from_amplitudes([1, 1], 1)
    state = tensor(plus, plus)
    rec = projective_measure(state, 0, Z_BASIS, rng)
    assert fidelity(rec.remote_state_via_shadow, plus) == pytest.approx(
        1.0, abs=1e-12)


def test_eigenstate_measurement():
    rng = np.random.default_rng(2)
    state = from_amplitudes([1, 0, 0, 0], 2)
    rec = projective_measure(state, 0, Z_BASIS, rng)
    assert rec.outcome == 0
    assert rec.probability == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(rec.post_state.primary, state.primary, atol=1e-14)


def test_shadow_mediation_equivalence():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        state = random_state(n, rng)
        qubit = int(rng.integers(n))
        rec = projective_measure(state, qubit, random_basis(rng), rng)
        assert fidelity(rec.remote_state_via_shadow,
                        rec.remote_state_direct) >= 1.0 - 1e-10


def test_atomic_collapse_mirror():
    rng = np.random.default_rng(6)
    for _ in range(100):
        state = random_state(3, rng)
        rec = projective_measure(state, int(rng.integers(3)), random_basis(rng), rng)
        assert rec.post_state.mirror_deviation() < 1e-12


def test_repeatability():
    rng = np.random.default_rng(12)
    for _ in range(50):
        state = random_state(2, rng)
        basis = random_basis(rng)
        rec1 = projective_measure(state, 0, basis, rng)
        rec2 = projective_measure(rec1.post_state, 0, basis, rng)
        assert rec2.outcome == rec1.outcome
        assert rec2.probability == pytest.approx(1.0, abs=1e-10)


def test_outcome_frequencies_chi_square():
    rng = np.random.default_rng(100)
    state = from_amplitudes([0.6, 0.8j], 1)
    counts = [0, 0]
    shots = 10000
    for _ in range(shots):
        counts[projective_measure(state, 0, Z_BASIS, rng).outcome] += 1
    chi = stats.chisquare(counts, [0.36 * shots, 0.64 * shots])
    assert chi.pvalue > 0.001


# --- Bell measurement ----------------------------------------------------------------

def test_teleport_state_equal_branch_weights():
    rng = np.random.default_rng(5)
    for _ in range(10):
        vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        state = tensor(from_amplitudes(vec, 1), bell_pair(BellKind.PHI_MINUS))
        probs = bell_outcome_probabilities(state, (0, 1))
        assert_walk_holds_to(probs, state, (0, 1), BELL_BASIS, BELL_LABELS)
        for kind in BellKind:
            assert probs[kind] == pytest.approx(0.25, abs=1e-12)


def test_bell_eigenstate():
    rng = np.random.default_rng(3)
    rec = bell_measure(bell_pair(BellKind.PHI_PLUS), (0, 1), rng)
    assert rec.outcome == BellKind.PHI_PLUS
    assert rec.probability == pytest.approx(1.0, abs=1e-12)


def test_double_singlet_equal_weights():
    state = tensor(bell_pair(BellKind.PSI_MINUS), bell_pair(BellKind.PSI_MINUS))
    probs = bell_outcome_probabilities(state, (1, 2))
    assert_walk_holds_to(probs, state, (1, 2), BELL_BASIS, BELL_LABELS)
    for kind in BellKind:
        assert probs[kind] == pytest.approx(0.25, abs=1e-12)


def test_bell_measure_remote_consistency():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(3, 5))
        state = random_state(n, rng)
        pair = tuple(rng.choice(n, size=2, replace=False))
        rec = bell_measure(state, pair, rng)
        assert fidelity(rec.remote_state_via_shadow,
                        rec.remote_state_direct) >= 1.0 - 1e-10
        assert rec.post_state.mirror_deviation() < 1e-12
        # unequal weights on either order of the pair tell the four labels apart
        assert_walk_holds_to(bell_outcome_probabilities(state, pair), state, pair,
                             BELL_BASIS, BELL_LABELS)


def test_bell_measure_validation():
    state = bell_pair(BellKind.PHI_PLUS)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        bell_measure(state, (0, 0), rng)
    with pytest.raises(IndexError):
        bell_measure(state, (0, 2), rng)


def test_no_signalling_marginals():
    # remote z-marginal of a product state, with vs without measuring qubit 0;
    # each shot draws its three uniforms in the order a per-shot loop would
    rng = np.random.default_rng(77)
    plus = from_amplitudes([1, 1], 1)
    state = tensor(plus, plus)
    shots = 10000
    u = rng.random((shots, 3))
    q0, q1 = ([0], Z_BASIS, (0, 1)), ([1], Z_BASIS, (0, 1))

    def remote_up(steps, u):
        paths, index = measure_shots(state, steps, u)
        return sum(n for path, n in zip(paths, np.bincount(index)) if path[-1].outcome == 0)

    with_meas = remote_up([q0, q1], u[:, :2])
    without = remote_up([q1], u[:, 2:])
    tvd = abs(with_meas - without) / shots
    assert tvd < 4.0 / np.sqrt(shots)


# --- records against a dense-projector oracle -----------------------------------

def _bits(i, n, qubits):
    """The bits of basis index i on the listed qubits (qubit 0 leftmost), as an index."""
    return sum(((i >> (n - 1 - q)) & 1) << (len(qubits) - 1 - a) for a, q in enumerate(qubits))


def dense_oracle(psi, n, targets, ket):
    """(P_k (x) I) psi / norm, with P_k = |ket><ket| on the targets, and the
    unmeasured qubits' state (<ket| (x) I) psi / norm with its squared norm,
    from dense matrices over the basis indices."""
    rest = [q for q in range(n) if q not in targets]
    dim = 2 ** n
    t_idx = [_bits(i, n, targets) for i in range(dim)]
    r_idx = [_bits(i, n, rest) for i in range(dim)]
    contract = np.zeros((2 ** len(rest), dim), dtype=complex)
    proj = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        contract[r_idx[i], i] = np.conj(ket[t_idx[i]])
        for j in range(dim):
            if r_idx[i] == r_idx[j]:
                proj[i, j] = ket[t_idx[i]] * np.conj(ket[t_idx[j]])
    post, remote = proj @ psi, contract @ psi
    prob = np.vdot(remote, remote).real
    return post / np.linalg.norm(post), remote / np.linalg.norm(remote), prob


ORACLE_STEP = st.tuples(st.sampled_from(["z", "x", "bell"]), st.integers(0, 3), st.integers(0, 2))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.lists(ORACLE_STEP, min_size=1, max_size=3),
       st.integers(0, 2 ** 32 - 1))
def test_records_equal_the_dense_projector_oracle(n, raw_steps, seed):
    rng = np.random.default_rng(seed)
    state = random_state(n, rng)
    steps, kets = [], []
    for kind, a, b in raw_steps:
        q = a % n
        if kind == "bell":
            steps.append(((q, (q + 1 + b % (n - 1)) % n), BELL_BASIS, BELL_LABELS))
            kets.append({k: k.amplitudes() for k in BellKind})
        else:
            s = 1.0 / np.sqrt(2.0)
            steps.append(((q,), Z_BASIS if kind == "z" else X_BASIS, (0, 1)))
            kets.append({0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])} if kind == "z"
                        else {0: np.array([s, s]), 1: np.array([s, -s])})
    paths, _ = measure_shots(state, steps, rng.random((40, len(steps))))
    for path in paths:
        psi = state.primary
        for rec, (targets, _, _), ket in zip(path, steps, kets):
            post, remote, prob = dense_oracle(psi, n, targets, ket[rec.outcome])
            assert rec.probability == pytest.approx(prob, abs=1e-12)
            assert not rec.cond.flags.writeable
            with pytest.raises(ValueError):
                rec.cond[0, 0] = 0.0
            for reg in (rec.post_state, rec.post_state):
                np.testing.assert_allclose(reg.primary, post, rtol=0, atol=1e-12)
                np.testing.assert_allclose(reg.shadow, post, rtol=0, atol=1e-12)
            assert np.array_equal(rec.post_state.primary, rec.post_state.primary)
            for read in ("remote_state_via_shadow", "remote_state_direct"):
                first, second = getattr(rec, read), getattr(rec, read)
                if len(targets) == n:
                    assert first is None and second is None
                    continue
                np.testing.assert_allclose(first.primary, remote, rtol=0, atol=1e-12)
                assert np.array_equal(first.primary, second.primary)
                assert np.array_equal(first.shadow, second.shadow)
            psi = post


def test_measure_shots_with_no_steps_gives_one_empty_path():
    paths, index = measure_shots(bell_pair(BellKind.PHI_PLUS), [], np.zeros((5, 0)))
    assert paths == [()]
    assert index.tolist() == [0] * 5


def test_measure_shots_with_no_shots_gives_no_paths():
    steps = [((0,), Z_BASIS, (0, 1)), ((0, 1), BELL_BASIS, BELL_LABELS)]
    paths, index = measure_shots(bell_pair(BellKind.PHI_PLUS), steps, np.zeros((0, 2)))
    assert paths == []
    assert index.size == 0


# --- the walker's one loop over levels ----------------------------------------------

def walk_steps(n, raw_steps):
    """measure_shots steps from ORACLE_STEP draws on an n-qubit register."""
    steps = []
    for kind, a, b in raw_steps:
        q = a % n
        if kind == "bell":
            steps.append(((q, (q + 1 + b % (n - 1)) % n), BELL_BASIS, BELL_LABELS))
        else:
            steps.append(((q,), Z_BASIS if kind == "z" else X_BASIS, (0, 1)))
    return steps


class Uniforms:
    """An rng whose random() returns the given uniforms in order."""

    def __init__(self, us):
        self.us = iter(us)

    def random(self):
        return next(self.us)


def sequential_path(state, steps, us):
    """(outcome, probability) of each step of one shot, measured one step at a
    time by projective_measure and bell_measure on the previous post-state."""
    rng, path = Uniforms(us), []
    for targets, basis, _ in steps:
        rec = (bell_measure(state, targets, rng) if basis is BELL_BASIS
               else projective_measure(state, targets[0], basis, rng))
        path.append((rec.outcome, rec.probability))
        state = rec.post_state
    return path


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.lists(ORACLE_STEP, min_size=3, max_size=3),
       st.integers(0, 2 ** 32 - 1))
def test_every_shot_follows_the_per_shot_sequential_loop(n, raw_steps, seed):
    rng = np.random.default_rng(seed)
    state = random_state(n, rng)
    steps = walk_steps(n, raw_steps)
    u = rng.random((30, 3))
    paths, index = measure_shots(state, steps, u)
    assert len(set(index.tolist())) == len(paths)
    for shot, us in enumerate(u):
        walked = [(rec.outcome, rec.probability) for rec in paths[index[shot]]]
        assert walked == sequential_path(state, steps, us)


def test_each_level_is_one_contraction_and_one_stack_check(monkeypatch):
    # two phi-plus pairs: each step splits every live path, so a walker that
    # contracted or checked per outcome would call each more often
    state = tensor(bell_pair(BellKind.PHI_PLUS), bell_pair(BellKind.PHI_PLUS))
    steps = [((0,), Z_BASIS, (0, 1)), ((2,), X_BASIS, (0, 1)), ((1, 3), BELL_BASIS, BELL_LABELS)]
    calls = {"_contract": 0, "check_registers": 0}
    for name in calls:
        def counting(*args, _f=getattr(measurement, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(measurement, name, counting)
    paths, index = measure_shots(state, steps, np.random.default_rng(3).random((400, 3)))
    assert calls == {"_contract": 3, "check_registers": 2}
    assert [len({path[:level] for path in paths}) for level in (1, 2)] == [2, 4]
    assert np.bincount(index).min() > 0
