"""Fock-algebra tests against independent matrix oracles.

The oracle matrices here are constructed from scratch (plain kron products)
so they do not share code with the map-based operator implementation.
"""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shadowsim import fock
from shadowsim.fock import (
    DispersionParams,
    DualFockState,
    ModeGrid,
    apply_b,
    apply_b_dagger,
    anticommutator_residual,
    bracket_residuals,
    commutator_residual,
    position_amplitudes,
    position_create,
    vacuum,
)


# --- independent oracle: truncated ladder matrices built locally -----------

def oracle_lowering(nmax):
    m = np.zeros((nmax + 1, nmax + 1), dtype=complex)
    for n in range(1, nmax + 1):
        m[n - 1, n] = np.sqrt(n)
    return m


def oracle_mode_matrix(grid, mode):
    if grid.statistics == "fermion":
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        mats = [z] * mode + [a] + [np.eye(2)] * (grid.mode_count - mode - 1)
    else:
        a = oracle_lowering(grid.max_occupation)
        eye = np.eye(grid.mode_dim)
        mats = [eye] * mode + [a] + [eye] * (grid.mode_count - mode - 1)
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def boson_grid(modes=2, nmax=3):
    return ModeGrid(tuple(float(k) for k in range(modes)), nmax, "boson")


def fermion_grid(modes=2):
    return ModeGrid(tuple(float(k) for k in range(modes)), 1, "fermion")


# --- construction and vacuum ------------------------------------------------

def test_vacuum_two_modes():
    state = vacuum(boson_grid(2, 3))
    assert state.amplitude((0, 0)) == 1 + 0j
    assert state.shadow[(0, 0)] == 1 + 0j
    assert not state.is_zero


def test_vacuum_fermion():
    state = vacuum(fermion_grid(1))
    assert state.amplitude((0,)) == 1 + 0j


def test_vacuum_norm():
    assert vacuum(boson_grid()).norm() == pytest.approx(1.0, abs=1e-15)


def test_grid_validation():
    with pytest.raises(ValueError):
        ModeGrid((1.0, 1.0), 2, "boson")  # repeated momentum
    with pytest.raises(ValueError):
        ModeGrid((2.0, 1.0), 2, "boson")  # not increasing
    with pytest.raises(ValueError):
        ModeGrid((0.0,), 2, "fermion")  # fermions force nmax = 1
    with pytest.raises(ValueError):
        ModeGrid((), 2, "boson")
    for momenta, nmax in [
        ((0.0, 1.0), 2.5),        # a fractional cutoff gave dim 12.25
        ((0.0, np.nan), 2),       # NaN compares false, so it looked increasing
        ((0.0, np.inf), 2),
        ((-np.inf, 0.0), 2),
        (tuple(range(28)), 4),    # 5**28 states: basis indices past 64 bits wrapped
    ]:
        with pytest.raises(ValueError):
            ModeGrid(momenta, nmax, "boson")


@pytest.mark.parametrize("occ", [(0.5, 0), (0, 1.5), (np.nan, 0)])
def test_non_integer_occupation_rejected(occ):
    # it used to land on a truncated basis state and ladder from there
    with pytest.raises(ValueError, match=r"occupation tuple \(.*\) is not an integer"):
        DualFockState(boson_grid(), {occ: 1 + 0j}, {occ: 1 + 0j})


@pytest.mark.parametrize("prim, message", [
    ({(0, 0, 0): 1j}, "has wrong length"),
    ({(0, 0): 1j, (1,): 1j}, "has wrong length"),
    ({(0, 4): 1j}, "out of range"),
    ({(-1, 0): 1j}, "out of range"),
])
def test_occupation_tuple_checks_name_the_tuple(prim, message):
    bad = list(prim)[-1]
    match = f"occupation tuple {re.escape(str(bad))} {message}"
    with pytest.raises(ValueError, match=match):
        DualFockState(boson_grid(2, 3), prim, dict(prim))
    if len(prim) == 1:  # a lookup off the grid fails the same way
        with pytest.raises(ValueError, match=match):
            vacuum(boson_grid(2, 3)).amplitude(bad)


def test_unknown_statistics_rejected():
    with pytest.raises(ValueError, match="unknown statistics 'anyon'"):
        ModeGrid((0.0, 1.0), 1, "anyon")


def test_zero_cutoff_rejected():
    # what `algebra --nmax 0` asks for
    with pytest.raises(ValueError, match="max_occupation must be positive"):
        ModeGrid((0.0, 1.0), 0, "boson")


def test_different_key_sets_rejected():
    with pytest.raises(ValueError, match="primary and shadow key sets differ"):
        DualFockState(boson_grid(), {(0, 0): 1j}, {(1, 0): 1j})


def test_mirror_divergence_rejected():
    grid = boson_grid()
    with pytest.raises(ValueError):
        DualFockState(grid, {(0, 0): 1 + 0j}, {(0, 0): 0.5 + 0j})


# --- ladder operators --------------------------------------------------------

def test_create_from_vacuum():
    state = apply_b_dagger(vacuum(boson_grid()), 0)
    assert state.amplitude((1, 0)) == pytest.approx(1.0)
    assert state.shadow[(1, 0)] == pytest.approx(1.0)


def test_sqrt_two_ladder_factor():
    one = apply_b_dagger(vacuum(boson_grid()), 0)
    two = apply_b_dagger(one, 0)
    assert two.amplitude((2, 0)) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_fermion_double_creation_is_zero():
    occupied = apply_b_dagger(vacuum(fermion_grid()), 0)
    again = apply_b_dagger(occupied, 0)
    assert again.is_zero


def test_annihilate_vacuum_gives_zero_state():
    grid = boson_grid()
    state = vacuum(grid)
    for _ in range(3):
        state = apply_b(state, 0)
        assert state.is_zero
        assert state.primary == state.shadow == {}
    assert state.grid == grid


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_tiny_and_huge_amplitudes_normalize(scale):
    # their squares underflow or overflow; an exact power-of-two scale comes first
    grid = boson_grid()

    def state(s):
        prim = {(1, 0): 3.0 * s + 0j, (0, 2): 4j * s}
        return DualFockState(grid, prim, dict(prim))

    for op in (DualFockState.normalized, lambda st: apply_b_dagger(st, 0, normalize=True)):
        got, want = op(state(scale)), op(state(1.0))
        assert got.primary.keys() == want.primary.keys()
        for occ, amp in want.primary.items():
            assert got.amplitude(occ) == pytest.approx(amp, rel=1e-15)
        assert got.mirror_deviation() == 0.0


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_tiny_and_huge_amplitudes_have_their_norm(scale):
    # squared in Python, 1e-200 gave norm 0.0 and 1e200 raised OverflowError
    prim = {(1, 0): 3.0 * scale + 0j, (0, 2): 4j * scale}
    state = DualFockState(boson_grid(), prim, dict(prim))
    assert state.norm() == pytest.approx(5.0 * scale, rel=1e-15)
    assert apply_b(vacuum(boson_grid()), 0).norm() == 0.0


def test_zero_vector_cannot_be_normalized():
    with pytest.raises(ValueError, match="zero vector"):
        apply_b(vacuum(boson_grid()), 0).normalized()


def test_annihilate_single():
    one = apply_b_dagger(vacuum(boson_grid()), 0)
    back = apply_b(one, 0)
    assert back.amplitude((0, 0)) == pytest.approx(1.0)


def test_annihilate_two_sqrt2():
    # oracle: explicit truncated matrix acting on the |2> basis vector
    grid = boson_grid(1, 4)
    a = oracle_mode_matrix(grid, 0)
    vec = np.zeros(5, dtype=complex)
    vec[2] = 1.0
    expected = a @ vec
    state = DualFockState(grid, {(2,): 1 + 0j}, {(2,): 1 + 0j})
    out = apply_b(state, 0)
    assert out.amplitude((1,)) == pytest.approx(expected[1])
    assert expected[1] == pytest.approx(np.sqrt(2.0))


def test_mode_out_of_range():
    state = vacuum(boson_grid(2, 3))
    with pytest.raises(IndexError):
        apply_b_dagger(state, 2)
    with pytest.raises(IndexError):
        apply_b(state, -1)


@pytest.mark.parametrize("build", [
    lambda: commutator_residual(boson_grid(2, 3), -1, 0),
    lambda: anticommutator_residual(fermion_grid(3), 0, 3),
    lambda: fock.annihilation_matrix(boson_grid(2, 3), -1),
], ids=["commutator-i-1", "anticommutator-j-past-end", "annihilation-matrix-1"])
def test_stack_reads_reject_modes_off_the_grid(build):
    # a negative mode would silently read the last mode's row of a map stack
    with pytest.raises(IndexError, match=r"mode -?\d+ out of range"):
        build()


def random_dual_state(grid, rng):
    occs = grid.basis_occupations()
    amps = rng.standard_normal(len(occs)) + 1j * rng.standard_normal(len(occs))
    amps /= np.linalg.norm(amps)
    prim = {occ: complex(a) for occ, a in zip(occs, amps)}
    return DualFockState(grid, prim, dict(prim))


def few_key_states(grid):
    """Vacuum, every mode at the cutoff, and for bosons a position state."""
    full = (grid.max_occupation,) * grid.mode_count
    states = [vacuum(grid), DualFockState(grid, {full: 1j}, {full: 1j})]
    if grid.statistics == "boson":
        states.append(position_create(grid, 0.3, 0.0))
    return states


@pytest.mark.parametrize("grid", [
    pytest.param(boson_grid(2, 3), id="boson"),
    pytest.param(fermion_grid(3), id="fermion"),
    pytest.param(boson_grid(1, 5), id="boson-1x5"),
    pytest.param(boson_grid(3, 2), id="boson-3x2"),
    pytest.param(boson_grid(2, 4), id="boson-2x4"),
    pytest.param(fermion_grid(1), id="fermion-1"),
    pytest.param(fermion_grid(5), id="fermion-5"),
])
def test_ladder_ops_match_matrix_oracle(grid):
    rng = np.random.default_rng(11)
    for mode in range(grid.mode_count):
        a = oracle_mode_matrix(grid, mode)
        assert np.array_equal(fock.annihilation_matrix(grid, mode), a)
        randoms = [random_dual_state(grid, rng) for _ in range(20)]
        for state in randoms + few_key_states(grid):
            vec = state.to_vector()
            np.testing.assert_allclose(
                apply_b(state, mode).to_vector(), a @ vec, atol=1e-13)
            np.testing.assert_allclose(
                apply_b_dagger(state, mode).to_vector(), a.conj().T @ vec,
                atol=1e-13)


AMPLITUDES = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False,
                                allow_subnormal=False)


@st.composite
def keyed_states(draw):
    """A state on a random subset of a 1-3 mode grid's basis keys, given in a
    random order, with random amplitudes, and a mode to act on."""
    statistics = draw(st.sampled_from(["boson", "fermion"]))
    modes = draw(st.integers(1, 3))
    nmax = 1 if statistics == "fermion" else draw(st.integers(1, 3))
    grid = ModeGrid(tuple(float(k) for k in range(modes)), nmax, statistics)
    keys = draw(st.lists(st.sampled_from(grid.basis_occupations()), unique=True))
    prim = dict(zip(keys, draw(st.lists(AMPLITUDES, min_size=len(keys), max_size=len(keys)))))
    return DualFockState(grid, prim, dict(prim)), draw(st.integers(0, modes - 1))


def assert_pair_follows_primary(state):
    basis = state.grid.basis_occupations()
    assert np.all(np.diff(state.index) > 0)
    assert list(state.primary) == [basis[i] for i in state.index.tolist()]
    assert state.pair.tolist() == [list(rec.values()) for rec in (state.primary, state.shadow)]


@settings(max_examples=200, deadline=None)
@given(keyed_states())
@example((DualFockState(boson_grid(2, 2), {}, {}), 1))                       # the zero state
@example((DualFockState(boson_grid(2, 3), {(3, 3): 2j, (0, 3): 1.0},
                        {(3, 3): 2j, (0, 3): 1.0}), 1))                      # at the cutoff
@example((DualFockState(fermion_grid(3), {(1, 1, 0): 1j, (1, 0, 0): 0.5, (0, 0, 1): 2.0},
                        {(1, 1, 0): 1j, (1, 0, 0): 0.5, (0, 0, 1): 2.0}), 2))  # JW signs
def test_ladder_ops_on_key_subsets_match_kron_oracle(case):
    state, mode = case
    a = oracle_mode_matrix(state.grid, mode)
    vec = state.to_vector()
    assert_pair_follows_primary(state)
    for op, matrix in ((apply_b, a), (apply_b_dagger, a.conj().T)):
        out = op(state, mode)
        want = matrix @ vec
        np.testing.assert_allclose(out.to_vector(), want, rtol=1e-14, atol=0)
        assert out.is_zero == (not want.any())
        assert_pair_follows_primary(out)


def test_mirror_invariant_random_sequences():
    rng = np.random.default_rng(5)
    for grid in (boson_grid(3, 3), fermion_grid(3)):
        state = vacuum(grid)
        for _ in range(200):
            mode = int(rng.integers(grid.mode_count))
            op = apply_b_dagger if rng.random() < 0.6 else apply_b
            nxt = op(state, mode)
            if nxt.is_zero:
                state = vacuum(grid)
                continue
            state = nxt.normalized() if rng.random() < 0.3 else nxt
            assert state.mirror_deviation() < 1e-12


def test_number_operator_per_component():
    # b-dagger then b scales each surviving component by (n+1)
    grid = boson_grid(2, 4)
    rng = np.random.default_rng(3)
    a = oracle_mode_matrix(grid, 1)
    nop = a @ a.conj().T
    state = random_dual_state(grid, rng)
    result = apply_b(apply_b_dagger(state, 1), 1)
    np.testing.assert_allclose(result.to_vector(), nop @ state.to_vector(),
                               atol=1e-13)
    for occ, amp in state.primary.items():
        if occ[1] <= grid.max_occupation - 1:
            assert result.amplitude(occ) == pytest.approx(
                (occ[1] + 1) * amp, abs=1e-13)


def test_ladder_consistency_expectations():
    grid = boson_grid(1, 5)
    for n in range(grid.max_occupation):
        state = DualFockState(grid, {(n,): 1 + 0j}, {(n,): 1 + 0j})
        up = apply_b_dagger(state, 0)
        down = apply_b(state, 0)
        assert up.norm() ** 2 == pytest.approx(n + 1, abs=1e-12)
        expected_n = 0.0 if down.is_zero else down.norm() ** 2
        assert expected_n == pytest.approx(n, abs=1e-12)


# --- commutation / anticommutation ------------------------------------------

def test_commutator_distinct_modes():
    grid = boson_grid(2, 3)
    assert commutator_residual(grid, 0, 1) < 1e-12


def test_commutator_same_mode_guarded():
    grid = boson_grid(2, 4)
    assert commutator_residual(grid, 0, 0) < 1e-12


def test_commutator_annihilation_pairs():
    grid = boson_grid(3, 3)
    for i in range(3):
        for j in range(3):
            assert commutator_residual(grid, i, j, annihilation_pair=True) < 1e-12


def test_commutator_rejects_fermions():
    with pytest.raises(ValueError):
        commutator_residual(fermion_grid(), 0, 0)


def test_anticommutator_same_mode():
    assert anticommutator_residual(fermion_grid(1), 0, 0) < 1e-12


def test_anticommutator_distinct_modes_jordan_wigner():
    # oracle: explicit 4x4 matrices with the alternating-sign convention
    grid = fermion_grid(2)
    b0 = oracle_mode_matrix(grid, 0)
    b1 = oracle_mode_matrix(grid, 1)
    anti = b0 @ b1.conj().T + b1.conj().T @ b0
    assert np.max(np.abs(anti)) < 1e-12
    assert anticommutator_residual(grid, 0, 1) < 1e-12


def test_anticommutator_annihilation_pairs():
    grid = fermion_grid(3)
    for i in range(3):
        for j in range(3):
            assert anticommutator_residual(grid, i, j, annihilation_pair=True) < 1e-12


def test_anticommutator_rejects_bosons():
    with pytest.raises(ValueError):
        anticommutator_residual(boson_grid(), 0, 0)


def oracle_residual(grid, i, j, annihilation_pair, sign):
    """Spectral norm of the guarded block of b_i X + sign X b_i - delta_ij I,
    from kron matrices, dense products and an SVD."""
    bi = oracle_mode_matrix(grid, i)
    bj = oracle_mode_matrix(grid, j)
    x = bj if annihilation_pair else bj.conj().T
    res = bi @ x + sign * (x @ bi)
    if i == j and not annihilation_pair:
        res = res - np.eye(grid.dim)
    digits = np.indices((grid.mode_dim,) * grid.mode_count).reshape(grid.mode_count, -1)
    keep = (grid.statistics == "fermion") | (digits.max(axis=0) < grid.max_occupation)
    return np.linalg.norm(res[np.ix_(keep, keep)], 2)


@pytest.mark.parametrize("grid", [boson_grid(2, 3), boson_grid(3, 2), boson_grid(2, 6),
                                  fermion_grid(3), fermion_grid(5)],
                         ids=lambda g: f"{g.statistics}-{g.mode_count}x{g.max_occupation}")
@pytest.mark.parametrize("annihilation_pair", [False, True])
def test_residuals_equal_dense_oracle_spectral_norm(grid, annihilation_pair):
    if grid.statistics == "boson":
        residual_fn, sign = commutator_residual, -1
    else:
        residual_fn, sign = anticommutator_residual, 1
    pair = "annihilation" if annihilation_pair else "mixed"
    # the request-level residuals, in the document's order, hold to the same
    # oracle and equal the per-pair function's exactly
    batch = bracket_residuals(grid)
    assert [row[:3] for row in batch] == [
        (i, j, p) for i in range(grid.mode_count) for j in range(grid.mode_count)
        for p in ("mixed", "annihilation")]
    batch = {row[:3]: row[3] for row in batch}
    for i in range(grid.mode_count):
        for j in range(grid.mode_count):
            expected = oracle_residual(grid, i, j, annihilation_pair, sign)
            got = residual_fn(grid, i, j, annihilation_pair=annihilation_pair)
            assert got >= expected
            assert got == expected, (i, j)
            assert batch[i, j, pair] == got == expected, (i, j)


def reference_bracket_residual(grid, bi, x, delta_ij, keep, sign):
    """The concatenating kernel `fock._bracket_residual` replaced, on the row
    maps that the (shift, factors) maps `bi` and `x` stand for (column c to row
    c + shift where its factor is nonzero, else to -1, nowhere), composed by
    index gathers: the three candidate segments laid end to end as 3*dim rows,
    columns and values, summed per column and per row by two bincounts."""
    def row_map(maps):
        shift, factors = maps
        return np.where(factors != 0, np.arange(grid.dim) + shift, -1), factors

    def compose(outer, inner):
        (rows, outer_factors), (mid, inner_factors) = outer, inner
        return np.where(mid >= 0, rows[mid], -1), outer_factors[mid] * inner_factors

    bi, x = row_map(bi), row_map(x)
    (r1, t1), (r2, t2) = compose(bi, x), compose(x, bi)
    cols = np.arange(grid.dim)
    r3 = cols if delta_ij else np.full(grid.dim, -1)
    v1 = t1 + np.where(r2 == r1, sign * t2, 0.0) - (r3 == r1)
    v2 = sign * t2 - (r3 == r2)
    rows = np.concatenate([r1, np.where(r2 == r1, -1, r2),
                           np.where((r3 == r1) | (r3 == r2), -1, r3)])
    vals = np.concatenate([v1, v2, np.full(grid.dim, -1.0)])
    cols = np.tile(cols, 3)
    inside = (rows >= 0) & keep[rows] & keep[cols]
    mags = np.abs(vals[inside])
    col_sum = np.bincount(cols[inside], mags, minlength=1).max()
    row_sum = np.bincount(rows[inside], mags, minlength=1).max()
    return float(np.sqrt(col_sum * row_sum))


@st.composite
def small_grids(draw):
    """Boson grids of 1-4 modes with cutoffs 1-4 and fermion grids of 1-7
    modes: every dim is at most 625."""
    if draw(st.booleans()):
        return fermion_grid(draw(st.integers(1, 7)))
    return boson_grid(draw(st.integers(1, 4)), draw(st.integers(1, 4)))


@settings(deadline=None)
@given(small_grids())
@example(boson_grid(2, 15))
@example(boson_grid(4, 4))
@example(boson_grid(6, 1))
@example(fermion_grid(7))
@example(ModeGrid((0.0,), 1))          # an empty annihilation block
def test_residuals_equal_the_concatenating_kernel_bit_for_bit(grid):
    got = bracket_residuals(grid)
    with mock.patch.object(fock, "_bracket_residual", reference_bracket_residual):
        assert got == bracket_residuals(grid)


@settings(deadline=None)
@given(small_grids())
@example(boson_grid(1, 1))
@example(fermion_grid(4))
def test_ladder_maps_move_one_mode_by_delta_and_zero_the_edge(grid):
    # what the residual kernel relies on: a nonzero factor's row c + shift is
    # in the basis and differs from c in mode m alone, by delta; a zero factor
    # marks the edge, so what the roll in `_compose` wraps round is zeroed
    shape = (grid.mode_dim,) * grid.mode_count
    cols = np.arange(grid.dim)
    occ = np.array(np.unravel_index(cols, shape))
    for delta in (-1, 1):
        for m in range(grid.mode_count):
            shift, factor = fock._ladder(grid, cols, delta, m)
            target = occ[m] + delta
            assert np.array_equal(factor == 0, (target < 0) | (target > grid.max_occupation))
            moved = np.flatnonzero(factor)
            rows = moved + shift
            assert ((rows >= 0) & (rows < grid.dim)).all()
            step = np.array(np.unravel_index(rows, shape)) - occ[:, moved]
            assert (step[m] == delta).all() and not np.delete(step, m, axis=0).any()


def random_shift_map(rng, dim, shift):
    """Factors on a dim-column space that use every mantissa bit, 0.0 where
    the row c + shift leaves the basis and at random further columns."""
    rows = np.arange(dim) + shift
    factors = rng.uniform(-4, 4, dim)
    factors[(rows < 0) | (rows >= dim) | (rng.random(dim) < 0.2)] = 0.0
    return shift, factors


def random_shift_map_cases(rng, count):
    """Two shift maps on a dim-2 to dim-32 space with shifts in (-dim, dim),
    a mask, a sign, and the identity on or off where the shifts cancel, as
    they do in half the cases.  A shift map sends two columns to two rows, so
    the colliding maps the concatenating form also summed cannot be drawn."""
    for _ in range(count):
        dim = int(rng.integers(2, 33))
        shift = int(rng.integers(-dim + 1, dim))
        back = -shift if rng.integers(2) else int(rng.integers(-dim + 1, dim))
        bi, x = random_shift_map(rng, dim, shift), random_shift_map(rng, dim, back)
        yield (ModeGrid((0.0,), dim - 1), bi, x, back == -shift and bool(rng.integers(2)),
               rng.random(dim) < 0.8, int(rng.choice([-1, 1])))


def test_kernel_sums_in_the_concatenating_order_on_any_maps():
    # the largest magnitude equals sqrt(||A||_1 ||A||_inf) to the bit, with
    # t1 + sign t2 - I summed in the order of the dense sum
    for case in random_shift_map_cases(np.random.default_rng(20), 4000):
        assert fock._bracket_residual(*case) == reference_bracket_residual(*case)


def test_residual_memory_is_a_fixed_multiple_of_the_map_stacks():
    # the lowering and raising factor stacks take modes*dim*16 bytes and one
    # pair's residual temporaries about 0.48 times that more, 1.48 in all; int64
    # row stacks kept beside the factors (2.28, or 3.07 with the -1 sentinel
    # kernel that summed rows and columns) break the bound
    grid = boson_grid(6, 4)
    tracemalloc.start()
    try:
        bracket_residuals(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * grid.mode_count * grid.dim * 16


# --- position-state creation --------------------------------------------------

def test_position_create_uniform_at_origin():
    grid = ModeGrid((-1.0, 0.0, 1.0), 2, "boson")
    state = position_create(grid, 0.0, 0.0)
    for k in range(3):
        occ = tuple(1 if m == k else 0 for m in range(3))
        assert state.amplitude(occ) == pytest.approx(1 / np.sqrt(3), abs=1e-14)
    assert state.mirror_deviation() < 1e-12


def test_position_overlap_kernel():
    # oracle: direct summation of exp(i p (x - x')) over the grid
    momenta = (-2.0, -1.0, 0.0, 1.0, 2.0)
    grid = ModeGrid(momenta, 2, "boson")
    x, xp = 0.7, -0.3
    a = position_create(grid, x, 0.0)
    b = position_create(grid, xp, 0.0)
    overlap = sum(np.conj(b.amplitude(k)) * a.amplitude(k)
                  for k in a.primary)
    kernel = sum(np.exp(1j * p * (x - xp)) for p in momenta) / len(momenta)
    assert overlap == pytest.approx(kernel, abs=1e-12)


def test_relativistic_weight_at_rest():
    grid = ModeGrid((0.0,), 2, "boson")
    params = DispersionParams(mass=2.0, c=3.0)
    amps = position_amplitudes(grid, 0.0, 0.0, params, relativistic=True)
    expected = 1.0 / np.sqrt(2.0 * params.mass * params.c ** 2)
    assert abs(amps[0]) == pytest.approx(expected, abs=1e-14)


def test_position_create_rejects_fermions():
    with pytest.raises(ValueError):
        position_create(fermion_grid(), 0.0, 0.0)


def test_dispersion_params_validation():
    with pytest.raises(ValueError):
        DispersionParams(mass=-1.0)
    with pytest.raises(ValueError):
        DispersionParams(c=0.0)
    # each non-finite value was accepted, and energy() then returned nan or inf
    for params in (dict(mass=np.nan), dict(c=np.nan), dict(mass=np.inf), dict(c=np.inf)):
        with pytest.raises(ValueError, match="positive and finite"):
            DispersionParams(**params)
