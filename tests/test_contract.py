"""The shared mirror contract and the shared outcome sampler.

Every dual object (DualRegister, DualFockState, WaveGrid) and every builder
that normalizes raw input (from_amplitudes, from_samples) must reject a NaN
or inf anywhere in the primary or the shadow. Each dual object holds its two
records as one read-only pair. The sampler must never return an outcome whose
probability is round-off noise. No source file builds a generator without a
seed or reads argparse's internals.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowsim.fock import DualFockState, ModeGrid, vacuum
from shadowsim.measurement import bell_measure, sample_outcome
from shadowsim.register import (
    TOLERANCES,
    BellKind,
    DualRegister,
    InvariantViolation,
    bell_pair,
    check_dual,
    check_registers,
    from_amplitudes,
    l2_norm,
)
from shadowsim.waves import (
    Potential,
    SlitGeometry,
    WaveGrid,
    ZonePartition,
    collapse_detect,
    double_slit_accumulate,
    from_samples,
)

NON_FINITE = st.sampled_from([
    complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0),
    complex(-np.inf, 0.0), complex(0.0, np.inf), complex(np.nan, np.inf),
])
FINITE = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
RECORD = st.sampled_from(["primary", "shadow"])


def poisoned(vec, index, bad):
    out = np.array(vec, dtype=complex)
    out[index % out.size] = bad
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(FINITE, min_size=4, max_size=4), st.integers(0, 3), NON_FINITE)
def test_from_amplitudes_rejects_non_finite(coeffs, index, bad):
    with pytest.raises(ValueError):
        from_amplitudes(poisoned(coeffs, index, bad), 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 7), NON_FINITE, RECORD)
def test_dual_register_rejects_non_finite(n, index, bad, record):
    vec = np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex)
    prim, shad = vec, vec.copy()
    if record == "primary":
        prim = poisoned(prim, index, bad)
    else:
        shad = poisoned(shad, index, bad)
    with pytest.raises(ValueError):
        DualRegister(n, prim, shad)


@settings(max_examples=60, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=4), st.integers(0, 3), NON_FINITE, RECORD)
def test_dual_fock_state_rejects_non_finite(amps, index, bad, record):
    grid = ModeGrid((0.0, 1.0), max_occupation=2)
    keys = grid.basis_occupations()[:len(amps)]
    prim = dict(zip(keys, amps))
    shad = dict(prim)
    target = prim if record == "primary" else shad
    target[keys[index % len(keys)]] = bad
    with pytest.raises(ValueError):
        DualFockState(grid, prim, shad)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 31), NON_FINITE, RECORD)
def test_wave_grid_rejects_non_finite(index, bad, record):
    grid_points = 32
    psi = np.full(grid_points, 1.0 / np.sqrt(2.0), dtype=complex)  # unit norm on [0, 2)
    prim, shad = psi, psi.copy()
    if record == "primary":
        prim = poisoned(prim, index, bad)
    else:
        shad = poisoned(shad, index, bad)
    with pytest.raises(ValueError):
        WaveGrid(0.0, 2.0, prim, shad)


@settings(max_examples=60, deadline=None)
@given(st.lists(FINITE, min_size=16, max_size=16), st.integers(0, 15), NON_FINITE)
def test_from_samples_rejects_non_finite(values, index, bad):
    with pytest.raises(ValueError):
        from_samples(-1.0, 1.0, poisoned(values, index, bad))


@pytest.mark.parametrize("kind", sorted(TOLERANCES))
def test_check_dual_mirror_boundary(kind):
    tol = TOLERANCES[kind]["mirror"]
    prim = np.zeros(2, dtype=complex)
    check_dual(kind, prim, prim + [tol, 0.0], None)
    with pytest.raises(ValueError):
        check_dual(kind, prim, prim + [4.0 * tol, 0.0], None)


def test_check_dual_shape_mismatch():
    with pytest.raises(ValueError):
        check_dual("register", [1.0, 0.0], [1.0, 0.0, 0.0], None)


# --- the stack form of check_dual ---------------------------------------------------

def clean_stack(k=4, size=8, seed=0):
    """A (k, 2, size) stack of mirrored unit-norm register pairs."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((k, size)) + 1j * rng.standard_normal((k, size))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.stack([v, v], axis=1)


@pytest.mark.parametrize("row", [0, 1], ids=["primary", "shadow"])
@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                 complex(np.inf, 0.0), complex(0.0, -np.inf)])
def test_stack_check_rejects_a_non_finite_entry_in_one_item(row, bad):
    stack = clean_stack()
    stack[2, row, 5] = bad
    with pytest.raises(InvariantViolation,
                       match=r"^register: mirror residual (nan|inf) > tolerance 1e-12$"):
        check_dual("register", stack, None, l2_norm)


def test_stack_check_rejects_a_non_finite_entry_in_both_rows():
    # the mirror residual of inf against inf is NaN; the norm is inf either way
    stack = clean_stack()
    stack[1, :, 0] = np.inf
    with np.errstate(invalid="ignore"), \
            pytest.raises(InvariantViolation, match=r"^register: mirror residual nan > "):
        check_dual("register", stack, None, l2_norm)


def test_stack_check_names_the_worst_mirror_break():
    stack = clean_stack()
    stack[0, 1, 3] += 2e-12
    stack[3, 1, 0] += 5e-12
    with pytest.raises(InvariantViolation,
                       match=r"^register: mirror residual 5e-12 > tolerance 1e-12$"):
        check_dual("register", stack, None, l2_norm)


def test_stack_check_names_the_worst_norm_break():
    stack = clean_stack()
    stack[1] *= 1.0 + 3e-10
    stack[2] *= 1.0 - 1e-9
    with pytest.raises(InvariantViolation,
                       match=r"^register: norm residual 1e-09 > tolerance 1e-12$"):
        check_dual("register", stack, None, l2_norm)


def test_clean_stack_comes_back_as_a_read_only_copy():
    stack = clean_stack()
    held = check_registers(stack)
    assert not held.flags.writeable
    assert not np.shares_memory(held, stack)
    assert np.array_equal(held, stack)
    with pytest.raises(ValueError):
        held[0, 0, 0] = 0.0
    assert check_registers([]).shape == (0, 2, 0)


def test_stack_check_rejects_a_stack_that_is_not_of_pairs():
    with pytest.raises(ValueError, match="stack of pairs"):
        check_dual("register", clean_stack()[:, :1], None, l2_norm)


# --- the held pair ----------------------------------------------------------------

FOCK_GRID = ModeGrid((0.0, 1.0), max_occupation=1)
FOCK_KEYS = FOCK_GRID.basis_occupations()

# per kind: a builder from primary and shadow arrays, a unit-norm primary, and
# the names of the record fields that are the pair's rows (Fock records are maps)
HELD = {
    "register": (lambda p, s: DualRegister(2, p, s), np.full(4, 0.5, dtype=complex),
                 ("primary", "shadow")),
    "fock": (lambda p, s: DualFockState(FOCK_GRID, dict(zip(FOCK_KEYS, p)),
                                        dict(zip(FOCK_KEYS, s))),
             np.full(4, 0.5, dtype=complex), None),
    "waves": (lambda p, s: WaveGrid(0.0, 2.0, p, s), np.full(32, 0.5 ** 0.5, dtype=complex),
              ("psi_primary", "psi_shadow")),
}


@pytest.mark.parametrize("kind", sorted(HELD))
def test_dual_object_holds_one_read_only_pair(kind):
    build, prim, fields = HELD[kind]
    shad = prim.copy()
    shad[1] += TOLERANCES[kind]["mirror"] / 2.0
    state = build(prim, shad)
    assert state.pair.shape == (2, prim.size)
    assert not state.pair.flags.writeable
    if fields is None:
        keys = list(state.primary)
        assert state.pair.tolist() == [[rec[k] for k in keys]
                                       for rec in (state.primary, state.shadow)]
    else:
        for row, name in enumerate(fields):
            record = getattr(state, name)
            assert record.base is state.pair
            assert np.shares_memory(record, state.pair[row])
    held = state.pair.copy()
    prim[:] = 0.0
    shad[:] = 0.0
    assert np.array_equal(state.pair, held)
    assert state.mirror_deviation() == float(np.max(np.abs(held[0] - held[1])))
    assert state.mirror_deviation() == pytest.approx(TOLERANCES[kind]["mirror"] / 2.0)


@pytest.mark.parametrize("make", [
    # bell_pair returns one prebuilt register per kind, so two calls give one object
    lambda: from_amplitudes([1.0, 1.0], 1),
    lambda: from_samples(0.0, 2.0, np.ones(32)),
    lambda: bell_measure(bell_pair(BellKind.PHI_PLUS), (0, 1), StubRng(0.0)),
    lambda: Potential(np.zeros(16)),
    lambda: double_slit_accumulate(SlitGeometry(1.0, 0.1, 100.0), 20, 4,
                                   np.random.default_rng(0)),
    lambda: vacuum(ModeGrid((0.0,))),
], ids=["DualRegister", "WaveGrid", "MeasurementRecord", "Potential", "DoubleSlitResult",
        "DualFockState"])
def test_array_holding_dataclasses_compare_by_identity(make):
    # a generated __eq__ would compare the arrays element-wise and raise
    a, b = make(), make()
    assert a == a and not a == b and a != b
    assert len({a, b, a}) == 2


# --- the outcome sampler ----------------------------------------------------------


class StubRng:
    """An rng whose random() always returns the same value."""

    def __init__(self, u):
        self.u = u
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.u


TOP = np.nextafter(1.0, 0.0)


def test_sampler_keeps_strict_comparison():
    assert sample_outcome(0.0, [0.0, 1.0]) == 1
    assert sample_outcome(0.25, [0.25, 0.75]) == 1
    assert sample_outcome(np.nextafter(0.25, 0.0), [0.25, 0.75]) == 0


def test_sampler_rounding_fallback_skips_zero_weight():
    probs = [0.5, 0.5 - 2.0 ** -52, 0.0, 0.0]
    assert sum(probs) < TOP
    assert sample_outcome(TOP, probs) == 1


def test_sampler_rounding_fallback_skips_round_off_weight():
    probs = [0.5, 0.5 - 2.0 ** -52, 1e-34]
    assert sample_outcome(TOP, probs) == 1


def reference_sample(u, probs):
    """The scalar loop the array sampler replaced."""
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if u < acc:
            return k
    floor = len(probs) * np.finfo(float).eps * max(probs)
    return max(k for k, p in enumerate(probs) if p > floor)


WEIGHT = st.one_of(st.just(0.0), st.sampled_from([1e-300, 1e-34, 2.0 ** -60, 2.0 ** -53]),
                   st.floats(0.0, 1.0))
UNIFORM = st.one_of(st.sampled_from([0.0, 0.5, TOP]), st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(st.lists(WEIGHT, min_size=1, max_size=8).filter(lambda w: sum(w) > 0),
       st.integers(0, 4), st.lists(UNIFORM, min_size=1, max_size=20))
def test_sampler_array_form_matches_scalar_form(weights, shrink, us):
    # shrink pulls the sum a few ulps below one, so top draws hit the fallback
    probs = np.array(weights) / sum(weights) * (1.0 - shrink * 2.0 ** -52)
    ks = sample_outcome(np.array(us), probs)
    assert ks.tolist() == [sample_outcome(u, probs) for u in us]
    assert ks.tolist() == [reference_sample(u, probs) for u in us]
    assert np.all(probs[ks] > 0.0)


def test_bell_measure_top_draw_stays_on_support():
    rng = StubRng(TOP)
    rec = bell_measure(bell_pair(BellKind.PHI_PLUS), (0, 1), rng)
    assert rng.draws == 1
    assert rec.outcome == BellKind.PHI_PLUS
    assert rec.probability == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.isfinite(rec.post_state.primary))
    assert np.all(np.isfinite(rec.post_state.shadow))


def test_collapse_top_draw_stays_in_occupied_zone():
    points = 64
    psi = np.zeros(points, dtype=complex)
    psi[:points // 4] = 1.0
    grid = from_samples(-8.0, 8.0, psi)
    partition = ZonePartition.equal_zones(points, 4)
    rng = StubRng(TOP)
    zone, collapsed = collapse_detect(grid, partition, rng)
    assert rng.draws == 1
    assert zone == 0
    assert collapsed.mirror_deviation() == 0.0


def _unseeded_generators(path):
    """The lines of every default_rng call in a source file that passes no seed."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and not node.args and not node.keywords
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "default_rng"]


SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "shadowsim").glob("*.py"))


def test_every_generator_in_the_package_is_seeded():
    # explicit seed, byte-identical output: a generator seeded from the OS
    # would make some output depend on the run
    assert SOURCES
    unseeded = [f"{path.name}:{line}" for path in SOURCES for line in _unseeded_generators(path)]
    assert not unseeded, f"default_rng() without a seed at {', '.join(unseeded)}"


def test_the_seed_guard_sees_every_spelling(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import numpy as np\nfrom numpy.random import default_rng\n"
                    "a = np.random.default_rng()\nb = default_rng()\n"
                    "c = np.random.default_rng(0)\nd = default_rng(seed=1)\n")
    assert _unseeded_generators(path) == [3, 4]


def _argparse_internals(path):
    """The lines of every argparse._* attribute and every ._actions read in a
    source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and (node.attr == "_actions" and isinstance(node.ctx, ast.Load)
                        or node.attr.startswith("_") and isinstance(node.value, ast.Name)
                        and node.value.id == "argparse")})


def test_no_source_reads_argparse_internals():
    # options are read off the package's own table: argparse's private
    # classes and a parser's action list are no interface
    assert SOURCES
    reads = [f"{path.name}:{line}" for path in SOURCES for line in _argparse_internals(path)]
    assert not reads, f"argparse internals read at {', '.join(reads)}"


def test_the_argparse_guard_sees_every_spelling(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import argparse\nclass P(argparse.ArgumentParser):\n"
                    "    def __init__(self):\n        self._negative_number_matcher = None\n"
                    "a = argparse._StoreAction\nb = [x for x in p._actions]\n"
                    "c = p.sub.choices['x']._actions\nd = argparse.Namespace()\n"
                    "p._actions = []\n")
    assert _argparse_internals(path) == [5, 6, 7]
