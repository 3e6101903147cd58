import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import special, stats

from shadowsim import cli, waves
from shadowsim.cli import (
    ShotRows,
    _chi_square_tail,
    _merged_cell_starts,
    _merged_chisquare,
    _parse_complex,
    _parser,
    _read_table,
    run,
    to_csv,
    to_json,
)


def invoke(argv, tmp_path, name="out.json"):
    path = tmp_path / name
    code = run(argv + ["--output", str(path)])
    return code, path.read_bytes()


# --- serialization -------------------------------------------------------------

def test_json_floats_17_digits():
    assert to_json(1.0 / 3.0) == "0.33333333333333331"


def test_json_complex_as_pair():
    assert to_json(0.5 + 0.25j) == "[0.5, 0.25]"


def test_json_key_order_preserved():
    text = to_json({"b": 1, "a": 2})
    assert text.index('"b"') < text.index('"a"')


def test_json_round_trips():
    doc = {"x": [1.5, 2], "y": {"z": True, "w": None}, "s": "hi"}
    assert json.loads(to_json(doc)) == doc


# an independent oracle for to_json: the value json.loads must give back, with
# complex numbers as [re, im], tuples as lists and numpy scalars as Python ones
JSON_SCALARS = st.one_of(
    st.text(),
    st.booleans(),
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308, 1e16, 123.0]),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.none(),
    st.booleans().map(np.bool_),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128),
)
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=6), inner, max_size=4),
), max_leaves=24)


def json_expected(x):
    if isinstance(x, dict):
        return {k: json_expected(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [json_expected(v) for v in x]
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real), float(x.imag)]
    if isinstance(x, np.generic):
        return x.item()
    return x


def same_json(a, b):
    """a == b with equal types throughout, keys in the same order, and floats
    equal bit for bit (so -0.0 is not 0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_json, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_json(a[k], b[k]) for k in a)
    return a == b


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES, st.integers(0, 3))
def test_json_writer_against_the_stdlib_reader(value, indent):
    text = to_json(value, indent)
    assert same_json(json.loads(text), json_expected(value)), text


@pytest.mark.parametrize("value", [
    float("nan"), np.float64("nan"), np.float32("nan"), complex(1.0, float("nan")),
    np.complex128(complex(float("nan"), 0.0)), [1.0, float("nan")], {"a": {"b": float("nan")}},
    (float("nan"),), ShotRows([{"p": float("nan")}], [0, 0]),
])
def test_json_writer_rejects_nan(value):
    with pytest.raises(ValueError, match="NaN"):
        to_json(value)


def test_csv_header_and_rows():
    text = to_csv(["a", "b"], [{"a": 1, "b": 0.5}])
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.5"


# the cells a shot row may hold, with the floats whose text is easiest to get wrong
CELL = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308]),
    st.integers(-2 ** 70, 2 ** 70),
    st.text(max_size=8),
    st.complex_numbers(allow_nan=False),
)


@st.composite
def shot_tables(draw):
    names = draw(st.lists(st.text(min_size=1, max_size=6).filter(lambda k: k != "shot"),
                          unique=True, max_size=4))
    rows = draw(st.lists(st.fixed_dictionaries({k: CELL for k in names}),
                         min_size=1, max_size=4))
    index = draw(st.lists(st.integers(0, len(rows) - 1), max_size=40))
    return names, ShotRows(rows, index)


@settings(max_examples=300, deadline=None)
@given(shot_tables(), st.integers(0, 3))
def test_shot_rows_write_as_the_generic_writer_of_their_expansion(table, indent):
    names, shots = table
    rows = list(shots)
    assert rows == [{"shot": s, **shots.rows[i]} for s, i in enumerate(shots.index)]
    assert to_json(shots, indent) == to_json(rows, indent)
    assert to_json({"shots": shots}, indent) == to_json({"shots": rows}, indent)
    assert to_csv(["shot"] + names, shots) == to_csv(["shot"] + names, rows)


# --- determinism -----------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["teleport", "--shots", "20", "--seed", "9"],
    ["swap", "--shots", "50", "--seed", "9"],
    ["readout", "--shots", "100", "--seed", "9"],
    ["collapse", "--shots", "200", "--seed", "9"],
    ["erratum"],
])
def test_byte_identical_runs(argv, tmp_path):
    code1, doc1 = invoke(argv, tmp_path, "a.json")
    code2, doc2 = invoke(argv, tmp_path, "b.json")
    assert code1 == code2 == 0
    assert doc1 == doc2


def test_seed_changes_output(tmp_path):
    _, doc1 = invoke(["swap", "--shots", "50", "--seed", "1"], tmp_path, "a.json")
    _, doc2 = invoke(["swap", "--shots", "50", "--seed", "2"], tmp_path, "b.json")
    assert doc1 != doc2


# --- document structure --------------------------------------------------------------

def test_document_keys(tmp_path):
    code, raw = invoke(["teleport", "--shots", "5", "--seed", "3"], tmp_path)
    doc = json.loads(raw)
    assert list(doc) == ["config", "results", "invariants", "errata"]
    assert doc["config"]["seed"] == 3
    assert doc["config"]["shots"] == 5
    for check in doc["invariants"].values():
        assert set(check) == {"ok", "residual", "tolerance"}


def test_teleport_fidelity_one(tmp_path):
    code, raw = invoke(
        ["teleport", "--alpha", "0.6", "--beta", "0.8i", "--resource",
         "phi-minus", "--shots", "100", "--seed", "7"], tmp_path)
    doc = json.loads(raw)
    assert code == 0
    for shot in doc["results"]["shots"]:
        assert shot["fidelity"] == pytest.approx(1.0, abs=1e-10)


def test_algebra_residuals_zero(tmp_path):
    code, raw = invoke(["algebra", "--modes", "3", "--nmax", "4"], tmp_path)
    doc = json.loads(raw)
    assert code == 0
    for row in doc["results"]["residuals"]:
        assert row["residual"] < 1e-12


def test_erratum_document(tmp_path):
    code, raw = invoke(["erratum"], tmp_path)
    doc = json.loads(raw)
    assert code == 0
    ids = [f["id"] for f in doc["errata"]]
    assert "entangled-pair-prefactor" in ids
    assert "teleportation-branch-flip" in ids
    assert "ladder-factor-double-application" in ids


def test_csv_output(tmp_path):
    code, raw = invoke(
        ["teleport", "--shots", "3", "--seed", "1", "--format", "csv"], tmp_path)
    lines = raw.decode().splitlines()
    assert lines[0] == "shot,outcome,probability,fidelity"
    assert len(lines) == 4


# --- exit codes -------------------------------------------------------------------------

def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_invalid_shots_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["teleport", "--shots", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, start", [
    (["teleport", "--shots", "0"], "shadowsim teleport: error: --shots must be >= 1"),
    (["teleport", "--seed", "-1"], "shadowsim teleport: error: --seed must be a 64-bit"),
    (["teleport", "--seed", "18446744073709551616"],
     "shadowsim teleport: error: --seed must be a 64-bit"),
    (["teleport", "--resource", "bogus"],
     "shadowsim teleport: error: argument --resource: invalid choice: 'bogus'"),
    (["teleport", "--alpha", "1+"], "shadowsim teleport: error: argument --alpha:"),
    (["teleport", "--bogus"], "shadowsim: error: unrecognized arguments: --bogus"),
])
def test_usage_errors_exit_2_with_one_line(argv, start, capsys):
    # argparse's own errors printed a usage block of 3-5 lines first
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(start)


def test_invalid_flag_value_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["teleport", "--alpha", "spam"])
    assert exc.value.code == 2


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_output_exits_2_with_one_line(target, tmp_path, capsys):
    # a path in a directory that does not exist, and a directory
    path = tmp_path / target
    with pytest.raises(SystemExit) as exc:
        run(["bell", "--output", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"shadowsim bell: error: cannot write {path}")


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "shadowsim.cli", "bell", "--seed", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["invariants"]["orthonormal_basis"]["ok"] is True


@pytest.mark.parametrize("alpha", ["nan", "1e400", "inf", "-inf", "infj"])
def test_non_finite_alpha_exits_2_with_one_line(alpha, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["teleport", "--shots", "2", f"--alpha={alpha}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("shadowsim teleport: error:")


@pytest.mark.parametrize("argv", [
    ["teleport", "--alpha", "0", "--beta", "0"],
    ["doubleslit", "--wavelength", "0"],
    ["doubleslit", "--wavelength", "-0.05"],
    ["doubleslit", "--wavelength", "inf"],
    ["evolve", "--dt", "nan"],
    ["evolve", "--dt", "inf"],
    ["evolve", "--dt", "1e308"],
    ["evolve", "--sigma", "-1"],
    ["evolve", "--sigma", "0"],
    ["evolve", "--sigma", "nan"],
    ["evolve", "--sigma", "inf"],
    ["evolve", "--sigma", "1e300"],
    ["evolve", "--xmin=0", "--xmax=1e-320", "--points", "64", "--steps", "2"],
    ["evolve", "--xmin=0", "--xmax=1e-300", "--points", "64", "--steps", "2"],
    # each fails at once on its first 7.28-TiB allocation
    ["algebra", "--modes", "12", "--nmax", "9"],
    ["evolve", "--points", "1000000000000", "--steps", "1"],
    ["collapse", "--points", "1000000000000"],
    ["doubleslit", "--bins", "1000000000000"],
    ["algebra", "--nmax", "0"],
])
def test_degenerate_inputs_exit_2_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--shots", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"shadowsim {argv[0]}: error:")


@pytest.mark.parametrize("dt", ["1e12", "1e300"])
def test_broken_invariant_exits_1_with_one_line(dt, capsys):
    # the solve at a huge but finite step drifts off unit norm: the program
    # built a state that breaks its contract, which is not a usage error
    with pytest.raises(SystemExit) as exc:
        run(["evolve", "--steps", "2", "--dt", dt])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("shadowsim evolve: invariant violation: waves: norm residual")
    assert err.endswith(" > tolerance 1e-08\n")


def test_non_finite_evolution_exits_1_with_one_line(capsys):
    # on a 64-point grid 1e-150 wide the solve overflows to non-finite
    # amplitudes: a broken invariant, reported as one line, not a traceback
    with pytest.raises(SystemExit) as exc:
        run(["evolve", "--xmin=0", "--xmax=1e-150", "--points", "64", "--steps", "2"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err == ("shadowsim evolve: invariant violation: waves: finiteness broken: "
                   "non-finite amplitudes at t=0.002 (dt=0.002)\n")


def test_failed_invariant_exits_1_with_one_line_naming_it(tmp_path, capsys):
    # seed 328's swap frequencies stray past the 3-sigma gate: the document
    # is written as always, and stderr names the gate, residual and tolerance
    code, raw = invoke(["swap", "--seed", "328"], tmp_path)
    assert code == 1
    gate = json.loads(raw)["invariants"]["outcome_frequencies"]
    assert gate["ok"] is False
    assert capsys.readouterr().err == ("shadowsim swap: invariant violation: outcome_frequencies "
                                       "residual 0.046 > tolerance 0.0411\n")


def test_every_failed_invariant_shares_the_one_line(tmp_path, capsys, monkeypatch):
    from shadowsim import cli

    monkeypatch.setattr(cli, "_invariant",
                        lambda residual, tol: {"ok": False, "residual": float(residual),
                                               "tolerance": tol})
    code, raw = invoke(["swap"], tmp_path)
    assert code == 1
    names = list(json.loads(raw)["invariants"])
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    failed = err.removeprefix("shadowsim swap: invariant violation: ").rstrip("\n")
    assert [part.split(" residual ")[0] for part in failed.split("; ")] == names


# --- the algebra tolerance follows the cutoff -----------------------------------------------

def algebra_gate(nmax, tmp_path):
    code, raw = invoke(["algebra", "--modes", "1", "--nmax", str(nmax)], tmp_path)
    return code, json.loads(raw)["invariants"]["algebra_residuals"]


def test_algebra_tolerance_is_1e_12_up_to_its_round_off_bound(tmp_path):
    # every benchmark request and golden pin has nmax <= 15
    assert algebra_gate(1124, tmp_path)[1]["tolerance"] == 1e-12
    assert algebra_gate(1125, tmp_path)[1]["tolerance"] > 1e-12


def test_algebra_one_mode_sweep_exits_0(tmp_path):
    # the sqrt(n) sqrt(n) round-off passes 1e-12 from nmax 4105 on
    for nmax in (*range(1, 20001, 250), 4104, 4105, 10000, 20000):
        code, gate = algebra_gate(nmax, tmp_path)
        assert code == 0, (nmax, gate)
        assert gate["residual"] <= 2 * (nmax + 1) * np.finfo(float).eps


def test_algebra_tolerance_still_catches_a_wrong_factor(tmp_path, capsys, monkeypatch):
    # a relative error of 2e-11 in one creation factor at nmax 10 000
    from shadowsim import fock

    ladder = fock._ladder

    def off(grid, index, delta, mode):
        shift, factor = ladder(grid, index, delta, mode)
        return shift, factor * (1 + 2e-11) if delta > 0 else factor

    monkeypatch.setattr(fock, "_ladder", off)
    code, gate = algebra_gate(10000, tmp_path)
    assert code == 1 and gate["residual"] > 2 * gate["tolerance"]
    assert capsys.readouterr().err == ("shadowsim algebra: invariant violation: algebra_residuals "
                                       "residual 2.36e-11 > tolerance 8.88e-12\n")


@pytest.mark.parametrize("text,value", [
    ("0.8i", 0.8j), ("i", 1j), ("-i", -1j), (" -0.5+0.7i ", -0.5 + 0.7j),
    ("(1-2i)", 1 - 2j), (" ( 1e-3i ) ", 1e-3j), ("2", 2), ("1+2j", 1 + 2j),
])
def test_imaginary_unit_reads_as_i_or_j(text, value):
    assert _parse_complex(text) == value


def test_non_finite_alpha_exits_2_from_the_shell():
    proc = subprocess.run(
        [sys.executable, "-m", "shadowsim.cli", "teleport", "--alpha=nan"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_doubleslit_sparse_bins_merge_into_a_finite_test(tmp_path):
    # at 200 shots over 128 bins few bins expect 5 counts; merging neighbours
    # keeps every bin, fringe minima included, in a test with a finite p-value
    code, doc = invoke(["doubleslit", "--shots", "200", "--bins", "128", "--seed", "1"],
                       tmp_path)
    results = json.loads(doc)["results"]
    assert code in (0, 1)
    assert np.isfinite(results["p_value"]) and 0.0 <= results["p_value"] <= 1.0
    starts = _merged_cell_starts(results["expected"])
    assert len(starts) >= 2 and starts[0] == 0
    cells = np.add.reduceat(results["counts"], starts)
    assert cells.sum() == sum(results["counts"]) == 200
    assert min(np.add.reduceat(results["expected"], starts)) >= 5.0


def test_collapse_cells_merge_sparse_tails():
    assert _merged_cell_starts([0.032, 500.0, 500.0, 0.032]) == [0, 2]
    assert _merged_cell_starts([3.0, 3.0, 3.0, 3.0]) == [0, 2]
    assert _merged_cell_starts([5.0, 5.0, 1.0]) == [0, 1]
    assert _merged_cell_starts([2.0, 2.0]) == [0]


@pytest.mark.parametrize("seed", [5, 33])
def test_collapse_tail_zones_raise_no_false_alarm(seed, tmp_path):
    # without merging, these seeds put one count in a tail zone expecting
    # 0.032 and the chi-square rejected a correct sampler at the 0.001 level
    code, doc = invoke(["collapse", "--shots", "1000", "--seed", str(seed)], tmp_path)
    assert code == 0
    assert json.loads(doc)["invariants"]["collapse_statistics"]["ok"] is True


@pytest.mark.parametrize("argv", [["--shots", "4"], ["--zones", "3", "--shots", "200"]])
def test_collapse_single_cell_has_nothing_to_test(argv, tmp_path):
    # every zone merges into one cell, whose count always equals its expectation
    code, doc = invoke(["collapse"] + argv, tmp_path)
    results = json.loads(doc)["results"]
    assert code == 0
    assert (results["chi_square"], results["p_value"]) == (0.0, 1.0)


# --- the collapse mirror: each row projected and normalized in its own zone ----------------

def plant_shadow_defect(monkeypatch, defect):
    # a confine copy whose shadow row, in the cells of the given zones, is
    # defect(the shadow confined to every zone, each cell's zone, zone weights)
    confine = waves.confine

    def planted(grid, partition, zones):
        confined = confine(grid, partition, zones)
        everywhere = confine(grid, partition, range(partition.zone_count))[1]
        zone = np.repeat(np.arange(partition.zone_count), np.diff(partition.edges(grid.points)))
        given = np.isin(zone, zones)
        confined[1, given] = defect(everywhere, zone, waves._zone_weights(grid, partition))[given]
        return confined

    monkeypatch.setattr(waves, "confine", planted)


def collapse_mirror(tmp_path, capsys):
    code, doc = invoke(["collapse", "--shots", "300", "--seed", "3"], tmp_path)
    return code, json.loads(doc)["invariants"], capsys.readouterr().err


def test_collapse_mirror_holds_on_the_unpatched_kernel(tmp_path, capsys):
    code, invariants, err = collapse_mirror(tmp_path, capsys)
    assert code == 0 and err == ""
    assert list(invariants) == ["collapse_statistics", "mirror"]
    assert invariants["mirror"]["residual"] == 0.0


@pytest.mark.parametrize("defect", [
    # each zone's shadow read off the next zone's cells (equal zones of 128 cells)
    lambda row, zone, weights: np.roll(row, -128),
    # each zone's shadow normalized by the next zone's weight
    lambda row, zone, weights: row * np.sqrt(weights[1, zone] / weights[1, (zone + 1) % 4]),
], ids=["neighbouring-zone", "other-zone-weight"])
def test_collapse_mirror_catches_a_wrong_shadow_projection(defect, monkeypatch, tmp_path,
                                                           capsys):
    plant_shadow_defect(monkeypatch, defect)
    code, invariants, err = collapse_mirror(tmp_path, capsys)
    assert code == 1
    assert invariants["mirror"]["ok"] is False
    assert invariants["collapse_statistics"]["ok"] is True
    assert err.startswith("shadowsim collapse: invariant violation: mirror residual ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["collapse"],
    ["collapse", "--points=4096", "--zones=4096", "--shots=100000"],
])
def test_a_collapse_request_builds_only_its_packet_grid(argv, monkeypatch, tmp_path):
    built = []
    post_init = waves.WaveGrid.__post_init__

    def counting(grid):
        built.append(grid)
        post_init(grid)

    monkeypatch.setattr(waves.WaveGrid, "__post_init__", counting)
    code, _ = invoke(argv, tmp_path)
    assert code == 0
    assert len(built) == 1


# --- one parser per process ----------------------------------------------------------

# different subcommands and formats back to back: a default or a namespace
# left over from one request would show in a later document
BACK_TO_BACK = [
    ["teleport", "--shots", "3", "--seed", "4", "--alpha", "1", "--beta", "0"],
    ["teleport", "--seed", "4"],
    ["algebra", "--modes", "2", "--nmax", "1", "--statistics", "fermion", "--format", "csv"],
    ["algebra", "--modes", "2", "--nmax", "2"],
    ["bell"],
    ["evolve", "--points", "64", "--steps", "3", "--x0", "-1e-3"],
    ["collapse", "--shots", "50", "--points", "64"],
    ["erratum"],
]


def test_back_to_back_requests_match_fresh_processes(tmp_path):
    in_process = [invoke(argv, tmp_path, f"in-{i}.out") for i, argv in enumerate(BACK_TO_BACK)]
    for i, argv in enumerate(BACK_TO_BACK):
        path = tmp_path / f"fresh-{i}.out"
        proc = subprocess.run([sys.executable, "-m", "shadowsim.cli", *argv,
                               "--output", str(path)], capture_output=True, text=True)
        assert (proc.returncode, path.read_bytes()) == in_process[i], argv


# --- negative option values --------------------------------------------------------------

@pytest.mark.parametrize("flag,value", [("--x0", "-1e-3"), ("--k0", "-2.5E+0"),
                                        ("--xmin", "-2e1")])
def test_negative_exponent_value_reads_like_the_equals_form(flag, value, tmp_path):
    argv = ["evolve", "--points", "64", "--steps", "3"]
    spaced = invoke(argv + [flag, value], tmp_path, "spaced.json")
    joined = invoke(argv + [f"{flag}={value}"], tmp_path, "joined.json")
    assert spaced == joined
    assert json.loads(spaced[1])["config"][flag[2:]] == float(value)


def test_negative_infinity_reaches_the_grid_check(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["evolve", "--xmin", "-inf"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == "shadowsim evolve: error: grid bounds must be finite with x_min < x_max: -inf, 20.0\n"


# --- grid inputs ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["evolve", "--points", "0"],
    ["evolve", "--points", "-5"],
    ["collapse", "--points", "0"],
    ["evolve", "--xmin=5", "--xmax=-5"],
    ["evolve", "--xmin=1e308", "--xmax=-1e308"],
    ["evolve", "--xmin=-1e308", "--xmax=1e308"],
    ["evolve", "--xmin=nan"],
    ["evolve", "--k0=inf"],
    ["evolve", "--k0=1e308"],
    ["evolve", "--x0=-inf"],
    ["evolve", "--x0=nan"],
    # the aperture's squares overflow on a far-field domain this wide
    ["doubleslit", "--distance", "1e308"],
    ["doubleslit", "--wavelength", "1e300"],
    ["doubleslit", "--separation", "1e200", "--distance", "1e300", "--width", "1"],
    # 4 width^2 is below the smallest float
    ["doubleslit", "--width", "1e-200"],
    # more zones than grid points
    ["collapse", "--zones", "513", "--points", "512"],
    ["collapse", "--zones", "600"],
    # at or past the grid's Nyquist wave number pi/dx (80.4 here) the packet aliases
    ["evolve", "--k0", "100"],
    ["evolve", "--k0", "1e6"],
])
def test_bad_grid_inputs_exit_2_with_one_line(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as exc:
            run(argv)
    assert exc.value.code == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"shadowsim {argv[0]}: error:")


def test_non_finite_slit_separation_exits_2_with_one_line(capsys):
    # the geometry names itself, before any grid is built from it
    with pytest.raises(SystemExit) as exc:
        run(["doubleslit", "--separation", "nan"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "shadowsim doubleslit: error: slit geometry values must be positive and finite: "
        "SlitGeometry(separation=nan, width=0.1, distance=100.0)\n")


@pytest.mark.parametrize("argv,width,cell", [
    (["doubleslit", "--distance", "1e308"], "0.1", "5.82843e+303"),
    (["doubleslit", "--wavelength", "1e300"], "0.1", "1.16569e+299"),
    (["doubleslit", "--separation", "1e200", "--distance", "1e300", "--width", "1"],
     "1", "5.82843e+294"),
])
def test_aperture_below_the_far_field_cell_names_both_widths(argv, width, cell, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"shadowsim doubleslit: error: slit width {width} is too narrow for the far-field "
        f"grid's cell width {cell}: no aperture sample is nonzero\n")


@pytest.mark.parametrize("distance,cell", [("2000", "0.116569"), ("1e4", "0.582843")])
def test_far_field_cell_wider_than_the_slit_exits_2(distance, cell, capsys):
    # at these distances the screen intensity leaves the analytic oracle
    with pytest.raises(SystemExit) as exc:
        run(["doubleslit", "--distance", distance])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"shadowsim doubleslit: error: slit width 0.1 is narrower than the far-field "
        f"grid's cell width {cell}: the aperture is not resolved\n")


def test_far_field_cell_narrower_than_the_slit_runs(tmp_path):
    code, _ = invoke(["doubleslit", "--distance", "1000"], tmp_path)
    assert code == 0


# --- the option-table read against argparse ------------------------------------------

def _subcommand_actions():
    """{subcommand: {long option: its action}} off the parser."""
    parser = _parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {option: action for action in p._actions
                   for option in action.option_strings if option.startswith("--")}
            for name, p in sub.choices.items()}


ACTIONS = _subcommand_actions()
# {subcommand: {long option: "value" | "flag" | None}}; None marks an option
# the table does not read (--help)
OPTIONS = {name: {option: "flag" if action.const is True
                  else "value" if action.nargs is None else None
                  for option, action in actions.items()}
           for name, actions in ACTIONS.items()}


def fitting_values(action):
    """Texts the option's type and choices take."""
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return st.integers(-5, 10 ** 6).map(str)
    if action.type is float:
        return st.floats(allow_nan=False).map(repr)
    if action.type is _parse_complex:
        return st.complex_numbers(max_magnitude=2.0).map(lambda z: f"{z.real!r}{z.imag:+}j")
    return st.text(min_size=1, max_size=8)
# an option of another subcommand, one of none, and --help given a value
FOREIGN = ["--modes", "--single-slit", "--bogus", "--help"]
VALUE_TEXT = st.one_of(
    st.sampled_from(["0", "1", "-1", "3", "50", "2.5", "-1e-3", "1e-3", "-2.5E+0", "inf",
                     "-inf", "nan", "infj", "1e400", "abc", "", "--", "-", " 7", "1_000",
                     "json", "csv", "xml", "phi-plus", "psi-minus", "PSI-PLUS", "boson",
                     "fermion", "free", "harmonic", "0.3+0.1i", "-0.5+0.7i", "(0.6+0.8i)",
                     "1i", "0.8j", "2+i", "out.json", "a=b"]),
    st.integers(-10 ** 5, 10 ** 5).map(str),
    st.floats().map(repr),
    st.complex_numbers(max_magnitude=10.0).map(lambda z: f"{z.real!r}{z.imag:+}i"),
)
FORMS = ["equals"] * 12 + ["bare", "spaced", "abbreviated", "help"]


@st.composite
def cli_argvs(draw):
    """A subcommand (rarely something else) and up to six option tokens, the
    "--name=value" form and a value the option takes most often, repeats
    allowed."""
    name = draw(st.sampled_from(sorted(OPTIONS) * 6 + ["tele", "-h", "--seed=1"]))
    options = sorted(set(OPTIONS.get(name, {})) - {"--help"}) * 4 + FOREIGN
    argv = [name]
    for _ in range(draw(st.integers(0, 6))):
        option, form = draw(st.sampled_from(options)), draw(st.sampled_from(FORMS))
        action = ACTIONS.get(name, {}).get(option)
        fits = action is not None and draw(st.integers(0, 3)) > 0
        value = draw(fitting_values(action) if fits else VALUE_TEXT)
        if form == "equals":
            argv.append(f"{option}={value}")
        elif form == "bare":
            argv.append(option)
        elif form == "spaced":
            argv += [option, value]
        elif form == "abbreviated":
            argv.append(f"{option[:max(3, len(option) - 2)]}={value}")
        else:
            argv.append("-h")
    return argv


def _table_form(argv):
    """Whether every token after the subcommand is "--name=value" with an exact
    long option that takes a value, or a bare flag; "--" is no value."""
    kinds = OPTIONS.get(argv[0])
    if kinds is None:
        return False
    for token in argv[1:]:
        option, eq, value = token.partition("=")
        if kinds.get(option) != ("value" if eq else "flag") or value == "--":
            return False
    return True


def _argparse_outcome(argv):
    """(vars of parse_args(argv), None), or (None, exit code), output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_parser().parse_args(argv)), None
        except SystemExit as exc:
            return None, exc.code


def _plain_vars(namespace_vars):
    # repr tells nan from nan, -0.0 from 0.0 and 1 from 1.0
    return {key: repr(value) for key, value in namespace_vars.items()}


@settings(max_examples=600, deadline=None)
@given(cli_argvs())
@example(["teleport", "--shots=400", "--alpha=-0.11078672526095844-0.45946259231104403j",
          "--beta=0.3621876603984881+0.80339313317194694j", "--resource=psi-plus",
          "--format=csv", "--seed=3", "--output=doc"])
@example(["doubleslit", "--single-slit", "--bins=32", "--single-slit"])
@example(["teleport", "--resource=phi-plus", "--resource=bogus"])
@example(["algebra", "--statistics=bosons"])
@example(["evolve", "--x0=-1e-3", "--xmin=-inf"])
@example(["teleport", "--output=--"])
def test_table_read_equals_argparse(argv):
    parsed, code = _argparse_outcome(argv)
    read = _read_table(list(argv))
    if read is not None:
        assert parsed is not None and _plain_vars(vars(read)) == _plain_vars(parsed)
    if code == 2:
        assert read is None
    if parsed is not None and _table_form(argv):
        assert read is not None
    assert code in (None, 0, 2)


# the benchmark's warm-up requests, one per subcommand, and the bare flag
WARM_UP_ARGVS = [
    ["teleport", "--seed=1", "--shots=50"],
    ["swap", "--seed=1", "--shots=50"],
    ["bell", "--seed=1"],
    ["readout", "--seed=1", "--shots=100"],
    ["product", "--seed=1", "--shots=50"],
    ["algebra", "--seed=1", "--modes=2", "--nmax=2"],
    ["algebra", "--seed=1", "--modes=3", "--nmax=1", "--statistics=fermion"],
    ["evolve", "--seed=1", "--points=1024", "--steps=100"],
    ["collapse", "--seed=1", "--shots=200", "--points=256", "--zones=2"],
    ["doubleslit", "--seed=1", "--shots=2000", "--bins=32"],
    ["doubleslit", "--seed=1", "--shots=2000", "--bins=32", "--single-slit"],
    ["erratum", "--seed=1"],
]


@pytest.mark.parametrize("argv", WARM_UP_ARGVS, ids=" ".join)
def test_a_table_form_request_builds_no_parser(argv, monkeypatch, tmp_path, capsys):
    # the same request spelled "--name value" goes through argparse; spelled
    # "--name=value" it must give the same exit code, document and stderr
    # with no parser built in the process
    spaced = [part for token in argv for part in token.split("=", 1)]
    assert _read_table(spaced) is None
    parsed_code, parsed_doc = invoke(spaced, tmp_path, "spaced.out")
    parsed_err = capsys.readouterr().err

    def no_parser():
        raise AssertionError(f"{argv} built the parser")

    monkeypatch.setattr(cli, "_parser", no_parser)
    code = run(argv + [f"--output={tmp_path / 'equals.out'}"])
    assert code == parsed_code
    assert (tmp_path / "equals.out").read_bytes() == parsed_doc
    assert capsys.readouterr().err == parsed_err


# --- validated register builds per request --------------------------------------------------

@pytest.mark.parametrize("argv,builds", [
    (["teleport", "--shots", "200"], 4),
    (["swap", "--shots", "200"], 2),
    (["readout", "--shots", "550"], 2),
    (["product", "--shots", "175"], 3),
])
def test_validated_register_builds_per_request(argv, builds, monkeypatch, tmp_path):
    # measurement records build their registers only when read: a request
    # validates exactly the registers it reads, each once per read
    from shadowsim import register

    kinds = []
    check_dual = register.check_dual

    def counting(kind, *args):
        kinds.append(kind)
        return check_dual(kind, *args)

    monkeypatch.setattr(register, "check_dual", counting)
    code, _ = invoke(argv, tmp_path)
    assert code == 0
    assert kinds.count("register") == builds


def test_teleport_with_one_broken_shadow_row_exits_1_with_one_line(monkeypatch, tmp_path,
                                                                   capsys):
    # one outcome's remote qubit, read from the shadow, breaks the mirror: the
    # stack it is checked in fails closed, and the request names the invariant
    from shadowsim import protocols

    remote_pairs = protocols._remote_pairs

    def broken(records):
        pairs = remote_pairs(records)
        pairs[-1, 1, 0] += 1e-6
        return pairs

    monkeypatch.setattr(protocols, "_remote_pairs", broken)
    with pytest.raises(SystemExit) as exc:
        run(["teleport", "--shots=200", f"--output={tmp_path / 'doc'}"])
    assert exc.value.code == 1
    assert capsys.readouterr().err == (
        "shadowsim teleport: invariant violation: register: mirror residual 1e-06 "
        "> tolerance 1e-12\n")


# --- scipy off the import path -----------------------------------------------------------

IMPORT_PATH = """
import os, sys
from shadowsim import cli
for argv in (["algebra"], ["erratum"], ["bell"]):
    cli.run(argv + ["--output", os.devnull])
assert "numpy.random" not in sys.modules
for argv in (["teleport"], ["swap"], ["readout"], ["product"], ["collapse"], ["doubleslit"],
             ["doubleslit", "--single-slit"]):
    cli.run(argv + ["--output", os.devnull])
print(",".join(m for m in sys.modules if m.startswith("scipy")))
"""


def test_scipy_stays_off_the_import_path():
    # only evolve loads scipy (scipy.sparse, for its LU)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PATH], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


# --- chi-square against its scipy oracle -------------------------------------------------

EPS = np.finfo(np.float64).eps


def tail_bound(dof, statistic, c):
    """c (1 + a|ln z| + z) eps, a = dof/2, z = statistic/2: the relative error
    bound of _chi_square_tail, with c chosen per oracle.

    The error analysis, in units of eps: the prefactor's exponent
    a ln z - z - lgamma(a) is rounded to within about 1 + a|ln z| + z (the
    rounding of lgamma(a) is no larger wherever P is not negligible against
    Q), and exp turns that absolute error into a relative one; the series and
    the fraction add a few; and 1 - P below z = a + 1, where Q > 0.083 at
    a >= 1/2, multiplies P's error by at most 11.  Against an exact closed
    form c = 16 covers this.  Against scipy's chdtrc c = 128: its Cephes
    igamc documents a peak relative error of 1.9e-14 (86 eps) of its own."""
    a, z = 0.5 * dof, 0.5 * statistic
    return c * (1.0 + a * abs(math.log(z)) + z) * EPS


SCIPY_C, EXACT_C = 128, 16


def tail_near(got, want, bound):
    """got within bound of want, relative, or both below the normal floats."""
    return abs(got - want) <= bound * want + np.finfo(np.float64).tiny


def _scipy_merged_chisquare(counts, expected):
    starts = _merged_cell_starts(expected)
    chi = stats.chisquare(np.add.reduceat(counts, starts), np.add.reduceat(expected, starts))
    return float(chi.statistic), float(chi.pvalue)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 400), st.floats(1e-3, 1.0)), min_size=2, max_size=30),
       st.sampled_from([1.0, 1.0 + 1e-9, 1.0 + 1e-6, 0.97]))
def test_merged_chisquare_statistic_equals_scipy_and_tail_is_near(cells, scale):
    counts = np.array([n for n, _ in cells])
    weights = np.array([w for _, w in cells])
    expected = weights / weights.sum() * counts.sum() * scale
    starts = _merged_cell_starts(expected)
    assume(len(starts) >= 2)
    try:
        statistic, p_value = _scipy_merged_chisquare(counts, expected)
    except ValueError:
        with pytest.raises(ValueError, match="relative tolerance"):
            _merged_chisquare(counts, expected)
    else:
        got = _merged_chisquare(counts, expected)
        assert got[0] == statistic
        if statistic > 0.0:
            assert tail_near(got[1], p_value, tail_bound(len(starts) - 1, statistic, SCIPY_C))
        else:
            assert got[1] == p_value == 1.0


def _tail_grid(dof):
    """Statistics from near 0 to where the tail underflows."""
    return np.concatenate([np.geomspace(1e-6, 1.0, 25),
                           np.linspace(1.0, dof + 1500.0, 400)])


@pytest.mark.parametrize("dofs", [range(1, 33), range(33, 128)], ids=["1-32", "33-127"])
def test_chi_square_tail_near_scipy_over_the_documents_range(dofs):
    # a document tests at most --zones - 1 or --bins - 1 degrees of freedom:
    # 3 and 63 by default, 127 at 128 bins; thousands are checked further down
    for dof in dofs:
        xs = _tail_grid(dof)
        oracle = special.chdtrc(dof, xs)
        misses = [x for x, q in zip(xs.tolist(), oracle.tolist())
                  if not tail_near(_chi_square_tail(dof, x), q, tail_bound(dof, x, SCIPY_C))]
        assert not misses, (dof, misses)


@pytest.mark.parametrize("dof, closed", [(1, lambda x: math.erfc(math.sqrt(x / 2.0))),
                                         (2, lambda x: math.exp(-x / 2.0))], ids=["1", "2"])
def test_chi_square_tail_equals_its_closed_forms(dof, closed):
    for x in _tail_grid(dof).tolist():
        assert tail_near(_chi_square_tail(dof, x), closed(x), tail_bound(dof, x, EXACT_C)), x
    assert _chi_square_tail(dof, 0.0) == 1.0


@pytest.mark.parametrize("dof", [2000, 2001, 4000, 4095, 8000])
def test_chi_square_tail_survives_past_exp_underflow(dof):
    # e^(-x/2) underflows past x/2 = 745, where a tail written as
    # e^(-x/2) sum (x/2)^i / i! would read 0
    xs = np.linspace(1491.0, dof + 40.0 * math.sqrt(2.0 * dof), 200)
    oracle = special.chdtrc(dof, xs)
    assert math.exp(-xs[0] / 2.0) == 0.0
    for x, q in zip(xs.tolist(), oracle.tolist()):
        assert tail_near(_chi_square_tail(dof, x), q, tail_bound(dof, x, SCIPY_C)), x


@pytest.mark.parametrize("statistic", [math.inf, math.nan])
def test_chi_square_tail_of_a_non_finite_statistic_is_nan(statistic):
    # a NaN p_value fails its gate (1 - p <= tolerance is false): exit 1
    assert math.isnan(_chi_square_tail(3, statistic))


def test_collapse_over_thousands_of_zones_keeps_its_p_value(tmp_path):
    # 1476 merged cells whose statistic's half, 759, is past exp's underflow;
    # chi_square and p_value as the scipy tail (scipy 1.17.1) gave them
    code, doc = invoke(["collapse", "--points=4096", "--zones=4096", "--shots=100000",
                        "--seed=0"], tmp_path)
    assert code == 0
    results = json.loads(doc)["results"]
    assert results["chi_square"] == 1518.9178043607621
    assert results["chi_square"] / 2.0 > 745.0
    assert tail_near(results["p_value"], 0.20812387300723917,
                     tail_bound(1475, results["chi_square"], SCIPY_C))


def test_merged_chisquare_rejects_unequal_sums():
    counts, expected = np.array([10, 10, 10]), np.array([10.0, 10.0, 10.001])
    with pytest.raises(ValueError):
        _scipy_merged_chisquare(counts, expected)
    with pytest.raises(ValueError, match="relative tolerance"):
        _merged_chisquare(counts, expected)


def test_to_json_writes_arrays_and_subclasses_as_plain_values():
    class Text(str):
        def __str__(self):
            return "not the value"

    class Mapping(dict):
        pass

    class Items(list):
        pass

    assert to_json(np.array([[1, 2], [3, 4]])) == "[[1, 2], [3, 4]]"
    assert to_json(np.array([0.5, 1.0])) == "[0.5, 1.0]"
    assert to_json(Text("x")) == '"x"'
    assert to_json(Items([1, Text("x")])) == '[1, "x"]'
    assert to_json(Mapping(a=Items([1]))) == to_json({"a": [1]})
