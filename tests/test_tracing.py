"""The benchmark's tracer, bench/tracing.py, against the names it patches.

The tracer wraps shadowsim functions by name from outside the package, so a
rename or a deletion in the package breaks it only when the benchmark runs.
Here one request of each kind runs under it, and each must exit 0 and record
spans in the layer it reaches.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("shadowsim_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# teleport and swap read their tables from constants, so the tracer sees them
# reach only the register calls protocols makes (from_amplitudes, tensor, fidelity)
@pytest.mark.parametrize("argv, layer", [
    (["teleport", "--shots", "20", "--resource", "psi-plus"], "register"),
    (["swap", "--shots", "40"], "register"),
    (["readout", "--shots", "50"], "protocols"),
    (["algebra", "--modes", "2", "--nmax", "2"], "fock"),
    (["collapse", "--shots", "200", "--points", "64"], "waves"),
    (["evolve", "--points", "64", "--steps", "5"], "waves"),
    (["doubleslit", "--shots", "200"], "waves"),
    (["erratum"], "errata"),
    (["product", "--shots", "20"], "protocols"),
])
def test_request_runs_under_the_tracer(argv, layer, capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer) as run:
        assert run(argv) == 0
    assert capsys.readouterr().out.startswith("{")
    layers = {tracer.names[k][0] for k in tracer.kind}
    assert {"cli", layer} <= layers
    assert tracer.layer_metrics()["cli.serialize_s"] > 0.0


def test_fock_state_builds_are_counted():
    # the tracer counts DualFockState.__post_init__, so every build path must
    # reach it: the dict constructor, vacuum, ladder results, normalized copies
    from shadowsim import fock

    tracing = load_tracing()
    tracer = tracing.Tracer()
    grid = fock.ModeGrid((0.0, 1.0), 2)
    with tracing.instrument(tracer):
        state = fock.vacuum(grid)                           # 1
        fock.apply_b_dagger(state, 0)                       # 1
        fock.apply_b_dagger(state, 1, normalize=True)       # 2: raw and normalized
        fock.DualFockState(grid, {(1, 0): 1j}, {(1, 0): 1j})  # 1
        fock.position_create(grid, 0.5, 0.0)                # 1
    assert tracer.layer_metrics()["fock.states_built"] == 6
