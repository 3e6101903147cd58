"""Spans around the calls into each layer of shadowsim, recorded from outside.

`instrument()` replaces, for the length of a `with` block, each public
function of a layer in the namespace where its caller looks it up (for
example `shadowsim.cli.run_teleportation`, `shadowsim.protocols.bell_measure`
and `shadowsim.fock.annihilation_matrix`), the `__post_init__` validators of
`DualRegister`, `DualFockState` and `WaveGrid`, and the LU factorisation and
FFT entry points that `shadowsim.waves` reaches through its `spla` and `np`
names.  No file of the program changes.

A span holds a name, its layer, start, end, the span that was open when it
began, and the request id.  Spans are kept in memory and written out once, at
the end.  A layer's self time is the time its spans cover minus the time
covered by their child spans.
"""

from __future__ import annotations

import statistics
import time
import types
from array import array
from collections import defaultdict
from contextlib import contextmanager

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("cli.requests", "count"), ("cli.self_s", "s"), ("cli.serialize_s", "s"),
    ("cli.bytes_out", "B"), ("cli.stat_alarms", "count"),
    ("protocols.calls", "count"), ("protocols.self_s", "s"),
    ("protocols.shots", "count"), ("protocols.tables_built", "count"),
    ("measurement.calls", "count"), ("measurement.self_s", "s"),
    ("measurement.call_p50_us", "us"), ("measurement.distinct_ratio", "1"),
    ("register.states_built", "count"), ("register.validate_s", "s"),
    ("register.apply_unitary_calls", "count"), ("register.self_s", "s"),
    ("fock.residual_calls", "count"), ("fock.residual_s", "s"),
    ("fock.matrix_builds", "count"), ("fock.matrix_build_s", "s"),
    ("fock.max_dim", "count"), ("fock.nnz_fraction", "1"),
    ("fock.dense_bytes", "B"), ("fock.states_built", "count"),
    ("waves.grids_built", "count"), ("waves.validate_s", "s"),
    ("waves.lu_factorizations", "count"), ("waves.cn_steps", "count"),
    ("waves.cn_step_us", "us"), ("waves.fft_calls", "count"),
    ("waves.fft_s", "s"), ("waves.collapse_calls", "count"),
    ("waves.collapse_s", "s"),
    ("errata.reports", "count"), ("errata.self_s", "s"),
    ("trace.req_per_s_off", "1/s"), ("trace.req_per_s_on", "1/s"),
    ("trace.overhead_pct", "%"),
)

PROTOCOL_RUNS = ("run_teleportation", "run_entanglement_swap")
PROTOCOL_DEMOS = ("entangled_readout_demo", "product_state_demo")
PROTOCOL_TABLES = ("derive_correction_table", "swap_outcome_map")
MEASUREMENTS = ("bell_measure", "projective_measure")
FOCK_RESIDUALS = ("commutator_residual", "anticommutator_residual")
FOCK_BUILDERS = ("annihilation_matrix", "creation_matrix", "guarded_sector_projector")
EVOLVE_SETUP = ("_hamiltonian", "splu", "WaveGrid.__post_init__")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Span recorder.  Parallel arrays keep a few hundred thousand spans small."""

    def __init__(self):
        self.names = []           # span name id -> (layer, name)
        self._ids = {}
        self.kind = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.request_id = -1
        self.shots = 0
        self.cn_steps = 0
        self.measure_keys = set()
        self.matrices = []        # (dim, nnz, size, nbytes, seconds) of top-level builds

    def _name_id(self, layer, name):
        key = (layer, name)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def wrap(self, layer, name, fn, on_return=None):
        """fn wrapped in a span; on_return(args, kwargs, result, span) runs
        after the span has closed."""
        kid = self._name_id(layer, name)
        clock = time.perf_counter
        stack, kind, parent, request = self.stack, self.kind, self.parent, self.request
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            i = len(kind)
            kind.append(kid)
            parent.append(stack[-1])
            request.append(self.request_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, out, i)
            return out

        return traced

    # -- callbacks that count work the span list alone does not show -------

    def _count_shots(self, args, kwargs, out, i):
        self.shots += 1

    def _count_demo_shots(self, args, kwargs, out, i):
        self.shots += int(_arg(args, kwargs, 0, "shots"))

    def _bell_key(self, args, kwargs, out, i):
        state, pair = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 1, "pair")
        self.measure_keys.add(hash((state.primary.tobytes(), tuple(pair), out.outcome.value)))

    def _projective_key(self, args, kwargs, out, i):
        state, qubit = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 1, "qubit")
        basis = args[2] if len(args) > 2 else kwargs.get("basis")
        basis = b"" if basis is None else basis.tobytes()
        self.measure_keys.add(hash((state.primary.tobytes(), qubit, basis, out.outcome)))

    def _matrix_built(self, args, kwargs, out, i):
        p = self.parent[i]
        if p >= 0 and self.names[self.kind[p]][1] in FOCK_BUILDERS:
            return  # creation_matrix's inner annihilation_matrix: counted once
        self.matrices.append((out.shape[0], int((out != 0).sum()), out.size, out.nbytes,
                              self.end[i] - self.start[i]))

    def _count_steps(self, args, kwargs, out, i):
        self.cn_steps += int(_arg(args, kwargs, 3, "steps"))

    # -- write-out and derived metrics ------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("span,name,layer,start_s,end_s,parent,request\n")
            names, t0 = self.names, (self.start[0] if len(self.start) else 0.0)
            for i in range(len(self.kind)):
                layer, name = names[self.kind[i]]
                fh.write(f"{i},{name},{layer},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{self.request[i]}\n")

    def layer_metrics(self):
        n = len(self.kind)
        layer = [self.names[k][0] for k in self.kind]
        name = [self.names[k][1] for k in self.kind]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n          # time covered by each span's children
        evolve_setup = [0.0] * n   # time of evolve's non-step children
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
                if name[p] == "evolve" and name[i] in EVOLVE_SETUP:
                    evolve_setup[p] += dur[i]
        self_s, calls = defaultdict(float), defaultdict(int)
        count, total = defaultdict(int), defaultdict(float)
        measure, step_s = [], 0.0
        for i in range(n):
            self_s[layer[i]] += dur[i] - child[i]
            calls[layer[i]] += 1
            count[name[i]] += 1
            total[name[i]] += dur[i]
            if name[i] in MEASUREMENTS:
                measure.append(dur[i])
            elif name[i] == "evolve":
                step_s += dur[i] - evolve_setup[i]
        size = sum(m[2] for m in self.matrices)
        return {
            "cli.self_s": self_s["cli"],
            "cli.serialize_s": total["to_json"] + total["to_csv"],
            "protocols.calls": calls["protocols"],
            "protocols.self_s": self_s["protocols"],
            "protocols.shots": self.shots,
            "protocols.tables_built": sum(count[f] for f in PROTOCOL_TABLES),
            "measurement.calls": calls["measurement"],
            "measurement.self_s": self_s["measurement"],
            "measurement.call_p50_us": 1e6 * statistics.median(measure) if measure else 0.0,
            "measurement.distinct_ratio": len(self.measure_keys) / len(measure) if measure else 0.0,
            "register.states_built": count["DualRegister.__post_init__"],
            "register.validate_s": total["DualRegister.__post_init__"],
            "register.apply_unitary_calls": count["apply_unitary"],
            "register.self_s": self_s["register"],
            "fock.residual_calls": sum(count[f] for f in FOCK_RESIDUALS),
            "fock.residual_s": sum(total[f] for f in FOCK_RESIDUALS),
            "fock.matrix_builds": len(self.matrices),
            "fock.matrix_build_s": sum(m[4] for m in self.matrices),
            "fock.max_dim": max((m[0] for m in self.matrices), default=0),
            "fock.nnz_fraction": sum(m[1] for m in self.matrices) / size if size else 0.0,
            "fock.dense_bytes": sum(m[3] for m in self.matrices),
            "fock.states_built": count["DualFockState.__post_init__"],
            "waves.grids_built": count["WaveGrid.__post_init__"],
            "waves.validate_s": total["WaveGrid.__post_init__"],
            "waves.lu_factorizations": count["splu"],
            "waves.cn_steps": self.cn_steps,
            "waves.cn_step_us": 1e6 * step_s / self.cn_steps if self.cn_steps else 0.0,
            "waves.fft_calls": count["fft"] + count["ifft"],
            "waves.fft_s": total["fft"] + total["ifft"],
            "waves.collapse_calls": count["collapse_detect"],
            "waves.collapse_s": total["collapse_detect"],
            "errata.reports": count["build_erratum_report"],
            "errata.self_s": self_s["errata"],
        }


def _module_copy(module, **overrides):
    """A module object with module's names, some replaced; name lookups on it
    cost what they cost on the original."""
    copy = types.ModuleType(module.__name__)
    copy.__dict__.update(module.__dict__)
    copy.__dict__.update(overrides)
    return copy


@contextmanager
def instrument(tracer):
    """Install the spans; yields the traced `shadowsim.cli.run`."""
    from shadowsim import cli, errata, fock, protocols, register, waves

    t = tracer
    patches = []  # (owner, attribute, replacement)

    def at(owner, attr, layer, name=None, on_return=None):
        fn = getattr(owner, attr)
        patches.append((owner, attr, t.wrap(layer, name or attr, fn, on_return)))

    # cli's own serialisation (to_json recurses through the same global)
    at(cli, "to_csv", "cli")
    json_fn = cli.to_json
    json_span = t.wrap("cli", "to_json", json_fn)

    def to_json(obj, indent=0):
        return json_fn(obj, indent) if indent else json_span(obj, indent)
    patches.append((cli, "to_json", to_json))

    # cli -> protocols, errata
    for f in PROTOCOL_RUNS:
        at(cli, f, "protocols", on_return=t._count_shots)
    for f in PROTOCOL_DEMOS:
        at(cli, f, "protocols", on_return=t._count_demo_shots)
    for f in PROTOCOL_TABLES:
        at(cli, f, "protocols")
    at(cli, "build_erratum_report", "errata")
    # errata -> protocols, fock, waves
    for f in ("teleport_decomposition", "swap_decomposition"):
        at(errata, f, "protocols")
    at(errata, "single_mode_lowering", "fock")
    for f in ("gaussian_packet", "zone_coefficients", "zone_profile"):
        at(errata, f, "waves")
    # protocols -> measurement, register
    at(protocols, "bell_measure", "measurement", on_return=t._bell_key)
    at(protocols, "projective_measure", "measurement", on_return=t._projective_key)
    for f in ("apply_unitary", "bell_pair", "fidelity", "from_amplitudes", "tensor"):
        at(protocols, f, "register")
    # cli -> fock and fock's own lookups (cli calls through the module)
    for f in FOCK_RESIDUALS:
        at(fock, f, "fock")
    for f in FOCK_BUILDERS:
        at(fock, f, "fock", on_return=t._matrix_built)
    # cli -> waves and waves' own lookups
    for f in ("gaussian_packet", "zone_coefficients", "collapse_detect",
              "double_slit_accumulate", "free_propagate", "_hamiltonian"):
        at(waves, f, "waves")
    at(waves, "evolve", "waves", on_return=t._count_steps)
    np_ = waves.np
    fft = _module_copy(np_.fft, fft=t.wrap("waves", "fft", np_.fft.fft),
                       ifft=t.wrap("waves", "ifft", np_.fft.ifft))
    patches.append((waves, "np", _module_copy(np_, fft=fft)))
    patches.append((waves, "spla", _module_copy(
        waves.spla, splu=t.wrap("waves", "splu", waves.spla.splu))))
    # the three validators
    for cls, layer in ((register.DualRegister, "register"),
                       (fock.DualFockState, "fock"), (waves.WaveGrid, "waves")):
        at(cls, "__post_init__", layer, f"{cls.__name__}.__post_init__")

    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield t.wrap("cli", "run", cli.run)
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
