"""Command-line entry point.

Every demonstration and consistency check is a subcommand with an explicit
seed; identical configurations produce byte-identical output documents.  The
JSON document always carries the keys {config, results, invariants, errata};
invariants map a check name to its boolean and measured residual.  Exit codes:
0 success, 1 invariant violation, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import dataclass
# what json.dumps does with a str, without its dispatch
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import fock, waves
from .errata import build_erratum_report
from .measurement import sample_outcome
from .protocols import (
    SWAP_OUTCOME_MAP,
    entangled_readout_demo,
    product_state_demo,
    swap_shots,
    teleportation_shots,
)
# not called here since the walker and the literal tables replaced them;
# bench/tracing.py wraps them
from .protocols import derive_correction_table, swap_outcome_map  # noqa: F401
from .protocols import run_entanglement_swap, run_teleportation  # noqa: F401
from .register import TOLERANCES, BellKind, InvariantViolation, mirror_residuals

RESOURCE_NAMES = {k.value: k for k in BellKind}


# ---------------------------------------------------------------------------
# deterministic serialization


@dataclass(frozen=True)
class ShotRows:
    """A shot table: one row dict per outcome path and each shot's path index.

    Iterating yields one numbered row per shot, `{"shot": s, **rows[i]}`;
    `to_json` and `to_csv` write the same text but format each path's row once.
    """

    rows: list
    index: list

    def __iter__(self):
        return ({"shot": s, **self.rows[i]} for s, i in enumerate(self.index))


def _format_float(x):
    if x != x:
        raise ValueError("cannot serialize NaN")
    s = format(float(x), ".17g")
    return s + ".0" if s.lstrip("-").isdigit() else s


def to_json(obj, indent=0):
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit
    floats, complex numbers as [re, im] pairs. One pass appends every part
    of the text to one list."""
    out = []
    _write(obj, indent, out)
    return "".join(out)


def _write(obj, indent, out):
    """Append the JSON text of obj, nested `indent` levels deep, to out. Exact
    types are tested first, the most frequent first; any other value is
    written as the plain value _plain makes of it."""
    t = type(obj)
    if t is float:
        out.append(_format_float(obj))
    elif t is dict:
        inner = "\n" + "  " * (indent + 1)
        sep = "{" + inner
        for k, v in obj.items():
            out.append(sep + _json_str(f"{k}") + ": ")
            _write(v, indent + 1, out)
            sep = "," + inner
        out.append("\n" + "  " * indent + "}" if obj else "{}")
    elif t is list or t is tuple:
        sep = "["
        for v in obj:
            out.append(sep)
            _write(v, indent + 1, out)
            sep = ", "
        out.append("]" if obj else "[]")
    elif t is str:
        out.append(_json_str(obj))
    elif t is bool:
        out.append("true" if obj else "false")
    elif t is int:
        out.append(str(obj))
    elif t is ShotRows:
        # each path's row text once; per shot only the opening and its number
        n = len(obj.index)
        head = ", {\n" + "  " * (indent + 2) + '"shot": '
        tails = ["," + to_json(row, indent + 1)[1:] if row else "\n" + "  " * (indent + 1) + "}"
                 for row in obj.rows]
        parts = [head] * (3 * n)
        parts[1::3] = map(str, range(n))
        parts[2::3] = [tails[i] for i in obj.index]
        out += ["[", "".join(parts)[2:], "]"]
    elif obj is None:
        out.append("null")
    else:
        _write(_plain(obj), indent, out)


def _plain(obj):
    """The value of an exact JSON type that obj is written as: a subclass of a
    JSON type, a numpy scalar or array, or a complex number as [re, im]. The
    isinstance checks run in the order the types nest: bool before int,
    complex before float."""
    if isinstance(obj, dict):
        return dict(obj)
    if isinstance(obj, (list, tuple)):
        return list(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, str):
        return str.__str__(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_cell(v):
    if isinstance(v, (float, np.floating)):
        return _format_float(v)
    if isinstance(v, (complex, np.complexfloating)):
        return f"{_format_float(v.real)}+{_format_float(v.imag)}i"
    return str(v)


def to_csv(fieldnames, rows):
    lines = [",".join(fieldnames)]
    if isinstance(rows, ShotRows):
        # "shot" is the first column; each path's other cells are formatted once
        tails = ["".join("," + _csv_cell(row[name]) for name in fieldnames[1:])
                 for row in rows.rows]
        lines.extend(str(s) + tails[i] for s, i in enumerate(rows.index))
    else:
        lines.extend(",".join(_csv_cell(row[name]) for name in fieldnames) for row in rows)
    return "\n".join(lines) + "\n"


def _invariant(residual, tol):
    return {"ok": bool(residual <= tol), "residual": float(residual), "tolerance": tol}


# the imaginary unit "i": the last letter, maybe before a closing parenthesis;
# the "i" of "inf" and "infinity" is not a unit
_IMAGINARY_UNIT = re.compile(r"i(?=\s*\)?\s*$)")


def _parse_complex(text):
    try:
        return complex(_IMAGINARY_UNIT.sub("j", text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


# ---------------------------------------------------------------------------
# subcommands: each returns (results, invariants, errata, rows); the first row's
# keys are the CSV columns


def _cmd_teleport(args, rng):
    resource = RESOURCE_NAMES[args.resource]
    paths, index = teleportation_shots(args.alpha, args.beta, resource, args.shots, rng)
    shots = ShotRows([{"outcome": r.outcome.value, "probability": r.probability,
                       "fidelity": r.fidelity_with_input} for r in paths], index.tolist())
    worst_fid = min([1.0] + [r.fidelity_with_input for r in paths])
    worst_dev = max([0.0] + [r.shadow_deviation for r in paths])
    results = {"shots": shots, "min_fidelity": worst_fid}
    invariants = {
        "teleportation_fidelity": _invariant(1.0 - worst_fid, 1e-10),
        "mirror": _invariant(worst_dev, TOLERANCES["register"]["mirror"]),
    }
    return results, invariants, [], shots


def _cmd_swap(args, rng):
    paths, index = swap_shots(args.shots, rng)
    shots = ShotRows([{"outcome": r.outcome.value,
                       "remote_kind": r.predicted_remote_kind.value,
                       "fidelity": r.fidelity_with_prediction} for r in paths], index.tolist())
    counts = {k.value: 0 for k in BellKind}
    for r, n in zip(paths, np.bincount(index).tolist()):
        counts[r.outcome.value] = n
    worst_fid = min([1.0] + [r.fidelity_with_prediction for r in paths])
    worst_dev = max([0.0] + [r.shadow_deviation for r in paths])
    freq_dev = max(abs(counts[k.value] / args.shots - 0.25) for k in BellKind)
    sigma = np.sqrt(0.25 * 0.75 / args.shots)
    results = {
        "shots": shots,
        "outcome_counts": counts,
        "outcome_map": {k.value: v.value for k, v in SWAP_OUTCOME_MAP.items()},
        "min_fidelity": worst_fid,
    }
    invariants = {
        "swap_fidelity": _invariant(1.0 - worst_fid, 1e-10),
        "outcome_frequencies": _invariant(freq_dev, 3.0 * sigma),
        "mirror": _invariant(worst_dev, TOLERANCES["register"]["mirror"]),
    }
    return results, invariants, [], shots


def _cmd_bell(args, rng):
    kinds = list(BellKind)
    vecs = np.array([k.amplitudes() for k in kinds])
    gram = vecs.conj() @ vecs.T
    gram_residual = float(np.max(np.abs(gram - np.eye(4))))
    rows = []
    for k in kinds:
        for i, a in enumerate(k.amplitudes()):
            rows.append({"kind": k.value, "basis_index": i,
                         "re": a.real, "im": a.imag})
    results = {
        "states": {k.value: list(k.amplitudes()) for k in kinds},
        "gram_residual": gram_residual,
    }
    invariants = {"orthonormal_basis": _invariant(gram_residual, 1e-12)}
    return results, invariants, [], rows


def _cmd_readout(args, rng):
    stats_r = entangled_readout_demo(args.shots, rng)
    counts = {f"{a}{b}": stats_r.counts.get((a, b), 0) for a in (0, 1) for b in (0, 1)}
    results = {
        "shots": stats_r.shots,
        "outcome_counts": counts,
        "correlation": stats_r.correlation,
        "marginal0_up_fraction": stats_r.marginal0_up_fraction,
        "min_remote_fidelity": stats_r.min_remote_fidelity,
    }
    invariants = {
        "perfect_correlation": _invariant(abs(stats_r.correlation - 1.0), 0.0),
        "remote_via_shadow": _invariant(1.0 - stats_r.min_remote_fidelity, 1e-10),
    }
    rows = [{"pattern": k, "count": v} for k, v in sorted(counts.items())]
    return results, invariants, [], rows


def _cmd_product(args, rng):
    st = product_state_demo(args.shots, rng)
    bound = 4.0 / np.sqrt(args.shots)
    results = {
        "shots": st.shots,
        "tvd_z": st.tvd_z,
        "tvd_x": st.tvd_x,
        "measured_z_up_fraction": st.measured_z_up_fraction,
        "control_z_up_fraction": st.control_z_up_fraction,
        "measured_x_plus_fraction": st.measured_x_plus_fraction,
        "control_x_plus_fraction": st.control_x_plus_fraction,
        "min_remote_fidelity": st.min_remote_fidelity,
    }
    invariants = {
        "no_signalling_z": _invariant(st.tvd_z, bound),
        "no_signalling_x": _invariant(st.tvd_x, bound),
        "remote_unchanged": _invariant(1.0 - st.min_remote_fidelity, 1e-10),
    }
    rows = [{"basis": "z", "tvd": st.tvd_z}, {"basis": "x", "tvd": st.tvd_x}]
    return results, invariants, [], rows


def _cmd_algebra(args, rng):
    nmax = 1 if args.statistics == "fermion" else args.nmax
    grid = fock.ModeGrid(tuple(range(args.modes)), nmax, args.statistics)
    rows = [{"i": i, "j": j, "pair": pair, "residual": r}
            for i, j, pair, r in fock.bracket_residuals(grid)]
    worst = max(row["residual"] for row in rows)
    results = {
        "statistics": args.statistics,
        "modes": args.modes,
        "max_occupation": grid.max_occupation,
        "residuals": rows,
        "max_residual": worst,
    }
    # round-off bound.  Fermion factors are +-1 and the two products of every
    # other pair multiply the same two factors, so only the boson b_i b_i^dag
    # - b_i^dag b_i - I rounds.  Its entry at occupation n < nmax is
    # fl(s(n+1)^2) - fl(s(n)^2) - 1 with s(k) = fl(sqrt(k)); each square is
    # k(1 + d), |d| <= 3.01u (u = eps/2), and both subtractions are exact
    # (Sterbenz), so |entry| <= 3.01u(2n + 1) < 4(nmax + 1)eps.  Both products
    # move column c to one row c + shift, so the residual is the largest |entry|.
    # The bound passes 1e-12 from nmax 1125 on; below it the tolerance is 1e-12
    tol = max(1e-12, 4 * (grid.max_occupation + 1) * sys.float_info.epsilon)
    invariants = {"algebra_residuals": _invariant(worst, tol)}
    return results, invariants, [], rows


def _cmd_evolve(args, rng):
    grid = waves.gaussian_packet(args.xmin, args.xmax, args.points,
                                 x0=args.x0, sigma=args.sigma, k0=args.k0)
    if args.potential == "harmonic":
        v = waves.Potential.harmonic(grid)
    else:
        v = waves.Potential.zero(grid)
    out = waves.evolve(grid, v, args.dt, args.steps)
    x = out.x
    dens = np.abs(out.psi_primary) ** 2 * out.dx
    mean = float(np.sum(x * dens))
    width = float(np.sqrt(np.sum((x - mean) ** 2 * dens)))
    norm_drift = abs(1.0 - out.norm())
    results = {
        "t_final": out.t,
        "norm": out.norm(),
        "mean_position": mean,
        "width": width,
    }
    invariants = {
        "norm_drift": _invariant(norm_drift, 1e-8),
        "mirror": _invariant(out.mirror_deviation(), TOLERANCES["waves"]["mirror"]),
    }
    if args.potential == "free" and args.k0 == 0.0:
        t = args.dt * args.steps
        sigma_t = args.sigma * np.sqrt(1.0 + (t / (2.0 * args.sigma ** 2)) ** 2)
        results["analytic_width"] = float(sigma_t)
        invariants["width_match"] = _invariant(abs(width - sigma_t) / sigma_t, 0.01)
    rows = [{"quantity": k, "value": float(v)} for k, v in results.items()]
    return results, invariants, [], rows


def _merged_cell_starts(expected):
    """First index of each cell left after merging neighbouring cells, left to
    right, until each expects at least 5 counts, as the chi-square test needs;
    a short remainder joins the last merged cell."""
    starts, acc = [0], 0.0
    for i, e in enumerate(expected):
        acc += e
        if acc >= 5.0:
            starts.append(i + 1)
            acc = 0.0
    if len(starts) > 1:
        starts.pop()
    return starts


def _chi_square_tail(dof, statistic):
    """P(chi^2_dof > statistic): the regularized upper incomplete gamma
    Q(a, z) with a = dof/2, z = statistic/2.

    Below z = a + 1 the power series of P = 1 - Q, beyond it Lentz's continued
    fraction of Q, both under the prefactor exp(a ln z - z - lgamma(a)), which
    underflows only where Q itself does.  Below z = a + 1, Q > 0.08, so the
    difference 1 - P loses at most a factor 11 of relative accuracy."""
    a, z = 0.5 * dof, 0.5 * statistic
    if z == 0.0:
        return 1.0
    front = math.exp(a * math.log(z) - z - math.lgamma(a))
    if z < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * sys.float_info.epsilon:
            n += 1.0
            term *= z / n
            total += term
        return 1.0 - front * total
    # z >= a + 1 keeps each denominator above half its b >= 4: no zero guard
    b = z + 1.0 - a
    c, d = math.inf, 1.0 / b
    h, i = d, 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        # written so that a NaN, which an infinite statistic brings, stops too
        if not abs(delta - 1.0) >= sys.float_info.epsilon:
            return front * h


def _merged_chisquare(counts, expected):
    """(chi_square, p_value) of counts against expected over merged cells;
    (0, 1) when one cell is left: its count equals its expectation, no test.

    Pearson's statistic, with the sum check and the float64 arithmetic of
    scipy.stats.chisquare, and its chi-square tail from `_chi_square_tail`,
    which needs no scipy: it agrees with scipy's chdtrc to round-off, not to
    the bit."""
    starts = _merged_cell_starts(expected)
    if len(starts) < 2:
        return 0.0, 1.0
    observed = np.add.reduceat(counts, starts).astype(np.float64)
    expected = np.add.reduceat(expected, starts).astype(np.float64)
    o_sum, e_sum = np.sum(observed), np.sum(expected)
    rtol = np.finfo(np.float64).eps ** 0.5
    if abs(o_sum - e_sum) > rtol * min(o_sum, e_sum):
        raise ValueError(f"observed and expected counts sum to {o_sum} and {e_sum}, "
                         f"not equal to a relative tolerance of {rtol}")
    statistic = float(np.sum((observed - expected) ** 2 / expected))
    return statistic, _chi_square_tail(len(starts) - 1, statistic)


def _cmd_collapse(args, rng):
    grid = waves.gaussian_packet(-8.0, 8.0, args.points, sigma=1.0)
    partition = waves.ZonePartition.equal_zones(args.points, args.zones)
    probs = np.abs(waves.zone_coefficients(grid, partition)) ** 2
    weights = probs / probs.sum()
    zones = sample_outcome(rng.random(args.shots), weights)
    counts = np.bincount(zones, minlength=args.zones)
    confined = waves.confine(grid, partition, np.flatnonzero(counts))
    statistic, p_value = _merged_chisquare(counts, weights * args.shots)
    results = {
        "zone_probabilities": [float(p) for p in probs],
        "zone_counts": [int(n) for n in counts],
        "chi_square": statistic,
        "p_value": p_value,
    }
    invariants = {
        "collapse_statistics": _invariant(1.0 - p_value, 1.0 - 0.001),
        "mirror": _invariant(mirror_residuals(confined), TOLERANCES["waves"]["mirror"]),
    }
    rows = [{"zone": i, "probability": float(probs[i]), "count": int(counts[i])}
            for i in range(args.zones)]
    return results, invariants, [], rows


def _cmd_doubleslit(args, rng):
    geometry = waves.SlitGeometry(args.separation, args.width, args.distance)
    slits = "left" if args.single_slit else "both"
    res = waves.double_slit_accumulate(
        geometry, args.shots, args.bins, rng, wavelength=args.wavelength, slits=slits
    )
    results = {
        "slits": slits,
        "fringe_spacing": res.fringe_spacing,
        "visibility": res.visibility,
        "bin_edges": [float(e) for e in res.bin_edges],
        "counts": [int(n) for n in res.counts],
        "expected": [float(e) for e in res.expected],
    }
    invariants = {}
    if slits == "both":
        results["p_value"] = _merged_chisquare(res.counts, res.expected)[1]
        invariants["fringe_statistics"] = _invariant(1.0 - results["p_value"], 1.0 - 0.001)
    else:
        invariants["no_fringes"] = _invariant(res.visibility, 0.05)
    rows = [{"bin": i, "left_edge": float(res.bin_edges[i]),
             "count": int(res.counts[i]), "expected": float(res.expected[i])}
            for i in range(args.bins)]
    return results, invariants, [], rows


def _cmd_erratum(args, rng):
    report = build_erratum_report()
    reassembly = max(
        f.get("reassembly_residual", 0.0) for f in report["findings"]
    )
    invariants = {"branch_completeness": _invariant(reassembly, 1e-12)}
    rows = [{"id": f["id"], "residual": f["residual"], "verdict": f["verdict"]}
            for f in report["findings"]]
    return {"finding_count": report["finding_count"],
            "erratum_count": report["erratum_count"]}, \
        invariants, report["findings"], rows


# ---------------------------------------------------------------------------
# argument parsing and dispatch


# a negative decimal number, in exponent notation too, or -inf, -infinity, -nan
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes "--x0 -1e-3" and "--xmin -inf" as option
    values, and reports a usage error in one line.  argparse's own
    negative-number pattern (as in Python 3.11) has no exponent and no inf,
    so it reads such a value as an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


# name -> (handler, help text, default --shots, draws from the seeded
# generator); the ones that do not draw never build it, so they do not load
# numpy.random.  The order is the order of `shadowsim --help`.
SUBCOMMANDS = {
    "teleport": (_cmd_teleport, "teleportation round trips", 100, True),
    "swap": (_cmd_swap, "entanglement swapping rounds", 1000, True),
    "bell": (_cmd_bell, "Bell basis states and orthonormality", 1, False),
    "readout": (_cmd_readout, "entangled readout correlation", 10000, True),
    "product": (_cmd_product, "product-state no-signalling check", 10000, True),
    "algebra": (_cmd_algebra, "ladder operator algebra residuals", 1, False),
    "evolve": (_cmd_evolve, "Schroedinger evolution of a packet", 1, False),
    "collapse": (_cmd_collapse, "zone-partition collapse statistics", 10000, True),
    "doubleslit": (_cmd_doubleslit, "single-detection fringe build-up", 10000, True),
    "erratum": (_cmd_erratum, "printed identities vs oracle expansion", 1, False),
}


# each subcommand's options after the four that all take (see _table), one
# (dest, type, default, choices) row each in `--help` order; the option is
# "--" and the dest with "-" for "_", and type bool marks a bare flag
OPTIONS = {
    "teleport": (("alpha", _parse_complex, complex(0.6), None),
                 ("beta", _parse_complex, 0.8j, None),
                 ("resource", str, BellKind.PHI_MINUS.value, sorted(RESOURCE_NAMES))),
    "algebra": (("modes", int, 3, None), ("nmax", int, 4, None),
                ("statistics", str, "boson", ["boson", "fermion"])),
    "evolve": (("points", int, 1024, None), ("xmin", float, -20.0, None),
               ("xmax", float, 20.0, None), ("sigma", float, 1.0, None),
               ("x0", float, 0.0, None), ("k0", float, 0.0, None),
               ("dt", float, 0.002, None), ("steps", int, 500, None),
               ("potential", str, "free", ["free", "harmonic"])),
    "collapse": (("points", int, 512, None), ("zones", int, 4, None)),
    "doubleslit": (("separation", float, 5.0, None), ("width", float, 0.1, None),
                   ("distance", float, 100.0, None), ("wavelength", float, 0.05, None),
                   ("bins", int, 64, None), ("single_slit", bool, False, None)),
}


@functools.cache
def _table(name):
    """A subcommand's option rows by long option, and its namespace at the
    defaults, as parse_args([name]) makes it.  The rows are --seed, --shots at
    its SUBCOMMANDS default, --format and --output, then its OPTIONS."""
    rows = (("seed", int, 0, None), ("shots", int, SUBCOMMANDS[name][2], None),
            ("format", str, "json", ["json", "csv"]), ("output", str, None, None),
            *OPTIONS.get(name, ()))
    return ({"--" + row[0].replace("_", "-"): row for row in rows},
            {"subcommand": name, **{dest: default for dest, _, default, _ in rows}})


def build_parser():
    parser = _Parser(prog="shadowsim",
                     description="dual-register (shadow) quantum simulator demonstrations")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, _, _) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option, (_, kind, default, choices) in _table(name)[0].items():
            if kind is bool:
                p.add_argument(option, action="store_true")
            else:
                p.add_argument(option, type=kind, default=default, choices=choices)
    return parser


@functools.cache
def _parser():
    """The one parser of this process; parsing leaves no state on it."""
    return build_parser()


def _read_table(argv):
    """The namespace parse_args(argv) makes, read straight off the option
    table when every token after the subcommand is "--name=value" with an
    exact long option of it, the value passing the option's own type and
    choices, or a bare flag; None for any other argv, which argparse then
    parses, so that every help, usage and error text is its."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    options, defaults = _table(argv[0])
    values = dict(defaults)
    for token in argv[1:]:
        option, eq, text = token.partition("=")
        row = options.get(option)
        if row is None or bool(eq) == (row[1] is bool) or text == "--":
            # an unknown or abbreviated option, a value in the next token, a
            # value given to a flag, or the "--" that argparse would drop
            return None
        dest, kind, _, choices = row
        try:
            value = kind is bool or kind(text)  # a bare flag stores True
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return argparse.Namespace(**values)


def _config_echo(args):
    return {key: val for key, val in sorted(vars(args).items())
            if key not in ("format", "output")}


def _exit(status, message):
    sys.stderr.write(message + "\n")
    sys.exit(status)


def run(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_table(argv)
    if args is None:
        args = _parser().parse_args(argv)
    where = f"shadowsim {args.subcommand}"
    if args.shots < 1:
        _exit(2, f"{where}: error: --shots must be >= 1")
    if args.seed < 0 or args.seed >= 2 ** 64:
        _exit(2, f"{where}: error: --seed must be a 64-bit unsigned integer")
    handler, _, _, sampled = SUBCOMMANDS[args.subcommand]
    rng = np.random.default_rng(args.seed) if sampled else None
    try:
        results, invariants, errata, rows = handler(args, rng)
    except InvariantViolation as exc:
        _exit(1, f"{where}: invariant violation: {exc}")
    except (ValueError, IndexError) as exc:
        _exit(2, f"{where}: error: {exc}")
    except MemoryError as exc:
        _exit(2, f"{where}: error: out of memory: {exc}")
    doc = {
        "config": _config_echo(args),
        "results": results,
        "invariants": invariants,
        "errata": errata,
    }
    if args.format == "csv":
        text = to_csv(list(next(iter(rows))), rows)
    else:
        text = to_json(doc) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            _exit(2, f"{where}: error: cannot write {args.output}: {exc.strerror}")
    else:
        sys.stdout.write(text)
    failed = [f"{name} residual {v['residual']:.3g} > tolerance {v['tolerance']:.3g}"
              for name, v in invariants.items() if not v["ok"]]
    if failed:
        sys.stderr.write(f"{where}: invariant violation: {'; '.join(failed)}\n")
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
