"""Output checks: one document at a time, then pooled statistics per run.

Every request must exit 0, or exit 1 where only statistical gates failed, and
its document must pass the checks below.  The pooled per-kind tests merge all
shots of a run and compare them with probabilities the benchmark works out
itself, merging cells whose expected count is below 5; they fail the run
when p < POOLED_P_MIN, so a biased sampler fails the run even where each
request's own gate is too weak to notice.
"""

from __future__ import annotations

import json
import math
from workloads import BELL_KINDS

DOC_KEYS = ["config", "results", "invariants", "errata"]
STAT_GATES = ("outcome_frequencies", "collapse_statistics", "fringe_statistics")
EXACT_TOL = 1e-12
FIDELITY_TOL = 1e-10
WIDTH_RTOL = 0.01
POOLED_P_MIN = 1e-6
POOLED_MIN_EXPECTED = 5.0


def is_stat_gate(name):
    return name in STAT_GATES or name.startswith("no_signalling_")


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


class Pool:
    """Counts merged over all requests of a run, per kind and configuration."""

    def __init__(self):
        self.cells = {}  # label -> [observed counts, expected counts]

    def add(self, label, observed, expected):
        cur = self.cells.get(label)
        if cur is None:
            self.cells[label] = [list(map(float, observed)), list(map(float, expected))]
            return
        _require(len(cur[0]) == len(observed), f"pool {label}: cell count changed")
        for i, (o, e) in enumerate(zip(observed, expected)):
            cur[0][i] += o
            cur[1][i] += e

    def failures(self):
        """(label, statistic, dof, p) for every pooled test with p < POOLED_P_MIN,
        and the number of tests run."""
        from scipy.stats import chi2

        bad = []
        for label, (obs, exp) in sorted(self.cells.items()):
            o_m, e_m = merge_cells(obs, exp)
            if len(o_m) < 2:
                continue
            stat = sum((o - e) ** 2 / e for o, e in zip(o_m, e_m))
            p = float(chi2.sf(stat, len(o_m) - 1))
            if p < POOLED_P_MIN:
                bad.append((label, stat, len(o_m) - 1, p))
        return bad, len(self.cells)


def merge_cells(observed, expected):
    """Merge neighbouring cells until each expected count is at least 5; a
    short tail joins the last merged cell."""
    o_out, e_out, o_acc, e_acc = [], [], 0.0, 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= POOLED_MIN_EXPECTED:
            o_out.append(o_acc)
            e_out.append(e_acc)
            o_acc = e_acc = 0.0
    if e_acc > 0.0 or o_acc > 0.0:
        if e_out:
            o_out[-1] += o_acc
            e_out[-1] += e_acc
        else:
            o_out.append(o_acc)
            e_out.append(e_acc)
    return o_out, e_out


def gaussian_zone_probabilities(points, zones):
    """Zone weights of the collapse packet (sigma 1 on [-8, 8], cell centred),
    computed here independently of the program."""
    dx = 16.0 / points
    dens = [math.exp(-((-8.0 + dx * (i + 0.5)) ** 2) / 2.0) for i in range(points)]
    total = math.fsum(dens)
    cuts = [0] + [points * i // zones for i in range(1, zones)] + [points]
    return [math.fsum(dens[a:b]) / total for a, b in zip(cuts, cuts[1:])]


def _close(a, b, tol):
    return abs(a - b) <= tol


def _check_config(req, cfg):
    _require(cfg.get("subcommand") == req.command, "config.subcommand differs")
    _require("format" not in cfg and "output" not in cfg, "config echoes format/output")
    for flag, value in req.params:
        if flag == "format":
            continue
        key = flag.replace("-", "_")
        _require(key in cfg, f"config lacks {key}")
        got = cfg[key]
        if value is True:
            ok = got is True
        elif isinstance(got, list):
            z = complex(str(value).replace("i", "j"))
            ok = got == [z.real, z.imag]
        elif isinstance(got, float):
            ok = got == float(value)
        elif isinstance(got, int):
            ok = got == int(value)
        else:
            ok = got == str(value)
        _require(ok, f"config.{key} = {got!r}, argument was {value!r}")


def _check_invariants(invariants, code):
    """Return the failed invariant names after checking ok vs residual."""
    failed = []
    for name, inv in invariants.items():
        _require(set(inv) == {"ok", "residual", "tolerance"}, f"invariant {name} malformed")
        _require(inv["ok"] == (inv["residual"] <= inv["tolerance"]),
                 f"invariant {name}: ok={inv['ok']} but residual {inv['residual']!r} "
                 f"vs tolerance {inv['tolerance']!r}")
        if not inv["ok"]:
            failed.append(name)
    _require(code == (1 if failed else 0), f"exit {code} with failed invariants {failed}")
    exact = [n for n in failed if not is_stat_gate(n)]
    _require(not exact, "exact invariant failed: " + ", ".join(
        f"{n} residual {invariants[n]['residual']!r} > {invariants[n]['tolerance']!r}"
        for n in exact))
    return failed


def _shot_rows(req, rows, key_outcome="outcome"):
    n = int(req.param("shots"))
    _require(len(rows) == n, f"{len(rows)} shot rows for --shots {n}")
    _require([int(r["shot"]) for r in rows] == list(range(n)), "shot indices not 0..n-1")
    counts = [0, 0, 0, 0]
    for r in rows:
        _require(r[key_outcome] in BELL_KINDS, f"unknown outcome {r[key_outcome]!r}")
        counts[BELL_KINDS.index(r[key_outcome])] += 1
    return n, counts


def _teleport(req, doc, pool):
    res = doc["results"]
    n, counts = _shot_rows(req, res["shots"])
    fids = [r["fidelity"] for r in res["shots"]]
    _require(res["min_fidelity"] == min([1.0] + fids), "min_fidelity is not the minimum")
    _require(1.0 - min(fids) <= FIDELITY_TOL, f"teleport fidelity {min(fids)!r}")
    pool.add("teleport outcomes", counts, [n / 4.0] * 4)


def _teleport_csv(req, text, code, pool):
    lines = text.split("\n")
    _require(lines[-1] == "" and lines[0] == "shot,outcome,probability,fidelity",
             "teleport CSV header or trailing newline")
    rows = [dict(zip(("shot", "outcome", "probability", "fidelity"), ln.split(",")))
            for ln in lines[1:-1]]
    n, counts = _shot_rows(req, rows)
    worst = min(float(r["fidelity"]) for r in rows)
    _require(1.0 - worst <= FIDELITY_TOL, f"teleport fidelity {worst!r}")
    _require(code == 0, f"teleport CSV exit {code}")
    pool.add("teleport outcomes", counts, [n / 4.0] * 4)


def _swap(req, doc, pool):
    res = doc["results"]
    n, counts = _shot_rows(req, res["shots"])
    _require([res["outcome_counts"][k] for k in BELL_KINDS] == counts,
             "outcome_counts disagree with shot rows")
    for r in res["shots"]:
        _require(res["outcome_map"][r["outcome"]] == r["remote_kind"], "remote kind off the map")
    _require(1.0 - res["min_fidelity"] <= FIDELITY_TOL, "swap fidelity")
    pool.add("swap outcomes", counts, [n / 4.0] * 4)


def _readout(req, doc, pool):
    res = doc["results"]
    n = int(req.param("shots"))
    c = res["outcome_counts"]
    _require(res["shots"] == n and sum(c.values()) == n, "readout counts do not sum to --shots")
    _require(c["01"] == 0 and c["10"] == 0, "readout produced anticorrelated outcomes")
    pool.add("readout 00/11", [c["00"], c["11"]], [n / 2.0, n / 2.0])


def _product(req, doc, pool):
    res = doc["results"]
    n = int(req.param("shots"))
    _require(res["shots"] == n, "product shots differ from --shots")
    # |+>|+>: qubit 1 reads up with probability 1/2 and plus with certainty,
    # whether or not qubit 0 was measured first
    for key in ("measured_z_up_fraction", "control_z_up_fraction"):
        k = round(res[key] * n)
        _require(0 <= k <= n and k / n == res[key], f"{key} is not a count over --shots")
        pool.add(f"product {key}", [k, n - k], [n / 2.0, n / 2.0])
    for key in ("measured_x_plus_fraction", "control_x_plus_fraction"):
        _require(res[key] == 1.0, f"{key} = {res[key]!r}, expected 1")


def _collapse(req, doc, pool):
    res = doc["results"]
    n = int(req.param("shots"))
    points, zones = int(req.param("points")), int(req.param("zones"))
    counts = res["zone_counts"]
    _require(len(counts) == zones and sum(counts) == n, "zone counts do not sum to --shots")
    probs = gaussian_zone_probabilities(points, zones)
    _require(all(_close(a, b, 1e-12) for a, b in zip(probs, res["zone_probabilities"])),
             "zone probabilities differ from the benchmark's oracle")
    pool.add(f"collapse points={points} zones={zones}", counts, [p * n for p in probs])


def _bell(req, doc, pool):
    res = doc["results"]
    _require(list(res["states"]) == list(BELL_KINDS), "bell states missing")
    _require(res["gram_residual"] <= EXACT_TOL, "bell basis not orthonormal")


def _algebra(req, doc, pool):
    res = doc["results"]
    modes = int(req.param("modes"))
    _require(len(res["residuals"]) == 2 * modes * modes, "algebra row count is not 2*modes^2")
    _require(res["max_residual"] <= EXACT_TOL, f"algebra max_residual {res['max_residual']!r}")
    _require(res["max_residual"] == max(r["residual"] for r in res["residuals"]),
             "max_residual is not the maximum row")


def _erratum(req, doc, pool):
    res, findings = doc["results"], doc["errata"]
    _require(res["finding_count"] == len(findings) > 0, "finding_count mismatch")
    _require(res["erratum_count"] == sum(f["verdict"] == "erratum" for f in findings),
             "erratum_count mismatch")


def _evolve(req, doc, pool):
    res = doc["results"]
    steps = int(req.param("steps"))
    t = 0.002 * steps  # default --dt
    _require(_close(res["t_final"], t, 1e-9 * max(1.0, t)), "t_final is not dt * steps")
    _require(abs(res["norm"] - 1.0) <= 1e-8, f"norm {res['norm']!r}")
    if req.param("potential") == "free" and float(req.param("k0")) == 0.0:
        sigma = 1.0  # default --sigma
        sigma_t = sigma * math.sqrt(1.0 + (t / (2.0 * sigma ** 2)) ** 2)
        _require(abs(res["width"] - sigma_t) / sigma_t <= WIDTH_RTOL,
                 f"free packet width {res['width']!r} vs analytic {sigma_t!r}")


def _doubleslit(req, doc, pool):
    res = doc["results"]
    n, bins = int(req.param("shots")), int(req.param("bins"))
    counts, expected = res["counts"], res["expected"]
    _require(len(counts) == bins and sum(counts) == n, "fringe counts do not sum to --shots")
    _require(_close(math.fsum(expected), n, 1e-6 * n), "expected counts do not sum to --shots")
    pool.add(f"doubleslit {res['slits']} bins={bins}", counts, expected)


_KIND_CHECKS = {
    "teleport": _teleport, "swap": _swap, "readout": _readout, "product": _product,
    "collapse": _collapse, "bell": _bell, "algebra": _algebra, "erratum": _erratum,
    "evolve": _evolve, "doubleslit": _doubleslit,
}


def check_document(req, code, text, pool):
    """Check one request's exit code and document; add its shots to `pool`.

    Returns the statistical gates that failed: a nonempty list marks a
    statistical alarm (exit 1 where only such gates failed).  Raises
    CheckError on any other problem.
    """
    _require(code in (0, 1), f"exit code {code}")
    if req.param("format") == "csv":
        _teleport_csv(req, text, code, pool)
        return []
    doc = json.loads(text)
    _require(list(doc) == DOC_KEYS, f"document keys {list(doc)}")
    _check_config(req, doc["config"])
    failed = _check_invariants(doc["invariants"], code)
    _KIND_CHECKS[req.command](req, doc, pool)
    return failed
