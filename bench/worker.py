"""One workload process: set up, report ready, run the timed phase, check.

Started by run.py as a fresh interpreter.  Before it prints READY it imports
`shadowsim.cli`, generates the request list and runs one small untimed
request per kind; run.py times that as set-up.  The timed phase is a closed
loop with one client: each request is `shadowsim.cli.run(argv)` in process,
writing its document with --output, and the next starts when it returns.
Documents are checked after the timed phase, so checking costs no request
time.  The result goes to a JSON file for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import checks
import workloads

PREGENERATED_REQUESTS = 1280
MIN_REQUESTS = 100  # the 90th percentile then has at least 10 samples above it
RERUN_LIMIT_S = 1.0  # keeps the 10-s dim-625 algebra request out of the re-run sample


def _call(run, argv):
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed request, not a benchmark error
        return f"crash {type(exc).__name__}: {exc}"


def timed_phase(run, decks, out_dir, tag, seconds, min_requests, deck_count=None):
    """Run whole decks, stopping at the deck boundary nearest to `seconds`
    once `min_requests` are done, or after exactly `deck_count` decks.
    Returns (done, latencies, wall, decks run), done holding (request, exit
    code, output path)."""
    clock = time.perf_counter
    done, lat = [], []
    d = 0
    t_start = clock()
    while True:
        for req in decks[d % len(decks)]:
            path = out_dir / f"{tag}-{len(done)}.out"
            argv = req.argv(str(path))
            t0 = clock()
            code = _call(run, argv)
            lat.append(clock() - t0)
            done.append((req, code, path))
        d += 1
        if deck_count is not None:
            if d >= deck_count:
                break
        elif len(done) >= min_requests:
            elapsed = clock() - t_start
            if elapsed * (1 + 0.5 / d) >= seconds:  # half a mean deck to go
                break
    return done, lat, clock() - t_start, d


class Outcome:
    """Tally of checked requests."""

    def __init__(self):
        self.attempted = 0
        self.failures = []       # "kind: message"
        self.stat_alarms = 0
        self.alarm_gates = {}    # gate name -> requests it alarmed on
        self.pool = checks.Pool()

    def fail(self, req, message):
        self.failures.append(f"{req.kind} {' '.join(req.argv('-')[:-1])}: {message}")

    def check(self, req, code, text):
        self.attempted += 1
        if not isinstance(code, int):
            self.fail(req, code)
            return
        try:
            gates = checks.check_document(req, code, text.decode(), self.pool)
        except (checks.CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            self.fail(req, f"{type(exc).__name__}: {exc}")
            return
        self.stat_alarms += bool(gates)
        for g in gates:
            self.alarm_gates[g] = self.alarm_gates.get(g, 0) + 1


def _read_and_remove(path):
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return b""
    path.unlink()
    return data


def check_phase(done, outcome):
    """Check every document; return their sha256 digests in request order.

    A run longer than the pregenerated decks repeats requests; a repeat must
    reproduce the first document byte for byte and is not pooled again.
    """
    digests, first = [], {}
    for req, code, path in done:
        text = _read_and_remove(path)
        digest = hashlib.sha256(text).hexdigest()
        digests.append(digest)
        if req in first:
            outcome.attempted += 1
            if first[req] != (code, digest):
                outcome.fail(req, "repeated request gave a different document")
            continue
        first[req] = (code, digest)
        outcome.check(req, code, text)
    return digests


def rerun_sample(run, done, lat, digests, out_dir, outcome):
    """Re-run the first request of each kind that took under RERUN_LIMIT_S
    and compare the output bytes."""
    seen = set()
    for i, ((req, code, _), seconds) in enumerate(zip(done, lat)):
        if req.kind in seen or seconds >= RERUN_LIMIT_S:
            continue
        seen.add(req.kind)
        path = out_dir / f"rerun-{i}.out"
        again = _call(run, req.argv(str(path)))
        outcome.attempted += 1
        digest = hashlib.sha256(_read_and_remove(path)).hexdigest()
        if again != code or digest != digests[i]:
            outcome.fail(req, "re-run output differs from the first run")


def _latency_summary(done, lat):
    by_kind = {}
    for (req, _, _), t in zip(done, lat):
        by_kind.setdefault(req.kind, []).append(t)
    return {k: [len(v), sorted(v)[len(v) // 2]] for k, v in sorted(by_kind.items())}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--run-dir", required=True)
    args = p.parse_args(argv)

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    from shadowsim import cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"imported shadowsim from {cli.__file__}, not from {root / 'src'}")
    run_dir = Path(args.run_dir)
    decks = workloads.generate(args.workload, args.seed, PREGENERATED_REQUESTS, args.smoke)
    warm_codes = {}
    for req in workloads.warmup_requests(args.workload):
        warm_codes[req.kind] = _call(cli.run, req.argv(str(run_dir / f"warm-{req.kind}.out")))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    min_requests = 1 if args.smoke else MIN_REQUESTS
    done, lat, wall, deck_count = timed_phase(cli.run, decks, run_dir, "req",
                                              args.seconds, min_requests)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = Outcome()
    digests = check_phase(done, outcome)
    for req in workloads.warmup_requests(args.workload):
        text = (run_dir / f"warm-{req.kind}.out").read_bytes()
        outcome.check(req, warm_codes[req.kind], text)
    result = {
        "latencies_s": lat,
        "wall_s": wall,
        "decks": deck_count,
        "per_kind": _latency_summary(done, lat),
        "peak_rss_mb": peak_rss_mb,
        "warm_codes": warm_codes,
        "deck0_sha256": hashlib.sha256(
            "".join(digests[:len(decks[0])]).encode()).hexdigest(),
    }
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracing.instrument(tracer) as traced_run:
            def run(argv):
                tracer.request_id += 1
                return traced_run(argv)
            done_on, lat_on, wall_on, _ = timed_phase(run, decks, run_dir, "traced",
                                                      0.0, 0, deck_count)
        bytes_on = 0
        for i, (req, code, path) in enumerate(done_on):
            text = _read_and_remove(path)
            bytes_on += len(text)
            outcome.attempted += 1
            if code != done[i][1] or hashlib.sha256(text).hexdigest() != digests[i]:
                outcome.fail(req, "traced output differs from the untraced output")
        tracer.write(run_dir / "spans.csv")
        layer = tracer.layer_metrics()
        rate_off, rate_on = len(lat) / wall, len(lat_on) / wall_on
        layer.update({
            "cli.requests": len(done_on),
            "cli.bytes_out": bytes_on,
            "trace.req_per_s_off": rate_off,
            "trace.req_per_s_on": rate_on,
            "trace.overhead_pct": 100.0 * (rate_off - rate_on) / rate_off,
        })
        result["layer"] = layer
        result["spans"] = len(tracer.kind)
    else:
        rerun_sample(cli.run, done, lat, digests, run_dir, outcome)

    bad, tests = outcome.pool.failures()
    result.update({
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "stat_alarms": outcome.stat_alarms,
        "alarm_gates": outcome.alarm_gates,
        "pooled_tests": tests,
        "pooled_failures": [f"{label}: chi2={stat:.1f} dof={dof} p={pv:.2e}"
                            for label, stat, dof, pv in bad],
        "meta": run_metadata(root),
    })
    if args.trace:
        result["layer"]["cli.stat_alarms"] = outcome.stat_alarms
    (run_dir / "worker.json").write_text(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# run metadata


def _openblas():
    """(runtime config string, thread count) of the OpenBLAS numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    return config().decode(), int(threads())
    return None, None


def _cpu():
    model, caches = None, {}
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return model, caches


def _commit(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run_metadata(root):
    from importlib.metadata import PackageNotFoundError, version

    import numpy

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    blas_config, blas_threads = _openblas()
    model, caches = _cpu()
    src = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        src.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "commit": _commit(root),
        "src_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
    }


if __name__ == "__main__":
    sys.exit(main())
