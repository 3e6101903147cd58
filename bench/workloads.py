"""Request generation for the three benchmark workloads.

A workload is a sequence of *decks*.  A deck is a shuffled list of requests
whose composition (how many of each kind and size class) is fixed, so every
deck costs about the same whatever the seed.  The seed picks the order, the
per-request ``--seed`` and every continuous parameter; continuous parameters
are drawn by stratified sampling (one uniform draw in each of n equal slices
of the range), which keeps a deck's total work nearly constant across seeds
while still covering the whole range.

Only the standard library is imported here: the worker generates requests
before it reports ready, and importing numpy or scipy on the benchmark's own
account would hide set-up work that the program might later remove.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("mc-shots", "fock-algebra", "wave-dynamics")

BELL_KINDS = ("phi-plus", "phi-minus", "psi-plus", "psi-minus")


@dataclass(frozen=True)
class Request:
    kind: str        # label for grouping: a subcommand or a size class of one
    command: str     # shadowsim subcommand
    params: tuple    # ((flag, value), ...); value True marks a bare flag

    def argv(self, output):
        out = [self.command]
        for flag, value in self.params:
            if value is True:
                out.append(f"--{flag}")
            else:
                # "--flag=value" keeps values such as "-0.3+0.1j" from being
                # read as options
                out.append(f"--{flag}={value}")
        out.append(f"--output={output}")
        return out

    def param(self, flag):
        return dict(self.params).get(flag)


def _req(kind, command, rng, **params):
    params = {"seed": rng.getrandbits(32), **params}
    return Request(kind, command, tuple((k.replace("_", "-"), v) for k, v in params.items()))


def _strata(rng, lo, hi, n):
    """n integers, one uniform draw from each of n equal slices of [lo, hi]."""
    vals = [round(lo + (hi - lo) * (i + rng.random()) / n) for i in range(n)]
    rng.shuffle(vals)
    return vals


def _complex_text(z):
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _unit_pair(rng):
    a = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    b = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    n = (abs(a) ** 2 + abs(b) ** 2) ** 0.5
    return a / n, b / n


# --------------------------------------------------------------------------
# mc-shots: per-shot Monte-Carlo loops


def _mc_deck(rng, smoke):
    k = 10 if smoke else 1
    deck = []
    resources = list(BELL_KINDS)
    rng.shuffle(resources)
    csv_slot = rng.randrange(4)
    for i, shots in enumerate(_strata(rng, 50 // k, 400 // k, 4)):
        alpha, beta = _unit_pair(rng)
        deck.append(_req("teleport", "teleport", rng, shots=shots,
                         alpha=_complex_text(alpha), beta=_complex_text(beta),
                         resource=resources[i],
                         format="csv" if i == csv_slot else "json"))
    for shots in _strata(rng, 50 // k, 400 // k, 4):
        deck.append(_req("swap", "swap", rng, shots=shots))
    for shots in _strata(rng, 100 // k, 1000 // k, 3):
        deck.append(_req("readout", "readout", rng, shots=shots))
    for shots in _strata(rng, 50 // k, 300 // k, 3):
        deck.append(_req("product", "product", rng, shots=shots))
    points = [256, 512, 1024]
    rng.shuffle(points)
    for shots, p in zip(_strata(rng, 200 // k, 3000 // k, 3), points):
        deck.append(_req("collapse", "collapse", rng, shots=shots, points=p,
                         zones=rng.randint(2, 8)))
    for _ in range(3):
        deck.append(_req("bell", "bell", rng))
    return deck


# --------------------------------------------------------------------------
# fock-algebra: dense operator algebra
#
# algebra is deterministic in (modes, nmax, statistics), so the deck is a
# fixed multiset of 100 requests; the seed only orders it and sets --seed.
# Costs on one BLAS thread of a 2-core Xeon are noted per block.  The median
# (sorted positions 49 and 50) and the 90th percentile (position 89) fall
# inside blocks of one cost, at least 20% away from their neighbours, so
# they measure the same requests on every seed.

_BOSON = "boson"
_FERMION = "fermion"
_FOCK_DECK = (
    # positions 0-43, 4-21 ms
    *[(_BOSON, m, n) for m, n in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 2),
                                  (2, 8), (4, 1), (3, 3), (5, 1), (2, 9))] * 3,
    *[(_FERMION, m, 1) for m in (3, 4, 5)] * 2,
    *[("erratum", 0, 0)] * 2,
    # positions 44-55, the median: dim 121, 27 ms
    *[(_BOSON, 2, 10)] * 12,
    # positions 56-85, 39-200 ms
    *[(_BOSON, m, n) for m, n in ((4, 2), (6, 1), (2, 11), (3, 4), (2, 12))] * 5,
    *[(_FERMION, 6, 1)] * 2,
    (_FERMION, 7, 1),
    *[(_BOSON, 2, 14)] * 2,
    # positions 86-93, the 90th percentile: dim 256, 250 ms
    *[(_BOSON, 2, 15)] * 8,
    # positions 94-99, 0.33 s to the dim-625 case at 11 s
    *[(_BOSON, 3, 5), (_BOSON, 4, 3)] * 2,
    (_BOSON, 7, 1),
    (_BOSON, 4, 4),
)
_FOCK_SMOKE = ((_BOSON, 2, 2), (_BOSON, 2, 8), (_FERMION, 3, 1), ("erratum", 0, 0))


def _fock_deck(rng, smoke):
    deck = []
    for stats, modes, nmax in (_FOCK_SMOKE if smoke else _FOCK_DECK):
        if stats == "erratum":
            deck.append(_req("erratum", "erratum", rng))
        elif stats == _FERMION:
            deck.append(_req("algebra-fermion", "algebra", rng, modes=modes,
                             nmax=1, statistics=_FERMION))
        else:
            kind = "algebra-625" if (modes, nmax) == (4, 4) else "algebra-boson"
            deck.append(_req(kind, "algebra", rng, modes=modes, nmax=nmax))
    return deck


# --------------------------------------------------------------------------
# wave-dynamics: Crank-Nicolson solves and FFT propagation

def _wave_deck(rng, smoke):
    # 32 doubleslit, 3 light and 5 heavy evolve requests: the median falls
    # among doubleslit requests and the 90th percentile inside the block of
    # heavy 8192-point evolves, whose costs differ by at most 25%
    deck = []
    for points, (lo, hi) in zip((1024, 2048, 4096), ((100, 233), (233, 367), (367, 500))):
        deck.append((points, round(lo + (hi - lo) * rng.random())))
    deck += [(8192, s) for s in _strata(rng, 400, 500, 5)]
    deck = [_req("evolve", "evolve", rng,
                 points=1024 if smoke else points, steps=steps // 10 if smoke else steps,
                 potential=rng.choice(("free", "harmonic")), k0=rng.choice((0, 1, 2)))
            for points, steps in deck]
    single = set(rng.sample(range(32), 8))
    for i, n in enumerate(_strata(rng, 2000, 20000, 32)):
        extra = {"single_slit": True} if i in single else {}
        deck.append(_req("doubleslit", "doubleslit", rng, shots=n,
                         bins=rng.choice((32, 64, 128)), **extra))
    return deck


_DECKS = {"mc-shots": _mc_deck, "fock-algebra": _fock_deck, "wave-dynamics": _wave_deck}


def generate(workload, seed, requests, smoke=False):
    """Shuffled decks holding at least `requests` requests, determined by
    (workload, seed)."""
    rng = random.Random(f"{workload}/{seed}")
    out, n = [], 0
    while n < requests:
        deck = _DECKS[workload](rng, smoke)
        rng.shuffle(deck)
        out.append(deck)
        n += len(deck)
    return out


# One small request per kind: the untimed warm-up in set-up, and the argv of
# each fresh-process launch behind cli_cold_s.
_WARMUP = {
    "mc-shots": (
        Request("teleport", "teleport", (("seed", 1), ("shots", 50))),
        Request("swap", "swap", (("seed", 1), ("shots", 50))),
        Request("readout", "readout", (("seed", 1), ("shots", 100))),
        Request("product", "product", (("seed", 1), ("shots", 50))),
        Request("collapse", "collapse", (("seed", 1), ("shots", 200), ("points", 256), ("zones", 2))),
        Request("bell", "bell", (("seed", 1),)),
    ),
    "fock-algebra": (
        Request("algebra-boson", "algebra", (("seed", 1), ("modes", 2), ("nmax", 2))),
        Request("algebra-fermion", "algebra", (("seed", 1), ("modes", 3), ("nmax", 1), ("statistics", "fermion"))),
        Request("erratum", "erratum", (("seed", 1),)),
    ),
    "wave-dynamics": (
        Request("evolve", "evolve", (("seed", 1), ("points", 1024), ("steps", 100))),
        Request("doubleslit", "doubleslit", (("seed", 1), ("shots", 2000), ("bins", 32))),
    ),
}


def warmup_requests(workload):
    return _WARMUP[workload]
