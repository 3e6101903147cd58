"""The outcome-path walker against the per-shot loops it replaced.

Each reference below is one of the five loops that ran a demo shot by shot
(``cli`` teleport, swap and collapse; ``protocols`` readout and product),
copied as it was, one single-shot call per draw. For every seed and shot
count the walker must give each shot the same outcome, probability,
fidelity and mirror deviation, give the same statistics, and leave the rng
where the loop left it.
"""

import argparse

import numpy as np
import pytest

from shadowsim import cli, waves
from shadowsim.measurement import X_BASIS, Z_BASIS, projective_measure
from shadowsim.protocols import (
    ProductStateStats,
    ReadoutStats,
    entangled_readout_demo,
    product_plus_state,
    product_state_demo,
    run_entanglement_swap,
    run_teleportation,
    swap_shots,
    teleportation_shots,
)
from shadowsim.register import BellKind, bell_pair, fidelity, from_amplitudes

SEEDS = range(5)
SHOTS = (1, 3, 50, 200)


def old_teleport(alpha, beta, resource, shots, rng):
    return [run_teleportation(alpha, beta, resource, rng) for _ in range(shots)]


def old_swap(shots, rng):
    return [run_entanglement_swap(rng) for _ in range(shots)]


def old_readout(shots, rng):
    counts = {}
    corr_sum = 0.0
    min_fid = 1.0
    ups = 0
    for _ in range(shots):
        state = bell_pair(BellKind.PHI_PLUS)
        rec0 = projective_measure(state, 0, Z_BASIS, rng)
        remote = rec0.remote_state_via_shadow
        expected = from_amplitudes(Z_BASIS[:, rec0.outcome], 1)
        min_fid = min(min_fid, fidelity(remote, expected))
        rec1 = projective_measure(rec0.post_state, 1, Z_BASIS, rng)
        key = (rec0.outcome, rec1.outcome)
        counts[key] = counts.get(key, 0) + 1
        s0 = 1.0 - 2.0 * rec0.outcome
        s1 = 1.0 - 2.0 * rec1.outcome
        corr_sum += s0 * s1
        ups += 1 - rec0.outcome
    return ReadoutStats(shots, counts, corr_sum / shots, min_fid, ups / shots)


def old_product(shots, rng):
    plus = from_amplitudes([1.0, 1.0], 1)
    counts = {"mz": 0, "cz": 0, "mx": 0, "cx": 0}
    min_fid = 1.0
    for _ in range(shots):
        state = product_plus_state()
        rec0 = projective_measure(state, 0, Z_BASIS, rng)
        min_fid = min(min_fid, fidelity(rec0.remote_state_via_shadow, plus))
        if projective_measure(rec0.post_state, 1, Z_BASIS, rng).outcome == 0:
            counts["mz"] += 1
        state = product_plus_state()
        rec0 = projective_measure(state, 0, Z_BASIS, rng)
        if projective_measure(rec0.post_state, 1, X_BASIS, rng).outcome == 0:
            counts["mx"] += 1
        if projective_measure(product_plus_state(), 1, Z_BASIS, rng).outcome == 0:
            counts["cz"] += 1
        if projective_measure(product_plus_state(), 1, X_BASIS, rng).outcome == 0:
            counts["cx"] += 1
    mz, cz = counts["mz"] / shots, counts["cz"] / shots
    mx, cx = counts["mx"] / shots, counts["cx"] / shots
    return ProductStateStats(shots, abs(mz - cz), abs(mx - cx), min_fid, mz, cz, mx, cx)


def old_collapse(points, zones, shots, rng):
    grid = waves.gaussian_packet(-8.0, 8.0, points, sigma=1.0)
    partition = waves.ZonePartition.equal_zones(points, zones)
    counts = np.zeros(zones, dtype=int)
    worst_dev = 0.0
    for _ in range(shots):
        zone, collapsed = waves.collapse_detect(grid, partition, rng)
        counts[zone] += 1
        worst_dev = max(worst_dev, collapsed.mirror_deviation())
    return counts.tolist(), worst_dev


def rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_stream(old_rng, new_rng):
    assert old_rng.random() == new_rng.random()


def per_shot(results, fidelity_field):
    return [(r.outcome, getattr(r, "probability", None), getattr(r, fidelity_field),
             r.shadow_deviation) for r in results]


def expand(old, results, index):
    """The walker's per-path results, one per shot through the path index,
    after checking there is one result per distinct outcome of the loop."""
    assert len(results) == len({r.outcome for r in results}) == len({r.outcome for r in old})
    assert len(index) == len(old)
    return [results[i] for i in index]


@pytest.mark.parametrize("shots", SHOTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_teleportation_shots_match_the_loop(seed, shots):
    resource = list(BellKind)[seed % 4]
    alpha, beta = complex(0.3, 0.1 * seed), complex(-0.5, 0.7)
    old_rng, new_rng = rngs(seed)
    old = old_teleport(alpha, beta, resource, shots, old_rng)
    new = expand(old, *teleportation_shots(alpha, beta, resource, shots, new_rng))
    assert per_shot(new, "fidelity_with_input") == per_shot(old, "fidelity_with_input")
    assert_same_stream(old_rng, new_rng)


@pytest.mark.parametrize("shots", SHOTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_swap_shots_match_the_loop(seed, shots):
    old_rng, new_rng = rngs(seed)
    old = old_swap(shots, old_rng)
    new = expand(old, *swap_shots(shots, new_rng))
    fid = "fidelity_with_prediction"
    assert per_shot(new, fid) == per_shot(old, fid)
    assert [r.predicted_remote_kind for r in new] == [r.predicted_remote_kind for r in old]
    assert_same_stream(old_rng, new_rng)


@pytest.mark.parametrize("shots", SHOTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_readout_then_product_match_the_loops(seed, shots):
    # the order of acceptance criterion 07: both demos on one rng
    old_rng, new_rng = rngs(seed)
    assert entangled_readout_demo(shots, new_rng) == old_readout(shots, old_rng)
    assert product_state_demo(shots, new_rng) == old_product(shots, old_rng)
    assert_same_stream(old_rng, new_rng)


@pytest.mark.parametrize("shots", SHOTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_collapse_matches_the_loop(seed, shots):
    points, zones = (64, 256, 512)[seed % 3], 2 + seed
    old_rng, new_rng = rngs(seed)
    counts, worst_dev = old_collapse(points, zones, shots, old_rng)
    args = argparse.Namespace(points=points, zones=zones, shots=shots)
    results, invariants, *_ = cli._cmd_collapse(args, new_rng)
    assert results["zone_counts"] == counts
    assert invariants["mirror"]["residual"] == worst_dev
    assert_same_stream(old_rng, new_rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_rows_match_the_loops(seed):
    # the teleport and swap documents: one row per shot, worst cases over shots
    args = argparse.Namespace(alpha=0.6, beta=0.8j, resource="psi-plus", shots=40)
    old_rng, new_rng = rngs(seed)
    old = old_teleport(0.6, 0.8j, BellKind.PSI_PLUS, 40, old_rng)
    results, invariants, *_ = cli._cmd_teleport(args, new_rng)
    rows = [(row["outcome"], row["probability"], row["fidelity"]) for row in results["shots"]]
    assert rows == [(r.outcome.value, r.probability, r.fidelity_with_input) for r in old]
    assert results["min_fidelity"] == min([1.0] + [r.fidelity_with_input for r in old])
    assert invariants["mirror"]["residual"] == max([0.0] + [r.shadow_deviation for r in old])
    old = old_swap(40, old_rng)
    results, invariants, *_ = cli._cmd_swap(args, new_rng)
    assert [row["outcome"] for row in results["shots"]] == [r.outcome.value for r in old]
    assert results["min_fidelity"] == min([1.0] + [r.fidelity_with_prediction for r in old])
    assert invariants["mirror"]["residual"] == max([0.0] + [r.shadow_deviation for r in old])
    assert_same_stream(old_rng, new_rng)
