"""Acceptance gate: one test per shipped criterion, each printing a PASS/FAIL
line with the measured numbers.  Tolerances are pinned here, not imported."""

import subprocess
import sys
import time

import numpy as np
from scipy import stats

from shadowsim import (
    BellKind,
    DualRegister,
    ModeGrid,
    Potential,
    SlitGeometry,
    X_BASIS,
    Z_BASIS,
    ZonePartition,
    analytic_screen_intensity,
    anticommutator_residual,
    apply_b,
    apply_b_dagger,
    apply_unitary,
    bell_branches,
    bell_measure,
    bell_pair,
    collapse_detect,
    commutator_residual,
    creation_matrix,
    derive_correction_table,
    double_slit_accumulate,
    entangled_readout_demo,
    evolve,
    fidelity,
    free_propagate,
    fringe_visibility,
    from_amplitudes,
    gaussian_packet,
    product_state_demo,
    projective_measure,
    run_entanglement_swap,
    swap_decomposition,
    swap_outcome_map,
    teleport_decomposition,
    tensor,
    vacuum,
)

from oracles import teleport_input_state

RNG_SEED = 20260826


def _report(num, name, ok, detail):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_mirror_invariant_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    ops = 0
    worst_fock = 0.0
    worst_wave = 0.0

    # Fock: random ladder sequences on a 3-mode bosonic grid
    grid = ModeGrid((-1.0, 0.0, 1.0), max_occupation=3)
    for _ in range(200):
        state = vacuum(grid)
        for _ in range(20):
            mode = int(rng.integers(grid.mode_count))
            fn = apply_b_dagger if rng.random() < 0.6 else apply_b
            nxt = fn(state, mode)
            ops += 1
            if not nxt.is_zero:
                state = nxt
                worst_fock = max(worst_fock, state.mirror_deviation())

    # registers: random unitaries and projective measurements on 3 qubits
    for _ in range(150):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = from_amplitudes(amps, 3)
        for _ in range(20):
            if rng.random() < 0.7:
                m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                q, _ = np.linalg.qr(m)
                state = apply_unitary(state, [int(rng.integers(3))], q)
            else:
                rec = projective_measure(state, int(rng.integers(3)),
                                         Z_BASIS if rng.random() < 0.5 else X_BASIS,
                                         rng)
                state = rec.post_state
            ops += 1
            worst_fock = max(worst_fock, state.mirror_deviation())

    # waves: Crank-Nicolson steps plus periodic zone collapses
    wave = gaussian_packet(-10, 10, 256, sigma=0.8, k0=0.5)
    v = Potential.harmonic(wave)
    part = ZonePartition.equal_zones(256, 4)
    for _ in range(30):
        wave = evolve(wave, v, 1e-3, 100)
        ops += 100
        _, wave = collapse_detect(wave, part, rng)
        ops += 1
        worst_wave = max(worst_wave, wave.mirror_deviation())
        wave = gaussian_packet(-10, 10, 256, sigma=0.8, k0=0.5)

    elapsed = time.perf_counter() - start
    ok = (ops >= 10_000 and worst_fock < 1e-12 and worst_wave < 1e-10
          and elapsed < 30.0)
    _report(1, "mirror invariant", ok,
            f"{ops} ops, fock dev {worst_fock:.2e}, wave dev {worst_wave:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_02_operator_algebra():
    start = time.perf_counter()
    worst = 0.0
    for count in (1, 2, 3, 4):
        grid = ModeGrid(tuple(float(k) for k in range(count)), max_occupation=4)
        for i in range(count):
            for j in range(count):
                worst = max(worst, commutator_residual(grid, i, j))
                worst = max(worst, commutator_residual(grid, i, j,
                                                       annihilation_pair=True))
    worst_f = 0.0
    fgrid = ModeGrid((0.0, 1.0, 2.0, 3.0), max_occupation=1,
                     statistics="fermion")
    for i in range(4):
        for j in range(4):
            worst_f = max(worst_f, anticommutator_residual(fgrid, i, j))
            worst_f = max(worst_f, anticommutator_residual(
                fgrid, i, j, annihilation_pair=True))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and worst_f < 1e-12 and elapsed < 10.0
    _report(2, "operator algebra", ok,
            f"boson residual {worst:.2e}, fermion residual {worst_f:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_03_ladder_factor():
    grid = ModeGrid((0.0,), max_occupation=4)
    mat = creation_matrix(grid, 0)
    worst = 0.0
    for n in range(grid.max_occupation):
        state = vacuum(grid)
        for _ in range(n):
            state = apply_b_dagger(state, 0, normalize=True)
        raised = apply_b_dagger(state, 0)
        elem = raised.amplitude((n + 1,))
        worst = max(worst, abs(elem - np.sqrt(n + 1)))
        worst = max(worst, abs(mat[n + 1, n] - np.sqrt(n + 1)))
        worst = max(worst, abs(elem - mat[n + 1, n]))
    ok = worst < 1e-12
    _report(3, "ladder factor", ok, f"max |<n+1|b+|n> - sqrt(n+1)| = {worst:.2e}")


def test_criterion_04_teleportation():
    start = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    worst = 1.0
    for resource in BellKind:
        table = derive_correction_table(resource, rng)
        for _ in range(100):
            alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
            norm = np.linalg.norm([alpha, beta])
            target = from_amplitudes([alpha / norm, beta / norm], 1)
            state = teleport_input_state(alpha, beta, resource)
            branches = bell_branches(state.primary, 3, (0, 1))
            for kind in BellKind:
                remote = from_amplitudes(branches[kind], 1)
                corrected = apply_unitary(remote, [0], table[kind])
                worst = min(worst, fidelity(corrected, target))
    elapsed = time.perf_counter() - start
    ok = worst > 1.0 - 1e-10 and elapsed < 10.0
    _report(4, "teleportation", ok,
            f"min corrected fidelity {worst:.12f} over 100x4x4, {elapsed:.1f}s")


def test_criterion_05_decomposition_oracle():
    rng = np.random.default_rng(RNG_SEED)
    alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
    tele = teleport_decomposition(alpha, beta)
    phi_ok = (tele["branch_residuals"]["phi-plus"] < 1e-12
              and tele["branch_residuals"]["phi-minus"] < 1e-12)
    psi_flagged = (tele["branch_verdicts"]["psi-plus"] == "erratum"
                   and tele["branch_verdicts"]["psi-minus"] == "erratum")
    swap = swap_decomposition()
    swap2 = swap_decomposition()
    deterministic = (swap["verdict"] == swap2["verdict"]
                     and swap["reassembly_residual"] == swap2["reassembly_residual"])
    ok = (phi_ok and psi_flagged
          and tele["reassembly_residual"] < 1e-12
          and swap["reassembly_residual"] < 1e-12
          and swap["verdict"] == "match" and deterministic)
    _report(5, "decomposition oracle", ok,
            f"phi residuals < 1e-12: {phi_ok}, psi flagged: {psi_flagged}, "
            f"reassembly {tele['reassembly_residual']:.2e}/"
            f"{swap['reassembly_residual']:.2e}, swap verdict {swap['verdict']}")


def test_criterion_06_entanglement_swap():
    rng = np.random.default_rng(RNG_SEED)
    shots = 10_000
    counts = {kind: 0 for kind in BellKind}
    worst = 1.0
    seen = set()
    # every run reads the literal map; each prediction must be the derived map's
    mapping = swap_outcome_map()
    derived_ok = True
    for _ in range(shots):
        res = run_entanglement_swap(rng)
        counts[res.outcome] += 1
        seen.add(res.outcome)
        worst = min(worst, res.fidelity_with_prediction)
        derived_ok &= res.predicted_remote_kind == mapping[res.outcome]
    sigma = np.sqrt(0.25 * 0.75 / shots)
    freq_ok = all(abs(counts[k] / shots - 0.25) < 3.0 * sigma for k in BellKind)
    ok = worst > 1.0 - 1e-10 and freq_ok and len(seen) == 4 and derived_ok
    fr = {k.value: counts[k] / shots for k in BellKind}
    _report(6, "entanglement swap", ok,
            f"min fidelity {worst:.12f}, frequencies {fr}")


def test_criterion_07_entangled_vs_product_readout():
    rng = np.random.default_rng(RNG_SEED)
    shots = 10_000
    ent = entangled_readout_demo(shots, rng)
    prod = product_state_demo(shots, rng)
    bound = 4.0 / np.sqrt(shots)
    ok = (ent.correlation == 1.0
          and prod.tvd_z < bound and prod.tvd_x < bound)
    _report(7, "entangled vs product readout", ok,
            f"correlation {ent.correlation}, tvd_z {prod.tvd_z:.4f}, "
            f"tvd_x {prod.tvd_x:.4f} (bound {bound:.4f})")


def test_criterion_08_schrodinger_evolution():
    start = time.perf_counter()
    # free packet over one dispersion doubling time
    sigma0 = 0.5
    t_double = 2.0 * np.sqrt(3.0) * sigma0 ** 2  # sigma(t) = 2 sigma0
    grid = gaussian_packet(-12, 12, 1024, sigma=sigma0)
    steps = 2000
    out = evolve(grid, Potential.zero(grid), t_double / steps, steps)
    prob = np.abs(out.psi_primary) ** 2 * out.dx
    mean = float(np.sum(out.x * prob))
    width = float(np.sqrt(np.sum((out.x - mean) ** 2 * prob)))
    width_err = abs(width - 2.0 * sigma0) / (2.0 * sigma0)

    # harmonic ground state held fixed over 10^3 steps
    ground = gaussian_packet(-8, 8, 1024, sigma=np.sqrt(0.5))
    held = evolve(ground, Potential.harmonic(ground), 1e-4, 1000)
    drift = float(np.max(np.abs(np.abs(held.psi_primary)
                                - np.abs(ground.psi_primary))))
    norm_drift = abs(held.norm() - 1.0)
    elapsed = time.perf_counter() - start
    ok = (width_err < 0.01 and drift < 1e-6 and norm_drift < 1e-8
          and elapsed < 30.0)
    _report(8, "schrodinger evolution", ok,
            f"width error {width_err:.2e}, modulus drift {drift:.2e}, "
            f"norm drift {norm_drift:.2e}, {elapsed:.1f}s")


def test_criterion_09_collapse_statistics():
    rng = np.random.default_rng(RNG_SEED)
    shots = 10_000
    grid = gaussian_packet(-6, 6, 512, sigma=1.2, x0=0.4)
    part = ZonePartition.equal_zones(512, 4)
    edges = part.edges(512)
    probs = np.array([np.sum(np.abs(grid.psi_primary[a:b]) ** 2) * grid.dx
                      for a, b in zip(edges, edges[1:])])
    probs = probs / probs.sum()
    counts = np.zeros(4)
    confinement_exact = True
    for _ in range(shots):
        zone, collapsed = collapse_detect(grid, part, rng)
        counts[zone] += 1
        outside = np.ones(512, dtype=bool)
        outside[edges[zone]:edges[zone + 1]] = False
        if np.any(collapsed.psi_primary[outside] != 0):
            confinement_exact = False
    chi = stats.chisquare(counts, probs * shots)
    ok = chi.pvalue > 0.001 and confinement_exact
    _report(9, "collapse statistics", ok,
            f"chi-square p = {chi.pvalue:.4f}, confinement exact: "
            f"{confinement_exact}")


def test_criterion_10_double_slit():
    rng = np.random.default_rng(RNG_SEED)
    geometry = SlitGeometry(separation=5.0, width=0.1, distance=100.0)
    wavelength = 0.05
    res = double_slit_accumulate(geometry, shots=10_000, bins=64, rng=rng,
                                 wavelength=wavelength)
    # expected counts from the independent closed-form screen intensity,
    # integrated bin by bin over the sampling window
    fine = np.linspace(res.bin_edges[0], res.bin_edges[-1], 64 * 200)
    analytic = analytic_screen_intensity(fine, geometry, wavelength)
    idx = np.clip(np.searchsorted(res.bin_edges, fine, side="right") - 1,
                  0, 63)
    expected = np.bincount(idx, weights=analytic, minlength=64)
    expected = expected / expected.sum() * res.counts.sum()
    chi = stats.chisquare(res.counts, expected)

    vis_analytic = fringe_visibility(fine, analytic, res.fringe_spacing)
    vis_err = abs(res.visibility - vis_analytic) / vis_analytic
    single = double_slit_accumulate(geometry, shots=10, bins=64,
                                    rng=np.random.default_rng(RNG_SEED),
                                    wavelength=wavelength, slits="left")
    ok = chi.pvalue > 0.001 and vis_err < 0.02 and single.visibility < 0.05
    _report(10, "double slit", ok,
            f"chi-square p = {chi.pvalue:.4f}, visibility {res.visibility:.4f} "
            f"vs {vis_analytic:.4f} (err {vis_err:.2e}), single-slit "
            f"visibility {single.visibility:.4f}")


def test_criterion_11_cli_determinism():
    configs = [
        ["teleport", "--seed", "7", "--shots", "50",
         "--alpha", "0.6", "--beta", "0.8i"],
        ["doubleslit", "--seed", "3", "--shots", "500", "--bins", "32"],
        ["collapse", "--seed", "11", "--shots", "200", "--zones", "4"],
    ]
    identical = True
    for argv in configs:
        cmd = [sys.executable, "-m", "shadowsim.cli", *argv]
        a = subprocess.run(cmd, capture_output=True, check=True)
        b = subprocess.run(cmd, capture_output=True, check=True)
        if a.stdout != b.stdout:
            identical = False
    _report(11, "cli determinism", identical,
            f"{len(configs)} configs, byte-identical: {identical}")
