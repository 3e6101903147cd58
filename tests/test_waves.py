import numpy as np
import pytest
from scipy import stats
from scipy.stats import norm

from shadowsim.waves import (
    DoubleSlitResult,
    Potential,
    SlitGeometry,
    WaveGrid,
    ZonePartition,
    analytic_screen_intensity,
    collapse_detect,
    double_slit_accumulate,
    evolve,
    free_propagate,
    fringe_visibility,
    from_samples,
    gaussian_packet,
    zone_coefficients,
    zone_profile,
)


def packet_width(grid):
    dens = np.abs(grid.psi_primary) ** 2 * grid.dx
    mean = np.sum(grid.x * dens)
    return np.sqrt(np.sum((grid.x - mean) ** 2 * dens))


# --- construction ----------------------------------------------------------------

def test_gaussian_packet_normalized():
    grid = gaussian_packet(-20, 20, 512, sigma=1.0)
    assert grid.norm() == pytest.approx(1.0, abs=1e-10)
    assert grid.mirror_deviation() == 0.0


@pytest.mark.parametrize("scale", [1e-160, 1e-300])
def test_tiny_samples_normalize(scale):
    # their squares underflow; an exact power-of-two scale comes first
    samples = np.exp(-np.linspace(-3.0, 3.0, 64) ** 2)
    grid = from_samples(-4.0, 4.0, scale * samples)
    assert grid.norm() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(grid.psi_primary,
                               from_samples(-4.0, 4.0, samples).psi_primary, rtol=1e-14)


def test_grid_validation():
    psi = np.ones(8, dtype=complex)
    with pytest.raises(ValueError):
        WaveGrid(-1.0, 1.0, psi, psi.copy())  # too few points
    with pytest.raises(ValueError):
        from_samples(0.0, 0.0, np.ones(32))  # empty interval -> bad norm
    with pytest.raises(ValueError):
        from_samples(-1.0, 1.0, np.zeros(32))
    for x_max in (1e-320, 1e-300):  # a subnormal cell width, and a subnormal square
        with pytest.raises(ValueError, match="smallest normal float"):
            from_samples(0.0, x_max, np.ones(64))


def test_potential_validation():
    with pytest.raises(ValueError):
        Potential([0.0, np.inf])


# --- evolution ----------------------------------------------------------------------

def test_zero_steps_identity():
    grid = gaussian_packet(-20, 20, 256)
    assert evolve(grid, Potential.zero(grid), 0.01, 0) is grid


def test_free_packet_dispersion():
    # closed-form oracle: sigma(t) = sigma0 sqrt(1 + (t / 2 m sigma0^2)^2)
    sigma0 = 1.0
    grid = gaussian_packet(-20, 20, 1024, sigma=sigma0)
    dt, steps = 0.002, 1000
    out = evolve(grid, Potential.zero(grid), dt, steps)
    t = dt * steps
    expected = sigma0 * np.sqrt(1.0 + (t / (2.0 * sigma0 ** 2)) ** 2)
    assert abs(packet_width(out) - expected) / expected < 0.01


def test_harmonic_ground_state_stationary():
    # ground state of the unit oscillator: exp(-x^2/2), i.e. sigma = 1/sqrt(2)
    grid = gaussian_packet(-8, 8, 1024, sigma=np.sqrt(0.5))
    v = Potential.harmonic(grid)
    out = evolve(grid, v, 1e-4, 1000)
    drift = np.max(np.abs(np.abs(out.psi_primary) - np.abs(grid.psi_primary)))
    assert drift < 1e-6


def test_harmonic_phase_advance():
    # ground-state energy 0.5: the phase rotates as exp(-i t / 2)
    grid = gaussian_packet(-8, 8, 1024, sigma=np.sqrt(0.5))
    out = evolve(grid, Potential.harmonic(grid), 1e-4, 1000)
    t = 1e-4 * 1000
    center = out.points // 2
    phase = out.psi_primary[center] / grid.psi_primary[center]
    assert phase == pytest.approx(np.exp(-0.5j * t), abs=1e-5)


def test_norm_drift_bounded():
    grid = gaussian_packet(-20, 20, 512, sigma=1.0)
    v = Potential(0.3 * np.cos(grid.x))
    out = evolve(grid, v, 0.002, 1000)
    assert abs(1.0 - out.norm()) < 1e-8


def test_shadow_lockstep_through_evolution():
    grid = gaussian_packet(-20, 20, 512, sigma=1.5, k0=1.0)
    out = evolve(grid, Potential.harmonic(grid), 0.001, 500)
    assert out.mirror_deviation() < 1e-10


def test_evolution_linearity():
    grid1 = gaussian_packet(-20, 20, 256, x0=-2.0)
    grid2 = gaussian_packet(-20, 20, 256, x0=2.0)
    v = Potential.harmonic(grid1)
    a, b = 0.6, 0.8j
    combo = from_samples(-20, 20, a * grid1.psi_primary + b * grid2.psi_primary)
    scale = np.linalg.norm(a * grid1.psi_primary + b * grid2.psi_primary) \
        * np.sqrt(grid1.dx)
    out_combo = evolve(combo, v, 0.002, 200)
    out1 = evolve(grid1, v, 0.002, 200)
    out2 = evolve(grid2, v, 0.002, 200)
    lhs = out_combo.psi_primary * scale
    rhs = a * out1.psi_primary + b * out2.psi_primary
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_time_reversal():
    grid = gaussian_packet(-20, 20, 512, sigma=1.0, k0=2.0)
    v = Potential.harmonic(grid)
    forward = evolve(grid, v, 0.002, 300)
    back = evolve(forward, v, -0.002, 300)
    assert np.max(np.abs(back.psi_primary - grid.psi_primary)) < 1e-8


def test_hard_wall_boundary():
    grid = gaussian_packet(-20, 20, 512, sigma=1.0)
    out = evolve(grid, Potential.zero(grid), 0.002, 100, boundary="hard-wall")
    assert abs(1.0 - out.norm()) < 1e-8
    with pytest.raises(ValueError):
        evolve(grid, Potential.zero(grid), 0.002, 10, boundary="open")


def test_free_propagate_matches_closed_form():
    sigma0 = 0.5
    grid = gaussian_packet(-40, 40, 4096, sigma=sigma0)
    t = 2.0
    out = free_propagate(grid, t)
    tau = 1.0 + 1j * t / (2.0 * sigma0 ** 2)
    expected = ((2.0 * np.pi * sigma0 ** 2) ** (-0.25) / np.sqrt(tau)
                * np.exp(-out.x ** 2 / (4.0 * sigma0 ** 2 * tau)))
    assert np.max(np.abs(out.psi_primary - expected)) < 1e-8


# --- zone partitions -----------------------------------------------------------------

def test_partition_validation():
    with pytest.raises(ValueError):
        ZonePartition(())
    with pytest.raises(ValueError):
        ZonePartition((5, 5))
    with pytest.raises(ValueError):
        ZonePartition((0, 5))
    part = ZonePartition((600,))
    with pytest.raises(ValueError):
        part.slices(512)


@pytest.mark.parametrize("zones", [513, 600])
def test_more_zones_than_points_names_both_counts(zones):
    with pytest.raises(ValueError, match=f"^{zones} zones do not fit on a grid of 512 points$"):
        ZonePartition.equal_zones(512, zones)
    assert ZonePartition.equal_zones(512, 512).zone_count == 512


def test_symmetric_split_half_half():
    grid = gaussian_packet(-8, 8, 512, sigma=1.0)
    part = ZonePartition.equal_zones(512, 2)
    c = zone_coefficients(grid, part)
    assert abs(c[0]) ** 2 == pytest.approx(0.5, abs=1e-10)
    assert abs(c[1]) ** 2 == pytest.approx(0.5, abs=1e-10)


def test_confined_packet_single_zone():
    grid = gaussian_packet(-8, 8, 512, x0=-6.0, sigma=0.3)
    part = ZonePartition.equal_zones(512, 2)
    c = zone_coefficients(grid, part)
    assert abs(c[0]) == pytest.approx(1.0, abs=1e-8)
    assert abs(c[1]) == pytest.approx(0.0, abs=1e-8)


def test_four_zone_gaussian_cdf_oracle():
    # |psi|^2 of the packet is a normal density with std sigma; zone weights
    # are CDF differences evaluated by the error function
    sigma = 1.0
    grid = gaussian_packet(-8, 8, 2048, sigma=sigma)
    part = ZonePartition.equal_zones(2048, 4)
    c = zone_coefficients(grid, part)
    edges = [-8, -4, 0, 4, 8]
    for i in range(4):
        expected = norm.cdf(edges[i + 1], scale=sigma) - norm.cdf(edges[i], scale=sigma)
        assert abs(c[i]) ** 2 == pytest.approx(expected, abs=1e-4)


def test_coefficients_sum_to_one():
    grid = gaussian_packet(-8, 8, 512, sigma=1.3, k0=0.7)
    part = ZonePartition.equal_zones(512, 5)
    c = zone_coefficients(grid, part)
    assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_zone_profiles_unit_norm():
    grid = gaussian_packet(-8, 8, 512, sigma=1.0)
    part = ZonePartition.equal_zones(512, 4)
    for i in range(4):
        prof = zone_profile(grid, part, i)
        assert np.sum(np.abs(prof) ** 2) * grid.dx == pytest.approx(1.0, abs=1e-12)


# --- collapse ----------------------------------------------------------------------

def test_collapse_support_confinement():
    rng = np.random.default_rng(7)
    grid = gaussian_packet(-8, 8, 512, sigma=1.0)
    part = ZonePartition.equal_zones(512, 4)
    for _ in range(25):
        zone, collapsed = collapse_detect(grid, part, rng)
        slices = part.slices(512)
        for k, s in enumerate(slices):
            seg = collapsed.psi_primary[s]
            if k == zone:
                assert np.sum(np.abs(seg) ** 2) * grid.dx == pytest.approx(
                    1.0, abs=1e-10)
            else:
                assert np.max(np.abs(seg)) == 0.0
        assert collapsed.mirror_deviation() == 0.0


def test_collapse_idempotent():
    rng = np.random.default_rng(9)
    grid = gaussian_packet(-8, 8, 512, sigma=1.0)
    part = ZonePartition.equal_zones(512, 4)
    zone, collapsed = collapse_detect(grid, part, rng)
    for _ in range(10):
        zone2, collapsed2 = collapse_detect(collapsed, part, rng)
        assert zone2 == zone
        assert np.max(np.abs(collapsed2.psi_primary - collapsed.psi_primary)) < 1e-12


def test_two_zone_statistics():
    rng = np.random.default_rng(17)
    grid = gaussian_packet(-8, 8, 512, sigma=1.0)
    part = ZonePartition.equal_zones(512, 2)
    shots = 4000
    left = sum(collapse_detect(grid, part, rng)[0] == 0 for _ in range(shots))
    sigma3 = 3.0 * np.sqrt(0.25 / shots)
    assert abs(left / shots - 0.5) < sigma3


def test_collapse_retains_interior_phase():
    grid = gaussian_packet(-8, 8, 512, sigma=1.0, k0=2.0)
    part = ZonePartition.equal_zones(512, 2)
    prof = zone_profile(grid, part, 0)
    s = part.slices(512)[0]
    ratio = prof[s] / grid.psi_primary[s]
    assert np.max(np.abs(ratio - ratio[0])) < 1e-12


# --- double slit ----------------------------------------------------------------------

GEOM = SlitGeometry(separation=5.0, width=0.1, distance=100.0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        SlitGeometry(1.0, 2.0, 100.0)  # apertures overlap
    with pytest.raises(ValueError):
        SlitGeometry(5.0, 0.1, 20.0)  # not far field
    with pytest.raises(ValueError):
        SlitGeometry(-1.0, 0.1, 100.0)


@pytest.mark.parametrize("field", ["separation", "width", "distance"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_geometry_rejects_non_finite_fields(field, value):
    values = {"separation": 5.0, "width": 0.1, "distance": 100.0, field: value}
    with pytest.raises(ValueError, match=r"^slit geometry values must be positive and "
                                         r"finite: SlitGeometry\("):
        SlitGeometry(**values)


def test_two_slit_visibility_matches_analytic():
    res = double_slit_accumulate(GEOM, 100, 64, np.random.default_rng(0))
    x = res.screen_grid.x
    analytic = analytic_screen_intensity(x, GEOM, 0.05)
    expected = fringe_visibility(x, analytic, res.fringe_spacing)
    assert abs(res.visibility - expected) / expected < 0.02
    assert res.visibility > 0.9


def test_narrow_slit_cos_squared_minima():
    # w -> 0 idealization: fringe minima sit at odd half-multiples of the
    # spacing and the intensity there vanishes
    geom = SlitGeometry(separation=5.0, width=0.02, distance=200.0)
    wavelength = 0.05
    spacing = wavelength * geom.distance / geom.separation
    x = np.linspace(-2 * spacing, 2 * spacing, 2001)
    intensity = analytic_screen_intensity(x, geom, wavelength)
    minima = np.array([-1.5, -0.5, 0.5, 1.5]) * spacing
    imax = intensity.max()
    for m in minima:
        assert intensity[np.argmin(np.abs(x - m))] / imax < 1e-3
    assert fringe_visibility(x, intensity, spacing) > 0.999


def test_single_slit_no_fringes():
    res = double_slit_accumulate(GEOM, 100, 64, np.random.default_rng(1),
                                 slits="left")
    assert res.visibility < 0.05


def test_histogram_chi_square_against_analytic():
    res = double_slit_accumulate(GEOM, 10000, 64, np.random.default_rng(4))
    # oracle: integrate the closed-form intensity over each bin
    edges = res.bin_edges
    fine = np.linspace(edges[0], edges[-1], 64 * 200)
    intensity = analytic_screen_intensity(fine, GEOM, 0.05)
    idx = np.clip(np.searchsorted(edges, fine, side="right") - 1, 0, 63)
    probs = np.bincount(idx, weights=intensity, minlength=64)
    probs /= probs.sum()
    keep = probs * res.counts.sum() >= 5.0
    expected = probs[keep] / probs[keep].sum() * res.counts[keep].sum()
    chi = stats.chisquare(res.counts[keep], expected)
    assert chi.pvalue > 0.001


def test_shadow_lockstep_through_slit_run():
    res = double_slit_accumulate(GEOM, 10, 16, np.random.default_rng(2))
    assert res.screen_grid.mirror_deviation() < 1e-10


def test_double_slit_validation():
    with pytest.raises(ValueError):
        double_slit_accumulate(GEOM, 0, 16, np.random.default_rng(0))
    with pytest.raises(ValueError):
        double_slit_accumulate(GEOM, 10, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        double_slit_accumulate(GEOM, 10, 16, np.random.default_rng(0), slits="top")


def test_packet_at_or_past_the_nyquist_wave_number_is_rejected():
    # pi/dx is 80.42 on the default 1024-point grid over [-20, 20]
    nyquist = np.pi / (40.0 / 1024)
    assert gaussian_packet(-20, 20, 1024, k0=-80.0).norm() == pytest.approx(1.0)
    for k0 in (nyquist, -nyquist, 100.0, 1e6):
        with pytest.raises(ValueError, match=r"\|k0\| must be below the grid's Nyquist "
                                             r"wave number pi/dx = 80\.4248"):
            gaussian_packet(-20, 20, 1024, k0=k0)


def test_evolve_rejects_negative_steps():
    grid = gaussian_packet(-8, 8, 64)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        evolve(grid, Potential.zero(grid), 0.01, -1)


def test_evolve_rejects_a_potential_of_the_wrong_length():
    grid = gaussian_packet(-8, 8, 64)
    with pytest.raises(ValueError, match="potential length must match the grid"):
        evolve(grid, Potential(np.zeros(65)), 0.01, 1)


def test_equal_zones_needs_two_zones():
    with pytest.raises(ValueError, match="need at least two zones"):
        ZonePartition.equal_zones(64, 1)


def test_zone_profile_of_a_zero_weight_zone_is_rejected():
    grid = from_samples(-8, 8, np.r_[np.ones(32), np.zeros(32)])
    with pytest.raises(ValueError, match="zone 1 has zero weight"):
        zone_profile(grid, ZonePartition.equal_zones(64, 2), 1)


def test_right_slit_is_the_left_slit_mirrored():
    geometry = SlitGeometry(separation=5.0, width=0.1, distance=100.0)
    x = np.linspace(-40.0, 40.0, 801)
    right = analytic_screen_intensity(x, geometry, 0.05, "right")
    assert np.array_equal(right, analytic_screen_intensity(-x, geometry, 0.05, "left"))
    assert not np.array_equal(right, analytic_screen_intensity(x, geometry, 0.05, "left"))


def test_unknown_slit_selection_is_rejected():
    geometry = SlitGeometry(separation=5.0, width=0.1, distance=100.0)
    with pytest.raises(ValueError, match="unknown slit selection 'middle'"):
        analytic_screen_intensity(np.zeros(3), geometry, 0.05, "middle")
