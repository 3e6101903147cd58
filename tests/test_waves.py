import numpy as np
import pytest
from scipy import stats
from scipy.stats import norm

from shadowsim.waves import (
    SLIT_CLEARANCE,
    DoubleSlitResult,
    Potential,
    SlitGeometry,
    WaveGrid,
    ZonePartition,
    analytic_screen_intensity,
    collapse_detect,
    collapse_to,
    double_slit_accumulate,
    evolve,
    free_propagate,
    fringe_visibility,
    from_samples,
    gaussian_packet,
    zone_coefficients,
    zone_profile,
)
from shadowsim.waves import _evolved_gaussian


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
        part.edges(512)


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


@pytest.mark.parametrize("points,cuts", [
    (512, ZonePartition.equal_zones(512, 4).cut_indices),
    (1000, ZonePartition.equal_zones(1000, 7).cut_indices),
    (4096, ZonePartition.equal_zones(4096, 3).cut_indices),
    (4096, ZonePartition.equal_zones(4096, 4096).cut_indices),
    (300, (1, 7, 100, 101, 250)),
])
def test_zone_weights_are_each_slice_summed_alone(points, cuts):
    # the zones of one size are summed as one block; each weight must keep the
    # bits of np.sum over its slice, which sums pairwise
    rng = np.random.default_rng(points)
    grid = from_samples(-3.0, 5.0, rng.normal(size=points) + 1j * rng.normal(size=points))
    part = ZonePartition(cuts)
    edges = (0, *cuts, points)
    expected = np.array([np.sum(np.abs(grid.psi_primary[a:b]) ** 2) * grid.dx
                         for a, b in zip(edges, edges[1:])])
    assert np.array_equal(zone_coefficients(grid, part), np.sqrt(expected).astype(complex))


# --- collapse ----------------------------------------------------------------------

def test_collapse_support_confinement():
    rng = np.random.default_rng(7)
    grid = gaussian_packet(-8, 8, 512, sigma=1.0)
    part = ZonePartition.equal_zones(512, 4)
    for _ in range(25):
        zone, collapsed = collapse_detect(grid, part, rng)
        edges = part.edges(512)
        for k, (a, b) in enumerate(zip(edges, edges[1:])):
            seg = collapsed.psi_primary[a:b]
            if k == zone:
                assert np.sum(np.abs(seg) ** 2) * grid.dx == pytest.approx(
                    1.0, abs=1e-10)
            else:
                assert np.max(np.abs(seg)) == 0.0
        assert collapsed.mirror_deviation() == 0.0


def test_collapse_projects_the_shadow_row():
    # a shadow inside the mirror tolerance of its primary, not equal to it:
    # the collapsed shadow is the shadow's own profile, not the primary's
    grid = gaussian_packet(-8, 8, 512, sigma=1.0, k0=0.5)
    x = grid.x
    shadow = grid.psi_primary * (1.0 + 1e-11 * np.cos(3.0 * x))
    assert np.max(np.abs(shadow - grid.psi_primary)) < 1e-10
    tilted = WaveGrid(grid.x_min, grid.x_max, grid.psi_primary, shadow)
    part = ZonePartition.equal_zones(512, 4)
    for zone in range(4):
        a, b = part.edges(512)[zone:zone + 2]
        expected = np.zeros(512, dtype=complex)
        expected[a:b] = shadow[a:b] / np.sqrt(np.sum(np.abs(shadow[a:b]) ** 2) * grid.dx)
        collapsed = collapse_to(tilted, part, zone)
        assert np.max(np.abs(collapsed.psi_shadow - expected)) < 1e-15
        assert np.array_equal(collapsed.psi_primary, zone_profile(tilted, part, zone))
        assert collapsed.mirror_deviation() > 0.0


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
    s = slice(*part.edges(512)[:2])
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


@pytest.mark.parametrize("width", [0.1, 1.0, 2.0])
def test_two_slit_closed_form_integrates_to_one(width):
    # the two apertures overlap by exp(-separation^2 / (8 width^2)), 0.044 at
    # width 1, so dividing their sum by sqrt(2) would give 1.044
    geometry = SlitGeometry(separation=5.0, width=width, distance=100.0)
    x = np.linspace(-40.0, 40.0, 16001)
    intensity = analytic_screen_intensity(x, geometry, 0.05)
    assert np.sum(intensity) * (x[1] - x[0]) == pytest.approx(1.0, abs=1e-9)


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


@pytest.mark.parametrize("slits", ["both", "left"])
@pytest.mark.parametrize("width, wavelength", [(0.1, 0.01), (0.1, 0.007), (0.1, 0.005),
                                               (1.0, 0.005)])
def test_short_wavelength_screens_match_the_closed_form(width, wavelength, slits):
    # each open slit sits SLIT_CLEARANCE screen widths s = hypot(width, spread)
    # >= width inside the periodic domain's edges, so beyond them lies at most
    # q = P(|Z| > SLIT_CLEARANCE) of its aperture's norm and of its screen
    # packet's. Propagation is unitary, so over the domain the propagated state
    # differs from the closed form by the cut aperture tails and the wrapped
    # screen tails, each at most sqrt(2 q) per unit-norm slit, summed over n
    # slits of weight <= 1/sqrt(n), and by renormalizing what is left, 1 - n q
    geometry = SlitGeometry(separation=5.0, width=width, distance=100.0)
    res = double_slit_accumulate(geometry, 10, 16, np.random.default_rng(0),
                                 wavelength=wavelength, slits=slits)
    screen = res.screen_grid
    t = geometry.distance * wavelength / (2.0 * np.pi)
    centres = (-2.5, 2.5) if slits == "both" else (-2.5,)
    n = len(centres)
    # the two apertures' amplitudes overlap by exp(-separation^2 / (8 width^2))
    overlap = (n - 1) * np.exp(-(geometry.separation ** 2) / (8.0 * width ** 2))
    exact = sum(_evolved_gaussian(screen.x, t, x0, width) for x0 in centres)
    exact /= np.sqrt(n * (1.0 + overlap))
    error = np.sqrt(np.sum(np.abs(screen.psi_primary - exact) ** 2) * screen.dx)
    q = 2.0 * norm.sf(SLIT_CLEARANCE)
    renormalizing = 1.0 / np.sqrt(1.0 - n * q)
    assert error <= 2.0 * np.sqrt(2.0 * n * q) * renormalizing + renormalizing - 1.0


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
