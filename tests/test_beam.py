"""Beam synthesis: phase profiles, cubic-phase codewords, field rendering."""

import functools
import itertools
import math

import numpy as np
import pytest
from scipy import special

from airylink.beam import (
    BeamParams,
    BeamVector,
    FieldMap,
    GridSpec,
    airy_beam_vector,
    curving_factors,
    focus_terms,
    focusing_beam_vector,
    focusing_phase,
    render_aperture_field_map,
    render_field_map,
    steering_beam_vector,
)
from airylink.codebook import (
    angle_grid,
    build_hierarchical_codebooks,
    build_los_region_points,
    solve_sampling_plan,
)
from airylink.scenario import (
    ArrayConfig,
    BlockageGeometry,
    CarrierConfig,
    ScenarioConfig,
    element_positions,
    half_wavelength_array,
)

CAR = CarrierConfig(140e9)


def test_beam_params_validation():
    BeamParams(0.0, 1.0, 0.0)
    BeamParams(-3.0, math.inf, 0.5)  # steering: infinite focus allowed
    with pytest.raises(ValueError):
        BeamParams(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        BeamParams(0.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        BeamParams(0.0, 1.0, math.pi / 2)


@pytest.mark.parametrize("bad, message", [
    ((0.0, 0.0, 0.0), "focus_distance"),
    ((0.0, -1.0, 0.0), "focus_distance"),
    ((0.0, math.nan, 0.0), "focus_distance"),
    ((0.0, 1.0, math.pi / 2), "focus_angle"),
    ((0.0, 1.0, -math.pi / 2), "focus_angle"),
    ((0.0, 1.0, math.nan), "focus_angle"),
])
def test_beam_matrix_applies_beam_params_rules_to_every_row(bad, message):
    # the focus factors check every point; the bad one sits in a later
    # synthesis block
    arr = half_wavelength_array(8, CAR)
    rows = [(0.0, 1.0, 0.0)] * 70 + [bad]
    with pytest.raises(ValueError, match=message):
        BeamParams(*bad)
    _, r, theta = np.array(rows).T
    with pytest.raises(ValueError, match=message):
        focus_terms(r, theta, arr, CAR)
    assert focus_terms(r[:-1], theta[:-1], arr, CAR).columns(0, 70).shape == (8, 70)
    assert focus_terms([], [], arr, CAR).columns(0, 0).shape == (8, 0)
    assert curving_factors([], arr, CAR).shape == (8, 0)


def _per_column_focus_factors(r, theta, arr):
    """The slow reference: one `_focus_factor` per column, on scalar `_focus_terms`."""
    from airylink.beam import _focus_factor, _focus_terms

    y = element_positions(arr)
    cols = [_focus_factor(y, *_focus_terms(a, b), CAR.wavelength)
            for a, b in zip(np.asarray(r, dtype=float).tolist(),
                            np.asarray(theta, dtype=float).tolist())]
    return np.stack(cols, axis=1) if cols else np.empty((y.size, 0), dtype=complex)


def _mirrored_columns(r, theta):
    """How many columns the fast path copies from a partner instead of synthesizing."""
    from airylink.beam import _focus_term_columns, _mirror_partners

    r, theta = np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
    return int((_mirror_partners(*_focus_term_columns(r, theta)) >= 0).sum())


def _readme_link(n_tx):
    sc = ScenarioConfig(half_wavelength_array(n_tx, CAR), half_wavelength_array(16, CAR),
                        CAR, 1.0)
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-10.0, 10.0),
                               r_min=0.14)
    return sc, plan


@functools.cache
def _focus_cases():
    half = CAR.wavelength / 2
    sc256, plan256 = _readme_link(256)
    stage1 = build_los_region_points(sc256, plan256)
    _, plan128 = _readme_link(128)
    grid = np.meshgrid(plan128.focus_distances, plan128.angles, indexing="ij")
    exhaustive = np.stack([g.ravel() for g in grid], axis=1)
    farfield = [(math.inf, th) for th in angle_grid(64)]
    symmetric = [(r, th) for r in (0.3, 1.0, math.inf) for th in (-0.4, -0.1, 0.0, 0.1, 0.4)]
    # an unpartnered negative angle, a partner at another distance only,
    # duplicates of both signs, -0.0 and 0.0, points out of order
    ragged = [(1.0, -0.2), (1.0, 0.3), (2.0, -0.3), (1.0, -0.3), (1.0, 0.3), (1.0, -0.3),
              (0.5, -0.0), (0.5, 0.0), (1.0, 0.05), (1.0, -0.05), (2.0, 0.3)]
    return {
        # the paper's 256-Tx hierarchical stage 1: 1,475 of 2,971 columns mirrored
        "stage1-256": (sc256.tx, stage1, 1475),
        "exhaustive-128": (half_wavelength_array(128, CAR), exhaustive,
                           plan128.focus_distances.size * int((plan128.angles < 0).sum())),
        "odd-n": (half_wavelength_array(17, CAR), symmetric, 6),
        # y[::-1] != -y: every column is synthesized
        "center-offset": (ArrayConfig(64, half, 0.003), symmetric, None),
        "farfield": (half_wavelength_array(64, CAR), farfield, 31),
        "ragged": (half_wavelength_array(32, CAR), ragged, 4),
        "empty": (half_wavelength_array(8, CAR), np.empty((0, 2)), 0),
    }


@pytest.mark.parametrize("name", ["stage1-256", "exhaustive-128", "odd-n", "center-offset",
                                  "farfield", "ragged", "empty"])
def test_mirrored_focus_factors_match_per_column_reference(name):
    arr, points, mirrored = _focus_cases()[name]
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    r, theta = points[:, 0], points[:, 1]
    y = element_positions(arr)
    if mirrored is None:
        assert not np.array_equal(y[::-1], -y)
    else:
        assert np.array_equal(y[::-1], -y)
        assert _mirrored_columns(r, theta) == mirrored
    terms = focus_terms(r, theta, arr, CAR)
    want = _per_column_focus_factors(r, theta, arr)
    assert np.array_equal(terms.columns(0, r.size), want)
    # any range, cutting mirror pairs or not, gives the same columns
    cuts = sorted({0, r.size, r.size // 3, r.size // 2, min(r.size, 2 * r.size // 3 + 1)})
    for lo, hi in itertools.combinations(cuts, 2):
        assert np.array_equal(terms.columns(lo, hi), want[:, lo:hi]), (lo, hi)
    for f in range(0, r.size, 7):
        assert np.array_equal(terms.at(f), want[:, f]), f
    # and any points at once, each synthesized alone
    picked = np.arange(r.size)[::-7]
    assert np.array_equal(terms.at(picked), want[:, picked])


def test_mirrored_book_words_are_their_beam_vectors():
    sc, plan = _readme_link(256)
    stage1, _ = build_hierarchical_codebooks(plan, sc)
    r, theta = stage1.focus_points.T
    mirrored = np.flatnonzero(theta < 0)
    assert _mirrored_columns(r, theta) == mirrored.size == 1475
    for t in mirrored.tolist():
        want = airy_beam_vector(BeamParams(*stage1.slot_params(t)), sc.tx, CAR).weights
        assert np.array_equal(stage1.word(t).weights, want), t


@pytest.mark.parametrize("column", [0, -1], ids=["first", "last"])
def test_focus_columns_refuse_a_synthesized_column_off_unit_norm(monkeypatch, column):
    # Only synthesized columns are checked for unit norm, since a mirrored
    # column reverses one of them; a synthesized column scaled by 2 must
    # still raise, wherever it sits in its block
    from airylink import beam

    arr, points, mirrored = _focus_cases()["odd-n"]
    r, theta = np.asarray(points, dtype=float).T
    terms = focus_terms(r, theta, arr, CAR)
    assert mirrored > 0 and terms.columns(0, r.size).shape == (17, r.size)
    real_cis = beam.cis

    def corrupted(theta, scale=1.0, out=None):
        values = real_cis(theta, scale, out)
        values[:, column] *= 2
        return values

    monkeypatch.setattr(beam, "cis", corrupted)
    with pytest.raises(ValueError, match="unit l2 norm"):
        terms.columns(0, r.size)


def test_focusing_phase_trivial():
    assert focusing_phase(0.0, 1.0, 0.0, CAR) == 0.0
    y = np.linspace(-0.1, 0.1, 11)
    ph = focusing_phase(y, 2.0, 0.0, CAR)
    np.testing.assert_allclose(ph, ph[::-1], atol=1e-12)  # even in y at theta=0


def test_focusing_phase_formula():
    y, r, th = 0.013, 0.9, 0.3
    expected = (2 * math.pi / CAR.wavelength) * (
        math.cos(th) ** 2 / (2 * r) * y**2 - math.sin(th) * y)
    assert focusing_phase(y, r, th, CAR) == pytest.approx(expected, rel=1e-15)


def test_focusing_phase_matches_exact_distance():
    # quadratic+linear phase approximates the exact path-length phase
    # (2pi/lambda)(r_i - r_o) with r_i from the cosine law; the gap is the
    # third-order Taylor remainder, O(k y^3 / r^2)
    r, th = 1.5, 0.25
    k = 2 * math.pi / CAR.wavelength
    for y in np.linspace(-0.12, 0.12, 25):
        exact = k * (math.sqrt(r**2 + y**2 - 2 * r * y * math.sin(th)) - r)
        approx = focusing_phase(y, r, th, CAR)
        bound = k * abs(y) ** 3 / r**2
        assert abs(approx - exact) <= bound + 1e-9


def test_steering_phase_is_infinite_focus_limit():
    y = np.linspace(-0.05, 0.05, 9)
    ph = focusing_phase(y, math.inf, 0.2, CAR)
    expected = -(2 * math.pi / CAR.wavelength) * math.sin(0.2) * y
    np.testing.assert_allclose(ph, expected, atol=1e-12)


def test_airy_beam_vector_constant_modulus_and_norm():
    arr = half_wavelength_array(64, CAR)
    for params in (BeamParams(0.0, 1.0, 0.0), BeamParams(2.5, 0.7, -0.4),
                   BeamParams(-4.0, math.inf, 0.9)):
        v = airy_beam_vector(params, arr, CAR)
        np.testing.assert_allclose(np.abs(v.weights), 1 / math.sqrt(64), atol=0)
        assert np.linalg.norm(v.weights) == pytest.approx(1.0, abs=1e-12)


def test_airy_reduces_to_focusing_at_zero_curving():
    arr = half_wavelength_array(32, CAR)
    a0 = airy_beam_vector(BeamParams(0.0, 0.8, 0.15), arr, CAR)
    foc = focusing_beam_vector(0.8, 0.15, arr, CAR)
    np.testing.assert_array_equal(a0.weights, foc.weights)


def test_airy_mirror_symmetry_exact():
    # element grid is exactly antisymmetric, so a -> -a reverses weights
    arr = half_wavelength_array(33, CAR)
    plus = airy_beam_vector(BeamParams(2.0, 0.5, 0.0), arr, CAR)
    minus = airy_beam_vector(BeamParams(-2.0, 0.5, 0.0), arr, CAR)
    np.testing.assert_array_equal(plus.weights, minus.weights[::-1])


def test_airy_phase_profile_matches_definition():
    arr = ArrayConfig(8, 0.001)
    params = BeamParams(3.0, 0.6, 0.2)
    v = airy_beam_vector(params, arr, CAR)
    y = element_positions(arr)
    lam = CAR.wavelength
    expected = (2 * math.pi / lam) * (
        3.0 * y**3 + math.cos(0.2) ** 2 / (2 * 0.6) * y**2 - math.sin(0.2) * y)
    got = np.angle(v.weights * math.sqrt(8))
    np.testing.assert_allclose(np.exp(1j * got), np.exp(1j * expected), atol=1e-12)


def test_steering_beam_vector():
    arr = half_wavelength_array(16, CAR)
    s = steering_beam_vector(0.3, arr, CAR)
    assert math.isinf(s.params.focus_distance)
    assert s.params.curving == 0.0
    np.testing.assert_allclose(np.abs(s.weights), 1 / 4.0, atol=0)


def test_grid_spec_validation():
    GridSpec(0.01, 1.0, 10, -0.1, 0.1, 10)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 10, -0.1, 0.1, 10)
    with pytest.raises(ValueError):
        GridSpec(0.5, 0.4, 10, -0.1, 0.1, 10)
    with pytest.raises(ValueError):
        GridSpec(0.01, 1.0, 10, -0.1, 0.1, 1)
    assert GridSpec(1.0, 1.0, 1, -0.1, 0.1, 10).x.tolist() == [1.0]  # one column
    with pytest.raises(ValueError):
        GridSpec(1.0, 1.0, 2, -0.1, 0.1, 10)
    # non-finite extents and non-integer counts fail early, naming the field
    for field, args in [("y_min", (0.1, 1.0, 10, math.nan, 0.1, 10)),
                        ("y_max", (0.1, 1.0, 10, -0.1, math.inf, 10)),
                        ("x_min", (-math.inf, 1.0, 10, -0.1, 0.1, 10)),
                        ("x_max", (0.1, math.nan, 10, -0.1, 0.1, 10)),
                        ("num_x", (0.1, 1.0, 10.0, -0.1, 0.1, 10)),
                        ("num_y", (0.1, 1.0, 10, -0.1, 0.1, 10.5)),
                        ("num_x", (0.1, 1.0, True, -0.1, 0.1, 10)),
                        ("num_x", (0.1, 1.0, 0, -0.1, 0.1, 10))]:
        with pytest.raises(ValueError, match=f"^{field}"):
            GridSpec(*args)
    assert GridSpec(0.1, 1.0, np.int64(3), -0.1, 0.1, 10).x.size == 3


def _scenario(n=64, d_link=1.0, blockage=None):
    arr = half_wavelength_array(n, CAR)
    return ScenarioConfig(arr, arr, CAR, d_link, blockage=blockage)


@pytest.mark.parametrize("bad, field", [
    ((math.nan, 1.0, 0.0), "curving"),
    ((math.inf, 1.0, 0.0), "curving"),
    ((-math.inf, math.inf, 0.0), "curving"),
    ((0.0, math.nan, 0.0), "focus_distance"),
    ((0.0, 1.0, math.nan), "focus_angle"),
])
def test_beam_params_message_starts_with_field(bad, field):
    # a non-finite curving is refused on construction, not later in the phasor
    with pytest.raises(ValueError, match=f"^{field} "):
        BeamParams(*bad)


def test_render_refuses_window_past_rx_plane_naming_x_max():
    sc = _scenario(16, 1.0)
    beam = focusing_beam_vector(1.0, 0.0, sc.tx, CAR)
    with pytest.raises(ValueError, match=r"^x_max must not exceed the link distance \(1\.0 m\)"):
        render_field_map(beam, sc, GridSpec(0.5, 1.5, 4, -0.01, 0.01, 4))
    # within the 1e-12 m rounding allowance the window still renders
    assert render_field_map(beam, sc, GridSpec(0.5, 1.0 + 1e-13, 2, -0.01, 0.01, 4)).x.size == 2


def test_focusing_beam_peak_on_target():
    # aperture large enough that the Fresnel focal shift is under a cell
    sc = _scenario(256, 1.0)
    beam = focusing_beam_vector(0.5, 0.0, sc.tx, CAR)
    grid = GridSpec(0.05, 1.0, 96, -0.06, 0.06, 97)
    fmap = render_field_map(beam, sc, grid)
    px, py = fmap.peak()
    dx = (grid.x_max - grid.x_min) / (grid.num_x - 1)
    dy = (grid.y_max - grid.y_min) / (grid.num_y - 1)
    assert abs(px - 0.5) <= dx + 1e-12
    assert abs(py - 0.0) <= dy + 1e-12


def test_field_map_mirror_symmetry():
    sc = _scenario(64, 1.0)
    grid = GridSpec(0.05, 1.0, 40, -0.08, 0.08, 41)
    up = render_field_map(airy_beam_vector(BeamParams(2.0, 1.0, 0.0), sc.tx, CAR), sc, grid)
    dn = render_field_map(airy_beam_vector(BeamParams(-2.0, 1.0, 0.0), sc.tx, CAR), sc, grid)
    np.testing.assert_allclose(up.power_db, dn.power_db[::-1, :], atol=1e-9)


def test_curving_displacement_monotone():
    # stronger cubic phase bends the terminal main lobe further off axis
    sc = _scenario(128, 1.0)
    grid = GridSpec(0.98, 1.0, 2, -0.15, 0.15, 301)
    offsets = []
    for a in (0.5, 1.0, 2.0, 4.0):
        beam = airy_beam_vector(BeamParams(a, 1.0, 0.0), sc.tx, CAR)
        col = render_field_map(beam, sc, grid).column_db(1.0)
        offsets.append(abs(grid.y[int(np.argmax(col))]))
    assert all(b > a for a, b in zip(offsets, offsets[1:])), offsets


def test_field_map_db_normalization_and_floor():
    sc = _scenario(32, 1.0)
    beam = focusing_beam_vector(0.5, 0.0, sc.tx, CAR)
    fmap = render_field_map(beam, sc, GridSpec(0.1, 1.0, 12, -0.2, 0.2, 13))
    assert fmap.power_db.max() == pytest.approx(0.0, abs=1e-12)
    assert fmap.power_db.min() >= FieldMap.DB_FLOOR - 1e-12
    assert np.all(np.isfinite(fmap.power_db))


def test_render_with_blockage_masks_shadow():
    blk = BlockageGeometry(0.4, 0.05, 0.0, 0.5)  # wall covers the lower half
    sc = _scenario(64, 1.0, blockage=blk)
    beam = focusing_beam_vector(1.0, 0.0, sc.tx, CAR)
    grid = GridSpec(0.05, 1.0, 50, -0.05, 0.05, 51)
    blocked = render_field_map(beam, sc, grid)
    clear = render_field_map(beam, sc.without_blockage(), grid)
    # every cell inside the screen reads the floor; unblocked, none does
    inside = np.ix_((grid.y >= blk.bottom_y) & (grid.y <= blk.top_y),
                    (grid.x >= blk.near_x) & (grid.x <= blk.far_x))
    assert blocked.power_db[inside].size > 0
    assert np.all(blocked.power_db[inside] == FieldMap.DB_FLOOR)
    assert np.all(clear.power_db[inside] > FieldMap.DB_FLOOR)
    # downstream of the wall the shadow side is much darker than the lit side
    col = blocked.column_db(0.6)
    lit = col[grid.y > 0.02].max()
    shadow = col[grid.y < -0.02].max()
    assert lit - shadow > 8.0
    # unblocked render stays symmetric instead
    col_clear = clear.column_db(0.6)
    sym_gap = abs(col_clear[grid.y > 0.02].max() - col_clear[grid.y < -0.02].max())
    assert sym_gap < 1.0


def test_render_with_fast_hankel_kernel_matches_scipy_kernel(monkeypatch):
    # 128 Tx through the blocked scenario, on the grid `airylink fieldmap`
    # renders by default; the reference render evaluates every Hankel value
    # with scipy
    from scipy import special

    from airylink import channel

    tx = half_wavelength_array(128, CAR)
    sc = ScenarioConfig(tx, half_wavelength_array(16, CAR), CAR, 1.0,
                        blockage=BlockageGeometry(0.9, 0.02, 0.005, 0.5))
    half = 1.5 * max(abs(v) for v in (*tx.span, *sc.rx.span))
    grid = GridSpec(1.0 / 200, 1.0, 200, -half, half, 200)
    beam = airy_beam_vector(BeamParams(2.0, 1.0, 0.0), sc.tx, CAR)
    fast = render_field_map(beam, sc, grid)
    monkeypatch.setattr(channel, "_hankel2_1", lambda z, scale=1.0, z_min=0.0, out=None:
                        np.multiply(special.hankel2(1, z), scale, out=out))
    ref = render_field_map(beam, sc, grid)
    assert fast.peak() == ref.peak()
    np.testing.assert_allclose(fast.power_db, ref.power_db, rtol=0, atol=1e-9)


def test_field_map_renders_do_not_depend_on_earlier_renders():
    # each render plans its sources and allocates its column buffers anew:
    # beam A rendered before and after beam B gives A's map bit for bit
    tx = half_wavelength_array(128, CAR)
    sc = ScenarioConfig(tx, half_wavelength_array(16, CAR), CAR, 1.0,
                        blockage=BlockageGeometry(0.9, 0.02, 0.005, 0.5))
    half = 1.5 * max(abs(v) for v in (*tx.span, *sc.rx.span))
    grid = GridSpec(1.0 / 200, 1.0, 200, -half, half, 200)
    a = airy_beam_vector(BeamParams(2.0, 1.0, 0.0), tx, CAR)
    b = airy_beam_vector(BeamParams(-7.5, 0.4, 0.2), tx, CAR)
    first = render_field_map(a, sc, grid).power_db
    other = render_field_map(b, sc, grid).power_db
    again = render_field_map(a, sc, grid).power_db
    assert not np.array_equal(first, other)
    assert np.array_equal(first, again)


def test_self_healing_airy_recovers_at_rx_plane():
    # obstruct the main lobe mid-path; the cubic-phase beam re-forms at x=D.
    # Absolute Rx-plane fields come from the wave channel (no per-map
    # normalization), so blocked and unblocked peaks are directly comparable.
    from airylink.channel import wcm_channel

    blk = BlockageGeometry(0.45, 0.02, 0.012, -0.004)
    sc = _scenario(128, 1.0, blockage=blk).with_virtual_defaults(8)
    w = airy_beam_vector(BeamParams(2.0, 1.0, 0.0), sc.tx, CAR).weights
    peak_blocked = np.max(np.abs(wcm_channel(sc).entries @ w))
    peak_clear = np.max(np.abs(wcm_channel(sc.without_blockage()).entries @ w))
    drop_db = 20 * math.log10(peak_clear / peak_blocked)
    assert 0.0 <= drop_db <= 6.0


def test_aperture_field_parabolic_trajectory():
    # amplitude-modulated reference aperture bends along a near-parabola
    sc = _scenario(256, 1.0)
    y_ap = element_positions(sc.tx)
    # the finite-energy Airy aperture Ai(y/s)·e^{b·y/s}, s = 7.2 mm, b = 0.05
    z = y_ap / 0.0072
    vals = (special.airy(z)[0] * np.exp(0.05 * z)).astype(complex)
    grid = GridSpec(0.2, 0.8, 25, -0.02, 0.1, 401)
    fmap = render_aperture_field_map(y_ap, vals, sc, grid)
    peaks = np.array([grid.y[int(np.argmax(fmap.power_db[:, i]))]
                      for i in range(grid.num_x)])
    coeffs = np.polyfit(grid.x, peaks, 2)
    fit = np.polyval(coeffs, grid.x)
    ss_res = float(np.sum((peaks - fit) ** 2))
    ss_tot = float(np.sum((peaks - peaks.mean()) ** 2))
    assert 1 - ss_res / ss_tot > 0.99
