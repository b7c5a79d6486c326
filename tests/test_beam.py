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
    focusing_phase,
    render_aperture_field_map,
    render_field_map,
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
    # the zero-curving cubic factor is exactly 1, so the word is its focus factor
    a0 = airy_beam_vector(BeamParams(0.0, 0.8, 0.15), arr, CAR)
    np.testing.assert_array_equal(a0.weights, focus_terms(0.8, 0.15, arr, CAR).at(0))


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
    s = airy_beam_vector(BeamParams(0.0, math.inf, 0.3), arr, CAR)
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
    beam = airy_beam_vector(BeamParams(0.0, 1.0, 0.0), sc.tx, CAR)
    message = r"^x_max must not exceed the link distance \(1\.0 m\)"
    for y in (0.01, 1e6):  # x_max is checked before the window's hop phase, which reads it
        with pytest.raises(ValueError, match=message):
            render_field_map(beam, sc, GridSpec(0.5, 1.5, 4, -y, y, 4))
    # within the 1e-12 m rounding allowance the window still renders
    assert render_field_map(beam, sc, GridSpec(0.5, 1.0 + 1e-13, 2, -0.01, 0.01, 4)).x.size == 2


README_SCREEN = BlockageGeometry(0.9, 0.02, 0.005, 0.5)


def _readme_screen_link():
    """The README link at 128 Tx: a screen 0.9 m out and 2 cm thick, 8 planes."""
    return ScenarioConfig(half_wavelength_array(128, CAR), half_wavelength_array(16, CAR),
                          CAR, 1.0, blockage=README_SCREEN).with_virtual_defaults(8)


def test_render_refuses_a_window_past_the_phasor_range_naming_y_min_y_max():
    # the render, not the CLI, owns the window's hop-phase rule
    for sc in (_scenario(16, 1.0), _readme_screen_link()):
        beam = airy_beam_vector(BeamParams(0.0, 1.0, 0.0), sc.tx, CAR)
        with pytest.raises(ValueError, match=r"^y_min/y_max: the longest hop, .* so narrow "
                                             r"the y window$"):
            render_field_map(beam, sc, GridSpec(0.5, 1.0, 3, -1e6, 1e6, 4))


@pytest.mark.parametrize("xs", [(0.95, 1.0), (0.5, 1.0)], ids=["behind-screen", "across-screen"])
def test_render_refuses_aperture_values_of_another_size(xs):
    # 100 values on the 128 Tx positions: behind the screen the FFT hop
    # would zero-pad the short row, and before it the pairwise hop would
    # index past it; the render refuses both, naming both sizes
    sc = _readme_screen_link()
    tx_y = element_positions(sc.tx)
    grid = GridSpec(*xs, 4, -0.02, 0.02, 8)
    beam = airy_beam_vector(BeamParams(2.0, 1.0, 0.0), sc.tx, CAR)
    message = r"^aperture_values: shape \(100,\) does not match the 128 aperture positions"
    with pytest.raises(ValueError, match=message):
        render_aperture_field_map(tx_y, beam.weights[:100], sc, grid)
    # a beam synthesized for another array size is refused the same way
    other = airy_beam_vector(BeamParams(2.0, 1.0, 0.0), half_wavelength_array(100, CAR), CAR)
    with pytest.raises(ValueError, match=message):
        render_field_map(other, sc, grid)
    with pytest.raises(ValueError, match=r"^aperture_positions must be a non-empty 1-D array"):
        render_aperture_field_map(tx_y[:, None], beam.weights[:, None], sc, grid)
    assert render_aperture_field_map(tx_y, beam.weights, sc, grid).power_db.shape == (8, 4)


@pytest.mark.parametrize("blocked", [False, True], ids=["free-space", "readme-screen"])
def test_zero_aperture_renders_every_cell_at_the_floor(blocked):
    sc = _readme_screen_link()
    sc = sc if blocked else sc.without_blockage()
    tx_y = element_positions(sc.tx)
    grid = GridSpec(1.0 / 20, 1.0, 20, -0.1, 0.1, 21)
    fmap = render_aperture_field_map(tx_y, np.zeros(tx_y.size, dtype=complex), sc, grid)
    assert np.all(fmap.power_db == FieldMap.DB_FLOOR)


def test_focusing_beam_peak_on_target():
    # aperture large enough that the Fresnel focal shift is under a cell
    sc = _scenario(256, 1.0)
    beam = airy_beam_vector(BeamParams(0.0, 0.5, 0.0), sc.tx, CAR)
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
    beam = airy_beam_vector(BeamParams(0.0, 0.5, 0.0), sc.tx, CAR)
    fmap = render_field_map(beam, sc, GridSpec(0.1, 1.0, 12, -0.2, 0.2, 13))
    assert fmap.power_db.max() == pytest.approx(0.0, abs=1e-12)
    assert fmap.power_db.min() >= FieldMap.DB_FLOOR - 1e-12
    assert np.all(np.isfinite(fmap.power_db))


def test_render_with_blockage_masks_shadow():
    blk = BlockageGeometry(0.4, 0.05, 0.0, 0.5)  # wall covers the lower half
    sc = _scenario(64, 1.0, blockage=blk)
    beam = airy_beam_vector(BeamParams(0.0, 1.0, 0.0), sc.tx, CAR)
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


# ------------------------------------------------- the curved beam's caustic
#
# An outside oracle for field-map columns: ray optics of the aperture phase
# phi(y) = k(a y^3 + q y^2 - s y). With the e^{-jkr} kernel the ray from
# element y0 leaves at sin(psi) = s - 2q y0 - 3a y0^2, and the envelope of
# the rays, the caustic, is x_c = cos^3(psi) / (2q + 6a y0),
# y_c = y0 + x_c tan(psi). Near a fold caustic of radius of curvature rho the
# field is an Airy function of the distance from it, whose main lobe lies
# delta = 1.0188 (rho / (2k^2))^(1/3) into the lit side along the normal
# (Berry and Upstill, "Catastrophe optics", Progress in Optics 18, 1980;
# Kravtsov and Orlov, "Caustics, Catastrophes and Wave Fields", 1993).

CAUSTIC_XS = (0.45, 0.55, 0.65)


def _caustic_ridge(a, x, k, half_length):
    """(y_c, predicted ridge height) at column x of BeamParams(a, 1.0, 0.0).

    For a > 0 the element y0 whose ray touches the caustic at x is found by
    bisection, on the branch 2q + 6a y0 > 0 where x_c falls as y0 grows.
    The caustic, traced by y0, is C = (0, y0) + L (cos psi, sin psi) with
    L = cos^2(psi) / (2q + 6a y0); its center of curvature lies at C + R n,
    n = (-sin psi, cos psi) and R = (sin psi + dL/dy0) / (dpsi/dy0), so the
    lit side, away from that center, is -sign(R) n. The ridge sits delta
    along it, delta / cos(psi) vertically. Negative a mirrors the caustic.
    """
    q, c_a = 0.5, abs(a)

    def ray(y0):
        w = 2 * q + 6 * c_a * y0
        sin = -2 * q * y0 - 3 * c_a * y0 ** 2
        cos = math.sqrt(1 - sin * sin)
        return w, sin, cos, cos ** 3 / w

    lo, hi = max(-half_length, -q / (3 * c_a)), half_length
    assert ray(hi)[3] < x, "the caustic must cross the column inside the aperture"
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        lo, hi = (mid, hi) if ray(mid)[3] > x else (lo, mid)
    y0 = 0.5 * (lo + hi)
    w, sin, cos, x_c = ray(y0)
    y_c = y0 + x_c * sin / cos
    dpsi = -w / cos
    dl = (-2 * cos * sin * dpsi * w - 6 * c_a * cos * cos) / w ** 2
    r = (sin + dl) / dpsi
    delta = 1.0188 * (abs(r) / (2 * k * k)) ** (1 / 3)
    ridge = y_c - math.copysign(delta / cos, r)
    mirror = math.copysign(1.0, a)
    return mirror * y_c, mirror * ridge


@functools.cache
def _caustic_map(frequency, n_tx, a):
    """(ridge rows, measured and predicted offsets into the lit side) of a
    free-space map of BeamParams(a, 1.0, 0.0) at the three caustic columns."""
    car = CarrierConfig(frequency)
    tx = half_wavelength_array(n_tx, car)
    sc = ScenarioConfig(tx, half_wavelength_array(16, car), car, 1.0)
    grid = GridSpec(CAUSTIC_XS[0], CAUSTIC_XS[-1], 3, -0.08, 0.08, 16001)
    fmap = render_field_map(airy_beam_vector(BeamParams(a, 1.0, 0.0), tx, car), sc, grid)
    rows = np.argmax(fmap.power_db, axis=0)
    measured, predicted = [], []
    for x, row in zip(grid.x, rows):
        y_c, ridge = _caustic_ridge(a, x, car.wavenumber, tx.length / 2)
        lit = math.copysign(1.0, ridge - y_c)
        measured.append(lit * (grid.y[row] - y_c))
        predicted.append(lit * (ridge - y_c))
    return rows, np.array(measured), np.array(predicted)


CAUSTIC_CASES = [(140e9, 128), (560e9, 512)]


@pytest.mark.parametrize("a", [5.0, -5.0, 10.0, -10.0])
@pytest.mark.parametrize("frequency, n_tx", CAUSTIC_CASES, ids=["140GHz-128", "560GHz-512"])
def test_curved_beam_ridge_lies_its_airy_offset_inside_the_caustic(frequency, n_tx, a):
    # Measured on the 12 points of a > 0 (the -a maps repeat them): at most
    # 27.4% off (140 GHz, a = 5, x = 0.65 m: 5.80 mm against 7.99 mm), 7
    # within 5%; 280 GHz at 256 Tx is within 18%. The bound is 30%.
    _, measured, predicted = _caustic_map(frequency, n_tx, a)
    assert np.all(measured > 0), measured
    assert np.all(np.abs(measured / predicted - 1) < 0.30), (measured, predicted)


@pytest.mark.parametrize("a", [5.0, 10.0])
def test_curved_beam_ridge_mirrors_and_narrows_with_frequency(a):
    # the -a ridge mirrors the +a ridge within one row, and the offset
    # shrinks as k^(-2/3): below the 140 GHz one at 560 GHz at every x
    offsets = []
    for frequency, n_tx in CAUSTIC_CASES:
        up, measured, _ = _caustic_map(frequency, n_tx, a)
        down, mirrored, _ = _caustic_map(frequency, n_tx, -a)
        assert np.all(np.abs(up + down - 16000) <= 1), (up, down)
        np.testing.assert_allclose(mirrored, measured, rtol=0, atol=1.1e-5)
        offsets.append(measured)
    assert np.all(offsets[1] < offsets[0]), offsets
