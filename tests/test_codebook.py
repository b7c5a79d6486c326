"""Correlation envelopes, sampling-plan solver, codebook builders."""

import math

import numpy as np
import pytest

from airylink.beam import BeamParams, airy_beam_vector, focusing_beam_vector, steering_beam_vector
from airylink.codebook import (
    Codebook,
    CodebookScheme,
    angle_correlation_closed,
    angle_grid,
    beam_correlation_numeric,
    build_exhaustive_codebook,
    build_farfield_codebook,
    build_hierarchical_codebooks,
    build_los_region_points,
    build_low_complexity_codebooks,
    build_nearfield_codebook,
    curving_correlation_closed,
    distance_correlation_closed,
    normalized_angle_separation,
    normalized_curving_separation,
    normalized_distance_separation,
    solve_sampling_plan,
)
from airylink.scenario import CarrierConfig, ScenarioConfig, element_positions, half_wavelength_array

CAR = CarrierConfig(140e9)

# frozen solver outputs at targets (0.4, 0.15, 0), N=256, half-wavelength, D=3
CURVING_SOLVED = 1.6766743765209953    # rebound-peak argmax (flat top: abs 1e-6)
CURVING_FIRST = 1.4225330761753514
CURVING_PEAK = 0.43495434931607163
DISTANCE_SOLVED = 4.624020036036347
DISTANCE_FIRST = 4.364130527080919
DISTANCE_PEAK = 0.16752637743339485
S_A = 0.24507609165285402
S_R = 0.30471708760421373
R_GRID = [3.0, 1.56727426, 1.0607069, 0.8016131]
EMP_DA = 0.5985866920335293
EMP_DINV = 1.0854379325677237


def _scenario(n=256, d_link=3.0):
    arr = half_wavelength_array(n, CAR)
    return ScenarioConfig(arr, arr, CAR, d_link)


def _plan(targets=(0.4, 0.15, 0.0), **kw):
    return solve_sampling_plan(targets, _scenario(), **kw)


# ------------------------------------------------------- correlation basics

def test_correlation_self_and_mismatch():
    sc = _scenario(32)
    v = airy_beam_vector(BeamParams(1.0, 3.0, 0.1), sc.tx, CAR)
    assert beam_correlation_numeric(v, v) == pytest.approx(1.0, abs=1e-12)
    w = steering_beam_vector(0.0, half_wavelength_array(16, CAR), CAR)
    with pytest.raises(ValueError):
        beam_correlation_numeric(v, w)


def test_envelopes_at_zero_and_validation():
    assert curving_correlation_closed(0.0) == 1.0
    assert distance_correlation_closed(0.0) == 1.0
    assert angle_correlation_closed(0.0, 64) == 1.0
    for f in (curving_correlation_closed, distance_correlation_closed):
        with pytest.raises(ValueError):
            f(-0.1)


def test_angle_correlation_is_exact_dirichlet():
    # steering-beam correlation equals the Dirichlet kernel to 1e-10
    n = 64
    arr = half_wavelength_array(n, CAR)
    rng = np.random.default_rng(7)
    for _ in range(50):
        s1, s2 = rng.uniform(-0.9, 0.9, size=2)
        v1 = steering_beam_vector(math.asin(s1), arr, CAR)
        v2 = steering_beam_vector(math.asin(s2), arr, CAR)
        x = normalized_angle_separation(s1, s2, arr, CAR)
        assert abs(beam_correlation_numeric(v1, v2)
                   - angle_correlation_closed(x, n)) < 1e-10


def test_angle_grid_nulls_and_endpoints():
    n = 64
    grid = angle_grid(n)
    assert grid.size == n - 1
    sines = np.sin(grid)
    np.testing.assert_allclose(np.diff(sines), 2.0 / n, atol=1e-12)
    assert sines.min() > -1.0 and sines.max() < 1.0
    # adjacent steering beams on the grid are orthogonal
    arr = half_wavelength_array(n, CAR)
    v1 = steering_beam_vector(grid[10], arr, CAR)
    v2 = steering_beam_vector(grid[11], arr, CAR)
    assert beam_correlation_numeric(v1, v2) < 1e-10
    # higher index: every other null
    grid2 = angle_grid(n, angle_index=2)
    np.testing.assert_allclose(np.sin(grid2), np.sin(grid)[1::2], atol=1e-12)


def test_curving_closed_matches_numeric():
    sc = _scenario(256)
    ref = airy_beam_vector(BeamParams(0.0, 3.0, 0.0), sc.tx, CAR)
    for delta in (0.1, 0.3, 0.6, 1.0, 1.8):
        v = airy_beam_vector(BeamParams(delta, 3.0, 0.0), sc.tx, CAR)
        x = normalized_curving_separation(delta, sc.tx, CAR)
        closed = curving_correlation_closed(x)
        numeric = beam_correlation_numeric(ref, v)
        assert abs(closed - numeric) <= 0.03


def test_distance_closed_matches_numeric():
    sc = _scenario(256)
    for r1, r2 in ((3.0, 1.5), (3.0, 1.0), (2.0, 0.9), (1.5, 0.8), (3.0, 0.75)):
        v1 = focusing_beam_vector(r1, 0.0, sc.tx, CAR)
        v2 = focusing_beam_vector(r2, 0.0, sc.tx, CAR)
        x = normalized_distance_separation(r1, r2, 0.0, sc.tx, CAR)
        closed = distance_correlation_closed(x)
        numeric = beam_correlation_numeric(v1, v2)
        assert abs(closed - numeric) <= 0.03


def test_infinite_focus_separation():
    arr = half_wavelength_array(128, CAR)
    assert normalized_distance_separation(math.inf, 2.0, 0.0, arr, CAR) == \
        pytest.approx(normalized_distance_separation(2.0, math.inf, 0.0, arr, CAR))
    assert normalized_distance_separation(math.inf, math.inf, 0.0, arr, CAR) == 0.0


# ------------------------------------------------------------- plan solver

def test_plan_frozen_solution():
    plan = _plan()
    x_a, x_r, gamma = plan.solved_parameters
    assert x_a == pytest.approx(CURVING_SOLVED, abs=1e-6)
    assert x_r == pytest.approx(DISTANCE_SOLVED, abs=1e-6)
    assert curving_correlation_closed(x_a) == pytest.approx(CURVING_PEAK, abs=1e-9)
    assert distance_correlation_closed(x_r) == pytest.approx(DISTANCE_PEAK, abs=1e-9)
    assert gamma == 2 * math.pi / 256
    assert plan.first_crossings[0] == pytest.approx(CURVING_FIRST, abs=1e-9)
    assert plan.first_crossings[1] == pytest.approx(DISTANCE_FIRST, abs=1e-9)
    s_a, s_r, s_th = plan.intervals
    assert s_a == pytest.approx(S_A, abs=1e-6)
    assert s_r == pytest.approx(S_R, abs=1e-6)
    assert s_th == 2.0 / 256
    assert plan.counts == (33, 4, 255)
    np.testing.assert_allclose(plan.focus_distances, R_GRID, atol=1e-6)
    assert "counts=(33, 4, 255)" in plan.describe()


def test_plan_grid_structure():
    plan = _plan()
    a = plan.curving_values
    assert a.size % 2 == 1 and a[a.size // 2] == 0.0
    np.testing.assert_allclose(np.diff(a), plan.intervals[0], rtol=1e-12)
    assert a.max() <= 4.0 + 1e-9
    inv = 1.0 / plan.focus_distances
    np.testing.assert_allclose(np.diff(inv), plan.intervals[1], rtol=1e-12)
    assert plan.focus_distances[0] == 3.0
    assert plan.focus_distances.min() >= plan.r_min - 1e-12
    assert plan.r_min == 0.75  # default D/4


def test_plan_empirical_roundtrip():
    plan = _plan()
    da, dinv, dsin = plan.empirical_intervals
    assert da == pytest.approx(EMP_DA, abs=1e-6)
    assert dinv == pytest.approx(EMP_DINV, abs=1e-6)
    assert dsin == 2.0 / 256
    sc = _scenario()
    ref = airy_beam_vector(BeamParams(0.0, 3.0, 0.0), sc.tx, CAR)
    va = airy_beam_vector(BeamParams(da, 3.0, 0.0), sc.tx, CAR)
    assert beam_correlation_numeric(ref, va) == pytest.approx(0.4, abs=1e-12)
    vr = focusing_beam_vector(1.0 / (1.0 / 3.0 + dinv), 0.0, sc.tx, CAR)
    assert beam_correlation_numeric(ref, vr) == pytest.approx(0.15, abs=1e-12)


def test_plan_monotone_target_collapses_to_first_crossing():
    # rebound peaks sit at 0.435 / 0.168; a 0.5 target is crossed once for good
    plan = solve_sampling_plan((0.5, 0.5, 0.0), _scenario())
    assert plan.solved_parameters[0] == plan.first_crossings[0]
    assert plan.solved_parameters[1] == plan.first_crossings[1]


def test_plan_validation():
    sc = _scenario()
    for bad in ((0.0, 0.15, 0.0), (0.4, 1.0, 0.0), (-0.1, 0.15, 0.0)):
        with pytest.raises(ValueError):
            solve_sampling_plan(bad, sc)
    with pytest.raises(ValueError):
        solve_sampling_plan((0.4, 0.15, 0.3), sc)
    with pytest.raises(ValueError):
        solve_sampling_plan((0.4, 0.15, 0.0), sc, angle_index=0)
    with pytest.raises(ValueError):
        solve_sampling_plan((0.4, 0.15, 0.0), sc, angle_index=256)
    with pytest.raises(ValueError):
        solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-2.0, 3.0))
    with pytest.raises(ValueError):
        solve_sampling_plan((0.4, 0.15, 0.0), sc, r_min=0.0)
    with pytest.raises(ValueError):
        solve_sampling_plan((0.4, 0.15, 0.0), sc, r_min=4.0)


# --------------------------------------------------------------- codebooks

def test_exhaustive_lexicographic_order():
    plan = _plan()
    book = build_exhaustive_codebook(plan, _scenario())
    assert book.scheme is CodebookScheme.EXHAUSTIVE
    j, k, v = plan.counts
    assert len(book) == j * k * v
    p0 = book.word(0).params
    p1 = book.word(1).params
    assert p0.curving == plan.curving_values[0]
    assert p0.focus_distance == plan.focus_distances[0]
    assert p0.focus_angle == plan.angles[0]
    assert p1.focus_angle == plan.angles[1]          # angle runs fastest
    assert p1.curving == p0.curving and p1.focus_distance == p0.focus_distance
    want = [(a, r, th) for a in plan.curving_values for r in plan.focus_distances
            for th in plan.angles]
    np.testing.assert_array_equal(book.params, want)
    assert book.weights.shape == (256, len(book))
    np.testing.assert_allclose(np.linalg.norm(book.weights, axis=0), 1.0, rtol=1e-12)


def test_los_region_points_inside_strip():
    sc = _scenario()
    plan = _plan()
    pts = build_los_region_points(sc, plan)
    assert len(pts) > 0
    half = sc.tx.length / 2
    for r, th in pts:
        assert -1e-12 <= r * math.cos(th) <= 3.0 + 1e-9
        assert abs(r * math.sin(th)) <= half + 1e-12


def test_hierarchical_builder():
    sc = _scenario()
    plan = _plan()
    stage1, factory = build_hierarchical_codebooks(plan, sc)
    assert stage1.scheme is CodebookScheme.HIERARCHICAL_STAGE1
    assert len(stage1) == len(build_los_region_points(sc, plan))
    s2 = factory(plan.focus_distances[1], plan.angles[127])
    assert s2.scheme is CodebookScheme.HIERARCHICAL_STAGE2
    assert len(s2) == plan.counts[0]
    np.testing.assert_array_equal(s2.params[:, 0], plan.curving_values)
    assert np.all(s2.params[:, 1] == plan.focus_distances[1])
    assert np.all(s2.params[:, 2] == plan.angles[127])


def test_low_complexity_rides_receiver_circle():
    sc = _scenario()
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-2.0, 2.0))
    assert plan.counts[0] == 17
    stage1, factory = build_low_complexity_codebooks(sc, plan)
    assert stage1.scheme is CodebookScheme.LOW_COMPLEXITY_STAGE1
    assert len(stage1) == 12
    assert len(stage1) + len(factory(3.0, 0.0)) == 29
    for _, r, th in stage1.params:
        assert r == pytest.approx(3.0 * math.cos(th), rel=1e-12)


def test_farfield_codebook():
    sc = _scenario(64)
    book = build_farfield_codebook(sc)
    assert book.scheme is CodebookScheme.FAR_FIELD_STEERING
    assert len(book) == 63
    assert np.all(np.isinf(book.params[:, 1]))
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, angle_index=2)
    book2 = build_farfield_codebook(sc, plan)
    assert len(book2) == plan.angles.size


def test_nearfield_codebook_targets_rx_elements():
    sc = _scenario(32)
    book = build_nearfield_codebook(sc)
    assert book.scheme is CodebookScheme.NEAR_FIELD_FOCUSING
    assert len(book) == 32
    rx_y = element_positions(sc.rx)
    for (_, r, th), y in zip(book.params, rx_y):
        assert r == pytest.approx(math.hypot(3.0, y), rel=1e-12)
        assert th == pytest.approx(math.atan2(y, 3.0), abs=1e-12)


# ------------------------------------------- codeword matrix vs single beams

def _every_book():
    """Each builder's books at the README size, where the exhaustive book
    spans many synthesis blocks."""
    d_link = 1.0
    sc = _scenario(128, d_link)
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-10.0, 10.0),
                               r_min=0.14)
    h1, hier2 = build_hierarchical_codebooks(plan, sc)
    l1, lowc2 = build_low_complexity_codebooks(sc, plan)
    books = {
        "exhaustive": build_exhaustive_codebook(plan, sc),
        "hier_stage1": h1,
        "hier_stage2": hier2(float(plan.focus_distances[-1]), float(plan.angles[40])),
        "lowc_stage1": l1,
        "lowc_stage2": lowc2(d_link, 0.0),
        "farfield": build_farfield_codebook(sc, plan),
        "farfield_no_plan": build_farfield_codebook(sc),
        "nearfield": build_nearfield_codebook(sc),
    }
    return sc, books


def test_every_builder_column_is_its_beam_vector():
    sc, books = _every_book()
    assert len(books["exhaustive"]) > 8 * 256
    for name, book in books.items():
        assert book.params.shape == (len(book), 3), name
        assert book.weights.shape == (sc.tx.num_elements, len(book)), name
        for i, prm in enumerate(book.params):
            want = airy_beam_vector(BeamParams(*prm), sc.tx, CAR).weights
            assert np.array_equal(book.weights[:, i], want), (name, i)


def test_word_is_a_standalone_copy():
    sc, books = _every_book()
    book = books["hier_stage1"]
    w = book.word(3)
    assert w.params == BeamParams(*book.params[3])
    np.testing.assert_array_equal(w.weights, book.weights[:, 3])
    assert not np.shares_memory(w.weights, book.weights)


def test_codebook_shapes_validated():
    sc = _scenario(16)
    params = np.array([[0.0, 3.0, 0.0], [1.0, 2.0, 0.1]])
    weights = np.stack([airy_beam_vector(BeamParams(*p), sc.tx, CAR).weights
                        for p in params], axis=1)
    Codebook(CodebookScheme.EXHAUSTIVE, params, weights)
    with pytest.raises(ValueError, match="one column per params row"):
        Codebook(CodebookScheme.EXHAUSTIVE, params, weights[:, :1])
    with pytest.raises(ValueError, match=r"\[T, 3\]"):
        Codebook(CodebookScheme.EXHAUSTIVE, params[:, :2], weights)
