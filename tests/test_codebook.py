"""Correlation envelopes, sampling-plan solver, codebook builders."""

import functools
import math

import numpy as np
import pytest

from airylink import beam
from airylink.beam import (
    BeamParams,
    airy_beam_vector,
    curving_factors,
    focus_terms,
    focusing_beam_vector,
    steering_beam_vector,
)
from airylink.channel import ChannelMatrix, ChannelModel
from airylink.codebook import (
    FRESNEL_PRIMITIVE_SUP,
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
    product_codebook,
    solve_sampling_plan,
)
from airylink.numerics import fresnel_integrals
from airylink.scenario import CarrierConfig, ScenarioConfig, element_positions, half_wavelength_array
from airylink.search import SearchResult, TrainingConfig, exhaustive_search

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


def test_fresnel_primitive_sup_matches_mpmath():
    # The plan's scan bound sup |B + jD|: the modulus peaks where its
    # derivative, 2 (B cos + D sin)(pi/2 x^2), changes sign near x = 1.21.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        def slope(x):
            phase = mpmath.pi / 2 * x**2
            return mpmath.fresnelc(x) * mpmath.cos(phase) + mpmath.fresnels(x) * mpmath.sin(phase)

        peak = mpmath.findroot(slope, 1.2)
        sup = float(mpmath.hypot(mpmath.fresnelc(peak), mpmath.fresnels(peak)))
    assert FRESNEL_PRIMITIVE_SUP == sup
    # it is the global max: below it on [0, 40], and past 40 |B + jD| stays
    # within about 1/(40 pi) of |(1 + j)/2| (DLMF 7.12)
    b, d = fresnel_integrals(np.linspace(0.0, 40.0, 40001))
    assert np.hypot(b, d).max() <= FRESNEL_PRIMITIVE_SUP
    assert math.sqrt(0.5) + 1 / (40 * math.pi) < FRESNEL_PRIMITIVE_SUP


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


def test_plan_adjacent_correlations():
    # the reported pair is the numeric correlation of the reference beam with
    # its planned neighbours on the curving and distance grids
    plan = _plan()
    sc = _scenario()
    s_a, s_r, _ = plan.intervals
    assert plan.curving_values[plan.curving_values.size // 2 + 1] == s_a
    assert plan.focus_distances[1] == 1.0 / (1.0 / 3.0 + s_r)
    ref = airy_beam_vector(BeamParams(0.0, 3.0, 0.0), sc.tx, CAR)
    va = airy_beam_vector(BeamParams(s_a, 3.0, 0.0), sc.tx, CAR)
    vr = focusing_beam_vector(plan.focus_distances[1], 0.0, sc.tx, CAR)
    near_a, near_r = plan.adjacent_correlations
    assert near_a == pytest.approx(beam_correlation_numeric(ref, va), abs=1e-12)
    assert near_r == pytest.approx(beam_correlation_numeric(ref, vr), abs=1e-12)
    # the targets (0.4, 0.15) are envelope levels, reached at a gap of
    # 2*lambda/d = 4 intervals, so adjacent codewords correlate above them
    assert near_a == pytest.approx(0.790, abs=1e-3)
    assert near_r == pytest.approx(0.363, abs=1e-3)


def test_plan_monotone_target_collapses_to_first_crossing():
    # rebound peaks sit at 0.435 / 0.168; a 0.5 target is crossed once for good
    plan = solve_sampling_plan((0.5, 0.5, 0.0), _scenario())
    assert plan.solved_parameters[0] == plan.first_crossings[0]
    assert plan.solved_parameters[1] == plan.first_crossings[1]


def test_plan_validation():
    # each error starts with the config key it comes from
    sc = _scenario()
    for bad in ((0.0, 0.15, 0.0), (0.4, 1.0, 0.0), (-0.1, 0.15, 0.0), (0.4, 0.15, 0.3)):
        with pytest.raises(ValueError, match=r"^codebook\.targets: "):
            solve_sampling_plan(bad, sc)
    for index in (0, 256):
        with pytest.raises(ValueError,
                           match=r"^codebook\.angle_index, scenario\.tx_elements: "):
            solve_sampling_plan((0.4, 0.15, 0.0), sc, angle_index=index)
    with pytest.raises(ValueError, match=r"^codebook\.curving_range: "):
        solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-2.0, 3.0))
    for r_min in (0.0, 4.0):
        with pytest.raises(ValueError, match=r"^codebook\.r_min_m: "):
            solve_sampling_plan((0.4, 0.15, 0.0), sc, r_min=r_min)


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
    np.testing.assert_array_equal(book.slot_params(range(len(book))), want)
    focus = book.focus_terms.columns(0, k * v)
    assert book.cubic.shape == (256, j) and focus.shape == (256, k * v)
    np.testing.assert_allclose(np.abs(book.cubic), 1.0, rtol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(focus, axis=0), 1.0, rtol=1e-12)


def test_los_region_points_inside_strip():
    sc = _scenario()
    plan = _plan()
    pts = build_los_region_points(sc, plan)
    assert len(pts) > 0
    half = sc.tx.length / 2
    for r, th in pts:
        assert -1e-12 <= r * math.cos(th) <= 3.0 + 1e-9
        assert abs(r * math.sin(th)) <= half + 1e-12


def _los_points_by_loop(scenario, plan):
    """The strip rule one grid point at a time: the slow reference."""
    half_width = max(scenario.tx.length, scenario.rx.length) / 2
    d_link = scenario.link_distance
    pts = []
    for r in plan.focus_distances:
        for th in plan.angles:
            axial = r * math.cos(th)
            if -1e-12 <= axial <= d_link + 1e-9 and abs(r * math.sin(th)) <= half_width + 1e-12:
                pts.append((float(r), float(th)))
    return np.array(pts, dtype=float).reshape(-1, 2)


def _ulps_around(x, count=3):
    """x and its `count` floating-point neighbours on each side."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(float(np.nextafter(below[-1], -np.inf)))
        above.append(float(np.nextafter(above[-1], np.inf)))
    return below[::-1] + above[1:]


def _boundary_plan(sc, plan):
    """A plan whose grid straddles the strip's far edge and both lateral edges
    by single ulps: r*cos(theta) = link_distance + 1e-9 and
    |r*sin(theta)| = half_width + 1e-12."""
    import dataclasses

    half_width = max(sc.tx.length, sc.rx.length) / 2
    theta = 0.3
    lateral_r = (half_width + 1e-12) / math.sin(theta)
    far_r = sc.link_distance + 1e-9  # at theta = 0, cos = 1 exactly
    distances = sorted(_ulps_around(lateral_r) + _ulps_around(far_r))
    return dataclasses.replace(plan, focus_distances=np.array(distances),
                               angles=np.array([-theta, 0.0, theta]))


@functools.cache
def _points_cases():
    readme = _scenario(128, 1.0)
    at256 = _scenario(256, 1.0)
    readme_plan = dict(curving_range=(-10.0, 10.0), r_min=0.14)
    acceptance = _scenario(256, 3.0)
    return {
        "readme": (readme, solve_sampling_plan((0.4, 0.15, 0.0), readme, **readme_plan)),
        "256tx": (at256, solve_sampling_plan((0.4, 0.15, 0.0), at256, **readme_plan)),
        "acceptance": (acceptance, _plan()),
        "boundary": (acceptance, _boundary_plan(acceptance, _plan())),
    }


@pytest.mark.parametrize("name", ["readme", "256tx", "acceptance", "boundary"])
def test_los_region_points_match_the_per_point_loop(name):
    sc, plan = _points_cases()[name]
    want = _los_points_by_loop(sc, plan)
    got = build_los_region_points(sc, plan)
    assert got.shape == want.shape and np.array_equal(got, want)
    if name == "boundary":
        # each edge cuts its seven neighbouring distances: some in, some out
        far = got[(got[:, 0] > 1.0) & (got[:, 1] == 0.0)]
        assert 0 < len(far) < 7
        for sign in (-1, 1):
            lateral = got[(got[:, 0] < 1.0) & (got[:, 1] == sign * 0.3)]
            assert 0 < len(lateral) < 7


def test_hierarchical_builder():
    sc = _scenario()
    plan = _plan()
    stage1, factory = build_hierarchical_codebooks(plan, sc)
    assert stage1.scheme is CodebookScheme.HIERARCHICAL_STAGE1
    assert len(stage1) == len(build_los_region_points(sc, plan))
    s2 = factory(plan.focus_distances[1], plan.angles[127])
    assert s2.scheme is CodebookScheme.HIERARCHICAL_STAGE2
    assert len(s2) == plan.counts[0]
    params = s2.slot_params(range(len(s2)))
    np.testing.assert_array_equal(params[:, 0], plan.curving_values)
    assert np.all(params[:, 1] == plan.focus_distances[1])
    assert np.all(params[:, 2] == plan.angles[127])


def test_low_complexity_rides_receiver_circle():
    sc = _scenario()
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-2.0, 2.0))
    assert plan.counts[0] == 17
    stage1, factory = build_low_complexity_codebooks(sc, plan)
    assert stage1.scheme is CodebookScheme.LOW_COMPLEXITY_STAGE1
    assert len(stage1) == 12
    assert len(stage1) + len(factory(3.0, 0.0)) == 29
    for _, r, th in stage1.slot_params(range(len(stage1))):
        assert r == pytest.approx(3.0 * math.cos(th), rel=1e-12)


def test_farfield_codebook():
    sc = _scenario(64)
    book = build_farfield_codebook(sc)
    assert book.scheme is CodebookScheme.FAR_FIELD_STEERING
    assert len(book) == 63
    assert np.all(np.isinf(book.slot_params(range(len(book)))[:, 1]))
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, angle_index=2)
    book2 = build_farfield_codebook(sc, plan)
    assert len(book2) == plan.angles.size


def test_nearfield_codebook_targets_rx_elements():
    sc = _scenario(32)
    book = build_nearfield_codebook(sc)
    assert book.scheme is CodebookScheme.NEAR_FIELD_FOCUSING
    assert len(book) == 32
    rx_y = element_positions(sc.rx)
    for (_, r, th), y in zip(book.slot_params(range(len(book))), rx_y):
        assert r == pytest.approx(math.hypot(3.0, y), rel=1e-12)
        assert th == pytest.approx(math.atan2(y, 3.0), abs=1e-12)


# ------------------------------------------- factored words vs single beams

def _every_book(n_tx=128):
    """Each builder's books at the README geometry (by default its size,
    where the exhaustive book spans many synthesis and sounding blocks)."""
    d_link = 1.0
    sc = _scenario(n_tx, d_link)
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
        params = book.slot_params(range(len(book)))
        assert params.shape == (len(book), 3), name
        assert book.cubic.shape == (sc.tx.num_elements, book.curving.size), name
        assert len(book.focus_terms) == len(book) // book.curving.size, name
        for i, prm in enumerate(params):
            want = airy_beam_vector(BeamParams(*prm), sc.tx, CAR).weights
            assert np.array_equal(book.word(i).weights, want), (name, i)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _beam_columns(params, sc) -> np.ndarray:
    return np.stack([airy_beam_vector(BeamParams(*p), sc.tx, CAR).weights
                     for p in params], axis=1)


def _sampled_slots(book, rng, count=400) -> np.ndarray:
    """Up to `count` slots of `book` with the slots of their mirror partners,
    out of order and with repeats."""
    slots = np.arange(len(book))
    if len(book) > count:
        slots = rng.choice(len(book), count, replace=False)
    i, f = np.divmod(slots, len(book.focus_terms))
    partner = book.focus_terms.partner[f]
    mirrored = i[partner >= 0] * len(book.focus_terms) + partner[partner >= 0]
    return np.concatenate([slots[::-1], mirrored, slots[:3]])


@pytest.mark.parametrize("n_tx", [64, 128])
def test_words_are_their_beam_vectors_bit_for_bit(n_tx):
    # each book's words and each search result's words, slots out of order
    # and repeated, against one standalone beam per slot: mirror partners
    # and far-field (inf) points included
    sc, books = _every_book(n_tx)
    rng = np.random.default_rng(n_tx)
    mirrored = far = 0
    for name, book in books.items():
        slots = _sampled_slots(book, rng)
        want = _beam_columns(book.slot_params(slots), sc)
        got = book.words(slots)
        assert got.shape == (n_tx, slots.size) and _bits(got) == _bits(want), name
        assert _bits(book.words(int(slots[0]))) == _bits(want[:, 0]), name
        mirrored += int(np.sum(book.focus_terms.partner >= 0))
        far += int(np.sum(np.isinf(book.focus_points[:, 0])))
    assert mirrored > 0 and far > 0
    results = [SearchResult(books[b].scheme, books[b].word(0), (books[a], books[b]),
                            np.zeros(len(books[a]) + len(books[b])))
               for a, b in (("hier_stage1", "hier_stage2"), ("lowc_stage1", "lowc_stage2"))]
    results += [SearchResult(book.scheme, book.word(0), (book,), np.zeros(len(book)))
                for name, book in books.items() if "stage" not in name]
    for result in results:
        slots = rng.permutation(result.overhead)[:300]
        slots = np.concatenate([slots, [0, result.overhead - 1, slots[0]]])
        want = _beam_columns(result.slot_params(slots), sc)
        assert _bits(result.words(slots)) == _bits(want), result.scheme
        assert _bits(result.words(int(slots[-1]))) == _bits(want[:, -1]), result.scheme
        assert result.words([]).shape == (n_tx, 0)


def test_word_is_a_standalone_copy():
    sc, books = _every_book()
    book = books["hier_stage1"]
    w = book.word(3)
    assert w.params == BeamParams(*book.slot_params(3))
    np.testing.assert_array_equal(w.weights,
                                  book.cubic[:, 0] * book.focus_terms.columns(3, 4)[:, 0])
    assert not np.shares_memory(w.weights, book.cubic)


def test_codebook_shapes_validated():
    sc = _scenario(16)
    curving, points = np.array([0.0, 1.0]), np.array([[3.0, 0.0], [2.0, 0.1]])
    cubic = curving_factors(curving, sc.tx, CAR)
    focus = focus_terms(points[:, 0], points[:, 1], sc.tx, CAR)
    book = Codebook(CodebookScheme.EXHAUSTIVE, curving, points, cubic, focus)
    assert len(book) == 4
    with pytest.raises(ValueError, match="one column per curving value and per focus"):
        Codebook(CodebookScheme.EXHAUSTIVE, curving, points, cubic,
                 focus_terms(points[:1, 0], points[:1, 1], sc.tx, CAR))
    with pytest.raises(ValueError, match="one column per curving value and per focus"):
        Codebook(CodebookScheme.EXHAUSTIVE, curving, points, cubic[:, :1], focus)
    with pytest.raises(ValueError, match="one column per curving value and per focus"):
        Codebook(CodebookScheme.EXHAUSTIVE, curving, points, cubic[:8], focus)
    with pytest.raises(ValueError, match=r"\[F, 2\]"):
        Codebook(CodebookScheme.EXHAUSTIVE, curving, points[:, :1], cubic, focus)
    with pytest.raises(ValueError, match=r"\[J\]"):
        Codebook(CodebookScheme.EXHAUSTIVE, curving[:, None], points, cubic, focus)
    # the unit-modulus rule holds on the curving factors, to 1e-9
    with pytest.raises(ValueError, match="unit modulus"):
        Codebook(CodebookScheme.EXHAUSTIVE, curving, points, cubic * (1 + 1e-8), focus)
    Codebook(CodebookScheme.EXHAUSTIVE, curving, points, cubic * (1 + 1e-10), focus)


@pytest.mark.parametrize("scale, fails", [(1 + 1e-8, True), (1 + 1e-10, False)])
def test_every_synthesized_focus_block_is_norm_checked(monkeypatch, scale, fails):
    # the unit-norm rule holds, to 1e-9, on each range of focus columns a
    # book synthesizes, and so on each word and each sounding block
    sc = _scenario(16)
    book = product_codebook(CodebookScheme.FAR_FIELD_STEERING, [0.0],
                            [(3.0, 0.0), (2.0, 0.1), (2.0, -0.1)], sc.tx, CAR)
    synthesize = beam._focus_factor

    def scaled(*args, out=None):
        factors = synthesize(*args, out=out)
        factors *= scale
        return factors
    monkeypatch.setattr(beam, "_focus_factor", scaled)
    chan = ChannelMatrix(np.ones((2, 16), complex), ChannelModel.SYNTHETIC)
    calls = [lambda: book.focus_terms.columns(0, 3), lambda: book.focus_terms.columns(1, 2),
             lambda: book.word(2),
             lambda: exhaustive_search(book, chan, TrainingConfig(1.0, 0.0))]
    for call in calls:
        if fails:
            with pytest.raises(ValueError, match="unit l2 norm"):
                call()
        else:
            call()


@pytest.mark.parametrize("t", [-1, 4, 5, -5, 10**6])
def test_word_and_slot_params_reject_slots_outside_the_book(t):
    sc = _scenario(16)
    book = product_codebook(CodebookScheme.EXHAUSTIVE, [-0.5, 0.5],
                            [(3.0, 0.0), (2.0, 0.1)], sc.tx, CAR)
    assert len(book) == 4
    with pytest.raises(ValueError, match=rf"slot {t} is outside \[0, 4\)"):
        book.word(t)
    with pytest.raises(ValueError, match=rf"slot {t} is outside \[0, 4\)"):
        book.slot_params(t)
    with pytest.raises(ValueError, match=rf"slot {t} is outside \[0, 4\)"):
        book.slot_params([0, t, 1])


@pytest.mark.parametrize("lo, hi", [(-1, 2), (0, 4), (2, 1), (4, 4)])
def test_focus_columns_reject_ranges_outside_the_book(lo, hi):
    terms = focus_terms([3.0, 2.0, 2.0], [0.0, 0.1, -0.1], _scenario(16).tx, CAR)
    with pytest.raises(ValueError, match=rf"focus columns {lo}:{hi} are outside 0:3"):
        terms.columns(lo, hi)
    assert terms.columns(3, 3).shape == (16, 0)


def test_slot_params_maps_slots_and_chunks():
    sc = _scenario(16)
    book = product_codebook(CodebookScheme.EXHAUSTIVE, [-0.5, 0.5],
                            [(3.0, 0.0), (2.0, 0.1), (math.inf, -0.2)], sc.tx, CAR)
    want = [(a, r, th) for a in (-0.5, 0.5) for r, th in book.focus_points.tolist()]
    np.testing.assert_array_equal(book.slot_params(range(6)), want)
    np.testing.assert_array_equal(book.slot_params(np.array([5, 0, 3])),
                                  [want[5], want[0], want[3]])
    for t in range(6):
        assert book.slot_params(t).tolist() == list(want[t])
        assert book.word(np.int64(t)).params == BeamParams(*want[t])
    assert book.slot_params(range(0)).shape == (0, 3)
    with pytest.raises(TypeError, match="integers"):
        book.slot_params(1.0)
    with pytest.raises(TypeError, match="integers"):
        book.word(1.0)
