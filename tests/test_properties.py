"""Properties over random beams and scenarios, checked with Hypothesis.

Examples are derandomized and no example database is kept, so every run
checks the same cases.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airylink.beam import (
    BeamParams,
    GridSpec,
    airy_beam_vector,
    render_field_map,
)
from airylink.channel import (
    CalibrationParams,
    ChannelMatrix,
    ChannelModel,
    apply_calibration,
    calibrate,
    cgwcm_channel,
    wcm_channel,
)
from airylink.codebook import product_codebook, solve_sampling_plan
from airylink.evaluation import (
    BeamformingScheme,
    build_scheme_beamformers,
    calibrated_wave_channels,
    noise_for_target_se,
    run_scheme,
    scheme_codebooks,
)
from airylink.scenario import (
    BlockageGeometry,
    CarrierConfig,
    ScenarioConfig,
    half_wavelength_array,
)
from airylink.search import ProbeCombiner, TrainingConfig

CAR = CarrierConfig(140e9)


def _settings(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True,
                    database=None)


# Channel entries: exact zeros (calibration skips them) or magnitudes within
# six decades of one another.
entries = st.one_of(st.just(0j), st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False))


@_settings(100)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8), data=st.data(),
       amplitude=st.floats(1e-6, 1e6), phase=st.floats(-10.0, 10.0))
def test_calibration_recovers_the_inverse_of_an_applied_one(rows, cols, data,
                                                            amplitude, phase):
    values = data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)
                       .filter(any))
    x = ChannelMatrix(np.array(values).reshape(rows, cols), ChannelModel.WCM)
    scaled = apply_calibration(x, CalibrationParams(amplitude, phase))
    back = calibrate(scaled, x)
    assert back.amplitude == pytest.approx(1 / amplitude, rel=1e-12, abs=0)
    # the phase is -phase modulo 2*pi
    assert abs(np.angle(np.exp(1j * (back.phase + phase)))) <= 1e-12


# Curving values, and (focus distance, focus angle) points inside
# BeamParams' rules: distances from 5 cm out to the far field, angles short
# of endfire.
curvings = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=10)
focus_points = st.lists(st.tuples(st.one_of(st.floats(0.05, 10.0), st.just(math.inf)),
                                  st.floats(-1.5, 1.5)), min_size=1, max_size=15)


@_settings(60)
@given(n=st.integers(1, 96), curving=curvings, points=focus_points)
def test_codewords_unit_norm_constant_modulus_and_match_single_beams(n, curving, points):
    arr = half_wavelength_array(n, CAR)
    book = product_codebook(curving, points, arr, CAR)
    rows = [(a, r, th) for a, (r, th) in itertools.product(curving, points)]
    np.testing.assert_array_equal(book.slot_params(range(len(book))), rows)
    weights = np.stack([book.word(t).weights for t in range(len(book))], axis=1)
    assert weights.shape == (n, len(rows))
    np.testing.assert_allclose(np.abs(weights), 1 / math.sqrt(n), rtol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(weights, axis=0), 1.0, rtol=1e-13)
    for t, row in enumerate(rows):
        single = airy_beam_vector(BeamParams(*row), arr, CAR).weights
        assert np.array_equal(weights[:, t], single), (t, row)


@_settings(12)
@given(n_t=st.sampled_from([16, 24, 32]), n_r=st.sampled_from([4, 8]),
       link=st.floats(0.4, 1.5), screen=st.floats(0.3, 0.9),
       height=st.floats(0.0, 0.012), target_se=st.floats(5.0, 15.0),
       combiner=st.sampled_from(list(ProbeCombiner)), seed=st.integers(0, 2**32 - 1))
def test_searched_se_never_exceeds_perfect_csi(n_t, n_r, link, screen, height,
                                               target_se, combiner, seed):
    blk = BlockageGeometry(screen * link, 0.02, height, 0.5)
    sc = ScenarioConfig(half_wavelength_array(n_t, CAR), half_wavelength_array(n_r, CAR),
                        CAR, link, blockage=blk).with_virtual_defaults(4)
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-2000.0, 2000.0))
    channels = calibrated_wave_channels(sc)
    noise = noise_for_target_se(channels.non_blocked, 1.0, target_se)
    cfg = TrainingConfig(1.0, noise, rx_probe_combiner=combiner, rng_seed=seed)
    perfect = build_scheme_beamformers(
        BeamformingScheme.PERFECT_CSI, design_channel=channels.blocked
    ).evaluate(channels.blocked, 1.0, noise)
    for scheme in (s for s in BeamformingScheme if s.searched):
        _, se, _ = run_scheme(scheme, channels, scheme_codebooks(scheme, sc, plan), cfg)
        assert se <= perfect + 1e-9, (scheme, se, perfect)


# Field-map rows for the mirror test: linspace(-Y, Y, MAP_ROWS) has a sample
# every MAP_STEP, and the screen edges fall midway between two, so rounding
# of the grid cannot put one edge sample inside the mask and its mirror out.
MAP_Y, MAP_ROWS = 0.02, 81
MAP_STEP = 2 * MAP_Y / (MAP_ROWS - 1)


@_settings(12)
@given(n_t=st.sampled_from([8, 16, 32]), n_r=st.sampled_from([4, 8, 16]),
       link=st.floats(0.5, 1.5), screen=st.floats(0.3, 0.9),
       edge=st.integers(0, 20), curving=st.floats(0.5, 10.0))
def test_symmetric_screen_gives_mirror_symmetric_channels_and_maps(
        n_t, n_r, link, screen, edge, curving):
    height = (edge + 0.5) * MAP_STEP
    blk = BlockageGeometry(screen * link, 0.02, height, height)
    sc = ScenarioConfig(half_wavelength_array(n_t, CAR), half_wavelength_array(n_r, CAR),
                        CAR, link, blockage=blk).with_virtual_defaults(4)
    # rounding only: up to 3.4e-13 relative, where the cascaded model cancels
    for build in (wcm_channel, cgwcm_channel):
        h = build(sc).entries
        assert np.linalg.norm(h - h[::-1, ::-1]) <= 1e-11 * np.linalg.norm(h), build
    # the cubic phase of -curving is the mirror image of that of +curving
    grid = GridSpec(0.05, link, 20, -MAP_Y, MAP_Y, MAP_ROWS)
    up, down = (render_field_map(airy_beam_vector(BeamParams(a, link, 0.0), sc.tx, CAR),
                                 sc, grid)
                for a in (curving, -curving))
    np.testing.assert_allclose(up.power_db, down.power_db[::-1], rtol=0, atol=1e-9)
