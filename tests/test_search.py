"""Training-slot model and beam-search schemes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airylink.beam import BeamParams, airy_beam_matrix, airy_beam_vector
from airylink.channel import ChannelMatrix, ChannelModel, gcm_channel, wcm_channel
from airylink.codebook import (
    Codebook,
    CodebookScheme,
    angle_grid,
    build_exhaustive_codebook,
    build_farfield_codebook,
    build_hierarchical_codebooks,
    build_low_complexity_codebooks,
    build_nearfield_codebook,
    solve_sampling_plan,
)
from airylink.evaluation import calibrated_wave_channels, noise_for_target_se
from airylink.scenario import (
    ArrayConfig,
    BlockageGeometry,
    CarrierConfig,
    ScenarioConfig,
    half_wavelength_array,
)
from airylink import search
from airylink.search import (
    ProbeCombiner,
    TrainingConfig,
    exhaustive_search,
    farfield_steering_search,
    hierarchical_search,
    low_complexity_search,
    measure_slot,
    nearfield_focusing_search,
    probe_combiner_matrix,
)

CAR = CarrierConfig(140e9)


def _scenario(n, d_link):
    arr = half_wavelength_array(n, CAR)
    return ScenarioConfig(arr, arr, CAR, d_link)


def _rank1_channel(codeword, num_rx=8):
    # noiseless slot power is maximal exactly at this codeword
    return ChannelMatrix(np.outer(np.ones(num_rx), codeword.weights.conj()),
                         ChannelModel.SYNTHETIC)


# ------------------------------------------------------------ slot model

def test_training_config_validation():
    TrainingConfig(1.0, 0.0)
    with pytest.raises(ValueError):
        TrainingConfig(0.0, 1e-3)
    with pytest.raises(ValueError):
        TrainingConfig(1.0, -1e-3)


def test_probe_combiner_shapes():
    omni = probe_combiner_matrix(ProbeCombiner.OMNIDIRECTIONAL, 8)
    assert omni.shape == (8, 1)
    np.testing.assert_allclose(omni, 1 / math.sqrt(8))
    full = probe_combiner_matrix(ProbeCombiner.FULL_ARRAY_NORM, 8)
    np.testing.assert_array_equal(full, np.eye(8))


def test_measure_slot_zero_channel():
    sc = _scenario(16, 3.0)
    w = airy_beam_vector(BeamParams(0.0, 3.0, 0.0), sc.tx, CAR)
    zero = ChannelMatrix(np.zeros((4, 16), complex), ChannelModel.SYNTHETIC)
    assert measure_slot(w, zero, TrainingConfig(5.0, 0.0)) == 0.0


def test_measure_slot_noiseless_formulas():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
    chan = ChannelMatrix(h, ChannelModel.SYNTHETIC)
    sc = _scenario(16, 3.0)
    w = airy_beam_vector(BeamParams(0.5, 2.0, 0.1), sc.tx, CAR)
    rho = 2.5
    y = math.sqrt(rho) * h @ w.weights
    omni = measure_slot(w, chan, TrainingConfig(rho, 0.0))
    assert omni == pytest.approx(abs(y.sum()) ** 2 / 6, rel=1e-12)
    full = measure_slot(w, chan, TrainingConfig(
        rho, 0.0, rx_probe_combiner=ProbeCombiner.FULL_ARRAY_NORM))
    assert full == pytest.approx(np.sum(np.abs(y) ** 2), rel=1e-12)


def test_measure_slot_length_mismatch():
    sc = _scenario(16, 3.0)
    w = airy_beam_vector(BeamParams(0.0, 3.0, 0.0), sc.tx, CAR)
    chan = ChannelMatrix(np.ones((4, 8), complex), ChannelModel.SYNTHETIC)
    with pytest.raises(ValueError):
        measure_slot(w, chan, TrainingConfig(1.0, 0.0))


def test_measure_slot_standalone_seeding():
    sc = _scenario(16, 3.0)
    w = airy_beam_vector(BeamParams(0.0, 3.0, 0.0), sc.tx, CAR)
    chan = ChannelMatrix(np.ones((4, 16), complex), ChannelModel.SYNTHETIC)
    a = measure_slot(w, chan, TrainingConfig(1.0, 0.5, rng_seed=11))
    b = measure_slot(w, chan, TrainingConfig(1.0, 0.5, rng_seed=11))
    c = measure_slot(w, chan, TrainingConfig(1.0, 0.5, rng_seed=12))
    assert a == b
    assert a != c


# ------------------------------------------------------- exhaustive search

def test_exhaustive_noiseless_matches_argmax():
    sc = _scenario(32, 3.0)
    book = build_farfield_codebook(sc)
    h = gcm_channel(sc)
    cfg = TrainingConfig(1.0, 0.0)
    res = exhaustive_search(book, h, cfg)
    exact = [measure_slot(book.word(i), h, cfg) for i in range(len(book))]
    best = int(np.argmax(exact))
    assert res.selected_params == book.word(best).params
    assert res.overhead == len(book)
    np.testing.assert_array_equal(res.params, book.params)
    np.testing.assert_allclose(res.powers, exact, rtol=1e-12)
    assert res.selected_power == pytest.approx(max(exact), rel=1e-12)


def test_exhaustive_empty_codebook():
    book = Codebook(CodebookScheme.EXHAUSTIVE, np.empty((0, 3)),
                    np.empty((4, 0), complex))
    chan = ChannelMatrix(np.ones((2, 4), complex), ChannelModel.SYNTHETIC)
    with pytest.raises(ValueError):
        exhaustive_search(book, chan, TrainingConfig(1.0, 0.0))


def test_search_bitwise_deterministic():
    sc = _scenario(32, 3.0)
    book = build_farfield_codebook(sc)
    h = gcm_channel(sc)
    cfg = TrainingConfig(1.0, 1e-9, rng_seed=42)
    r1 = exhaustive_search(book, h, cfg)
    r2 = exhaustive_search(book, h, cfg)
    np.testing.assert_array_equal(r1.powers, r2.powers)
    assert r1.selected_params == r2.selected_params
    r3 = exhaustive_search(book, h, TrainingConfig(1.0, 1e-9, rng_seed=43))
    assert not np.array_equal(r1.powers, r3.powers)


def test_noisy_selection_montecarlo():
    # rank-1 channel aligned with grid beam 17; noise 13 dB below the
    # aligned slot power keeps the argmax on target in >=95% of runs
    sc = _scenario(32, 3.0)
    book = build_farfield_codebook(sc)
    k = 17
    chan = _rank1_channel(book.word(k))
    p0 = measure_slot(book.word(k), chan, TrainingConfig(1.0, 0.0))
    target = angle_grid(32)[k]
    wins = sum(
        exhaustive_search(book, chan,
                          TrainingConfig(1.0, p0 / 20, rng_seed=s))
        .selected_params.focus_angle == target
        for s in range(200))
    assert wins >= 190


# -------------------------------------------------------- two-stage search

def _hier_setup(n=128, d_link=1.0):
    sc = _scenario(n, d_link)
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-10.0, 10.0),
                               r_min=0.14)
    return sc, plan


def test_hierarchical_unblocked_selects_straight_beam():
    sc, plan = _hier_setup()
    stage1, factory = build_hierarchical_codebooks(plan, sc)
    h = gcm_channel(sc)
    res = hierarchical_search(stage1, factory, h, TrainingConfig(1.0, 0.0))
    assert res.scheme is CodebookScheme.HIERARCHICAL_STAGE2
    assert res.selected_params.curving == 0.0
    assert res.overhead == len(stage1) + plan.counts[0]
    stage1_best = res.powers[:len(stage1)].max()
    assert res.selected_power >= stage1_best * (1 - 1e-12)


def test_two_stage_requires_zero_curving():
    sc, plan = _hier_setup()
    stage1, _ = build_hierarchical_codebooks(plan, sc)

    def bad_factory(r, th):
        params = np.array([(a, r, th) for a in (1.0, 2.0)])
        return Codebook(CodebookScheme.HIERARCHICAL_STAGE2, params,
                        airy_beam_matrix(params, sc.tx, CAR))

    with pytest.raises(ValueError):
        hierarchical_search(stage1, bad_factory, gcm_channel(sc),
                            TrainingConfig(1.0, 0.0))


def test_low_complexity_overhead_smaller():
    sc, plan = _hier_setup()
    h1, f1 = build_hierarchical_codebooks(plan, sc)
    l1, f2 = build_low_complexity_codebooks(sc, plan)
    h = gcm_channel(sc)
    rh = hierarchical_search(h1, f1, h, TrainingConfig(1.0, 0.0))
    rl = low_complexity_search(l1, f2, h, TrainingConfig(1.0, 0.0))
    assert rl.scheme is CodebookScheme.LOW_COMPLEXITY_STAGE2
    assert rl.overhead == len(l1) + plan.counts[0]
    assert rl.overhead < rh.overhead


# --------------------------------------------------------------- baselines

def test_farfield_recovers_bearing():
    n = 64
    tx = half_wavelength_array(n, CAR)
    rx = ArrayConfig(n, CAR.wavelength / 2, center_offset=0.4)
    sc = ScenarioConfig(tx, rx, CAR, 3.0)
    res = farfield_steering_search(build_farfield_codebook(sc), gcm_channel(sc),
                                   TrainingConfig(1.0, 0.0))
    true_sin = 0.4 / math.hypot(3.0, 0.4)
    got_sin = math.sin(res.selected_params.focus_angle)
    assert abs(got_sin - true_sin) <= 1.0 / n  # within half a grid step
    assert res.overhead == n - 1


def test_nearfield_beats_farfield_at_short_range():
    # deep near field: element-focused beams collect more full-array power
    # than any plane-wave steering beam
    sc = _scenario(128, 0.5)
    h = wcm_channel(sc)
    cfg = TrainingConfig(1.0, 0.0, rx_probe_combiner=ProbeCombiner.FULL_ARRAY_NORM)
    nf = nearfield_focusing_search(build_nearfield_codebook(sc), h, cfg)
    ff = farfield_steering_search(build_farfield_codebook(sc), h, cfg)
    assert nf.overhead == 128
    assert nf.selected_power > ff.selected_power


# ------------------------------------- one-product sounding vs per-slot loop
#
# The reference below is the slot-by-slot training loop: each slot sounds one
# codeword synthesized on its own (h @ w), draws N_r real and then N_r
# imaginary noise samples from the search's stream, and applies the probe
# combiner.  The searches sound a stage with one matrix product instead, so
# selected beams and overheads must be identical and powers may differ only
# by the rounding of a matrix-matrix against a matrix-vector product.

POWER_RTOL = 1e-12


def _reference_slot(w, h, cfg, rng, combiner):
    received = math.sqrt(cfg.transmit_power) * (h @ w)
    if cfg.noise_power != 0.0:
        scale = math.sqrt(cfg.noise_power / 2.0)
        received = received + scale * (rng.standard_normal(h.shape[0])
                                       + 1j * rng.standard_normal(h.shape[0]))
    return float(np.sum(np.abs(combiner.conj().T @ received) ** 2))


def _reference_stage(book, h, cfg, rng, combiner, vector):
    """Powers of every codeword, slot by slot, and the first argmax."""
    powers, best, best_power = [], 0, -math.inf
    for i, prm in enumerate(book.params):
        p = _reference_slot(vector(prm), h, cfg, rng, combiner)
        powers.append(p)
        if p > best_power:
            best, best_power = i, p
    return powers, BeamParams(*book.params[best])


def _single_beams(tx):
    """Params row -> weights of that codeword synthesized on its own."""
    cache = {}

    def vector(prm):
        key = tuple(prm.tolist())
        if key not in cache:
            cache[key] = airy_beam_vector(BeamParams(*key), tx, CAR).weights
        return cache[key]
    return vector


def _reference_search(stages, channel, cfg, vector):
    """(selected params, slot powers) of a one- or two-stage search."""
    h = channel.entries
    rng = np.random.default_rng(cfg.rng_seed)
    combiner = probe_combiner_matrix(cfg.rx_probe_combiner, h.shape[0])
    if isinstance(stages, Codebook):
        return _reference_stage(stages, h, cfg, rng, combiner, vector)[::-1]
    stage1, factory = stages
    powers1, winner = _reference_stage(stage1, h, cfg, rng, combiner, vector)
    powers2, selected = _reference_stage(
        factory(winner.focus_distance, winner.focus_angle), h, cfg, rng, combiner,
        vector)
    return selected, powers1 + powers2


def _searches(design, sc):
    """(stages, search call) of each searched scheme on the README design."""
    plan = design["plan"]
    ff = build_farfield_codebook(sc, plan)
    nf = build_nearfield_codebook(sc)
    return {
        "exhaustive": (design["exhaustive"], exhaustive_search),
        "hierarchical": (design["hier"], lambda st, h, c: hierarchical_search(*st, h, c)),
        "low_complexity": (design["lowc"],
                           lambda st, h, c: low_complexity_search(*st, h, c)),
        "farfield": (ff, farfield_steering_search),
        "nearfield": (nf, nearfield_focusing_search),
    }


def _assert_matches_reference(design, sc, channel, cfg):
    for name, (stages, search) in _searches(design, sc).items():
        got = search(stages, channel, cfg)
        want_params, want_powers = _reference_search(stages, channel, cfg,
                                                     design["vector"])
        assert got.selected_params == want_params, (name, cfg)
        assert got.overhead == len(want_powers), (name, cfg)
        np.testing.assert_allclose(got.powers, want_powers, rtol=POWER_RTOL, atol=0,
                                   err_msg=f"{name} {cfg}")
        np.testing.assert_array_equal(got.selected_vector.weights, airy_beam_vector(
            want_params, sc.tx, CAR).weights)


# The README example and the scheme-ordering acceptance test: 128 Tx, 16 Rx,
# 8 virtual planes, a screen at 0.9 m of a 1 m link, 20 heights and seeds.
README_HEIGHTS = np.linspace(0.0042, 0.0114, 20)


def _readme_scenario(height):
    tx = half_wavelength_array(128, CAR)
    rx = half_wavelength_array(16, CAR)
    return ScenarioConfig(tx, rx, CAR, 1.0, blockage=BlockageGeometry(
        0.9, 0.02, float(height), 0.5)).with_virtual_defaults(8)


@pytest.fixture(scope="module")
def readme_design():
    sc = _readme_scenario(0.005)
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-10.0, 10.0),
                               r_min=0.14)
    return {"plan": plan,
            "exhaustive": build_exhaustive_codebook(plan, sc),
            "hier": build_hierarchical_codebooks(plan, sc),
            "lowc": build_low_complexity_codebooks(sc, plan),
            "vector": _single_beams(sc.tx)}


def test_searches_match_per_slot_loop_on_ordering_seeds(readme_design):
    for i, height in enumerate(README_HEIGHTS):
        sc = _readme_scenario(height)
        channels = calibrated_wave_channels(sc)
        noise = noise_for_target_se(channels.non_blocked, 1.0, 15.0)
        cfg = TrainingConfig(1.0, noise / 100.0, rng_seed=i)
        _assert_matches_reference(readme_design, sc, channels.blocked, cfg)


@pytest.mark.parametrize("combiner", list(ProbeCombiner))
@pytest.mark.parametrize("noisy", [False, True])
def test_searches_match_per_slot_loop_per_combiner(readme_design, combiner, noisy):
    sc = _readme_scenario(0.0078)
    channels = calibrated_wave_channels(sc)
    noise = noise_for_target_se(channels.non_blocked, 1.0, 15.0) if noisy else 0.0
    cfg = TrainingConfig(1.0, noise, rx_probe_combiner=combiner, rng_seed=7)
    _assert_matches_reference(readme_design, sc, channels.blocked, cfg)


def test_noise_stream_order():
    # noisy slots consume 2 * N_r normals each, in slot order; a noiseless
    # stage leaves the stream where it was
    sc = _scenario(16, 2.0)
    book = build_farfield_codebook(sc)
    h = gcm_channel(sc)
    noisy = exhaustive_search(book, h, TrainingConfig(1.0, 1e-3, rng_seed=5))
    want, _ = _reference_stage(book, h.entries, TrainingConfig(1.0, 1e-3),
                               np.random.default_rng(5),
                               probe_combiner_matrix(ProbeCombiner.OMNIDIRECTIONAL, 16),
                               _single_beams(sc.tx))
    np.testing.assert_allclose(noisy.powers, want, rtol=1e-12)
    assert measure_slot(book.word(0), h, TrainingConfig(1.0, 1e-3, rng_seed=5)) == \
        pytest.approx(noisy.powers[0], rel=1e-12)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    search._sound(book.weights, h, TrainingConfig(1.0, 0.0), rng)
    assert rng.bit_generator.state == state


def test_equal_powers_select_the_first_slot():
    # conjugate steering beams see exactly equal power through an all-ones
    # channel; the earlier slot wins, as in the slot-by-slot loop
    sc = _scenario(16, 2.0)
    chan = ChannelMatrix(np.ones((4, 16), complex), ChannelModel.SYNTHETIC)
    for order in ([0.3, -0.3], [-0.3, 0.3]):
        params = np.array([(0.0, math.inf, th) for th in order])
        book = Codebook(CodebookScheme.FAR_FIELD_STEERING, params,
                        airy_beam_matrix(params, sc.tx, CAR))
        res = exhaustive_search(book, chan, TrainingConfig(1.0, 0.0))
        assert res.powers[0] == res.powers[1]
        assert res.selected_params.focus_angle == order[0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n_t=st.integers(1, 24), n_r=st.integers(1, 8),
       rows=st.lists(st.tuples(st.floats(-10.0, 10.0),
                               st.one_of(st.floats(0.05, 10.0), st.just(math.inf)),
                               st.floats(-1.5, 1.5)), min_size=1, max_size=80),
       noise=st.sampled_from([0.0, 1e-3, 1.0]),
       combiner=st.sampled_from(list(ProbeCombiner)), seed=st.integers(0, 2**32 - 1))
def test_exhaustive_search_matches_per_slot_loop_on_random_channels(
        n_t, n_r, rows, noise, combiner, seed):
    arr = half_wavelength_array(n_t, CAR)
    params = np.array(rows)
    book = Codebook(CodebookScheme.EXHAUSTIVE, params, airy_beam_matrix(params, arr, CAR))
    gen = np.random.default_rng(seed)
    h = gen.standard_normal((n_r, n_t)) + 1j * gen.standard_normal((n_r, n_t))
    cfg = TrainingConfig(1.0, noise, rx_probe_combiner=combiner, rng_seed=seed)
    got = exhaustive_search(book, ChannelMatrix(h, ChannelModel.SYNTHETIC), cfg)
    want, _ = _reference_stage(book, h, cfg, np.random.default_rng(seed),
                               probe_combiner_matrix(combiner, n_r), _single_beams(arr))
    # random channels can cancel a slot's combined output, so its power is
    # compared on the scale of the strongest slot
    np.testing.assert_allclose(got.powers, want, rtol=POWER_RTOL,
                               atol=POWER_RTOL * max(want))
    assert got.powers[int(np.argmax(want))] == pytest.approx(max(want), rel=POWER_RTOL)
    assert got.selected_params == BeamParams(*params[int(np.argmax(got.powers))])
