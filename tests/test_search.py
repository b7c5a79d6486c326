"""Training-slot model and beam-search schemes."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airylink import beam
from airylink.beam import BeamParams, airy_beam_vector
from airylink.channel import ChannelMatrix, ChannelModel, gcm_channel, wcm_channel
from airylink.codebook import (
    Codebook,
    angle_grid,
    build_exhaustive_codebook,
    build_farfield_codebook,
    build_hierarchical_codebooks,
    build_los_region_points,
    build_low_complexity_codebooks,
    build_nearfield_codebook,
    product_codebook,
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


@pytest.mark.parametrize("field, kwargs", [
    ("noise_power", dict(transmit_power=1.0, noise_power=math.nan)),
    ("noise_power", dict(transmit_power=1.0, noise_power=math.inf)),
    ("transmit_power", dict(transmit_power=math.inf, noise_power=1e-3)),
])
def test_training_config_rejects_non_finite_powers(field, kwargs):
    # a NaN or infinite power makes every slot power NaN, and the argmax
    # would silently pick slot 0
    with pytest.raises(ValueError, match=field):
        TrainingConfig(**kwargs)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_training_config_refuses_a_seed_that_is_not_a_count(seed):
    # numpy's generator raised for these at the first search, naming no field
    with pytest.raises(ValueError, match="rng_seed"):
        TrainingConfig(1.0, 0.0, rng_seed=seed)


@pytest.mark.parametrize("value", ["Omnidirectional", "FullArrayNorm", None])
def test_training_config_rejects_a_probe_combiner_that_is_not_one(value):
    # a string used to be accepted and sounded through the identity combiner
    with pytest.raises(ValueError, match="rx_probe_combiner"):
        TrainingConfig(1.0, 0.0, rx_probe_combiner=value)
    with pytest.raises(ValueError, match="rx_probe_combiner"):
        probe_combiner_matrix(value, 8)


def test_probe_combiner_shapes():
    omni = probe_combiner_matrix(ProbeCombiner.OMNIDIRECTIONAL, 8)
    assert omni.shape == (8, 1)
    assert omni.dtype == np.float64
    np.testing.assert_allclose(omni, 1 / math.sqrt(8))
    full = probe_combiner_matrix(ProbeCombiner.FULL_ARRAY_NORM, 8)
    np.testing.assert_array_equal(full, np.eye(8))
    assert full.dtype == np.float64


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
    np.testing.assert_array_equal(res.slot_params(range(res.overhead)),
                                  book.slot_params(range(len(book))))
    np.testing.assert_allclose(res.powers, exact, rtol=1e-12)
    assert res.selected_power == pytest.approx(max(exact), rel=1e-12)


def test_exhaustive_empty_codebook():
    book = product_codebook([0.0], [], half_wavelength_array(4, CAR), CAR)
    assert len(book) == 0
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
    assert res.selected_params.curving == 0.0
    assert res.overhead == len(stage1) + plan.counts[0]
    stage1_best = res.powers[:len(stage1)].max()
    assert res.selected_power >= stage1_best * (1 - 1e-12)


def test_two_stage_selected_power_is_the_selected_slots():
    # noise lifts the best stage-1 slot above every stage-2 slot for some
    # seeds; the beam is still selected from stage 2, and so is its power
    sc, plan = _hier_setup()
    stage1, factory = build_low_complexity_codebooks(sc, plan)
    h = gcm_channel(sc)
    noise = 0.1 * measure_slot(stage1.word(0), h, TrainingConfig(1.0, 0.0))
    lifted = 0
    for seed in range(10):
        res = low_complexity_search(stage1, factory, h, TrainingConfig(1.0, noise, rng_seed=seed))
        stage2 = res.powers[len(stage1):]
        selected = len(stage1) + int(np.argmax(stage2))
        np.testing.assert_array_equal(res.words(selected), res.selected_vector.weights)
        assert res.selected_power == res.powers[selected]
        lifted += res.powers[:len(stage1)].max() > res.selected_power
    assert lifted


def test_two_stage_result_maps_slots_through_both_books():
    # slots run through stage 1, then stage 2 at stage 1's best point; each
    # slot's parameters come from its book, in chunks that cross the stages
    sc, plan = _hier_setup()
    stage1, factory = build_hierarchical_codebooks(plan, sc)
    res = hierarchical_search(stage1, factory, gcm_channel(sc), TrainingConfig(1.0, 0.0))
    stage2 = res.books[1]
    assert res.books[0] is stage1 and res.overhead == len(stage1) + len(stage2)
    want = np.concatenate([stage1.slot_params(range(len(stage1))),
                           stage2.slot_params(range(len(stage2)))])
    np.testing.assert_array_equal(res.slot_params(range(res.overhead)), want)
    best1 = int(np.argmax(res.powers[:len(stage1)]))
    assert np.all(stage2.slot_params(range(len(stage2)))[:, 1:]
                  == stage1.slot_params(best1)[1:])
    cross = np.arange(len(stage1) - 3, len(stage1) + 3)
    np.testing.assert_array_equal(res.slot_params(cross), want[cross])
    np.testing.assert_array_equal(res.slot_params(cross[::-1]), want[cross[::-1]])
    assert res.slot_params(len(stage1)).tolist() == want[len(stage1)].tolist()
    assert BeamParams(*res.slot_params(len(stage1) + int(np.argmax(
        res.powers[len(stage1):])))) == res.selected_params
    for t in (-1, res.overhead):
        with pytest.raises(ValueError, match=rf"slot {t} is outside \[0, {res.overhead}\)"):
            res.slot_params(t)
    with pytest.raises(ValueError, match="one power per slot"):
        search.SearchResult((stage1,), res.powers)
    empty = product_codebook([0.0], [], sc.tx, CAR)
    for books in ((), (stage1, empty)):
        with pytest.raises(ValueError, match="non-empty last book"):
            search.SearchResult(books, np.zeros(sum(len(book) for book in books)))


def test_two_stage_requires_zero_curving():
    sc, plan = _hier_setup()
    stage1, _ = build_hierarchical_codebooks(plan, sc)

    def bad_factory(r, th):
        return product_codebook((1.0, 2.0), [(r, th)], sc.tx, CAR)

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
    params = book.slot_params(range(len(book)))
    for i, prm in enumerate(params):
        p = _reference_slot(vector(prm), h, cfg, rng, combiner)
        powers.append(p)
        if p > best_power:
            best, best_power = i, p
    return powers, BeamParams(*params[best])


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
    search._sound(book, h, TrainingConfig(1.0, 0.0), rng)
    assert rng.bit_generator.state == state


def test_equal_powers_select_the_first_slot():
    # conjugate steering beams see exactly equal power through an all-ones
    # channel; the earlier slot wins, as in the slot-by-slot loop
    sc = _scenario(16, 2.0)
    chan = ChannelMatrix(np.ones((4, 16), complex), ChannelModel.SYNTHETIC)
    for order in ([0.3, -0.3], [-0.3, 0.3]):
        book = product_codebook([0.0], [(math.inf, th) for th in order], sc.tx, CAR)
        res = exhaustive_search(book, chan, TrainingConfig(1.0, 0.0))
        assert res.powers[0] == res.powers[1]
        assert res.selected_params.focus_angle == order[0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n_t=st.integers(1, 24), n_r=st.integers(1, 8),
       curving=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
       points=st.lists(st.tuples(st.one_of(st.floats(0.05, 10.0), st.just(math.inf)),
                                 st.floats(-1.5, 1.5)), min_size=1, max_size=10),
       noise=st.sampled_from([0.0, 1e-3, 1.0]),
       combiner=st.sampled_from(list(ProbeCombiner)), seed=st.integers(0, 2**32 - 1))
def test_exhaustive_search_matches_per_slot_loop_on_random_channels(
        n_t, n_r, curving, points, noise, combiner, seed):
    arr = half_wavelength_array(n_t, CAR)
    book = product_codebook(curving, points, arr, CAR)
    params = np.array([(a, r, th) for a, (r, th) in itertools.product(curving, points)])
    np.testing.assert_array_equal(book.slot_params(range(len(book))), params)
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


# ------------------------------------ factored sounding vs a dense reference
#
# The slow reference forms the [N_t, T] codeword matrix W whose columns are
# airy_beam_vector's single beams, sounds it with one product H @ W, and
# draws all T slots' noise at once.  The factored sounding must select the
# same slot and measure every power to POWER_RTOL.


def _dense_powers(book, channel, cfg, rng, tx):
    h = channel.entries
    w = np.stack([airy_beam_vector(BeamParams(*p), tx, CAR).weights
                  for p in book.slot_params(range(len(book)))], axis=1)
    received = math.sqrt(cfg.transmit_power) * (h @ w)
    if cfg.noise_power != 0.0:
        noise = math.sqrt(cfg.noise_power / 2.0) * rng.standard_normal(
            (len(book), 2, h.shape[0]))
        received = received + (noise[:, 0] + 1j * noise[:, 1]).T
    combiner = probe_combiner_matrix(cfg.rx_probe_combiner, h.shape[0])
    return np.sum(np.abs(combiner.conj().T @ received) ** 2, axis=0)


def _sized_readme_scenario(n_tx):
    return ScenarioConfig(half_wavelength_array(n_tx, CAR), half_wavelength_array(16, CAR),
                          CAR, 1.0, blockage=BlockageGeometry(0.9, 0.02, 0.005, 0.5)
                          ).with_virtual_defaults(8)


@pytest.fixture(scope="module", params=[64, 128], ids=lambda n: f"{n}tx")
def sized_books(request):
    """Every builder's books on the README geometry at 64 and 128 Tx."""
    sc = _sized_readme_scenario(request.param)
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-10.0, 10.0),
                               r_min=0.14)
    h1, hier2 = build_hierarchical_codebooks(plan, sc)
    l1, lowc2 = build_low_complexity_codebooks(sc, plan)
    books = {
        "exhaustive": build_exhaustive_codebook(plan, sc),
        "hier_stage1": h1,
        "hier_stage2": hier2(float(plan.focus_distances[-1]), float(plan.angles[9])),
        "lowc_stage1": l1,
        "lowc_stage2": lowc2(1.0, 0.0),
        "farfield": build_farfield_codebook(sc, plan),
        "nearfield": build_nearfield_codebook(sc),
    }
    channels = calibrated_wave_channels(sc)
    return sc, books, channels


@pytest.mark.parametrize("block_slots", [search._BLOCK_SLOTS, 100])
@pytest.mark.parametrize("combiner", list(ProbeCombiner))
@pytest.mark.parametrize("noisy", [False, True])
def test_factored_sounding_matches_dense_reference(sized_books, noisy, combiner,
                                                   block_slots, monkeypatch):
    # a 100-slot cap splits the focus columns of the larger books as well
    monkeypatch.setattr(search, "_BLOCK_SLOTS", block_slots)
    sc, books, channels = sized_books
    noise = noise_for_target_se(channels.non_blocked, 1.0, 15.0) / 100.0 if noisy else 0.0
    cfg = TrainingConfig(1.0, noise, rx_probe_combiner=combiner, rng_seed=3)
    for name, book in books.items():
        got = search._sound(book, channels.blocked, cfg, np.random.default_rng(3))
        want = _dense_powers(book, channels.blocked, cfg, np.random.default_rng(3), sc.tx)
        assert int(np.argmax(got)) == int(np.argmax(want)), name
        np.testing.assert_allclose(got, want, rtol=POWER_RTOL, atol=0, err_msg=name)


# The per-antenna formula: each block of slots forms all N_r antenna
# outputs from the book's factors, adds each antenna's noise, and combines
# afterwards.  The sounding projects the channel onto the probe combiner
# first, so through the identity combiner it must match this bit for bit,
# and through the omnidirectional probe to rounding.

def _per_antenna_powers(book, channel, cfg, rng):
    h = channel.entries
    n_r, n_t = h.shape
    combiner = probe_combiner_matrix(cfg.rx_probe_combiner, n_r)
    powers = []
    for cub, foc in search._book_blocks(book):
        if cub.shape[1] <= foc.shape[1]:
            received = ((h * cub.T[:, None, :]).reshape(-1, n_t) @ foc).reshape(
                -1, n_r, foc.shape[1]).transpose(1, 0, 2)
        else:
            received = ((h * foc.T[:, None, :]).reshape(-1, n_t) @ cub).reshape(
                -1, n_r, cub.shape[1]).transpose(1, 2, 0)
        received = received.reshape(n_r, -1) * math.sqrt(cfg.transmit_power)
        if cfg.noise_power != 0.0:
            noise = math.sqrt(cfg.noise_power / 2.0) * rng.standard_normal(
                (received.shape[1], 2, n_r))
            received.real += noise[:, 0].T
            received.imag += noise[:, 1].T
        powers.append(np.sum(np.abs(combiner.T @ received) ** 2, axis=0))
    return np.concatenate(powers)


def test_identity_combiner_sounding_is_the_per_antenna_formula_bit_for_bit(sized_books):
    _, books, channels = sized_books
    noise = noise_for_target_se(channels.non_blocked, 1.0, 15.0) / 100.0
    cfg = TrainingConfig(1.0, noise, rx_probe_combiner=ProbeCombiner.FULL_ARRAY_NORM,
                         rng_seed=3)
    for name, book in books.items():
        got = search._sound(book, channels.blocked, cfg, np.random.default_rng(3))
        want = _per_antenna_powers(book, channels.blocked, cfg, np.random.default_rng(3))
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("combiner", list(ProbeCombiner))
def test_noisy_sounding_draws_2_n_r_normals_per_slot(sized_books, combiner):
    sc, books, channels = sized_books
    cfg = TrainingConfig(1.0, 1e-3, rx_probe_combiner=combiner, rng_seed=3)
    for name, book in books.items():
        rng = np.random.default_rng(3)
        search._sound(book, channels.blocked, cfg, rng)
        drawn = np.random.default_rng(3)
        drawn.standard_normal((len(book), 2, sc.rx.num_elements))
        assert rng.bit_generator.state == drawn.bit_generator.state, name


class _RecordingRng:
    """A generator that records the size of each noise draw it serves."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def standard_normal(self, *args, out=None):
        self.sizes.append(out.size)
        return self.rng.standard_normal(*args, out=out)


@pytest.mark.parametrize("values, slots", [(1, 2), (3, 2), (16 * 32, 16),
                                           (32 * (search._BLOCK_SLOTS + 1), 16384)],
                         ids=["1-value", "3-values", "16-slots", "above-the-block"])
@pytest.mark.parametrize("combiner", list(ProbeCombiner))
def test_noise_sub_blocks_move_no_power(sized_books, combiner, values, slots, monkeypatch):
    # a block's noise is drawn and added a sub-block at a time, the largest
    # power of two of slots that fits `_NOISE_VALUES` and at least two; the
    # stream is consumed in slot order, so neither a power nor the stream
    # left after a sounding depends on the sub-block size
    sc, books, channels = sized_books
    noise = noise_for_target_se(channels.non_blocked, 1.0, 15.0) / 100.0
    cfg = TrainingConfig(1.0, noise, rx_probe_combiner=combiner, rng_seed=5)
    names = ("exhaustive", "hier_stage1", "hier_stage2")
    word = books["exhaustive"].word(17)

    def sound_all():
        sounded = {}
        for name in names:
            rng = _RecordingRng(5)
            sounded[name] = (search._sound(books[name], channels.blocked, cfg, rng),
                             rng.rng.bit_generator.state, rng.sizes)
        return sounded, measure_slot(word, channels.blocked, cfg)

    want, want_slot = sound_all()
    default = search._NOISE_VALUES
    monkeypatch.setattr(search, "_NOISE_VALUES", values)
    got, got_slot = sound_all()
    per_slot = 2 * sc.rx.num_elements
    for name in names:
        assert np.array_equal(got[name][0], want[name][0]), name
        assert got[name][1] == want[name][1], name
        assert max(want[name][2]) <= default and max(got[name][2]) <= per_slot * slots
        assert sum(got[name][2]) == sum(want[name][2]) == per_slot * len(books[name])
    assert got_slot == want_slot


def _per_antenna_search(stages, channel, cfg):
    """(per-stage winning slots, powers) of a one- or two-stage search
    sounded by the per-antenna formula."""
    rng = np.random.default_rng(cfg.rng_seed)
    stage1, factory = (stages, None) if isinstance(stages, Codebook) else stages
    powers = [_per_antenna_powers(stage1, channel, cfg, rng)]
    winners = [int(np.argmax(powers[0]))]
    if factory is not None:
        _, r_f, theta_f = stage1.slot_params(winners[0]).tolist()
        powers.append(_per_antenna_powers(factory(r_f, theta_f), channel, cfg, rng))
        winners.append(int(np.argmax(powers[1])))
    return winners, np.concatenate(powers)


@pytest.mark.parametrize("n_tx", [128, 256])
def test_omnidirectional_searches_select_as_the_per_antenna_formula(n_tx):
    sc = _sized_readme_scenario(n_tx)
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-10.0, 10.0),
                               r_min=0.14)
    channel = calibrated_wave_channels(sc).blocked
    searches = {
        "hierarchical": (build_hierarchical_codebooks(plan, sc),
                         lambda st, h, c: hierarchical_search(*st, h, c)),
        "low_complexity": (build_low_complexity_codebooks(sc, plan),
                           lambda st, h, c: low_complexity_search(*st, h, c)),
        "farfield": (build_farfield_codebook(sc, plan), farfield_steering_search),
        "nearfield": (build_nearfield_codebook(sc), nearfield_focusing_search),
    }
    if n_tx == 128:
        searches["exhaustive"] = (build_exhaustive_codebook(plan, sc), exhaustive_search)
    for seed, noise in enumerate([0.0, noise_for_target_se(channel, 1.0, 15.0)]):
        cfg = TrainingConfig(1.0, noise, rng_seed=seed)
        for name, (stages, run) in searches.items():
            got = run(stages, channel, cfg)
            winners, want = _per_antenna_search(stages, channel, cfg)
            np.testing.assert_allclose(got.powers, want, rtol=POWER_RTOL, atol=0,
                                       err_msg=f"{name} {cfg}")
            starts = np.cumsum([0] + [len(book) for book in got.books[:-1]])
            for start, book, winner in zip(starts, got.books, winners):
                assert int(np.argmax(got.powers[start:start + len(book)])) == winner, name
            assert got.selected_params == BeamParams(
                *got.books[-1].slot_params(winners[-1])), name


def _unmirrored_books(kind):
    """Every builder's books on a 63-element array (odd N: the middle
    element sits at y = 0) or on a 64-element array 3 mm off center (no
    mirror pairs), with a seeded random channel."""
    tx = (half_wavelength_array(63, CAR) if kind == "odd"
          else half_wavelength_array(64, CAR, center_offset=0.003))
    sc = ScenarioConfig(tx, half_wavelength_array(16, CAR), CAR, 1.0,
                        blockage=BlockageGeometry(0.9, 0.02, 0.005, 0.5))
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-10.0, 10.0),
                               r_min=0.14)
    h1, hier2 = build_hierarchical_codebooks(plan, sc)
    l1, lowc2 = build_low_complexity_codebooks(sc, plan)
    books = {
        "exhaustive": build_exhaustive_codebook(plan, sc),
        "hier_stage1": h1,
        "hier_stage2": hier2(float(plan.focus_distances[-1]), float(plan.angles[9])),
        "lowc_stage1": l1,
        "lowc_stage2": lowc2(1.0, 0.0),
        "farfield": build_farfield_codebook(sc, plan),
        "nearfield": build_nearfield_codebook(sc),
    }
    gen = np.random.default_rng(17)
    h = gen.standard_normal((16, tx.num_elements)) + 1j * gen.standard_normal(
        (16, tx.num_elements))
    return sc, books, ChannelMatrix(h, ChannelModel.SYNTHETIC)


@pytest.mark.parametrize("block_slots", [search._BLOCK_SLOTS, 100])
@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("kind", ["odd", "offset"])
def test_streamed_sounding_matches_dense_reference_off_the_mirror(kind, noisy, block_slots,
                                                                  monkeypatch):
    monkeypatch.setattr(search, "_BLOCK_SLOTS", block_slots)
    sc, books, channel = _unmirrored_books(kind)
    paired = sum(int(np.sum(b.focus_terms.partner >= 0)) for b in books.values())
    assert (paired > 0) == (kind == "odd")
    cfg = TrainingConfig(1.0, 1e-2 if noisy else 0.0, rng_seed=3)
    for name, book in books.items():
        got = search._sound(book, channel, cfg, np.random.default_rng(3))
        want = _dense_powers(book, channel, cfg, np.random.default_rng(3), sc.tx)
        assert int(np.argmax(got)) == int(np.argmax(want)), name
        np.testing.assert_allclose(got, want, rtol=POWER_RTOL, atol=0, err_msg=name)


def _allowed_ends(partner):
    """Every c such that no mirror pair has one member before c and one at
    or after it, by brute force over the pairs."""
    ends = set(range(1, partner.size + 1))
    for f, p in enumerate(partner.tolist()):
        if p >= 0:
            ends -= set(range(min(f, p) + 1, max(f, p) + 1))
    return sorted(ends)


def _sounding_synthesis(book, channel, monkeypatch):
    """(lo, hi) of each focus range one sounding of `book` synthesizes, and
    how many columns it synthesizes rather than copies."""
    ranges, synthesized = [], []
    columns, focus_factor = beam.FocusTerms.columns, beam._focus_factor

    def record(terms, lo, hi):
        ranges.append((lo, hi))
        return columns(terms, lo, hi)

    def count(y, quad, sine, wavelength, out=None):
        synthesized.append(quad.size)
        return focus_factor(y, quad, sine, wavelength, out=out)
    with monkeypatch.context() as m:
        m.setattr(beam.FocusTerms, "columns", record)
        m.setattr(beam, "_focus_factor", count)
        search._sound(book, channel, TrainingConfig(1.0, 0.0), np.random.default_rng(0))
    return ranges, sum(synthesized)


def test_sounding_blocks_are_mirror_closed_and_synthesize_each_column_once(
        sized_books, monkeypatch):
    sc, books, channels = sized_books
    odd_sc, odd_books, odd_channel = _unmirrored_books("odd")
    cases = [(name, book, channels.blocked, sc) for name, book in books.items()]
    cases += [(f"odd_{name}", book, odd_channel, odd_sc) for name, book in odd_books.items()]
    for name, book, channel, scenario in cases:
        partner = book.focus_terms.partner
        num_focus = partner.size
        ranges, synthesized = _sounding_synthesis(book, channel, monkeypatch)
        # no more columns than the book's non-copied ones, each once
        assert synthesized == num_focus - int(np.sum(partner >= 0)), name
        if book.curving.size > 1:
            assert ranges == [(0, num_focus)], name
            continue
        # one-curving books: slot-order ranges, each ending where no mirror
        # pair straddles the cut, as many whole runs as fit the cap
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]], name
        assert ranges[-1][1] == num_focus, name
        cap = search._FOCUS_ENTRIES // scenario.tx.num_elements
        ends = _allowed_ends(partner)
        for lo, hi in ranges:
            fitting = [c for c in ends if lo < c <= lo + cap]
            assert hi == (fitting[-1] if fitting else min(c for c in ends if c > lo)), name
            assert hi - lo <= search._BLOCK_SLOTS, name
            copied = np.flatnonzero(partner[lo:hi] >= 0) + lo
            assert np.all((lo <= partner[copied]) & (partner[copied] < hi)), name


def test_a_run_wider_than_the_slot_cap_is_split(monkeypatch):
    # one mirror pair spans the whole book; at a 4-slot cap it is cut inside
    # and the split pairs are synthesized on both sides
    partner = np.full(10, -1)
    partner[9], partner[6] = 0, 3
    assert search._focus_blocks(partner, 8192) == [(0, 10)]
    assert search._focus_blocks(partner, 2) == [(0, 10)]
    monkeypatch.setattr(search, "_BLOCK_SLOTS", 4)
    assert search._focus_blocks(partner, 2) == [(0, 4), (4, 8), (8, 10)]
    assert search._focus_blocks(np.full(5, -1), 2) == [(0, 2), (2, 4), (4, 5)]
    assert search._focus_blocks(np.full(0, -1), 2) == []


@pytest.mark.parametrize("num_curving, num_focus", [(11, 762), (81, 5355), (1, 2971),
                                                    (41, 1), (3, 20000)])
def test_blocks_cover_slots_in_order_and_noise_is_the_one_shot_draw(num_curving,
                                                                     num_focus):
    blocks = [(np.arange(num_curving)[rows, None] * num_focus
               + np.arange(num_focus)[cols]).ravel()
              for rows, cols in search._blocks(num_curving, num_focus)]
    assert all(0 < b.size <= search._BLOCK_SLOTS for b in blocks)
    np.testing.assert_array_equal(np.concatenate(blocks),
                                  np.arange(num_curving * num_focus))
    rng = np.random.default_rng(11)
    per_block = np.concatenate([rng.standard_normal((b.size, 2, 2)) for b in blocks])
    one_shot = np.random.default_rng(11).standard_normal((num_curving * num_focus, 2, 2))
    assert np.array_equal(per_block, one_shot)


@pytest.fixture(scope="module")
def readme_256():
    """The README geometry at the paper's reference size, 256 Tx."""
    sc = _sized_readme_scenario(256)
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-10.0, 10.0),
                               r_min=0.14)
    return sc, plan, calibrated_wave_channels(sc).blocked


def test_hierarchical_search_at_256_tx_holds_no_focus_matrix(readme_256):
    # the stage-1 book has 2,971 focus points: its [N_t, F] focus matrix
    # alone would take 12.2 MB; the streamed sounding holds about 1 MB of it
    sc, plan, channel = readme_256
    cfg = TrainingConfig(1.0, noise_for_target_se(channel, 1.0, 15.0), rng_seed=3)
    want = hierarchical_search(*build_hierarchical_codebooks(plan, sc), channel, cfg)
    tracemalloc.start()
    try:
        res = hierarchical_search(*build_hierarchical_codebooks(plan, sc), channel, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(build_los_region_points(sc, plan)) == 2971
    assert peak <= 4e6
    assert res.selected_params == want.selected_params
    np.testing.assert_array_equal(res.powers, want.powers)


def test_exhaustive_search_at_256_tx(readme_256):
    # the paper's reference array size: 433,755 words, sounded without the
    # [N_t, T] matrix (which alone would take 1.8 GB)
    sc, plan, channel = readme_256
    cfg = TrainingConfig(1.0, 0.0)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        res = exhaustive_search(build_exhaustive_codebook(plan, sc), channel, cfg)
        wall = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.overhead == math.prod(plan.counts)
    assert peak < 200e6
    assert wall < 30.0
    # re-sound the five strongest slots with single beams: the dense argmax
    # among them is the selected beam
    top = np.argsort(-res.powers, kind="stable")[:5]
    combiner = probe_combiner_matrix(cfg.rx_probe_combiner, 16)
    dense = [float(np.sum(np.abs(combiner.conj().T @ (channel.entries @ airy_beam_vector(
        BeamParams(*res.slot_params(t)), sc.tx, CAR).weights)) ** 2)) for t in top]
    assert res.selected_params == BeamParams(*res.slot_params(top[int(np.argmax(dense))]))
