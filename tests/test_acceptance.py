"""End-to-end acceptance checks, one test per headline behavior.

Each test is self-contained, seeded, and asserts its own wall-clock budget.
The sampling-plan design-value check derives its distance-interval window
from the required distance argument: under the interval family
s_r = x_r^2/(d N^2) the window x_r = 4.59 +- 0.05 maps to
s_r in [0.294, 0.307] at N = 256 and half-wavelength spacing d.
"""

import math
import time

import numpy as np
import pytest

from airylink.beam import (
    BeamParams,
    GridSpec,
    airy_beam_vector,
    render_field_map,
)
from airylink.channel import (
    apply_calibration,
    calibrate,
    channel_error,
    gcm_channel,
    wcm_channel,
)
from airylink.codebook import (
    angle_correlation_closed,
    beam_correlation_numeric,
    build_exhaustive_codebook,
    build_farfield_codebook,
    build_hierarchical_codebooks,
    build_low_complexity_codebooks,
    build_nearfield_codebook,
    curving_correlation_closed,
    distance_correlation_closed,
    normalized_angle_separation,
    normalized_curving_separation,
    normalized_distance_separation,
    solve_sampling_plan,
)
from airylink.evaluation import (
    BeamformingScheme,
    build_scheme_beamformers,
    calibrated_wave_channels,
    noise_for_target_se,
)
from airylink.scenario import (
    BlockageGeometry,
    CarrierConfig,
    ScenarioConfig,
    blocked_pairs,
    half_wavelength_array,
)
from airylink.search import (
    TrainingConfig,
    exhaustive_search,
    farfield_steering_search,
    hierarchical_search,
    low_complexity_search,
    nearfield_focusing_search,
)

CAR = CarrierConfig(140e9)


# ------------------------------------------------ shared scheme-ordering setup

# Geometry chosen so the expected scheme ranking is physical: a small receive
# array (16 vs 128 elements) makes focusing gain matter, and a screen close to
# the receiver (0.9 of 1.0 m) means a tilted plane wave cannot bend its passed
# sliver back down onto the small aperture, while curved beams route around
# the edge and converging beams keep their focal point.
ORDER_WALL_X = 0.9
ORDER_HEIGHTS = np.linspace(0.0042, 0.0114, 20)


@pytest.fixture(scope="module")
def ordering_design():
    tx = half_wavelength_array(128, CAR)
    rx = half_wavelength_array(16, CAR)
    sc0 = ScenarioConfig(tx, rx, CAR, 1.0,
                         blockage=BlockageGeometry(ORDER_WALL_X, 0.02, 0.005, 0.5)
                         ).with_virtual_defaults(8)
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc0,
                               curving_range=(-10.0, 10.0), r_min=0.14)
    return {
        "tx": tx,
        "rx": rx,
        "plan": plan,
        "exhaustive": build_exhaustive_codebook(plan, sc0),
        "hier": build_hierarchical_codebooks(plan, sc0),
        "lowc": build_low_complexity_codebooks(sc0, plan),
    }


def _ordering_scenario(design, height):
    blk = BlockageGeometry(ORDER_WALL_X, 0.02, float(height), 0.5)
    return ScenarioConfig(design["tx"], design["rx"], CAR, 1.0,
                          blockage=blk).with_virtual_defaults(8)


# ------------------------------------------------- sampling-plan design values


def test_sampling_plan_reference_design_values():
    t0 = time.perf_counter()
    arr = half_wavelength_array(256, CAR)
    plan = solve_sampling_plan((0.4, 0.15, 0.0),
                               ScenarioConfig(arr, arr, CAR, 3.0))
    x_a, x_r, gamma = plan.solved_parameters
    s_a, s_r, s_th = plan.intervals
    assert time.perf_counter() - t0 < 1.0
    assert x_a == pytest.approx(1.69, abs=0.02)
    assert x_r == pytest.approx(4.59, abs=0.05)
    assert gamma == pytest.approx(0.0245, abs=1e-4)
    assert s_a == pytest.approx(0.25, abs=0.01)
    assert s_th == 2.0 / 256
    assert s_r == pytest.approx(x_r**2 / (arr.spacing * 256**2), rel=1e-12)
    lo, hi = ((4.59 + dx) ** 2 / (arr.spacing * 256**2) for dx in (-0.05, 0.05))
    assert lo <= s_r <= hi, (
        f"distance interval {s_r:.6f} outside [{lo:.6f}, {hi:.6f}], the image "
        "of the required x_r window 4.59 +- 0.05 "
        "(rebound-peak inversion of the 0.15 envelope target)")


# ---------------------------------------------------- correlation closed forms


def test_closed_form_beam_correlations_match_numeric():
    t0 = time.perf_counter()
    arr = half_wavelength_array(256, CAR)
    rng = np.random.default_rng(7)

    # 17 pairs split along the curving axis (same focus, same angle)
    for _ in range(17):
        base = rng.uniform(-2.0, 2.0)
        delta = rng.uniform(0.05, 2.0)
        r = rng.uniform(0.5, 4.0)
        v1 = airy_beam_vector(BeamParams(base, r, 0.0), arr, CAR)
        v2 = airy_beam_vector(BeamParams(base + delta, r, 0.0), arr, CAR)
        closed = curving_correlation_closed(
            normalized_curving_separation(delta, arr, CAR))
        assert abs(beam_correlation_numeric(v1, v2) - closed) <= 0.03

    # 17 pairs split along the focus-distance axis (boresight, no curving)
    for _ in range(17):
        r1, r2 = rng.uniform(0.5, 4.0, size=2)
        v1 = airy_beam_vector(BeamParams(0.0, r1, 0.0), arr, CAR)
        v2 = airy_beam_vector(BeamParams(0.0, r2, 0.0), arr, CAR)
        closed = distance_correlation_closed(
            normalized_distance_separation(r1, r2, 0.0, arr, CAR))
        assert abs(beam_correlation_numeric(v1, v2) - closed) <= 0.03

    # 16 pairs split along the steering axis: discrete kernel, exact
    for _ in range(16):
        s1, s2 = rng.uniform(-0.95, 0.95, size=2)
        v1 = airy_beam_vector(BeamParams(0.0, math.inf, math.asin(s1)), arr, CAR)
        v2 = airy_beam_vector(BeamParams(0.0, math.inf, math.asin(s2)), arr, CAR)
        closed = angle_correlation_closed(
            normalized_angle_separation(s1, s2, arr, CAR), 256)
        assert abs(beam_correlation_numeric(v1, v2) - closed) <= 1e-10

    assert time.perf_counter() - t0 < 10.0


# ----------------------------------------------------- cascaded-model accuracy


def test_cascaded_model_tracks_wave_truth_better_than_ray_model():
    t0 = time.perf_counter()
    arr = half_wavelength_array(64, CAR)
    gaps_db = []
    for height in np.linspace(-0.024, 0.032, 9):  # partial to near-full occlusion
        blk = BlockageGeometry(1.5, 0.05, float(height), 0.5)
        sc = ScenarioConfig(arr, arr, CAR, 3.0, blockage=blk).with_virtual_defaults(8)
        truth = calibrated_wave_channels(sc, "wcm").blocked
        err_cascade = channel_error(calibrated_wave_channels(sc, "cgwcm").blocked, truth)
        err_ray = channel_error(gcm_channel(sc), truth)
        assert err_cascade < err_ray
        gaps_db.append(20 * math.log10(err_ray / err_cascade))
    assert np.mean(gaps_db) >= 3.0
    assert time.perf_counter() - t0 < 30.0


# --------------------------------------------------- shadow-region diffraction


def test_wave_models_carry_power_into_fully_shadowed_rows():
    t0 = time.perf_counter()
    arr = half_wavelength_array(64, CAR)
    blk = BlockageGeometry(1.5, 0.05, 0.02, 0.5)
    sc = ScenarioConfig(arr, arr, CAR, 3.0, blockage=blk).with_virtual_defaults(8)
    shadowed = blocked_pairs(sc).all(axis=1)
    assert shadowed.any() and not shadowed.all()

    def row_power(ch):
        return np.sum(np.abs(ch.entries[shadowed]) ** 2, axis=1)

    p_ray = row_power(gcm_channel(sc))
    p_wave = row_power(calibrated_wave_channels(sc, "wcm").blocked)
    p_cascade = row_power(calibrated_wave_channels(sc, "cgwcm").blocked)
    assert np.all(p_ray == 0.0)
    assert np.all(p_wave > 0.0)
    assert np.all(p_cascade > 0.0)
    ratio_db = 10 * np.log10(p_cascade / p_wave)
    assert np.mean(np.abs(ratio_db) <= 3.0) >= 0.80
    assert time.perf_counter() - t0 < 120.0


# ------------------------------------------------------ calibration round-trip


def test_channel_calibration_recovers_scale_and_phase():
    t0 = time.perf_counter()
    arr = half_wavelength_array(16, CAR)
    blk = BlockageGeometry(0.5, 0.02, 0.003, 0.5)
    sc = ScenarioConfig(arr, arr, CAR, 1.0, blockage=blk).with_virtual_defaults(4)
    ref = gcm_channel(sc, use_blockage=False)
    for model in ("wcm", "cgwcm"):
        cal = calibrated_wave_channels(sc, model).non_blocked
        assert abs(cal.frobenius - ref.frobenius) <= 1e-12 * ref.frobenius

    scaled = type(ref)(ref.entries * (2.0 * np.exp(1j * np.pi / 4)), ref.model)
    params = calibrate(scaled, ref)
    assert params.amplitude == pytest.approx(0.5, abs=1e-9)
    assert params.phase == pytest.approx(-np.pi / 4, abs=1e-9)
    fixed = apply_calibration(scaled, params)
    np.testing.assert_allclose(fixed.entries, ref.entries, rtol=1e-9)
    assert time.perf_counter() - t0 < 1.0


# ------------------------------------------------------ curved-beam invariants


def test_curved_beam_modulus_mirror_and_self_healing():
    t0 = time.perf_counter()
    arr = half_wavelength_array(128, CAR)

    # (i) phase-only weights: every element at 1/sqrt(N)
    for params in (BeamParams(0.0, 1.0, 0.0), BeamParams(2.5, 0.7, -0.4),
                   BeamParams(-4.0, math.inf, 0.9)):
        v = airy_beam_vector(params, arr, CAR)
        np.testing.assert_allclose(np.abs(v.weights), 1 / math.sqrt(128),
                                   rtol=1e-12, atol=0)

    # (ii) boresight mirror: flipping the curving sign reverses the aperture
    plus = airy_beam_vector(BeamParams(2.0, 0.5, 0.0), arr, CAR)
    minus = airy_beam_vector(BeamParams(-2.0, 0.5, 0.0), arr, CAR)
    np.testing.assert_allclose(plus.weights, minus.weights[::-1], atol=1e-9)

    # (iii) a thin screen strip in the beam path: the curved beam rebuilds,
    # receive-plane peak within 6 dB of the unobstructed one
    blk = BlockageGeometry(0.45, 0.02, 0.012, -0.004)
    sc = ScenarioConfig(arr, arr, CAR, 1.0, blockage=blk).with_virtual_defaults(8)
    beam = airy_beam_vector(BeamParams(2.0, 1.0, 0.0), arr, CAR)
    rx_blocked = wcm_channel(sc).entries @ beam.weights
    rx_free = wcm_channel(sc, use_blockage=False).entries @ beam.weights
    gap_db = 20 * math.log10(np.abs(rx_free).max() / np.abs(rx_blocked).max())
    assert gap_db <= 6.0

    fmap = render_field_map(beam, sc, GridSpec(0.02, 1.0, 200, -0.08, 0.08, 200))
    assert fmap.power_db.shape == (200, 200)
    assert fmap.mask_applied
    assert np.all(np.isfinite(fmap.power_db))
    peak_x, _ = fmap.peak()
    assert peak_x > blk.far_x  # energy reconcentrates downstream of the screen
    assert time.perf_counter() - t0 < 180.0


# ------------------------------------------------------------- scheme ordering


def test_search_scheme_spectral_efficiency_ordering(ordering_design):
    t0 = time.perf_counter()
    design = ordering_design
    hier_stage1, hier_factory = design["hier"]
    lowc_stage1, lowc_factory = design["lowc"]
    scheme_of = {
        "exhaustive": BeamformingScheme.EXHAUSTIVE,
        "hierarchical": BeamformingScheme.HIERARCHICAL,
        "low_complexity": BeamformingScheme.LOW_COMPLEXITY,
        "farfield": BeamformingScheme.FARFIELD_STEERING,
        "nearfield": BeamformingScheme.NEARFIELD_FOCUSING,
    }
    ranking = ["perfect_csi", "exhaustive", "hierarchical", "low_complexity",
               "nearfield", "farfield"]
    violations = {pair: 0 for pair in zip(ranking, ranking[1:])}
    gaps_vs_nearfield, gaps_vs_farfield = [], []
    overheads = {}

    for i, height in enumerate(ORDER_HEIGHTS):
        sc = _ordering_scenario(design, height)
        assert blocked_pairs(sc).mean() > 0.5
        channels = calibrated_wave_channels(sc)
        noise = noise_for_target_se(channels.non_blocked, 1.0, 15.0)
        # training pilots integrate longer than payload symbols
        cfg = TrainingConfig(1.0, noise / 100.0, rng_seed=i)
        results = {
            "exhaustive": exhaustive_search(design["exhaustive"],
                                            channels.blocked, cfg),
            "hierarchical": hierarchical_search(hier_stage1, hier_factory,
                                                channels.blocked, cfg),
            "low_complexity": low_complexity_search(lowc_stage1, lowc_factory,
                                                    channels.blocked, cfg),
            "farfield": farfield_steering_search(
                build_farfield_codebook(sc, design["plan"]), channels.blocked, cfg),
            "nearfield": nearfield_focusing_search(
                build_nearfield_codebook(sc), channels.blocked, cfg),
        }
        overheads = {name: r.overhead for name, r in results.items()}
        se = {"perfect_csi": build_scheme_beamformers(
            BeamformingScheme.PERFECT_CSI, design_channel=channels.blocked
        ).evaluate(channels.blocked, 1.0, noise)}
        for name, result in results.items():
            se[name] = build_scheme_beamformers(
                scheme_of[name], beam=result.selected_vector,
                design_channel=channels.non_blocked,
            ).evaluate(channels.blocked, 1.0, noise)
        for pair in violations:
            if se[pair[0]] < se[pair[1]] - 1e-12:
                violations[pair] += 1
        gaps_vs_nearfield.append(se["hierarchical"] - se["nearfield"])
        gaps_vs_farfield.append(se["hierarchical"] - se["farfield"])

    # each adjacent pair must hold in at least 18 of 20 scenarios
    for pair, count in violations.items():
        assert count <= 2, f"{pair[0]} >= {pair[1]} violated {count}/20 times"
    assert np.mean(gaps_vs_nearfield) > 0.0
    assert np.mean(gaps_vs_farfield) > 0.0

    t_low = overheads["low_complexity"]
    t_fast = overheads["hierarchical"]
    t_full = overheads["exhaustive"]
    assert t_low < t_fast < t_full
    assert t_fast <= 0.3 * t_full
    assert t_low <= 0.2 * t_fast
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------- unblocked-reference robustness


def test_unblocked_reference_precoder_tracks_blocked_design(ordering_design):
    t0 = time.perf_counter()
    design = ordering_design
    for height in (0.0, 0.001, 0.002, 0.003, 0.0035):
        sc = _ordering_scenario(design, height)
        occlusion = blocked_pairs(sc).mean()
        assert occlusion < 0.75
        channels = calibrated_wave_channels(sc)
        noise = noise_for_target_se(channels.non_blocked, 1.0, 15.0)
        cfg = TrainingConfig(1.0, noise / 100.0, rng_seed=0)
        result = exhaustive_search(design["exhaustive"], channels.blocked, cfg)
        se_unblocked_ref = build_scheme_beamformers(
            BeamformingScheme.EXHAUSTIVE, beam=result.selected_vector,
            design_channel=channels.non_blocked,
        ).evaluate(channels.blocked, 1.0, noise)
        se_blocked_ref = build_scheme_beamformers(
            BeamformingScheme.EXHAUSTIVE, beam=result.selected_vector,
            design_channel=channels.blocked,
        ).evaluate(channels.blocked, 1.0, noise)
        assert abs(se_blocked_ref - se_unblocked_ref) <= 1.0, (
            f"occlusion {occlusion:.2f}: digital stage designed without "
            f"blockage knowledge loses {se_blocked_ref - se_unblocked_ref:.2f}")
    assert time.perf_counter() - t0 < 300.0


# ----------------------------------------------------------- sweep determinism


SWEEP_CONFIG = """\
scenario:
  frequency_hz: 140.0e9
  link_distance_m: 1.0
  tx_elements: 16
  rx_elements: 16
  virtual_planes: 4
  blockage:
    distance_from_tx_m: 0.5
    width_m: 0.02
    extent_above_m: 0.003
    extent_below_m: 0.5
codebook:
  targets: [0.4, 0.15, 0.0]
  curving_range: 4.0
  r_min_m: 0.2
training:
  transmit_power: 1.0
  target_se_bps_hz: 10.0
  rng_seed: 0
sweep:
  variable: height
  grid: [0.0, 0.003]
  schemes: [perfect, nonblocked]
"""


def test_sweep_rerun_is_byte_identical(tmp_path):
    from airylink.cli import main

    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(SWEEP_CONFIG)
    out = tmp_path / "out"

    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    first_csv = (out / "results" / "sweep.csv").read_bytes()
    first_manifest = (out / "manifest.txt").read_bytes()

    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "results" / "sweep.csv").read_bytes() == first_csv
    assert (out / "manifest.txt").read_bytes() == first_manifest
