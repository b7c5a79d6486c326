"""Beamformer construction, spectral efficiency, and sweep driver."""

import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from airylink import evaluation
from airylink.beam import BeamParams, BeamVector, airy_beam_vector
from airylink.channel import ChannelMatrix, ChannelModel, MultipathRay, gcm_channel, nlos_component
from airylink.codebook import solve_sampling_plan
from airylink.evaluation import (
    Beamformers,
    BeamformingScheme,
    ChannelSet,
    SweepRow,
    SweepSpec,
    SweptVariable,
    build_scheme_beamformers,
    calibrated_wave_channels,
    k_factor_ratio,
    noise_for_target_se,
    run_scheme,
    run_sweep,
    scheme_codebooks,
    spectral_efficiency,
    target_snr,
)
from airylink.scenario import (
    BlockageGeometry,
    CarrierConfig,
    ScenarioConfig,
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
from airylink.codebook import (
    build_exhaustive_codebook,
    build_farfield_codebook,
    build_hierarchical_codebooks,
    build_low_complexity_codebooks,
    build_nearfield_codebook,
)

CAR = CarrierConfig(140e9)


def _scenario(n=32, d_link=1.0, blk=None):
    arr = half_wavelength_array(n, CAR)
    sc = ScenarioConfig(arr, arr, CAR, d_link, blockage=blk)
    return sc.with_virtual_defaults(4) if blk is not None else sc


def _random_channel(nr, nt, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((nr, nt)) + 1j * rng.standard_normal((nr, nt))
    return ChannelMatrix(h, ChannelModel.SYNTHETIC)


# ------------------------------------------------------------ top singular pair

def test_svd_rank_one_recovery():
    u = np.array([1, 1j, -1, 0.5]) / math.sqrt(3.25)
    v = np.array([1, -1j, 2]) / math.sqrt(6)
    h = ChannelMatrix(4.2 * np.outer(u, v.conj()), ChannelModel.SYNTHETIC)
    bf = build_scheme_beamformers(BeamformingScheme.PERFECT_CSI, design_channel=h)
    assert bf.rank_deficient.tolist() == [False]
    [f], [w] = bf.precoder, bf.combiner
    assert np.linalg.norm(f) == pytest.approx(1.0, rel=1e-12)
    assert abs(np.vdot(f, v)) == pytest.approx(1.0, rel=1e-12)  # aligned up to phase
    assert abs(np.vdot(w, u)) == pytest.approx(1.0, rel=1e-12)
    assert abs(w.conj() @ h.entries @ f) == pytest.approx(4.2, rel=1e-12)


def _farfield_beam(sc):
    return exhaustive_search(build_farfield_codebook(sc), gcm_channel(sc),
                             TrainingConfig(1.0, 0.0)).selected_vector


@pytest.mark.parametrize("searched", [False, True])
def test_zero_design_channel_is_rank_deficient(searched):
    zero = ChannelMatrix(np.zeros((32, 32), complex), ChannelModel.SYNTHETIC)
    if searched:
        bf = build_scheme_beamformers(BeamformingScheme.FARFIELD_STEERING,
                                      _farfield_beam(_scenario(32, 1.0)), zero)
    else:
        bf = build_scheme_beamformers(BeamformingScheme.PERFECT_CSI, design_channel=zero)
    assert bf.rank_deficient.tolist() == [True]
    np.testing.assert_array_equal(bf.precoder, 0)
    np.testing.assert_array_equal(bf.combiner, 0)
    link = _random_channel(32, 32, 0)
    assert bf.evaluate(link, 1.0, 1.0).tolist() == [0.0]


# ------------------------------------------------------ spectral efficiency

def test_siso_shannon_rate():
    h = ChannelMatrix(np.array([[2.0 + 0j]]), ChannelModel.SYNTHETIC)
    [se] = spectral_efficiency(np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]]), h, 1.0, 1.0)
    assert se == pytest.approx(math.log2(5.0), rel=1e-12)


def test_se_refuses_misshapen_vectors_naming_shapes():
    # K vectors of the channel's columns and of its rows, one per link
    h = _random_channel(2, 3, 10)
    f, w = np.ones((4, 3), complex) / math.sqrt(3), np.ones((4, 2), complex)
    assert spectral_efficiency(f, w, h, 1.0, 1.0).shape == (4,)
    for bad_f, bad_w in ((f[0], w[0]), (f, w[0]), (f[:, :, None], w[:, :, None]),
                         (f[:, :2], w), (f, np.ones((4, 3))), (f.T, w.T), (f[:3], w)):
        want = (f"precoder must be [K, 3] and combiner [K, 2] over a 2 x 3 channel, "
                f"got {bad_f.shape} and {bad_w.shape}")
        with pytest.raises(ValueError) as err:
            spectral_efficiency(bad_f, bad_w, h, 1.0, 1.0)
        assert str(err.value) == want


def test_se_global_phase_and_combiner_scale_invariance():
    h = _random_channel(5, 8, 1)
    rng = np.random.default_rng(2)
    f = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
    f /= np.linalg.norm(f)
    w = rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5))
    base = spectral_efficiency(f, w, h, 2.0, 0.5)
    assert spectral_efficiency(f * np.exp(0.7j), w, h, 2.0, 0.5) == \
        pytest.approx(base, abs=1e-9)
    assert spectral_efficiency(f, w * np.exp(-1.1j), h, 2.0, 0.5) == \
        pytest.approx(base, abs=1e-9)
    assert spectral_efficiency(f, w * 3.0, h, 2.0, 0.5) == \
        pytest.approx(base, abs=1e-9)


def test_se_requires_positive_powers():
    h = _random_channel(2, 2, 3)
    f = np.array([[1.0 + 0j, 0.0]])
    with pytest.raises(ValueError, match="powers must be positive"):
        spectral_efficiency(f, f, h, 0.0, 1.0)
    with pytest.raises(ValueError, match="powers must be positive"):
        spectral_efficiency(f, f, h, 1.0, 0.0)


def test_se_zero_combiner_rate_is_zero():
    # no signal and no noise: the combined noise covariance is singular
    h = _random_channel(4, 4, 4)
    f = np.full(4, 0.5 + 0j)
    w = np.zeros(4, complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectral_efficiency(f[None], w[None], h, 1.0, 1.0).tolist() == [0.0]
        se = spectral_efficiency(np.stack([f, f]), np.stack([w, f]), h, 1.0, 1.0)
    assert se[0] == 0.0 and se[1] > 0


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e150])
def test_se_combiner_scale_invariance_at_extreme_scales(scale):
    # a combiner whose ||w||^2 underflows or nears overflow still has the
    # unit combiner's rate: each combiner is scaled by a power of two first
    h = _random_channel(5, 8, 1)
    rng = np.random.default_rng(3)
    f = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
    f /= np.linalg.norm(f)
    w = rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5))
    w /= np.linalg.norm(w)
    [unit] = spectral_efficiency(f, w, h, 1.0, 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        [scaled] = spectral_efficiency(f, w * scale, h, 1.0, 1e-3)
    assert unit > 1.0
    assert scaled == pytest.approx(unit, rel=1e-12)


def test_svd_precoder_dominates_random():
    h = _random_channel(6, 16, 5)
    bf = build_scheme_beamformers(BeamformingScheme.PERFECT_CSI, design_channel=h)
    [best] = bf.evaluate(h, 1.0, 1.0)
    rng = np.random.default_rng(6)
    f = rng.standard_normal((100, 16)) + 1j * rng.standard_normal((100, 16))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    w = f @ h.entries.T                # matched-filter combiners
    assert np.all(spectral_efficiency(f, w, h, 1.0, 1.0) <= best + 1e-12)


# ------------------------------------------------------ combiner decomposition

def test_decompose_exactly_representable():
    # a rank-one channel whose left vector is constant modulus: the analog
    # combiner's phases carry it exactly
    rng = np.random.default_rng(7)
    u = np.exp(1j * rng.uniform(-np.pi, np.pi, 8)) / math.sqrt(8)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    h = ChannelMatrix(0.9 * np.outer(u, v.conj()), ChannelModel.SYNTHETIC)
    beam = _farfield_beam(_scenario(8, 1.0))
    bf = build_scheme_beamformers(BeamformingScheme.FARFIELD_STEERING, beam, h)
    [comp] = bf.combiner
    np.testing.assert_allclose(np.abs(comp), 1 / math.sqrt(8))
    assert np.linalg.norm(comp) ** 2 == pytest.approx(1.0, rel=1e-9)
    # composite keeps the ideal direction exactly
    assert abs(np.vdot(comp, u)) == pytest.approx(
        np.linalg.norm(comp) * np.linalg.norm(u), rel=1e-12)


# ----------------------------------------------------------- beamformer sets

def test_beamformers_power_constraint_enforced():
    n = 8
    f = np.full((1, n), 1 / math.sqrt(n), dtype=complex)
    flat = np.array([False])
    Beamformers(f, f, flat)
    with pytest.raises(ValueError, match="must have unit power"):
        Beamformers(2.0 * f, f, flat)
    Beamformers(0.0 * f, f, np.array([True]))  # a rank-0 design's zero precoder


def _benchmark_reference(design):
    """A benchmark's vectors [N x 1] and rank-0 flag formed as before they
    were stored alone: identity analog stages times the top singular pair
    of the design channel as a stack of one, with a rank test against a
    tolerance and a unit-power digital precoder."""
    h = design.entries
    n_r, n_t = h.shape
    u, s, vh = np.linalg.svd(h[None], full_matrices=False)
    rank_deficient = not np.any(s[0] > max(n_r, n_t) * np.finfo(float).eps * s[0, 0])
    f_bb, w_opt = np.zeros((n_t, 1), complex), np.zeros((n_r, 1), complex)
    if not rank_deficient:
        f_bb[:, 0], w_opt[:, 0] = vh[0, 0].conj(), u[0, :, 0]
        f_bb *= 1.0 / np.linalg.norm(f_bb)
    return (np.eye(n_t, dtype=complex) @ f_bb, np.eye(n_r, dtype=complex) @ w_opt,
            rank_deficient)


def test_full_digital_identity_analog():
    # dropping the identity analog stages changes no composite and no rate
    zero = ChannelMatrix(np.zeros((4, 6), complex), ChannelModel.SYNTHETIC)
    cases = {"random": ChannelSet(*(_random_channel(4, 6, seed) for seed in (11, 12, 13))),
             "zero": ChannelSet(zero, zero, zero),
             "1x1": ChannelSet(*(_random_channel(1, 1, seed) for seed in (14, 15, 16)))}
    cfg = TrainingConfig(1.0, 0.05)
    for case, channels in cases.items():
        for scheme in (s for s in BeamformingScheme if not s.searched):
            design, link = (getattr(channels, name) for name in scheme.channel_fields)
            f, w, rank_deficient = _benchmark_reference(design)
            bf = build_scheme_beamformers(scheme, design_channel=design)
            assert np.array_equal(bf.precoder, f.T) and np.array_equal(bf.combiner, w.T)
            assert bf.rank_deficient.tolist() == [rank_deficient] == [case == "zero"]
            [(se, _)] = evaluation._deploy(scheme, None, channels, cfg)
            assert repr(se) == repr(_reference_rate(f, w, link, 1.0, 0.05)[1]), (case, scheme)


def test_searched_beamformers_wrap_searched_vector():
    sc = _scenario(32, 1.0)
    h = gcm_channel(sc)
    book = build_farfield_codebook(sc)
    res = exhaustive_search(book, h, TrainingConfig(1.0, 0.0))
    bf = build_scheme_beamformers(BeamformingScheme.FARFIELD_STEERING,
                                  res.selected_vector, h)
    # the searched beam itself
    assert np.array_equal(bf.precoder, [res.selected_vector.weights])
    noise = noise_for_target_se(h, 1.0, 8.0)
    [se] = bf.evaluate(h, 1.0, noise)
    assert 0 < se <= 8.0 + 1e-9


def test_scheme_builder_validation():
    h = _random_channel(4, 8, 9)
    with pytest.raises(ValueError):
        build_scheme_beamformers(BeamformingScheme.EXHAUSTIVE)
    with pytest.raises(ValueError):
        build_scheme_beamformers(BeamformingScheme.PERFECT_CSI)
    with pytest.raises(ValueError):
        build_scheme_beamformers(BeamformingScheme.NON_BLOCKED)
    bf = build_scheme_beamformers(BeamformingScheme.PERFECT_CSI, design_channel=h)
    assert (bf.precoder.shape, bf.combiner.shape, bf.rank_deficient.shape) == \
        ((1, 8), (1, 4), (1,))


def test_perfect_csi_dominates_searched_hybrid():
    blk = BlockageGeometry(0.5, 0.02, 0.005, 0.5)
    sc = _scenario(32, 1.0, blk)
    channels = calibrated_wave_channels(sc)
    noise = noise_for_target_se(channels.non_blocked, 1.0, 10.0)
    cfg = TrainingConfig(1.0, 0.0)
    res = farfield_steering_search(build_farfield_codebook(sc), channels.blocked, cfg)
    hybrid = build_scheme_beamformers(BeamformingScheme.FARFIELD_STEERING,
                                      beam=res.selected_vector,
                                      design_channel=channels.non_blocked)
    csi = build_scheme_beamformers(BeamformingScheme.PERFECT_CSI,
                                   design_channel=channels.blocked)
    se_h = hybrid.evaluate(channels.blocked, 1.0, noise)
    se_c = csi.evaluate(channels.blocked, 1.0, noise)
    assert se_c >= se_h - 1e-12


def test_noise_for_target_se_exact():
    sc = _scenario(64, 1.0)
    h = gcm_channel(sc)
    noise = noise_for_target_se(h, 1.0, 15.0)
    bf = build_scheme_beamformers(BeamformingScheme.PERFECT_CSI, design_channel=h)
    assert bf.evaluate(h, 1.0, noise) == pytest.approx(15.0, abs=1e-9)
    zero = ChannelMatrix(np.zeros((2, 2), complex), ChannelModel.SYNTHETIC)
    with pytest.raises(ValueError):
        noise_for_target_se(zero, 1.0, 10.0)


@pytest.mark.parametrize("target_se", [1e-20, 2000.0, 0.0, -1.0, math.nan])
def test_noise_for_target_se_refuses_target_named(target_se):
    # 1e-20 rounds 2**t - 1 to zero (ZeroDivisionError before), 2000
    # overflows it (OverflowError before)
    identity = ChannelMatrix(np.eye(2, dtype=complex), ChannelModel.SYNTHETIC)
    with pytest.raises(ValueError, match="target_se"):
        noise_for_target_se(identity, 1.0, target_se)


@pytest.mark.parametrize("rule, value, key", [
    (target_snr, 1e-20, "training.target_se_bps_hz"),
    (target_snr, 2000.0, "training.target_se_bps_hz"),
    (target_snr, -1.0, "training.target_se_bps_hz"),
    (k_factor_ratio, 4000.0, "multipath.k_factor_db"),
    (k_factor_ratio, -3200.0, "multipath.k_factor_db"),
    (k_factor_ratio, math.nan, "multipath.k_factor_db"),
])
def test_ratio_rules_start_with_their_config_key(rule, value, key):
    # the one copy of each range rule, which the config reader calls too
    with pytest.raises(ValueError, match=f"^{key}: "):
        rule(value)


def test_ratio_rules_return_their_ratio():
    assert target_snr(1.0) == 1.0 and target_snr(10.0) == 1023.0
    assert k_factor_ratio(10.0) == 10.0 and k_factor_ratio(-10.0) == pytest.approx(0.1)


@pytest.mark.parametrize("k_factor_db", [4000.0, -3200.0, math.nan])
def test_k_factor_refused_before_any_channel_named(k_factor_db, monkeypatch):
    # 4000 overflows 10**(k/10) (OverflowError before); -3200 makes it
    # subnormal, so the scattered part would scale to inf
    calls = _count_channel_builds(monkeypatch)
    rays = (MultipathRay(-8.0, 0.25, -0.2, 3e-10),)
    with pytest.raises(ValueError, match="k_factor_db"):
        calibrated_wave_channels(_sweep_scenario(), "wcm", rays, k_factor_db=k_factor_db)
    assert not calls


# ------------------------------------------------------------------- sweeps

def test_sweep_spec_validation():
    # each rule's message starts with the `sweep` config key it checks
    with pytest.raises(ValueError, match="^sweep.grid: must be non-empty$"):
        SweepSpec(SweptVariable.BLOCKAGE_HEIGHT, (), (BeamformingScheme.PERFECT_CSI,))
    with pytest.raises(ValueError, match="^sweep.repetitions: must be >= 1$"):
        SweepSpec(SweptVariable.BLOCKAGE_HEIGHT, (0.1,),
                  (BeamformingScheme.PERFECT_CSI,), repetitions=0)
    with pytest.raises(ValueError, match="^sweep.grid: power values must be > 0$"):
        SweepSpec(SweptVariable.TRANSMIT_POWER, (0.0, 1.0), (BeamformingScheme.PERFECT_CSI,))
    # overhead budgets are whole slot counts of at least one
    searched = (BeamformingScheme.FARFIELD_STEERING,)
    for budget in (-3, 0, 0.5, 2.9, math.inf):
        with pytest.raises(ValueError, match="^sweep.grid: overhead budgets"):
            SweepSpec(SweptVariable.OVERHEAD, (1, budget), searched)
    SweepSpec(SweptVariable.OVERHEAD, (1, 2.0, 10_000), searched)
    # and take searched schemes only, each benchmark listed by its short name
    benchmarks = (BeamformingScheme.PERFECT_CSI, BeamformingScheme.NLOS_ONLY)
    with pytest.raises(ValueError, match="^sweep.schemes: an overhead sweep takes "
                       "searched schemes only, not perfect, nlos$"):
        SweepSpec(SweptVariable.OVERHEAD, (1,), (*searched, *benchmarks))
    SweepSpec(SweptVariable.TRANSMIT_POWER, (1.0,), benchmarks)


@pytest.mark.parametrize("change, message", [
    ({"schemes": ()}, "sweep.schemes: must be non-empty"),
    ({"repetitions": 1.5}, "sweep.repetitions: must be an integer, got 1.5"),
    ({"repetitions": True}, "sweep.repetitions: must be an integer, got True"),
    ({"repetitions": -2}, "sweep.repetitions: must be >= 1"),
    ({"base_seed": -1}, "training.rng_seed: must be >= 0"),
    ({"base_seed": 2.0}, "training.rng_seed: must be an integer, got 2.0"),
    ({"grid": (1.0, math.inf)}, "sweep.grid: power values must be finite"),
])
def test_sweep_spec_refuses_library_input_naming_key(change, message):
    fields = {"swept_variable": SweptVariable.TRANSMIT_POWER, "grid": (1.0,),
              "schemes": (BeamformingScheme.PERFECT_CSI,), **change}
    with pytest.raises(ValueError) as err:
        SweepSpec(**fields)
    assert str(err.value) == message


def _sweep_scenario():
    blk = BlockageGeometry(0.5, 0.02, 0.0, 0.5)
    return _scenario(32, 1.0, blk)


def test_height_sweep_rows_and_determinism():
    sc = _sweep_scenario()
    spec = SweepSpec(SweptVariable.BLOCKAGE_HEIGHT, (0.0, 0.01),
                     (BeamformingScheme.PERFECT_CSI, BeamformingScheme.NON_BLOCKED),
                     base_seed=3)
    noise = noise_for_target_se(calibrated_wave_channels(sc).non_blocked, 1.0, 10.0)
    cfg = TrainingConfig(1.0, noise)
    rows = run_sweep(spec, sc, None, cfg)
    assert len(rows) == 4
    assert all(isinstance(r, SweepRow) for r in rows)
    assert rows == run_sweep(spec, sc, None, cfg)   # bit-identical rerun
    assert {r.scheme for r in rows} == {"perfect_csi", "non_blocked"}
    assert [r.value for r in rows] == [0.0, 0.0, 0.01, 0.01]
    by = {(r.value, r.scheme): r.spectral_efficiency_bps_hz for r in rows}
    # SVD on the realized channel dominates the mismatched precoder
    for v in (0.0, 0.01):
        assert by[(v, "perfect_csi")] >= by[(v, "non_blocked")] - 1e-12
    # taller wall cannot help the non-blocked precoder
    assert by[(0.01, "non_blocked")] <= by[(0.0, "non_blocked")] + 1e-9


def test_nlos_only_rows_constant_across_heights():
    sc = _sweep_scenario()
    rays = [MultipathRay(-8.0, 0.25, -0.2, 3e-10)]
    nlos = nlos_component(sc, rays)

    def builder(point):
        base = calibrated_wave_channels(point)
        return ChannelSet(base.blocked, base.non_blocked, nlos)

    spec = SweepSpec(SweptVariable.BLOCKAGE_HEIGHT, (0.0, 0.005, 0.01),
                     (BeamformingScheme.NLOS_ONLY,))
    cfg = TrainingConfig(1.0, noise_for_target_se(nlos, 1.0, 6.0))
    rows = run_sweep(spec, sc, None, cfg, channel_builder=builder)
    ses = [r.spectral_efficiency_bps_hz for r in rows]
    assert ses[0] == ses[1] == ses[2]   # exactly constant, by construction


def test_each_scheme_row_designs_and_runs_on_its_own_channels():
    # three unrelated matrices, so a row on the wrong channel cannot match
    sc = _sweep_scenario()
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-6.0, 6.0),
                               r_min=0.2)
    cs = ChannelSet(*(_random_channel(32, 32, seed) for seed in (1, 2, 3)))
    want = {  # scheme: (design channel, link channel)
        BeamformingScheme.PERFECT_CSI: (cs.blocked, cs.blocked),
        BeamformingScheme.NON_BLOCKED: (cs.non_blocked, cs.blocked),
        BeamformingScheme.NLOS_ONLY: (cs.nlos_only, cs.nlos_only),
    }
    searched = BeamformingScheme.FARFIELD_STEERING
    spec = SweepSpec(SweptVariable.TRANSMIT_POWER, (2.0,), (*want, searched), base_seed=4)
    cfg = TrainingConfig(1.0, 1.0)
    rows = run_sweep(spec, sc, plan, cfg, channel_builder=lambda point: cs)
    run_cfg = TrainingConfig(2.0, 1.0, rng_seed=rows[0].seed)
    for row, (scheme, (design, link)) in zip(rows, want.items()):
        assert row.scheme == scheme.value
        assert row.spectral_efficiency_bps_hz == build_scheme_beamformers(
            scheme, design_channel=design).evaluate(link, 2.0, 1.0), scheme
    result, se, _ = run_scheme(searched, cs, scheme_codebooks(searched, sc, plan), run_cfg)
    assert (rows[-1].overhead_slots, rows[-1].spectral_efficiency_bps_hz) == (
        result.overhead, se)
    assert rows[-1].spectral_efficiency_bps_hz == build_scheme_beamformers(
        searched, result.selected_vector, cs.non_blocked).evaluate(cs.blocked, 2.0, 1.0)


def _count_calls(monkeypatch, names, key):
    """Count calls of `evaluation` attributes, keyed by key(name, *args).

    Counted where the library looks them up, as the benchmark's spans do.
    """
    import airylink.evaluation as ev

    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[key(name, *args, **kwargs)] += 1
            return fn(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(ev, name, counting(name, getattr(ev, name)))
    return calls


def _count_channel_builds(monkeypatch):
    return _count_calls(
        monkeypatch, ("gcm_channel", "wcm_channel", "cgwcm_channel"),
        lambda name, scenario, use_blockage=True: (name, use_blockage))


def test_multipath_set_builds_each_channel_once(monkeypatch):
    from airylink.cli import MultipathOptions, RunConfig, build_channel_set

    calls = _count_channel_builds(monkeypatch)
    rays = (MultipathRay(-8.0, 0.25, -0.2, 3e-10),)
    cfg = RunConfig(_sweep_scenario(), None, None, MultipathOptions(rays, "wcm", 6.0), None)
    channels = build_channel_set(cfg)
    assert calls == {("wcm_channel", False): 1, ("gcm_channel", False): 1,
                     ("wcm_channel", True): 1}
    assert channels.nlos_only is not None


SWEEP_CONFIG = """\
scenario:
  frequency_hz: 140.0e9
  link_distance_m: 1.0
  tx_elements: 32
  virtual_planes: 4
  blockage: {{distance_from_tx_m: 0.5, width_m: 0.02, extent_above_m: 0.0,
             extent_below_m: 0.5}}
codebook: {{r_min_m: 0.2}}
sweep: {{variable: {variable}, grid: {grid}, schemes: {schemes}}}
"""


@pytest.mark.parametrize("variable, grid, schemes", [
    ("power", "[0.5, 1.0, 2.0]", "[perfect, nonblocked, ff]"),
    ("overhead", "[1, 4, 40]", "[ff]"),
])
def test_base_scenario_sweep_builds_each_channel_once(tmp_path, monkeypatch,
                                                      variable, grid, schemes):
    # the CLI builds the set to resolve the noise; every point reuses it
    from airylink.cli import main

    calls = _count_channel_builds(monkeypatch)
    config = tmp_path / "cfg.yaml"
    config.write_text(SWEEP_CONFIG.format(variable=variable, grid=grid,
                                          schemes=schemes))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert calls == {("wcm_channel", False): 1, ("gcm_channel", False): 1,
                     ("wcm_channel", True): 1}


BOOK_BUILDERS = ("build_exhaustive_codebook", "build_hierarchical_codebooks",
                 "build_low_complexity_codebooks", "build_farfield_codebook",
                 "build_nearfield_codebook")


@pytest.mark.parametrize("variable, grid, repetitions", [
    (SweptVariable.BLOCKAGE_HEIGHT, (0.0, 0.004, 0.01), 2),
    (SweptVariable.OVERHEAD, (1, 8, 1000), 3),
])
def test_sweep_builds_each_scheme_book_once(monkeypatch, variable, grid, repetitions):
    calls = _count_calls(monkeypatch, BOOK_BUILDERS, lambda name, *args: name)
    sc = _sweep_scenario()
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-6.0, 6.0),
                               r_min=0.2)
    schemes = tuple(s for s in BeamformingScheme if s.searched)
    spec = SweepSpec(variable, grid, schemes, repetitions=repetitions)
    rows = run_sweep(spec, sc, plan, TrainingConfig(1.0, 1e-12))
    assert len(rows) == len(grid) * len(schemes) * repetitions
    assert calls == {name: 1 for name in BOOK_BUILDERS}


def test_transmit_power_sweep_monotone():
    sc = _sweep_scenario()
    channels = calibrated_wave_channels(sc)
    noise = noise_for_target_se(channels.non_blocked, 1.0, 10.0)
    spec = SweepSpec(SweptVariable.TRANSMIT_POWER, (0.5, 1.0, 2.0),
                     (BeamformingScheme.PERFECT_CSI,))
    rows = run_sweep(spec, sc, None, TrainingConfig(1.0, noise))
    ses = [r.spectral_efficiency_bps_hz for r in rows]
    assert ses[0] < ses[1] < ses[2]


def test_overhead_sweep_envelope():
    sc = _sweep_scenario()
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-6.0, 6.0),
                               r_min=0.2)
    channels = calibrated_wave_channels(sc)
    noise = noise_for_target_se(channels.non_blocked, 1.0, 10.0)
    cfg = TrainingConfig(1.0, noise)
    spec = SweepSpec(SweptVariable.OVERHEAD, (1, 5, 20, 10_000),
                     (BeamformingScheme.FARFIELD_STEERING,), base_seed=1)
    rows = run_sweep(spec, sc, plan, cfg)
    assert len(rows) == 4
    ses = [r.spectral_efficiency_bps_hz for r in rows]
    assert all(b >= a - 1e-15 for a, b in zip(ses, ses[1:]))  # running max
    assert rows[0].overhead_slots == 1
    assert rows[-1].overhead_slots == 31        # clipped at the full trace
    with pytest.raises(ValueError):
        run_sweep(spec, sc, None, cfg)
    with pytest.raises(ValueError, match="sweep.schemes"):
        SweepSpec(SweptVariable.OVERHEAD, (5,), (BeamformingScheme.PERFECT_CSI,))


def test_fully_blocked_rows_say_so():
    # the screen covers the whole virtual window, so the blocked link is zero
    sc = _scenario(32, 1.0, BlockageGeometry(0.5, 0.02, 5.0, 5.0))
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-6.0, 6.0),
                               r_min=0.2)
    channels = calibrated_wave_channels(sc)
    assert not channels.blocked.entries.any()
    cfg = TrainingConfig(1.0, noise_for_target_se(channels.non_blocked, 1.0, 10.0))
    searched = (BeamformingScheme.HIERARCHICAL, BeamformingScheme.FARFIELD_STEERING)
    height = run_sweep(SweepSpec(SweptVariable.BLOCKAGE_HEIGHT, (5.0,),
                                 (BeamformingScheme.PERFECT_CSI,
                                  BeamformingScheme.NON_BLOCKED, *searched)),
                       sc, plan, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        overhead = run_sweep(SweepSpec(SweptVariable.OVERHEAD, (1, 4, 64), searched),
                             sc, plan, cfg)
    assert len(height) == 4 and len(overhead) == 6
    assert height[0].notes == "fully_blocked;rank_deficient;ill_conditioned_noise"
    for row in height + overhead:
        assert row.spectral_efficiency_bps_hz == 0.0
        assert row.notes.split(";")[0] == "fully_blocked", row


def test_height_sweep_requires_blockage():
    sc = _scenario(16, 1.0)
    spec = SweepSpec(SweptVariable.BLOCKAGE_HEIGHT, (0.0,),
                     (BeamformingScheme.PERFECT_CSI,))
    with pytest.raises(ValueError):
        run_sweep(spec, sc, None, TrainingConfig(1.0, 1e-12))


# ------------------------------------------------------------------ search

def test_run_scheme_matches_each_scheme_search():
    sc = _sweep_scenario()
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-6.0, 6.0),
                               r_min=0.2)
    channels = calibrated_wave_channels(sc)
    channel = channels.blocked
    cfg = TrainingConfig(1.0, 1e-14, rng_seed=5)
    direct = {
        BeamformingScheme.EXHAUSTIVE: exhaustive_search(
            build_exhaustive_codebook(plan, sc), channel, cfg),
        BeamformingScheme.HIERARCHICAL: hierarchical_search(
            *build_hierarchical_codebooks(plan, sc), channel, cfg),
        BeamformingScheme.LOW_COMPLEXITY: low_complexity_search(
            *build_low_complexity_codebooks(sc, plan), channel, cfg),
        BeamformingScheme.FARFIELD_STEERING: farfield_steering_search(
            build_farfield_codebook(sc, plan), channel, cfg),
        BeamformingScheme.NEARFIELD_FOCUSING: nearfield_focusing_search(
            build_nearfield_codebook(sc), channel, cfg),
    }
    assert {s for s in BeamformingScheme if s.searched} == set(direct)
    for scheme, want in direct.items():
        got, se, _ = run_scheme(scheme, channels, scheme_codebooks(scheme, sc, plan), cfg)
        assert ([len(book) for book in got.books], got.selected_params) == (
            [len(book) for book in want.books], want.selected_params), scheme
        np.testing.assert_array_equal(got.slot_params(range(got.overhead)),
                                      want.slot_params(range(want.overhead)))
        np.testing.assert_array_equal(got.powers, want.powers)
        np.testing.assert_array_equal(got.selected_vector.weights,
                                      want.selected_vector.weights)
        assert se == build_scheme_beamformers(
            scheme, want.selected_vector, channels.non_blocked).evaluate(
            channel, 1.0, 1e-14), scheme


@pytest.mark.parametrize("scheme", [BeamformingScheme.PERFECT_CSI,
                                    BeamformingScheme.NON_BLOCKED,
                                    BeamformingScheme.NLOS_ONLY])
def test_scheme_codebooks_rejects_benchmark_schemes(scheme):
    sc = _sweep_scenario()
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-6.0, 6.0),
                               r_min=0.2)
    with pytest.raises(ValueError, match="not a searched scheme"):
        scheme_codebooks(scheme, sc, plan)


# ------------------------------------------------------ stacked deployments

def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _stack_case(link_zero=False):
    """Five constant-modulus beams over 16 Tx and 8 Rx, each entry of
    modulus 1/4, and a rank-one design channel whose rows alternate in sign
    along the array: the flat beam 0 sees exactly zero through it (rank 0,
    so its combined noise covariance is singular), the others do not."""
    rng = np.random.default_rng(7)
    n_t, n_r = 16, 8
    beams = 0.25 * np.exp(1j * rng.uniform(-np.pi, np.pi, (n_t, 5)))
    beams[:, 0] = 0.25
    alternating = np.where(np.arange(n_t) % 2 == 0, 1.0, -1.0)
    gains = rng.standard_normal(n_r) + 1j * rng.standard_normal(n_r)
    design = ChannelMatrix(np.outer(gains, alternating), ChannelModel.SYNTHETIC)
    link = (ChannelMatrix(np.zeros((n_r, n_t), complex), ChannelModel.SYNTHETIC)
            if link_zero else _random_channel(n_r, n_t, 8))
    return beams, ChannelSet(link, design)


def _reference_rate(f, w, link, transmit_power, noise_power):
    """Whether the combined noise covariance of composites f [N_t x 1] and
    w [N_r x 1] is singular, and their rate, in 2-D products."""
    g = w.conj().T @ link.entries @ f
    r_n = noise_power * (w.conj().T @ w)
    rho = transmit_power * (g @ g.conj().T)
    cond = np.linalg.cond(r_n)
    ill = not np.isfinite(cond) or cond > 1e12
    core = np.linalg.pinv(r_n) @ rho if ill else np.linalg.solve(r_n, rho)
    return ill, float(np.linalg.slogdet(np.eye(1) + core)[1] / math.log(2.0))


def _one_beam_reference(weights, design, link, transmit_power, noise_power):
    """Composites [N x 1], rank-0 flag and rate of one searched beam under
    the hybrid design, in 2-D products and 2-D norms: the beam as analog
    precoder times the top right singular vector of the channel seen
    through it, and the phases of the top left one as analog combiner times
    their least-squares digital weight, each scaled to unit power."""
    h = design.entries
    n_r = h.shape[0]
    f_rf = weights[:, None]
    u, s, vh = np.linalg.svd(h @ f_rf, full_matrices=False)
    w_opt = np.zeros((n_r, 1), complex)
    f_bb = np.zeros((1, 1), complex)
    rank_deficient = not np.any(s > n_r * np.finfo(float).eps * s[0])
    if not rank_deficient:
        w_opt[:, 0], f_bb[:, 0] = u[:, 0], vh[0].conj()
    magnitude = np.abs(w_opt)
    phases = np.where(magnitude > 0, w_opt / np.where(magnitude > 0, magnitude, 1.0), 1.0)
    w_rf = (1.0 / math.sqrt(n_r)) * phases
    w_bb = np.linalg.lstsq(w_rf, w_opt, rcond=None)[0]

    def unit_power(stage, analog):
        norm = np.linalg.norm(analog @ stage)
        return stage * (1.0 / norm) if norm > 0 else stage
    f, w = f_rf @ unit_power(f_bb, f_rf), w_rf @ unit_power(w_bb, w_rf)
    return (f, w), rank_deficient, *_reference_rate(f, w, link, transmit_power, noise_power)


def _deployed_reference(weights, design, link, transmit_power, noise_power):
    """Rate of one searched beam as deployed, in 2-D products: the beam as
    precoder, the elementwise phases of the design channel's response to
    it, over sqrt(N_r), as combiner."""
    response = design.entries @ weights
    w = (1.0 / math.sqrt(response.size)) * (response / np.abs(response))
    return _reference_rate(weights[:, None], w[:, None], link, transmit_power,
                           noise_power)[1]


@pytest.mark.parametrize("link_zero", [False, True], ids=["link", "fully_blocked"])
def test_stacked_deploy_is_each_single_beam_deploy_bit_for_bit(link_zero):
    beams, channels = _stack_case(link_zero)
    scheme = BeamformingScheme.HIERARCHICAL
    cfg = TrainingConfig(1.0, 0.05)
    stacked = evaluation._deploy(scheme, beams, channels, cfg)
    single = [evaluation._deploy(scheme, beams[:, [k]], channels, cfg)[0]
              for k in range(beams.shape[1])]
    assert [(repr(se), notes) for se, notes in stacked] == \
        [(repr(se), notes) for se, notes in single]
    notes = [n for _, n in stacked]
    if link_zero:
        assert notes[0] == "fully_blocked;rank_deficient;ill_conditioned_noise"
        assert set(notes[1:]) == {"fully_blocked"}
    else:
        assert notes == ["rank_deficient;ill_conditioned_noise"] + [""] * 4
        assert stacked[0][0] == 0.0 and all(se > 0 for se, _ in stacked[1:])
    # every beamformer of the stack against the 2-D hybrid reference, the
    # exact 2-D forms, and the one-beam forms of each member
    stack = build_scheme_beamformers(scheme, beams, channels.non_blocked)
    assert stack.rank_deficient.tolist() == [True, False, False, False, False]
    n_r = channels.non_blocked.entries.shape[0]
    for k in range(beams.shape[1]):
        (f, w), rank_deficient, ill, se = _one_beam_reference(
            beams[:, k], channels.non_blocked, channels.blocked, 1.0, 0.05)
        assert (rank_deficient, ill) == (bool(stack.rank_deficient[k]),
                                         "ill_conditioned_noise" in stacked[k][1])
        # the hybrid design's digital scalars move rate and combiner by rounding only
        assert abs(stacked[k][0] - se) <= 1e-13 * max(abs(se), 1.0)
        assert np.max(np.abs(stack.combiner[k] - w[:, 0])) <= 1e-13 / math.sqrt(n_r)
        if rank_deficient:
            assert not stack.precoder[k].any() and not stack.combiner[k].any()
        else:
            response = channels.non_blocked.entries @ beams[:, k]
            assert _bits(stack.precoder[k]) == _bits(beams[:, k])
            assert _bits(stack.combiner[k]) == _bits(
                (1.0 / math.sqrt(n_r)) * (response / np.abs(response)))
        one = build_scheme_beamformers(scheme, beams[:, [k]], channels.non_blocked)
        vector = build_scheme_beamformers(
            scheme, BeamVector(BeamParams(0.0, 1.0, 0.0), beams[:, k].copy()),
            channels.non_blocked)
        for alone in (one, vector):
            assert alone.rank_deficient.tolist() == [stack.rank_deficient[k]]
            assert _bits(alone.precoder) == _bits(stack.precoder[k])
            assert _bits(alone.combiner) == _bits(stack.combiner[k])


def test_stacked_spectral_efficiency_is_each_alone():
    beams, channels = _stack_case()
    bf = build_scheme_beamformers(BeamformingScheme.HIERARCHICAL, beams,
                                  channels.non_blocked)
    se = bf.evaluate(channels.blocked, 1.0, 0.05)
    assert se.shape == (5,)
    for k in range(5):
        alone = spectral_efficiency(bf.precoder[[k]], bf.combiner[[k]],
                                    channels.blocked, 1.0, 0.05)
        assert repr(alone.tolist()) == repr([float(se[k])])


def test_stacked_beamformers_keep_every_check():
    beams, channels = _stack_case()
    scheme = BeamformingScheme.HIERARCHICAL
    uneven = beams.copy()
    uneven[3, 2] *= 1.5
    for bad in (beams * 1.01, uneven):
        with pytest.raises(ValueError, match="constant modulus"):
            build_scheme_beamformers(scheme, bad, channels.non_blocked)
    for bad in (beams[:-1], beams[:, 0]):
        with pytest.raises(ValueError, match=r"beams must be \[16, K\] weights"):
            build_scheme_beamformers(scheme, bad, channels.non_blocked)
    bf = build_scheme_beamformers(scheme, beams, channels.non_blocked)
    with pytest.raises(ValueError, match="zero precoder without rank_deficient"):
        replace(bf, rank_deficient=np.zeros(5, dtype=bool))
    loud = bf.precoder.copy()
    loud[2] *= 2.0
    with pytest.raises(ValueError, match="must have unit power"):
        replace(bf, precoder=loud)


def test_searched_composite_combiners_are_constant_modulus():
    # built from the phases of the ideal combiner, so no runtime check
    sc = _sweep_scenario()
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-6.0, 6.0),
                               r_min=0.2)
    channels = calibrated_wave_channels(sc)
    beams, stack_channels = _stack_case()
    deployed = [build_scheme_beamformers(BeamformingScheme.HIERARCHICAL, beams,
                                         stack_channels.non_blocked)]
    for scheme in (s for s in BeamformingScheme if s.searched):
        result = evaluation._search(scheme, scheme_codebooks(scheme, sc, plan), channels,
                                    TrainingConfig(1.0, 1e-14))
        deployed.append(build_scheme_beamformers(
            scheme, result.words(range(result.overhead)), channels.non_blocked))
    for bf in deployed:
        magnitude = np.abs(bf.combiner)
        assert np.all(np.abs(magnitude - magnitude[:, :1]) <= 1e-12 * magnitude[:, :1])
        assert magnitude[~bf.rank_deficient].all()


def _readme_overhead_case():
    tx, rx = half_wavelength_array(128, CAR), half_wavelength_array(16, CAR)
    sc = ScenarioConfig(tx, rx, CAR, 1.0, blockage=BlockageGeometry(
        0.9, 0.02, 0.005, 0.5)).with_virtual_defaults(8)
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-10.0, 10.0),
                               r_min=0.14)
    channels = calibrated_wave_channels(sc)
    cfg = TrainingConfig(1.0, noise_for_target_se(channels.non_blocked, 1.0, 15.0))
    return sc, plan, channels, cfg


def _reference_overhead_rows(spec, sc, plan, channels, cfg):
    """Each budget's leader rebuilt as a standalone beam and deployed alone."""
    rows = []
    for rep in range(spec.repetitions):
        seed = evaluation._derive_seed(spec.base_seed, 0, rep)
        run_cfg = replace(cfg, rng_seed=seed)
        for scheme in spec.schemes:
            result, _, _ = run_scheme(scheme, channels, scheme_codebooks(scheme, sc, plan),
                                      run_cfg)
            best, best_notes = -math.inf, ""
            for value in spec.grid:
                used = min(int(value), result.overhead)
                leader = result.slot_params(int(np.argmax(result.powers[:used])))
                beam = airy_beam_vector(BeamParams(*leader), sc.tx, sc.carrier)
                bf = build_scheme_beamformers(scheme, beam, channels.non_blocked)
                [se] = bf.evaluate(channels.blocked, cfg.transmit_power,
                                   cfg.noise_power).tolist()
                ill = _one_beam_reference(beam.weights, channels.non_blocked, channels.blocked,
                                          cfg.transmit_power, cfg.noise_power)[2]
                [rank_deficient] = bf.rank_deficient.tolist()
                flags = (("fully_blocked", not channels.blocked.entries.any()),
                         ("rank_deficient", rank_deficient),
                         ("ill_conditioned_noise", ill))
                if se > best:
                    best = se
                    best_notes = ";".join(name for name, flag in flags if flag)
                rows.append(SweepRow("overhead", float(value), scheme.value, seed, best,
                                     used, best_notes))
    return rows


def test_overhead_rows_match_the_per_leader_reference():
    sc, plan, channels, cfg = _readme_overhead_case()
    grid = (1, 2, 4, 8, 16, 20, 32, 64, 127, 128, 221, 256, 512, 1024, 2048, 4096, 8382)
    spec = SweepSpec(SweptVariable.OVERHEAD, grid,
                     tuple(s for s in BeamformingScheme if s.searched),
                     repetitions=2, base_seed=11)
    rows = run_sweep(spec, sc, plan, cfg)
    want = _reference_overhead_rows(spec, sc, plan, channels, cfg)
    assert len(rows) == 2 * 5 * len(grid)
    # and each search's deployment, a stack of one, against the 2-D form of
    # the deployment, bit for bit, and the hybrid design to a tolerance
    for rep in range(2):
        run_cfg = replace(cfg, rng_seed=evaluation._derive_seed(11, 0, rep))
        for scheme in spec.schemes:
            result, se, _ = run_scheme(scheme, channels, scheme_codebooks(scheme, sc, plan),
                                       run_cfg)
            weights = result.selected_vector.weights
            alone = _deployed_reference(weights, channels.non_blocked, channels.blocked,
                                        cfg.transmit_power, cfg.noise_power)
            assert repr(se) == repr(alone), scheme
            hybrid = _one_beam_reference(weights, channels.non_blocked, channels.blocked,
                                         cfg.transmit_power, cfg.noise_power)[3]
            # the hybrid design's digital scalars leave the rate as it is up to
            # rounding: at most 1.9e-15 relative over the first 300 words that each
            # of the five searches measures on this link (684 in all; 490 of them
            # not bit for bit)
            assert abs(se - hybrid) <= 1e-14 * se, scheme
    assert [(r, repr(r.spectral_efficiency_bps_hz)) for r in rows] == \
        [(r, repr(r.spectral_efficiency_bps_hz)) for r in want]
    # distinct leaders per scheme: the stacks are more than one beam
    assert len({r.spectral_efficiency_bps_hz for r in rows
                if r.scheme == "exhaustive" and r.seed == rows[0].seed}) > 3
