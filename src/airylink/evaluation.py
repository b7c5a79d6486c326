"""Channel sets, precoder/combiner design, spectral efficiency, and sweeps.

The hybrid architecture splits each side into a constant-modulus analog
stage and a small digital stage.  Full-digital benchmarks are represented
with an identity analog stage so every scheme flows through the same
spectral-efficiency evaluation.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .beam import BeamParams, airy_beam_vector
from .channel import (
    ChannelMatrix,
    ChannelModel,
    apply_calibration,
    calibrate,
    cgwcm_channel,
    gcm_channel,
    nlos_component,
    wcm_channel,
)
from .codebook import (
    SamplingPlan,
    build_exhaustive_codebook,
    build_farfield_codebook,
    build_hierarchical_codebooks,
    build_low_complexity_codebooks,
    build_nearfield_codebook,
)
from .scenario import ScenarioConfig
from .search import (
    SearchResult,
    TrainingConfig,
    exhaustive_search,
    farfield_steering_search,
    hierarchical_search,
    low_complexity_search,
    nearfield_focusing_search,
)

__all__ = [
    "IllConditionedNoiseWarning",
    "Beamformers",
    "SvdBeamformers",
    "CombinerDecomposition",
    "BeamformingScheme",
    "SweptVariable",
    "SweepSpec",
    "SweepRow",
    "SWEEP_COLUMNS",
    "ChannelSet",
    "calibrated_wave_channels",
    "effective_channel",
    "svd_precoder_combiner",
    "decompose_combiner",
    "spectral_efficiency",
    "full_digital_beamformers",
    "airy_beamformers",
    "build_scheme_beamformers",
    "scheme_codebooks",
    "run_search",
    "noise_for_target_se",
    "run_sweep",
]


class IllConditionedNoiseWarning(RuntimeWarning):
    """Combined noise covariance needed a pseudo-inverse."""


def effective_channel(channel: ChannelMatrix, analog_precoder: np.ndarray) -> np.ndarray:
    """Channel seen by the digital precoder: H @ F_analog, [N_r x L_t]."""
    h = channel.entries
    f_a = np.asarray(analog_precoder, dtype=complex)
    if f_a.ndim == 1:
        f_a = f_a[:, None]
    if h.shape[1] != f_a.shape[0]:
        raise ValueError("analog precoder rows must match channel columns")
    return h @ f_a


@dataclass(frozen=True)
class SvdBeamformers:
    """Top-singular-space digital precoder and the matching ideal combiner."""

    digital_precoder: np.ndarray   # [L_t x N_s]
    optimal_combiner: np.ndarray   # [N_r x N_s]
    singular_values: np.ndarray
    rank_deficient: bool


def svd_precoder_combiner(effective: np.ndarray, num_streams: int,
                          analog_precoder: np.ndarray | None = None) -> SvdBeamformers:
    """Digital precoder and ideal combiner from the effective channel's SVD.

    The digital precoder takes the top-`num_streams` right singular vectors,
    rescaled so the composite precoder carries total power `num_streams`
    (computed against `analog_precoder` when given, else assuming
    orthonormal analog columns).  Streams beyond the matrix rank are
    zero-padded and flagged.
    """
    eff = np.asarray(effective, dtype=complex)
    if eff.ndim != 2:
        raise ValueError("effective channel must be a matrix")
    if num_streams < 1 or num_streams > min(eff.shape):
        raise ValueError("num_streams must lie in [1, min(N_r, L_t)]")
    u, s, vh = np.linalg.svd(eff, full_matrices=False)
    tol = max(eff.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    live = min(rank, num_streams)

    f_bb = np.zeros((eff.shape[1], num_streams), dtype=complex)
    w_opt = np.zeros((eff.shape[0], num_streams), dtype=complex)
    f_bb[:, :live] = vh.conj().T[:, :live]
    w_opt[:, :live] = u[:, :live]

    composite = f_bb if analog_precoder is None else np.asarray(analog_precoder) @ f_bb
    norm = np.linalg.norm(composite)
    if norm > 0:
        f_bb = f_bb * (math.sqrt(num_streams) / norm)
    return SvdBeamformers(f_bb, w_opt, s[:num_streams].copy(), live < num_streams)


@dataclass(frozen=True)
class CombinerDecomposition:
    analog_combiner: np.ndarray    # [N_r x L_r], constant modulus
    digital_combiner: np.ndarray   # [L_r x N_s]
    residual: float                # Frobenius gap of the least-squares fit


def decompose_combiner(optimal_combiner: np.ndarray, num_rx: int,
                       num_chains: int) -> CombinerDecomposition:
    """Split an ideal combiner into constant-modulus analog x digital stages.

    Analog columns take the elementwise phases of the ideal combiner
    (optimal for a single column); the digital stage is the least-squares
    fit to the ideal combiner, renormalized afterwards so the composite
    combiner carries total power num_streams.
    """
    w_opt = np.asarray(optimal_combiner, dtype=complex)
    if w_opt.ndim == 1:
        w_opt = w_opt[:, None]
    num_streams = w_opt.shape[1]
    if w_opt.shape[0] != num_rx:
        raise ValueError("combiner rows must equal num_rx")
    if num_chains < num_streams:
        raise ValueError("need at least as many receive chains as streams")

    scale = 1.0 / math.sqrt(num_rx)
    w_rf = np.full((num_rx, num_chains), scale, dtype=complex)
    phases = np.where(np.abs(w_opt) > 0, w_opt / np.where(np.abs(w_opt) > 0, np.abs(w_opt), 1.0), 1.0)
    w_rf[:, :num_streams] = scale * phases

    w_bb, *_ = np.linalg.lstsq(w_rf, w_opt, rcond=None)
    residual = float(np.linalg.norm(w_opt - w_rf @ w_bb))
    norm = np.linalg.norm(w_rf @ w_bb)
    if norm > 0:
        w_bb = w_bb * (math.sqrt(num_streams) / norm)
    return CombinerDecomposition(w_rf, w_bb, residual)


def spectral_efficiency(precoder: np.ndarray, combiner: np.ndarray,
                        channel: ChannelMatrix, transmit_power: float,
                        noise_power: float) -> float:
    """Log-det rate of the combined link in bits/s/Hz.

    precoder [N_t x N_s] and combiner [N_r x N_s] are composite
    (analog x digital) matrices.  The noise covariance after combining is
    noise_power * W^H W; if it is numerically singular a pseudo-inverse is
    used and an IllConditionedNoiseWarning is emitted.
    """
    f = np.atleast_2d(np.asarray(precoder, dtype=complex))
    w = np.atleast_2d(np.asarray(combiner, dtype=complex))
    if f.shape[0] == 1 and channel.entries.shape[1] != 1:
        f = f.T
    if w.shape[0] == 1 and channel.entries.shape[0] != 1:
        w = w.T
    num_streams = f.shape[1]
    if not (transmit_power > 0 and noise_power > 0):
        raise ValueError("powers must be positive")

    g = w.conj().T @ channel.entries @ f
    r_n = noise_power * (w.conj().T @ w)
    rho_term = (transmit_power / num_streams) * (g @ g.conj().T)
    cond = np.linalg.cond(r_n)
    if not np.isfinite(cond) or cond > 1e12:
        warnings.warn("noise covariance ill-conditioned; using pseudo-inverse",
                      IllConditionedNoiseWarning)
        core = np.linalg.pinv(r_n) @ rho_term
    else:
        core = np.linalg.solve(r_n, rho_term)
    sign, logdet = np.linalg.slogdet(np.eye(num_streams) + core)
    return float(logdet / math.log(2.0))


@dataclass(frozen=True)
class Beamformers:
    """Hybrid (or identity-analog full-digital) precoder/combiner set."""

    analog_precoder: np.ndarray    # [N_t x L_t]
    digital_precoder: np.ndarray   # [L_t x N_s]
    analog_combiner: np.ndarray    # [N_r x L_r]
    digital_combiner: np.ndarray   # [L_r x N_s]
    hybrid: bool = True
    rank_deficient: bool = False

    def __post_init__(self):
        f = self.composite_precoder
        n_s = self.num_streams
        norm_sq = float(np.linalg.norm(f) ** 2)
        if norm_sq == 0.0:
            if not self.rank_deficient:
                raise ValueError("zero precoder without rank_deficient flag")
        elif not math.isclose(norm_sq, n_s, rel_tol=1e-9):
            raise ValueError("composite precoder power must equal num_streams")
        if self.hybrid:
            for mat in (self.analog_precoder, self.analog_combiner):
                target = 1.0 / math.sqrt(mat.shape[0])
                if np.max(np.abs(np.abs(mat) - target)) > 1e-12:
                    raise ValueError("analog stages must be constant modulus")

    @property
    def num_streams(self) -> int:
        return self.digital_precoder.shape[1]

    @property
    def composite_precoder(self) -> np.ndarray:
        return self.analog_precoder @ self.digital_precoder

    @property
    def composite_combiner(self) -> np.ndarray:
        return self.analog_combiner @ self.digital_combiner

    def evaluate(self, channel: ChannelMatrix, transmit_power: float,
                 noise_power: float) -> float:
        return spectral_efficiency(self.composite_precoder,
                                   self.composite_combiner,
                                   channel, transmit_power, noise_power)


def full_digital_beamformers(design_channel: ChannelMatrix,
                             num_streams: int = 1) -> Beamformers:
    """Unconstrained SVD beamformers (identity analog stages)."""
    n_r, n_t = design_channel.entries.shape
    svd = svd_precoder_combiner(design_channel.entries, num_streams)
    return Beamformers(
        analog_precoder=np.eye(n_t, dtype=complex),
        digital_precoder=svd.digital_precoder,
        analog_combiner=np.eye(n_r, dtype=complex),
        digital_combiner=svd.optimal_combiner,
        hybrid=False,
        rank_deficient=svd.rank_deficient,
    )


def airy_beamformers(search_result: SearchResult,
                     design_channel: ChannelMatrix,
                     num_streams: int = 1) -> Beamformers:
    """Hybrid beamformers around a searched analog beam.

    The analog precoder is the searched vector; the digital stages come
    from the SVD of the design channel seen through it, with the combiner
    split into constant-modulus analog x digital via phase extraction.
    """
    f_rf = search_result.selected_vector.weights[:, None]
    if num_streams > f_rf.shape[1]:
        raise ValueError("single searched beam supports one stream")
    eff = effective_channel(design_channel, f_rf)
    svd = svd_precoder_combiner(eff, num_streams, analog_precoder=f_rf)
    dec = decompose_combiner(svd.optimal_combiner, design_channel.entries.shape[0],
                             num_streams)
    return Beamformers(
        analog_precoder=f_rf,
        digital_precoder=svd.digital_precoder,
        analog_combiner=dec.analog_combiner,
        digital_combiner=dec.digital_combiner,
        hybrid=True,
        rank_deficient=svd.rank_deficient,
    )


class BeamformingScheme(enum.Enum):
    """Schemes reported in sweep output; each one's rules are its `_SCHEMES` entry."""

    EXHAUSTIVE = "exhaustive"
    HIERARCHICAL = "hierarchical"
    LOW_COMPLEXITY = "low_complexity"
    FARFIELD_STEERING = "farfield"
    NEARFIELD_FOCUSING = "nearfield"
    PERFECT_CSI = "perfect_csi"
    NON_BLOCKED = "non_blocked"
    NLOS_ONLY = "nlos_only"

    @property
    def short_name(self) -> str:
        """The scheme's short name on the command line and in `sweep.schemes`."""
        return _SCHEMES[self].short_name

    @property
    def searched(self) -> bool:
        """Whether the scheme deploys a beam found by training."""
        return _SCHEMES[self].search is not None

    @property
    def channel_fields(self) -> tuple:
        """The `ChannelSet` fields of its design channel and of its link channel."""
        return _SCHEMES[self].design, _SCHEMES[self].link


class _Scheme(NamedTuple):
    short_name: str
    design: str                       # ChannelSet field its digital stage is designed on
    link: str                         # ChannelSet field it trains and runs over
    books: Callable | None = None     # books(scenario, plan) -> tuple
    search: Callable | None = None    # search(*books, channel, cfg)


# Every scheme's entry.  A searched entry's books are the only builder of its
# codebooks; it looks its functions up in this module when called, so
# rebinding one of these module attributes reaches every caller.
_SCHEMES = {
    BeamformingScheme.EXHAUSTIVE: _Scheme(
        "exhaustive", "non_blocked", "blocked",
        lambda scenario, plan: (build_exhaustive_codebook(plan, scenario),),
        lambda *args: exhaustive_search(*args)),
    BeamformingScheme.HIERARCHICAL: _Scheme(
        "hier", "non_blocked", "blocked",
        lambda scenario, plan: build_hierarchical_codebooks(plan, scenario),
        lambda *args: hierarchical_search(*args)),
    BeamformingScheme.LOW_COMPLEXITY: _Scheme(
        "lowc", "non_blocked", "blocked",
        lambda scenario, plan: build_low_complexity_codebooks(scenario, plan),
        lambda *args: low_complexity_search(*args)),
    BeamformingScheme.FARFIELD_STEERING: _Scheme(
        "ff", "non_blocked", "blocked",
        lambda scenario, plan: (build_farfield_codebook(scenario, plan),),
        lambda *args: farfield_steering_search(*args)),
    BeamformingScheme.NEARFIELD_FOCUSING: _Scheme(
        "nf", "non_blocked", "blocked",
        lambda scenario, plan: (build_nearfield_codebook(scenario),),
        lambda *args: nearfield_focusing_search(*args)),
    BeamformingScheme.PERFECT_CSI: _Scheme("perfect", "blocked", "blocked"),
    BeamformingScheme.NON_BLOCKED: _Scheme("nonblocked", "non_blocked", "blocked"),
    BeamformingScheme.NLOS_ONLY: _Scheme("nlos", "nlos_only", "nlos_only"),
}


def scheme_codebooks(scheme: BeamformingScheme, scenario: ScenarioConfig,
                     plan: SamplingPlan) -> tuple:
    """The codebooks a searched scheme sounds, built from `plan`: one book,
    or a two-stage scheme's stage-1 book and stage-2 factory."""
    if not scheme.searched:
        raise ValueError(f"{scheme} is not a searched scheme")
    if plan is None:
        raise ValueError("searched schemes require a sampling plan")
    return _SCHEMES[scheme].books(scenario, plan)


def _search(scheme: BeamformingScheme, books: tuple, channel: ChannelMatrix,
            cfg: TrainingConfig) -> SearchResult:
    return _SCHEMES[scheme].search(*books, channel, cfg)


def run_search(scheme: BeamformingScheme, channel: ChannelMatrix,
               scenario: ScenarioConfig, plan: SamplingPlan,
               cfg: TrainingConfig) -> SearchResult:
    """Build a searched scheme's codebooks from `plan` and train over `channel`.

    The books are built on every call; `run_sweep` builds them once per
    sweep and searches them at every point.
    """
    return _search(scheme, scheme_codebooks(scheme, scenario, plan), channel, cfg)


def build_scheme_beamformers(scheme: BeamformingScheme,
                             search_result: SearchResult | None = None,
                             design_channel: ChannelMatrix | None = None,
                             non_blocked_channel: ChannelMatrix | None = None
                             ) -> Beamformers:
    """Assemble the beamformers a given scheme would deploy.

    The digital stage is designed on `design_channel`; a scheme whose table
    entry designs on the unblocked channel falls back to
    `non_blocked_channel` (so a searched scheme given `design_channel` can
    study blocked-channel design).  Searched schemes wrap the searched beam
    (`airy_beamformers`); benchmarks are full-digital SVD.
    """
    if scheme.searched and search_result is None:
        raise ValueError("searched scheme requires a search result")
    ref = design_channel
    if ref is None and _SCHEMES[scheme].design == "non_blocked":
        ref = non_blocked_channel
    if ref is None:
        raise ValueError(f"{scheme.value} requires its design channel")
    if scheme.searched:
        return airy_beamformers(search_result, ref)
    return full_digital_beamformers(ref)


def noise_for_target_se(channel: ChannelMatrix, transmit_power: float,
                        target_se: float) -> float:
    """Noise power that puts the full-digital single-stream rate at target_se."""
    top = float(np.linalg.svd(channel.entries, compute_uv=False)[0])
    if top == 0.0:
        raise ValueError("channel has no energy")
    return transmit_power * top**2 / (2.0**target_se - 1.0)


class SweptVariable(enum.Enum):
    BLOCKAGE_HEIGHT = "height"
    BLOCKAGE_DISTANCE = "distance"
    OVERHEAD = "overhead"
    TRANSMIT_POWER = "power"


@dataclass(frozen=True)
class SweepSpec:
    swept_variable: SweptVariable
    grid: tuple
    schemes: tuple
    repetitions: int = 1
    base_seed: int = 0

    def __post_init__(self):
        if len(self.grid) == 0:
            raise ValueError("sweep grid must be non-empty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.swept_variable is SweptVariable.OVERHEAD and not all(
                float(v).is_integer() and v >= 1 for v in self.grid):
            raise ValueError("overhead budgets must be integers >= 1")


@dataclass(frozen=True)
class SweepRow:
    sweep_variable: str
    value: float
    scheme: str
    seed: int
    spectral_efficiency_bps_hz: float
    overhead_slots: int
    notes: str = ""


SWEEP_COLUMNS = ("sweep_variable", "value", "scheme", "seed",
                 "spectral_efficiency_bps_hz", "overhead_slots", "notes")


@dataclass(frozen=True)
class ChannelSet:
    """Blocked channel, its unblocked reference, and optional multipath-only part."""

    blocked: ChannelMatrix
    non_blocked: ChannelMatrix
    nlos_only: ChannelMatrix | None = None


def calibrated_wave_channels(scenario: ScenarioConfig, model: str | None = "wcm",
                             rays=(), k_factor_db: float | None = None) -> ChannelSet:
    """The channels of one link, each matrix built once.

    The direct path is the ray model (`gcm`), the wave (`wcm`) or cascaded
    (`cgwcm`) model calibrated onto the ray model's unblocked scale, or
    None. `rays` (`MultipathRay`s) add a ray sum that bypasses the
    blockage; `k_factor_db`, when set, rescales it so the unblocked
    direct-to-scattered power ratio matches exactly. Without rays there is
    no multipath-only channel.
    """
    # built per call, so rebinding one of these module attributes reaches it
    builders = {"gcm": gcm_channel, "wcm": wcm_channel, "cgwcm": cgwcm_channel}
    if model is not None and model not in builders:
        raise ValueError(f"unknown direct-path model {model!r}")
    nlos = nlos_component(scenario, rays) if rays else None
    if model is None:
        if nlos is None:
            raise ValueError("a channel without a direct path needs rays")
        if k_factor_db is not None:
            raise ValueError("a K-factor target needs a direct-path model as reference")
        return ChannelSet(nlos, nlos, nlos)

    build = builders[model]
    ray_reference = gcm_channel(scenario, use_blockage=False)
    non_blocked = (ray_reference if model == "gcm"
                   else build(scenario, use_blockage=False))
    blocked = (non_blocked if scenario.blockage is None
               else build(scenario, use_blockage=True))
    if model != "gcm":
        cal = calibrate(non_blocked, ray_reference)
        blocked = apply_calibration(blocked, cal)
        non_blocked = apply_calibration(non_blocked, cal)
    if nlos is None:
        return ChannelSet(blocked, non_blocked, None)

    if k_factor_db is not None and nlos.entries.any():
        p_ratio = (np.linalg.norm(non_blocked.entries) ** 2
                   / np.linalg.norm(nlos.entries) ** 2)
        scale = math.sqrt(p_ratio / 10 ** (k_factor_db / 10))
        nlos = ChannelMatrix(nlos.entries * scale, ChannelModel.SYNTHETIC)

    def with_rays(direct: ChannelMatrix) -> ChannelMatrix:
        return ChannelMatrix(direct.entries + nlos.entries, ChannelModel.COMPOSITE,
                             calibrated=direct.calibrated)

    return ChannelSet(with_rays(blocked), with_rays(non_blocked), nlos)


def _point_scenario(scenario: ScenarioConfig, variable: SweptVariable,
                    value: float) -> ScenarioConfig:
    if variable is SweptVariable.BLOCKAGE_HEIGHT:
        if scenario.blockage is None:
            raise ValueError("height sweep requires a blockage in the scenario")
        blk = replace(scenario.blockage, extent_above=float(value))
        return replace(scenario, blockage=blk)
    if variable is SweptVariable.BLOCKAGE_DISTANCE:
        if scenario.blockage is None:
            raise ValueError("distance sweep requires a blockage in the scenario")
        blk = replace(scenario.blockage, distance_from_tx=float(value))
        return replace(scenario, blockage=blk)
    return scenario


def _derive_seed(base_seed: int, point_index: int, repetition: int) -> int:
    seq = np.random.SeedSequence([base_seed, point_index, repetition])
    return int(seq.generate_state(1, np.uint64)[0])


def _scheme_row(scheme: BeamformingScheme, channels: ChannelSet, books,
                cfg: TrainingConfig):
    """(spectral efficiency, overhead, notes) for one scheme at one point."""
    design, link = (getattr(channels, name) for name in scheme.channel_fields)
    result = _search(scheme, books(scheme), link, cfg) if scheme.searched else None
    se, notes = _evaluate_row(scheme, result, design, link, cfg)
    return se, 0 if result is None else result.overhead, notes


def _evaluate_row(scheme: BeamformingScheme, result: SearchResult | None,
                  design: ChannelMatrix, link: ChannelMatrix,
                  cfg: TrainingConfig) -> tuple:
    """(spectral efficiency, notes) of `scheme` deploying the searched `result`
    (None for a benchmark), designed on `design` and run over `link`.

    Notes, in order: `fully_blocked` (`link` is all zero), `rank_deficient`,
    and `ill_conditioned_noise` (the noise covariance needed a pseudo-inverse).
    """
    bf = build_scheme_beamformers(scheme, search_result=result, design_channel=design)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IllConditionedNoiseWarning)
        se = bf.evaluate(link, cfg.transmit_power, cfg.noise_power)
    flags = (("fully_blocked", not link.entries.any()),
             ("rank_deficient", bf.rank_deficient),
             ("ill_conditioned_noise",
              any(issubclass(w.category, IllConditionedNoiseWarning) for w in caught)))
    return se, ";".join(name for name, flag in flags if flag)


def _overhead_rows(spec: SweepSpec, channels: ChannelSet,
                   scenario: ScenarioConfig, books,
                   cfg_base: TrainingConfig, rep_seed: int):
    """Best-so-far spectral efficiency under a training-slot budget.

    Each scheme's search runs once per repetition; a budget row reports the
    best spectral efficiency achievable by stopping at or before that many
    slots (running maximum, so the envelope is monotone non-decreasing).
    """
    rows = []
    cfg = replace(cfg_base, rng_seed=rep_seed)
    for scheme in spec.schemes:
        if not scheme.searched:
            raise ValueError("overhead sweep applies to searched schemes only")
        design, link = (getattr(channels, name) for name in scheme.channel_fields)
        result = _search(scheme, books(scheme), link, cfg)
        se_cache: dict = {}
        best_so_far, best_notes = -math.inf, ""
        for value in spec.grid:
            used = min(int(value), result.overhead)
            key = tuple(result.params[int(np.argmax(result.powers[:used]))].tolist())
            if key not in se_cache:
                selected = airy_beam_vector(BeamParams(*key), scenario.tx,
                                            scenario.carrier)
                sub = SearchResult(result.scheme, selected, result.params[:used],
                                   result.powers[:used])
                se_cache[key] = _evaluate_row(scheme, sub, design, link, cfg)
            se, notes = se_cache[key]
            if se > best_so_far:
                best_so_far, best_notes = se, notes
            rows.append(SweepRow(spec.swept_variable.value, float(value),
                                 scheme.value, rep_seed, best_so_far, used, best_notes))
    return rows


def run_sweep(spec: SweepSpec, scenario: ScenarioConfig,
              plan: SamplingPlan | None, cfg: TrainingConfig,
              channel_builder=None) -> list:
    """Long-format sweep rows: one per (grid value, scheme, repetition).

    channel_builder maps a point's ScenarioConfig to a ChannelSet; the
    default builds calibrated wave-model channels.  Each of these is built
    once per call, when first needed: a searched scheme's codebooks, which
    depend on no point, seed or power, and the channels of each distinct
    point scenario (power and overhead points share the base scenario).
    Seeds derive deterministically from (base_seed, point index, repetition).
    """
    if channel_builder is None:
        channel_builder = calibrated_wave_channels
    books = functools.cache(lambda scheme: scheme_codebooks(scheme, scenario, plan))
    channels_at = functools.cache(channel_builder)
    rows = []
    if spec.swept_variable is SweptVariable.OVERHEAD:
        channels = channels_at(scenario)
        for rep in range(spec.repetitions):
            seed = _derive_seed(spec.base_seed, 0, rep)
            rows.extend(_overhead_rows(spec, channels, scenario, books, cfg, seed))
        return rows

    for i, value in enumerate(spec.grid):
        point = _point_scenario(scenario, spec.swept_variable, value)
        channels = channels_at(point)
        for rep in range(spec.repetitions):
            seed = _derive_seed(spec.base_seed, i, rep)
            cfg_run = replace(cfg, rng_seed=seed)
            if spec.swept_variable is SweptVariable.TRANSMIT_POWER:
                cfg_run = replace(cfg_run, transmit_power=float(value))
            for scheme in spec.schemes:
                se, overhead, notes = _scheme_row(scheme, channels, books,
                                                  cfg_run)
                rows.append(SweepRow(spec.swept_variable.value, float(value),
                                     scheme.value, seed, se, overhead, notes))
    return rows
