"""Channel sets, one-stream beamformers, spectral efficiency, and sweeps.

Every scheme deploys one stream, and `build_scheme_beamformers` designs
its beamformers.  A searched scheme is hybrid: its searched beam is the
analog precoder, and each side adds a small digital stage, the receive
side behind a constant-modulus analog combiner.  A full-digital benchmark
has identity analog stages, so every scheme flows through the same
spectral-efficiency evaluation.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
import warnings
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .beam import BeamParams, BeamVector, airy_beam_vector
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
from .numerics import power_of
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
    "BeamformingScheme",
    "SweptVariable",
    "SweepSpec",
    "SweepRow",
    "SWEEP_COLUMNS",
    "ChannelSet",
    "calibrated_wave_channels",
    "spectral_efficiency",
    "build_scheme_beamformers",
    "scheme_codebooks",
    "run_scheme",
    "noise_for_target_se",
    "run_sweep",
]


class IllConditionedNoiseWarning(RuntimeWarning):
    """Combined noise covariance needed a pseudo-inverse."""


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


def _search(scheme: BeamformingScheme, books: tuple, channels: ChannelSet,
            cfg: TrainingConfig) -> SearchResult:
    """Train a searched scheme's `books` over its link channel."""
    return _SCHEMES[scheme].search(*books, getattr(channels, _SCHEMES[scheme].link), cfg)


def run_scheme(scheme: BeamformingScheme, channels: ChannelSet, books: tuple,
               cfg: TrainingConfig) -> tuple:
    """(search result or None, spectral efficiency, notes) of `scheme` at one point.

    A searched scheme first trains `books` (`scheme_codebooks`) over its link
    channel; a benchmark ignores them.  Then it deploys as `_deploy` says.
    """
    result = _search(scheme, books, channels, cfg) if scheme.searched else None
    beam = None if result is None else result.selected_vector
    return (result, *_deploy(scheme, beam, channels, cfg))


def _deploy(scheme: BeamformingScheme, beam: BeamVector | None,
            channels: ChannelSet, cfg: TrainingConfig) -> tuple:
    """(spectral efficiency, notes) of `scheme` deploying its searched `beam`
    (None for a benchmark), designed on its design channel and run over its
    link channel.

    Notes, in order: `fully_blocked` (the link is all zero), `rank_deficient`,
    and `ill_conditioned_noise` (the noise covariance needed a pseudo-inverse).
    """
    design, link = (getattr(channels, name) for name in scheme.channel_fields)
    bf = build_scheme_beamformers(scheme, beam, design)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IllConditionedNoiseWarning)
        se = bf.evaluate(link, cfg.transmit_power, cfg.noise_power)
    flags = (("fully_blocked", not link.entries.any()),
             ("rank_deficient", bf.rank_deficient),
             ("ill_conditioned_noise",
              any(issubclass(w.category, IllConditionedNoiseWarning) for w in caught)))
    return se, ";".join(name for name, flag in flags if flag)


def _top_pair(h: np.ndarray) -> tuple:
    """`h`'s top left and right singular vectors as columns (zero at rank 0), and rank 0?"""
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    tol = max(h.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    left = np.zeros((h.shape[0], 1), dtype=complex)
    right = np.zeros((h.shape[1], 1), dtype=complex)
    rank_deficient = not np.any(s > tol)
    if not rank_deficient:
        left[:, 0], right[:, 0] = u[:, 0], vh[0].conj()
    return left, right, rank_deficient


def build_scheme_beamformers(scheme: BeamformingScheme, beam: BeamVector | None = None,
                             design_channel: ChannelMatrix | None = None) -> Beamformers:
    """The one-stream beamformers `scheme` deploys, designed on `design_channel`.

    A benchmark is full digital: identity analog stages around the design
    channel's top singular pair.  A searched scheme is hybrid around its
    searched `beam`, the analog precoder: the digital precoder is the top
    right singular vector of the channel seen through the beam, and the
    ideal combiner, the top left one, splits into its elementwise phases
    over sqrt(N_r), the constant-modulus analog combiner, times their
    least-squares digital weight.  Each digital stage is scaled so that its
    composite has unit power (a benchmark's combiner has it already).  A
    rank-0 channel gives zero digital stages, flagged `rank_deficient`.
    """
    if scheme.searched and beam is None:
        raise ValueError("searched scheme requires its searched beam")
    if design_channel is None:
        raise ValueError(f"{scheme.value} requires its design channel")
    h = np.asarray(design_channel.entries, dtype=complex)
    n_r, n_t = h.shape

    def unit_power(stage, analog=None):
        # times the reciprocal norm, which rounds unlike stage / norm
        norm = np.linalg.norm(stage if analog is None else analog @ stage)
        return stage * (1.0 / norm) if norm > 0 else stage

    if not scheme.searched:
        w_opt, f_bb, rank_deficient = _top_pair(h)
        return Beamformers(np.eye(n_t, dtype=complex), unit_power(f_bb),
                           np.eye(n_r, dtype=complex), w_opt,
                           hybrid=False, rank_deficient=rank_deficient)
    f_rf = beam.weights[:, None]
    w_opt, f_bb, rank_deficient = _top_pair(h @ f_rf)
    magnitude = np.abs(w_opt)
    phases = np.where(magnitude > 0, w_opt / np.where(magnitude > 0, magnitude, 1.0), 1.0)
    w_rf = (1.0 / math.sqrt(n_r)) * phases
    w_bb, *_ = np.linalg.lstsq(w_rf, w_opt, rcond=None)
    return Beamformers(f_rf, unit_power(f_bb, f_rf), w_rf, unit_power(w_bb, w_rf),
                       hybrid=True, rank_deficient=rank_deficient)


def noise_for_target_se(channel: ChannelMatrix, transmit_power: float,
                        target_se: float) -> float:
    """Noise power that puts the full-digital single-stream rate at target_se."""
    snr = power_of(2.0, target_se) - 1.0
    if not 0 < snr < math.inf:
        raise ValueError(f"target_se: 2**target_se - 1 must be a positive finite float, "
                         f"got target_se={target_se!r}")
    top = float(np.linalg.svd(channel.entries, compute_uv=False)[0])
    if top == 0.0:
        raise ValueError("channel has no energy")
    return transmit_power * top**2 / snr


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
        """A sweep's rules; each message starts with its `sweep` config key."""
        if len(self.grid) == 0:
            raise ValueError("sweep.grid: must be non-empty")
        if self.repetitions < 1:
            raise ValueError("sweep.repetitions: must be >= 1")
        if (self.swept_variable is SweptVariable.TRANSMIT_POWER
                and not all(v > 0 for v in self.grid)):
            raise ValueError("sweep.grid: power values must be > 0")
        if self.swept_variable is not SweptVariable.OVERHEAD:
            return
        if not all(float(v).is_integer() and v >= 1 for v in self.grid):
            raise ValueError("sweep.grid: overhead budgets must be integers >= 1")
        full = [s.short_name for s in self.schemes if not s.searched]
        if full:
            raise ValueError("sweep.schemes: an overhead sweep takes searched schemes "
                             f"only, not {', '.join(full)}")


@dataclass(frozen=True)
class SweepRow:
    sweep_variable: str
    value: float
    scheme: str
    seed: int
    spectral_efficiency_bps_hz: float
    overhead_slots: int
    notes: str = ""


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


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
    if k_factor_db is not None:
        k_ratio = power_of(10.0, k_factor_db / 10)
        if not sys.float_info.min <= k_ratio < math.inf:
            raise ValueError(f"k_factor_db: 10**(k_factor_db/10) must be a positive normal "
                             f"float, got k_factor_db={k_factor_db!r}")
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
        scale = math.sqrt(p_ratio / k_ratio)
        nlos = ChannelMatrix(nlos.entries * scale, ChannelModel.SYNTHETIC)

    def with_rays(direct: ChannelMatrix) -> ChannelMatrix:
        return ChannelMatrix(direct.entries + nlos.entries, ChannelModel.COMPOSITE,
                             calibrated=direct.calibrated)

    return ChannelSet(with_rays(blocked), with_rays(non_blocked), nlos)


def _point_scenarios(spec: SweepSpec, scenario: ScenarioConfig) -> list:
    """Each grid point's scenario; a point the scenario refuses names `sweep.grid`."""
    variable = spec.swept_variable
    if variable not in (SweptVariable.BLOCKAGE_HEIGHT, SweptVariable.BLOCKAGE_DISTANCE):
        return [scenario] * len(spec.grid)
    if scenario.blockage is None:
        raise ValueError(f"scenario.blockage: required by a {variable.value} sweep")
    moved = "extent_above" if variable is SweptVariable.BLOCKAGE_HEIGHT else "distance_from_tx"
    points = []
    for value in spec.grid:
        try:
            blockage = replace(scenario.blockage, **{moved: float(value)})
            points.append(replace(scenario, blockage=blockage))
        except ValueError as exc:
            raise ValueError(f"sweep.grid: {value!r}: {exc}") from exc
    return points


def _derive_seed(base_seed: int, point_index: int, repetition: int) -> int:
    seq = np.random.SeedSequence([base_seed, point_index, repetition])
    return int(seq.generate_state(1, np.uint64)[0])


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
        result = _search(scheme, books(scheme), channels, cfg)
        budgets = [min(int(value), result.overhead) for value in spec.grid]
        leaders = result.slot_params([int(np.argmax(result.powers[:used]))
                                      for used in budgets])
        se_cache: dict = {}
        best_so_far, best_notes = -math.inf, ""
        for value, used, key in zip(spec.grid, budgets, map(tuple, leaders.tolist())):
            if key not in se_cache:
                beam = airy_beam_vector(BeamParams(*key), scenario.tx, scenario.carrier)
                se_cache[key] = _deploy(scheme, beam, channels, cfg)
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
    books = functools.cache(lambda scheme: scheme_codebooks(scheme, scenario, plan)
                            if scheme.searched else ())
    channels_at = functools.cache(channel_builder)
    rows = []
    if spec.swept_variable is SweptVariable.OVERHEAD:
        channels = channels_at(scenario)
        for rep in range(spec.repetitions):
            seed = _derive_seed(spec.base_seed, 0, rep)
            rows.extend(_overhead_rows(spec, channels, scenario, books, cfg, seed))
        return rows

    for i, (value, point) in enumerate(zip(spec.grid, _point_scenarios(spec, scenario))):
        channels = channels_at(point)
        for rep in range(spec.repetitions):
            seed = _derive_seed(spec.base_seed, i, rep)
            cfg_run = replace(cfg, rng_seed=seed)
            if spec.swept_variable is SweptVariable.TRANSMIT_POWER:
                cfg_run = replace(cfg_run, transmit_power=float(value))
            for scheme in spec.schemes:
                result, se, notes = run_scheme(scheme, channels, books(scheme), cfg_run)
                rows.append(SweepRow(spec.swept_variable.value, float(value), scheme.value,
                                     seed, se, 0 if result is None else result.overhead,
                                     notes))
    return rows
