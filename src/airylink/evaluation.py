"""Channel sets, one-stream beamformers, spectral efficiency, and sweeps.

Every scheme deploys one stream: a full-digital benchmark the design
channel's top singular pair, a searched scheme its searched beam and a
constant-modulus combiner matched to the beam's response.  A digital
stage would only scale each vector by a complex scalar, which leaves a
one-stream rate as it is, so none is designed.

Beamformers, their design and their spectral efficiency take a stack of
K beams along a leading axis: `_deploy` deploys every beam of a scheme at
one point as one stack, a search's selected beam as a stack of one, and
an overhead sweep every budget's leader.  A beam's result does not depend
on the stack it is deployed in: the stacked products round each beam as
they round it alone.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .beam import BeamVector
# Unused here, but bench/spans.py patches it on this module by name.
from .beam import airy_beam_vector  # noqa: F401
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
from .scenario import ScenarioConfig, _check_count
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
    "target_snr",
    "k_factor_ratio",
    "check_k_factor_reference",
    "run_sweep",
]


def spectral_efficiency(precoder: np.ndarray, combiner: np.ndarray,
                        channel: ChannelMatrix, transmit_power: float,
                        noise_power: float) -> np.ndarray:
    """Rates [K] in bits/s/Hz of K combined one-stream links over `channel`.

    precoder [K x N_t] and combiner [K x N_r] hold one vector per link;
    other shapes are refused, naming them.  The rate is the scalar SNR's
    log1p(P |g|^2 / (noise_power ||w||^2)) / log(2), with g = w^H H f; it
    does not change when f or w is scaled, so one stream needs no digital
    stage.  Where w is zero (a zero combiner collects no signal and no
    noise) the rate is exactly 0.  Each combiner is first scaled, exactly,
    by the power of two that brings its largest modulus into [0.5, 1), so
    no combiner scale under- or overflows.
    """
    f = np.asarray(precoder, dtype=complex)
    w = np.asarray(combiner, dtype=complex)
    n_r, n_t = channel.entries.shape
    if f.ndim != 2 or w.ndim != 2 or f.shape != (len(w), n_t) or w.shape[1] != n_r:
        raise ValueError(f"precoder must be [K, {n_t}] and combiner [K, {n_r}] over a "
                         f"{n_r} x {n_t} channel, got {f.shape} and {w.shape}")
    if not (transmit_power > 0 and noise_power > 0):
        raise ValueError("powers must be positive")

    _, exponent = np.frexp(np.abs(w).max(axis=1, initial=0.0))
    w = np.ldexp(np.ascontiguousarray(w).view(float), -exponent[:, None]).view(complex)
    f, w = f[:, :, None], w[:, :, None]
    w_h = w.conj().swapaxes(1, 2)
    g = (w_h @ channel.entries @ f)[:, 0, 0]
    norm_sq = (w_h @ w)[:, 0, 0].real
    # a zero w has g = 0, so its rate is log1p(0) = 0 exactly
    snr = transmit_power * np.abs(g) ** 2 / (noise_power * np.where(norm_sq > 0, norm_sq, 1.0))
    return np.log1p(snr) / math.log(2.0)


@dataclass(frozen=True)
class Beamformers:
    """K one-stream deployments: each one's precoder and combiner vector,
    both zero where its design channel had rank 0.  A digital stage would
    only scale a vector, which leaves a one-stream rate as it is, so there
    is none."""

    precoder: np.ndarray  # [K x N_t]
    combiner: np.ndarray  # [K x N_r]

    def __post_init__(self):
        norm_sq = np.sum(np.abs(self.precoder) ** 2, axis=-1)
        if ((norm_sq != 0.0) & (np.abs(norm_sq - 1) > 1e-9 * np.maximum(norm_sq, 1))).any():
            raise ValueError("composite precoder must have unit power, one stream's")

    @property
    def rank_deficient(self) -> np.ndarray:
        """[K]: whether each design channel had rank 0, its precoder zero."""
        return ~self.precoder.any(axis=1)

    def evaluate(self, channel: ChannelMatrix, transmit_power: float,
                 noise_power: float) -> np.ndarray:
        """Spectral efficiency [K] of each deployment over `channel`."""
        return spectral_efficiency(self.precoder, self.combiner, channel,
                                   transmit_power, noise_power)


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
    design: str                       # ChannelSet field its beamformers are designed on
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
    beams = None if result is None else result.selected_vector.weights[:, None]
    [(se, notes)] = _deploy(scheme, beams, channels, cfg)
    return result, se, notes


def _deploy(scheme: BeamformingScheme, beams: np.ndarray | None,
            channels: ChannelSet, cfg: TrainingConfig) -> list:
    """(spectral efficiency, notes) of `scheme` deploying each of its searched
    `beams`, the [N_t, K] weights of K beams as columns (None for a
    benchmark, which deploys once), designed on its design channel and run
    over its link channel.

    The K beams are designed and evaluated as one stack of beamformers,
    each with the result it has alone.  Notes, in order: `fully_blocked`
    (the link is all zero), then, where the design channel had rank 0, so
    precoder and combiner are zero and the rate is 0, `rank_deficient` and
    `ill_conditioned_noise`.
    """
    design, link = (getattr(channels, name) for name in scheme.channel_fields)
    bf = build_scheme_beamformers(scheme, beams, design)
    se = bf.evaluate(link, cfg.transmit_power, cfg.noise_power)
    blocked = ("fully_blocked",) if not link.entries.any() else ()
    rank_0 = ("rank_deficient", "ill_conditioned_noise")
    return [(value, ";".join(blocked + (rank_0 if zero else ())))
            for value, zero in zip(se.tolist(), bf.rank_deficient.tolist())]


def build_scheme_beamformers(scheme: BeamformingScheme,
                             beam: BeamVector | np.ndarray | None = None,
                             design_channel: ChannelMatrix | None = None) -> Beamformers:
    """The one-stream beamformers `scheme` deploys, designed on `design_channel`.

    A benchmark is full digital: its precoder and combiner are the design
    channel's top right and left singular vectors, as a stack of one.  A
    searched scheme deploys each searched beam as its precoder, and as its
    combiner the elementwise phases of the design channel's response to the
    beam over sqrt(N_r), a constant-modulus combiner matched to that
    response.  With one stream, a digital stage would only scale each
    vector by a complex scalar, which leaves the rate as it is, so none is
    designed.  A design channel of rank 0 (for a searched beam, an all-zero
    response) gives a zero precoder and combiner.

    `beam` is the [N_t, K] constant-modulus weights of K beams as columns,
    or a `BeamVector`, a stack of one.
    """
    if scheme.searched and beam is None:
        raise ValueError("searched scheme requires its searched beam")
    if design_channel is None:
        raise ValueError(f"{scheme.value} requires its design channel")
    h = np.asarray(design_channel.entries, dtype=complex)
    n_r, n_t = h.shape

    if not scheme.searched:
        u, s, vh = np.linalg.svd(h, full_matrices=False)
        live = bool(s[0] > 0)  # rank > 0
        f = vh[0].conj()
        f = np.where(live, f * (1.0 / np.linalg.norm(f)), 0)
        return Beamformers(f[None], np.where(live, u[:, 0], 0)[None])
    weights = beam.weights[:, None] if isinstance(beam, BeamVector) else np.asarray(beam)
    if weights.ndim != 2 or len(weights) != n_t:
        raise ValueError(f"beams must be [{n_t}, K] weights, got {weights.shape}")
    if np.max(np.abs(np.abs(weights) - 1.0 / math.sqrt(n_t))) > 1e-12:
        raise ValueError("searched beams must be constant modulus, 1/sqrt(N_t)")
    f = np.ascontiguousarray(weights.T, dtype=complex)  # [K, N_t]
    # stacked matrix-vector products round each beam as it rounds alone
    response = (h @ f[:, :, None])[:, :, 0]
    magnitude = np.abs(response)
    phases = np.where(magnitude > 0, response / np.where(magnitude > 0, magnitude, 1.0), 1.0)
    live = response.any(axis=1)[:, None]
    return Beamformers(np.where(live, f, 0), np.where(live, (1.0 / math.sqrt(n_r)) * phases, 0))


def target_snr(target_se: float) -> float:
    """2**target_se - 1, the SNR at which one stream carries target_se bits/s/Hz."""
    snr = power_of(2.0, target_se) - 1.0
    if not 0 < snr < math.inf:
        raise ValueError(f"training.target_se_bps_hz: 2**value - 1 must be a positive "
                         f"finite float, got {target_se!r}")
    return snr


def k_factor_ratio(k_factor_db: float) -> float:
    """10**(k_factor_db/10), a K-factor's direct-to-scattered power ratio."""
    k_ratio = power_of(10.0, k_factor_db / 10)
    if not sys.float_info.min <= k_ratio < math.inf:
        raise ValueError(f"multipath.k_factor_db: 10**(value/10) must be a positive "
                         f"normal float, got {k_factor_db!r}")
    return k_ratio


def check_k_factor_reference(model: str | None, k_factor_db: float | None) -> None:
    """A K-factor target rescales the rays against the direct path, so it needs one."""
    if k_factor_db is not None and model is None:
        raise ValueError("multipath.k_factor_db: needs a direct path; los_model none has none")


def noise_for_target_se(channel: ChannelMatrix, transmit_power: float,
                        target_se: float) -> float:
    """Noise power that puts the full-digital single-stream rate at target_se."""
    snr = target_snr(target_se)
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
        """A sweep's rules; each message starts with the config key it checks."""
        if len(self.grid) == 0:
            raise ValueError("sweep.grid: must be non-empty")
        if len(self.schemes) == 0:
            raise ValueError("sweep.schemes: must be non-empty")
        _check_count("sweep.repetitions:", self.repetitions)
        _check_count("training.rng_seed:", self.base_seed, minimum=0)
        if self.swept_variable is SweptVariable.TRANSMIT_POWER:
            if not all(v > 0 for v in self.grid):
                raise ValueError("sweep.grid: power values must be > 0")
            if not all(math.isfinite(v) for v in self.grid):
                raise ValueError("sweep.grid: power values must be finite")
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
    check_k_factor_reference(model, k_factor_db)
    if k_factor_db is not None:
        k_ratio = k_factor_ratio(k_factor_db)
    nlos = nlos_component(scenario, rays) if rays else None
    if model is None:
        if nlos is None:
            raise ValueError("a channel without a direct path needs rays")
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


def _overhead_rows(spec: SweepSpec, channels: ChannelSet, books,
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
        leaders = [int(np.argmax(result.powers[:used])) for used in budgets]
        deployed = _deploy(scheme, result.words(leaders), channels, cfg)  # one stack
        best_so_far, best_notes = -math.inf, ""
        for value, used, (se, notes) in zip(spec.grid, budgets, deployed):
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
            rows.extend(_overhead_rows(spec, channels, books, cfg, seed))
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
