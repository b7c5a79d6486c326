"""Pilot-based beam training over a blocked channel.

Each training slot transmits one candidate beamforming vector through the
channel, adds receiver noise from a seeded stream, and records the combined
power at the receiver probe.  A search scheme is a policy for which
candidates are sounded and how the winner is picked; reported overhead is
always the number of slots actually consumed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .beam import BeamParams, BeamVector
from .channel import ChannelMatrix
from .codebook import (
    Codebook,
    CodebookScheme,
    SamplingPlan,
    build_farfield_codebook,
    build_nearfield_codebook,
)
from .scenario import ScenarioConfig

__all__ = [
    "ProbeCombiner",
    "TrainingConfig",
    "TraceEntry",
    "SearchResult",
    "measure_slot",
    "exhaustive_search",
    "hierarchical_search",
    "low_complexity_search",
    "farfield_steering_search",
    "nearfield_focusing_search",
]


class ProbeCombiner(enum.Enum):
    """Receive combiner used during training (not for final data detection)."""

    OMNIDIRECTIONAL = "Omnidirectional"
    FULL_ARRAY_NORM = "FullArrayNorm"


@dataclass(frozen=True)
class TrainingConfig:
    """Powers, probe combiner, and noise seed for a training run."""

    transmit_power: float
    noise_power: float
    rx_probe_combiner: ProbeCombiner = ProbeCombiner.OMNIDIRECTIONAL
    rng_seed: int = 0

    def __post_init__(self):
        if not (self.transmit_power > 0):
            raise ValueError("transmit_power must be positive")
        # noise_power == 0 is the exact noiseless limit; negative is invalid
        if self.noise_power < 0:
            raise ValueError("noise_power must be non-negative")


def probe_combiner_matrix(combiner: ProbeCombiner, num_rx: int) -> np.ndarray:
    """[N_r, n_probe] combiner applied to every training observation."""
    if combiner is ProbeCombiner.OMNIDIRECTIONAL:
        return np.full((num_rx, 1), 1.0 / math.sqrt(num_rx), dtype=complex)
    return np.eye(num_rx, dtype=complex)


def _noise_draw(rng: np.random.Generator, num_rx: int, noise_power: float) -> np.ndarray:
    if noise_power == 0.0:
        return np.zeros(num_rx, dtype=complex)
    scale = math.sqrt(noise_power / 2.0)
    return scale * (rng.standard_normal(num_rx) + 1j * rng.standard_normal(num_rx))


def measure_slot(codeword: BeamVector, channel: ChannelMatrix,
                 cfg: TrainingConfig, rng: np.random.Generator | None = None,
                 combiner: np.ndarray | None = None) -> float:
    """Combined receive power for one training slot.

    A standalone call draws its noise from a stream freshly seeded with
    cfg.rng_seed.  Searches pass a persistent `rng` so each slot sees an
    independent draw from the same seeded stream.
    """
    h = channel.entries
    if h.shape[1] != codeword.weights.size:
        raise ValueError("codeword length does not match channel columns")
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    if combiner is None:
        combiner = probe_combiner_matrix(cfg.rx_probe_combiner, h.shape[0])
    received = math.sqrt(cfg.transmit_power) * (h @ codeword.weights)
    received = received + _noise_draw(rng, h.shape[0], cfg.noise_power)
    return float(np.sum(np.abs(combiner.conj().T @ received) ** 2))


@dataclass(frozen=True)
class TraceEntry:
    """One training slot: which beam was sounded and what power came back."""

    slot: int
    curving: float
    focus_distance: float
    focus_angle: float
    power: float


@dataclass(frozen=True)
class SearchResult:
    scheme: CodebookScheme
    selected_params: BeamParams
    selected_vector: BeamVector
    trace: tuple

    @property
    def overhead(self) -> int:
        return len(self.trace)

    @property
    def selected_power(self) -> float:
        best = max(self.trace, key=lambda e: e.power)
        return best.power


def _measure_codebook(codebook: Codebook, channel: ChannelMatrix,
                      cfg: TrainingConfig, rng: np.random.Generator,
                      combiner: np.ndarray, start_slot: int):
    """Sound every codeword once; returns (trace list, best local index)."""
    trace = []
    best_idx = 0
    best_power = -math.inf
    for i, word in enumerate(codebook.codewords):
        p = measure_slot(word, channel, cfg, rng=rng, combiner=combiner)
        prm = word.params
        trace.append(TraceEntry(start_slot + i, prm.curving, prm.focus_distance,
                                prm.focus_angle, p))
        if p > best_power:
            best_power = p
            best_idx = i
    return trace, best_idx


def exhaustive_search(codebook: Codebook, channel: ChannelMatrix,
                      cfg: TrainingConfig) -> SearchResult:
    """Sound the full codebook and keep the measured-power argmax."""
    if len(codebook) == 0:
        raise ValueError("codebook is empty")
    rng = np.random.default_rng(cfg.rng_seed)
    combiner = probe_combiner_matrix(cfg.rx_probe_combiner, channel.entries.shape[0])
    trace, best = _measure_codebook(codebook, channel, cfg, rng, combiner, 0)
    word = codebook.codewords[best]
    return SearchResult(codebook.scheme, word.params, word, tuple(trace))


def hierarchical_search(stage1: Codebook, stage2_factory, channel: ChannelMatrix,
                        cfg: TrainingConfig) -> SearchResult:
    """Stage 1 picks a focusing point; stage 2 refines the curving around it.

    Both stages draw noise from one seeded stream, and the final winner is
    taken from stage 2 alone (the zero-curving codeword is in stage 2, so
    refinement cannot fall behind stage 1 in the noiseless limit).  The
    hierarchical and low-complexity schemes differ only in their stage-1
    codebooks: focusing points over the aperture strip, or on the circle
    through the receiver.
    """
    if len(stage1) == 0:
        raise ValueError("stage-1 codebook is empty")
    rng = np.random.default_rng(cfg.rng_seed)
    combiner = probe_combiner_matrix(cfg.rx_probe_combiner, channel.entries.shape[0])
    trace1, best1 = _measure_codebook(stage1, channel, cfg, rng, combiner, 0)
    winner1 = stage1.codewords[best1].params
    stage2 = stage2_factory(winner1.focus_distance, winner1.focus_angle)
    if not any(w.params.curving == 0.0 for w in stage2.codewords):
        raise ValueError("stage-2 codebook must include the zero-curving beam")
    trace2, best2 = _measure_codebook(stage2, channel, cfg, rng, combiner,
                                      len(trace1))
    word = stage2.codewords[best2]
    return SearchResult(stage2.scheme, word.params, word,
                        tuple(trace1) + tuple(trace2))


low_complexity_search = hierarchical_search


def farfield_steering_search(channel: ChannelMatrix, cfg: TrainingConfig,
                             scenario: ScenarioConfig,
                             plan: SamplingPlan | None = None) -> SearchResult:
    """Angle-only steering baseline (quadratic and cubic terms dropped)."""
    codebook = build_farfield_codebook(scenario, plan)
    return exhaustive_search(codebook, channel, cfg)


def nearfield_focusing_search(channel: ChannelMatrix, cfg: TrainingConfig,
                              scenario: ScenarioConfig) -> SearchResult:
    """Focusing baseline aimed at each receiver element; overhead = N_r."""
    codebook = build_nearfield_codebook(scenario)
    return exhaustive_search(codebook, channel, cfg)
