"""Pilot-based beam training over a blocked channel.

Each training slot transmits one candidate beamforming vector through the
channel, adds receiver noise from a seeded stream, and records the combined
power at the receiver probe.  A search scheme is a policy for which
candidates are sounded and how the winner is picked; reported overhead is
always the number of slots actually consumed.

A search stage sounds a whole codebook at once: one product H @ W over the
[N_t, T] codeword matrix, one noise draw, and one combiner product.  Slot t
takes N_r standard-normal real parts and then N_r imaginary parts from the
stream, slot after slot, so the draw rng.standard_normal((T, 2, N_r)) is
the stream a slot-by-slot loop would consume, and the stages of a search
continue one stream.  A noiseless run (noise_power == 0) draws nothing.
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


def _sound(weights: np.ndarray, channel: ChannelMatrix, cfg: TrainingConfig,
           rng: np.random.Generator) -> np.ndarray:
    """Measured power of each column of `weights` [N_t, T], one slot each."""
    h = channel.entries
    if h.shape[1] != weights.shape[0]:
        raise ValueError("codeword length does not match channel columns")
    received = h @ weights
    received *= math.sqrt(cfg.transmit_power)
    if cfg.noise_power != 0.0:
        noise = rng.standard_normal((weights.shape[1], 2, h.shape[0]))
        noise *= math.sqrt(cfg.noise_power / 2.0)
        received.real += noise[:, 0].T
        received.imag += noise[:, 1].T
    combiner = probe_combiner_matrix(cfg.rx_probe_combiner, h.shape[0])
    return np.sum(np.abs(combiner.conj().T @ received) ** 2, axis=0)


def measure_slot(codeword: BeamVector, channel: ChannelMatrix,
                 cfg: TrainingConfig) -> float:
    """Combined receive power for one training slot.

    The noise comes from a stream freshly seeded with cfg.rng_seed: the
    draw of the first slot of a search that sounds this codeword first.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    return float(_sound(codeword.weights[:, None], channel, cfg, rng)[0])


@dataclass(frozen=True)
class SearchResult:
    """The selected beam and the record of every slot, in slot order.

    Row t of `params` [overhead, 3] is the (curving, focus_distance,
    focus_angle) sounded in slot t, and `powers[t]` its measured power.
    """

    scheme: CodebookScheme
    selected_vector: BeamVector
    params: np.ndarray
    powers: np.ndarray

    @property
    def selected_params(self) -> BeamParams:
        return self.selected_vector.params

    @property
    def overhead(self) -> int:
        return self.powers.size

    @property
    def selected_power(self) -> float:
        return float(self.powers.max())


def exhaustive_search(codebook: Codebook, channel: ChannelMatrix,
                      cfg: TrainingConfig) -> SearchResult:
    """Sound the full codebook and keep the measured-power argmax."""
    if len(codebook) == 0:
        raise ValueError("codebook is empty")
    rng = np.random.default_rng(cfg.rng_seed)
    powers = _sound(codebook.weights, channel, cfg, rng)
    best = codebook.word(int(np.argmax(powers)))
    return SearchResult(codebook.scheme, best, codebook.params, powers)


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
    powers1 = _sound(stage1.weights, channel, cfg, rng)
    _, r_f, theta_f = stage1.params[int(np.argmax(powers1))].tolist()
    stage2 = stage2_factory(r_f, theta_f)
    if not np.any(stage2.params[:, 0] == 0.0):
        raise ValueError("stage-2 codebook must include the zero-curving beam")
    powers2 = _sound(stage2.weights, channel, cfg, rng)
    best = stage2.word(int(np.argmax(powers2)))
    return SearchResult(stage2.scheme, best,
                        np.concatenate([stage1.params, stage2.params]),
                        np.concatenate([powers1, powers2]))


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
