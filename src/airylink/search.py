"""Pilot-based beam training over a blocked channel.

Each training slot transmits one candidate beamforming vector through the
channel, adds receiver noise from a seeded stream, and records the combined
power at the receiver probe.  A search scheme is a policy for which
candidates are sounded and how the winner is picked; reported overhead is
always the number of slots actually consumed.

A search stage sounds a codebook from its factors (see
`codebook.Codebook`) through the real probe combiner C ([N_r, n_probe]),
forming neither the [N_t, T] codeword matrix nor the N_r antenna outputs:
with g = C^T H, taken once per sounding, slot i*F + f receives the n_probe
values (g * c_i) @ g_f, c_i a curving and g_f a focus factor.  Blocks of
slots run in slot order.  A block stacks g * c_i for each of its curving
values and multiplies the stack by its focus factors in one matrix
product, or stacks g * g_f and multiplies by its curving factors when it
has fewer focus than curving columns (a stage-2 book).  A book keeps no
focus matrix: a one-curving book (stage 1, far field, near field)
synthesizes each block's focus columns and drops them once sounded; a
book with more curving values synthesizes them all once per sounding.
Each block's noise is drawn in sub-blocks of _NOISE_VALUES normals into one
buffer per sounding, each combined by C in one real product and added to
its slots.  Slot t takes N_r standard-normal real parts and then N_r
imaginary parts from the stream, slot after slot, so the sub-blocks are
the stream a slot-by-slot loop would consume, whatever their size, and the
stages of a search continue one stream.  A noiseless run draws nothing.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass

import numpy as np

from .beam import BeamParams, BeamVector
from .channel import ChannelMatrix
from .codebook import Codebook, CodebookScheme, _slot_indices
# Unused here, but bench/spans.py patches them on this module by name.
from .codebook import build_farfield_codebook, build_nearfield_codebook  # noqa: F401
from .scenario import _check_count

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
        if not (math.isfinite(self.transmit_power) and self.transmit_power > 0):
            raise ValueError("transmit_power must be positive and finite")
        # noise_power == 0 is the exact noiseless limit; negative is invalid
        if not (math.isfinite(self.noise_power) and self.noise_power >= 0):
            raise ValueError("noise_power must be non-negative and finite")
        if not isinstance(self.rx_probe_combiner, ProbeCombiner):
            raise ValueError(f"rx_probe_combiner must be a ProbeCombiner, "
                             f"not {self.rx_probe_combiner!r}")
        _check_count("rng_seed", self.rng_seed, minimum=0)


def probe_combiner_matrix(combiner: ProbeCombiner, num_rx: int) -> np.ndarray:
    """Real [N_r, n_probe] combiner C: probe p of a slot measures C[:, p]^T y."""
    if combiner is ProbeCombiner.OMNIDIRECTIONAL:
        return np.full((num_rx, 1), 1.0 / math.sqrt(num_rx))
    if combiner is ProbeCombiner.FULL_ARRAY_NORM:
        return np.eye(num_rx)
    raise ValueError(f"rx_probe_combiner: unknown probe combiner {combiner!r}")


# Slots sounded per block: bounds the [n_probe, slots] temporaries of a large book.
_BLOCK_SLOTS = 8192
# Noise values per sub-block (64 KiB, 256 slots at N_r = 16). A sub-block is a
# power of two of slots, at least two, so it starts where a whole-block product
# starts a BLAS row group (OpenBLAS's [rows, N_r] @ [N_r, 1] rounds in fours).
_NOISE_VALUES = 8192
# Focus-factor entries a one-curving book synthesizes per block (1 MiB of
# complex128, 256 columns at 256 Tx): bounds the [N_t, columns] block that
# stands in for the book's [N_t, F] focus matrix.
_FOCUS_ENTRIES = 1 << 16


def _blocks(num_curving: int, num_focus: int):
    """(curving, focus) column slices of at most _BLOCK_SLOTS slots, in slot order."""
    per = max(1, _BLOCK_SLOTS // max(num_focus, 1))
    width = max(1, min(num_focus, _BLOCK_SLOTS))
    for i in range(0, num_curving, per):
        for f in range(0, num_focus, width):
            yield slice(i, i + per), slice(f, f + width)


def _focus_blocks(partner: np.ndarray, cap: int) -> list:
    """(lo, hi) focus-column ranges of a one-curving book, in order.

    A range may end after column c only if no mirror pair straddles the
    cut (max(f, partner[f]) over every pair with a member at or before c is
    at most c), so each column copied from its partner finds it in the same
    range and each pair is synthesized once. A range takes as many whole
    mirror-closed runs as fit in `cap` columns, or the next run alone if it
    is wider; only a run wider than _BLOCK_SLOTS is cut inside, its
    split pairs then synthesized on both sides.
    """
    n = partner.size
    reach = np.arange(n)
    paired = np.flatnonzero(partner >= 0)
    np.maximum.at(reach, np.minimum(paired, partner[paired]),
                  np.maximum(paired, partner[paired]))
    ends = (np.flatnonzero(np.maximum.accumulate(reach) == np.arange(n)) + 1).tolist()
    blocks, lo = [], 0
    while lo < n:
        k = bisect.bisect_right(ends, lo + cap)
        if k and ends[k - 1] > lo:
            hi = ends[k - 1]
        else:
            hi = min(ends[k], lo + _BLOCK_SLOTS)
        blocks.append((lo, hi))
        lo = hi
    return blocks


def _book_blocks(book: Codebook):
    """(curving factors, focus factors) of each block of `book`, in slot order."""
    terms = book.focus_terms
    if book.curving.size == 1:
        cap = min(_BLOCK_SLOTS, max(1, _FOCUS_ENTRIES // book.cubic.shape[0]))
        for lo, hi in _focus_blocks(terms.partner, cap):
            yield book.cubic, terms.columns(lo, hi)
    else:
        focus = terms.columns(0, len(terms))
        for rows, cols in _blocks(book.curving.size, len(terms)):
            yield book.cubic[:, rows], focus[:, cols]


def _measure(blocks, num_slots: int, num_tx: int, channel: ChannelMatrix,
             cfg: TrainingConfig, rng: np.random.Generator) -> np.ndarray:
    """Measured power of each slot of `blocks`, (cubic, focus) factor pairs whose
    words w are the slots in slot order: |(C^T H) @ w + C^T noise|^2 over probes.
    Noise is drawn and added in sub-blocks through one buffer per call."""
    h = channel.entries
    num_rx = h.shape[0]
    if num_tx != h.shape[1]:
        raise ValueError("codeword length does not match channel columns")
    combiner = probe_combiner_matrix(cfg.rx_probe_combiner, num_rx)
    g = combiner.T @ h
    noise_combiner = combiner * math.sqrt(cfg.noise_power / 2.0)
    per = 1 << max(1, (_NOISE_VALUES // (2 * num_rx)).bit_length() - 1)
    draws = np.empty(per * 2 * num_rx) if cfg.noise_power != 0.0 else None
    powers = np.empty(num_slots)
    start = 0
    for cub, foc in blocks:
        # received[:, i, f] = (g * c_i) @ g_f = (g * g_f) @ c_i: g is scaled
        # by whichever factor the block has fewer of, the scaled copies are
        # stacked into one matrix product, and column i*w + f of the
        # [n_probe, b*w] result is slot start + i*w + f
        if cub.shape[1] <= foc.shape[1]:
            scaled = (g * cub.T[:, None, :]).reshape(-1, num_tx)
            received = (scaled @ foc).reshape(-1, g.shape[0], foc.shape[1]).transpose(1, 0, 2)
        else:
            scaled = (g * foc.T[:, None, :]).reshape(-1, num_tx)
            received = (scaled @ cub).reshape(-1, g.shape[0], cub.shape[1]).transpose(1, 2, 0)
        received = received.reshape(g.shape[0], -1)
        received *= math.sqrt(cfg.transmit_power)
        if draws is not None:
            for lo in range(0, received.shape[1], per):
                hi = min(lo + per, received.shape[1])
                part = rng.standard_normal(out=draws[:(hi - lo) * 2 * num_rx])
                noise = (part.reshape(-1, num_rx) @ noise_combiner).reshape(-1, 2, g.shape[0])
                received.real[:, lo:hi] += noise[:, 0].T
                received.imag[:, lo:hi] += noise[:, 1].T
        stop = start + received.shape[1]
        powers[start:stop] = np.sum(np.abs(received) ** 2, axis=0)
        start = stop
        del cub, foc  # before the next block is synthesized
    return powers


def _sound(book: Codebook, channel: ChannelMatrix, cfg: TrainingConfig,
           rng: np.random.Generator) -> np.ndarray:
    """Measured power of every slot of `book`, in slot order."""
    return _measure(_book_blocks(book), len(book), book.cubic.shape[0], channel, cfg, rng)


def measure_slot(codeword: BeamVector, channel: ChannelMatrix,
                 cfg: TrainingConfig) -> float:
    """Combined receive power for one training slot.

    The noise comes from a stream freshly seeded with cfg.rng_seed: the
    draw of the first slot of a search that sounds this codeword first.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    weights = codeword.weights[:, None]
    return float(_measure([(np.ones(weights.shape), weights)], 1, weights.shape[0],
                          channel, cfg, rng)[0])


@dataclass(frozen=True)
class SearchResult:
    """The selected beam and the record of every slot, in slot order.

    The slots of `books` follow one another: slot t is slot t of books[0],
    then slot t - len(books[0]) of books[1], and so on. `powers[t]` is its
    measured power, `slot_params(t)` its (curving, focus_distance,
    focus_angle) and `words(t)` its weights, derived from the books rather
    than stored.
    """

    scheme: CodebookScheme
    selected_vector: BeamVector
    books: tuple
    powers: np.ndarray

    def __post_init__(self):
        if self.powers.size != sum(len(book) for book in self.books):
            raise ValueError("a search result has one power per slot of its books")

    @property
    def selected_params(self) -> BeamParams:
        return self.selected_vector.params

    @property
    def overhead(self) -> int:
        return self.powers.size

    @property
    def selected_power(self) -> float:
        """Best measured power of the last book, the one the beam is selected from."""
        return float(self.powers[self.overhead - len(self.books[-1]):].max())

    def slot_params(self, slots) -> np.ndarray:
        """(curving, focus_distance, focus_angle) of each slot: [3] for one
        slot, [n, 3] for a sequence of n."""
        t = _slot_indices(slots, self.overhead)
        params = np.empty(t.shape + (3,))
        start = 0
        for book in self.books:
            inside = (t >= start) & (t < start + len(book))
            params[inside] = book.slot_params(t[inside] - start)
            start += len(book)
        return params

    def words(self, slots) -> np.ndarray:
        """Weights of each slot: [N_t] for one slot, [N_t, n] for a sequence
        of n, from one `Codebook.words` call per book."""
        t = _slot_indices(slots, self.overhead)
        weights = np.empty(self.selected_vector.weights.shape + t.shape, dtype=complex)
        start = 0
        for book in self.books:
            inside = (t >= start) & (t < start + len(book))
            weights[..., inside] = book.words(t[inside] - start)
            start += len(book)
        return weights


def exhaustive_search(codebook: Codebook, channel: ChannelMatrix,
                      cfg: TrainingConfig) -> SearchResult:
    """Sound the full codebook and keep the measured-power argmax."""
    if len(codebook) == 0:
        raise ValueError("codebook is empty")
    rng = np.random.default_rng(cfg.rng_seed)
    powers = _sound(codebook, channel, cfg, rng)
    best = codebook.word(int(np.argmax(powers)))
    return SearchResult(codebook.scheme, best, (codebook,), powers)


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
        raise ValueError("scenario.tx_elements: the stage-1 codebook is empty: no focus "
                         "point of the sampling plan lies in the aperture strip")
    rng = np.random.default_rng(cfg.rng_seed)
    powers1 = _sound(stage1, channel, cfg, rng)
    _, r_f, theta_f = stage1.slot_params(int(np.argmax(powers1))).tolist()
    stage2 = stage2_factory(r_f, theta_f)
    if not np.any(stage2.curving == 0.0):
        raise ValueError("stage-2 codebook must include the zero-curving beam")
    powers2 = _sound(stage2, channel, cfg, rng)
    best = stage2.word(int(np.argmax(powers2)))
    return SearchResult(stage2.scheme, best, (stage1, stage2),
                        np.concatenate([powers1, powers2]))


# The baselines are exhaustive searches over their own books: angle-only
# steering beams (far field) and one focusing beam per receiver element
# (near field).
low_complexity_search = hierarchical_search
farfield_steering_search = exhaustive_search
nearfield_focusing_search = exhaustive_search
