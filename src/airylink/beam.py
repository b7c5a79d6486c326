"""Constant-modulus beam synthesis and 2-D field-map rendering.

A codeword is a phase-only aperture profile over the Tx array:

    phi(y) = (2*pi/lambda) * (a*y^3 + cos(theta)^2/(2r)*y^2 - sin(theta)*y)

The quadratic plus linear part focuses at polar point (r, theta) in front
of the array; the cubic coefficient a bends the main lobe (positive a
curves the trajectory upward near the aperture and back down, mirroring
for negative a at theta = 0). a has units 1/m^2 with y in meters.

Every codeword is synthesized as the product of two factors: the cubic
factor exp(j*2*pi/lambda*a*y^3) of its curving, and the focus factor
exp(j*2*pi/lambda*(cos(theta)^2/(2r)*y^2 - sin(theta)*y)) / sqrt(N_t) of
its focus point. A codebook over J curving values and F focus points thus
takes J + F columns of exponentials, not J*F, and keeps only the [F]-sized
terms of its focus factors (`FocusTerms`), from which it synthesizes any
range of focus columns when it needs them. Every factor's exponential
is the table-driven phasor `numerics.cis`, so a standalone beam vector and
the same word of a book are built by one code path and agree bit for bit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .channel import field_on_grid
from .numerics import BLOCK_VALUES, cis
from .scenario import (
    ArrayConfig,
    CarrierConfig,
    ScenarioConfig,
    _check_count,
    _check_finite,
    check_hop_phase,
    element_positions,
    virtual_grid,
)


@dataclass(frozen=True)
class BeamParams:
    """(curving, focus_distance, focus_angle) beam parameterization.

    focus_distance may be inf for a pure steering (far-field) beam.
    """

    curving: float
    focus_distance: float
    focus_angle: float

    def __post_init__(self):
        # normalize to plain floats so params repr cleanly in traces/manifests
        for name in ("curving", "focus_distance", "focus_angle"):
            object.__setattr__(self, name, float(getattr(self, name)))
        _check_finite(curving=self.curving)
        _check_focus(self.focus_distance, self.focus_angle)


def _check_focus(focus_distance, focus_angle) -> None:
    """BeamParams' rules, on one beam or on whole parameter columns."""
    if not np.all(focus_distance > 0):
        raise ValueError("focus_distance must be positive (inf allowed)")
    if not np.all(np.abs(focus_angle) < math.pi / 2):
        raise ValueError("focus_angle must lie in (-pi/2, pi/2)")


@dataclass(frozen=True)
class BeamVector:
    params: BeamParams
    weights: np.ndarray

    def __post_init__(self):
        _check_unit_norm(self.weights)


def _check_unit_norm(weights: np.ndarray) -> None:
    """Every column of `weights` (or the one vector) must have unit l2 norm."""
    # summed over views of the real and imaginary parts: no [N_t, T] temporary
    power = (np.einsum("i...,i...->...", weights.real, weights.real)
             + np.einsum("i...,i...->...", weights.imag, weights.imag))
    if np.any(np.abs(np.sqrt(power) - 1.0) > 1e-9):
        raise ValueError("beam weights must have unit l2 norm")


def _focus_terms(focus_distance: float, focus_angle: float) -> tuple:
    """Quadratic coefficient cos(theta)^2/(2r) and sin(theta) of one focus point."""
    if math.isinf(focus_distance):
        quad = 0.0
    else:
        quad = math.cos(focus_angle) ** 2 / (2 * focus_distance)
    return quad, math.sin(focus_angle)


def _focus_phase(y, quad, sine, wavelength):
    """Quadratic-plus-linear phase of the per-point terms, radians."""
    return 2 * math.pi / wavelength * (quad * y**2 - sine * y)


# The synthesis rule. Scalar terms against the element positions y give one
# factor; row-vector terms against column-vector y give one factor per
# column, each bit-identical to the scalar case because every element sees
# the same operations in the same order.

def _cubic_factor(y, curving, wavelength):
    return cis(2 * math.pi / wavelength * curving * y**3)


def _focus_factor(y, quad, sine, wavelength, out=None):
    return cis(_focus_phase(y, quad, sine, wavelength), 1 / math.sqrt(y.shape[0]), out)


def focusing_phase(position, focus_distance: float, focus_angle: float,
                   carrier: CarrierConfig):
    """Quadratic-plus-linear near-field phase, radians."""
    y = np.asarray(position, dtype=float)
    return _focus_phase(y, *_focus_terms(focus_distance, focus_angle), carrier.wavelength)


def curving_factors(curving, array: ArrayConfig, carrier: CarrierConfig) -> np.ndarray:
    """[N_t, J] unit-modulus cubic factors exp(j*2*pi/lambda*a_i*y^3), one per curving a_i."""
    a = np.asarray(curving, dtype=float).reshape(-1)
    return _cubic_factor(element_positions(array)[:, None], a, carrier.wavelength)


@dataclass(frozen=True)
class FocusTerms:
    """What a book keeps of F focus points: [F]-sized terms, no [N_t, F] matrix.

    quad and sine are `_focus_terms` of each point, from `math` once per
    distinct angle. `columns` synthesizes the focus factors of any range
    of points from them: column f is exp(j*focusing_phase(y, r_f,
    theta_f)) / sqrt(N_t), equal to the standalone beam's bit for bit.

    Mirror rule: when the element positions are exactly antisymmetric
    (y[::-1] == -y, an array with no center offset), the column of terms
    (quad, -sine) is the column of (quad, sine) read backwards, bit for bit:
    its phase at -y is the same rounded value as the partner's at y.
    partner[f] is such a column for each column with sine < 0 whose
    partner's terms are in the book, else -1. `ranges` cuts the columns
    into mirror-closed ranges, so that each pair is synthesized once.
    """

    positions: np.ndarray  # [N_t] element positions y
    wavelength: float
    quad: np.ndarray       # [F]
    sine: np.ndarray       # [F]
    partner: np.ndarray    # [F]

    def __len__(self) -> int:
        return self.quad.size

    def at(self, f) -> np.ndarray:
        """Focus factors of points f, each synthesized alone: [N_t] for one
        point, equal to columns(f, f + 1)[:, 0], or [N_t, n] for n points."""
        y = self.positions if np.ndim(f) == 0 else self.positions[:, None]
        return _focus_factor(y, self.quad[f], self.sine[f], self.wavelength)

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """[N_t, hi - lo] unit-norm focus factors of points lo:hi.

        A column whose partner lies in lo:hi is copied from it, one reversed
        slice per run of such columns; the rest are synthesized, at most
        `numerics.BLOCK_VALUES` phase values at a time, and checked for unit
        norm. Either way a column does not depend on the range.
        """
        if not 0 <= lo <= hi <= len(self):
            raise ValueError(f"focus columns {lo}:{hi} are outside 0:{len(self)}")
        y = self.positions
        quad, sine = self.quad[lo:hi], self.sine[lo:hi]
        partner = self.partner[lo:hi] - lo  # -1 - lo < 0 where there is none
        copied = (partner >= 0) & (partner < quad.size)
        factors = np.empty((y.size, quad.size), dtype=complex)
        step = max(1, BLOCK_VALUES // y.size)
        for a, b in _runs(~copied, ~copied[:-1]):
            for start in range(a, b, step):
                cols = slice(start, min(start + step, b))
                _check_unit_norm(_focus_factor(y[:, None], quad[cols], sine[cols],
                                               self.wavelength, out=factors[:, cols]))
        for a, b in _runs(copied, copied[:-1] & (partner[:-1] == partner[1:] + 1)):
            factors[:, a:b] = factors[::-1, partner[b - 1]:partner[a] + 1][:, ::-1]
        return factors

    def ranges(self, cap: int, widest: int) -> list:
        """(lo, hi) column ranges covering 0:F in order, for `columns`.

        A range may end after column c only if no mirror pair straddles the
        cut (max(f, partner[f]) over every pair with a member at or before c
        is at most c), so each column copied from its partner finds it in the
        same range and each pair is synthesized once. A range takes as many
        whole mirror-closed runs as fit in `cap` columns, or the next run
        alone if it is wider; only a run wider than `widest` is cut inside,
        its split pairs then synthesized on both sides.
        """
        n = len(self)
        reach = np.arange(n)
        paired = np.flatnonzero(self.partner >= 0)
        np.maximum.at(reach, np.minimum(paired, self.partner[paired]),
                      np.maximum(paired, self.partner[paired]))
        ends = (np.flatnonzero(np.maximum.accumulate(reach) == np.arange(n)) + 1).tolist()
        blocks, lo = [], 0
        while lo < n:
            k = bisect.bisect_right(ends, lo + cap)
            if k and ends[k - 1] > lo:
                hi = ends[k - 1]
            else:
                hi = min(ends[k], lo + widest)
            blocks.append((lo, hi))
            lo = hi
        return blocks


def focus_terms(focus_distance, focus_angle, array: ArrayConfig,
                carrier: CarrierConfig) -> FocusTerms:
    """The `FocusTerms` of points (r_f, theta_f), which follow BeamParams' rules."""
    r = np.asarray(focus_distance, dtype=float).reshape(-1)
    theta = np.asarray(focus_angle, dtype=float).reshape(-1)
    _check_focus(r, theta)
    quad, sine = _focus_term_columns(r, theta)
    y = element_positions(array)
    partner = np.full(r.size, -1)
    if np.array_equal(y[::-1], -y):
        partner = _mirror_partners(quad, sine)
    return FocusTerms(y, carrier.wavelength, quad, sine, partner)


def _focus_term_columns(r: np.ndarray, theta: np.ndarray) -> tuple:
    """`_focus_terms` of every point, with cos and sin once per distinct angle."""
    # distinct by bit pattern, so -0.0 keeps its own sine
    _, first, inverse = np.unique(theta.view(np.int64), return_index=True,
                                  return_inverse=True)
    angles = theta[first].tolist()
    cos2 = np.array([math.cos(t) ** 2 for t in angles], dtype=float)[inverse]
    sine = np.array([math.sin(t) for t in angles], dtype=float)[inverse]
    # cos^2 / inf is +0.0, the far-field quad of `_focus_terms`
    return cos2 / (2 * r), sine


def _mirror_partners(quad: np.ndarray, sine: np.ndarray) -> np.ndarray:
    """For each column with sine < 0, a column with terms (quad, -sine), else -1."""
    key = np.empty(quad.size, dtype=complex)
    key.real, key.imag = quad, sine
    order = np.argsort(key, kind="stable")  # complex sorts by real, then imaginary
    ranked = key[order]
    want = np.conj(key)
    at = np.minimum(np.searchsorted(ranked, want), quad.size - 1)
    return np.where((sine < 0) & (ranked[at] == want), order[at], -1)


def _runs(member: np.ndarray, joins: np.ndarray) -> list:
    """(start, stop) of each maximal run of member columns.

    joins[j] says whether column j + 1 continues the run of column j.
    """
    link = np.zeros(member.size + 1, dtype=bool)
    link[1:-1] = member[1:] & joins
    starts = np.flatnonzero(member & ~link[:-1])
    stops = np.flatnonzero(member & ~link[1:]) + 1
    return list(zip(starts.tolist(), stops.tolist()))


def airy_beam_vector(params: BeamParams, array: ArrayConfig,
                     carrier: CarrierConfig) -> BeamVector:
    """Unit-norm constant-modulus codeword: curving factor times focus factor.

    Zero curving gives a focusing beam, and focus_distance inf as well a
    far-field steering beam (linear phase only). A codebook word is the
    same product of the same factors, so `Codebook.words` and
    `Codebook.word(t)` equal this vector for its params bit for bit.
    """
    y = element_positions(array)
    quad, sine = _focus_terms(params.focus_distance, params.focus_angle)
    weights = (_cubic_factor(y, params.curving, carrier.wavelength)
               * _focus_factor(y, quad, sine, carrier.wavelength))
    return BeamVector(params, weights)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular rendering window, x in (0, D], uniform sampling."""

    x_min: float
    x_max: float
    num_x: int
    y_min: float
    y_max: float
    num_y: int

    def __post_init__(self):
        _check_count("num_x", self.num_x)
        _check_count("num_y", self.num_y, minimum=2)
        _check_finite(x_min=self.x_min, x_max=self.x_max, y_min=self.y_min, y_max=self.y_max)
        if not (self.x_min > 0):
            raise ValueError("x_min: grid must start strictly after the aperture plane x=0")
        if not (self.x_max > self.x_min or (self.num_x == 1 and self.x_max == self.x_min)):
            raise ValueError("x_max must exceed x_min, or equal it when num_x is 1")
        if not self.y_max > self.y_min:
            raise ValueError("y_max must exceed y_min")

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.num_x)

    @property
    def y(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.num_y)


@dataclass(frozen=True)
class FieldMap:
    x: np.ndarray
    y: np.ndarray
    power_db: np.ndarray  # [num_y, num_x], normalized to map max, floored

    DB_FLOOR = -60.0

    def peak(self) -> tuple:
        """(x, y) of the strongest cell."""
        j, i = np.unravel_index(int(np.argmax(self.power_db)), self.power_db.shape)
        return float(self.x[i]), float(self.y[j])

    def column_db(self, x_value: float) -> np.ndarray:
        i = int(np.argmin(np.abs(self.x - x_value)))
        return self.power_db[:, i]


def render_field_map(beam: BeamVector, scenario: ScenarioConfig,
                     grid: GridSpec) -> FieldMap:
    """Propagate a codeword's aperture through the scenario onto a grid."""
    aperture_y = element_positions(scenario.tx)
    return render_aperture_field_map(aperture_y, beam.weights, scenario, grid)


def render_aperture_field_map(aperture_positions, aperture_values,
                              scenario: ScenarioConfig, grid: GridSpec) -> FieldMap:
    """Render one value per position of a 1-D aperture at x = 0 (see
    `channel.field_on_grid`) on a window that ends by the Rx plane (x_max)
    and whose longest hop, from the aperture or a virtual plane, keeps its
    phase below `numerics.CIS_LIMIT` (y_min/y_max, `scenario.check_hop_phase`)."""
    y = np.asarray(aperture_positions, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"aperture_positions must be a non-empty 1-D array, not {y.shape}")
    if np.shape(aperture_values) != y.shape:
        raise ValueError(f"aperture_values: shape {np.shape(aperture_values)} does not "
                         f"match the {y.size} aperture positions")
    if grid.x_max > scenario.link_distance + 1e-12:
        raise ValueError(f"x_max must not exceed the link distance ({scenario.link_distance!r} m)")
    ends = [grid.y_min, grid.y_max, y.min(), y.max()]  # the window and its columns' sources
    if scenario.blockage is not None:
        ends += [*virtual_grid(scenario.with_virtual_defaults())[[0, -1]]]
    check_hop_phase(scenario.carrier, grid.x_max, ends, "y_min/y_max", "narrow the y window")
    xs, ys = grid.x, grid.y
    field = field_on_grid(scenario, y, aperture_values, xs, ys)
    return _finalize_map(xs, ys, field)


def _finalize_map(xs, ys, field) -> FieldMap:
    """The map of |field| in dB of its peak, floored, formed in one array."""
    power = np.abs(field)
    peak = power.max()
    if peak == 0:
        power.fill(FieldMap.DB_FLOOR)
    else:
        power /= peak
        with np.errstate(divide="ignore"):
            np.log10(power, out=power)
        power *= 20
        np.maximum(power, FieldMap.DB_FLOOR, out=power)
    return FieldMap(xs, ys, power)
