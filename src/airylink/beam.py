"""Constant-modulus beam synthesis and 2-D field-map rendering.

A codeword is a phase-only aperture profile over the Tx array:

    phi(y) = (2*pi/lambda) * (a*y^3 + cos(theta)^2/(2r)*y^2 - sin(theta)*y)

The quadratic plus linear part focuses at polar point (r, theta) in front
of the array; the cubic coefficient a bends the main lobe (positive a
curves the trajectory upward near the aperture and back down, mirroring
for negative a at theta = 0). a has units 1/m^2 with y in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import field_on_grid
from .scenario import ArrayConfig, CarrierConfig, ScenarioConfig, element_positions


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
    if np.any(np.abs(np.linalg.norm(weights, axis=0) - 1.0) > 1e-9):
        raise ValueError("beam weights must have unit l2 norm")


def _focus_terms(focus_distance: float, focus_angle: float) -> tuple:
    """Quadratic coefficient cos(theta)^2/(2r) and sin(theta) of one focus point."""
    if math.isinf(focus_distance):
        quad = 0.0
    else:
        quad = math.cos(focus_angle) ** 2 / (2 * focus_distance)
    return quad, math.sin(focus_angle)


def _profile(y, y2, y3, curving, quad, sine, wavelength):
    """Phase from the powers of y and the per-beam terms, radians.

    Scalar terms give one beam; row-vector terms against column-vector
    powers give one beam per column, each bit-identical to the scalar case
    because every element sees the same operations in the same order.
    """
    cubic = 2 * math.pi / wavelength * curving * y3
    return cubic + 2 * math.pi / wavelength * (quad * y2 - sine * y)


def focusing_phase(position, focus_distance: float, focus_angle: float,
                   carrier: CarrierConfig):
    """Quadratic-plus-linear near-field phase, radians."""
    y = np.asarray(position, dtype=float)
    quad, sine = _focus_terms(focus_distance, focus_angle)
    return _profile(y, y**2, 0.0, 0.0, quad, sine, carrier.wavelength)


def airy_phase(position, params: BeamParams, carrier: CarrierConfig):
    """Cubic + quadratic + linear phase profile, radians."""
    y = np.asarray(position, dtype=float)
    quad, sine = _focus_terms(params.focus_distance, params.focus_angle)
    return _profile(y, y**2, y**3, params.curving, quad, sine, carrier.wavelength)


def airy_beam_vector(params: BeamParams, array: ArrayConfig,
                     carrier: CarrierConfig) -> BeamVector:
    """Unit-norm constant-modulus codeword for the given parameters."""
    y = element_positions(array)
    phase = airy_phase(y, params, carrier)
    weights = np.exp(1j * phase) / math.sqrt(array.num_elements)
    return BeamVector(params, weights)


# Columns synthesized per block: bounds the temporaries of a large codebook.
_BLOCK_COLUMNS = 64


def airy_beam_matrix(params, array: ArrayConfig, carrier: CarrierConfig) -> np.ndarray:
    """[N_t, T] codewords, column t for row t of `params` [T, 3].

    Rows are (curving, focus_distance, focus_angle) under BeamParams' rules.
    Column t equals airy_beam_vector(BeamParams(*params[t])).weights bit for
    bit: the per-beam terms come from the same scalar math, and the phase
    from the same element-wise operations on the same powers of y.
    """
    prm = np.asarray(params, dtype=float).reshape(-1, 3)
    _check_focus(prm[:, 1], prm[:, 2])
    # per-beam terms once per distinct (r, theta) bit pattern: an exhaustive
    # book repeats every focus pair for each curving value
    bits = np.ascontiguousarray(prm[:, 1:]).view(np.int64)
    _, first, which = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    terms = np.array([_focus_terms(r, th) for r, th in prm[first, 1:].tolist()],
                     dtype=float).reshape(-1, 2)
    which = which.reshape(-1)
    y = element_positions(array)
    y2, y3 = y**2, y**3
    scale = math.sqrt(array.num_elements)
    weights = np.empty((y.size, prm.shape[0]), dtype=complex)
    for start in range(0, prm.shape[0], _BLOCK_COLUMNS):
        cols = slice(start, start + _BLOCK_COLUMNS)
        quad, sine = terms[which[cols]].T
        phase = _profile(y[:, None], y2[:, None], y3[:, None], prm[cols, 0], quad, sine,
                         carrier.wavelength)
        block = np.exp(1j * phase) / scale
        _check_unit_norm(block)
        weights[:, cols] = block
    return weights


def focusing_beam_vector(focus_distance: float, focus_angle: float,
                         array: ArrayConfig, carrier: CarrierConfig) -> BeamVector:
    return airy_beam_vector(BeamParams(0.0, focus_distance, focus_angle), array, carrier)


def steering_beam_vector(focus_angle: float, array: ArrayConfig,
                         carrier: CarrierConfig) -> BeamVector:
    """Far-field beam: linear phase only."""
    return airy_beam_vector(BeamParams(0.0, math.inf, focus_angle), array, carrier)


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
        if not (self.x_min > 0):
            raise ValueError("grid must start strictly after the aperture plane x=0")
        single_column = self.num_x == 1 and self.x_max == self.x_min
        if not (self.x_max > self.x_min or single_column) or self.y_max <= self.y_min:
            raise ValueError("grid extents must be increasing")
        if self.num_x < 1 or self.num_y < 2:
            raise ValueError("grid too small")

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
    mask_applied: bool

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
    """Render an arbitrary sampled aperture (see `channel.field_on_grid`)."""
    if grid.x_max > scenario.link_distance + 1e-12:
        raise ValueError("grid extends beyond the receiver plane")
    xs, ys = grid.x, grid.y
    field = field_on_grid(scenario, aperture_positions, aperture_values, xs, ys)
    return _finalize_map(xs, ys, field, mask_applied=scenario.blockage is not None)


def _finalize_map(xs, ys, field, mask_applied: bool) -> FieldMap:
    mag = np.abs(field)
    peak = mag.max()
    if peak == 0:
        power = np.full(mag.shape, FieldMap.DB_FLOOR)
    else:
        with np.errstate(divide="ignore"):
            power = 20 * np.log10(mag / peak)
        power = np.maximum(power, FieldMap.DB_FLOOR)
    return FieldMap(xs, ys, power, mask_applied)
