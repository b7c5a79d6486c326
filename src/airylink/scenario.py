"""Physical link configuration: arrays, carrier, blockage, virtual planes.

Geometry convention: x is the propagation axis with the Tx aperture at
x = 0 and the Rx aperture at x = link_distance; y is the transverse
(vertical) coordinate. A blockage is a rectangle x in [L, L+W],
y in [-extent_below, extent_above].
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .numerics import CIS_LIMIT

SPEED_OF_LIGHT = 299792458.0


def _check_count(name: str, value, minimum: int = 1) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def _check_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array along y, centered at center_offset."""

    num_elements: int
    spacing: float
    center_offset: float = 0.0

    def __post_init__(self):
        _check_count("num_elements", self.num_elements)
        _check_finite(spacing=self.spacing, center_offset=self.center_offset)
        if not (self.spacing > 0):
            raise ValueError("spacing must be > 0")

    @property
    def length(self) -> float:
        """End-to-end aperture length (N-1)*d."""
        return (self.num_elements - 1) * self.spacing

    @property
    def span(self) -> tuple[float, float]:
        half = self.length / 2
        return (self.center_offset - half, self.center_offset + half)


@dataclass(frozen=True)
class CarrierConfig:
    frequency: float

    def __post_init__(self):
        _check_finite(frequency=self.frequency)
        if not (self.frequency > 0):
            raise ValueError("frequency must be > 0")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency

    @property
    def wavenumber(self) -> float:
        return 2 * math.pi / self.wavelength


@dataclass(frozen=True)
class BlockageGeometry:
    """Opaque rectangle between the apertures.

    distance_from_tx: x-offset of the near face (L).
    width_along_axis: extent along x (W).
    extent_above / extent_below: the rectangle spans y in
    [-extent_below, extent_above].
    """

    distance_from_tx: float
    width_along_axis: float
    extent_above: float
    extent_below: float

    def __post_init__(self):
        _check_finite(distance_from_tx=self.distance_from_tx,
                      width_along_axis=self.width_along_axis,
                      extent_above=self.extent_above, extent_below=self.extent_below)
        if self.width_along_axis < 0:
            raise ValueError("width_along_axis must be >= 0")
        if not (self.distance_from_tx > 0):
            raise ValueError("distance_from_tx must be > 0 (degenerate shadow geometry)")
        if self.extent_above + self.extent_below < 0:
            raise ValueError("total blockage height must be >= 0")

    @property
    def near_x(self) -> float:
        return self.distance_from_tx

    @property
    def far_x(self) -> float:
        return self.distance_from_tx + self.width_along_axis

    @property
    def top_y(self) -> float:
        return self.extent_above

    @property
    def bottom_y(self) -> float:
        return -self.extent_below


@dataclass(frozen=True)
class VirtualArrayConfig:
    """Discretization of the blockage region into sampling planes."""

    count: int
    elements_per_array: int
    plane_spacing: float

    def __post_init__(self):
        _check_count("count", self.count)
        _check_count("elements_per_array", self.elements_per_array)
        if self.elements_per_array < 2:
            raise ValueError("elements_per_array must be >= 2: the edge taper of "
                             "one sample leaves no window")
        _check_finite(plane_spacing=self.plane_spacing)
        if not (self.plane_spacing > 0):
            raise ValueError("plane_spacing must be > 0")


def check_hop_phase(carrier: CarrierConfig, dx: float, ys, names: str,
                    remedy: str) -> None:
    """Refuse hops whose phase k*r reaches `numerics.CIS_LIMIT`.

    The longest hop spans dx along x and the extent of the y values ys
    across. The message starts with `names`, the fields or options to
    change, and ends with `remedy`.
    """
    hop = math.hypot(dx, max(ys) - min(ys))
    phase = carrier.wavenumber * hop
    if not phase < CIS_LIMIT:
        raise ValueError(
            f"{names}: the longest hop, {hop:.6g} m at {carrier.frequency:.6g} Hz, is "
            f"{phase:.6g} rad of phase; hop phases must stay below {CIS_LIMIT:.6g} rad, "
            f"so {remedy}")


@dataclass(frozen=True)
class ScenarioConfig:
    tx: ArrayConfig
    rx: ArrayConfig
    carrier: CarrierConfig
    link_distance: float
    blockage: BlockageGeometry | None = None
    virtual_arrays: VirtualArrayConfig | None = field(default=None)

    def __post_init__(self):
        _check_finite(link_distance=self.link_distance)
        if not (self.link_distance > 0):
            raise ValueError("link_distance must be > 0")
        if self.blockage is not None:
            if not (0 < self.blockage.near_x and self.blockage.far_x < self.link_distance):
                raise ValueError("blockage must lie strictly between the apertures")
            if self.virtual_arrays is not None:
                w = self.blockage.width_along_axis
                if (self.virtual_arrays.count - 1) * self.virtual_arrays.plane_spacing > w + 1e-12:
                    raise ValueError("virtual planes must fit inside the blockage region")
        # A hop's phase k*r is absolute, and the kernels take it through
        # numerics.cis. Every hop between the arrays and the virtual planes
        # spans at most the link along x and the samples' y extent across.
        ys = [*self.tx.span, *self.rx.span]
        if self.virtual_arrays is not None:
            vy = virtual_grid(self)
            ys += [vy[0], vy[-1]]
        check_hop_phase(self.carrier, self.link_distance, ys,
                        "scenario.frequency_hz, scenario.link_distance_m",
                        "shorten the link or lower the frequency")

    def with_virtual_defaults(self, count: int = 8) -> "ScenarioConfig":
        """Return a copy with virtual_arrays filled in if absent.

        Default plane set spans [L, L+W] inclusive; the virtual aperture is
        four times the larger physical aperture so diffracted side lobes and
        the absorbing window margin stay clear of the physical projections.
        """
        if self.virtual_arrays is not None:
            return self
        if self.blockage is None:
            raise ValueError("virtual array defaults need a blockage region")
        w = self.blockage.width_along_axis
        if count > 1 and w > 0:
            spacing_x = w / (count - 1)
        else:
            count = 1
            spacing_x = w if w > 0 else self.carrier.wavelength
        d = self.tx.spacing
        target = 4.0 * max(self.tx.length, self.rx.length)
        n = max(int(math.ceil(target / d)) + 1, 2)
        return ScenarioConfig(
            tx=self.tx,
            rx=self.rx,
            carrier=self.carrier,
            link_distance=self.link_distance,
            blockage=self.blockage,
            virtual_arrays=VirtualArrayConfig(count, n, spacing_x),
        )

    def without_blockage(self) -> "ScenarioConfig":
        return ScenarioConfig(self.tx, self.rx, self.carrier, self.link_distance, None, None)


def element_positions(array: ArrayConfig) -> np.ndarray:
    """Element y-coordinates, ascending, symmetric about center_offset."""
    n = array.num_elements
    idx = np.arange(1, n + 1, dtype=float)
    return (idx - (n + 1) / 2) * array.spacing + array.center_offset


def virtual_plane_positions(scenario: ScenarioConfig) -> np.ndarray:
    """x-coordinates of the virtual sampling planes inside the blockage."""
    va = scenario.virtual_arrays
    if va is None or scenario.blockage is None:
        raise ValueError("scenario has no virtual plane configuration")
    l = scenario.blockage.near_x
    w = scenario.blockage.width_along_axis
    if va.count == 1:
        return np.array([l + w / 2])
    xs = l + np.arange(va.count) * va.plane_spacing
    return xs


def virtual_grid(scenario: ScenarioConfig) -> np.ndarray:
    """Transverse sample positions shared by every virtual plane.

    Centered midway between the two array centers.
    """
    va = scenario.virtual_arrays
    if va is None:
        raise ValueError("scenario has no virtual plane configuration")
    center = 0.5 * (scenario.tx.center_offset + scenario.rx.center_offset)
    return element_positions(
        ArrayConfig(va.elements_per_array, scenario.tx.spacing, center)
    )


def shadow_bounds(tx_y: float, blockage: BlockageGeometry, link_distance: float):
    """Ray-cast the four blockage corners from a Tx element at height tx_y.

    Returns (b1, b2, b3, b4): the Rx-plane ordinates of rays grazing the
    top edge via the near/far faces (b1, b2) and the bottom edge via the
    near/far faces (b3, b4). The geometrically blocked Rx interval is
    [min(b3, b4), max(b1, b2)].
    """
    d = link_distance
    l, lw = blockage.near_x, blockage.far_x
    t1, t2 = blockage.top_y, blockage.bottom_y
    b1 = (t1 - tx_y) * d / l + tx_y
    b2 = (t1 - tx_y) * d / lw + tx_y
    b3 = (t2 - tx_y) * d / l + tx_y
    b4 = (t2 - tx_y) * d / lw + tx_y
    return b1, b2, b3, b4


def blocked_interval(tx_y: float, blockage: BlockageGeometry, link_distance: float):
    """Rx-plane interval [lo, hi] shadowed from the element at tx_y."""
    b1, b2, b3, b4 = shadow_bounds(tx_y, blockage, link_distance)
    return min(b3, b4), max(b1, b2)


def blocked_pairs(scenario: ScenarioConfig) -> np.ndarray:
    """Boolean [N_r, N_t] mask of element pairs whose straight ray is cut."""
    tx_y = element_positions(scenario.tx)
    rx_y = element_positions(scenario.rx)
    mask = np.zeros((rx_y.size, tx_y.size), dtype=bool)
    if scenario.blockage is None:
        return mask
    for i, ty in enumerate(tx_y):
        lo, hi = blocked_interval(ty, scenario.blockage, scenario.link_distance)
        mask[:, i] = (rx_y >= lo) & (rx_y <= hi)
    return mask


def half_wavelength_array(num_elements: int, carrier: CarrierConfig,
                          center_offset: float = 0.0) -> ArrayConfig:
    return ArrayConfig(num_elements, carrier.wavelength / 2, center_offset)
