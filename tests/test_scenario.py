"""Geometry: arrays, carrier, blockage shadows, virtual-plane defaults."""

import math

import numpy as np
import pytest

from airylink.numerics import CIS_LIMIT
from airylink.scenario import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    BlockageGeometry,
    CarrierConfig,
    ScenarioConfig,
    VirtualArrayConfig,
    blocked_interval,
    blocked_pairs,
    element_positions,
    half_wavelength_array,
    shadow_bounds,
    virtual_plane_positions,
)


def test_carrier_wavelength_140ghz():
    car = CarrierConfig(140e9)
    assert car.wavelength == pytest.approx(SPEED_OF_LIGHT / 140e9, rel=1e-15)
    assert car.wavelength == pytest.approx(0.0021413747, abs=1e-10)
    assert car.wavenumber == pytest.approx(2 * math.pi / car.wavelength, rel=1e-15)


def test_element_positions_small_arrays():
    assert np.allclose(element_positions(ArrayConfig(2, 1.0)), [-0.5, 0.5])
    assert np.allclose(element_positions(ArrayConfig(3, 0.5)), [-0.5, 0.0, 0.5])
    # centered: positions sum to zero for any count
    for n in (1, 4, 7, 256):
        assert abs(element_positions(ArrayConfig(n, 0.37)).sum()) < 1e-9 * n


def test_element_positions_offset_and_span():
    arr = ArrayConfig(4, 0.25, center_offset=1.0)
    pos = element_positions(arr)
    assert np.allclose(pos, [0.625, 0.875, 1.125, 1.375])
    assert arr.length == pytest.approx(0.75)
    assert arr.span == (pytest.approx(0.625), pytest.approx(1.375))


def test_half_wavelength_array_spacing():
    car = CarrierConfig(140e9)
    arr = half_wavelength_array(256, car)
    assert arr.num_elements == 256
    assert arr.spacing == pytest.approx(car.wavelength / 2, rel=1e-15)
    assert arr.length == pytest.approx(255 * car.wavelength / 2, rel=1e-12)


def test_shadow_bounds_hand_example():
    # Corner rays from a source at +0.05 past a wall [1.5, 2.0] x [0, 0.1],
    # receiver plane at 3.0: each bound follows from similar triangles.
    blk = BlockageGeometry(1.5, 0.5, 0.1, 0.0)
    b1, b2, b3, b4 = shadow_bounds(0.05, blk, 3.0)
    assert b1 == pytest.approx(0.15)
    assert b2 == pytest.approx(0.125)
    assert b3 == pytest.approx(-0.05)
    assert b4 == pytest.approx(-0.025)
    lo, hi = blocked_interval(0.05, blk, 3.0)
    assert (lo, hi) == (pytest.approx(-0.05), pytest.approx(0.15))


def test_shadow_bounds_source_on_axis():
    blk = BlockageGeometry(1.0, 1.0, 0.2, 0.2)
    b1, b2, b3, b4 = shadow_bounds(0.0, blk, 4.0)
    # top edge via near face: 0.2 * 4/1; via far face: 0.2 * 4/2
    assert b1 == pytest.approx(0.8)
    assert b2 == pytest.approx(0.4)
    assert b3 == pytest.approx(-0.8)
    assert b4 == pytest.approx(-0.4)


def _segment_hits_wall(ty, ry, blk: BlockageGeometry, d_link: float) -> bool:
    """Independent oracle: does the straight Tx->Rx segment cross the wall?"""
    y_near = ty + (ry - ty) * blk.near_x / d_link
    y_far = ty + (ry - ty) * blk.far_x / d_link
    seg_lo, seg_hi = min(y_near, y_far), max(y_near, y_far)
    return seg_hi >= blk.bottom_y and seg_lo <= blk.top_y


def test_blocked_pairs_matches_segment_oracle():
    rng = np.random.default_rng(42)
    car = CarrierConfig(140e9)
    for _ in range(20):
        d_link = float(rng.uniform(1.0, 5.0))
        near = float(rng.uniform(0.2, d_link - 0.2))
        width = float(rng.uniform(0.01, max(0.02, d_link - near - 0.1)))
        width = min(width, d_link - near - 0.05)
        top = float(rng.uniform(-0.05, 0.15))
        bot = float(rng.uniform(max(0.0, -top) + 0.01, 0.25))
        blk = BlockageGeometry(near, width, top, bot)
        sc = ScenarioConfig(half_wavelength_array(16, car),
                            half_wavelength_array(16, car), car, d_link,
                            blockage=blk)
        mask = blocked_pairs(sc)
        tx_y = element_positions(sc.tx)
        rx_y = element_positions(sc.rx)
        for i, ry in enumerate(rx_y):
            for j, ty in enumerate(tx_y):
                lo, hi = blocked_interval(ty, blk, d_link)
                # skip knife-edge cases where float round-off decides
                if min(abs(ry - lo), abs(ry - hi)) < 1e-9:
                    continue
                assert mask[i, j] == _segment_hits_wall(ty, ry, blk, d_link)


def test_blocked_pairs_no_blockage_all_clear():
    car = CarrierConfig(140e9)
    sc = ScenarioConfig(half_wavelength_array(8, car),
                        half_wavelength_array(8, car), car, 2.0)
    assert not blocked_pairs(sc).any()


def test_scenario_validation():
    car = CarrierConfig(140e9)
    arr = half_wavelength_array(8, car)
    with pytest.raises(ValueError):
        ScenarioConfig(arr, arr, car, 0.0)
    # blockage must fit strictly inside the link
    with pytest.raises(ValueError):
        ScenarioConfig(arr, arr, car, 1.0, blockage=BlockageGeometry(0.8, 0.3, 0.1, 0.1))
    with pytest.raises(ValueError):
        BlockageGeometry(-0.5, 0.1, 0.1, 0.1)


@pytest.mark.parametrize("build, field", [
    (lambda: ArrayConfig(2.5, 1e-3), "num_elements"),
    (lambda: ArrayConfig(True, 1e-3), "num_elements"),
    (lambda: ArrayConfig(0, 1e-3), "num_elements"),
    (lambda: ArrayConfig(8, math.inf), "spacing"),
    (lambda: ArrayConfig(8, math.nan), "spacing"),
    (lambda: ArrayConfig(8, 1e-3, -math.inf), "center_offset"),
    (lambda: CarrierConfig(math.inf), "frequency"),
    (lambda: ScenarioConfig(ArrayConfig(8, 1e-3), ArrayConfig(8, 1e-3),
                            CarrierConfig(140e9), math.inf), "link_distance"),
    (lambda: BlockageGeometry(1.0, 0.1, math.inf, 0.1), "extent_above"),
    (lambda: BlockageGeometry(1.0, 0.1, 0.1, math.nan), "extent_below"),
    (lambda: VirtualArrayConfig(8.0, 64, 0.01), "count"),
    (lambda: VirtualArrayConfig(8, False, 0.01), "elements_per_array"),
    pytest.param(lambda: VirtualArrayConfig(4, 1, 0.005), "elements_per_array",
                 id="one-sample-window"),
    (lambda: VirtualArrayConfig(8, 64, math.inf), "plane_spacing"),
])
def test_config_rejects_bad_counts_and_non_finite_values(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_longest_hop_phase_stays_inside_the_phasor_range():
    # k*r of every hop must stay below numerics.CIS_LIMIT: about 629 m at 1 THz
    car = CarrierConfig(1e12)
    arr = half_wavelength_array(16, car)
    inside = CIS_LIMIT / car.wavenumber * (1 - 1e-9)
    ScenarioConfig(arr, arr, car, inside)
    named = r"^scenario\.frequency_hz, scenario\.link_distance_m: the longest hop"
    with pytest.raises(ValueError, match=named):
        ScenarioConfig(arr, arr, car, inside * (1 + 2e-9))
    # the virtual grid's width counts: 400 samples span 60 mm across the link
    blk = BlockageGeometry(300.0, 0.1, 0.001, 0.001)
    ScenarioConfig(arr, arr, car, inside, blk, VirtualArrayConfig(2, 40, 0.1))
    with pytest.raises(ValueError, match=named):
        ScenarioConfig(arr, arr, car, inside, blk, VirtualArrayConfig(2, 400, 0.1))


def test_config_accepts_numpy_integer_counts():
    arr = ArrayConfig(np.int64(8), 1e-3)
    assert element_positions(arr).size == 8
    assert VirtualArrayConfig(np.int32(2), np.int64(16), 0.01).count == 2


def test_virtual_defaults_span_blockage():
    car = CarrierConfig(140e9)
    arr = half_wavelength_array(32, car)
    blk = BlockageGeometry(1.0, 0.35, 0.05, 0.05)
    sc = ScenarioConfig(arr, arr, car, 3.0, blockage=blk).with_virtual_defaults(8)
    v = sc.virtual_arrays
    assert v.count == 8
    xs = virtual_plane_positions(sc)
    assert xs[0] == pytest.approx(blk.near_x)
    assert xs[-1] == pytest.approx(blk.far_x)
    assert np.allclose(np.diff(xs), v.plane_spacing)
    # virtual aperture at least twice the physical span
    assert v.elements_per_array * arr.spacing >= 2 * arr.length


def test_without_blockage_strips_wall():
    car = CarrierConfig(140e9)
    arr = half_wavelength_array(8, car)
    blk = BlockageGeometry(1.0, 0.2, 0.05, 0.05)
    sc = ScenarioConfig(arr, arr, car, 3.0, blockage=blk)
    assert sc.without_blockage().blockage is None
    assert sc.without_blockage().link_distance == sc.link_distance
