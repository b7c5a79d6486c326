"""Blockage-aware channel models and calibration.

Three models of the same partially blocked link:

* ray model (``gcm_channel``): straight-line propagation; a blocked
  element pair contributes exactly zero.
* wave model (``wcm_channel``): scalar diffraction via iterated
  Rayleigh-Sommerfeld hops through masked sampling planes inside the
  blockage region.
* cascaded model (``cgwcm_channel``): the wave model's plane cascade with
  each hop replaced by a free-space ray-model matrix, calibrated against
  the ray model's unblocked reference.

Both cascades share `_cascade` and differ only in the kernel: an exponential
per distinct offset for the cascaded model, the Hankel function H1^(2)(kr)
for the wave model (`_hankel2_1`: its large-argument expansion from kr = 25
on, scipy below). The two models take about the same time.

Every hop, in the cascades, the direct Tx-to-Rx links and the field maps,
goes through one operator, `_hop`: rows @ K with K[i, j] = kernel(r)
between two sample grids. Between grids of one pitch (the virtual planes
and the arrays) K is Toeplitz, so the kernel is evaluated at the m+n-1
index offsets only and applied by FFT (`_toeplitz_apply`), with no [m, n]
matrix formed; field-map columns of another pitch are evaluated pairwise.

Field maps (``field_on_grid``) hop through the gated virtual planes of the
wave model's cascade (`_planes`): channel matrices and field maps share one
plane chain.

Phase convention: all models use exp(-j*k*r) for a path of length r, and
the diffraction kernel is the matching conjugate Rayleigh-Sommerfeld form
(x/(2*pi*r^2)) * exp(-j*k*r) * (1/r + j*k), so beams synthesized with
exp(+j*phi) aperture phases focus under every model.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .scenario import (
    SPEED_OF_LIGHT,
    BlockageGeometry,
    CarrierConfig,
    ScenarioConfig,
    blocked_pairs,
    element_positions,
    virtual_grid,
    virtual_plane_positions,
)


class ChannelModel(enum.Enum):
    GCM = "gcm"
    WCM = "wcm"
    CGWCM = "cgwcm"
    SYNTHETIC = "synthetic"
    COMPOSITE = "composite"


@dataclass(frozen=True)
class ChannelMatrix:
    entries: np.ndarray  # [N_r, N_t]
    model: ChannelModel
    calibrated: bool = False

    @property
    def frobenius(self) -> float:
        return float(np.linalg.norm(self.entries))


@dataclass(frozen=True)
class CalibrationParams:
    amplitude: float
    phase: float

    def __post_init__(self):
        if not (self.amplitude > 0):
            raise ValueError("calibration amplitude must be > 0")

    @property
    def scalar(self) -> complex:
        return self.amplitude * np.exp(1j * self.phase)


def _plane_mask(y: np.ndarray, blockage: BlockageGeometry) -> np.ndarray:
    """1 outside the blockage's vertical extent, 0 inside."""
    inside = (y >= blockage.bottom_y) & (y <= blockage.top_y)
    return np.where(inside, 0.0, 1.0)


def _pairwise_r(src_y: np.ndarray, dst_y: np.ndarray, dx: float) -> np.ndarray:
    return np.sqrt(dx * dx + (dst_y[:, None] - src_y[None, :]) ** 2)


def _shares_pitch(src_y: np.ndarray, dst_y: np.ndarray) -> bool:
    """True when both grids are uniform with one signed pitch.

    Every sample must sit within 1e-12 of the pitch of the line through
    its grid's first sample, so an offset read off the first row or
    column differs from the pairwise one by rounding only.
    """
    if src_y.size < 2 or dst_y.size < 2:
        return False
    pitch = (src_y[-1] - src_y[0]) / (src_y.size - 1)
    tol = 1e-12 * abs(pitch)
    return all(np.max(np.abs(y - y[0] - pitch * np.arange(y.size))) <= tol
               for y in (src_y, dst_y))


def _offset_r(src_y: np.ndarray, dst_y: np.ndarray, dx: float) -> np.ndarray:
    """The m+n-1 distances of a hop between grids of a shared pitch.

    Entry m-1-i+j is the distance from src j to dst i (m = dst_y.size): the
    first column reversed, then the first row after its first entry.
    """
    col = np.sqrt(dx * dx + (dst_y - src_y[0]) ** 2)      # offsets i - 0
    row = np.sqrt(dx * dx + (dst_y[0] - src_y[1:]) ** 2)  # offsets 0 - j, j >= 1
    return np.concatenate([col[::-1], row])


def _toeplitz_apply(acc: np.ndarray, values: np.ndarray) -> np.ndarray:
    """acc @ T for the Toeplitz T[i, j] = values[m-1-i+j], by FFT.

    acc is [rows, m] and values holds the kernel at the m+n-1 distances of
    `_offset_r`, so the result is [rows, n]. Column j is the linear
    convolution of each row with values, read at m-1+j. values is rotated
    so that index lands at 0, and the transform length L >= m+n-1 (a power
    of two) keeps every term from wrapping: one FFT of the rows, one
    multiply, one inverse FFT, then the first n columns. O(rows·L log L)
    instead of O(rows·m·n), and no [m, n] matrix is formed.
    """
    m = acc.shape[-1]
    n = values.size - m + 1
    size = 1 << (values.size - 1).bit_length()
    rotated = np.zeros(size, dtype=complex)
    rotated[:n] = values[m - 1:]
    rotated[size - m + 1:] = values[:m - 1]
    out = np.fft.ifft(np.fft.fft(acc, size) * np.fft.fft(rotated))
    return out[..., :n]


def _hop(rows: np.ndarray, a_y: np.ndarray, b_y: np.ndarray, dx: float,
         kernel) -> np.ndarray:
    """rows @ K for the hop K[i, j] = kernel(r) from a_y[i] to b_y[j].

    rows is [R, a_y.size] and the result [R, b_y.size]. The kernel depends
    on r only, so one call pushes fields forward from a to b (field maps)
    and pulls a product back from b to a (the cascades, from the Rx side).
    Between grids of a shared pitch K is Toeplitz: the kernel is evaluated
    at the m+n-1 distances of `_offset_r` and applied by FFT
    (`_toeplitz_apply`). Any other grid pair is evaluated pairwise, one
    kernel value per entry, and multiplied densely.
    """
    if _shares_pitch(b_y, a_y):
        return _toeplitz_apply(rows, kernel(_offset_r(b_y, a_y, dx)))
    return rows @ kernel(_pairwise_r(b_y, a_y, dx))


# H1^(2)(z) is evaluated by its large-argument expansion from here on.
_HANKEL_ASYMPTOTIC_FROM = 25.0


def _asymptotic_series(terms: int) -> tuple:
    """Coefficients of P and Q in powers of 1/z^2 for H1^(2).

    DLMF 10.17.1 and 10.17.6 with nu = 1: the series sum_k (-j)^k a_k / z^k
    splits into P - jQ, P = sum_m (-1)^m a_2m / z^2m and
    Q = sum_m (-1)^m a_2m+1 / z^(2m+1), where
    a_k = prod_{i<=k} (4 - (2i-1)^2) / (k! 8^k). Each coefficient is one
    correctly rounded division of exact integers.
    """
    signed, num, den = [], 1, 1
    for k in range(terms):
        if k:
            num *= 4 - (2 * k - 1) ** 2
            den *= 8 * k
        signed.append(num / den if k % 4 < 2 else -num / den)
    return tuple(signed[0::2]), tuple(signed[1::2])


# 19 terms: the first one left out is below 2e-17 of the sum at z = 25.
_HANKEL_P, _HANKEL_Q = _asymptotic_series(19)


def _horner(coefficients, t: np.ndarray) -> np.ndarray:
    acc = np.full_like(t, coefficients[-1])
    for c in coefficients[-2::-1]:
        acc *= t
        acc += c
    return acc


def _hankel2_1(z: np.ndarray, scale=1.0) -> np.ndarray:
    """scale * H1^(2)(z) for real z > 0, as one new complex array.

    From z = 25 on this is the large-argument expansion
    sqrt(2/(pi z)) e^{-jz} e^{j3pi/4} (P - jQ) (`_asymptotic_series`).
    e^{-jz} comes from cos z and sin z of z itself and the e^{j3pi/4} turn
    is applied afterwards, because forming z - 3pi/4 would round the phase
    by up to ulp(z)/2. Entries below 25 come from scipy.special.hankel2.
    `scale` is a scalar or an array of z's shape, folded into the result.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape, dtype=complex)
    # every entry takes the expansion (entries below 25 at z = 25, replaced
    # afterwards), so the common all-large case needs no index arrays
    zc = np.maximum(z, _HANKEL_ASYMPTOTIC_FROM)
    cos, sin = np.cos(zc), np.sin(zc)
    inv = np.divide(1.0, zc, out=zc)
    t = inv * inv
    p = _horner(_HANKEL_P, t)
    q = _horner(_HANKEL_Q, t)
    q *= inv
    # e^{-jz} (P - jQ) = u - jv with u = cos P - sin Q, v = sin P + cos Q
    u = np.multiply(cos, p, out=t)
    cos *= q
    q *= sin
    u -= q
    v = np.multiply(sin, p, out=sin)
    v += cos
    # times e^{j3pi/4} = (-1 + j)/sqrt(2), with sqrt(2/(pi z)) / sqrt(2) as amp:
    # real (v - u) amp, imaginary (u + v) amp
    amp = np.sqrt(np.multiply(inv, 1.0 / math.pi, out=inv), out=inv)
    amp *= scale
    u *= amp
    v *= amp
    np.subtract(v, u, out=out.real)
    np.add(u, v, out=out.imag)
    small = z < _HANKEL_ASYMPTOTIC_FROM
    if small.any():
        out[small] = special.hankel2(1, z[small]) * np.broadcast_to(scale, z.shape)[small]
    return out


def _gcm_kernel(carrier: CarrierConfig):
    """Free-space ray-model gain and phase as a function of distance r."""
    def kernel(r):
        amp = SPEED_OF_LIGHT / (4 * math.pi * carrier.frequency * r)
        return amp * np.exp(-1j * carrier.wavenumber * r)

    return kernel


def _rs_kernel(carrier: CarrierConfig, dx: float, weight: float):
    """Rayleigh-Sommerfeld kernel of a hop of length dx, as a function of r.

    Apertures here are 1-D cuts, so the propagation kernel is the exact
    line-aperture (cylindrical-wave) first-kind kernel
    (j*k*dx / 2r) * H1^(2)(kr), times the Riemann weight of the source
    samples; its large-kr limit is the familiar point-source kernel times
    sqrt(lambda*r) e^{j pi/4}. Using the 3-D point-source kernel directly
    would over-weight short hops and make iterated plane-to-plane cascades
    diverge. The Hankel values come from `_hankel2_1`: its large-argument
    expansion from kr = 25 on, scipy below.
    """
    k = carrier.wavenumber

    def kernel(r):
        values = _hankel2_1(k * r, (0.5 * k * dx * weight) / r)
        values *= -1j
        return values

    return kernel


def _direct_hop(scenario: ScenarioConfig, kernel) -> np.ndarray:
    """The [N_r, N_t] single hop from the Tx aperture to the Rx aperture."""
    rx_y = element_positions(scenario.rx)
    return _hop(np.eye(rx_y.size), rx_y, element_positions(scenario.tx),
                scenario.link_distance, kernel)


def gcm_channel(scenario: ScenarioConfig, use_blockage: bool = True) -> ChannelMatrix:
    """Ray-model channel: exact-distance gain/phase, zeros at blocked pairs."""
    h = _direct_hop(scenario, _gcm_kernel(scenario.carrier))
    if use_blockage and scenario.blockage is not None:
        h = np.where(blocked_pairs(scenario), 0.0, h)
    return ChannelMatrix(h, ChannelModel.GCM)


def _edge_taper(y: np.ndarray, fraction: float = 0.25) -> np.ndarray:
    """Raised-cosine absorber over the outer edges of a virtual window.

    The virtual planes truncate an open transverse domain; a hard edge
    diffracts energy back into the window and iterated hops amplify the
    artifact into first-order errors. Absorbing the outer quarter keeps
    the all-ones-mask cascade consistent with a direct single hop.
    """
    half = float(np.max(np.abs(y)))
    edge = np.clip((half - np.abs(y)) / (fraction * half), 0.0, 1.0)
    return np.sin(0.5 * math.pi * edge) ** 2


def _pitch(y: np.ndarray) -> float:
    """Riemann weight of a hop from samples y: their mean pitch, 1 for a point."""
    return float(np.mean(np.diff(y))) if y.size > 1 else 1.0


def _planes(scenario: ScenarioConfig, use_blockage: bool) -> tuple:
    """(grid, x positions, gate) of the virtual planes.

    Every plane samples the same transverse grid. A field is multiplied by
    the gate on arrival at each plane: the blockage mask (all ones when
    use_blockage=False) times the absorbing edge taper.
    """
    scen = scenario.with_virtual_defaults()
    vy = virtual_grid(scen)
    taper = _edge_taper(vy)
    if not taper.any():
        raise ValueError(f"scenario.tx_elements, scenario.rx_elements: {vy.size} virtual "
                         "samples all lie in the absorbing edge, so no field crosses "
                         "the blockage; use more elements on one side")
    mask = _plane_mask(vy, scen.blockage) if use_blockage else np.ones_like(vy)
    return vy, virtual_plane_positions(scen), mask * taper


def _cascade(scenario: ScenarioConfig, kernel, use_blockage: bool) -> np.ndarray:
    """Shared plane-cascade structure for the wave and cascaded models.

    kernel(dx, weight) -> the hop's kernel as a function of r; the Tx hop
    has unit weight, every other hop the plane pitch. One loop pulls the
    product back from the Rx side, so every product keeps N_r rows: it
    starts at the identity and makes every hop (Rx, plane to plane, Tx)
    through `_hop`, gated by `_planes` on arrival at each plane.
    """
    vy, plane_xs, gate = _planes(scenario, use_blockage)
    vspace = _pitch(vy)
    src_y, src_x = element_positions(scenario.rx), scenario.link_distance
    acc = np.eye(src_y.size)
    for x in plane_xs[::-1]:
        dx = src_x - x
        acc = _hop(acc, src_y, vy, dx, kernel(dx, vspace)) * gate
        src_y, src_x = vy, x
    return _hop(acc, vy, element_positions(scenario.tx), src_x, kernel(src_x, 1.0))


def field_on_grid(scenario: ScenarioConfig, aperture_y, values, xs, ys) -> np.ndarray:
    """Field [len(ys), len(xs)] of a sampled aperture at x = 0 on the grid xs × ys.

    The sources are the aperture and, with a blockage, the gated planes of
    `_planes`, chained once. Each column hops from the nearest source
    strictly upstream (a column on a plane from the source before it), so
    columns accumulate no error from one another, and is zero inside the
    screen. Every hop weighs its source samples by `_pitch`.
    """
    def push(source, x, y):
        sx, sy, sv, sw = source
        return _hop(sv, sy, y, x - sx, _rs_kernel(scenario.carrier, x - sx, sw))

    y0 = np.asarray(aperture_y, dtype=float)
    sources = [(0.0, y0, np.asarray(values, dtype=complex)[None], _pitch(y0))]
    blk = scenario.blockage
    if blk is not None:
        vy, plane_xs, gate = _planes(scenario, use_blockage=True)
        for px in plane_xs:
            sources.append((px, vy, push(sources[-1], px, vy) * gate, _pitch(vy)))
        screen = _plane_mask(ys, blk)
    source_xs = np.array([x for x, *_ in sources])
    field = np.empty((ys.size, xs.size), dtype=complex)
    for i, xc in enumerate(xs):
        s = int(np.searchsorted(source_xs, xc, side="right")) - 1
        if s > 0 and math.isclose(xc, source_xs[s], rel_tol=1e-12, abs_tol=1e-15):
            s -= 1
        field[:, i] = push(sources[s], xc, ys)[0]
        if blk is not None and blk.near_x - 1e-15 <= xc <= blk.far_x + 1e-15:
            field[:, i] *= screen
    return field


def wcm_channel(scenario: ScenarioConfig, use_blockage: bool = True) -> ChannelMatrix:
    """Wave-model channel via masked Rayleigh-Sommerfeld plane cascade.

    Without a blockage region the exact answer is a single diffraction hop
    from the Tx aperture to the Rx aperture, and that is what is computed.
    """
    carrier = scenario.carrier
    if scenario.blockage is None:
        h = _direct_hop(scenario, _rs_kernel(carrier, scenario.link_distance, 1.0))
        return ChannelMatrix(h, ChannelModel.WCM)

    h = _cascade(scenario, lambda dx, w: _rs_kernel(carrier, dx, w), use_blockage)
    return ChannelMatrix(h, ChannelModel.WCM)


def cgwcm_channel(scenario: ScenarioConfig, use_blockage: bool = True) -> ChannelMatrix:
    """Cascaded model: ray-model hops between the masked virtual planes."""
    if scenario.blockage is None:
        raise ValueError("scenario.blockage: the cascaded model places its "
                         "virtual planes at the blockage, and there is none")
    ray = _gcm_kernel(scenario.carrier)
    h = _cascade(scenario, lambda dx, w: ray, use_blockage)
    return ChannelMatrix(h, ChannelModel.CGWCM)


def calibrate(model_los: ChannelMatrix, gcm_los: ChannelMatrix) -> CalibrationParams:
    """Amplitude/phase correction aligning a model's unblocked channel to the ray model.

    amplitude equalizes Frobenius norms; phase is the mean principal-value
    argument of the per-entry ratio (computed about the circular mean so a
    cluster straddling +-pi does not wrap), with zero entries excluded.
    """
    g = gcm_los.entries
    x = model_los.entries
    x_norm = np.linalg.norm(x)
    if x_norm == 0:
        raise ValueError("cannot calibrate an all-zero channel")
    amplitude = float(np.linalg.norm(g) / x_norm)
    valid = (np.abs(g) > 0) & (np.abs(x) > 0)
    if not valid.any():
        raise ValueError("no overlapping nonzero entries to estimate phase from")
    angles = np.angle(g[valid] / x[valid])
    anchor_vec = np.exp(1j * angles).mean()
    anchor = float(np.angle(anchor_vec)) if np.abs(anchor_vec) > 0 else 0.0
    centered = np.angle(np.exp(1j * (angles - anchor)))
    phase = anchor + float(np.mean(centered))
    phase = float(np.angle(np.exp(1j * phase)))  # principal value
    return CalibrationParams(amplitude, phase)


def apply_calibration(channel: ChannelMatrix, params: CalibrationParams) -> ChannelMatrix:
    if channel.calibrated:
        raise ValueError("channel is already calibrated")
    return ChannelMatrix(channel.entries * params.scalar, channel.model, calibrated=True)


@dataclass(frozen=True)
class MultipathRay:
    """One synthetic reflected path.

    gain_db: per-entry magnitude relative to the boresight unblocked
    ray-model gain (must be <= 0). Angles are radians at the respective
    array; excess_delay (seconds) lengthens the path beyond the direct one.
    """

    gain_db: float
    departure_angle: float
    arrival_angle: float
    excess_delay: float

    def __post_init__(self):
        if self.gain_db > 0:
            raise ValueError("ray gain must be <= 0 dB relative to the direct path")
        if self.excess_delay < 0:
            raise ValueError("excess_delay must be >= 0")


def _spherical_response(y_elems: np.ndarray, scatter_xy: tuple,
                        carrier: CarrierConfig) -> np.ndarray:
    sx, sy = scatter_xy
    r = np.hypot(sx, sy - y_elems)
    return np.exp(-1j * carrier.wavenumber * r)


def nlos_component(scenario: ScenarioConfig, rays) -> ChannelMatrix:
    """Sum of rank-one outer products, one per synthetic reflected path.

    Each side sees a virtual scatter point at half the total path length,
    so near-field curvature of the responses is preserved; the total phase
    across the path equals the exact propagation phase of that length.
    """
    tx_y = element_positions(scenario.tx)
    rx_y = element_positions(scenario.rx)
    carrier = scenario.carrier
    d = scenario.link_distance
    ref_gain = SPEED_OF_LIGHT / (4 * math.pi * carrier.frequency * d)
    h = np.zeros((rx_y.size, tx_y.size), dtype=complex)
    for ray in rays:
        rho = (d + SPEED_OF_LIGHT * ray.excess_delay) / 2
        tx_scatter = (rho * math.cos(ray.departure_angle),
                      scenario.tx.center_offset + rho * math.sin(ray.departure_angle))
        rx_scatter = (rho * math.cos(ray.arrival_angle),
                      scenario.rx.center_offset + rho * math.sin(ray.arrival_angle))
        a_t = _spherical_response(tx_y, tx_scatter, carrier)
        a_r = _spherical_response(rx_y, rx_scatter, carrier)
        gain = ref_gain * 10 ** (ray.gain_db / 20)
        h += gain * np.outer(a_r, a_t)
    return ChannelMatrix(h, ChannelModel.SYNTHETIC)


def k_factor_db(los: ChannelMatrix, nlos: ChannelMatrix) -> float:
    """Direct-to-scattered Frobenius power ratio in dB."""
    p_nlos = np.linalg.norm(nlos.entries) ** 2
    if p_nlos == 0:
        return math.inf
    return float(10 * np.log10(np.linalg.norm(los.entries) ** 2 / p_nlos))


def channel_error(candidate: ChannelMatrix, reference: ChannelMatrix) -> float:
    """Relative Frobenius error of candidate against reference."""
    ref_norm = np.linalg.norm(reference.entries)
    if ref_norm == 0:
        raise ValueError("reference channel is all zero")
    return float(np.linalg.norm(candidate.entries - reference.entries) / ref_norm)
