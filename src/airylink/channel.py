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

Both cascades and the field maps (``field_on_grid``) cross one plane
chain, `_chain`: the gated virtual planes of `_planes` and one inner
(plane-to-plane) operator per distinct hop length. The cascades pull a
product back through it from the Rx side; field maps push the aperture's
field forward. The cascades differ only in the kernel: an exponential per
distinct offset for the cascaded model, the Hankel function H1^(2)(kr) for
the wave model (`_hankel2_1`). One table serves both the codewords'
`numerics.cis` phasor and the Hankel phase e^{j3pi/4} e^{-jkr}, whose
3pi/4 turn is an exact shift of the table index.

Every hop goes through one operator, `_hop_operator`: rows @ K with
K[i, j] = kernel(r) between two sample grids. Between grids of one pitch
(the virtual planes and the arrays) K is Toeplitz, so the kernel is
evaluated at the m+n-1 index offsets only and applied by FFT
(`_toeplitz_apply`), with no [m, n] matrix formed. Field-map columns of
another pitch are evaluated pairwise (`_pairwise_hop`), once per mirror
pair, from one plan per source (`_pairwise_plan`) and in buffers shared
across the render.

Phase convention: all models use exp(-j*k*r) for a path of length r, and
the diffraction kernel is the matching conjugate Rayleigh-Sommerfeld form
(x/(2*pi*r^2)) * exp(-j*k*r) * (1/r + j*k), so beams synthesized with
exp(+j*phi) aperture phases focus under every model.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .numerics import _cis_parts
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


def _toeplitz_spectrum(values: np.ndarray, m: int) -> np.ndarray:
    """The spectrum `_toeplitz_apply` multiplies [rows, m] products by.

    values holds the kernel at the m+n-1 distances of `_offset_r`, for the
    Toeplitz T[i, j] = values[m-1-i+j]. Column j of acc @ T is the linear
    convolution of each row with values, read at m-1+j. values is rotated
    so that index lands at 0, and the transform length L >= m+n-1 (a power
    of two) keeps every term from wrapping. This is the FFT of the rotated
    values, of length L.
    """
    n = values.size - m + 1
    size = 1 << (values.size - 1).bit_length()
    rotated = np.zeros(size, dtype=complex)
    rotated[:n] = values[m - 1:]
    rotated[size - m + 1:] = values[:m - 1]
    return np.fft.fft(rotated)


def _toeplitz_apply(acc: np.ndarray, spectrum: np.ndarray, n: int) -> np.ndarray:
    """acc @ T for the [m, n] Toeplitz T of `_toeplitz_spectrum`, by FFT.

    One FFT of the rows, one multiply, one inverse FFT, then the first n
    columns: O(rows·L log L) instead of O(rows·m·n), and no [m, n] matrix
    is formed.
    """
    return np.fft.ifft(np.fft.fft(acc, spectrum.size) * spectrum)[..., :n]


def _hop_operator(a_y: np.ndarray, b_y: np.ndarray, dx: float, kernel):
    """The hop K[i, j] = kernel(r) from a_y[i] to b_y[j], as rows -> rows @ K.

    rows is [R, a_y.size] and the result [R, b_y.size]. The kernel depends
    on r only, so one operator pushes fields forward from a to b (field
    maps) and pulls a product back from b to a (the cascades, from the Rx
    side). Between grids of a shared pitch K is Toeplitz: the kernel is
    evaluated at the m+n-1 distances of `_offset_r` and its spectrum taken
    once, when the operator is built; each application is then one FFT
    product (`_toeplitz_apply`). Any other grid pair is evaluated pairwise
    at each application and multiplied densely; a source sample whose
    column of rows is all zero (a gated plane's masked and tapered-off
    samples) adds nothing, so its kernel row is not evaluated. Of the
    [m, n] distances left, an entry in the bottom m//2 rows that equals
    its mirror entry (m-1-i, n-1-j) bit for bit takes the mirror's kernel
    value (`_pairwise_hop`), so K is the entrywise kernel bit for bit.
    """
    if _shares_pitch(b_y, a_y):
        spectrum = _toeplitz_spectrum(kernel(_offset_r(b_y, a_y, dx)), a_y.size)
        return lambda rows: _toeplitz_apply(rows, spectrum, b_y.size)

    return lambda rows: _pairwise_hop(*_pairwise_plan(rows, a_y, b_y), dx, kernel)


def _pairwise_plan(rows: np.ndarray, a_y: np.ndarray, b_y: np.ndarray) -> tuple:
    """(kept rows, squared offsets [m, n]) of a pairwise hop from a_y to b_y,
    dropping sources whose column of rows is all zero: both hold for any dx."""
    keep = rows.any(axis=0)
    return rows[:, keep], (a_y[keep][:, None] - b_y[None, :]) ** 2


def _pairwise_buffers(size: int) -> tuple:
    """`_pairwise_hop`'s buffers for hops of up to `size` entries: distances
    (an even count, so they can be read as size // 2 complex values), K and
    the mirror test."""
    return np.empty(size + size % 2), np.empty(size, dtype=complex), np.empty(size, dtype=bool)


def _pairwise_hop(rows: np.ndarray, sq: np.ndarray, dx: float, kernel,
                  buffers: tuple | None = None) -> np.ndarray:
    """rows @ K, K[i, j] = kernel(sqrt(dx^2 + sq[i, j])), one evaluation per mirror pair.

    Entry (i, j) of a hop between two grids symmetric about the axis has
    the distance of entry (m-1-i, n-1-j), often bit for bit even where the
    grids are mirror images only to rounding. The top m - m//2 rows are
    evaluated, with each bottom entry whose distance differs from its
    mirror's, in one kernel call; every other bottom entry copies its
    mirror's value. A kernel whose values depend on their own r only (as
    `_hankel2_1`'s do) gives the entrywise kernel(r) bit for bit. Grids
    without such entries (an offset array, an asymmetric window, a gated
    plane) evaluate every entry through the same test. Distances and K are
    formed in `buffers` when given: the kernel writes its values into K
    (kernel(r, out)), the top rows' in place and the lone bottom entries'
    after them, and those few move to the distances' buffer, whose
    distances have been read, before the mirror copy fills the bottom rows.
    """
    m, n = sq.shape
    h = m // 2
    r_buf, k_buf, lone_buf = buffers or _pairwise_buffers(sq.size)
    r = np.add(sq, dx * dx, out=r_buf[:sq.size].reshape(m, n))
    np.sqrt(r, out=r)
    top, bottom = r[:m - h], r[m - h:]
    lone = np.not_equal(bottom, top[:h][::-1, ::-1], out=lone_buf[:h * n].reshape(h, n))
    # the distances evaluated: the top rows, then each lone bottom entry's,
    # formed again from sq over the bottom rows, which are no longer needed
    dist = r_buf[:top.size + np.count_nonzero(lone)]
    lone_r = np.compress(lone.reshape(-1), sq[m - h:].reshape(-1), out=dist[top.size:])
    np.sqrt(np.add(lone_r, dx * dx, out=lone_r), out=lone_r)
    k = k_buf[:sq.size].reshape(m, n)
    values = kernel(dist, out=k_buf[:dist.size])
    lone_values = r_buf.view(complex)[:lone_r.size]
    lone_values[...] = values[top.size:]
    k[m - h:] = k[:h][::-1, ::-1]
    k[m - h:][lone] = lone_values
    return rows @ k


def _hop(rows: np.ndarray, a_y: np.ndarray, b_y: np.ndarray, dx: float,
         kernel) -> np.ndarray:
    """rows @ K for the hop of `_hop_operator`, applied once."""
    return _hop_operator(a_y, b_y, dx, kernel)(rows)


# H1^(2)(z) is evaluated by its large-argument expansion from here on, by
# Hankel's integral from _HANKEL_SERIES_BELOW, and by the power series of J1
# and Y1 below that.
_HANKEL_ASYMPTOTIC_FROM = 25.0
_HANKEL_SERIES_BELOW = 4.0
# Distances `_rs_kernel` evaluates per `_hankel2_1` call, as in `numerics.cis`:
# every temporary stays in cache.
_HANKEL_BLOCK = 8192


def _asymptotic_series(terms: int) -> tuple:
    """Signed coefficients of H1^(2)'s large-argument expansion in powers of 1/z.

    DLMF 10.17.1 and 10.17.6 with nu = 1: the series sum_k (-j)^k a_k / z^k
    splits into P - jQ, P = sum_m (-1)^m a_2m / z^2m and
    Q = sum_m (-1)^m a_2m+1 / z^(2m+1), where
    a_k = prod_{i<=k} (4 - (2i-1)^2) / (k! 8^k). Entry k is the coefficient
    of 1/z^k in P (k even) or Q (k odd), each one correctly rounded division
    of exact integers.
    """
    signed, num, den = [], 1, 1
    for k in range(terms):
        if k:
            num *= 4 - (2 * k - 1) ** 2
            den *= 8 * k
        signed.append(num / den if k % 4 < 2 else -num / den)
    return tuple(signed)


# At most 19 terms: at z = 25 the first one left out, the 20th coefficient
# kept here, is below 2e-17 of the sum.
_HANKEL_TERMS = 19
_HANKEL_COEFFICIENTS = _asymptotic_series(_HANKEL_TERMS + 1)


@lru_cache(maxsize=1024)
def _series_length(z_min: float) -> int:
    """Fewest terms of the expansion whose first term left out is below
    2e-17 of the sum at every z >= z_min: all 19 below z = 25.

    DLMF 10.17(iii) bounds the remainder of the nu = 1 expansion at real
    z > 0 by the first term left out, and the terms fall as z grows, so the
    length that holds at z_min holds above it.
    """
    if not z_min >= _HANKEL_ASYMPTOTIC_FROM:
        return _HANKEL_TERMS
    terms = [c / z_min ** k for k, c in enumerate(_HANKEL_COEFFICIENTS)]
    for n in range(2, _HANKEL_TERMS):
        if abs(terms[n]) < 2e-17 * math.hypot(sum(terms[:n:2]), sum(terms[1:n:2])):
            return n
    return _HANKEL_TERMS


def _horner(coefficients, t: np.ndarray) -> np.ndarray:
    if len(coefficients) == 1:
        return np.full_like(t, coefficients[0])
    acc = t * coefficients[-1]
    acc += coefficients[-2]
    for c in coefficients[-3::-1]:
        acc *= t
        acc += c
    return acc


def _hankel2_1(z: np.ndarray, scale=1.0, z_min: float = 0.0, out=None) -> np.ndarray:
    """scale * H1^(2)(z) for real z >= z_min > 0, in `out` if given, else in a
    new complex array of z's shape.

    From z = 25 on this is the large-argument expansion
    sqrt(2/(pi z)) e^{j3pi/4} e^{-jz} (P - jQ) (`_asymptotic_series`), to
    the length `_series_length(z_min)` gives: 19 terms when z_min is below
    25, 8 from z_min = 156 and 5 from 1,693. A z below z_min raises
    ValueError instead of taking a series too short for it. The phasor
    e^{j3pi/4} e^{-jz} comes from the `numerics.cis` table with z reduced
    once: with z = m*(2pi/256) + r it is T[(96 - m) mod 256] e^{-jr}, since
    3pi/4 is exactly 96 table steps, so the turn rounds nothing. Below 25,
    P - jQ comes from Hankel's integral instead (`_laplace_rule`), and
    below 4 the value from the power series of J1 and Y1
    (`_hankel2_1_series`). `scale` is a scalar or an array of z's shape,
    folded into the result. Each result depends on its own z and scale and
    on z_min only, so callers may split z into blocks (`_rs_kernel` does).
    """
    z = np.asarray(z, dtype=float)
    low = z.min(initial=math.inf)
    if low < z_min:
        raise ValueError(f"_hankel2_1: z = {low!r} is below z_min = {z_min!r}")
    if out is None:
        out = np.empty(z.shape, dtype=complex)
    terms = _series_length(z_min)
    # every entry takes the expansion's form (entries below 4 at 1/z = 1/4,
    # replaced afterwards), so the common all-large case needs no index arrays
    inv = np.divide(1.0, z)
    if low < _HANKEL_SERIES_BELOW:
        np.minimum(inv, 1 / _HANKEL_SERIES_BELOW, out=inv)
    er, ei = np.empty_like(inv), np.empty_like(inv)
    _cis_parts(z, er, ei, turn=96, sign=-1)  # e^{j3pi/4}: 96 table steps
    t = inv * inv
    p = _horner(_HANKEL_COEFFICIENTS[:terms:2], t)
    q = _horner(_HANKEL_COEFFICIENTS[1:terms:2], t)
    q *= inv
    if low < _HANKEL_ASYMPTOTIC_FROM:
        # below 25, P - jQ from Hankel's integral, of which it is the expansion
        small = z < _HANKEL_ASYMPTOTIC_FROM
        p[small], q[small] = _hankel_integral(inv[small])
    # the amplitude sqrt(2/(pi z)) * scale, folded into P and Q once
    amp = np.sqrt(np.multiply(inv, 2 / math.pi, out=inv), out=inv)
    amp *= scale
    p *= amp
    q *= amp
    # (er + j ei)(P - jQ): real er P + ei Q, imaginary ei P - er Q
    np.multiply(er, p, out=t)
    np.multiply(ei, q, out=amp)
    np.add(t, amp, out=out.real)
    p *= ei
    q *= er
    np.subtract(p, q, out=out.imag)
    if low < _HANKEL_SERIES_BELOW:
        series = z < _HANKEL_SERIES_BELOW
        out[series] = _hankel2_1_series(z[series]) * np.broadcast_to(scale, z.shape)[series]
    return out


def _laplace_rule(nodes: int) -> tuple:
    """Squared nodes and weights of a Gauss-Hermite rule for Hankel's integral.

    Hankel's integral (Watson, section 7.2; DLMF 10.9) with u = t^2 gives
    H1^(2)(z) = sqrt(2/(pi z)) e^{-j(z - 3pi/4)} (P - jQ), exactly, with
    P - jQ = (2/sqrt(pi)) int e^{-t^2} t^2 (1 - j t^2/(2z))^{1/2} dt over
    the real line; the large-argument expansion is its series in 1/z. The
    integrand is even, so the rule keeps its positive nodes tau_i = t_i^2
    with doubled weights: P - jQ = sum_i w_i sqrt(1 - j tau_i/(2z)).
    """
    t, w = np.polynomial.hermite.hermgauss(nodes)
    t, w = t[t > 0], w[t > 0]
    tau = t * t
    return tau, (4 / math.sqrt(math.pi)) * w * tau


# 40 nodes: within 1e-15 (relative) of H1^(2) from z = 4 on.
_LAPLACE_TAU, _LAPLACE_W = _laplace_rule(40)


def _hankel_integral(inv: np.ndarray) -> tuple:
    """(P, Q) of `_laplace_rule` for inv = 1/z.

    sqrt(1 - ja) = rho - j a/(2 rho) with rho = sqrt((1 + hypot(1, a))/2),
    which needs no complex square root and cancels nothing. The sums run
    along rows, so each value depends on its own z only.
    """
    a = (0.5 * inv)[:, None] * _LAPLACE_TAU
    rho = np.sqrt(0.5 + 0.5 * np.hypot(1.0, a))
    return (rho * _LAPLACE_W).sum(axis=1), (a / rho * (0.5 * _LAPLACE_W)).sum(axis=1)


def _power_series(terms: int) -> tuple:
    """Coefficients of J1 and of Y1's series part in powers of w = (z/2)^2.

    DLMF 10.8.1 and 10.2.2 with n = 1 and h = z/2: J1 = h sum_k a_k w^k and
    Y1 = (2/pi)(ln h + gamma) J1 - 1/(pi h) - (h/pi) sum_k b_k w^k, with
    a_k = (-1)^k / (k! (k+1)!) and b_k = a_k (H_k + H_{k+1}), H_k the k-th
    harmonic number (psi(k+1) + psi(k+2) = H_k + H_{k+1} - 2 gamma, and the
    gamma terms fold into J1). Each coefficient is one correctly rounded
    division of exact integers.
    """
    a, b, harmonic = [], [], Fraction(0)
    for k in range(terms):
        following = harmonic + Fraction(1, k + 1)
        ak = Fraction((-1) ** k, math.factorial(k) * math.factorial(k + 1))
        a.append(float(ak))
        b.append(float(ak * (harmonic + following)))
        harmonic = following
    return tuple(a), tuple(b)


# 17 terms: the first one left out is below 1e-18 of the sum at z = 4.
_SERIES_J, _SERIES_Y = _power_series(17)


def _hankel2_1_series(z: np.ndarray) -> np.ndarray:
    """H1^(2)(z) = J1(z) - j Y1(z) for 0 < z < 4, from `_power_series`."""
    h = 0.5 * z
    w = h * h
    j1 = h * _horner(_SERIES_J, w)
    y1 = ((2 / math.pi) * (np.log(h) + np.euler_gamma) * j1 - 1 / (math.pi * h)
          - (h / math.pi) * _horner(_SERIES_Y, w))
    return j1 - 1j * y1


def _gcm_kernel(carrier: CarrierConfig):
    """Free-space ray-model gain and phase as a function of distance r."""
    # This stays on np.exp rather than numerics.cis. The unit-weight ray
    # cascade of `cgwcm` cancels, so it amplifies any change in this
    # kernel's rounding: cis would move `gcm` by 2.7e-16 relative but
    # `cgwcm` by up to 2.5e-12 (README geometry, 512 Tx, unblocked).
    def kernel(r, out=None):
        amp = SPEED_OF_LIGHT / (4 * math.pi * carrier.frequency * r)
        return np.multiply(amp, np.exp(-1j * carrier.wavenumber * r), out=out)

    return kernel


def _rs_kernel(carrier: CarrierConfig, dx: float, weight: float):
    """Rayleigh-Sommerfeld kernel of a hop of length dx, as a function of r >= dx.

    Apertures here are 1-D cuts, so the propagation kernel is the exact
    line-aperture (cylindrical-wave) first-kind kernel
    (j*k*dx / 2r) * H1^(2)(kr), times the Riemann weight of the source
    samples; its large-kr limit is the familiar point-source kernel times
    sqrt(lambda*r) e^{j pi/4}. Using the 3-D point-source kernel directly
    would over-weight short hops and make iterated plane-to-plane cascades
    diverge. The Hankel values come from `_hankel2_1`, one `_HANKEL_BLOCK`
    of distances per call, written in place: this is the kernel's only
    block loop. No distance of the hop is below dx, so each call passes
    z_min = k*dx, less the rounding of sqrt(dx^2 + y^2), and takes the
    series length that bound allows (`_series_length`); an r below it
    raises ValueError.
    """
    k = carrier.wavenumber
    c = 0.5 * k * dx * weight
    z_min = k * dx * (1 - 1e-12)

    def kernel(r, out=None):
        values = np.empty(np.shape(r), dtype=complex) if out is None else out
        flat_r, flat = np.reshape(r, -1), values.reshape(-1)
        for start in range(0, flat.size, _HANKEL_BLOCK):
            block = flat_r[start:start + _HANKEL_BLOCK]
            _hankel2_1(k * block, c / block, z_min, flat[start:start + block.size])
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


def _chain(scenario: ScenarioConfig, use_blockage: bool, kernel) -> tuple:
    """(grid, x positions, gate, inner operators in hop order) of the plane chain.

    kernel(dx, weight) -> the hop's kernel as a function of r. The inner
    (plane-to-plane) hops share the grid of `_planes` and weigh their
    sources by its pitch, so they differ only in dx, which takes few
    distinct values (two, bitwise, for the seven hops of the README
    geometry). Each inner `_hop_operator`, with its kernel values and their
    spectrum, is built once per distinct dx (`np.diff` of the positions,
    keyed on the exact float) and listed once per hop. K depends on r only,
    so one operator pushes a field forward (field maps) and pulls a product
    back (the cascades).
    """
    vy, plane_xs, gate = _planes(scenario, use_blockage)
    steps = np.diff(plane_xs)
    built = {dx: _hop_operator(vy, vy, dx, kernel(dx, _pitch(vy)))
             for dx in dict.fromkeys(steps)}
    return vy, plane_xs, gate, [built[dx] for dx in steps]


def _cascade(scenario: ScenarioConfig, kernel, use_blockage: bool) -> np.ndarray:
    """The [N_r, N_t] plane cascade of the wave and cascaded models.

    The product is pulled back through `_chain` from the Rx side, so it
    keeps N_r rows: it starts at the identity, hops from the Rx array to
    the last plane, back through each inner operator and from the first
    plane to the Tx array, gated on arrival at each plane. The Tx hop has
    unit weight, every other hop the plane pitch.
    """
    vy, plane_xs, gate, inner = _chain(scenario, use_blockage, kernel)
    rx_y = element_positions(scenario.rx)
    dx = scenario.link_distance - plane_xs[-1]
    acc = _hop(np.eye(rx_y.size), rx_y, vy, dx, kernel(dx, _pitch(vy))) * gate
    for hop in reversed(inner):
        acc = hop(acc) * gate
    return _hop(acc, vy, element_positions(scenario.tx), plane_xs[0],
                kernel(plane_xs[0], 1.0))


def field_on_grid(scenario: ScenarioConfig, aperture_y, values, xs, ys) -> np.ndarray:
    """Field [len(ys), len(xs)] of a sampled aperture at x = 0 on the grid xs × ys.

    The sources are the aperture and, with a blockage, the gated planes of
    `_chain`, whose inner operators carry the field from plane to plane.
    Each column hops from the nearest source strictly upstream (a column on
    a plane from the source before it), so columns accumulate no error from
    one another, and is zero inside the screen. Every hop weighs its source
    samples by `_pitch`. A source is planned once for its run of columns,
    and all columns share one set of buffers.
    """
    kernel = partial(_rs_kernel, scenario.carrier)

    def push(source, x, y):
        sx, sy, sv, sw = source
        return _hop(sv, sy, y, x - sx, kernel(x - sx, sw))

    y0 = np.asarray(aperture_y, dtype=float)
    sources = [(0.0, y0, np.asarray(values, dtype=complex)[None], _pitch(y0))]
    blk = scenario.blockage
    if blk is not None:
        vy, plane_xs, gate, inner = _chain(scenario, use_blockage=True, kernel=kernel)
        fields = [push(sources[0], plane_xs[0], vy) * gate]
        for hop in inner:
            fields.append(hop(fields[-1]) * gate)
        sources += [(px, vy, sv, _pitch(vy)) for px, sv in zip(plane_xs, fields)]
        screen = _plane_mask(ys, blk)
    source_xs = np.array([x for x, *_ in sources])
    field = np.empty((ys.size, xs.size), dtype=complex)
    kept = max(np.count_nonzero(sv.any(axis=0)) for _, _, sv, _ in sources)
    buffers, planned = _pairwise_buffers(kept * ys.size), None
    for i, xc in enumerate(xs):
        s = int(np.searchsorted(source_xs, xc, side="right")) - 1
        if s > 0 and math.isclose(xc, source_xs[s], rel_tol=1e-12, abs_tol=1e-15):
            s -= 1
        sx, sy, sv, sw = sources[s]
        if s != planned:  # one plan per run of columns, held for that run only
            planned, plan = s, None
            if not _shares_pitch(ys, sy):
                plan = _pairwise_plan(sv, sy, ys)
        if plan is None:
            field[:, i] = push(sources[s], xc, ys)[0]
        else:
            field[:, i] = _pairwise_hop(*plan, xc - sx, kernel(xc - sx, sw), buffers)[0]
        if blk is not None and blk.near_x - 1e-15 <= xc <= blk.far_x + 1e-15:
            field[:, i] *= screen
    return field


def wcm_channel(scenario: ScenarioConfig, use_blockage: bool = True) -> ChannelMatrix:
    """Wave-model channel via masked Rayleigh-Sommerfeld plane cascade.

    Without a blockage region the exact answer is a single diffraction hop
    from the Tx aperture to the Rx aperture, and that is what is computed.
    """
    kernel = partial(_rs_kernel, scenario.carrier)
    if scenario.blockage is None:
        h = _direct_hop(scenario, kernel(scenario.link_distance, 1.0))
    else:
        h = _cascade(scenario, kernel, use_blockage)
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
