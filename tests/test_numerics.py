"""Special-function oracles and envelope inversion.

Expected values below were frozen from independent computations (mpmath
panel quadrature split at integrand lobe nodes, scipy.special reference
implementations) before the module under test existed.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special

from airylink.beam import curving_factors, focus_terms, focusing_phase
from airylink.codebook import build_los_region_points, solve_sampling_plan
from airylink.numerics import (
    airy_cos_integral,
    airy_cos_lobe_nodes,
    cis,
    fresnel_integrals,
    fresnel_lobe_nodes,
    invert_oscillatory_envelope,
    solve_monotone_root,
)
from airylink.scenario import CarrierConfig, ScenarioConfig, element_positions, half_wavelength_array

# Frozen reference values for the cubic-phase cosine integral
#   int_0^x cos((pi/2) t^3) dt
AIRY_COS_HALF = 0.4986254819340352
AIRY_COS_ONE = 0.8422079954274431


def _airy_cos_mpmath(x: float, dps: int = 30) -> float:
    """Panel quadrature between integrand zeros; naive quad diverges."""
    with mpmath.workdps(dps):
        nodes = [mpmath.mpf(0)]
        m = 0
        while True:
            t = mpmath.root(1 + 2 * m, 3)  # cos((pi/2)t^3)=0 at t^3 odd
            if t >= x:
                break
            nodes.append(t)
            m += 1
        nodes.append(mpmath.mpf(x))
        total = mpmath.mpf(0)
        for lo, hi in zip(nodes[:-1], nodes[1:]):
            total += mpmath.quad(lambda t: mpmath.cos(mpmath.pi / 2 * t**3), [lo, hi])
        return float(total)


def test_airy_cos_integral_frozen_values():
    assert airy_cos_integral(0.5) == pytest.approx(AIRY_COS_HALF, abs=1e-12)
    assert airy_cos_integral(1.0) == pytest.approx(AIRY_COS_ONE, abs=1e-12)
    assert airy_cos_integral(0.0) == 0.0


def test_airy_cos_integral_vs_mpmath():
    for x in (0.3, 0.5, 1.0, 1.7, 2.5, 4.0):
        assert airy_cos_integral(x) == pytest.approx(_airy_cos_mpmath(x), abs=1e-9)


def test_airy_cos_integral_rejects_bad_input():
    with pytest.raises(ValueError):
        airy_cos_integral(-0.5)
    with pytest.raises(ValueError):
        airy_cos_integral(float("nan"))


def test_airy_cos_integral_cauchy_tail():
    # partial sums over lobes stay bounded; the tail contributions shrink
    assert abs(airy_cos_integral(10.0) - airy_cos_integral(8.0)) < 0.01


def test_airy_cos_oracle_grid():
    xs = np.linspace(0.0, 12.0, 100)
    for x in xs:
        assert airy_cos_integral(float(x)) == pytest.approx(
            _airy_cos_mpmath(float(x)), abs=1e-8)


def test_airy_cos_lobe_nodes():
    nodes = airy_cos_lobe_nodes(5.0)
    assert nodes[0] > 0
    # nodes are the odd-cube-root zeros of cos((pi/2)t^3)
    for m, t in enumerate(nodes):
        assert t == pytest.approx((1 + 2 * m) ** (1.0 / 3.0), rel=1e-12)
    assert all(t <= 5.0 for t in nodes)


def test_fresnel_integrals_match_scipy_and_mpmath():
    b1, d1 = fresnel_integrals(1.0)
    s_ref, c_ref = scipy.special.fresnel(1.0)
    assert b1 == pytest.approx(float(c_ref), abs=1e-14)
    assert d1 == pytest.approx(float(s_ref), abs=1e-14)
    assert b1 == pytest.approx(0.7798934003768228, abs=1e-12)
    assert d1 == pytest.approx(0.4382591473903548, abs=1e-12)
    with mpmath.workdps(30):
        assert b1 == pytest.approx(float(mpmath.fresnelc(1.0)), abs=1e-12)
        assert d1 == pytest.approx(float(mpmath.fresnels(1.0)), abs=1e-12)


def test_fresnel_integrals_vectorized():
    x = np.linspace(0.0, 4.0, 17)
    b, d = fresnel_integrals(x)
    s_ref, c_ref = scipy.special.fresnel(x)
    np.testing.assert_allclose(b, c_ref, atol=1e-14)
    np.testing.assert_allclose(d, s_ref, atol=1e-14)


def test_fresnel_asymptote_and_bounds():
    b, d = fresnel_integrals(500.0)
    assert b == pytest.approx(0.5, abs=1e-3)
    assert d == pytest.approx(0.5, abs=1e-3)
    x = np.linspace(0.0, 12.0, 400)
    b, d = fresnel_integrals(x)
    assert np.all(b >= -0.9) and np.all(b <= 1.0)
    assert np.all(d >= -0.9) and np.all(d <= 1.0)


def test_fresnel_integrals_match_mpmath_on_both_branches():
    # Gauss-Legendre panels below x = 6, the auxiliary-function expansion
    # from there on. The worst case, 1.7e-15 near x = 33, is the rounding of
    # x^2 in the phase.
    x = np.concatenate([np.linspace(0.0, 40.0, 401), np.linspace(5.9, 6.1, 21),
                        [1e-3, np.nextafter(6.0, 0.0), np.nextafter(6.0, 7.0)]])
    b, d = fresnel_integrals(x)
    with mpmath.workdps(40):
        b_exact = np.array([float(mpmath.fresnelc(mpmath.mpf(v))) for v in x])
        d_exact = np.array([float(mpmath.fresnels(mpmath.mpf(v))) for v in x])
    np.testing.assert_allclose(b, b_exact, rtol=0, atol=2e-15)
    np.testing.assert_allclose(d, d_exact, rtol=0, atol=2e-15)
    # each value depends on its own x only
    for i in range(0, x.size, 23):
        assert fresnel_integrals(float(x[i])) == (b[i], d[i])


def test_solve_monotone_root_cosine():
    # cos decreases on [0, pi]; root of cos(x)=0.3 is arccos(0.3)
    x = solve_monotone_root(lambda t: math.cos(t), 0.3, (0.0, math.pi))
    assert x == pytest.approx(math.acos(0.3), abs=1e-12)
    # increasing bracket works too
    x2 = solve_monotone_root(lambda t: t**3, 8.0, (0.0, 3.0))
    assert x2 == pytest.approx(2.0, abs=1e-12)


def test_solve_monotone_root_bad_bracket():
    with pytest.raises(ValueError, match="does not straddle"):
        solve_monotone_root(lambda t: math.cos(t), 2.0, (0.0, math.pi))


# Frozen inversion results for the two oscillatory envelopes used by the
# sampling-plan solver. "first" is the first downward crossing of the
# target from x=0 (bisection-precise). "solved" is the location of the
# envelope's rebound peak past that crossing; the peak is flat, so its
# location is only ~1e-6 reproducible while its value is ~1e-15 stable.
CURVING_TARGET = 0.4
CURVING_SOLVED = 1.6766743765209953
CURVING_FIRST = 1.4225330761753514
CURVING_PEAK = 0.43495434931607163

DISTANCE_TARGET = 0.15
DISTANCE_SOLVED = 4.624020036036347
DISTANCE_FIRST = 4.364130527080919
DISTANCE_PEAK = 0.16752637743339485


# The envelopes |P(x)|/x, 1 at x = 0, of a number or an array: the solver
# scans and refines one function.
def _curving_envelope(x):
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, np.abs(airy_cos_integral(x)) / np.where(x > 0, x, 1.0), 1.0)


def _distance_envelope(x):
    x = np.asarray(x, dtype=float)
    b, d = fresnel_integrals(x)
    return np.where(x > 0, np.abs(b + 1j * d) / np.where(x > 0, x, 1.0), 1.0)


def test_invert_curving_envelope_frozen():
    env = _curving_envelope
    sup = 0.8422079954274431  # max of |A| over x>0, attained near x=1
    solved, first = invert_oscillatory_envelope(
        env, CURVING_TARGET, sup, airy_cos_lobe_nodes(5.0))
    assert solved == pytest.approx(CURVING_SOLVED, abs=1e-6)
    assert first == pytest.approx(CURVING_FIRST, abs=1e-9)
    assert env(first) == pytest.approx(CURVING_TARGET, abs=1e-9)
    # the rebound peak sits above the target; that is what "solved" keys on
    assert env(solved) == pytest.approx(CURVING_PEAK, abs=1e-9)
    assert solved >= first


def test_invert_distance_envelope_frozen():
    env = _distance_envelope
    sup = float(max(_distance_envelope(np.linspace(1e-4, 30.0, 200001))))
    solved, first = invert_oscillatory_envelope(
        env, DISTANCE_TARGET, sup, fresnel_lobe_nodes(12.0))
    assert solved == pytest.approx(DISTANCE_SOLVED, abs=1e-6)
    assert first == pytest.approx(DISTANCE_FIRST, abs=1e-9)
    assert env(first) == pytest.approx(DISTANCE_TARGET, abs=1e-9)
    assert env(solved) == pytest.approx(DISTANCE_PEAK, abs=1e-9)
    assert solved >= first


def test_invert_monotone_reachable_target():
    # High target crossed once before any rebound: solved == first crossing.
    env = _curving_envelope
    solved, first = invert_oscillatory_envelope(
        env, 0.95, 0.8422079954274431, airy_cos_lobe_nodes(5.0))
    assert solved == pytest.approx(first, abs=1e-9)
    assert env(solved) == pytest.approx(0.95, abs=1e-9)


# ------------------------------------------------------------- unit phasor

CIS_STEP = 2 * math.pi / 256
# the largest table index cis accepts is 2**29 - 1
CIS_EDGE = (2**29 - 1) * CIS_STEP


def _bits(z):
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


def _max_error_vs_mpmath(theta):
    got = cis(theta)
    with mpmath.workdps(40):
        return max(float(abs(mpmath.mpc(g.real, g.imag) - mpmath.expj(mpmath.mpf(t))))
                   for g, t in zip(got.tolist(), theta.tolist()))


def test_cis_matches_mpmath():
    k = np.arange(-600.0, 601.0)
    rng = np.random.default_rng(0)
    theta = np.concatenate([
        k * CIS_STEP,                       # multiples of the table step
        (k + 0.5) * CIS_STEP,               # half-step ties
        [0.0, -0.0, math.pi, -math.pi / 2],
        rng.uniform(-1e4, 1e4, 2000),
        rng.uniform(-4.0, 4.0, 500),
    ])
    assert _max_error_vs_mpmath(theta) <= 3e-16


def test_cis_near_its_bound():
    theta = np.array([CIS_EDGE, -CIS_EDGE, CIS_EDGE - 0.5 * CIS_STEP, 1.3e7, -1.3e7,
                      np.nextafter(CIS_EDGE, np.inf), 12345678.9])
    assert _max_error_vs_mpmath(theta) <= 3e-16


# (theta, cos, sin) of cis as float hex, which every codeword and codebook
# file rests on: at and beside half-step ties, multiples of the step,
# negative theta and theta near CIS_LIMIT
_CIS_PINNED = [
    ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    ("0x1.56e1fc2f8f359p-997", "0x1.0000000000000p+0", "0x1.56e1fc2f8f359p-997"),
    ("0x1.921fb54442d18p-7", "0x1.fff62169b92dbp-1", "0x1.921d1fcdec784p-7"),
    ("0x1.921fb54442d19p-7", "0x1.fff62169b92dcp-1", "0x1.921d1fcdec784p-7"),
    ("0x1.2d97c7f3321d2p-5", "0x1.ffa72effef75dp-1", "0x1.2d865759455cdp-5"),
    ("0x1.2d97c7f3321d2p+1", "-0x1.6a09e667f3bccp-1", "0x1.6a09e667f3bcdp-1"),
    ("0x1.921fb54442d18p+1", "-0x1.0000000000000p+0", "0x1.1a62633145c00p-53"),
    ("-0x1.6000000000000p+1", "-0x1.d93e294faed14p-1", "-0x1.86d2239c183fcp-2"),
    ("-0x1.9156a569a0b01p+2", "0x1.fff62169b92dbp-1", "0x1.921d1fcdec8f9p-7"),
    ("0x1.34a456d5cfaadp+10", "-0x1.fe7053dc31387p-1", "0x1.3fa00084ee3ddp-4"),
    ("0x1.e84809999999ap+19", "0x1.ff26e5cec0168p-1", "-0x1.d74e25f904f51p-5"),
    ("0x1.921fb537b1d36p+23", "0x1.ffd886054c972p-1", "-0x1.92156ec1f715ap-6"),
    ("-0x1.921fb537b1d36p+23", "0x1.ffd886054c972p-1", "0x1.92156ec1f715ap-6"),
]


def test_cis_matches_pinned_bits():
    theta = np.array([float.fromhex(t) for t, _, _ in _CIS_PINNED])
    got = cis(theta)
    assert [(v.real.hex(), v.imag.hex()) for v in got.tolist()] == \
        [(c, s) for _, c, s in _CIS_PINNED]
    assert np.abs(theta).max() > 0.999 * CIS_EDGE and (theta < 0).any()


def test_cis_is_conjugate_symmetric_bit_for_bit():
    theta = np.random.default_rng(1).uniform(-1e4, 1e4, 100_000)
    assert np.array_equal(_bits(cis(-theta)), _bits(np.conj(cis(theta))))


def test_cis_value_independent_of_shape_blocks_and_out():
    theta = np.random.default_rng(2).uniform(-1e4, 1e4, 100_003)
    whole = cis(theta)
    for i in (0, 1, 4095, 4096, 8191, 8192, 8193, 16384, 50_000, 100_002):
        assert np.array_equal(_bits(cis(theta[i:i + 1])), _bits(whole[i:i + 1])), i
    assert np.array_equal(_bits(cis(theta[:100_000].reshape(400, 250))),
                          _bits(whole[:100_000].reshape(400, 250)))
    strided = np.zeros((3, theta.size), dtype=complex)
    row = strided[1]
    assert cis(theta, out=row) is row
    columns = np.zeros((theta.size, 3), dtype=complex)
    cis(theta, out=columns[:, 2])
    assert np.array_equal(_bits(strided[1]), _bits(whole))
    assert np.array_equal(_bits(columns[:, 2]), _bits(whole))
    assert not columns[:, :2].any()
    # a power-of-two scale is exact
    assert np.array_equal(_bits(cis(theta, 0.25)), _bits(0.25 * whole))
    assert complex(cis(theta[7])) == whole[7]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, CIS_EDGE + CIS_STEP,
                                 -(CIS_EDGE + CIS_STEP), 1e300])
def test_cis_rejects_nonfinite_and_out_of_range(bad):
    theta = np.linspace(-1.0, 1.0, 20_000)
    theta[12_345] = bad
    with pytest.raises(ValueError, match=r"finite with \|theta\| < 1\.31768e\+07 rad"):
        cis(theta)
    with pytest.raises(ValueError, match="finite"):
        cis(bad)


def test_cis_rejects_a_mismatched_out():
    with pytest.raises(ValueError, match="complex128 array of theta's shape"):
        cis(np.zeros(4), out=np.zeros(5, dtype=complex))
    with pytest.raises(ValueError, match="complex128 array of theta's shape"):
        cis(np.zeros(4), out=np.zeros(4, dtype=np.complex64))


def test_codeword_factors_match_the_complex_exp_reference():
    # the README link at 256 Tx: its hierarchical stage-1 book and curving grid
    car = CarrierConfig(140e9)
    tx = half_wavelength_array(256, car)
    sc = ScenarioConfig(tx, half_wavelength_array(16, car), car, 1.0)
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-10.0, 10.0), r_min=0.14)
    points = np.array(build_los_region_points(sc, plan))
    assert len(points) == 2971
    y = element_positions(tx)
    want = np.stack([np.exp(1j * focusing_phase(y, r, th, car)) for r, th in points],
                    axis=1) / math.sqrt(y.size)
    focus = focus_terms(points[:, 0], points[:, 1], tx, car).columns(0, len(points))
    assert np.abs(focus - want).max() <= 1e-15
    a = plan.curving_values
    want = np.exp(1j * (2 * math.pi / car.wavelength * a * y[:, None] ** 3))
    assert np.abs(curving_factors(a, tx, car) - want).max() <= 1e-15
