"""Oscillatory special-function integrals, root finding and the unit phasor.

The beam-correlation closed forms reduce to the cumulative integrals

    A(x) = int_0^x cos(pi/2 t^3) dt        (cubic-phase integral)
    B(x) = int_0^x cos(pi/2 t^2) dt        (Fresnel cosine)
    D(x) = int_0^x sin(pi/2 t^2) dt        (Fresnel sine)

A(x) is the sum, in order, of Gauss-Legendre panels over the whole lobes
between the integrand's zeros t = (1+2m)^(1/3) below x, each a smooth
half-oscillation, plus one partial panel up to x.
B + jD = int_0^x e^{j pi/2 t^2} dt is evaluated the same way below x = 6,
with panels split at the lobe nodes t = sqrt(m), and by the auxiliary-function
expansion of DLMF 7.12 from x = 6 on, so its cost does not grow with x.
Both take a number or an array, each value depending on its own x only.

`cis(theta)` is the table-driven phasor e^{j*theta} every codeword is
built from. theta is reduced exactly to m*(2*pi/256) + r with
|r| <= pi/256 (Cody and Waite's split of the step into three constants),
and e^{j*theta} = T[m mod 256] * e^{j*r}, with sin r and cos r - 1 from
short Taylor polynomials (Tang's table-driven scheme). Its absolute error
is below 2.5e-16 for |theta| < CIS_LIMIT, 2^29 - 1 table steps (about
1.3e7 rad); for theta that rounds to 2^29 steps or more, and for NaN or
inf, it raises. A hop's phase k*r is absolute, so `scenario.ScenarioConfig`
refuses geometries whose longest hop reaches CIS_LIMIT. The table is
exactly conjugate symmetric, so cis(-theta) == conj(cis(theta)) bit for
bit. The same table and reduction (`_cis_parts`) give every
Rayleigh-Sommerfeld kernel value (`channel._hankel2_1`) its phase
e^{j3pi/4} e^{-jz}: 3pi/4 is exactly 96 table steps, so the turn is an
index shift, T[(96 - m) mod 256] e^{-jr}, and rounds nothing.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
# Envelope scan points per lobe (between consecutive extrema).
_SCAN_POINTS_PER_LOBE = 12


# The unit phasor. The table step 2*pi/256 is split as C1 + C2 + C3 with C1
# and C2 of at most 24 significant bits, so m*C1 and m*C2 are exact for
# |m| < 2^29 and theta - m*C1 - m*C2 - m*C3 loses nothing to cancellation.
_CIS_STEPS = 256
_CIS_INV_STEP = _CIS_STEPS / (2 * math.pi)
_CIS_C1 = float.fromhex("0x1.921fb6p-6")
_CIS_C2 = float.fromhex("-0x1.777a5cp-31")
_CIS_C3 = float.fromhex("-0x1.ee59d9cceba40p-56")
_CIS_MAX_STEPS = 2.0**29
# Every |theta| below this, 2^29 - 1 table steps, rounds to an accepted step.
CIS_LIMIT = (_CIS_MAX_STEPS - 1) * 2 * math.pi / _CIS_STEPS
# Taylor coefficients of sin r (degree 7) and cos r - 1 (degree 6); with
# |r| <= pi/256 the first omitted terms are below 1e-19.
_SIN3, _SIN5, _SIN7 = -1 / 6, 1 / 120, -1 / 5040
_COS2, _COS4, _COS6 = -1 / 2, 1 / 24, -1 / 720
# Values evaluated per block by every blocked loop (`cis`, the Hankel kernel
# `channel._rs_kernel`, focus columns `beam.FocusTerms.columns`): every
# temporary stays in cache and below malloc's mmap threshold.
BLOCK_VALUES = 8192


def _cis_table() -> tuple:
    """(cos, sin) of k*2*pi/256, from the first octant by exact symmetries."""
    first = [(math.cos(k * math.pi / 128), math.sin(k * math.pi / 128)) for k in range(33)]
    table = first + [first[64 - k][::-1] for k in range(33, 65)]
    table += [(-table[128 - k][0], table[128 - k][1]) for k in range(65, 129)]
    table += [(table[256 - k][0], -table[256 - k][1]) for k in range(129, 256)]
    cos, sin = np.array(table).T
    return cos.copy(), sin.copy()


_CIS_COS, _CIS_SIN = _cis_table()


def cis(theta, scale: float = 1.0, out=None) -> np.ndarray:
    """scale * e^{j*theta} elementwise, as a complex array of theta's shape.

    Each value's result depends on that value alone, not on the array's
    shape, its blocks or `out`. `out`, if given, is a complex128 array of
    theta's shape (a strided view is fine) and is returned.
    """
    theta = np.asarray(theta, dtype=float)
    if out is None:
        out = np.empty(theta.shape, dtype=complex)
    elif out.shape != theta.shape or out.dtype != np.complex128:
        raise ValueError("cis: out must be a complex128 array of theta's shape")
    cos, sin = _CIS_COS * scale, _CIS_SIN * scale
    t, o = (theta.reshape(1), out.reshape(1)) if theta.ndim == 0 else (theta, out)
    # blocks run over the leading axis, so a strided `out` is written in place
    rows = max(1, BLOCK_VALUES * t.shape[0] // max(t.size, 1))
    for start in range(0, t.shape[0], rows):
        block = slice(start, start + rows)
        _cis_parts(t[block], o[block].real, o[block].imag, cos, sin)
    return out


def _cis_parts(theta, re, im, cos=_CIS_COS, sin=_CIS_SIN, turn: int = 0,
               sign: int = 1) -> None:
    """Real and imaginary parts of e^{j(turn*2*pi/256 + sign*theta)}, into re and im.

    theta = m*(2*pi/256) + r is reduced once, and the result is
    T[(turn + sign*m) mod 256] * e^{j*sign*r}, the table entry (cos, sin,
    with any scale folded in) times the Taylor polynomials. A turn is an
    exact index shift and sign -1 negates r exactly, so neither rounds the
    phase. `cis` takes turn 0 and sign +1.
    """
    m = np.multiply(theta, _CIS_INV_STEP)
    np.rint(m, out=m)
    if m.size and not (-_CIS_MAX_STEPS < m.min() and m.max() < _CIS_MAX_STEPS):
        raise ValueError(f"cis: theta must be finite with |theta| < {CIS_LIMIT:.6g} rad")
    r = theta - m * _CIS_C1
    w = m * _CIS_C2
    r -= w
    np.multiply(m, _CIS_C3, out=w)
    r -= w
    k = m.astype(np.intp)
    if sign < 0:
        np.subtract(turn, k, out=k)
        np.negative(r, out=r)
    elif turn:
        k += turn
    k &= _CIS_STEPS - 1
    tc, ts = cos.take(k), sin.take(k)
    r2 = np.multiply(r, r, out=m)
    s = r2 * _SIN7                      # s = sin r
    s += _SIN5
    s *= r2
    s += _SIN3
    s *= r2
    s *= r
    s += r
    c = r2 * _COS6                      # c = cos r - 1
    c += _COS4
    c *= r2
    c += _COS2
    c *= r2
    # (tc + j*ts)(1 + c + j*s), each part as table entry plus a small correction
    np.multiply(tc, c, out=w)
    np.multiply(ts, s, out=r)
    w -= r
    np.add(tc, w, out=re)
    np.multiply(ts, c, out=w)
    np.multiply(tc, s, out=r)
    w += r
    np.add(ts, w, out=im)


def airy_cos_lobe_nodes(x_max: float) -> np.ndarray:
    """Zeros of cos(pi/2 t^3) on (0, x_max): t = (1+2m)^(1/3)."""
    if x_max <= 1.0:
        return np.empty(0)
    m_max = int(math.floor((x_max**3 - 1) / 2))
    return np.cbrt(1.0 + 2.0 * np.arange(m_max + 1))


def _panel_quad(lo: float, hi: float) -> float:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = mid + half * _GL_NODES
    return half * float(np.dot(_GL_WEIGHTS, np.cos(0.5 * np.pi * t**3)))


def airy_cos_integral(x):
    """A(x) = int_0^x cos(pi/2 t^3) dt, absolute error below 1e-9.

    A float for a number, an array of x's shape for an array. Each value is
    the sum, in order, of the whole lobes below x (one panel between each
    pair of consecutive zeros) plus one partial panel from the last zero
    below x up to x, so it depends on its own x only.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1).tolist()
    if not all(map(math.isfinite, flat)):
        raise ValueError("x must be finite")
    if any(v < 0 for v in flat):
        raise ValueError("x must be >= 0")
    edges = [0.0, *airy_cos_lobe_nodes(max(flat, default=0.0)).tolist()]
    lobes = list(itertools.accumulate(
        (_panel_quad(a, b) for a, b in zip(edges, edges[1:])), initial=0.0))
    below = [bisect.bisect_left(edges, v, 1) - 1 for v in flat]  # zeros below each x
    values = [lobes[k] + _panel_quad(edges[k], v) for k, v in zip(below, flat)]
    return values[0] if x.ndim == 0 else np.array(values).reshape(x.shape)


# B + jD is evaluated by the auxiliary-function expansion from here on.
_FRESNEL_ASYMPTOTIC_FROM = 6.0
# The Gauss-Legendre rule on [0, 1]: nodes, and weights.
_GL_UNIT_NODES, _GL_UNIT_WEIGHTS = 0.5 * (1.0 + _GL_NODES), 0.5 * _GL_WEIGHTS
# j^m for m mod 4.
_QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])


def _fresnel_panels(m: np.ndarray, width: np.ndarray) -> np.ndarray:
    """int e^{j pi/2 t^2} dt from sqrt(m) to sqrt(m) + width, for integers m.

    With t = sqrt(m) + s the phase is pi/2 m + pi/2 s (2 sqrt(m) + s): the
    first term is the exact quarter turn j^m, and the second stays within
    pi/2 on a panel that ends at or before the next lobe node sqrt(m + 1).
    Each panel is a row sum, so its value does not depend on how many are
    evaluated together.
    """
    s = width[:, None] * _GL_UNIT_NODES
    phase = s * (math.pi * np.sqrt(m)[:, None] + (0.5 * math.pi) * s)
    panel = (np.exp(1j * phase) * _GL_UNIT_WEIGHTS).sum(axis=1)
    return panel * width * _QUARTER_TURNS[m % 4]


def _fresnel_at_nodes() -> np.ndarray:
    """B + jD at every lobe node sqrt(m) below the expansion, from m = 0."""
    m = np.arange(int(_FRESNEL_ASYMPTOTIC_FROM**2))
    panels = _fresnel_panels(m, 1.0 / (np.sqrt(m + 1.0) + np.sqrt(m)))
    return np.concatenate(([0.0], np.cumsum(panels)))


_FRESNEL_AT_NODES = _fresnel_at_nodes()


def _fresnel_near(x: np.ndarray) -> np.ndarray:
    """B + jD below the expansion: from the lobe node at or below x, one partial panel."""
    m = (x * x).astype(np.intp)
    return _FRESNEL_AT_NODES[m] + _fresnel_panels(m, x - np.sqrt(m))


def _fresnel_expansion_terms(terms: int) -> tuple:
    """Coefficients of the auxiliary functions f and g in powers of u^2.

    DLMF section 7.12, with u = 1/(pi x^2): pi x f(x) = sum_m (-1)^m
    (1*3*...*(4m-1)) u^2m and pi x g(x) = u sum_m (-1)^m (1*3*...*(4m+1)) u^2m.
    """
    f, g = [1.0], [1.0]
    for m in range(1, terms):
        f.append(-f[-1] * (4 * m - 3) * (4 * m - 1))
        g.append(-g[-1] * (4 * m - 1) * (4 * m + 1))
    return tuple(f), tuple(g)


# 12 terms: the first one left out is below 1e-19 at x = 6.
_FRESNEL_F, _FRESNEL_G = _fresnel_expansion_terms(12)


def _fresnel_far(x: np.ndarray) -> np.ndarray:
    """B + jD = (1 + j)/2 - (g + jf) e^{j pi/2 x^2} (DLMF section 7.5)."""
    # beyond 2^511, (g + jf) is far below half an ulp of 1/2, and x^2 stays finite
    x = np.minimum(x, 2.0**511)
    x2 = x * x
    u = 1.0 / (math.pi * x2)
    t = u * u
    f = np.zeros_like(x)
    g = np.zeros_like(x)
    for cf, cg in zip(_FRESNEL_F[::-1], _FRESNEL_G[::-1]):
        f = f * t + cf
        g = g * t + cg
    g *= u
    # e^{j pi/2 x^2} = j^m e^{j pi/2 (x^2 - m)} with m = floor(x^2), and x^2 - m exact
    m = np.floor(x2)
    turn = np.exp((0.5j * math.pi) * (x2 - m)) * _QUARTER_TURNS[np.fmod(m, 4).astype(np.intp)]
    return (0.5 + 0.5j) - (g + 1j * f) / (math.pi * x) * turn


def fresnel_integrals(x) -> tuple:
    """(B(x), D(x)) with B the cosine and D the sine Fresnel integral.

    Absolute error below 2e-15 on [0, 40] (against mpmath); each value
    depends on its own x only.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    if np.any(x < 0):
        raise ValueError("x must be >= 0")
    flat = x.reshape(-1)
    near = flat < _FRESNEL_ASYMPTOTIC_FROM
    if near.all():
        value = _fresnel_near(flat)
    else:
        value = np.empty(flat.shape, dtype=complex)
        value[near] = _fresnel_near(flat[near])
        value[~near] = _fresnel_far(flat[~near])
    if x.ndim == 0:
        return float(value[0].real), float(value[0].imag)
    value = value.reshape(x.shape)
    return value.real, value.imag


def power_of(base: float, exponent: float) -> float:
    """base ** exponent, or inf where it overflows the float range."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def solve_monotone_root(f, target: float, bracket: tuple) -> float:
    """Bisection for f(root) = target on a bracket that straddles it.

    The correlation curves this inverts are oscillatory; the caller is
    responsible for passing a bracket on a single monotone stretch.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    flo = f(lo) - target
    fhi = f(hi) - target
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError(
            f"bracket [{lo}, {hi}] does not straddle target {target}: "
            f"f(lo)-target={flo:.3g}, f(hi)-target={fhi:.3g}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid) - target
        if fm == 0.0 or (hi - lo) < 1e-13 * max(1.0, abs(mid)):
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def invert_oscillatory_envelope(envelope, target: float, primitive_sup: float,
                                lobe_nodes: np.ndarray):
    """Invert a decaying oscillatory envelope C(x) = |P(x)|/x at a target level.

    Returns (solved, first_crossing) where first_crossing is the first
    downward crossing of the target and solved upgrades it to the location
    of the envelope's global maximum beyond that crossing whenever the
    envelope rebounds above the target (for a monotone-reachable target the
    two coincide). primitive_sup bounds |P|, so beyond primitive_sup/target
    the envelope stays below the target and the scan can stop.

    The rebound upgrade matches how published sampling designs for these
    correlation curves read the hover region of the envelope: the spacing
    is set where residual correlation peaks, not at the earliest graze.

    envelope takes a number or an array, each value its own: the scan's
    values on the grid are the values the refinements see at its points.
    """
    if not (0 < target < 1):
        raise ValueError("target must lie in (0, 1)")
    x_stop = primitive_sup / target + 0.5
    nodes = lobe_nodes[lobe_nodes < x_stop]
    # sorted with equal neighbours dropped, as np.unique would, which loads numpy.ma
    edges = np.sort(np.concatenate(([1e-9], nodes, [x_stop])))
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    grid = np.concatenate([
        np.linspace(a, b, _SCAN_POINTS_PER_LOBE, endpoint=False)
        for a, b in zip(edges[:-1], edges[1:])
    ] + [[x_stop]])
    vals = envelope(grid)

    below = vals < target
    if below[0] or not below.any():
        raise ValueError("target not reachable from the envelope's initial lobe")
    i = int(np.argmax(below))  # first grid point under the target
    first_crossing = solve_monotone_root(envelope, target, (grid[i - 1], grid[i]))

    tail = grid >= first_crossing
    j = int(np.argmax(np.where(tail, vals, -np.inf)))
    if vals[j] <= target + 1e-12:
        return first_crossing, first_crossing
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, grid.size - 1)]
    solved = _golden_max(envelope, lo, hi)
    return solved, first_crossing


def _golden_max(f, lo: float, hi: float, tol: float = 1e-11) -> float:
    g = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - g * (b - a)
    d = a + g * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def fresnel_lobe_nodes(x_max: float) -> np.ndarray:
    """Extrema of the Fresnel primitives: zeros of the t^2 phase cosine/sine."""
    if x_max <= 0:
        return np.empty(0)
    m_max = int(math.floor(x_max**2))
    return np.sqrt(np.arange(1, m_max + 1, dtype=float))
