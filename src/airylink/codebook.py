"""Beam-correlation analysis, sampling-interval solver, codebook builders.

Adjacent-codeword correlation along each beam parameter axis collapses to
a one-dimensional envelope in a normalized separation variable:

* curving axis:  C = |A(x)/x|, A the cubic-phase cosine integral;
* distance axis: C = |(B + jD)(x)|/x, Fresnel integrals;
* angle axis:    C = Dirichlet kernel magnitude (exact, not approximate).

The first two take a number or an array: each value of A, and of B + jD
below x = 6, is the sum of its whole lobes below x plus one partial panel
up to x (`numerics`), so the solver scans and refines one function per axis.
These envelopes are oscillatory: past the first dip below the target they
rebound before decaying for good. The solver reports the location of the
highest rebound peak beyond the first crossing (the level at which
residual correlation between non-adjacent codewords peaks); for a target
the envelope reaches monotonically this reduces to the plain first-descent
root. One mapping, `_design_interval`, turns an envelope argument into a
design interval (s_a = x_a^3/(d^2 N^3), s_r = x_r^2/(d N^2); s_th = 2u/N),
and its inverse at gap*d/(2*lambda) gives the envelope argument of a
parameter gap. The targets are therefore envelope levels in the paper's
normalization: two beams reach the solved argument only at a gap of
2*lambda/d times the interval (4 at half-wavelength spacing), so adjacent
codewords, one interval apart, correlate above the targets. The plan
reports their numeric correlation on each axis
(`SamplingPlan.adjacent_correlations`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beam import (
    BeamParams,
    BeamVector,
    FocusTerms,
    _check_unit_norm,
    airy_beam_vector,
    curving_factors,
    focus_terms,
)
from .numerics import (
    airy_cos_integral,
    airy_cos_lobe_nodes,
    fresnel_integrals,
    fresnel_lobe_nodes,
    invert_oscillatory_envelope,
)
from .scenario import ArrayConfig, CarrierConfig, ScenarioConfig, element_positions


def beam_correlation_numeric(v1: BeamVector, v2: BeamVector) -> float:
    """|<v1, v2>| for unit-norm codewords; 1 iff equal up to global phase."""
    if v1.weights.shape != v2.weights.shape:
        raise ValueError("codeword length mismatch")
    return float(abs(np.vdot(v1.weights, v2.weights)))


def _closed_envelope(x, modulus):
    """|P(x)|/x for each x, 1 below x = 1e-9, with `modulus` mapping a list of
    x to |P| at each (P refuses x < 0): a float for a number, an array for an array."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1).tolist()
    values = [1.0 if v < 1e-9 else p / v for v, p in zip(flat, modulus(flat))]
    return values[0] if x.ndim == 0 else np.array(values).reshape(x.shape)


def curving_correlation_closed(x):
    """Correlation envelope for two same-focus beams vs normalized curving gap."""
    return _closed_envelope(x, lambda flat: map(abs, airy_cos_integral(flat).tolist()))


def distance_correlation_closed(x):
    """Correlation envelope for two same-angle focusing beams vs normalized distance gap."""
    def modulus(flat):
        b, d = fresnel_integrals(flat)
        return map(math.hypot, b.tolist(), d.tolist())
    return _closed_envelope(x, modulus)


def angle_correlation_closed(x: float, num_elements: int) -> float:
    """Dirichlet-kernel correlation of two steering beams vs normalized angle gap.

    Exact for the discrete array (zeros at x = 2*pi*u/N).
    """
    s = math.sin(x / 2)
    if abs(s) < 1e-12:
        return 1.0
    return abs(math.sin(num_elements * x / 2) / (num_elements * s))


def _design_interval(x: float, p: int, d: float, n: int) -> float:
    """The plan's interval for envelope argument x on an axis whose phase
    grows as the p-th power of aperture position: p = 3 for curving, p = 2
    for distance (inverse focus distance)."""
    return x**p / (d ** (p - 1) * n**p)


def _envelope_argument(gap: float, p: int, array: ArrayConfig,
                       carrier: CarrierConfig) -> float:
    """Envelope argument of two beams `gap` apart on the p-th power axis: the
    inverse of `_design_interval` at gap*d/(2*lambda). So the argument that
    `_design_interval` maps to s is reached at a gap of s*2*lambda/d, not s."""
    d, n = array.spacing, array.num_elements
    s = gap * d / (2 * carrier.wavelength)
    return (s * d ** (p - 1) * n**p) ** (1 / p)


def normalized_curving_separation(delta_a: float, array: ArrayConfig,
                                  carrier: CarrierConfig) -> float:
    """Map a curving-coefficient gap to the cubic envelope's argument."""
    return _envelope_argument(abs(delta_a), 3, array, carrier)


def normalized_distance_separation(r1: float, r2: float, focus_angle: float,
                                   array: ArrayConfig, carrier: CarrierConfig) -> float:
    """Map a focus-distance gap to the Fresnel envelope's argument."""
    inv_gap = abs((0.0 if math.isinf(r1) else 1 / r1) -
                  (0.0 if math.isinf(r2) else 1 / r2))
    return _envelope_argument(math.cos(focus_angle) ** 2 * inv_gap, 2, array, carrier)


def normalized_angle_separation(sin1: float, sin2: float, array: ArrayConfig,
                                carrier: CarrierConfig) -> float:
    """Map a sin(angle) gap to the Dirichlet kernel's argument."""
    return 2 * math.pi / carrier.wavelength * abs(sin1 - sin2) * array.spacing


@dataclass(frozen=True)
class SamplingPlan:
    """Solved sampling design for the (curving, distance, angle) grid."""

    target_correlations: tuple  # (xi_a, xi_r, xi_theta)
    solved_parameters: tuple    # envelope arguments for (curving, distance, angle)
    intervals: tuple            # design intervals (s_a, s_r, s_theta=2u/N)
    adjacent_correlations: tuple  # numeric correlation of adjacent codewords (curving, distance)
    first_crossings: tuple      # first-descent envelope crossings (curving, distance)
    curving_values: np.ndarray
    focus_distances: np.ndarray
    angles: np.ndarray

    @property
    def counts(self) -> tuple:
        return (self.curving_values.size, self.focus_distances.size, self.angles.size)

    def describe(self) -> str:
        j, k, v = self.counts
        xa, xr, xth = self.target_correlations
        sa, sr, sth = self.intervals
        return (
            f"targets=({xa}, {xr}, {xth}) solved=({self.solved_parameters[0]:.6g}, "
            f"{self.solved_parameters[1]:.6g}, {self.solved_parameters[2]:.6g}) "
            f"intervals=({sa:.6g}, {sr:.6g}, {sth:.6g}) counts=({j}, {k}, {v})"
        )


def _slot_indices(slots, count: int) -> np.ndarray:
    """`slots` (an int, or a sequence or range of them) as an integer array,
    each in [0, count); anything else raises, naming the range."""
    t = np.asarray(slots)
    if t.size == 0:  # an empty sequence, even range(0), comes out as float
        return t.astype(np.int64)
    if t.dtype.kind not in "iu":
        raise TypeError(f"slots must be integers, got {t.dtype}")
    outside = (t < 0) | (t >= count)
    if np.any(outside):
        raise ValueError(f"slot {t[outside].flat[0]} is outside [0, {count})")
    return t


def slot_params(curving: np.ndarray, focus_points: np.ndarray, slots) -> np.ndarray:
    """(curving[i], *focus_points[f]) of each slot t = i*F + f of a product book,
    [J] curving values by [F, 2] focus points: [3] for one slot, [n, 3] for n."""
    i, f = np.divmod(_slot_indices(slots, curving.size * len(focus_points)), len(focus_points))
    return np.concatenate([curving[i][..., None], focus_points[f]], axis=-1)


@dataclass(frozen=True)
class Codebook:
    """T = J*F codewords: every one of J curving values at every one of F
    focus points, curving-major.

    Slot t = i*F + f is the beam (curving[i], *focus_points[f]) with weights
    cubic[:, i] * g_f, where `cubic` [N_t, J] holds the curving factors of
    beam.py and g_f is the focus factor of point f. A book keeps its focus
    factors only as [F]-sized terms (`beam.FocusTerms`), so it holds neither
    the [N_t, F] focus matrix nor the [N_t, T] product: `focus_terms.columns`
    synthesizes any range of focus columns, `words` multiplies out the
    codewords of any slots (`word(t)` one of them as a beam), and
    `slot_params` gives their parameters.
    """

    curving: np.ndarray       # [J]
    focus_points: np.ndarray  # [F, 2]: (focus_distance, focus_angle)
    cubic: np.ndarray         # [N_t, J]
    focus_terms: FocusTerms   # F points

    def __post_init__(self):
        if self.curving.ndim != 1 or self.focus_points.ndim != 2 \
                or self.focus_points.shape[1] != 2:
            raise ValueError("codebook takes [J] curving values and [F, 2] focus points")
        if self.cubic.shape != (self.focus_terms.positions.size, self.curving.size) \
                or len(self.focus_terms) != self.focus_points.shape[0]:
            raise ValueError("codebook factors must have one column per curving value "
                             "and per focus point")
        if np.any(np.abs(np.abs(self.cubic) - 1.0) > 1e-9):
            raise ValueError("curving factors must have unit modulus")

    def __len__(self) -> int:
        return self.curving.size * self.focus_points.shape[0]

    def slot_params(self, slots) -> np.ndarray:
        """(curving, focus_distance, focus_angle) of each slot (`slot_params`)."""
        return slot_params(self.curving, self.focus_points, slots)

    def words(self, slots) -> np.ndarray:
        """Weights of each slot, multiplied out of its two factors: [N_t] for
        one slot, [N_t, n] for a sequence of n, whose focus factors are
        synthesized together."""
        i, f = np.divmod(_slot_indices(slots, len(self)), self.focus_points.shape[0])
        # both factors C-ordered, as the standalone beam's are: numpy's complex
        # product rounds differently when the operands' layouts differ
        weights = np.ascontiguousarray(self.cubic[:, i]) * self.focus_terms.at(f)
        _check_unit_norm(weights)
        return weights

    def word(self, t: int) -> BeamVector:
        """Codeword t as a standalone beam."""
        t = int(_slot_indices(t, len(self)))
        return BeamVector(BeamParams(*self.slot_params(t)), self.words(t))


def product_codebook(curving, focus_points, tx: ArrayConfig, carrier: CarrierConfig) -> Codebook:
    """Every curving value at every (focus_distance, focus_angle) point."""
    a = np.array(curving, dtype=float).reshape(-1)
    points = np.array(focus_points, dtype=float).reshape(-1, 2)
    return Codebook(a, points, curving_factors(a, tx, carrier),
                    focus_terms(points[:, 0], points[:, 1], tx, carrier))


# sup over x >= 0 of |B(x) + jD(x)|, the global max of the Fresnel primitive,
# attained at x = 1.2093781287830067 where B cos(pi/2 x^2) + D sin(pi/2 x^2)
# changes sign (checked against mpmath in the tests).
FRESNEL_PRIMITIVE_SUP = 0.9490564666710863


def _adjacent_correlations(scenario: ScenarioConfig, s_a: float,
                           s_r: float) -> tuple:
    """(curving, distance): the numeric correlation of the reference beam
    (0, D, 0) with its planned neighbours (s_a, D, 0) and (0, 1/(1/D + s_r), 0)."""
    tx, carrier, d_link = scenario.tx, scenario.carrier, scenario.link_distance
    ref = airy_beam_vector(BeamParams(0.0, d_link, 0.0), tx, carrier)
    return tuple(
        beam_correlation_numeric(ref, airy_beam_vector(params, tx, carrier))
        for params in (BeamParams(s_a, d_link, 0.0),
                       BeamParams(0.0, 1.0 / (1.0 / d_link + s_r), 0.0)))


def angle_grid(num_elements: int, angle_index: int = 1) -> np.ndarray:
    """Angles whose sines are k*(2*angle_index/N) for every integer k with
    |k| * 2 * angle_index < N: Dirichlet-kernel nulls, so adjacent steering
    beams are orthogonal, symmetric about broadside and short of endfire."""
    k = (num_elements - 1) // (2 * angle_index)
    return np.arcsin(np.arange(-k, k + 1, dtype=float) * (2.0 * angle_index / num_elements))


def check_plan_options(targets, scenario: ScenarioConfig, curving_range=(-4.0, 4.0),
                       angle_index: int | None = 1, r_min: float | None = None) -> None:
    """The sampling plan's input rules; each message starts with its config key.
    angle_index None skips its rule: a one-element array has no index in
    [1, N_t), and only the solver, not a caller that need not plan, refuses it."""
    xi_a, xi_r, xi_theta = targets
    for name, xi in (("curving", xi_a), ("distance", xi_r)):
        if not (0 < xi < 1):
            raise ValueError(f"codebook.targets: the {name} correlation target must "
                             "lie strictly in (0, 1)")
    if xi_theta != 0:
        raise ValueError("codebook.targets: only orthogonal angle sampling (target 0) "
                         "is supported; choose the null via codebook.angle_index")
    n = scenario.tx.num_elements
    if angle_index is not None and not 1 <= angle_index < n:
        raise ValueError(f"codebook.angle_index, scenario.tx_elements: angle_index must "
                         f"lie in [1, N_t) with N_t = {n}, got {angle_index}")
    a_lim = float(curving_range[1])
    if not (a_lim > 0) or curving_range[0] != -a_lim:
        raise ValueError("codebook.curving_range: must be symmetric (-A, +A) with A > 0")
    if r_min is not None and not (0 < r_min <= scenario.link_distance):
        raise ValueError("codebook.r_min_m: must lie in (0, link_distance]")


def solve_sampling_plan(targets, scenario: ScenarioConfig,
                        curving_range=(-4.0, 4.0), angle_index: int = 1,
                        r_min: float | None = None) -> SamplingPlan:
    """Solve the per-axis sampling intervals and lay out the beam grids.

    targets = (xi_a, xi_r, xi_theta): envelope levels, in the paper's
    normalization, for the curving and distance axes in (0, 1), and 0 for
    the angle axis (orthogonal angular sampling at the angle_index-th
    Dirichlet null). Each envelope is inverted at its target (the rebound
    peak past the first crossing; see the module docstring) and the solved
    argument becomes an interval through `_design_interval`. Adjacent
    codewords then correlate at the plan's `adjacent_correlations`, above
    the targets (0.790 and 0.363 at targets 0.4 and 0.15). Each error names
    the config key it comes from.
    """
    check_plan_options(targets, scenario, curving_range, angle_index, r_min)
    xi_a, xi_r, xi_theta = targets
    n = scenario.tx.num_elements
    a_lim = float(curving_range[1])
    d_link = scenario.link_distance
    r_lo = d_link / 4 if r_min is None else float(r_min)

    sup_a = airy_cos_integral(1.0)  # global max of the cubic-phase primitive
    x_a, x_a_first = invert_oscillatory_envelope(
        curving_correlation_closed, xi_a, sup_a,
        airy_cos_lobe_nodes(max(4.0, (sup_a / 1e-3) ** 0.5)))
    x_r, x_r_first = invert_oscillatory_envelope(
        distance_correlation_closed, xi_r, FRESNEL_PRIMITIVE_SUP, fresnel_lobe_nodes(60.0))
    gamma = 2 * math.pi * angle_index / n

    d = scenario.tx.spacing
    s_a = _design_interval(x_a, 3, d, n)
    s_r = _design_interval(x_r, 2, d, n)
    s_theta = 2.0 * angle_index / n

    half = int(math.floor(a_lim / s_a + 1e-9))
    curving_values = np.arange(-half, half + 1, dtype=float) * s_a

    inv = 1.0 / d_link
    focus = []
    while True:
        r_k = 1.0 / inv
        if r_k < r_lo - 1e-12:
            break
        focus.append(r_k)
        inv += s_r
    focus_distances = np.array(focus)

    angles = angle_grid(n, angle_index)

    return SamplingPlan(
        target_correlations=(xi_a, xi_r, xi_theta),
        solved_parameters=(x_a, x_r, gamma),
        intervals=(s_a, s_r, s_theta),
        adjacent_correlations=_adjacent_correlations(scenario, s_a, s_r),
        first_crossings=(x_a_first, x_r_first),
        curving_values=curving_values,
        focus_distances=focus_distances,
        angles=angles,
    )


def build_exhaustive_codebook(plan: SamplingPlan, scenario: ScenarioConfig) -> Codebook:
    """Full Cartesian (curving, distance, angle) codebook, lexicographic order."""
    grid = np.meshgrid(plan.focus_distances, plan.angles, indexing="ij")
    points = np.stack([g.ravel() for g in grid], axis=1)
    return product_codebook(plan.curving_values, points, scenario.tx, scenario.carrier)


def build_los_region_points(scenario: ScenarioConfig, plan: SamplingPlan) -> np.ndarray:
    """[P, 2] (r, theta) grid points lying in the strip between the apertures.

    The strip is 0 <= r*cos(theta) <= link_distance with transverse offset
    at most half the larger aperture length. Points are distance-major, as
    in the plan's grid; cos and sin come from `math` once per angle.
    """
    half_width = max(scenario.tx.length, scenario.rx.length) / 2
    d_link = scenario.link_distance
    angles = plan.angles.tolist()
    r = plan.focus_distances[:, None]
    axial = r * np.array([math.cos(th) for th in angles], dtype=float)
    lateral = r * np.array([math.sin(th) for th in angles], dtype=float)
    inside = ((-1e-12 <= axial) & (axial <= d_link + 1e-9)
              & (np.abs(lateral) <= half_width + 1e-12))
    ri, ti = np.nonzero(inside)
    return np.column_stack([plan.focus_distances[ri], plan.angles[ti]])


def _curving_sweep(plan: SamplingPlan, tx: ArrayConfig, carrier: CarrierConfig):
    """Stage-2 factory: every planned curving at a stage-1 focusing point."""
    cubic = curving_factors(plan.curving_values, tx, carrier)

    def stage2_factory(r_f: float, theta_f: float) -> Codebook:
        return Codebook(plan.curving_values, np.array([[r_f, theta_f]]), cubic,
                        focus_terms(r_f, theta_f, tx, carrier))
    return stage2_factory


def build_hierarchical_codebooks(plan: SamplingPlan, scenario: ScenarioConfig):
    """Stage 1: focusing beams over the aperture strip; stage 2: curving sweep."""
    tx, carrier = scenario.tx, scenario.carrier
    pts = build_los_region_points(scenario, plan)
    return product_codebook([0.0], pts, tx, carrier), _curving_sweep(plan, tx, carrier)


def build_low_complexity_codebooks(scenario: ScenarioConfig, plan: SamplingPlan):
    """Stage 1 rides the circle through the receiver: cos(theta)/r = 1/D."""
    tx, carrier = scenario.tx, scenario.carrier
    d_link = scenario.link_distance
    half_width = max(scenario.tx.length, scenario.rx.length) / 2
    theta_lim = math.atan(half_width / d_link)
    sin_lim = math.sin(theta_lim)
    step = plan.intervals[2]
    sines = []
    s_val = -sin_lim
    while s_val <= sin_lim + 1e-12:
        sines.append(s_val)
        s_val += step
    points = [(d_link * math.cos(math.asin(s)), math.asin(s)) for s in sines]
    return product_codebook([0.0], points, tx, carrier), _curving_sweep(plan, tx, carrier)


def build_farfield_codebook(scenario: ScenarioConfig,
                            plan: SamplingPlan | None = None) -> Codebook:
    """Angle-only steering codebook over the orthogonal angle grid."""
    angles = plan.angles if plan is not None else angle_grid(scenario.tx.num_elements)
    return product_codebook([0.0], [(math.inf, th) for th in angles], scenario.tx,
                            scenario.carrier)


def build_nearfield_codebook(scenario: ScenarioConfig) -> Codebook:
    """Focusing beams aimed at each receiver element; overhead equals N_r."""
    d_link = scenario.link_distance
    points = []
    for y in element_positions(scenario.rx):
        dy = y - scenario.tx.center_offset
        points.append((math.hypot(d_link, dy), math.atan2(dy, d_link)))
    return product_codebook([0.0], points, scenario.tx, scenario.carrier)
