"""Beam-correlation analysis, sampling-interval solver, codebook builders.

Adjacent-codeword correlation along each beam parameter axis collapses to
a one-dimensional envelope in a normalized separation variable:

* curving axis:  C = |A(x)/x|, A the cubic-phase cosine integral;
* distance axis: C = |(B + jD)(x)|/x, Fresnel integrals;
* angle axis:    C = Dirichlet kernel magnitude (exact, not approximate).

The solver inverts the first two envelopes at the target correlations.
These envelopes are oscillatory: past the first dip below the target they
rebound before decaying for good. The solver reports the location of the
highest rebound peak beyond the first crossing (the level at which
residual correlation between non-adjacent codewords peaks); for a target
the envelope reaches monotonically this reduces to the plain first-descent
root. Design intervals follow the envelope variables directly
(s_a = x_a^3/(d^2 N^3), s_r = x_r^2/(d N^2), s_th = 2u/N); the plan also
records calibration-free empirical intervals found by inverting the exact
numeric correlation, which come out about 2*lambda/d times the design
formula evaluated at the first crossing (see README).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .beam import (
    BeamParams,
    BeamVector,
    airy_beam_matrix,
    airy_beam_vector,
    focusing_beam_vector,
)
from .numerics import (
    airy_cos_integral,
    airy_cos_integral_table,
    airy_cos_lobe_nodes,
    fresnel_integrals,
    fresnel_lobe_nodes,
    invert_oscillatory_envelope,
    solve_monotone_root,
)
from .scenario import ArrayConfig, CarrierConfig, ScenarioConfig, element_positions


def beam_correlation_numeric(v1: BeamVector, v2: BeamVector) -> float:
    """|<v1, v2>| for unit-norm codewords; 1 iff equal up to global phase."""
    if v1.weights.shape != v2.weights.shape:
        raise ValueError("codeword length mismatch")
    return float(abs(np.vdot(v1.weights, v2.weights)))


def curving_correlation_closed(x: float) -> float:
    """Correlation envelope for two same-focus beams vs normalized curving gap."""
    if x < 0:
        raise ValueError("separation must be >= 0")
    if x < 1e-9:
        return 1.0
    return abs(airy_cos_integral(x) / x)


def distance_correlation_closed(x: float) -> float:
    """Correlation envelope for two same-angle focusing beams vs normalized distance gap."""
    if x < 0:
        raise ValueError("separation must be >= 0")
    if x < 1e-9:
        return 1.0
    b, d = fresnel_integrals(x)
    return math.hypot(b, d) / x


def angle_correlation_closed(x: float, num_elements: int) -> float:
    """Dirichlet-kernel correlation of two steering beams vs normalized angle gap.

    Exact for the discrete array (zeros at x = 2*pi*u/N).
    """
    s = math.sin(x / 2)
    if abs(s) < 1e-12:
        return 1.0
    return abs(math.sin(num_elements * x / 2) / (num_elements * s))


def normalized_curving_separation(delta_a: float, array: ArrayConfig,
                                  carrier: CarrierConfig) -> float:
    """Map a curving-coefficient gap to the cubic envelope's argument."""
    alpha = 2 / carrier.wavelength * abs(delta_a) * array.spacing**3
    return (2 * alpha) ** (1 / 3) * array.num_elements / 2


def normalized_distance_separation(r1: float, r2: float, focus_angle: float,
                                   array: ArrayConfig, carrier: CarrierConfig) -> float:
    """Map a focus-distance gap to the Fresnel envelope's argument."""
    inv_gap = abs((0.0 if math.isinf(r1) else 1 / r1) -
                  (0.0 if math.isinf(r2) else 1 / r2))
    beta = math.cos(focus_angle) ** 2 / carrier.wavelength * inv_gap * array.spacing**2
    return math.sqrt(2 * beta) * array.num_elements / 2


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
    empirical_intervals: tuple  # numeric-inversion intervals (da, d(1/r), d sin)
    first_crossings: tuple      # first-descent envelope crossings (curving, distance)
    curving_range: tuple        # requested symmetric range (-A, +A)
    r_max: float
    r_min: float
    angle_index: int
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


class CodebookScheme(enum.Enum):
    EXHAUSTIVE = "Exhaustive"
    HIERARCHICAL_STAGE1 = "HierarchicalStage1"
    HIERARCHICAL_STAGE2 = "HierarchicalStage2"
    LOW_COMPLEXITY_STAGE1 = "LowComplexityStage1"
    LOW_COMPLEXITY_STAGE2 = "LowComplexityStage2"
    FAR_FIELD_STEERING = "FarFieldSteering"
    NEAR_FIELD_FOCUSING = "NearFieldFocusing"


@dataclass(frozen=True)
class Codebook:
    """T codewords: column t of `weights` [N_t, T] is the beam whose
    (curving, focus_distance, focus_angle) are row t of `params` [T, 3]."""

    scheme: CodebookScheme
    params: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.params.ndim != 2 or self.params.shape[1] != 3:
            raise ValueError("codebook params must be a [T, 3] array")
        if self.weights.ndim != 2 or self.weights.shape[1] != self.params.shape[0]:
            raise ValueError("codebook weights must have one column per params row")

    def __len__(self) -> int:
        return self.params.shape[0]

    def word(self, i: int) -> BeamVector:
        """Codeword i as a standalone beam (its weights copied out of the book)."""
        return BeamVector(BeamParams(*self.params[i]), self.weights[:, i].copy())


def _codebook(scheme: CodebookScheme, params, tx: ArrayConfig,
              carrier: CarrierConfig) -> Codebook:
    """Synthesize the codewords of a list or array of (a, r, theta) rows."""
    prm = np.array(params, dtype=float).reshape(-1, 3)
    return Codebook(scheme, prm, airy_beam_matrix(prm, tx, carrier))


def _curving_envelope_pair():
    env = curving_correlation_closed

    def batch(grid):
        vals = airy_cos_integral_table(grid)
        return np.abs(vals / np.where(grid > 0, grid, 1.0))

    sup = airy_cos_integral(1.0)  # global max of the cubic-phase primitive
    nodes = airy_cos_lobe_nodes(max(4.0, (sup / 1e-3) ** 0.5))
    return env, batch, sup, nodes


def _distance_envelope_pair():
    env = distance_correlation_closed

    def batch(grid):
        b, d = fresnel_integrals(grid)
        return np.hypot(b, d) / np.where(grid > 0, grid, 1.0)

    probe = np.linspace(0.0, 40.0, 40001)
    b, d = fresnel_integrals(probe)
    sup = float(np.hypot(b, d).max())
    return env, batch, sup, fresnel_lobe_nodes(60.0)


def _first_crossing_of_curve(f, target: float, step: float,
                             max_steps: int = 100000) -> float:
    """First downward crossing of target by f, scanned from 0 in fixed steps."""
    prev_x, prev_v = 0.0, f(0.0)
    if prev_v < target:
        raise ValueError("curve starts below the target")
    for k in range(1, max_steps + 1):
        x = k * step
        v = f(x)
        if v < target:
            return solve_monotone_root(f, target, (prev_x, x))
        prev_x, prev_v = x, v
    raise ValueError("no crossing found within the scan range")


def _empirical_intervals(targets, scenario: ScenarioConfig, design_intervals,
                         angle_index: int):
    """Invert the exact numeric correlation along each axis (first crossing).

    First-crossing semantics makes the round trip exact: plugging the
    returned interval back into the numeric correlation recovers the
    target. The angle axis returns the u-th Dirichlet null.
    """
    tx, carrier = scenario.tx, scenario.carrier
    d_link = scenario.link_distance
    xi_a, xi_r, _ = targets
    s_a, s_r, _ = design_intervals

    ref_a = airy_beam_vector(BeamParams(0.0, d_link, 0.0), tx, carrier)

    def corr_curving(delta):
        if delta == 0:
            return 1.0
        v = airy_beam_vector(BeamParams(delta, d_link, 0.0), tx, carrier)
        return beam_correlation_numeric(ref_a, v)

    da = _first_crossing_of_curve(corr_curving, xi_a, step=s_a / 4)

    def corr_distance(inv_gap):
        if inv_gap == 0:
            return 1.0
        r2 = 1.0 / (1.0 / d_link + inv_gap)
        v = focusing_beam_vector(r2, 0.0, tx, carrier)
        return beam_correlation_numeric(ref_a, v)

    dinv = _first_crossing_of_curve(corr_distance, xi_r, step=s_r / 4)

    # steering-beam correlation is the exact Dirichlet kernel; its u-th
    # null in sin(angle) is 2u/N by construction
    dsin = 2.0 * angle_index / tx.num_elements
    return (da, dinv, dsin)


def angle_grid(num_elements: int, angle_index: int = 1) -> np.ndarray:
    """Angles whose sines sit on the -1 + m*(2*angle_index/N) lattice.

    The grid steps between Dirichlet-kernel nulls, so adjacent steering
    beams are exactly orthogonal.  The lattice endpoints sin(theta) = +-1
    are excluded (endfire is outside the steerable range).
    """
    step = 2.0 * angle_index / num_elements
    sines = []
    s_val = -1.0 + step
    while s_val < 1.0 - 1e-12:
        sines.append(s_val)
        s_val += step
    return np.arcsin(np.array(sines))


def solve_sampling_plan(targets, scenario: ScenarioConfig,
                        curving_range=(-4.0, 4.0), angle_index: int = 1,
                        r_min: float | None = None) -> SamplingPlan:
    """Solve the per-axis sampling intervals and lay out the beam grids.

    targets = (xi_a, xi_r, xi_theta): adjacent-codeword correlation targets
    for the curving and distance axes in (0, 1), and 0 for the angle axis
    (orthogonal angular sampling at the angle_index-th Dirichlet null).
    """
    xi_a, xi_r, xi_theta = targets
    for name, xi in (("curving", xi_a), ("distance", xi_r)):
        if not (0 < xi < 1):
            raise ValueError(f"{name} correlation target must lie strictly in (0, 1)")
    if xi_theta != 0:
        raise ValueError("only orthogonal angle sampling (target 0) is supported; "
                         "choose the null via angle_index")
    if angle_index < 1 or angle_index >= scenario.tx.num_elements:
        raise ValueError("angle_index must lie in [1, N_t)")
    a_lim = float(curving_range[1])
    if not (a_lim > 0) or curving_range[0] != -a_lim:
        raise ValueError("curving_range must be symmetric (-A, +A) with A > 0")

    n = scenario.tx.num_elements
    d = scenario.tx.spacing
    d_link = scenario.link_distance

    env_a, batch_a, sup_a, nodes_a = _curving_envelope_pair()
    x_a, x_a_first = invert_oscillatory_envelope(env_a, xi_a, sup_a, nodes_a,
                                                 batch_envelope=batch_a)
    env_r, batch_r, sup_r, nodes_r = _distance_envelope_pair()
    x_r, x_r_first = invert_oscillatory_envelope(env_r, xi_r, sup_r, nodes_r,
                                                 batch_envelope=batch_r)
    gamma = 2 * math.pi * angle_index / n

    s_a = x_a**3 / (d**2 * n**3)
    s_r = x_r**2 / (d * n**2)
    s_theta = 2.0 * angle_index / n

    empirical = _empirical_intervals(targets, scenario, (s_a, s_r, s_theta),
                                     angle_index)

    half = int(math.floor(a_lim / s_a + 1e-9))
    curving_values = np.arange(-half, half + 1, dtype=float) * s_a

    r_lo = d_link / 4 if r_min is None else float(r_min)
    if not (0 < r_lo <= d_link):
        raise ValueError("r_min must lie in (0, link_distance]")
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
        empirical_intervals=empirical,
        first_crossings=(x_a_first, x_r_first),
        curving_range=(-a_lim, a_lim),
        r_max=d_link,
        r_min=r_lo,
        angle_index=angle_index,
        curving_values=curving_values,
        focus_distances=focus_distances,
        angles=angles,
    )


def build_exhaustive_codebook(plan: SamplingPlan, scenario: ScenarioConfig) -> Codebook:
    """Full Cartesian (curving, distance, angle) codebook, lexicographic order."""
    grid = np.meshgrid(plan.curving_values, plan.focus_distances, plan.angles,
                       indexing="ij")
    params = np.stack([g.ravel() for g in grid], axis=1)
    return _codebook(CodebookScheme.EXHAUSTIVE, params, scenario.tx, scenario.carrier)


def build_los_region_points(scenario: ScenarioConfig, plan: SamplingPlan) -> list:
    """(r, theta) grid points lying in the strip between the apertures.

    The strip is 0 <= r*cos(theta) <= link_distance with transverse offset
    at most half the larger aperture length.
    """
    half_width = max(scenario.tx.length, scenario.rx.length) / 2
    d_link = scenario.link_distance
    pts = []
    for r in plan.focus_distances:
        for th in plan.angles:
            axial = r * math.cos(th)
            if -1e-12 <= axial <= d_link + 1e-9 and abs(r * math.sin(th)) <= half_width + 1e-12:
                pts.append((float(r), float(th)))
    return pts


def _curving_sweep(scheme: CodebookScheme, plan: SamplingPlan, tx: ArrayConfig,
                   carrier: CarrierConfig):
    """Stage-2 factory: every planned curving at a stage-1 focusing point."""
    def stage2_factory(r_f: float, theta_f: float) -> Codebook:
        params = [(a, r_f, theta_f) for a in plan.curving_values]
        return _codebook(scheme, params, tx, carrier)
    return stage2_factory


def build_hierarchical_codebooks(plan: SamplingPlan, scenario: ScenarioConfig):
    """Stage 1: focusing beams over the aperture strip; stage 2: curving sweep."""
    tx, carrier = scenario.tx, scenario.carrier
    pts = build_los_region_points(scenario, plan)
    stage1 = _codebook(CodebookScheme.HIERARCHICAL_STAGE1,
                       [(0.0, r, th) for r, th in pts], tx, carrier)
    return stage1, _curving_sweep(CodebookScheme.HIERARCHICAL_STAGE2, plan, tx, carrier)


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
    params = [(0.0, d_link * math.cos(math.asin(s)), math.asin(s)) for s in sines]
    stage1 = _codebook(CodebookScheme.LOW_COMPLEXITY_STAGE1, params, tx, carrier)
    return stage1, _curving_sweep(CodebookScheme.LOW_COMPLEXITY_STAGE2, plan, tx,
                                  carrier)


def build_farfield_codebook(scenario: ScenarioConfig,
                            plan: SamplingPlan | None = None) -> Codebook:
    """Angle-only steering codebook over the orthogonal angle grid."""
    angles = plan.angles if plan is not None else angle_grid(scenario.tx.num_elements)
    return _codebook(CodebookScheme.FAR_FIELD_STEERING,
                     [(0.0, math.inf, th) for th in angles], scenario.tx,
                     scenario.carrier)


def build_nearfield_codebook(scenario: ScenarioConfig) -> Codebook:
    """Focusing beams aimed at each receiver element; overhead equals N_r."""
    d_link = scenario.link_distance
    params = []
    for y in element_positions(scenario.rx):
        dy = y - scenario.tx.center_offset
        params.append((0.0, math.hypot(d_link, dy), math.atan2(dy, d_link)))
    return _codebook(CodebookScheme.NEAR_FIELD_FOCUSING, params, scenario.tx,
                     scenario.carrier)
