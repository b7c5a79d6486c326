"""Command-line interface: config parsing, experiment execution, artifacts.

Every command resolves its YAML config, writes a manifest recording the
resolved settings (no timestamps), then writes result files under the
output directory: manifest.txt, results/*.csv, grids/*.bin.  Reruns with
the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__, _threads
from .beam import BeamParams, GridSpec, airy_beam_vector, render_field_map
from .channel import MultipathRay, channel_error
from .codebook import SamplingPlan, solve_sampling_plan
from .evaluation import (
    BeamformingScheme,
    ChannelSet,
    SweepSpec,
    SweptVariable,
    build_scheme_beamformers,
    calibrated_wave_channels,
    noise_for_target_se,
    run_search,
    run_sweep,
    scheme_codebooks,
)
from .gridio import (
    write_channel_binary,
    write_codebook_csv,
    write_field_map_binary,
    write_field_map_csv,
    write_search_trace_csv,
    write_sweep_csv,
)
from .scenario import (
    ArrayConfig,
    BlockageGeometry,
    CarrierConfig,
    ScenarioConfig,
    blocked_pairs,
)
from .search import ProbeCombiner, TrainingConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


# ---------------------------------------------------------------------------
# Config schema


@dataclass(frozen=True)
class CodebookOptions:
    targets: tuple = (0.4, 0.15, 0.0)
    curving_range: float = 4.0
    angle_index: int = 1
    r_min: float | None = None


@dataclass(frozen=True)
class TrainingOptions:
    transmit_power: float = 1.0
    noise_power: float | None = None
    target_se_bps_hz: float | None = None
    probe_combiner: str = "Omnidirectional"
    rng_seed: int = 0


@dataclass(frozen=True)
class MultipathOptions:
    rays: tuple
    los_model: str | None = "gcm"
    k_factor_db: float | None = None


@dataclass(frozen=True)
class SweepOptions:
    variable: str
    grid: tuple
    schemes: tuple
    repetitions: int = 1


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    codebook: CodebookOptions
    training: TrainingOptions
    multipath: MultipathOptions | None
    sweep: SweepOptions | None


def _section(doc: dict, name: str, required: bool = False) -> dict:
    value = doc.get(name)
    if value is None:
        if required:
            raise ConfigError(f"{name}: section is required")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: must be a mapping")
    return value


def _coerce_number(value, path: str):
    """Number, or a string YAML left unresolved (e.g. '1.4e11'); else None.

    A number that is not finite raises a ConfigError naming `path`.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        number = float(value)
    except ValueError:
        return None
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite")
    return number


def _num(section: dict, path: str, key: str, required: bool = False,
         default=None, positive: bool = False):
    if key not in section or section[key] is None:
        if required:
            raise ConfigError(f"{path}.{key}: value is required")
        return default
    value = _coerce_number(section[key], f"{path}.{key}")
    if value is None:
        raise ConfigError(f"{path}.{key}: must be a number")
    if positive and not value > 0:
        raise ConfigError(f"{path}.{key}: must be positive")
    return value


def _intval(section: dict, path: str, key: str, default=None,
            minimum: int | None = None):
    if key not in section or section[key] is None:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}")
    return value


def _load_scenario(doc: dict) -> ScenarioConfig:
    sec = _section(doc, "scenario", required=True)
    freq = _num(sec, "scenario", "frequency_hz", required=True, positive=True)
    d_link = _num(sec, "scenario", "link_distance_m", required=True, positive=True)
    n_tx = _intval(sec, "scenario", "tx_elements", minimum=1)
    if n_tx is None:
        raise ConfigError("scenario.tx_elements: value is required")
    n_rx = _intval(sec, "scenario", "rx_elements", default=n_tx, minimum=1)
    carrier = CarrierConfig(freq)

    spacing = sec.get("spacing_m", "auto")
    if spacing == "auto":
        spacing = carrier.wavelength / 2
    else:
        spacing = _coerce_number(spacing, "scenario.spacing_m")
        if spacing is None or spacing <= 0:
            raise ConfigError('scenario.spacing_m: must be "auto" or a positive number')

    blockage = None
    if sec.get("blockage") is not None:
        b = sec["blockage"]
        if not isinstance(b, dict):
            raise ConfigError("scenario.blockage: must be a mapping")
        geometry = [_num(b, "scenario.blockage", key, required=True, positive=positive)
                   for key, positive in (("distance_from_tx_m", True), ("width_m", True),
                                         ("extent_above_m", False),
                                         ("extent_below_m", False))]
        try:
            blockage = BlockageGeometry(*geometry)
        except ValueError as exc:
            raise ConfigError(f"scenario.blockage: {exc}") from exc

    planes = _intval(sec, "scenario", "virtual_planes", default=8, minimum=1)
    try:
        scenario = ScenarioConfig(
            tx=ArrayConfig(n_tx, float(spacing)),
            rx=ArrayConfig(n_rx, float(spacing)),
            carrier=carrier,
            link_distance=d_link,
            blockage=blockage,
        )
        if blockage is not None:
            scenario = scenario.with_virtual_defaults(planes)
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc
    return scenario


def _load_codebook(doc: dict) -> CodebookOptions:
    sec = _section(doc, "codebook")
    targets = sec.get("targets", [0.4, 0.15, 0.0])
    if (not isinstance(targets, (list, tuple)) or len(targets) != 3
            or any(_coerce_number(t, "codebook.targets") is None for t in targets)):
        raise ConfigError("codebook.targets: must be three numbers")
    return CodebookOptions(
        targets=tuple(_coerce_number(t, "codebook.targets") for t in targets),
        curving_range=_num(sec, "codebook", "curving_range", default=4.0, positive=True),
        angle_index=_intval(sec, "codebook", "angle_index", default=1, minimum=1),
        r_min=_num(sec, "codebook", "r_min_m", positive=True),
    )


def _load_training(doc: dict) -> TrainingOptions:
    sec = _section(doc, "training")
    noise = _num(sec, "training", "noise_power", positive=True)
    target = _num(sec, "training", "target_se_bps_hz", positive=True)
    if noise is not None and target is not None:
        raise ConfigError("training.noise_power: give either noise_power or "
                          "target_se_bps_hz, not both")
    combiner = sec.get("probe_combiner", "Omnidirectional")
    if combiner not in ("Omnidirectional", "FullArrayNorm"):
        raise ConfigError("training.probe_combiner: must be Omnidirectional "
                          "or FullArrayNorm")
    return TrainingOptions(
        transmit_power=_num(sec, "training", "transmit_power", default=1.0,
                            positive=True),
        noise_power=noise,
        target_se_bps_hz=target,
        probe_combiner=combiner,
        rng_seed=_intval(sec, "training", "rng_seed", default=0),
    )


def _load_multipath(doc: dict) -> MultipathOptions | None:
    if doc.get("multipath") is None:
        return None
    sec = _section(doc, "multipath")
    raw_rays = sec.get("rays")
    if not isinstance(raw_rays, list) or not raw_rays:
        raise ConfigError("multipath.rays: must be a non-empty list")
    rays = []
    for i, r in enumerate(raw_rays):
        if not isinstance(r, dict):
            raise ConfigError(f"multipath.rays[{i}]: must be a mapping")
        path = f"multipath.rays[{i}]"
        values = [_num(r, path, key, required=True)
                  for key in ("gain_db", "departure_angle_rad", "arrival_angle_rad",
                              "excess_delay_s")]
        try:
            rays.append(MultipathRay(*values))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    los_model = sec.get("los_model", "gcm")
    if los_model in ("none", "None"):
        los_model = None
    if los_model not in (None, "gcm", "wcm", "cgwcm"):
        raise ConfigError("multipath.los_model: must be gcm, wcm, cgwcm, or none")
    k_factor = _num(sec, "multipath", "k_factor_db")
    if los_model is None and k_factor is not None:
        raise ConfigError("multipath.k_factor_db: needs a direct path; "
                          "los_model none has none")
    return MultipathOptions(rays=tuple(rays), los_model=los_model, k_factor_db=k_factor)


_SCHEME_ALIASES = {
    **{s.value: s for s in BeamformingScheme},
    "hier": BeamformingScheme.HIERARCHICAL,
    "lowc": BeamformingScheme.LOW_COMPLEXITY,
    "ff": BeamformingScheme.FARFIELD_STEERING,
    "nf": BeamformingScheme.NEARFIELD_FOCUSING,
    "perfect": BeamformingScheme.PERFECT_CSI,
    "nonblocked": BeamformingScheme.NON_BLOCKED,
    "nlos": BeamformingScheme.NLOS_ONLY,
}

# --scheme values of the codebook and search commands.
_SEARCH_CHOICES = ("exhaustive", "hier", "lowc", "ff", "nf")

_VARIABLE_ALIASES = {
    "height": SweptVariable.BLOCKAGE_HEIGHT,
    "distance": SweptVariable.BLOCKAGE_DISTANCE,
    "overhead": SweptVariable.OVERHEAD,
    "power": SweptVariable.TRANSMIT_POWER,
}


def _load_sweep(doc: dict) -> SweepOptions | None:
    if doc.get("sweep") is None:
        return None
    sec = _section(doc, "sweep")
    variable = sec.get("variable")
    if not isinstance(variable, str) or variable not in _VARIABLE_ALIASES:
        raise ConfigError("sweep.variable: must be height, distance, overhead, "
                          "or power")
    grid = sec.get("grid")
    if (not isinstance(grid, list) or not grid
            or any(_coerce_number(g, "sweep.grid") is None for g in grid)):
        raise ConfigError("sweep.grid: must be a non-empty list of numbers")
    grid = tuple(_coerce_number(g, "sweep.grid") for g in grid)
    if _VARIABLE_ALIASES[variable] is SweptVariable.OVERHEAD and not all(
            g.is_integer() and g >= 1 for g in grid):
        raise ConfigError("sweep.grid: overhead budgets must be integers >= 1")
    schemes = sec.get("schemes")
    if not isinstance(schemes, list) or not schemes:
        raise ConfigError("sweep.schemes: must be a non-empty list")
    for s in schemes:
        if not isinstance(s, str) or s not in _SCHEME_ALIASES:
            raise ConfigError(f"sweep.schemes: unknown scheme {s!r}")
        if (_SCHEME_ALIASES[s] is BeamformingScheme.NLOS_ONLY
                and doc.get("multipath") is None):
            raise ConfigError(f"sweep.schemes: {s} needs a multipath section")
    return SweepOptions(
        variable=variable,
        grid=grid,
        schemes=tuple(schemes),
        repetitions=_intval(sec, "sweep", "repetitions", default=1, minimum=1),
    )


def load_config(path) -> RunConfig:
    import yaml

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a mapping")
    return RunConfig(
        scenario=_load_scenario(doc),
        codebook=_load_codebook(doc),
        training=_load_training(doc),
        multipath=_load_multipath(doc),
        sweep=_load_sweep(doc),
    )


# ---------------------------------------------------------------------------
# Shared command plumbing


def build_channel_set(cfg: RunConfig, scenario: ScenarioConfig | None = None) -> ChannelSet:
    sc = cfg.scenario if scenario is None else scenario
    mp = cfg.multipath
    if mp is None:
        return calibrated_wave_channels(sc)
    return calibrated_wave_channels(sc, mp.los_model, mp.rays, mp.k_factor_db)


def resolve_training(cfg: RunConfig, channels: ChannelSet,
                     seed_override: int | None = None) -> TrainingConfig:
    opts = cfg.training
    noise = opts.noise_power
    if noise is None:
        target = opts.target_se_bps_hz if opts.target_se_bps_hz is not None else 15.0
        noise = noise_for_target_se(channels.non_blocked, opts.transmit_power,
                                    target)
    seed = opts.rng_seed if seed_override is None else seed_override
    return TrainingConfig(
        transmit_power=opts.transmit_power,
        noise_power=noise,
        rx_probe_combiner=ProbeCombiner(opts.probe_combiner),
        rng_seed=seed,
    )


def solve_plan(cfg: RunConfig) -> SamplingPlan:
    cb = cfg.codebook
    return solve_sampling_plan(
        cb.targets, cfg.scenario,
        curving_range=(-cb.curving_range, cb.curving_range),
        angle_index=cb.angle_index, r_min=cb.r_min,
    )


def _scenario_lines(sc: ScenarioConfig):
    lines = [
        "[scenario]",
        f"frequency_hz: {sc.carrier.frequency!r}",
        f"wavelength_m: {sc.carrier.wavelength!r}",
        f"link_distance_m: {sc.link_distance!r}",
        f"tx_elements: {sc.tx.num_elements}",
        f"rx_elements: {sc.rx.num_elements}",
        f"spacing_m: {sc.tx.spacing!r}",
    ]
    if sc.blockage is None:
        lines.append("blockage: none")
    else:
        b = sc.blockage
        lines.append(f"blockage: distance_from_tx_m={b.distance_from_tx!r} "
                     f"width_m={b.width_along_axis!r} "
                     f"extent_above_m={b.extent_above!r} "
                     f"extent_below_m={b.extent_below!r}")
    if sc.virtual_arrays is not None:
        v = sc.virtual_arrays
        lines.append(f"virtual_arrays: count={v.count} "
                     f"elements_per_array={v.elements_per_array} "
                     f"plane_spacing_m={v.plane_spacing!r}")
    return lines


def write_manifest(out_dir: Path, config_path, train: TrainingConfig | None,
                   scenario: ScenarioConfig, plan: SamplingPlan | None,
                   extra_lines=()) -> None:
    lines = [
        f"tool: airylink {__version__}",
        f"config: {config_path}",
        f"output_dir: {out_dir}",
    ]
    lines.append("")
    lines.extend(_scenario_lines(scenario))
    if train is not None:
        lines += [
            "",
            "[training]",
            f"transmit_power: {train.transmit_power!r}",
            f"noise_power: {train.noise_power!r}",
            f"probe_combiner: {train.rx_probe_combiner.value}",
            f"seed: {train.rng_seed}",
        ]
    if plan is not None:
        j, k, v = plan.counts
        lines += [
            "",
            "[sampling_plan]",
            f"summary: {plan.describe()}",
            f"empirical_intervals: {tuple(plan.empirical_intervals)!r}",
            f"grid_counts: curving={j} distance={k} angle={v}",
        ]
    if extra_lines:
        lines += ["", "[run]", *extra_lines]
    (out_dir / "manifest.txt").write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _prepare_out(out: str) -> Path:
    out_dir = Path(out)
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    (out_dir / "grids").mkdir(parents=True, exist_ok=True)
    return out_dir


# ---------------------------------------------------------------------------
# Commands


def cmd_channel(args) -> int:
    cfg = load_config(args.config)
    sc = cfg.scenario
    models = ["gcm", "wcm", "cgwcm"] if args.compare else [args.model]
    built = {model: calibrated_wave_channels(sc, model).blocked for model in models}
    out_dir = _prepare_out(args.out)
    write_manifest(out_dir, args.config, None, sc, None,
                   [f"command: channel", f"models: {','.join(models)}"])

    for model in models:
        write_channel_binary(out_dir / "grids" / f"channel_{model}.bin", built[model])

    frac = float(blocked_pairs(sc).mean())
    lines = ["model,frobenius_norm,blocked_pair_fraction,relative_error_vs_wcm,error_db"]
    for model in models:
        err = ""
        err_db = ""
        if args.compare and model != "wcm":
            e = channel_error(built[model], built["wcm"])
            err = repr(e)
            err_db = repr(20.0 * math.log10(e)) if e > 0 else "-inf"
        norm = float(abs(built[model].frobenius))
        lines.append(f"{model},{norm!r},{frac!r},{err},{err_db}")
        print(f"{model}: frobenius_norm={norm!r} blocked_pair_fraction={frac!r}"
              + (f" err_vs_wcm={err}" if err else ""))
    (out_dir / "results" / "channel_summary.csv").write_bytes(
        ("\n".join(lines) + "\n").encode("utf-8"))
    return 0


def _fieldmap_inputs(args, sc) -> tuple:
    """The beam and the grid of `fieldmap`; each error names its option."""
    for option in ("curving", "focus_angle", "xmin", "xmax", "ymin", "ymax"):
        value = getattr(args, option)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{option.replace('_', '-')} must be finite")
    if args.nx < 1:
        raise ValueError("--nx must be at least 1")
    if args.ny < 2:
        raise ValueError("--ny must be at least 2")
    focus = args.focus_distance if args.focus_distance is not None else sc.link_distance
    if not focus > 0:
        raise ValueError("--focus-distance must be positive (inf allowed)")
    if not abs(args.focus_angle) < math.pi / 2:
        raise ValueError("--focus-angle must lie in (-pi/2, pi/2)")
    half = max(abs(sc.tx.span[0]), abs(sc.tx.span[1]),
               abs(sc.rx.span[0]), abs(sc.rx.span[1]))
    y_lim = 1.5 * half
    x_min = args.xmin if args.xmin is not None else sc.link_distance / args.nx
    x_max = args.xmax if args.xmax is not None else sc.link_distance
    y_min = args.ymin if args.ymin is not None else -y_lim
    y_max = args.ymax if args.ymax is not None else y_lim
    if not x_min > 0:
        raise ValueError("--xmin must be > 0: the aperture plane is x = 0")
    if not (x_max > x_min or (args.nx == 1 and x_max == x_min)):
        raise ValueError(f"--xmax must exceed --xmin ({x_min!r} m), "
                         "or equal it when --nx is 1")
    if x_max > sc.link_distance + 1e-12:
        raise ValueError(f"--xmax must not exceed the link distance ({sc.link_distance!r} m)")
    if not y_max > y_min:
        raise ValueError(f"--ymax must exceed --ymin ({y_min!r} m)")
    return (BeamParams(args.curving, focus, args.focus_angle),
            GridSpec(x_min, x_max, args.nx, y_min, y_max, args.ny))


def cmd_fieldmap(args) -> int:
    cfg = load_config(args.config)
    sc = cfg.scenario
    params, grid = _fieldmap_inputs(args, sc)
    out_dir = _prepare_out(args.out)
    write_manifest(out_dir, args.config, None, sc, None, [
        "command: fieldmap",
        f"beam: curving={params.curving!r} focus_distance_m={params.focus_distance!r} "
        f"focus_angle_rad={params.focus_angle!r}",
        f"grid: x=[{grid.x_min!r}, {grid.x_max!r}] nx={grid.num_x} "
        f"y=[{grid.y_min!r}, {grid.y_max!r}] ny={grid.num_y}",
    ])
    beam = airy_beam_vector(params, sc.tx, sc.carrier)
    fmap = render_field_map(beam, sc, grid)
    write_field_map_csv(out_dir / "results" / "fieldmap.csv", fmap)
    write_field_map_binary(out_dir / "grids" / "fieldmap.bin", fmap)
    px, py = fmap.peak()
    print(f"peak: x={px!r} y={py!r}")
    return 0


def cmd_codebook(args) -> int:
    cfg = load_config(args.config)
    sc = cfg.scenario
    out_dir = _prepare_out(args.out)
    plan = solve_plan(cfg)
    write_manifest(out_dir, args.config, None, sc, plan,
                   [f"command: codebook", f"scheme: {args.scheme}"])

    results = out_dir / "results"
    scheme = _SCHEME_ALIASES[args.scheme]
    built = scheme_codebooks(scheme, sc, plan)
    if len(built) == 1:
        books = {f"codebook_{scheme.value}.csv": built[0]}
    else:  # a two-stage scheme: stage 1, and stage 2 at the on-axis focus
        stage1, factory = built
        books = {f"codebook_{args.scheme}_stage1.csv": stage1,
                 f"codebook_{args.scheme}_stage2_on_axis.csv":
                     factory(sc.link_distance, 0.0)}
    for name, book in books.items():
        write_codebook_csv(results / name, book)
        print(f"{name}: {len(book)} codewords")
    print(plan.describe())
    return 0


def cmd_search(args) -> int:
    cfg = load_config(args.config)
    sc = cfg.scenario
    channels = build_channel_set(cfg)
    train = resolve_training(cfg, channels, args.seed)
    plan = solve_plan(cfg)
    out_dir = _prepare_out(args.out)
    write_manifest(out_dir, args.config, train, sc, plan,
                   [f"command: search", f"scheme: {args.scheme}"])

    scheme = _SCHEME_ALIASES[args.scheme]
    result = run_search(scheme, channels.blocked, sc, plan, train)
    write_search_trace_csv(out_dir / "results" / "search_trace.csv", result)

    bf = build_scheme_beamformers(scheme, search_result=result,
                                  non_blocked_channel=channels.non_blocked)
    se = bf.evaluate(channels.blocked, train.transmit_power, train.noise_power)
    p = result.selected_params
    power_db = 10.0 * math.log10(result.selected_power) if result.selected_power > 0 else float("-inf")
    lines = ["scheme,overhead_slots,curving,focus_distance_m,focus_angle_rad,"
             "measured_power_db,spectral_efficiency_bps_hz",
             f"{args.scheme},{result.overhead},{p.curving!r},{p.focus_distance!r},"
             f"{p.focus_angle!r},{power_db!r},{se!r}"]
    (out_dir / "results" / "search_summary.csv").write_bytes(
        ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"selected: curving={p.curving!r} focus_distance_m={p.focus_distance!r} "
          f"focus_angle_rad={p.focus_angle!r}")
    print(f"overhead: {result.overhead} slots; spectral_efficiency: {se!r} bits/s/Hz")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if cfg.sweep is None:
        raise ConfigError("sweep: section is required for the sweep command")
    sc = cfg.scenario
    variable = _VARIABLE_ALIASES[args.sweep if args.sweep else cfg.sweep.variable]
    schemes = tuple(_SCHEME_ALIASES[s] for s in cfg.sweep.schemes)
    base_seed = args.seed if args.seed is not None else cfg.training.rng_seed
    spec = SweepSpec(variable, cfg.sweep.grid, schemes,
                     repetitions=cfg.sweep.repetitions, base_seed=base_seed)
    if sc.blockage is None and variable in (SweptVariable.BLOCKAGE_HEIGHT,
                                            SweptVariable.BLOCKAGE_DISTANCE):
        raise ConfigError(f"scenario.blockage: required by a {variable.value} sweep")

    channels = build_channel_set(cfg)
    train = resolve_training(cfg, channels, base_seed)
    needs_plan = variable is SweptVariable.OVERHEAD or any(s.searched for s in schemes)
    plan = solve_plan(cfg) if needs_plan else None
    out_dir = _prepare_out(args.out)
    write_manifest(out_dir, args.config, train, sc, plan, [
        "command: sweep",
        f"variable: {variable.value}",
        f"grid: {','.join(repr(g) for g in cfg.sweep.grid)}",
        f"schemes: {','.join(cfg.sweep.schemes)}",
        f"repetitions: {cfg.sweep.repetitions}",
    ])

    # power and overhead points are the base scenario: reuse its channels
    rows = run_sweep(spec, sc, plan, train, channel_builder=lambda point:
                     channels if point is sc else build_channel_set(cfg, point))
    write_sweep_csv(out_dir / "results" / "sweep.csv", rows)
    print(f"wrote {len(rows)} rows to {out_dir / 'results' / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airylink",
        description="Quasi-line-of-sight THz MIMO link simulator",
    )
    parser.add_argument("--version", action="version",
                        version=f"airylink {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML config path")
    common.add_argument("--out", default="airylink-out", help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config RNG seed")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("channel", parents=[common],
                       help="export a channel matrix and its summary")
    p.add_argument("--model", choices=["gcm", "wcm", "cgwcm"], default="gcm")
    p.add_argument("--compare", action="store_true",
                   help="build all models and report errors vs the wave model")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("fieldmap", parents=[common],
                       help="render a beam power map over the propagation plane")
    p.add_argument("--curving", type=float, default=0.0)
    p.add_argument("--focus-distance", type=float, default=None)
    p.add_argument("--focus-angle", type=float, default=0.0)
    p.add_argument("--nx", type=int, default=200)
    p.add_argument("--ny", type=int, default=200)
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, default=None)
    p.add_argument("--ymin", type=float, default=None)
    p.add_argument("--ymax", type=float, default=None)
    p.set_defaults(func=cmd_fieldmap)

    p = sub.add_parser("codebook", parents=[common],
                       help="solve the sampling plan and export codebooks")
    p.add_argument("--scheme", choices=_SEARCH_CHOICES, default="exhaustive")
    p.set_defaults(func=cmd_codebook)

    p = sub.add_parser("search", parents=[common],
                       help="run one beam-training search")
    p.add_argument("--scheme", choices=_SEARCH_CHOICES, default="exhaustive")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", parents=[common],
                       help="run a scenario sweep and export the result table")
    p.add_argument("--sweep", choices=["height", "distance", "overhead", "power"],
                   default=None, help="override the config sweep variable")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    _threads.apply()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
