"""Command-line interface: config parsing, experiment execution, artifacts.

Every command computes from its resolved YAML config and returns what it
found; `main` alone then writes the manifest recording the resolved
settings (no timestamps), then the result files under the output
directory: manifest.txt, results/*.csv, grids/*.bin.  Reruns with the
same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .beam import BeamParams, GridSpec, airy_beam_vector, render_field_map
from .channel import MultipathRay, channel_error
from .codebook import SamplingPlan, solve_sampling_plan
from .evaluation import (
    BeamformingScheme,
    ChannelSet,
    SweepSpec,
    SweptVariable,
    calibrated_wave_channels,
    noise_for_target_se,
    run_scheme,
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
    write_text,
)
from .scenario import (
    ArrayConfig,
    BlockageGeometry,
    CarrierConfig,
    ScenarioConfig,
    blocked_pairs,
    check_hop_phase,
    virtual_grid,
)
from .search import ProbeCombiner, TrainingConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


# ---------------------------------------------------------------------------
# Config schema
#
# A reader takes a YAML value and its dotted path and returns the value, or
# raises a ConfigError that starts with the path. Each option field names its
# reader, and its YAML key where that differs from the field name, in its
# metadata; a field without a default is a required key.


def _number(value, path: str) -> float:
    """A finite number; a string YAML left unresolved (e.g. '1.4e11') counts."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{path}: must be a number")
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{path}: must be a number") from None
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite")
    return number


def _positive(value, path: str) -> float:
    number = _number(value, path)
    if not number > 0:
        raise ConfigError(f"{path}: must be positive")
    return number


def _power_of(base: float, exponent: float) -> float:
    try:
        return base ** exponent
    except OverflowError:  # beyond the float range
        return math.inf


def _target_se(value, path: str) -> float:
    se = _positive(value, path)  # its SNR factor must stay a positive finite float
    if not 0 < _power_of(2.0, se) - 1.0 < math.inf:
        raise ConfigError(f"{path}: 2**value - 1 must be a positive finite float")
    return se


def _k_factor(value, path: str) -> float:
    k = _number(value, path)  # its power ratio must stay a normal float
    if not sys.float_info.min <= _power_of(10, k / 10) < math.inf:
        raise ConfigError(f"{path}: 10**(value/10) must be a positive normal float")
    return k


def _integer(minimum: int):
    def read(value, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: must be an integer")
        if value < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}")
        return value
    return read


def _choice(names: tuple):
    def read(value, path: str) -> str:
        if not isinstance(value, str) or value not in names:
            raise ConfigError(f"{path}: must be one of {', '.join(names)}")
        return value
    return read


def _numbers(count: int | None):
    """A list of `count` numbers, or of one or more when `count` is None."""
    def read(value, path: str) -> tuple:
        if not isinstance(value, list) or not value or len(value) != (count or len(value)):
            raise ConfigError(f"{path}: must be a list of {count or 'one or more'} numbers")
        return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))
    return read


def _rays(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: must be a non-empty list")
    rays = []
    for i, ray in enumerate(value):
        at = f"{path}[{i}]"
        if not isinstance(ray, dict):
            raise ConfigError(f"{at}: must be a mapping")
        values = [_read(ray, at, key, _number, MISSING)
                  for key in ("gain_db", "departure_angle_rad", "arrival_angle_rad",
                              "excess_delay_s")]
        try:
            rays.append(MultipathRay(*values))
        except ValueError as exc:
            raise ConfigError(f"{at}: {exc}") from exc
    return tuple(rays)


# Sweep scheme names: each scheme's value and its short name.
_SCHEME_ALIASES = {name: s for s in BeamformingScheme for name in (s.value, s.short_name)}

# --scheme values of the codebook and search commands.
_SEARCH_CHOICES = tuple(s.short_name for s in BeamformingScheme if s.searched)

# Direct-path channel models of `channel --model` and `multipath.los_model`.
_MODELS = ("gcm", "wcm", "cgwcm")


def _schemes(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: must be a non-empty list")
    for s in value:
        if not isinstance(s, str) or s not in _SCHEME_ALIASES:
            raise ConfigError(f"{path}: unknown scheme {s!r}")
    return tuple(value)


def _read(sec: dict, path: str, key: str, read, default):
    """`sec[key]` through `read`; `default` if absent or null, unless MISSING."""
    if sec.get(key) is None:
        if default is MISSING:
            raise ConfigError(f"{path}.{key}: value is required")
        return default
    return read(sec[key], f"{path}.{key}")


def _opt(read, default):
    """An option field read by `read`; a MISSING default makes its key required."""
    return field(default=default, metadata={"read": read})


@dataclass(frozen=True)
class CodebookOptions:
    targets: tuple = _opt(_numbers(3), (0.4, 0.15, 0.0))
    curving_range: float = _opt(_positive, 4.0)
    angle_index: int = _opt(_integer(1), 1)
    r_min: float | None = field(default=None,
                                metadata={"read": _positive, "key": "r_min_m"})


@dataclass(frozen=True)
class TrainingOptions:
    transmit_power: float = _opt(_positive, 1.0)
    noise_power: float | None = _opt(_positive, None)
    target_se_bps_hz: float | None = _opt(_target_se, None)
    probe_combiner: str = _opt(_choice(tuple(c.value for c in ProbeCombiner)),
                               ProbeCombiner.OMNIDIRECTIONAL.value)
    rng_seed: int = _opt(_integer(0), 0)


@dataclass(frozen=True)
class MultipathOptions:
    rays: tuple = _opt(_rays, MISSING)
    los_model: str | None = _opt(_choice((*_MODELS, "none", "None")), "gcm")
    k_factor_db: float | None = _opt(_k_factor, None)


_VARIABLES = tuple(v.value for v in SweptVariable)


@dataclass(frozen=True)
class SweepOptions:
    variable: str = _opt(_choice(_VARIABLES), MISSING)
    grid: tuple = _opt(_numbers(None), MISSING)
    schemes: tuple = _opt(_schemes, MISSING)
    repetitions: int = _opt(_integer(1), 1)


def _sweep_spec(sweep: SweepOptions, variable: str, base_seed: int) -> SweepSpec:
    """The sweep `sweep` describes, swept over `variable`; `SweepSpec` checks it."""
    return SweepSpec(SweptVariable(variable), sweep.grid,
                     tuple(_SCHEME_ALIASES[s] for s in sweep.schemes),
                     sweep.repetitions, base_seed)


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


def _load(cls, doc: dict, section: str):
    """An option section, read field by field as each field's metadata says."""
    sec = _section(doc, section)
    return cls(*(_read(sec, section, f.metadata.get("key", f.name), f.metadata["read"],
                       f.default) for f in fields(cls)))


def _load_scenario(doc: dict) -> ScenarioConfig:
    sec = _section(doc, "scenario", required=True)
    freq = _read(sec, "scenario", "frequency_hz", _positive, MISSING)
    d_link = _read(sec, "scenario", "link_distance_m", _positive, MISSING)
    n_tx = _read(sec, "scenario", "tx_elements", _integer(1), MISSING)
    n_rx = _read(sec, "scenario", "rx_elements", _integer(1), n_tx)
    planes = _read(sec, "scenario", "virtual_planes", _integer(1), 8)
    carrier = CarrierConfig(freq)
    spacing = sec.get("spacing_m")
    spacing = (carrier.wavelength / 2 if spacing in (None, "auto")
               else _positive(spacing, "scenario.spacing_m"))

    blockage = None
    if sec.get("blockage") is not None:
        b = sec["blockage"]
        if not isinstance(b, dict):
            raise ConfigError("scenario.blockage: must be a mapping")
        geometry = [_read(b, "scenario.blockage", key, read, MISSING) for key, read in (
            ("distance_from_tx_m", _positive), ("width_m", _positive),
            ("extent_above_m", _number), ("extent_below_m", _number))]
        try:
            blockage = BlockageGeometry(*geometry)
        except ValueError as exc:
            raise ConfigError(f"scenario.blockage: {exc}") from exc

    try:
        scenario = ScenarioConfig(ArrayConfig(n_tx, spacing), ArrayConfig(n_rx, spacing),
                                  carrier, d_link, blockage)
        if blockage is not None:
            scenario = scenario.with_virtual_defaults(planes)
    except ValueError as exc:
        named = str(exc).startswith("scenario.")  # a rule that names its keys
        raise ConfigError(str(exc) if named else f"scenario: {exc}") from exc
    return scenario


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
    scenario = _load_scenario(doc)
    codebook = _load(CodebookOptions, doc, "codebook")
    training = _load(TrainingOptions, doc, "training")
    optional = {"multipath": MultipathOptions, "sweep": SweepOptions}
    multipath, sweep = (None if doc.get(name) is None else _load(cls, doc, name)
                        for name, cls in optional.items())

    # Rules across fields and sections; the codebook's are the sampling plan's.
    xi_a, xi_r, xi_theta = codebook.targets
    if not (0 < xi_a < 1 and 0 < xi_r < 1 and xi_theta == 0):
        raise ConfigError("codebook.targets: the first two must lie in (0, 1), "
                          "the third must be 0")
    n_tx = scenario.tx.num_elements
    if n_tx > 1 and codebook.angle_index >= n_tx:  # one element has no angle grid
        raise ConfigError(f"codebook.angle_index: must be < scenario.tx_elements ({n_tx})")
    if codebook.r_min is not None and codebook.r_min > scenario.link_distance:
        raise ConfigError("codebook.r_min_m: must not exceed scenario.link_distance_m")
    if training.noise_power is not None and training.target_se_bps_hz is not None:
        raise ConfigError("training.noise_power: give either noise_power or "
                          "target_se_bps_hz, not both")
    if multipath is not None and multipath.los_model.lower() == "none":
        if multipath.k_factor_db is not None:
            raise ConfigError("multipath.k_factor_db: needs a direct path; "
                              "los_model none has none")
        multipath = replace(multipath, los_model=None)
    if sweep is not None:
        try:
            _sweep_spec(sweep, sweep.variable, training.rng_seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for s in sweep.schemes:
            if "nlos_only" in _SCHEME_ALIASES[s].channel_fields and multipath is None:
                raise ConfigError(f"sweep.schemes: {s} needs a multipath section")
    return RunConfig(scenario, codebook, training, multipath, sweep)


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
    return TrainingConfig(transmit_power=opts.transmit_power, noise_power=noise,
                          rx_probe_combiner=ProbeCombiner(opts.probe_combiner),
                          rng_seed=seed)


def solve_plan(cfg: RunConfig) -> SamplingPlan:
    cb = cfg.codebook
    return solve_sampling_plan(cb.targets, cfg.scenario, angle_index=cb.angle_index,
                               curving_range=(-cb.curving_range, cb.curving_range),
                               r_min=cb.r_min)


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


class CommandOutput(NamedTuple):
    """What a command computed. No command writes or prints: `main` does."""
    notes: list                      # the manifest's [run] lines after `command:`
    train: TrainingConfig | None
    plan: SamplingPlan | None
    files: list                      # (path under --out, writer, value)
    stdout: list


def write_manifest(args, scenario: ScenarioConfig, output: CommandOutput) -> Path:
    """Create `--out` with results/ and grids/, write its manifest first; return it."""
    out_dir = Path(args.out)
    try:
        for sub in ("results", "grids"):
            (out_dir / sub).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--out: cannot create the output directory {out_dir}: "
                         f"{exc.strerror or exc}") from exc
    lines = [f"tool: airylink {__version__}", f"config: {args.config}",
             f"output_dir: {out_dir}", "", *_scenario_lines(scenario)]
    train, plan = output.train, output.plan
    if train is not None:
        lines += ["", "[training]", f"transmit_power: {train.transmit_power!r}",
                  f"noise_power: {train.noise_power!r}",
                  f"probe_combiner: {train.rx_probe_combiner.value}", f"seed: {train.rng_seed}"]
    if plan is not None:
        j, k, v = plan.counts
        lines += [
            "",
            "[sampling_plan]",
            f"summary: {plan.describe()}",
            f"empirical_intervals: {tuple(plan.empirical_intervals)!r}",
            f"grid_counts: curving={j} distance={k} angle={v}",
        ]
    lines += ["", "[run]", f"command: {args.command}", *output.notes]
    write_text(out_dir / "manifest.txt", lines)
    return out_dir


# ---------------------------------------------------------------------------
# Commands


def cmd_channel(args, cfg: RunConfig) -> CommandOutput:
    sc = cfg.scenario
    models = _MODELS if args.compare else (args.model,)
    built = {model: calibrated_wave_channels(sc, model).blocked for model in models}
    frac = float(blocked_pairs(sc).mean())
    lines = ["model,frobenius_norm,blocked_pair_fraction,relative_error_vs_wcm,error_db"]
    stdout = []
    for model in models:
        err = err_db = ""
        if args.compare and model != "wcm":
            e = channel_error(built[model], built["wcm"])
            err = repr(e)
            err_db = repr(20.0 * math.log10(e)) if e > 0 else "-inf"
        norm = float(abs(built[model].frobenius))
        lines.append(f"{model},{norm!r},{frac!r},{err},{err_db}")
        stdout.append(f"{model}: frobenius_norm={norm!r} blocked_pair_fraction={frac!r}"
                      + (f" err_vs_wcm={err}" if err else ""))
    files = [(f"grids/channel_{model}.bin", write_channel_binary, built[model])
             for model in models]
    files.append(("results/channel_summary.csv", write_text, lines))
    return CommandOutput([f"models: {','.join(models)}"], None, None, files, stdout)


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
    y_lim = 1.5 * max(abs(v) for v in (*sc.tx.span, *sc.rx.span))
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
        if args.ymin is None and args.ymax is None:
            raise ValueError("--ymin/--ymax: the default y window, 1.5 times the "
                             "larger array half-length either side of the axis, "
                             "is empty for one-element arrays; give both")
        raise ValueError(f"--ymax must exceed --ymin ({y_min!r} m)")
    ys = [y_min, y_max, *sc.tx.span]  # the window and every source of its columns
    if sc.blockage is not None:
        ys += [*virtual_grid(sc.with_virtual_defaults())[[0, -1]]]
    check_hop_phase(sc.carrier, x_max, ys, "--ymin/--ymax", "narrow the y window")
    return (BeamParams(args.curving, focus, args.focus_angle),
            GridSpec(x_min, x_max, args.nx, y_min, y_max, args.ny))


def cmd_fieldmap(args, cfg: RunConfig) -> CommandOutput:
    sc = cfg.scenario
    params, grid = _fieldmap_inputs(args, sc)
    fmap = render_field_map(airy_beam_vector(params, sc.tx, sc.carrier), sc, grid)
    notes = [f"beam: curving={params.curving!r} focus_distance_m={params.focus_distance!r} "
             f"focus_angle_rad={params.focus_angle!r}",
             f"grid: x=[{grid.x_min!r}, {grid.x_max!r}] nx={grid.num_x} "
             f"y=[{grid.y_min!r}, {grid.y_max!r}] ny={grid.num_y}"]
    files = [("results/fieldmap.csv", write_field_map_csv, fmap),
             ("grids/fieldmap.bin", write_field_map_binary, fmap)]
    px, py = fmap.peak()
    return CommandOutput(notes, None, None, files, [f"peak: x={px!r} y={py!r}"])


def cmd_codebook(args, cfg: RunConfig) -> CommandOutput:
    sc = cfg.scenario
    plan = solve_plan(cfg)
    scheme = _SCHEME_ALIASES[args.scheme]
    built = scheme_codebooks(scheme, sc, plan)
    if len(built) == 1:
        books = {f"codebook_{scheme.value}.csv": built[0]}
    else:  # a two-stage scheme: stage 1, and stage 2 at the on-axis focus
        stage1, factory = built
        books = {f"codebook_{args.scheme}_stage1.csv": stage1,
                 f"codebook_{args.scheme}_stage2_on_axis.csv":
                     factory(sc.link_distance, 0.0)}
    files = [(f"results/{name}", write_codebook_csv, book) for name, book in books.items()]
    stdout = [f"{name}: {len(book)} codewords" for name, book in books.items()]
    return CommandOutput([f"scheme: {args.scheme}"], None, plan, files,
                         [*stdout, plan.describe()])


def cmd_search(args, cfg: RunConfig) -> CommandOutput:
    channels = build_channel_set(cfg)
    train = resolve_training(cfg, channels, args.seed)
    plan = solve_plan(cfg)
    scheme = _SCHEME_ALIASES[args.scheme]
    books = scheme_codebooks(scheme, cfg.scenario, plan)
    result, se, notes = run_scheme(scheme, channels, books, train)
    p = result.selected_params
    power_db = 10.0 * math.log10(result.selected_power) if result.selected_power > 0 else float("-inf")
    summary = ["scheme,overhead_slots,curving,focus_distance_m,focus_angle_rad,"
               "measured_power_db,spectral_efficiency_bps_hz",
               f"{args.scheme},{result.overhead},{p.curving!r},{p.focus_distance!r},"
               f"{p.focus_angle!r},{power_db!r},{se!r}"]
    files = [("results/search_trace.csv", write_search_trace_csv, result),
             ("results/search_summary.csv", write_text, summary)]
    return CommandOutput([f"scheme: {args.scheme}"], train, plan, files, [
        f"selected: curving={p.curving!r} focus_distance_m={p.focus_distance!r} "
        f"focus_angle_rad={p.focus_angle!r}",
        f"overhead: {result.overhead} slots; spectral_efficiency: {se!r} bits/s/Hz",
        *([f"notes: {notes}"] if notes else [])])


def cmd_sweep(args, cfg: RunConfig) -> CommandOutput:
    if cfg.sweep is None:
        raise ConfigError("sweep: section is required for the sweep command")
    sc = cfg.scenario
    base_seed = args.seed if args.seed is not None else cfg.training.rng_seed
    # checked again here, as --sweep may override the config's variable
    spec = _sweep_spec(cfg.sweep, args.sweep or cfg.sweep.variable, base_seed)

    channels = build_channel_set(cfg)
    train = resolve_training(cfg, channels, base_seed)
    plan = solve_plan(cfg) if any(s.searched for s in spec.schemes) else None
    # power and overhead points are the base scenario: reuse its channels
    rows = run_sweep(spec, sc, plan, train, channel_builder=lambda point:
                     channels if point is sc else build_channel_set(cfg, point))
    notes = [f"variable: {spec.swept_variable.value}",
             f"grid: {','.join(repr(g) for g in cfg.sweep.grid)}",
             f"schemes: {','.join(cfg.sweep.schemes)}",
             f"repetitions: {cfg.sweep.repetitions}"]
    return CommandOutput(notes, train, plan, [("results/sweep.csv", write_sweep_csv, rows)],
                         [f"wrote {len(rows)} rows to {Path(args.out) / 'results' / 'sweep.csv'}"])


# ---------------------------------------------------------------------------
# Parser


def _seed(text: str) -> int:
    """--seed: an integer >= 0, the rule of training.rng_seed."""
    if not text.isdecimal():  # a sign or a fraction is not decimal
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, not {text!r}")
    return int(text)


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
    common.add_argument("--seed", type=_seed, default=None,
                        help="override the config RNG seed")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("channel", parents=[common],
                       help="export a channel matrix and its summary")
    p.add_argument("--model", choices=_MODELS, default="gcm")
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
    for window in ("--xmin", "--xmax", "--ymin", "--ymax"):
        p.add_argument(window, type=float, default=None)
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
    p.add_argument("--sweep", choices=_VARIABLES,
                   default=None, help="override the config sweep variable")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    """Load the config, compute, then write the manifest, the files and stdout."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        output = args.func(args, cfg)
        out_dir = write_manifest(args, cfg.scenario, output)
        for path, write, value in output.files:
            write(out_dir / path, value)
        print(*output.stdout, sep="\n")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
