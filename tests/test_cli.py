"""CLI: config validation, commands, artifacts, deterministic reruns."""

import copy
import importlib
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import airylink
from airylink import _threads, cli, gridio
from airylink.cli import ConfigError, load_config, main
from airylink.codebook import product_codebook, slot_params
from airylink.gridio import read_channel_binary, read_field_map_binary, read_search_trace
from airylink.numerics import CIS_LIMIT
from airylink.search import SearchResult

BASE_YAML = """\
scenario:
  frequency_hz: 140.0e9
  link_distance_m: 1.0
  tx_elements: 16
  rx_elements: 16
  virtual_planes: 4
  blockage:
    distance_from_tx_m: 0.5
    width_m: 0.02
    extent_above_m: 0.003
    extent_below_m: 0.5
codebook:
  targets: [0.4, 0.15, 0.0]
  curving_range: 4.0
  r_min_m: 0.2
training:
  transmit_power: 1.0
  target_se_bps_hz: 10.0
  rng_seed: 0
"""

SWEEP_YAML = BASE_YAML + """\
sweep:
  variable: height
  grid: [0.0, 0.003]
  schemes: [perfect, nonblocked]
"""


def _write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# A fresh interpreter in which `import scipy` fails: every command must
# still run, including any function that imports lazily.
_WITHOUT_SCIPY = """\
import sys
sys.modules["scipy"] = None
from airylink.cli import main
config, out = sys.argv[1:]
for i, command in enumerate([["channel", "--compare"], ["codebook"], ["search", "--scheme", "hier"],
                             ["sweep"], ["fieldmap", "--nx", "8", "--ny", "8"]]):
    if main([*command, "--config", config, "--out", f"{out}/{i}"]) != 0:
        sys.exit(f"{command} failed")
"""


def _python(*args):
    src = os.path.dirname(os.path.dirname(airylink.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, stdin=subprocess.DEVNULL)


def test_every_command_runs_without_scipy(tmp_path):
    run = _python("-c", _WITHOUT_SCIPY, _write(tmp_path, SWEEP_YAML), str(tmp_path / "out"))
    assert run.returncode == 0, run.stderr


def test_cli_import_loads_no_scipy_module():
    run = _python("-c", "import sys, airylink.cli; "
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


# A fresh interpreter that loads the config given and solves its plan.
_SOLVE_PLAN = """\
import sys
from airylink import cli
cli.solve_plan(cli.load_config(sys.argv[1]))
print("numpy.ma" in sys.modules)
"""


def test_plan_solve_loads_no_numpy_ma(tmp_path):
    # numpy.ma costs 10-17 ms and 1.2 MB on import; np.unique on floats loads it
    run = _python("-c", _SOLVE_PLAN, _write(tmp_path, _readme_example_yaml()))
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


# ------------------------------------------------------------------- config

def test_load_config_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, BASE_YAML))
    assert cfg.scenario.carrier.frequency == 140.0e9
    assert cfg.scenario.tx.num_elements == 16
    assert cfg.scenario.blockage.extent_above == 0.003
    assert cfg.scenario.virtual_arrays.count == 4
    assert cfg.codebook.targets == (0.4, 0.15, 0.0)
    assert cfg.training.target_se_bps_hz == 10.0
    assert cfg.multipath is None and cfg.sweep is None


def test_yaml_unresolved_exponent_string(tmp_path):
    # plain "1.4e11" parses as a string in YAML 1.1; the loader coerces it
    cfg = load_config(_write(tmp_path, BASE_YAML.replace("140.0e9", "1.4e11")))
    assert cfg.scenario.carrier.frequency == 1.4e11


def test_missing_field_named_in_error(tmp_path):
    broken = BASE_YAML.replace("  tx_elements: 16\n", "")
    with pytest.raises(ConfigError, match="scenario.tx_elements"):
        load_config(_write(tmp_path, broken))


def test_noise_and_target_conflict(tmp_path):
    conflicted = BASE_YAML.replace("  rng_seed: 0\n", "  noise_power: 1e-9\n")
    with pytest.raises(ConfigError, match="training.noise_power"):
        load_config(_write(tmp_path, conflicted))


def test_unknown_sweep_scheme(tmp_path):
    bad = SWEEP_YAML.replace("[perfect, nonblocked]", "[perfect, bogus]")
    with pytest.raises(ConfigError, match="sweep.schemes"):
        load_config(_write(tmp_path, bad))
    nested = SWEEP_YAML.replace("[perfect, nonblocked]", "[perfect, [hier]]")
    with pytest.raises(ConfigError, match="sweep.schemes"):
        load_config(_write(tmp_path, nested))


@pytest.mark.parametrize("variable", ["bogus", "[overhead]", "{height: 1}", "3"])
def test_bad_sweep_variable_named_before_output(tmp_path, capsys, variable):
    bad = _write(tmp_path, SWEEP_YAML.replace("variable: height",
                                              f"variable: {variable}"))
    with pytest.raises(ConfigError, match="sweep.variable"):
        load_config(bad)
    out = tmp_path / "o"
    assert main(["sweep", "--config", bad, "--out", str(out)]) == 2
    assert "sweep.variable" in capsys.readouterr().err
    assert not out.exists()


MULTIPATH_YAML = """\
multipath:
  los_model: gcm
  rays:
    - gain_db: -6.0
      departure_angle_rad: 0.2
      arrival_angle_rad: -0.1
      excess_delay_s: 1.0e-9
"""


def test_every_scheme_name_accepted_in_sweep(tmp_path):
    from airylink.evaluation import BeamformingScheme

    names = [s.value for s in BeamformingScheme]
    text = (BASE_YAML + MULTIPATH_YAML
            + SWEEP_YAML[len(BASE_YAML):].replace("[perfect, nonblocked]",
                                                  f"[{', '.join(names)}]"))
    assert load_config(_write(tmp_path, text)).sweep.schemes == tuple(names)


@pytest.mark.parametrize("budget", ["-3", "0", "0.5", "2.9"])
def test_overhead_grid_must_be_whole_slot_counts(tmp_path, budget):
    bad = SWEEP_YAML.replace("variable: height", "variable: overhead").replace(
        "[0.0, 0.003]", f"[1, {budget}]").replace("[perfect, nonblocked]", "[hier, ff]")
    with pytest.raises(ConfigError, match="sweep.grid"):
        load_config(_write(tmp_path, bad))
    good = bad.replace(f"[1, {budget}]", "[1, 2.0, 40]")
    assert load_config(_write(tmp_path, good)).sweep.grid == (1.0, 2.0, 40.0)


def test_overhead_override_checks_grid_before_output(tmp_path, capsys):
    # the height grid [0.0, 0.003] is no list of slot budgets
    out = tmp_path / "o"
    rc = main(["sweep", "--config", _write(tmp_path, SWEEP_YAML), "--out", str(out),
               "--sweep", "overhead"])
    assert rc == 2
    assert "overhead budgets" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variable, override", [
    ("overhead", []), ("height", ["--sweep", "overhead"])], ids=["config", "override"])
@pytest.mark.parametrize("scheme", ["perfect", "nonblocked", "nlos"])
def test_overhead_sweep_of_full_digital_scheme_named_before_output(
        tmp_path, capsys, variable, override, scheme):
    # a full-digital benchmark has no training overhead to sweep
    text = (BASE_YAML + MULTIPATH_YAML + SWEEP_YAML[len(BASE_YAML):]).replace(
        "variable: height", f"variable: {variable}").replace(
        "[0.0, 0.003]", "[1, 40]").replace("[perfect, nonblocked]", f"[hier, {scheme}]")
    cfg = _write(tmp_path, text)
    if not override:
        with pytest.raises(ConfigError, match=f"sweep.schemes: .*only, not {scheme}$"):
            load_config(cfg)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out), *override]) == 2
    assert "sweep.schemes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
@pytest.mark.parametrize("command", [["search", "--scheme", "ff"], ["sweep"]])
def test_bad_seed_named_before_output(tmp_path, capsys, command, seed):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--config", _write(tmp_path, SWEEP_YAML), "--out", str(out),
              "--seed", seed])
    assert exc.value.code == 2
    assert "--seed: must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["nlos", "nlos_only"])
def test_nlos_scheme_needs_multipath_section(tmp_path, capsys, name):
    bad = _write(tmp_path, SWEEP_YAML.replace("[perfect, nonblocked]",
                                              f"[perfect, {name}]"))
    with pytest.raises(ConfigError, match="sweep.schemes"):
        load_config(bad)
    out = tmp_path / "o"
    assert main(["sweep", "--config", bad, "--out", str(out)]) == 2
    assert "sweep.schemes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old, new, named", [
    ("transmit_power: 1.0", "transmit_power: .inf", "training.transmit_power"),
    ("curving_range: 4.0", "curving_range: .inf", "codebook.curving_range"),
    ("target_se_bps_hz: 10.0", "target_se_bps_hz: .inf", "training.target_se_bps_hz"),
    ("frequency_hz: 140.0e9", "frequency_hz: .inf", "scenario.frequency_hz"),
    pytest.param("link_distance_m: 1.0", "link_distance_m: 1" + "0" * 400,
                 "scenario.link_distance_m", id="integer-beyond-float-range"),
    ("targets: [0.4, 0.15, 0.0]", "targets: [0.4, .nan, 0.0]", "codebook.targets"),
    ("grid: [0.0, 0.003]", "grid: [0.0, -.inf]", "sweep.grid"),
    ("extent_above_m: 0.003", "extent_above_m: -1", "scenario.blockage"),
    ("virtual_planes: 4", "virtual_planes: 0", "scenario.virtual_planes"),
    ("gain_db: -6.0", "gain_db: loud", "multipath.rays[0]"),
    ("gain_db: -6.0", "gain_db: 3.0", "multipath.rays[0]"),
    ("los_model: gcm", "los_model: none\n  k_factor_db: 6.0", "multipath.k_factor_db"),
    ("targets: [0.4, 0.15, 0.0]", "targets: [1.5, 0.15, 0.0]", "codebook.targets"),
    ("targets: [0.4, 0.15, 0.0]", "targets: [0.4, 0.15, 0.3]", "codebook.targets"),
    ("curving_range: 4.0", "curving_range: 4.0\n  angle_index: 40", "codebook.angle_index"),
    ("r_min_m: 0.2", "r_min_m: 5.0", "codebook.r_min_m"),
    ("r_min_m: 0.2", "r_min_m: 0.0", "codebook.r_min_m"),
    ("rng_seed: 0", "rng_seed: -1", "training.rng_seed"),
    # values whose SNR or power ratio leaves the float range
    ("target_se_bps_hz: 10.0", "target_se_bps_hz: 1.0e-20", "training.target_se_bps_hz"),
    ("target_se_bps_hz: 10.0", "target_se_bps_hz: 2000", "training.target_se_bps_hz"),
    ("los_model: gcm", "los_model: gcm\n  k_factor_db: 4000", "multipath.k_factor_db"),
    ("los_model: gcm", "los_model: gcm\n  k_factor_db: -3200", "multipath.k_factor_db"),
])
def test_bad_number_named_once_before_output(tmp_path, capsys, old, new, named):
    text = SWEEP_YAML + MULTIPATH_YAML
    assert text.count(old) == 1
    bad = _write(tmp_path, text.replace(old, new))
    with pytest.raises(ConfigError):
        load_config(bad)
    out = tmp_path / "o"
    assert main(["sweep", "--config", bad, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and err.count(named) == 1
    assert not out.exists()


@pytest.mark.parametrize("variable, grid", [
    ("height", "[0.0, -0.6]"),
    ("distance", "[0.5, 0.99]"),
    ("power", "[0.0, 1.0]"),
])
def test_refused_sweep_point_names_sweep_grid(tmp_path, capsys, variable, grid):
    bad = _write(tmp_path, SWEEP_YAML.replace("grid: [0.0, 0.003]", f"grid: {grid}"))
    out = tmp_path / "o"
    assert main(["sweep", "--sweep", variable, "--config", bad, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sweep.grid: ") and err.count("sweep.grid") == 1
    assert not out.exists()


@pytest.mark.parametrize("old, new, spec", [
    ("grid: [0.0, 0.003]", "grid: []", {"grid": ()}),
    ("schemes: [perfect, nonblocked]", "schemes: []", {"schemes": ()}),
    ("schemes: [perfect, nonblocked]", "schemes: [perfect, nonblocked]\n  repetitions: 0",
     {"repetitions": 0}),
])
def test_sweep_rules_come_from_sweep_spec(tmp_path, old, new, spec):
    # the reader checks types and names; SweepSpec states the rule
    from airylink.evaluation import BeamformingScheme, SweepSpec, SweptVariable

    args = {"swept_variable": SweptVariable.BLOCKAGE_HEIGHT, "grid": (0.0, 0.003),
            "schemes": (BeamformingScheme.PERFECT_CSI,), **spec}
    with pytest.raises(ValueError) as library:
        SweepSpec(**args)
    with pytest.raises(ConfigError) as loaded:
        load_config(_write(tmp_path, SWEEP_YAML.replace(old, new)))
    assert str(loaded.value) == str(library.value)


def test_k_factor_without_direct_path_one_message(tmp_path):
    from airylink.evaluation import calibrated_wave_channels

    text = BASE_YAML + MULTIPATH_YAML.replace("los_model: gcm",
                                              "los_model: none\n  k_factor_db: 6.0")
    with pytest.raises(ConfigError) as loaded:
        load_config(_write(tmp_path, text))
    cfg = load_config(_write(tmp_path, BASE_YAML + MULTIPATH_YAML, "good.yaml"))
    with pytest.raises(ValueError) as library:
        calibrated_wave_channels(cfg.scenario, None, cfg.multipath.rays, k_factor_db=6.0)
    assert str(loaded.value) == str(library.value)
    assert str(library.value).startswith("multipath.k_factor_db: ")


def test_width_zero_screen_runs_and_negative_width_named(tmp_path, capsys):
    # a zero-width screen is one virtual plane, a thin screen
    text = SWEEP_YAML.replace("width_m: 0.02", "width_m: 0.0")
    cfg = _write(tmp_path, text)
    assert load_config(cfg).scenario.virtual_arrays.count == 1
    out = tmp_path / "o"
    for command in (["channel", "--compare"], ["sweep"]):
        assert main([*command, "--config", cfg, "--out", str(out)]) == 0
    assert (out / "results" / "channel_summary.csv").exists()
    assert (out / "results" / "sweep.csv").exists()
    bad = _write(tmp_path, text.replace("width_m: 0.0", "width_m: -0.01"), "bad.yaml")
    with pytest.raises(ConfigError, match="^scenario.blockage: "):
        load_config(bad)
    capsys.readouterr()
    assert main(["sweep", "--config", bad, "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err.startswith("error: scenario.blockage: ")
    assert not (tmp_path / "b").exists()


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_config_table() -> dict:
    """{key: default cell} of the README's config reference table."""
    section = _readme().split("### Config reference", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (.+?) \| .+ \|$", section, flags=re.M)
    return dict(rows)


def test_readme_config_reference_matches_the_schema(tmp_path):
    from dataclasses import fields

    from airylink import cli

    table = _readme_config_table()
    sections = {"codebook": cli.CodebookOptions, "training": cli.TrainingOptions,
                "multipath": cli.MultipathOptions, "sweep": cli.SweepOptions}
    options = {f"{name}.{f.metadata.get('key', f.name)}"
               for name, cls in sections.items() for f in fields(cls)}
    tabled = {key for key in table if key.split(".")[0] in sections and "[" not in key}
    assert tabled == options

    # writing out every tabled default changes nothing
    minimal = yaml.safe_load(BASE_YAML + MULTIPATH_YAML + SWEEP_YAML[len(BASE_YAML):])
    for name in ("codebook", "training"):
        del minimal[name]
    del minimal["scenario"]["virtual_planes"], minimal["scenario"]["rx_elements"]
    del minimal["multipath"]["los_model"]
    full = copy.deepcopy(minimal)
    written = 0
    for key, default in table.items():
        literal = re.fullmatch(r"`([^`]+)`", default)
        if literal:
            *path, leaf = key.split(".")
            section = full
            for part in path:
                section = section.setdefault(part, {})
            section[leaf] = yaml.safe_load(literal.group(1))
            written += 1
    assert written >= 10
    assert (load_config(_write(tmp_path, yaml.safe_dump(full), "full.yaml"))
            == load_config(_write(tmp_path, yaml.safe_dump(minimal), "minimal.yaml")))


def test_readme_names_resolve():
    # every dotted airylink name the README cites is importable: the
    # longest module prefix imports and the rest are attributes of it
    names = sorted(set(re.findall(r"\bairylink(?:\.[A-Za-z_]\w*)+", _readme())))
    assert len(names) >= 20
    unresolved = []
    for name in names:
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                target = importlib.import_module(".".join(parts[:cut]))
                break
            except ModuleNotFoundError:
                continue
        try:
            for attr in parts[cut:]:
                target = getattr(target, attr)
        except AttributeError:
            unresolved.append(name)
    assert unresolved == []


def test_config_errors_exit_code_2(tmp_path, capsys):
    broken = _write(tmp_path, BASE_YAML.replace("  tx_elements: 16\n", ""))
    rc = main(["channel", "--config", broken, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "scenario.tx_elements" in capsys.readouterr().err
    rc = main(["channel", "--config", str(tmp_path / "nope.yaml"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


# A 10 THz link, where numerics.CIS_LIMIT, the largest hop phase k*r the
# kernels take, is a hop of about 62.871 m.
THZ_YAML = (BASE_YAML.replace("140.0e9", "10.0e12")
            .replace("virtual_planes: 4", "virtual_planes: 2")
            .replace("extent_above_m: 0.003", "extent_above_m: 0.0001"))


@pytest.mark.parametrize("distance", ["1000.0", "62.88"])
@pytest.mark.parametrize("command", [["channel", "--compare"], ["fieldmap"]],
                         ids=["compare", "fieldmap"])
def test_hop_phase_past_the_phasor_range_named_before_output(tmp_path, capsys, command,
                                                             distance):
    text = THZ_YAML.replace("link_distance_m: 1.0", f"link_distance_m: {distance}")
    out = tmp_path / "o"
    assert main([*command, "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario.frequency_hz, scenario.link_distance_m: ")
    assert not out.exists()


def test_hop_phase_just_inside_the_phasor_range_runs(tmp_path):
    cfg = _write(tmp_path, THZ_YAML.replace("link_distance_m: 1.0", "link_distance_m: 62.87"))
    assert main(["channel", "--compare", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    assert main(["fieldmap", "--config", cfg, "--out", str(tmp_path / "f")]) == 0


def _thz_window_edge(cfg) -> float:
    """Half the widest centered --ymin/--ymax window the 62.87 m link's
    fieldmap takes: its hop from x = 0 to the Rx plane reaches CIS_LIMIT."""
    sc = load_config(cfg).scenario
    longest = CIS_LIMIT / sc.carrier.wavenumber
    return 0.5 * math.sqrt(longest**2 - sc.link_distance**2)


@pytest.mark.parametrize("window", [(-1000.0, 1000.0), "just outside"])
def test_fieldmap_window_past_the_phasor_range_named_before_output(tmp_path, capsys,
                                                                  window):
    cfg = _write(tmp_path, THZ_YAML.replace("link_distance_m: 1.0", "link_distance_m: 62.87"))
    if window == "just outside":
        edge = _thz_window_edge(cfg) * (1 + 1e-3)
        window = (-edge, edge)
    out = tmp_path / "o"
    assert main(["fieldmap", "--config", cfg, "--out", str(out), "--nx", "2", "--ny", "4",
                 "--ymin", repr(window[0]), "--ymax", repr(window[1])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --ymin/--ymax: ")
    assert not out.exists()


def test_fieldmap_window_just_inside_the_phasor_range_runs(tmp_path):
    cfg = _write(tmp_path, THZ_YAML.replace("link_distance_m: 1.0", "link_distance_m: 62.87"))
    edge = _thz_window_edge(cfg) * (1 - 1e-3)
    assert main(["fieldmap", "--config", cfg, "--out", str(tmp_path / "f"), "--nx", "2",
                 "--ny", "4", "--ymin", repr(-edge), "--ymax", repr(edge)]) == 0


def test_fieldmap_window_past_the_rx_plane_and_too_wide_names_xmax(tmp_path, capsys):
    # the render checks x_max before the window's hop phase, which reads it
    out = tmp_path / "o"
    assert main(["fieldmap", "--config", _write(tmp_path, BASE_YAML), "--out", str(out),
                 "--nx", "2", "--ny", "4", "--xmax", "1.5", "--ymin", "-1000000.0",
                 "--ymax", "1000000.0"]) == 2
    assert capsys.readouterr().err.startswith("error: --xmax must not exceed the link distance")
    assert not out.exists()


def test_invalid_yaml_exit_2(tmp_path, capsys):
    rc = main(["channel", "--config", _write(tmp_path, "scenario: ["),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "invalid YAML" in capsys.readouterr().err


def test_libyaml_and_python_loaders_agree(tmp_path, monkeypatch):
    # libyaml's loader first, then PyYAML's pure-Python one: equal configs,
    # and a broken file named the same way
    texts = [_readme_example_yaml(), SWEEP_YAML]
    parsed = []
    for _ in range(2):
        parsed.append([load_config(_write(tmp_path, text)) for text in texts])
        with pytest.raises(ConfigError, match=r"^config: invalid YAML: "):
            load_config(_write(tmp_path, "scenario: ["))
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert parsed[0] == parsed[1]


def test_scheme_names():
    from airylink.cli import _SCHEME_ALIASES, _SEARCH_CHOICES

    assert sorted(_SCHEME_ALIASES) == sorted([
        "exhaustive", "hierarchical", "hier", "low_complexity", "lowc", "farfield",
        "ff", "nearfield", "nf", "perfect_csi", "perfect", "non_blocked",
        "nonblocked", "nlos_only", "nlos"])
    assert _SEARCH_CHOICES == ("exhaustive", "hier", "lowc", "ff", "nf")


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under_file"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, under):
    cfg = _write(tmp_path, BASE_YAML)
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    out = taken / under if under else taken
    assert main(["channel", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --out")
    assert taken.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize("taken", ["manifest.txt", "results/channel_summary.csv"])
def test_output_file_that_is_a_directory_exits_2(tmp_path, capsys, taken):
    cfg = _write(tmp_path, BASE_YAML)
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    assert main(["channel", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out / taken}: ")


# ----------------------------------------------------------------- commands

def test_channel_command_compare(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_YAML)
    out = tmp_path / "chan"
    rc = main(["channel", "--config", cfg, "--out", str(out), "--compare"])
    assert rc == 0
    assert (out / "manifest.txt").is_file()
    for model in ("gcm", "wcm", "cgwcm"):
        h = read_channel_binary(out / "grids" / f"channel_{model}.bin")
        assert h.entries.shape == (16, 16)
    lines = (out / "results" / "channel_summary.csv").read_text().splitlines()
    assert len(lines) == 4
    errs = {row.split(",")[0]: row.split(",")[3] for row in lines[1:]}
    assert errs["wcm"] == ""
    # cascaded model stays closer to the wave model than straight rays
    assert float(errs["cgwcm"]) < float(errs["gcm"])
    manifest = (out / "manifest.txt").read_text()
    assert "command: channel" in manifest and "blockage: distance_from_tx_m" in manifest


FREE_YAML = """\
scenario:
  frequency_hz: 140.0e9
  link_distance_m: 1.0
  tx_elements: 16
  rx_elements: 16
"""


def test_fieldmap_mirror_symmetry(tmp_path):
    # mirroring the curving sign flips the rendered map only when the
    # scene itself is mirror symmetric, so no blockage here
    cfg = _write(tmp_path, FREE_YAML, name="free.yaml")
    args = ["--nx", "40", "--ny", "41", "--ymin", "-0.05", "--ymax", "0.05"]
    out_p, out_n = tmp_path / "pos", tmp_path / "neg"
    assert main(["fieldmap", "--config", cfg, "--out", str(out_p),
                 "--curving", "2.0", *args]) == 0
    assert main(["fieldmap", "--config", cfg, "--out", str(out_n),
                 "--curving", "-2.0", *args]) == 0
    pos = read_field_map_binary(out_p / "grids" / "fieldmap.bin")
    neg = read_field_map_binary(out_n / "grids" / "fieldmap.bin")
    np.testing.assert_allclose(pos.y, -neg.y[::-1], atol=1e-12)
    np.testing.assert_allclose(pos.power_db, neg.power_db[::-1, :], atol=1e-6)
    assert (out_p / "results" / "fieldmap.csv").is_file()


@pytest.mark.parametrize("options, named", [
    (["--nx", "0"], "--nx"),
    (["--ny", "1"], "--ny"),
    (["--xmax", "2.0"], "--xmax"),
    (["--xmin", "0.5", "--xmax", "0.4"], "--xmax"),
    (["--xmin", "0"], "--xmin"),
    (["--ymin", "0.1", "--ymax", "-0.1"], "--ymax"),
    (["--focus-angle", "2.0"], "--focus-angle"),
    (["--focus-distance", "-1.0"], "--focus-distance"),
    (["--curving", "nan"], "--curving"),
    (["--nx", "2", "--xmin", "1.0"], "--xmax"),
    (["--curving", "inf"], "--curving"),
    (["--focus-angle", "nan"], "--focus-angle"),
    (["--xmin", "nan"], "--xmin"),
])
def test_fieldmap_bad_option_named_before_output(tmp_path, capsys, options, named):
    out = tmp_path / "o"
    rc = main(["fieldmap", "--config", _write(tmp_path, BASE_YAML), "--out", str(out),
               *options])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_fieldmap_single_column_at_rx_plane(tmp_path):
    out = tmp_path / "o"
    assert main(["fieldmap", "--config", _write(tmp_path, BASE_YAML), "--out", str(out),
                 "--nx", "1", "--ny", "9"]) == 0
    fmap = read_field_map_binary(out / "grids" / "fieldmap.bin")
    assert fmap.x.tolist() == [1.0] and fmap.power_db.shape == (9, 1)


@pytest.mark.parametrize("scheme, files", [
    ("exhaustive", ["codebook_exhaustive.csv"]),
    ("ff", ["codebook_farfield.csv"]),
    ("nf", ["codebook_nearfield.csv"]),
    ("hier", ["codebook_hier_stage1.csv", "codebook_hier_stage2_on_axis.csv"]),
    ("lowc", ["codebook_lowc_stage1.csv", "codebook_lowc_stage2_on_axis.csv"]),
], ids=["exhaustive", "ff", "nf", "hier", "lowc"])
def test_codebook_command(tmp_path, capsys, scheme, files):
    cfg = _write(tmp_path, BASE_YAML)
    out = tmp_path / "book"
    rc = main(["codebook", "--config", cfg, "--out", str(out), "--scheme", scheme])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert files[0] in stdout and "counts=" in stdout
    assert sorted(f.name for f in (out / "results").iterdir()) == files
    for name in files:
        lines = (out / "results" / name).read_text().splitlines()
        assert lines[0] == "factor,index,curving,focus_distance_m,focus_angle_rad"
        assert len(lines) > 1
    assert "[sampling_plan]" in (out / "manifest.txt").read_text()


@pytest.mark.parametrize("text, command", [
    (FREE_YAML, ["channel", "--compare"]),
    (FREE_YAML, ["channel", "--model", "cgwcm"]),
    (FREE_YAML + MULTIPATH_YAML.replace("los_model: gcm", "los_model: cgwcm"),
     ["search", "--scheme", "ff"]),
    (FREE_YAML + SWEEP_YAML[len(BASE_YAML):], ["sweep"]),
    (FREE_YAML + SWEEP_YAML[len(BASE_YAML):].replace("height", "distance"), ["sweep"]),
], ids=["compare", "cgwcm", "multipath-cgwcm", "height-sweep", "distance-sweep"])
def test_missing_blockage_named_before_output(tmp_path, capsys, text, command):
    out = tmp_path / "o"
    assert main([*command, "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: scenario.blockage")
    assert not out.exists()


ONE_BY_ONE_YAML = BASE_YAML.replace("tx_elements: 16", "tx_elements: 1").replace(
    "rx_elements: 16", "rx_elements: 1")


@pytest.mark.parametrize("command, named", [
    (["channel", "--compare"], "scenario.tx_elements"),
    (["search", "--scheme", "ff"], "scenario.tx_elements"),
    (["fieldmap"], "--ymin/--ymax"),
    (["fieldmap", "--ymin", "-0.01", "--ymax", "0.01"], "scenario.tx_elements"),
], ids=["compare", "search", "fieldmap-default-window", "fieldmap"])
def test_one_by_one_blocked_link_named_before_output(tmp_path, capsys, command, named):
    # two virtual samples, both inside the absorbing edge: no field crosses
    out = tmp_path / "o"
    assert main([*command, "--config", _write(tmp_path, ONE_BY_ONE_YAML),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}")
    assert named != "scenario.tx_elements" or "scenario.rx_elements" in err
    assert not out.exists()


@pytest.mark.parametrize("text, named", [
    (BASE_YAML.replace("r_min_m: 0.2", "r_min_m: 5.0"), "codebook.r_min_m"),
    # no angle grid to index
    (ONE_BY_ONE_YAML, "codebook.angle_index, scenario.tx_elements: "),
], ids=["r_min-beyond-link", "one-element-tx"])
def test_codebook_plan_errors_named_before_output(tmp_path, capsys, text, named):
    out = tmp_path / "o"
    assert main(["codebook", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {named}")
    assert not out.exists()


@pytest.mark.parametrize("command", [["codebook"], ["search", "--scheme", "hier"]],
                         ids=["codebook", "search-hier"])
@pytest.mark.parametrize("n_tx", [2, 6])
def test_few_element_plan_reports_adjacent_correlations(tmp_path, command, n_tx):
    # so few elements keep adjacent codewords far above the targets; the plan
    # reports how far, in bounded time, and the run goes on
    text = BASE_YAML.replace("tx_elements: 16", f"tx_elements: {n_tx}")
    out = tmp_path / "o"
    t0 = time.perf_counter()
    assert main([*command, "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    assert time.perf_counter() - t0 < 1.0
    manifest = (out / "manifest.txt").read_text()
    lines = [line for line in manifest.splitlines()
             if line.startswith("adjacent_correlations: ")]
    assert len(lines) == 1
    found = re.fullmatch(r"adjacent_correlations: curving=(\S+) distance=(\S+)", lines[0])
    counts = re.search(r"^grid_counts: curving=(\d+) distance=(\d+) angle=\d+$", manifest, re.M)
    # an axis whose grid holds one value has no neighbour, and says so
    for value, count in zip(found.groups(), counts.groups()):
        assert (value == "none") == (count == "1"), lines[0]
        assert value == "none" or 0.0 <= float(value) <= 1.0, lines[0]


def _readme_example_yaml() -> str:
    """The README's example config, as the CI step extracts it."""
    return _readme().split("Example config:", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]


def test_every_array_size_plans_or_names_a_key(tmp_path):
    from airylink import cli

    text = _readme_example_yaml()
    assert "  tx_elements: 128\n" in text
    refused = {}
    for n_tx in range(1, 513):
        cfg = load_config(_write(tmp_path, text.replace("tx_elements: 128",
                                                        f"tx_elements: {n_tx}")))
        t0 = time.perf_counter()
        try:
            plan = cli.solve_plan(cfg)
        except ValueError as exc:
            assert re.match(r"(codebook|scenario)\.\w+[,:]", str(exc)), (n_tx, str(exc))
            refused[n_tx] = str(exc)
        else:
            # None exactly on an axis whose grid holds one value
            for c, count in zip(plan.adjacent_correlations, plan.counts):
                assert (c is None) == (count == 1), n_tx
                assert c is None or 0.0 <= c <= 1.0, n_tx
        assert time.perf_counter() - t0 < 1.0, n_tx
    # one element has no angle grid; every other size plans
    assert list(refused) == [1]


def test_hierarchical_search_runs_at_odd_tx_elements(tmp_path, capsys):
    # the angle lattice is symmetric about broadside, so an odd element count
    # keeps the on-axis angle, whose focus points lie in the aperture strip
    text = BASE_YAML.replace("tx_elements: 16", "tx_elements: 5")
    out = tmp_path / "o"
    assert main(["search", "--scheme", "hier", "--config", _write(tmp_path, text),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("selected: ")
    assert (out / "results" / "search_summary.csv").is_file()


def test_one_by_one_blocked_link_ray_model(tmp_path):
    out = tmp_path / "o"
    assert main(["channel", "--model", "gcm", "--config",
                 _write(tmp_path, ONE_BY_ONE_YAML), "--out", str(out)]) == 0
    assert read_channel_binary(out / "grids" / "channel_gcm.bin").entries.shape == (1, 1)


def test_search_command_deterministic_and_seeded(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_YAML)
    out1, out2, out3 = (tmp_path / d for d in ("s1", "s2", "s3"))
    for out in (out1, out2):
        assert main(["search", "--config", cfg, "--out", str(out),
                     "--scheme", "ff"]) == 0
    trace1 = (out1 / "results" / "search_trace.bin").read_bytes()
    trace2 = (out2 / "results" / "search_trace.bin").read_bytes()
    assert trace1 == trace2                       # same seed: identical bytes
    assert main(["search", "--config", cfg, "--out", str(out3),
                 "--scheme", "ff", "--seed", "7"]) == 0
    trace3 = (out3 / "results" / "search_trace.bin").read_bytes()
    assert trace1 != trace3                       # target-SE noise is nonzero
    (_, _, powers), = read_search_trace(out1 / "results" / "search_trace.bin")
    assert powers.size == 15                      # farfield overhead: N-1 slots
    summary = (out1 / "results" / "search_summary.csv").read_text().splitlines()
    assert summary[0].endswith("spectral_efficiency_bps_hz")
    se = float(summary[1].split(",")[-1])
    assert 0.0 < se <= 10.0 + 1e-9
    manifest = (out1 / "manifest.txt").read_text()
    assert "noise_power:" in manifest and "seed: 0" in manifest


@pytest.mark.parametrize("scheme", ["exhaustive", "hier", "lowc", "nf", "ff"])
def test_search_trace_reads_back_every_slot(tmp_path, monkeypatch, scheme):
    # the README example: the trace holds the search's own powers, bit for
    # bit, and its books' factor tables, from which the codebook's slot rule
    # rebuilds every slot's parameters, and the books and powers alone
    # rebuild the selected beam and overhead of the summary
    results = []

    def write(path, result):
        results.append(result)
        gridio.write_search_trace(path, result)
    monkeypatch.setattr(cli, "write_search_trace", write)
    out = tmp_path / "o"
    config = _write(tmp_path, _readme_example_yaml())
    assert main(["search", "--scheme", scheme, "--config", config, "--out", str(out)]) == 0
    result, = results
    path = out / "results" / "search_trace.bin"
    books = read_search_trace(path)
    assert [(c.size, f.shape[0]) for c, f, _ in books] == [
        (book.curving.size, book.focus_points.shape[0]) for book in result.books]
    assert len(books) == (2 if scheme in ("hier", "lowc") else 1)
    assert np.array_equal(np.concatenate([w for *_, w in books]), result.powers)
    params = np.concatenate([slot_params(c, f, range(w.size)) for c, f, w in books])
    assert np.array_equal(params, result.slot_params(range(result.overhead)))
    assert path.stat().st_size == 36 + 16 * len(books) + 8 * sum(
        c.size + f.size + w.size for c, f, w in books)
    sc = load_config(config).scenario
    rebuilt = SearchResult(tuple(product_codebook(c, f, sc.tx, sc.carrier) for c, f, _ in books),
                           np.concatenate([w for *_, w in books]))
    p = rebuilt.selected_params
    row = (out / "results" / "search_summary.csv").read_text().splitlines()[1].split(",")
    assert row[1:5] == [repr(rebuilt.overhead), repr(p.curving), repr(p.focus_distance),
                        repr(p.focus_angle)]


def test_search_prints_its_deployment_notes(tmp_path, capsys):
    # the screen covers the whole virtual window, so the blocked link is zero
    text = BASE_YAML.replace("extent_above_m: 0.003", "extent_above_m: 5.0").replace(
        "extent_below_m: 0.5", "extent_below_m: 5.0")
    assert main(["search", "--config", _write(tmp_path, text), "--out",
                 str(tmp_path / "o"), "--scheme", "ff"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "notes: fully_blocked"


def test_sweep_rerun_byte_identical(tmp_path):
    cfg = _write(tmp_path, SWEEP_YAML)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    first = (out / "results" / "sweep.csv").read_bytes()
    manifest_first = (out / "manifest.txt").read_bytes()
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "results" / "sweep.csv").read_bytes() == first
    assert (out / "manifest.txt").read_bytes() == manifest_first
    lines = first.decode().splitlines()
    assert lines[0].startswith("sweep_variable,")
    assert len(lines) == 1 + 2 * 2                # 2 heights x 2 schemes
    assert {row.split(",")[2] for row in lines[1:]} == {"perfect_csi", "non_blocked"}


@pytest.mark.parametrize("command", [
    ["channel", "--compare"],
    ["fieldmap"],
    ["codebook", "--scheme", "hier"],
    ["search", "--scheme", "ff"],
], ids=["channel", "fieldmap", "codebook", "search"])
def test_command_rerun_byte_identical(tmp_path, command):
    args = [*command, "--config", _write(tmp_path, BASE_YAML), "--out",
            str(tmp_path / "o")]

    def files():
        return {p.relative_to(tmp_path): p.read_bytes()
                for p in sorted((tmp_path / "o").rglob("*")) if p.is_file()}

    assert main(args) == 0
    first = files()
    assert len(first) >= 2                         # the manifest and results
    assert main(args) == 0
    assert files() == first


def test_sweep_requires_section(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_YAML)
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "sweep" in capsys.readouterr().err


# ------------------------------------------------------------------ threads

def test_threads_env_applied(monkeypatch):
    for var in _threads._BACKEND_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("AIRYLINK_THREADS", "2")
    _threads.apply()
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_threads_env_respects_existing(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "5")
    monkeypatch.setenv("AIRYLINK_THREADS", "2")
    _threads.apply()
    assert os.environ["OMP_NUM_THREADS"] == "5"


def test_threads_env_rejects_garbage(monkeypatch):
    # a superscript two passes str.isdigit but not int(); fullwidth digits
    # pass both, and would be copied to backends that do not read them
    for var in _threads._BACKEND_VARS:
        monkeypatch.delenv(var, raising=False)
    for value in ("-3", "\N{SUPERSCRIPT TWO}", "\N{FULLWIDTH DIGIT ONE}\N{FULLWIDTH DIGIT TWO}"):
        monkeypatch.setenv("AIRYLINK_THREADS", value)
        with pytest.raises(ValueError, match="AIRYLINK_THREADS"):
            _threads.apply()
        assert not any(var in os.environ for var in _threads._BACKEND_VARS), value
