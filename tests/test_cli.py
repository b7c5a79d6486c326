"""CLI: config validation, commands, artifacts, deterministic reruns."""

import os

import numpy as np
import pytest

from airylink import _threads
from airylink.cli import ConfigError, load_config, main
from airylink.gridio import read_channel_binary, read_field_map_binary

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
        "[0.0, 0.003]", f"[1, {budget}]")
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


def test_config_errors_exit_code_2(tmp_path, capsys):
    broken = _write(tmp_path, BASE_YAML.replace("  tx_elements: 16\n", ""))
    rc = main(["channel", "--config", broken, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "scenario.tx_elements" in capsys.readouterr().err
    rc = main(["channel", "--config", str(tmp_path / "nope.yaml"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_invalid_yaml_exit_2(tmp_path, capsys):
    rc = main(["channel", "--config", _write(tmp_path, "scenario: ["),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "invalid YAML" in capsys.readouterr().err


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
        assert lines[0].startswith("index,scheme,") and len(lines) > 1
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


def test_search_command_deterministic_and_seeded(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_YAML)
    out1, out2, out3 = (tmp_path / d for d in ("s1", "s2", "s3"))
    for out in (out1, out2):
        assert main(["search", "--config", cfg, "--out", str(out),
                     "--scheme", "ff"]) == 0
    trace1 = (out1 / "results" / "search_trace.csv").read_bytes()
    trace2 = (out2 / "results" / "search_trace.csv").read_bytes()
    assert trace1 == trace2                       # same seed: identical bytes
    assert main(["search", "--config", cfg, "--out", str(out3),
                 "--scheme", "ff", "--seed", "7"]) == 0
    trace3 = (out3 / "results" / "search_trace.csv").read_bytes()
    assert trace1 != trace3                       # target-SE noise is nonzero
    lines = (out1 / "results" / "search_trace.csv").read_text().splitlines()
    assert lines[0].startswith("slot,")
    assert len(lines) == 1 + 15                   # farfield overhead: N-1 slots
    summary = (out1 / "results" / "search_summary.csv").read_text().splitlines()
    assert summary[0].endswith("spectral_efficiency_bps_hz")
    se = float(summary[1].split(",")[-1])
    assert 0.0 < se <= 10.0 + 1e-9
    manifest = (out1 / "manifest.txt").read_text()
    assert "noise_power:" in manifest and "seed: 0" in manifest


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
    monkeypatch.setenv("AIRYLINK_THREADS", "-3")
    with pytest.raises(ValueError):
        _threads.apply()
