"""Binary grid and CSV writers: round trips and byte determinism."""

import numpy as np
import pytest

from airylink.beam import FieldMap
from airylink.channel import ChannelMatrix, ChannelModel, gcm_channel
from airylink import gridio
from airylink.codebook import CodebookScheme, build_farfield_codebook, product_codebook
from airylink.gridio import (
    read_channel_binary,
    read_field_map_binary,
    write_channel_binary,
    write_codebook_csv,
    write_field_map_binary,
    write_field_map_csv,
    write_search_trace_csv,
    write_sweep_csv,
)
from airylink.evaluation import SweepRow
from airylink.scenario import CarrierConfig, ScenarioConfig, half_wavelength_array
from airylink.search import TrainingConfig, exhaustive_search

CAR = CarrierConfig(140e9)


def _channel():
    arr = half_wavelength_array(8, CAR)
    return gcm_channel(ScenarioConfig(arr, arr, CAR, 2.0))


def _field_map():
    rng = np.random.default_rng(0)
    x = np.linspace(0.0, 1.0, 7)
    y = np.linspace(-0.2, 0.2, 5)
    return FieldMap(x, y, rng.uniform(-60, 0, (5, 7)), mask_applied=False)


def test_channel_binary_roundtrip(tmp_path):
    h = _channel()
    p = tmp_path / "chan.grid"
    write_channel_binary(p, h)
    back = read_channel_binary(p)
    np.testing.assert_array_equal(back.entries, h.entries)
    assert back.model is ChannelModel.GCM


def test_channel_binary_rewrite_identical(tmp_path):
    h = _channel()
    p1, p2 = tmp_path / "a.grid", tmp_path / "b.grid"
    write_channel_binary(p1, h)
    write_channel_binary(p2, h)
    assert p1.read_bytes() == p2.read_bytes()


def test_channel_binary_rejects_other_files(tmp_path):
    p = tmp_path / "bad.grid"
    p.write_bytes(b"NOTAGRID" + b"\x00" * 40)
    with pytest.raises(ValueError):
        read_channel_binary(p)
    fm = _field_map()
    q = tmp_path / "map.grid"
    write_field_map_binary(q, fm)
    with pytest.raises(ValueError):
        read_channel_binary(q)
    with pytest.raises(ValueError):
        read_field_map_binary(tmp_path / "bad.grid")


def test_field_map_binary_roundtrip(tmp_path):
    fm = _field_map()
    p = tmp_path / "map.grid"
    write_field_map_binary(p, fm)
    back = read_field_map_binary(p)
    np.testing.assert_array_equal(back.x, fm.x)
    np.testing.assert_array_equal(back.y, fm.y)
    np.testing.assert_array_equal(back.power_db, fm.power_db)


def test_field_map_csv_format(tmp_path):
    fm = _field_map()
    p = tmp_path / "map.csv"
    write_field_map_csv(p, fm)
    lines = p.read_text().splitlines()
    assert lines[0] == "x_m,y_m,power_db"
    assert len(lines) == 1 + fm.x.size * fm.y.size
    x0, y0, v0 = lines[1].split(",")
    assert float(x0) == fm.x[0] and float(y0) == fm.y[0]
    assert float(v0) == fm.power_db[0, 0]   # shortest-roundtrip floats


def test_field_map_csv_equals_the_per_cell_loop(tmp_path):
    # the writer's output, byte for byte, against one repr per cell; the map
    # holds the floor, a zero peak, -0.0 and values needing all 17 digits
    rng = np.random.default_rng(3)
    x = np.linspace(0.005, 1.0, 200)
    y = np.linspace(-0.1, 0.1, 200)
    db = np.maximum(rng.uniform(-70.0, 0.0, (200, 200)), FieldMap.DB_FLOOR)
    db[0, 0], db[1, 1], db[2, 2] = 0.0, -0.0, -1.0 / 3.0
    fm = FieldMap(x, y, db, mask_applied=False)
    lines = ["x_m,y_m,power_db"]
    for iy, yv in enumerate(fm.y):
        for ix, xv in enumerate(fm.x):
            lines.append(f"{float(xv)!r},{float(yv)!r},{float(fm.power_db[iy, ix])!r}")
    p = tmp_path / "map.csv"
    write_field_map_csv(p, fm)
    assert p.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_search_trace_csv(tmp_path):
    arr = half_wavelength_array(16, CAR)
    sc = ScenarioConfig(arr, arr, CAR, 2.0)
    res = exhaustive_search(build_farfield_codebook(sc), gcm_channel(sc),
                            TrainingConfig(1.0, 0.0))
    p = tmp_path / "trace.csv"
    write_search_trace_csv(p, res)
    lines = p.read_text().splitlines()
    assert lines[0] == "slot,curving,focus_distance_m,focus_angle_rad,power_db"
    assert len(lines) == 1 + res.overhead
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0.0" and first[2] == "inf"
    # powers recorded in dB round-trip against the trace
    assert float(first[4]) == pytest.approx(10 * np.log10(res.powers[0]))


def test_sweep_csv_format_and_determinism(tmp_path):
    rows = [
        SweepRow("height", 0.01, "perfect_csi", 7, 12.345678901234567, 0, ""),
        SweepRow("height", 0.01, "hierarchical", 7, 8.5, 42, "rank_deficient"),
    ]
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    write_sweep_csv(p1, rows)
    write_sweep_csv(p2, rows)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == ("sweep_variable,value,scheme,seed,"
                        "spectral_efficiency_bps_hz,overhead_slots,notes")
    assert lines[1] == "height,0.01,perfect_csi,7,12.345678901234567,0,"
    assert lines[2].endswith(",rank_deficient")
    assert float(lines[1].split(",")[4]) == 12.345678901234567


def test_codebook_csv(tmp_path):
    arr = half_wavelength_array(16, CAR)
    sc = ScenarioConfig(arr, arr, CAR, 2.0)
    book = build_farfield_codebook(sc)
    p = tmp_path / "book.csv"
    write_codebook_csv(p, book)
    lines = p.read_text().splitlines()
    assert lines[0] == "index,scheme,curving,focus_distance_m,focus_angle_rad"
    assert len(lines) == 1 + len(book)
    assert lines[1].startswith("0,FarFieldSteering,0.0,inf,")


@pytest.mark.parametrize("chunk", [4096, 5])
def test_codebook_csv_rows_follow_params(tmp_path, monkeypatch, chunk):
    # a chunk of 5 rows against 4 focus points crosses every curving row
    monkeypatch.setattr(gridio, "_CHUNK_LINES", chunk)
    arr = half_wavelength_array(16, CAR)
    book = product_codebook(CodebookScheme.EXHAUSTIVE, [-0.5, 0.0, 0.5],
                            [(1.0, 0.1), (2.0, -0.2), (np.inf, 0.0), (0.5, 0.3)], arr, CAR)
    p = tmp_path / "book.csv"
    write_codebook_csv(p, book)
    rows = [f"{t},Exhaustive,{a!r},{r!r},{th!r}"
            for t, (a, r, th) in enumerate(book.slot_params(range(len(book))).tolist())]
    assert p.read_text().splitlines()[1:] == rows
