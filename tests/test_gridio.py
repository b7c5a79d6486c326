"""Binary grid and CSV writers: round trips and byte determinism."""

import tracemalloc

import numpy as np
import pytest

from airylink.beam import FieldMap
from airylink.channel import ChannelMatrix, ChannelModel, gcm_channel
from airylink import gridio
from airylink.codebook import (
    build_farfield_codebook,
    product_codebook,
    slot_params,
)
from airylink.gridio import (
    read_channel_binary,
    read_field_map_binary,
    read_search_trace,
    write_channel_binary,
    write_codebook_csv,
    write_field_map_binary,
    write_field_map_csv,
    write_search_trace,
    write_sweep_csv,
)
from airylink.evaluation import SweepRow
from airylink.scenario import CarrierConfig, ScenarioConfig, half_wavelength_array
from airylink.search import SearchResult, TrainingConfig, exhaustive_search

CAR = CarrierConfig(140e9)


def _channel():
    arr = half_wavelength_array(8, CAR)
    return gcm_channel(ScenarioConfig(arr, arr, CAR, 2.0))


def _field_map():
    rng = np.random.default_rng(0)
    x = np.linspace(0.0, 1.0, 7)
    y = np.linspace(-0.2, 0.2, 5)
    return FieldMap(x, y, rng.uniform(-60, 0, (5, 7)))


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


def _search_result():
    arr = half_wavelength_array(16, CAR)
    sc = ScenarioConfig(arr, arr, CAR, 2.0)
    return exhaustive_search(build_farfield_codebook(sc), gcm_channel(sc),
                             TrainingConfig(1.0, 0.0))


@pytest.mark.parametrize("write, read, value, kind", [
    (write_channel_binary, read_channel_binary, _channel, "channel"),
    (write_field_map_binary, read_field_map_binary, _field_map, "field-map"),
    (write_search_trace, read_search_trace, _search_result, "search-trace"),
], ids=["channel", "field_map", "search_trace"])
@pytest.mark.parametrize("cut", ["inside_header", "one_byte_short", "one_byte_over"])
def test_grid_readers_refuse_a_wrong_length_naming_both_sizes(tmp_path, write, read,
                                                                value, kind, cut):
    p = tmp_path / "grid.bin"
    write(p, value())
    read(p)                                        # whole, it reads back
    raw = p.read_bytes()
    bad = {"inside_header": raw[:20], "one_byte_short": raw[:-1],
           "one_byte_over": raw + b"\x00"}[cut]
    p.write_bytes(bad)
    want = 36 if cut == "inside_header" else len(raw)
    with pytest.raises(ValueError, match=rf"^{kind} grid: {len(bad)} bytes.* {want}\b"):
        read(p)


def _large_trace():
    # 1,000 curving values by 1,000 focus points: 8 MB of powers
    arr = half_wavelength_array(2, CAR)
    book = product_codebook(np.linspace(-1.0, 1.0, 1000),
                            np.column_stack([np.full(1000, 2.0), np.linspace(-0.5, 0.5, 1000)]),
                            arr, CAR)
    powers = np.random.default_rng(1).uniform(0.0, 1.0, len(book))
    return SearchResult((book,), powers)


@pytest.mark.parametrize("write, value, payload", [
    (write_channel_binary, lambda: ChannelMatrix(np.ones((512, 512), complex), ChannelModel.WCM),
     lambda channel: channel.entries),
    (write_field_map_binary, lambda: FieldMap(np.linspace(0.0, 1.0, 1000), np.linspace(
        -0.5, 0.5, 1000), np.zeros((1000, 1000))), lambda fm: fm.power_db),
    (write_search_trace, _large_trace, lambda result: result.powers),
], ids=["channel", "field_map", "search_trace"])
def test_binary_writers_copy_no_payload(tmp_path, write, value, payload):
    # each array goes from its own memory to the file: the writer allocates
    # far less than one copy of the payload (numpy reports to tracemalloc)
    value = value()
    tracemalloc.start()
    try:
        write(tmp_path / "grid.bin", value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < payload(value).nbytes / 8
    assert (tmp_path / "grid.bin").stat().st_size > payload(value).nbytes


def test_search_trace_cut_inside_a_books_sizes(tmp_path):
    # the second book's J and F are cut off: the walk stops there
    arr = half_wavelength_array(4, CAR)
    book = product_codebook([0.0], [(1.0, 0.0)], arr, CAR)
    p = tmp_path / "trace.bin"
    write_search_trace(p, SearchResult((book, book), np.array([1.0, 2.0])))
    raw = p.read_bytes()
    assert len(raw) == 36 + 2 * (16 + 8 * 4)
    p.write_bytes(raw[:36 + 48 + 8])
    with pytest.raises(ValueError, match=r"^search-trace grid: 92 bytes, .* 100$"):
        read_search_trace(p)
    p.write_bytes(raw)
    assert [w.tolist() for *_, w in read_search_trace(p)] == [[1.0], [2.0]]


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
    fm = FieldMap(x, y, db)
    lines = ["x_m,y_m,power_db"]
    for iy, yv in enumerate(fm.y):
        for ix, xv in enumerate(fm.x):
            lines.append(f"{float(xv)!r},{float(yv)!r},{float(fm.power_db[iy, ix])!r}")
    p = tmp_path / "map.csv"
    write_field_map_csv(p, fm)
    assert p.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_search_trace_binary(tmp_path):
    res = _search_result()
    p = tmp_path / "trace.bin"
    write_search_trace(p, res)
    (curving, points, powers), = read_search_trace(p)
    book = res.books[0]
    assert p.stat().st_size == 36 + 16 + 8 * (1 + 2 * 15 + res.overhead)
    assert curving.tolist() == [0.0] and points.shape == (15, 2)
    assert np.all(np.isinf(points[:, 0]))
    np.testing.assert_array_equal(points, book.focus_points)
    # the linear powers themselves, not their dB text
    assert powers.tobytes() == res.powers.tobytes()
    np.testing.assert_array_equal(slot_params(curving, points, range(powers.size)),
                                  res.slot_params(range(res.overhead)))


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


def _codebook_rows(book) -> list:
    """The codebook CSV's rows after its header, one repr per value."""
    return ([f"curving,{i},{a!r},," for i, a in enumerate(book.curving.tolist())]
            + [f"focus,{f},,{r!r},{th!r}" for f, (r, th)
               in enumerate(book.focus_points.tolist())])


def _read_codebook_csv(path) -> tuple:
    """(curving [J], focus points [F, 2]) of a codebook CSV."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    curving = [float(a) for kind, _, a, _, _ in rows if kind == "curving"]
    points = [(float(r), float(th)) for kind, _, _, r, th in rows if kind == "focus"]
    return np.array(curving), np.array(points).reshape(-1, 2)


def test_codebook_csv(tmp_path):
    arr = half_wavelength_array(16, CAR)
    sc = ScenarioConfig(arr, arr, CAR, 2.0)
    book = build_farfield_codebook(sc)
    p = tmp_path / "book.csv"
    write_codebook_csv(p, book)
    lines = p.read_text().splitlines()
    assert lines[0] == "factor,index,curving,focus_distance_m,focus_angle_rad"
    assert len(lines) == 1 + 1 + 15                # J + F rows, not J * F
    assert lines[1] == "curving,0,0.0,,"
    assert lines[2].startswith("focus,0,,inf,")


@pytest.mark.parametrize("chunk", [4096, 5])
def test_codebook_csv_rows_follow_params(tmp_path, monkeypatch, chunk):
    # a chunk of 5 lines crosses from the curving rows to the focus rows
    monkeypatch.setattr(gridio, "_CHUNK_LINES", chunk)
    arr = half_wavelength_array(16, CAR)
    book = product_codebook([-0.5, 0.0, 0.5],
                            [(1.0, 0.1), (2.0, -0.2), (np.inf, 0.0), (0.5, 0.3)], arr, CAR)
    p = tmp_path / "book.csv"
    write_codebook_csv(p, book)
    assert p.read_text().splitlines()[1:] == _codebook_rows(book)
    # every slot's parameters follow from the two tables by the one slot rule
    curving, points = _read_codebook_csv(p)
    np.testing.assert_array_equal(slot_params(curving, points, range(len(book))),
                                  book.slot_params(range(len(book))))


@pytest.mark.parametrize("chunk", [4096, 5])
def test_parameter_text_is_each_values_repr_with_signed_zeros(tmp_path, monkeypatch, chunk):
    # -0.0 and 0.0 are distinct values: each keeps its own text in the
    # codebook CSV and its own bits in the trace, as do powers of 0.0,
    # 1e-300 and 1/3
    monkeypatch.setattr(gridio, "_CHUNK_LINES", chunk)
    arr = half_wavelength_array(16, CAR)
    book = product_codebook([-0.0, 0.0, 0.5, -0.5],
                            [(np.inf, -0.0), (np.inf, 0.0), (2.0, -0.2), (1 / 3, 0.2),
                             (2.0, 0.0)], arr, CAR)
    p = tmp_path / "book.csv"
    write_codebook_csv(p, book)
    rows = p.read_text().splitlines()[1:]
    assert rows == _codebook_rows(book)
    assert rows[:2] == ["curving,0,-0.0,,", "curving,1,0.0,,"]
    assert rows[4:6] == ["focus,0,,inf,-0.0", "focus,1,,inf,0.0"]
    params = book.slot_params(range(len(book)))
    rebuilt = slot_params(*_read_codebook_csv(p), range(len(book)))
    assert rebuilt.tobytes() == params.tobytes()
    powers = np.random.default_rng(2).uniform(0.0, 2.0, len(book))
    powers[:3] = 0.0, 1e-300, 1 / 3
    result = SearchResult((book,), powers)
    q = tmp_path / "trace.bin"
    write_search_trace(q, result)
    (curving, points, back), = read_search_trace(q)
    assert back.tobytes() == powers.tobytes()
    assert back[:3].tolist() == [0.0, 1e-300, 1 / 3]
    assert slot_params(curving, points, range(len(book))).tobytes() == params.tobytes()
    assert np.signbit(curving[:2]).tolist() == [True, False]
    assert np.signbit(points[:2, 1]).tolist() == [True, False]
