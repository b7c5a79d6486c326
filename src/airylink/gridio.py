"""Deterministic file output: binary grids and CSV tables.

All writers are pure functions of their inputs (no timestamps, no locale,
little-endian payloads, shortest-roundtrip decimal text), so a rerun with
the same inputs is byte-identical. An AIRYGRID file is a 36-byte header
(magic; version, kind, name length as <III; rows, cols as <QQ), then the
arrays its writer names, streamed to the file one after another.
"""

from __future__ import annotations

import itertools
import struct

import numpy as np

from .beam import FieldMap
from .channel import ChannelMatrix, ChannelModel
from .codebook import Codebook
from .evaluation import SWEEP_COLUMNS
from .search import SearchResult

__all__ = ["write_channel_binary", "read_channel_binary", "write_field_map_binary",
           "read_field_map_binary", "write_search_trace", "read_search_trace",
           "write_field_map_csv", "write_sweep_csv", "write_codebook_csv", "write_text"]

_MAGIC = b"AIRYGRID"
_HEADER = struct.Struct("<8sIII QQ")
_KIND_CHANNEL, _KIND_FIELD_MAP, _KIND_TRACE = 1, 2, 3
_KINDS = {1: "channel", 2: "field-map", 3: "search-trace"}
# Lines joined per write by write_text.
_CHUNK_LINES = 4096


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form, dot separator, no locale."""
    return repr(float(value))


def write_text(path, lines) -> None:
    """Write the iterable `lines` as UTF-8 text, each ended by a newline.

    Lines are joined and written in chunks, so a generator of many lines
    never sits in memory whole.
    """
    rest = iter(lines)
    with open(path, "wb") as f:
        while chunk := list(itertools.islice(rest, _CHUNK_LINES)):
            f.write(("\n".join(chunk) + "\n").encode("utf-8"))


def _write_grid(path, kind: int, name: bytes, rows: int, cols: int, arrays) -> None:
    """Stream the header, `name` and each (dtype, values) of `arrays`, uncopied if contiguous."""
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, 1, kind, len(name), rows, cols) + name)
        for dtype, values in arrays:
            f.write(np.ascontiguousarray(values, dtype=dtype))


def _read_grid(path, kind: int, size) -> tuple:
    """Header fields and bytes (a writable uint8 array that the readers view) of a
    `kind` file, checked for magic, version, kind and a length of `size(raw, *fields)`."""
    raw = np.fromfile(path, np.uint8)
    name = _KINDS[kind]
    if len(raw) < _HEADER.size:
        raise ValueError(f"{name} grid: {len(raw)} bytes, under its {_HEADER.size}-byte header")
    magic, version, got, *fields = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError("not a grid file")
    if version != 1 or got != kind:
        raise ValueError(f"not a {name} grid")
    expected = size(raw, *fields)
    if len(raw) != expected:
        raise ValueError(f"{name} grid: {len(raw)} bytes, but its header calls for {expected}")
    return fields, raw


def write_channel_binary(path, channel: ChannelMatrix) -> None:
    """Kind 1: the model name, then the [rows, cols] entries as complex128."""
    rows, cols = channel.entries.shape
    _write_grid(path, _KIND_CHANNEL, channel.model.value.encode("ascii"), rows, cols,
                [("<c16", channel.entries)])


def read_channel_binary(path) -> ChannelMatrix:
    (name_len, rows, cols), raw = _read_grid(
        path, _KIND_CHANNEL, lambda raw, n, r, c: _HEADER.size + n + 16 * r * c)
    name = raw[_HEADER.size:_HEADER.size + name_len].tobytes().decode("ascii")
    data = np.frombuffer(raw, "<c16", rows * cols, _HEADER.size + name_len)
    return ChannelMatrix(data.reshape(rows, cols).astype(complex), ChannelModel(name))


def write_field_map_binary(path, field_map: FieldMap) -> None:
    """Kind 2: x [cols], y [rows], then the row-major [rows, cols] power in dB, as f64."""
    ny, nx = field_map.power_db.shape
    _write_grid(path, _KIND_FIELD_MAP, b"", ny, nx,
                [("<f8", field_map.x), ("<f8", field_map.y), ("<f8", field_map.power_db)])


def read_field_map_binary(path) -> FieldMap:
    (_, ny, nx), raw = _read_grid(
        path, _KIND_FIELD_MAP, lambda raw, n, r, c: _HEADER.size + 8 * (c + r + r * c))
    x, y, power = np.split(np.frombuffer(raw, "<f8", offset=_HEADER.size), [nx, nx + ny])
    return FieldMap(x, y, power.reshape(ny, nx))


def write_search_trace(path, result: SearchResult) -> None:
    """Kind 3, rows = books: per book J and F as <QQ, then its J curving values,
    [F, 2] focus points and J*F linear powers in slot order t = i*F + f
    (`codebook.slot_params`), the powers written from `result.powers` uncopied."""
    arrays, start = [], 0
    for book in result.books:
        arrays += [("<u8", [book.curving.size, book.focus_points.shape[0]]),
                   ("<f8", book.curving), ("<f8", book.focus_points),
                   ("<f8", result.powers[start:start + len(book)])]
        start += len(book)
    _write_grid(path, _KIND_TRACE, b"", len(result.books), 0, arrays)


def read_search_trace(path) -> list:
    """(curving [J], focus points [F, 2], powers [J*F]) of each book, in
    search order; slot parameters follow from `codebook.slot_params`."""
    tables = []

    def size(raw, name_len, num_books, cols) -> int:
        offset = _HEADER.size
        for _ in range(num_books):
            if offset + 16 > len(raw):  # this book's J and F are cut off
                return offset + 16
            j, f = struct.unpack_from("<QQ", raw, offset)
            tables.append((offset + 16, j, f))
            offset += 16 + 8 * (j + 2 * f + j * f)
        return offset
    _, raw = _read_grid(path, _KIND_TRACE, size)
    values = [np.frombuffer(raw, "<f8", j + 2 * f + j * f, o) for o, j, f in tables]
    return [(v[:j], v[j:j + 2 * f].reshape(f, 2), v[j + 2 * f:])
            for v, (_, j, f) in zip(values, tables)]


def write_field_map_csv(path, field_map: FieldMap) -> None:
    """Long-format (x, y, power_db) rows, row-major over the grid, formed one
    grid row at a time and streamed through `write_text`."""
    xs = [_fmt(v) for v in field_map.x]

    def lines():
        yield "x_m,y_m,power_db"
        for yv, row in zip(field_map.y, np.asarray(field_map.power_db, dtype=float)):
            y = _fmt(yv)
            yield from [f"{x},{y},{p!r}" for x, p in zip(xs, row.tolist())]
    write_text(path, lines())


def write_sweep_csv(path, rows) -> None:
    lines = [",".join(SWEEP_COLUMNS)]
    for r in rows:
        lines.append(f"{r.sweep_variable},{_fmt(r.value)},{r.scheme},{r.seed},"
                     f"{_fmt(r.spectral_efficiency_bps_hz)},{r.overhead_slots},"
                     f"{r.notes}")
    write_text(path, lines)


def write_codebook_csv(path, codebook: Codebook) -> None:
    """The book's J curving rows, then its F focus rows, each leaving the other's
    columns empty; slot t = i*F + f is curving i at focus f (`codebook.slot_params`)."""
    write_text(path, itertools.chain(  # row by row: no [F, 2] list of floats is formed
        ["factor,index,curving,focus_distance_m,focus_angle_rad"],
        (f"curving,{i},{_fmt(a)},," for i, a in enumerate(codebook.curving)),
        (f"focus,{f},,{_fmt(r)},{_fmt(th)}" for f, (r, th) in enumerate(codebook.focus_points))))
