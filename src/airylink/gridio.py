"""Deterministic file output: binary grids and CSV tables.

All writers are pure functions of their inputs (no timestamps, no locale,
little-endian payloads, shortest-roundtrip decimal text), so a rerun with
the same inputs is byte-identical.
"""

from __future__ import annotations

import itertools
import struct
from pathlib import Path

import numpy as np

from .beam import FieldMap
from .channel import ChannelMatrix, ChannelModel
from .codebook import Codebook
from .evaluation import SWEEP_COLUMNS
from .search import SearchResult

__all__ = [
    "write_channel_binary",
    "read_channel_binary",
    "write_field_map_binary",
    "read_field_map_binary",
    "write_field_map_csv",
    "write_search_trace_csv",
    "write_sweep_csv",
    "write_codebook_csv",
    "write_text",
]

_MAGIC = b"AIRYGRID"
_KIND_CHANNEL = 1
_KIND_FIELD_MAP = 2
# Lines joined per write by write_text.
_CHUNK_LINES = 4096


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form, dot separator, no locale."""
    return repr(float(value))


def _param_columns(params: np.ndarray) -> list:
    """The `_fmt` text of each column of a chunk's [n, 3] slot parameters,
    each distinct value formatted once. Values are told apart by bit
    pattern, so -0.0 and 0.0 keep their own text."""
    columns = []
    for values in params.T:
        _, first, inverse = np.unique(values.view(np.int64), return_index=True,
                                      return_inverse=True)
        texts = [repr(v) for v in values[first].tolist()]
        columns.append([texts[i] for i in inverse.tolist()])
    return columns


def write_text(path, lines) -> None:
    """Write the iterable `lines` as UTF-8 text, each ended by a newline.

    Lines are joined and written in chunks, so a generator of many lines
    never sits in memory whole.
    """
    rest = iter(lines)
    with open(path, "wb") as f:
        while chunk := list(itertools.islice(rest, _CHUNK_LINES)):
            f.write(("\n".join(chunk) + "\n").encode("utf-8"))


def write_channel_binary(path, channel: ChannelMatrix) -> None:
    """Header (magic, version, kind, rows, cols) + little-endian complex128."""
    rows, cols = channel.entries.shape
    header = _MAGIC + struct.pack("<III QQ", 1, _KIND_CHANNEL,
                                  len(channel.model.value), rows, cols)
    name = channel.model.value.encode("ascii")
    payload = np.ascontiguousarray(channel.entries).astype("<c16").tobytes()
    Path(path).write_bytes(header + name + payload)


def read_channel_binary(path) -> ChannelMatrix:
    raw = Path(path).read_bytes()
    if raw[:8] != _MAGIC:
        raise ValueError("not a grid file")
    version, kind, name_len, rows, cols = struct.unpack("<III QQ", raw[8:36])
    if version != 1 or kind != _KIND_CHANNEL:
        raise ValueError("not a channel grid")
    name = raw[36:36 + name_len].decode("ascii")
    data = np.frombuffer(raw[36 + name_len:], dtype="<c16").reshape(rows, cols)
    return ChannelMatrix(data.astype(complex), ChannelModel(name))


def write_field_map_binary(path, field_map: FieldMap) -> None:
    """Header + x grid, y grid, then row-major power (dB) as little-endian f64."""
    ny, nx = field_map.power_db.shape
    header = _MAGIC + struct.pack("<III QQ", 1, _KIND_FIELD_MAP, 0, ny, nx)
    body = (np.asarray(field_map.x, dtype="<f8").tobytes()
            + np.asarray(field_map.y, dtype="<f8").tobytes()
            + np.ascontiguousarray(field_map.power_db).astype("<f8").tobytes())
    Path(path).write_bytes(header + body)


def read_field_map_binary(path) -> FieldMap:
    raw = Path(path).read_bytes()
    if raw[:8] != _MAGIC:
        raise ValueError("not a grid file")
    version, kind, _, ny, nx = struct.unpack("<III QQ", raw[8:36])
    if version != 1 or kind != _KIND_FIELD_MAP:
        raise ValueError("not a field-map grid")
    off = 36
    x = np.frombuffer(raw[off:off + 8 * nx], dtype="<f8"); off += 8 * nx
    y = np.frombuffer(raw[off:off + 8 * ny], dtype="<f8"); off += 8 * ny
    power = np.frombuffer(raw[off:], dtype="<f8").reshape(ny, nx)
    return FieldMap(x.copy(), y.copy(), power.copy(), mask_applied=False)


def write_field_map_csv(path, field_map: FieldMap) -> None:
    """Long-format (x, y, power_db) rows, row-major over the grid."""
    xs = [_fmt(v) for v in field_map.x]
    lines = ["x_m,y_m,power_db"]
    for yv, row in zip(field_map.y, np.asarray(field_map.power_db, dtype=float).tolist()):
        y = _fmt(yv)
        lines.extend([f"{x},{y},{p!r}" for x, p in zip(xs, row)])
    write_text(path, lines)


def write_search_trace_csv(path, result: SearchResult) -> None:
    """Per-slot training record: beam parameters and measured power in dB.

    Rows are formed one chunk at a time, with parameters from
    `result.slot_params` and dB values from that chunk's powers, so an
    exhaustive book's millions of slots never sit in memory as a parameter
    table, a dB array, text or float objects. A chunk formats each distinct
    parameter value once (its rows repeat a few curving values, distances
    and angles) and each power per row.
    """
    def lines():
        yield "slot,curving,focus_distance_m,focus_angle_rad,power_db"
        for start in range(0, result.overhead, _CHUNK_LINES):
            slots = range(start, min(start + _CHUNK_LINES, result.overhead))
            powers = result.powers[start:slots.stop]
            power_db = np.full(powers.shape, -np.inf)
            positive = powers > 0
            power_db[positive] = 10.0 * np.log10(powers[positive])
            yield from [f"{slot},{a},{r},{th},{p!r}" for slot, a, r, th, p
                        in zip(slots, *_param_columns(result.slot_params(slots)),
                               power_db.tolist())]
    write_text(path, lines())


def write_sweep_csv(path, rows) -> None:
    lines = [",".join(SWEEP_COLUMNS)]
    for r in rows:
        lines.append(f"{r.sweep_variable},{_fmt(r.value)},{r.scheme},{r.seed},"
                     f"{_fmt(r.spectral_efficiency_bps_hz)},{r.overhead_slots},"
                     f"{r.notes}")
    write_text(path, lines)


def write_codebook_csv(path, codebook: Codebook) -> None:
    """One row per codeword, chunk by chunk as in `write_search_trace_csv`:
    neither a [T, 3] parameter table nor the whole text is ever formed."""
    scheme = codebook.scheme.value

    def lines():
        yield "index,scheme,curving,focus_distance_m,focus_angle_rad"
        for start in range(0, len(codebook), _CHUNK_LINES):
            slots = range(start, min(start + _CHUNK_LINES, len(codebook)))
            yield from [f"{t},{scheme},{a},{r},{th}"
                        for t, a, r, th in zip(slots, *_param_columns(codebook.slot_params(slots)))]
    write_text(path, lines())
