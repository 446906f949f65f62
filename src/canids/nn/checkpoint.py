"""Binary model checkpoints (versioned header + per-parameter records), atomic writes, csv tables.

Record layout (little-endian): u32 name length, utf-8 name, u32 rank,
u32 dims..., then raw float64 data. Round trips are bit exact.
"""
from __future__ import annotations

import contextlib
import csv
import math
import os
import struct
import warnings
from pathlib import Path

import numpy as np

MAGIC = b"CANCKPT"
VERSION = 1


class CheckpointError(ValueError):
    pass


@contextlib.contextmanager
def atomic_path(path):
    """Yield a temp path beside `path` to write to; rename it over `path` when the
    block succeeds, so a failed write leaves the previous file intact. The temp file
    never outlives the block."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_atomic(path, data: bytes) -> None:
    with atomic_path(path) as tmp:
        tmp.write_bytes(data)


def write_csv(path, header, rows) -> None:
    """Write `header` and `rows` as csv.writer does, through atomic_path."""
    with atomic_path(path) as tmp, tmp.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def read_csv(path) -> np.ndarray:
    """The float64 matrix below a numeric table's header, bit for bit; no rows below a bare header."""
    with warnings.catch_warnings():  # np.loadtxt warns on a file with no rows
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def save_checkpoint(params, path) -> None:
    parts = [MAGIC, struct.pack("<BI", VERSION, len(params))]
    for p in params:
        name = p.name.encode("utf-8")
        parts += [struct.pack("<I", len(name)), name,
                  struct.pack(f"<{1 + p.data.ndim}I", p.data.ndim, *p.data.shape),
                  np.ascontiguousarray(p.data, dtype="<f8").tobytes()]
    write_atomic(path, b"".join(parts))


def load_checkpoint(path) -> dict:
    """Read a checkpoint into a name -> ndarray mapping. Every length is checked against
    the bytes left, and none may be left over: a bad file raises CheckpointError."""
    path = Path(path)
    buf = memoryview(path.read_bytes())
    pos = len(MAGIC)

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if n > len(buf) - pos:
            raise CheckpointError(f"{path}: truncated or corrupt checkpoint "
                                  f"({what} needs {n} bytes, {len(buf) - pos} left)")
        pos += n
        return buf[pos - n : pos]

    if buf[:pos] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version, count = struct.unpack("<BI", take(5, "header"))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    out = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<I", take(4, "name"))
        try:
            name = str(take(nlen, "name"), "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: corrupt checkpoint (parameter name is not utf-8)") from None
        (rank,) = struct.unpack("<I", take(4, f"rank of {name!r}"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, f"dims of {name!r}"))
        data = take(8 * math.prod(shape), f"data of {name!r}")
        out[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    if pos != len(buf):
        raise CheckpointError(f"{path}: corrupt checkpoint ({len(buf) - pos} bytes after the last record)")
    return out


def restore_parameters(params, path) -> None:
    """Load saved arrays into existing Parameters, matched by name and shape; the
    checkpoint must hold exactly the Parameters' names."""
    saved, names = load_checkpoint(path), {p.name for p in params}
    if saved.keys() != names:
        raise CheckpointError(f"checkpoint parameters differ from the model's: missing "
                              f"{sorted(names - saved.keys())}, extra {sorted(saved.keys() - names)}")
    for p in params:
        if saved[p.name].shape != p.data.shape:
            raise CheckpointError(
                f"shape mismatch for {p.name!r}: checkpoint {saved[p.name].shape} vs model {p.data.shape}")
        p.data[...] = saved[p.name]
