"""Binary model checkpoints: versioned header + per-parameter records.

Record layout (little-endian): u32 name length, utf-8 name, u32 rank,
u32 dims..., then raw float64 data. Round trips are bit exact.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"CANCKPT"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(params, path) -> None:
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BI", VERSION, len(params)))
        for p in params:
            name = p.name.encode("utf-8")
            fh.write(struct.pack("<I", len(name)))
            fh.write(name)
            fh.write(struct.pack("<I", len(p.data.shape)))
            for d in p.data.shape:
                fh.write(struct.pack("<I", d))
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def _read(fh, n: int, path: Path, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"{path}: truncated checkpoint (short read in {what})")
    return data


def load_checkpoint(path) -> dict:
    """Read a checkpoint into a name -> ndarray mapping."""
    path = Path(path)
    out = {}
    with path.open("rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        version, count = struct.unpack("<BI", _read(fh, 5, path, "header"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        for _ in range(count):
            (nlen,) = struct.unpack("<I", _read(fh, 4, path, "name"))
            name = _read(fh, nlen, path, "name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read(fh, 4, path, f"dims of {name!r}"))
            shape = struct.unpack(f"<{rank}I", _read(fh, 4 * rank, path, f"dims of {name!r}"))
            n = int(np.prod(shape)) if shape else 1
            data = _read(fh, 8 * n, path, f"data of {name!r}")
            out[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    return out


def restore_parameters(params, path) -> None:
    """Load saved arrays into existing Parameters, matched by name and shape."""
    saved = load_checkpoint(path)
    for p in params:
        if p.name not in saved:
            raise CheckpointError(f"checkpoint missing parameter {p.name!r}")
        if saved[p.name].shape != p.data.shape:
            raise CheckpointError(
                f"shape mismatch for {p.name!r}: checkpoint {saved[p.name].shape} vs model {p.data.shape}")
        p.data[...] = saved[p.name]
