from typing import NamedTuple

import numpy as np
import pytest

from canids.frames import LABELS, MAX_DLC, FrameTable, Label
from canids.ingest import make_windows


class Row(NamedTuple):
    """One frame as test input; `table` turns a list of them into a FrameTable."""

    timestamp: float
    arbitration_id: int
    dlc: int
    payload: bytes  # 8 bytes, zero beyond dlc
    label: Label


def make_frame(ts=0.0, arb=0x130, dlc=8, data=(1, 2, 3, 4, 5, 6, 7, 8), label=Label.NORMAL):
    payload = bytes(list(data)[:dlc])
    return Row(ts, arb, dlc, payload + bytes(MAX_DLC - len(payload)), label)


def table(rows) -> FrameTable:
    n = len(rows)
    return FrameTable(
        timestamp=np.array([r.timestamp for r in rows], np.float64),
        arbitration_id=np.array([r.arbitration_id for r in rows], np.int64),
        dlc=np.array([r.dlc for r in rows], np.uint8),
        payload=np.frombuffer(b"".join(r.payload for r in rows), np.uint8).reshape(n, MAX_DLC),
        label=np.array([LABELS.index(r.label) for r in rows], np.int8))


def rows_of(t: FrameTable) -> list:
    """The rows of a table, as `table` takes them."""
    return [Row(ts, arb, dlc, bytes(p), LABELS[c])
            for ts, arb, dlc, p, c in zip(t.timestamp.tolist(), t.arbitration_id.tolist(),
                                          t.dlc.tolist(), t.payload, t.label.tolist())]


def normal_frames(n, arb_cycle=(0x100, 0x200, 0x300), dt=0.001):
    """Deterministic normal traffic cycling over a few IDs with varied payloads."""
    out = []
    for i in range(n):
        arb = arb_cycle[i % len(arb_cycle)]
        data = [(i + j) % 256 for j in range(8)]
        out.append(make_frame(ts=i * dt, arb=arb, dlc=8, data=data))
    return out


def windows_from(frames, window_size):
    return make_windows(table(frames), window_size)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def refuse(monkeypatch, *names):
    """Make each named function of canids (`module.function`) raise if called."""
    for name in names:
        def call(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} was called")
        monkeypatch.setattr(f"canids.{name}", call)
