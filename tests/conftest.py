import numpy as np
import pytest

from canids.frames import CanFrame, FrameTable, Label, pad_payload
from canids.ingest import make_windows


def make_frame(ts=0.0, arb=0x130, dlc=8, data=(1, 2, 3, 4, 5, 6, 7, 8), label=Label.NORMAL):
    return CanFrame(ts, arb, dlc, pad_payload(list(data)[:dlc]), label)


def normal_frames(n, arb_cycle=(0x100, 0x200, 0x300), dt=0.001):
    """Deterministic normal traffic cycling over a few IDs with varied payloads."""
    out = []
    for i in range(n):
        arb = arb_cycle[i % len(arb_cycle)]
        data = [(i + j) % 256 for j in range(8)]
        out.append(make_frame(ts=i * dt, arb=arb, dlc=8, data=data))
    return out


def windows_from(frames, window_size):
    return make_windows(FrameTable.from_frames(frames), window_size)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
