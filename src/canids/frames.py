"""Core CAN frame, columnar frame table, and window types shared across the pipeline."""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MAX_DLC = 8
MAX_ARBITRATION_ID = 1 << 29  # 29-bit extended IDs


class Label(enum.Enum):
    NORMAL = "Normal"
    FLOODING = "Flooding"
    FUZZING = "Fuzzing"
    REPLAY = "Replay"
    SPOOFING = "Spoofing"

    @classmethod
    def from_string(cls, s: str) -> "Label":
        key = s.strip().lower()
        for member in cls:
            if member.value.lower() == key:
                return member
        raise ValueError(f"unknown label {s!r}")


@dataclass(frozen=True)
class CanFrame:
    """One parsed CAN message with an 8-byte zero-padded payload."""

    timestamp: float
    arbitration_id: int
    dlc: int
    payload: bytes  # always 8 bytes; bytes at index >= dlc are 0x00
    label: Label = Label.NORMAL

    def __post_init__(self) -> None:
        if not 0 <= self.dlc <= MAX_DLC:
            raise ValueError(f"dlc {self.dlc} outside [0, {MAX_DLC}]")
        if not 0 <= self.arbitration_id < MAX_ARBITRATION_ID:
            raise ValueError(f"arbitration id {self.arbitration_id:#x} outside 29-bit range")
        if len(self.payload) != MAX_DLC:
            raise ValueError(f"payload must be {MAX_DLC} bytes, got {len(self.payload)}")
        if any(self.payload[i] != 0 for i in range(self.dlc, MAX_DLC)):
            raise ValueError("payload bytes beyond dlc must be zero")


def pad_payload(data: Sequence[int]) -> bytes:
    """Zero-pad a payload of up to 8 bytes to exactly 8 bytes."""
    if len(data) > MAX_DLC:
        raise ValueError(f"payload longer than {MAX_DLC} bytes")
    return bytes(data) + b"\x00" * (MAX_DLC - len(data))


LABELS = tuple(Label)  # FrameTable.label codes index into this; NORMAL is code 0
_LABEL_CODE = {label: code for code, label in enumerate(LABELS)}


@dataclass(frozen=True, eq=False)
class FrameTable:
    """One log as columns; row i is frame i. Slicing returns a table of views."""

    timestamp: np.ndarray       # float64[N]
    arbitration_id: np.ndarray  # int64[N]
    dlc: np.ndarray             # uint8[N]
    payload: np.ndarray         # uint8[N, 8], zero beyond dlc
    label: np.ndarray           # int8[N], codes into LABELS

    @classmethod
    def from_frames(cls, frames: Sequence[CanFrame]) -> "FrameTable":
        n = len(frames)
        return cls(
            timestamp=np.fromiter((f.timestamp for f in frames), np.float64, n),
            arbitration_id=np.fromiter((f.arbitration_id for f in frames), np.int64, n),
            dlc=np.fromiter((f.dlc for f in frames), np.uint8, n),
            payload=np.frombuffer(b"".join(f.payload for f in frames), np.uint8).reshape(n, MAX_DLC),
            label=np.fromiter((_LABEL_CODE[f.label] for f in frames), np.int8, n))

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, rows: slice) -> "FrameTable":
        return FrameTable(self.timestamp[rows], self.arbitration_id[rows], self.dlc[rows],
                          self.payload[rows], self.label[rows])


@dataclass
class Window:
    """W consecutive rows of a frame table; labeled anomalous when any row is an attack."""

    index: int
    frames: FrameTable  # exactly W rows
    label: int          # 1 = anomalous

    @property
    def size(self) -> int:
        return len(self.frames)

    def attack_kinds(self) -> set:
        """Attack labels present in this window (empty for a normal window)."""
        return {LABELS[c] for c in np.unique(self.frames.label)} - {Label.NORMAL}
