"""The columnar frame table and window types shared across the pipeline."""
from __future__ import annotations

import enum
from dataclasses import dataclass, fields
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


LABELS = tuple(Label)  # FrameTable.label codes index into this; NORMAL is code 0


@dataclass(frozen=True, eq=False)
class FrameTable:
    """One log as columns; row i is frame i. A slice of it is a table of views; an
    index array picks rows into a new table."""

    timestamp: np.ndarray       # float64[N]
    arbitration_id: np.ndarray  # int64[N]
    dlc: np.ndarray             # uint8[N]
    payload: np.ndarray         # uint8[N, 8], zero beyond dlc
    label: np.ndarray           # int8[N], codes into LABELS

    @classmethod
    def concat(cls, tables: Sequence["FrameTable"]) -> "FrameTable":
        """The rows of `tables`, one after another."""
        return cls(*(np.concatenate([getattr(t, f.name) for t in tables]) for f in fields(cls)))

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, rows) -> "FrameTable":
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
