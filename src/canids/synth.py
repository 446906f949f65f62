"""Synthetic CAN traffic generation and attack injection (flooding/fuzzing/replay/spoofing).

Generation and injection build FrameTables column by column. Every spec is
checked when it is constructed, before any frame is generated, because a value
out of range would wrap silently in a uint8 column.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Tuple

import numpy as np

from .frames import LABELS, MAX_ARBITRATION_ID, MAX_DLC, FrameTable, Label

STANDARD_ID_SPACE = 0x800  # 11-bit IDs for randomly fuzzed frames
MAX_FRAMES = 10**7  # the most frames a profile, or one attack, may ask for: 27x the acceptance corpus


MODELS = ("const", "counter", "walk", "mixed")


@dataclass(frozen=True)
class EcuSpec:
    """A periodic ECU whose `model` fixes every payload byte i < dlc: byte 0 of
    `counter` and `mixed` counts frames mod 256; byte 0 of `walk` and byte 1 of
    `mixed` walk from 127 by a step in [-5, 5], clamped to [0, 255]; every other
    byte is the constant (arbitration_id + 37 * i + 1) % 256."""

    arbitration_id: int
    period_ms: float
    dlc: int
    model: str

    def __post_init__(self) -> None:
        if not 0 <= self.arbitration_id < MAX_ARBITRATION_ID:
            raise ValueError(f"ECU arbitration_id {self.arbitration_id:#x} outside 29-bit range")
        if not 0 <= self.dlc <= MAX_DLC:
            raise ValueError(f"ECU {self.arbitration_id:#x} dlc {self.dlc} outside [0, {MAX_DLC}]")
        if not 0 < self.period_ms < np.inf:
            raise ValueError(f"ECU {self.arbitration_id:#x} period must be finite and > 0, "
                             f"got {self.period_ms}")
        if self.model not in MODELS:
            raise ValueError(f"unknown ecu byte model {self.model!r}")


@dataclass(frozen=True)
class TrafficProfile:
    ecu_specs: Tuple[EcuSpec, ...]
    duration: float
    jitter: float = 0.0  # fraction of period, uniform +- jitter
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.ecu_specs:
            raise ValueError("profile needs at least one ECU spec")
        if not 0.0 <= self.jitter < 0.5:
            raise ValueError(f"jitter must lie in [0, 0.5), got {self.jitter}")
        if not 0 < self.duration < np.inf:
            raise ValueError(f"duration must be finite and > 0, got {self.duration}")
        frames = sum(self.duration * 1000 / spec.period_ms for spec in self.ecu_specs)
        if not frames <= MAX_FRAMES:
            raise ValueError(f"profile asks for {frames:.4g} frames, more than MAX_FRAMES = {MAX_FRAMES}")


@dataclass(frozen=True)
class AttackSpec:
    kind: Label
    start: float
    duration: float
    rate: float = 100.0                       # messages/second (flooding, fuzzing, spoofing)
    target_id: int = 0x000                    # flooding, spoofing
    replay_span: Tuple[float, float] = (0.0, 0.0)
    mutation: Tuple[Tuple[int, int, int], ...] = ()  # (byte index, lo, hi) inclusive ranges

    def __post_init__(self) -> None:
        if self.kind not in LABELS[1:]:
            raise ValueError(f"not an attack kind: {self.kind}")
        if not (np.isfinite(self.start) and 0 <= self.duration < np.inf):
            raise ValueError(f"attack needs a finite start and a finite duration >= 0, "
                             f"got {self.start} and {self.duration}")
        if not 0 < self.rate < np.inf:
            raise ValueError(f"{self.kind.value.lower()} rate must be positive and finite")
        if not self.rate * self.duration <= MAX_FRAMES:
            raise ValueError(f"{self.kind.value.lower()} asks for {self.rate * self.duration:.4g} frames, "
                             f"more than MAX_FRAMES = {MAX_FRAMES}")
        if not 0 <= self.target_id < MAX_ARBITRATION_ID:
            raise ValueError(f"attack target_id {self.target_id:#x} outside 29-bit range")
        if self.kind is Label.SPOOFING and not self.mutation:
            raise ValueError("spoofing needs at least one byte mutation")
        for index, lo, hi in self.mutation:
            if not 0 <= index < MAX_DLC:
                raise ValueError(f"mutation byte index {index} outside [0, {MAX_DLC - 1}]")
            if not 0 <= lo <= hi <= 0xFF:
                raise ValueError(f"mutation bounds {lo}:{hi} need 0 <= lo <= hi <= 255")


def _ecu_frames(spec: EcuSpec, profile: TrafficProfile, idx: int) -> FrameTable:
    """One ECU's frames in send order: frame k is due at k * period, for every
    k * period < duration."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=profile.seed, spawn_key=(idx,)))
    period = spec.period_ms / 1000.0
    # duration / period is rounded, so allow two more k than its floor, then cut
    k = np.arange(int(profile.duration / period) + 2)
    k = k[: np.searchsorted(k * period, profile.duration)]
    n, dlc = len(k), spec.dlc
    payload = np.zeros((n, MAX_DLC), np.uint8)
    payload[:, :dlc] = (spec.arbitration_id + 37 * np.arange(dlc) + 1) % 256
    if spec.model in ("counter", "mixed") and dlc:
        payload[:, 0] = k & 0xFF
    walk = {"walk": 0, "mixed": 1}.get(spec.model, dlc)  # the walking byte, if < dlc
    jitter = profile.jitter
    if walk >= dlc:
        u = rng.uniform(-jitter, jitter, size=n) if jitter > 0 else None
    else:
        # a frame's jitter draw comes before its walk step, so draw frame by frame
        u = np.empty(n)
        value = 127
        for i in range(n):
            if jitter > 0:
                u[i] = rng.uniform(-jitter, jitter)
            value = payload[i, walk] = max(0, min(255, value + int(rng.integers(-5, 6))))
    ts = k * period
    if jitter > 0:
        ts = np.maximum(ts + u * period, 0.0)
    return FrameTable(ts, np.full(n, spec.arbitration_id, np.int64),
                      np.full(n, dlc, np.uint8), payload, np.zeros(n, np.int8))


def generate_normal(profile: TrafficProfile) -> FrameTable:
    """Emit periodic frames for every ECU, merged in timestamp order.

    Deterministic for a fixed seed; each ECU draws from its own seeded
    substream so adding an ECU never perturbs the others.
    """
    table = FrameTable.concat([_ecu_frames(spec, profile, idx)
                               for idx, spec in enumerate(profile.ecu_specs)])
    return table[np.argsort(table.timestamp, kind="stable")]


def inject(table: FrameTable, spec: AttackSpec, seed: int = 0) -> FrameTable:
    """Insert attack frames into a timestamp-sorted log; originals are untouched.

    The output stays sorted by timestamp, with injected frames placed after
    originals on ties.
    """
    if not len(table):
        raise ValueError("cannot inject into an empty log")
    if np.any(table.timestamp[1:] < table.timestamp[:-1]):
        raise ValueError("cannot inject into a log whose timestamps are not sorted")
    rng = np.random.default_rng(seed)
    end = spec.start + spec.duration
    t0, t1 = table.timestamp[[0, -1]].tolist()
    if spec.start < t0 - 1e-9 or end > t1 + 1e-9:
        raise ValueError(f"attack interval [{spec.start}, {end}] outside log span [{t0}, {t1}]")
    count = int(round(spec.rate * spec.duration))
    arb = np.full(count, spec.target_id, np.int64)
    dlc = np.full(count, MAX_DLC, np.uint8)
    payload = np.zeros((count, MAX_DLC), np.uint8)
    ts = spec.start + np.arange(count) / spec.rate

    if spec.kind is Label.FUZZING:
        ts = np.sort(rng.uniform(spec.start, end, size=count))
        for i in range(count):
            arb[i] = rng.integers(0, STANDARD_ID_SPACE)
            dlc[i] = n = rng.integers(0, MAX_DLC + 1)
            payload[i, :n] = rng.integers(0, 256, size=n)
    elif spec.kind is Label.REPLAY:
        lo, hi = spec.replay_span
        source = table[(lo <= table.timestamp) & (table.timestamp < hi)]
        if not len(source):
            raise ValueError(f"replay span [{lo}, {hi}) contains no frames")
        ts = spec.start + (source.timestamp - source.timestamp[0])
        arb, dlc, payload = source.arbitration_id, source.dlc, source.payload
    elif spec.kind is Label.SPOOFING:
        # spoofed payloads start from the victim's last genuine payload
        victim = np.flatnonzero(table.arbitration_id == spec.target_id)
        last = np.searchsorted(table.timestamp[victim], ts, side="right") - 1
        seen = last >= 0
        dlc[seen] = table.dlc[victim[last[seen]]]
        payload[seen] = table.payload[victim[last[seen]]]
        dlc = np.maximum(dlc, max(index for index, _, _ in spec.mutation) + 1)
        for row in payload:
            for index, lo, hi in spec.mutation:
                row[index] = rng.integers(lo, hi + 1)

    injected = FrameTable(ts, arb, dlc, payload,
                          np.full(len(ts), LABELS.index(spec.kind), np.int8))
    # every kind yields time-ordered frames (replay copies sorted rows); each goes after the
    # originals at or before its time, so only rows at[0]:at[-1] interleave with them
    at = np.searchsorted(table.timestamp, ts, side="right")
    lo, hi = (at[0], at[-1]) if len(at) else (0, 0)
    middle = table[lo:hi]
    merged = FrameTable(*(np.insert(getattr(middle, f.name), at - lo, getattr(injected, f.name),
                                    axis=0) for f in fields(FrameTable)))
    return FrameTable.concat([table[:lo], merged, table[hi:]])
