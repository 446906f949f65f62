"""Synthetic CAN traffic generation and attack injection (flooding/fuzzing/replay/spoofing).

Generation and injection build FrameTables column by column. Every spec is
checked when it is constructed, before any frame is generated, because a value
out of range would wrap silently in a uint8 column.

The walk, fuzzing and spoofing draws are read in arrays from the raw PCG64
stream, with the values and the final generator state of numpy's scalar
`uniform` and `integers` calls made frame by frame. Numpy documents neither
stream: the scalar loops in tests/test_synth.py are the oracle that catches a
numpy upgrade that changes them.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import accumulate
from typing import Tuple

import numpy as np

from .frames import LABELS, MAX_ARBITRATION_ID, MAX_DLC, FrameTable, Label

STANDARD_ID_SPACE = 0x800  # 11-bit IDs for randomly fuzzed frames
MAX_FRAMES = 10**7  # the most frames a profile, or one attack, may ask for: 27x the acceptance corpus
CHUNK = 1 << 12  # frames per block of array draws, so a MAX_FRAMES attack holds about 3 MB of draws
WORD = 2**64 - 1  # the inclusive top of a draw that reads one whole PCG64 word, as `uniform` does


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


# The AttackSpec fields beyond kind, start and duration that `inject` reads, per attack kind.
ATTACK_FIELDS = {Label.FLOODING: ("rate", "target_id"), Label.FUZZING: ("rate",),
                 Label.REPLAY: ("replay_span",), Label.SPOOFING: ("rate", "target_id", "mutation")}


@dataclass(frozen=True)
class AttackSpec:
    kind: Label
    start: float
    duration: float
    rate: float = 100.0  # messages/second
    target_id: int = 0x000
    replay_span: Tuple[float, float] = (0.0, 0.0)
    mutation: Tuple[Tuple[int, int, int], ...] = ()  # (byte index, lo, hi) inclusive ranges

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_FIELDS:
            raise ValueError("attack kind cannot be Normal")
        if not (np.isfinite(self.start) and 0 <= self.duration < np.inf):
            raise ValueError(f"attack needs a finite start and a finite duration >= 0, "
                             f"got {self.start} and {self.duration}")
        if "rate" in ATTACK_FIELDS[self.kind]:
            if not 0 < self.rate < np.inf:
                raise ValueError(f"{self.kind.value.lower()} rate must be positive and finite")
            if not self.rate * self.duration <= MAX_FRAMES:
                raise ValueError(f"{self.kind.value.lower()} asks for {self.rate * self.duration:.4g} "
                                 f"frames, more than MAX_FRAMES = {MAX_FRAMES}")
        if "target_id" in ATTACK_FIELDS[self.kind] and not 0 <= self.target_id < MAX_ARBITRATION_ID:
            raise ValueError(f"attack target_id {self.target_id:#x} outside 29-bit range")
        if self.kind is Label.SPOOFING:
            if not self.mutation:
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
    if walk < dlc:
        u, payload[:, walk] = _walk(rng, n, jitter)
    elif jitter > 0:
        u = rng.uniform(-jitter, jitter, size=n)
    ts = k * period
    if jitter > 0:
        ts = np.maximum(ts + u * period, 0.0)
    return FrameTable(ts, np.full(n, spec.arbitration_id, np.int64),
                      np.full(n, dlc, np.uint8), payload, np.zeros(n, np.int8))


def _draws(rng: np.random.Generator, tops: Tuple[int, ...], count: int):
    """Yield (rows, draws) for `count` frames, CHUNK frames at a time; draws is
    (frames, len(tops)) uint64. Each frame draws once per top, in order: WORD
    reads a whole word, as `uniform` does, and any other top t is
    `integers(0, t + 1)`, which reads nothing for t = 0. Given one top per draw,
    `integers` makes these scalar draws in order in C, Lemire rejections and
    the buffered half-word included, so the generator ends where they would."""
    block = np.tile(np.array(tops, np.uint64), min(count, CHUNK))
    for at in range(0, count, CHUNK):
        rows = slice(at, min(at + CHUNK, count))
        draws = rng.integers(0, block[:len(tops) * (rows.stop - at)], endpoint=True, dtype=np.uint64)
        yield rows, draws.reshape(-1, len(tops))


def _walk(rng: np.random.Generator, n: int, jitter: float) -> Tuple[np.ndarray, np.ndarray]:
    """n frames' `rng.uniform(-jitter, jitter)` values (zeros for jitter 0) and
    walking bytes: from 127, each frame's step `rng.integers(-5, 6)`, drawn
    after its jitter, clamped to [0, 255]."""
    u, walk, value = np.zeros(n), np.empty(n, np.uint8), 127
    for rows, draws in _draws(rng, (WORD, 10) if jitter > 0 else (10,), n):
        if jitter > 0:  # uniform's low + (high - low) * double, double = (word >> 11) * 2**-53
            u[rows] = -jitter + 2 * jitter * ((draws[:, 0] >> 11) * 2.0**-53)
        steps = (draws[:, -1].astype(np.int64) - 5).tolist()
        values = list(accumulate(steps, lambda v, step: max(0, min(255, v + step)), initial=value))
        walk[rows], value = values[1:], values[-1]
    return u, walk


def _fuzzing(rng: np.random.Generator, count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ids, DLCs and payloads of `count` fuzzing frames, with the values and
    the generator state of the scalar loop `integers(0, 0x800)`, `integers(0,
    9)`, `integers(0, 256, size=dlc)` per frame. Each draw reads a 32-bit
    half-word h, mapped by Lemire's method: an id is h * 0x800 >> 32, a byte
    h * 256 >> 32, and a DLC h * 9 >> 32 unless h * 9 mod 2**32 < 4, when the
    next half is drawn. A chase finds the frames that fit in a block of peeked
    halves; the generator is then set back and moved past just their halves. A
    block too short for one frame is peeked again twice as long."""
    arb, dlc = np.empty(count, np.int64), np.empty(count, np.uint8)
    payload = np.zeros((count, MAX_DLC), np.uint8)
    bg, done, spare = rng.bit_generator, 0, 1
    while done < count:
        want = min(count - done, CHUNK)
        state = bg.state
        halves = rng.integers(0, 2**32, size=(MAX_DLC + 2) * (want + spare))  # room for rejections
        scaled, n = halves * (MAX_DLC + 1), len(halves)
        # at[q]: the half a DLC drawn from half q on reads, the first one Lemire accepts (n if none)
        at = np.append(np.where(scaled % 2**32 >= 2**32 % (MAX_DLC + 1), np.arange(n), n), n)
        at = np.minimum.accumulate(at[::-1])[::-1]
        # ends[p]: where a frame that starts at half p ends; the chase reads a few of them,
        # so a memoryview gives those as ints without a list of them all
        ends = memoryview(at[1:] + 1 + np.append(scaled >> 32, n)[at[1:]])
        starts, p = [], 0
        while len(starts) < want and p < n and ends[p] <= n:
            starts.append(p)
            p = ends[p]
        bg.state = state
        rng.integers(0, 2**32, size=p)  # the halves those frames read, and no more
        spare = 1 if starts else 2 * spare
        rows, starts = slice(done, done + len(starts)), np.array(starts, np.int64)
        dlc_at = at[starts + 1]
        arb[rows] = halves[starts] * STANDARD_ID_SPACE >> 32
        dlc[rows] = sizes = scaled[dlc_at] >> 32
        byte_at = np.minimum(dlc_at[:, None] + 1 + np.arange(MAX_DLC), n - 1)
        payload[rows] = np.where(np.arange(MAX_DLC) < sizes[:, None], halves[byte_at] * 256 >> 32, 0)
        done = rows.stop
    return arb, dlc, payload


def _spoofing(rng: np.random.Generator, payload: np.ndarray, mutation) -> None:
    """Set each row's mutated bytes in order, as `row[index] = rng.integers(lo,
    hi + 1)` for each (index, lo, hi) of `mutation` would, row by row."""
    for rows, draws in _draws(rng, tuple(hi - lo for _, lo, hi in mutation), len(payload)):
        for (index, lo, _), column in zip(mutation, draws.T):  # in order: a repeated index keeps its last draw
            payload[rows, index] = lo + column


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
    if spec.kind is Label.REPLAY:
        lo, hi = spec.replay_span
        source = table[(lo <= table.timestamp) & (table.timestamp < hi)]
        if not len(source):
            raise ValueError(f"replay span [{lo}, {hi}) contains no frames")
        ts = spec.start + (source.timestamp - source.timestamp[0])
        arb, dlc, payload = source.arbitration_id, source.dlc, source.payload
    else:  # the kinds that read a rate
        count = int(round(spec.rate * spec.duration))
        if spec.kind is Label.FUZZING:
            ts = np.sort(rng.uniform(spec.start, end, size=count))
            arb, dlc, payload = _fuzzing(rng, count)
        else:  # flooding and spoofing send to target_id at the rate
            arb = np.full(count, spec.target_id, np.int64)
            dlc = np.full(count, MAX_DLC, np.uint8)
            payload = np.zeros((count, MAX_DLC), np.uint8)
            ts = spec.start + np.arange(count) / spec.rate

    if spec.kind is Label.SPOOFING:
        # spoofed payloads start from the victim's last genuine payload
        victim = np.flatnonzero(table.arbitration_id == spec.target_id)
        last = np.searchsorted(table.timestamp[victim], ts, side="right") - 1
        seen = last >= 0
        dlc[seen] = table.dlc[victim[last[seen]]]
        payload[seen] = table.payload[victim[last[seen]]]
        dlc = np.maximum(dlc, max(index for index, _, _ in spec.mutation) + 1)
        _spoofing(rng, payload, spec.mutation)

    injected = FrameTable(ts, arb, dlc, payload,
                          np.full(len(ts), LABELS.index(spec.kind), np.int8))
    # every kind yields time-ordered frames (replay copies sorted rows); each goes after the
    # originals at or before its time, so only rows lo:hi interleave with them. Output rows
    # lo:hi + n hold those and the n injected ones, the i-th at row at[i] + i.
    n = len(ts)
    at = np.searchsorted(table.timestamp, ts, side="right")
    lo, hi = (at[0], at[-1]) if n else (0, 0)
    at += np.arange(n) - lo
    is_new = np.zeros(hi - lo + n, bool)
    is_new[at] = True
    columns = []
    for f in fields(FrameTable):
        old = getattr(table, f.name)
        out = np.empty((len(old) + n,) + old.shape[1:], old.dtype)
        out[:lo], out[hi + n:] = old[:lo], old[hi:]
        out[lo:hi + n][is_new] = getattr(injected, f.name)
        out[lo:hi + n][~is_new] = old[lo:hi]
        columns.append(out)
    return FrameTable(*columns)
