"""CAN log parsing and the preprocessing chain: padding, windowing, splits."""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .frames import LABELS, MAX_DLC, CanFrame, FrameTable, Label, Window, pad_payload

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """Raised for malformed rows; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class ColumnMapping:
    """Column layout of a CAN log CSV.

    With a header row, fields name columns; without one, they are 0-based
    positional indices given as strings of integers.
    """

    timestamp: str = "timestamp"
    arbitration_id: str = "arbitration_id"
    dlc: str = "dlc"
    payload: str = "payload"
    label: Optional[str] = "label"  # None = no label column, all rows Normal
    has_header: bool = True


DEFAULT_MAPPING = ColumnMapping()


def _parse_hex(text: str, what: str, line_no: int) -> int:
    t = text.strip()
    if t.lower().startswith("0x"):
        t = t[2:]
    try:
        return int(t, 16)
    except ValueError:
        raise ParseError(line_no, f"malformed hex {what} {text!r}") from None


def _parse_payload(text: str, line_no: int) -> list:
    t = text.strip()
    if not t:
        return []
    if "," in t:
        parts = [p for p in t.split(",") if p.strip()]
    elif " " in t:
        parts = t.split()
    else:
        # one contiguous hex string, two digits per byte
        if len(t) % 2 != 0:
            raise ParseError(line_no, f"odd-length contiguous hex payload {text!r}")
        parts = [t[i : i + 2] for i in range(0, len(t), 2)]
    out = []
    for p in parts:
        v = _parse_hex(p, "payload byte", line_no)
        if v > 0xFF:
            raise ParseError(line_no, f"payload byte {p!r} exceeds 0xFF")
        out.append(v)
    if len(out) > MAX_DLC:
        raise ParseError(line_no, f"payload has {len(out)} bytes, max is {MAX_DLC}")
    return out


def parse_log(path, mapping: ColumnMapping = DEFAULT_MAPPING, strict: bool = False) -> list:
    """Parse a CSV CAN log into CanFrame objects, preserving file order.

    Payloads shorter than 8 bytes are zero-padded. In strict mode a payload
    longer than the declared DLC is a parse error; otherwise it is truncated
    to the DLC, so the bytes beyond the DLC are dropped. Non-monotone
    timestamps produce a warning, not an error.
    """
    path = Path(path)
    frames = []
    prev_ts = None
    warned = False
    with path.open(newline="") as fh:
        if mapping.has_header:
            reader = csv.DictReader(fh)
            rows = ((i + 2, row) for i, row in enumerate(reader))

            def get(row, key):
                if key not in row or row[key] is None:
                    raise KeyError(key)
                return row[key]

        else:
            reader = csv.reader(fh)
            rows = ((i + 1, row) for i, row in enumerate(reader))

            def get(row, key):
                return row[int(key)]

        for line_no, row in rows:
            if not row:
                continue
            try:
                ts = float(get(row, mapping.timestamp))
                arb = _parse_hex(get(row, mapping.arbitration_id), "arbitration id", line_no)
                dlc = int(get(row, mapping.dlc))
            except (KeyError, IndexError) as e:
                raise ParseError(line_no, f"missing column {e}") from None
            except ValueError as e:
                raise ParseError(line_no, str(e)) from None
            if not 0 <= dlc <= MAX_DLC:
                raise ParseError(line_no, f"dlc {dlc} outside [0, {MAX_DLC}]")
            try:
                raw = get(row, mapping.payload)
            except (KeyError, IndexError):
                raw = ""
            data = _parse_payload(raw or "", line_no)
            if len(data) > dlc:
                if strict:
                    raise ParseError(line_no, f"payload has {len(data)} bytes but dlc is {dlc}")
                data = data[:dlc]  # the declared DLC wins
            label = Label.NORMAL
            if mapping.label is not None:
                try:
                    text = get(row, mapping.label)
                except (KeyError, IndexError):
                    text = None
                if text:
                    try:
                        label = Label.from_string(text)
                    except ValueError as e:
                        raise ParseError(line_no, str(e)) from None
            try:
                frame = CanFrame(ts, arb, dlc, pad_payload(data), label)
            except ValueError as e:
                raise ParseError(line_no, str(e)) from None
            if prev_ts is not None and ts < prev_ts and not warned:
                log.warning("%s: non-monotone timestamp at line %d (kept in file order)", path, line_no)
                warned = True
            prev_ts = ts
            frames.append(frame)
    return frames


def write_log(frames: Iterable[CanFrame], path) -> None:
    """Write frames in the same CSV schema parse_log reads back (round-trip safe)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "arbitration_id", "dlc", "payload", "label"])
        for f in frames:
            payload_hex = " ".join(f"{b:02X}" for b in f.payload[: f.dlc])
            w.writerow([repr(f.timestamp), f"{f.arbitration_id:03X}", f.dlc, payload_hex, f.label.value])


def make_windows(table: FrameTable, window_size: int) -> list:
    """Split a frame table into non-overlapping windows of exactly window_size rows.

    A trailing run shorter than window_size is discarded. A window is labeled 1
    when any of its frames carries an attack label.
    """
    if window_size < 1:
        raise ValueError(f"window_size must be >= 1, got {window_size}")
    n_full = len(table) // window_size
    attack = table.label[: n_full * window_size].reshape(n_full, window_size).any(axis=1)
    return [Window(index=i, frames=table[i * window_size : (i + 1) * window_size],
                   label=int(attack[i]))
            for i in range(n_full)]


def split_dataset(windows, ratios=(0.6, 0.2, 0.2)):
    """Chronological train/val/test split; floor-rounded, remainder to test."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"need three positive ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    n = len(windows)
    if n < 3:
        raise ValueError(f"need at least 3 windows to split, got {n}")
    n_train = int(n * ratios[0])
    n_val = int(n * ratios[1])
    train = windows[:n_train]
    val = windows[n_train : n_train + n_val]
    test = windows[n_train + n_val :]
    return train, val, test


def write_windows_csv(windows, path) -> None:
    """Dump a windowed dataset: one row per frame with its window index and features."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        header = ["window_index", "frame_ordinal", "dlc_norm"]
        header += [f"byte_bin{i}" for i in range(1, 9)]
        header += ["arbitration_id", "label"]
        w.writerow(header)
        for win in windows:
            t = win.frames
            rows = zip((t.dlc / MAX_DLC).tolist(), (t.payload > 0).astype(int).tolist(),
                       t.arbitration_id.tolist(), t.label.tolist())
            for j, (dlc_norm, byte_bin, arb, code) in enumerate(rows):
                w.writerow([win.index, j, repr(dlc_norm)] + byte_bin
                           + [f"{arb:03X}", LABELS[code].value])
