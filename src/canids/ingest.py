"""CAN log parsing and the preprocessing chain: padding, windowing, splits."""
from __future__ import annotations

import csv
import logging
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .frames import LABELS, MAX_ARBITRATION_ID, MAX_DLC, FrameTable, Label, Window
from .nn import atomic_path

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """Raised for malformed rows; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


COLUMNS = ("timestamp", "arbitration_id", "dlc", "payload", "label")  # a log's header


def _parse_hex(text: str, what: str) -> int:
    t = text.strip()
    if t.lower().startswith("0x"):
        t = t[2:]
    try:
        return int(t, 16)
    except ValueError:
        raise ValueError(f"malformed hex {what} {text!r}") from None


def _parse_payload(text: str) -> list:
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
            raise ValueError(f"odd-length contiguous hex payload {text!r}")
        parts = [t[i : i + 2] for i in range(0, len(t), 2)]
    out = []
    for p in parts:
        v = _parse_hex(p, "payload byte")
        if v > 0xFF:
            raise ValueError(f"payload byte {p!r} exceeds 0xFF")
        out.append(v)
    if len(out) > MAX_DLC:
        raise ValueError(f"payload has {len(out)} bytes, max is {MAX_DLC}")
    return out


def _parse_id(text: str) -> int:
    return _parse_hex(text, "arbitration id")


def _field(rows, width, index, default):
    """Column `index` of every row as text; `default` where a row is too short or the
    column is absent (index None)."""
    if index is None:
        return [default] * len(rows)
    present = width > index
    if present.all():
        return list(map(itemgetter(index), rows))
    return [row[index] if ok else default for row, ok in zip(rows, present.tolist())]


def _convert(texts, convert, dtype, fast=None):
    """(values, rejected) for one column. An all-valid column takes one C-level pass
    over `fast` (default: map(convert, texts)); otherwise each cell is converted
    alone, a rejected or missing (None) cell becomes 0, and an integer too large for
    `dtype` becomes -1, which fails every range check."""
    n = len(texts)
    if None not in texts:
        try:
            return np.fromiter(fast or map(convert, texts), dtype, n), np.zeros(n, bool)
        except (ValueError, OverflowError):
            pass
    values = np.zeros(n, dtype)
    rejected = np.zeros(n, bool)
    for i, text in enumerate(texts):
        if text is None:  # missing column
            rejected[i] = True
            continue
        try:
            values[i] = convert(text)
        except ValueError:
            rejected[i] = True
        except OverflowError:
            values[i] = -1
    return values, rejected


def _label_code(text: str) -> int:
    """Index of a label text in LABELS: empty text is Normal, an unknown label -1."""
    try:
        return LABELS.index(Label.from_string(text)) if text else 0
    except ValueError:
        return -1


def _reason(convert, text, missing: str = "") -> str:
    """Why `convert` rejects `text` (None: the column is missing)."""
    if text is None:
        return missing
    try:
        convert(text)
    except ValueError as e:
        return str(e)


_HEX_DIGITS = "0123456789abcdefABCDEF"
_NIBBLE = np.full(128, -1, np.int16)  # ASCII hex digit -> value; anything else -> -1
_NIBBLE[[ord(c) for c in _HEX_DIGITS]] = [int(c, 16) for c in _HEX_DIGITS]
_CANONICAL_WIDTH = 3 * MAX_DLC - 1  # "HH HH HH HH HH HH HH HH"


def _decode_payloads(texts):
    """(payload uint8[N, 8], rejected bool[N]).

    The form write_log emits (two hex digits per byte, single spaces, at most 8
    bytes, or empty) is decoded for all rows at once through a nibble table; any
    other text goes through _parse_payload for that row alone."""
    n = len(texts)
    length = np.fromiter(map(len, texts), np.int64, n)
    chars = np.array(texts, dtype=f"U{_CANONICAL_WIDTH}").view(np.uint32)
    chars = chars.reshape(n, _CANONICAL_WIDTH)
    nibbles = _NIBBLE[np.minimum(chars, 127, out=chars)]  # code points >= 127 are not hex
    high, low = nibbles[:, 0::3], nibbles[:, 1::3]
    count = (length + 1) // 3
    used = np.arange(MAX_DLC) < count[:, None]
    canonical = (((length % 3 == 2) | (length == 0)) & (length <= _CANONICAL_WIDTH)
                 & np.all(((high >= 0) & (low >= 0)) | ~used, axis=1)
                 & np.all((chars[:, 2::3] == ord(" ")) | ~used[:, 1:], axis=1))
    payload = np.where(used & canonical[:, None], high * 16 + low, 0).astype(np.uint8)
    rejected = np.zeros(n, bool)
    for i in np.flatnonzero(~canonical):
        try:
            data = _parse_payload(texts[i])
        except ValueError:
            rejected[i] = True
            continue
        payload[i, : len(data)] = data
    return payload, rejected


_BLOCK_ROWS = 4096  # rows converted at a time: bounds how many cell strings are alive at once


def _parse_block(rows, lines, position: dict) -> FrameTable:
    """Convert and validate consecutive non-blank rows; `lines` holds their physical
    line numbers and `position` maps a header name to its column. Raises ParseError
    for the first bad row."""
    n = len(rows)
    width = np.fromiter(map(len, rows), np.int64, n)
    ts_text, id_text, dlc_text, payload_text, label_text = (
        _field(rows, width, position.get(name), default)
        for name, default in zip(COLUMNS, (None, None, None, "", "")))
    timestamp, ts_bad = _convert(ts_text, float, np.float64)
    # int(text, 16) also reads "0x_1", which _parse_id rejects
    fast_id = None if "_" in "".join(filter(None, id_text)) else map(int, id_text, repeat(16))
    arb, id_bad = _convert(id_text, _parse_id, np.int64, fast_id)
    dlc, dlc_bad = _convert(dlc_text, int, np.int64)
    payload, payload_bad = _decode_payloads(payload_text)
    payload[np.arange(MAX_DLC) >= dlc[:, None]] = 0  # the declared DLC wins
    codes = {text: _label_code(text) for text in set(label_text)}
    label = np.fromiter(map(codes.__getitem__, label_text), np.int8, n)

    # in the order a row is checked, so a row's message is its first failure
    checks = [
        (ts_bad, lambda i: _reason(float, ts_text[i], "missing column 'timestamp'")),
        (id_bad, lambda i: _reason(_parse_id, id_text[i], "missing column 'arbitration_id'")),
        (dlc_bad, lambda i: _reason(int, dlc_text[i], "missing column 'dlc'")),
        ((dlc < 0) | (dlc > MAX_DLC), lambda i: f"dlc {int(dlc_text[i])} outside [0, {MAX_DLC}]"),
        (payload_bad, lambda i: _reason(_parse_payload, payload_text[i])),
        (label < 0, lambda i: _reason(Label.from_string, label_text[i])),
        ((arb < 0) | (arb >= MAX_ARBITRATION_ID),
         lambda i: f"arbitration id {_parse_id(id_text[i]):#x} outside 29-bit range"),
    ]
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        i = int(np.argmax(failed))
        raise ParseError(lines[i], next(message(i) for mask, message in checks if mask[i]))
    return FrameTable(timestamp, arb, dlc.astype(np.uint8), payload, label)


def parse_log(path) -> FrameTable:
    """Parse a CSV CAN log into one FrameTable, rows in file order.

    The header row names the columns, in any order, with the names in COLUMNS; a log
    with no label column is all Normal. Blank lines are skipped. A malformed row
    raises ParseError naming its physical line (1-based, header included); when
    several rows are bad, the first in file order is named, with the first failing
    check of that row. Rows are converted
    column by column, a block of rows at a time: payloads in the form write_log
    emits ("HH HH ...") are decoded for the whole block at once; comma-separated,
    contiguous ("A1B2C3") and single-digit forms are parsed row by row. Payloads
    shorter than 8 bytes are zero-padded; a payload longer than the declared DLC is
    truncated to it. Non-monotone timestamps produce a warning, not an error.
    """
    path = Path(path)
    blocks, rows, lines = [], [], []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        # a repeated name maps to its last column, as in csv.DictReader
        position = {name: i for i, name in enumerate(next(reader, None) or [])}
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
                if len(rows) == _BLOCK_ROWS:
                    blocks.append(_parse_block(rows, lines[-len(rows):], position))
                    rows = []
        blocks.append(_parse_block(rows, lines[len(lines) - len(rows):], position))
    table = FrameTable.concat(blocks)
    back = np.flatnonzero(table.timestamp[1:] < table.timestamp[:-1])
    if back.size:
        log.warning("%s: non-monotone timestamp at line %d (kept in file order)",
                    path, lines[back[0] + 1])
    return table


_HEX_TEXT = np.frombuffer(b"0123456789ABCDEF", np.uint8)


def write_log(table: FrameTable, path) -> None:
    """Write a frame table in the CSV schema parse_log reads back (round-trip safe),
    through a temp file and a rename. Columns are formatted a block of rows at a
    time; a payload is its first dlc bytes as "HH HH ..."."""
    label_text = np.array([member.value for member in LABELS])
    with atomic_path(path) as tmp, tmp.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(COLUMNS)
        for start in range(0, len(table), _BLOCK_ROWS):
            t = table[start : start + _BLOCK_ROWS]
            text = np.full((len(t), _CANONICAL_WIDTH + 1), ord(" "), np.uint8)
            text[:, 0::3] = _HEX_TEXT[t.payload >> 4]
            text[:, 1::3] = _HEX_TEXT[t.payload & 0xF]
            # NUL out each row's tail: a bytes element of a numpy array drops trailing NULs
            text[np.arange(_CANONICAL_WIDTH + 1) >= 3 * t.dlc[:, None].astype(np.int64) - 1] = 0
            payload = text.view(f"S{_CANONICAL_WIDTH + 1}").ravel().astype(str)
            w.writerows(zip(t.timestamp.tolist(), map("{:03X}".format, t.arbitration_id.tolist()),
                            t.dlc.tolist(), payload.tolist(), label_text[t.label].tolist()))


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
    with atomic_path(path) as tmp, tmp.open("w", newline="") as fh:
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
